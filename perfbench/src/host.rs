//! Host context printed with every result. None of it rescales a metric:
//! it lets a reader tell a slow host phase from a slow commit.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;
use std::time::Instant;

/// Online CPUs this process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Entries of the probe's pointer-chase cycle: 32 MiB, larger than the
/// last-level cache of a small guest, so the probe waits on memory the
/// way the sweep's random neighbour accesses do.
const PROBE_ENTRIES: usize = 1 << 23;
const PROBE_STEPS: usize = 1 << 18;

/// One random cycle through `PROBE_ENTRIES` slots (Sattolo's shuffle).
fn probe_cycle() -> &'static [u32] {
    static CYCLE: OnceLock<Vec<u32>> = OnceLock::new();
    CYCLE.get_or_init(|| {
        let mut next: Vec<u32> = (0..PROBE_ENTRIES as u32).collect();
        for i in (1..PROBE_ENTRIES).rev() {
            let j = (crate::stats::mix(&[i as u64]) % i as u64) as usize;
            next.swap(i, j);
        }
        next
    })
}

/// Milliseconds for a fixed chain of dependent loads through memory
/// (40 to 50 ms on a 2-vCPU x86-64 guest). A fixed compute
/// loop stays flat while memory-bound Louvain runs swing with the host's
/// phases; this probe swings with them.
pub fn probe_ms() -> f64 {
    let cycle = probe_cycle();
    let started = Instant::now();
    let mut at = 0u32;
    for _ in 0..black_box(PROBE_STEPS) {
        at = cycle[at as usize];
    }
    black_box(at);
    started.elapsed().as_secs_f64() * 1e3
}

/// The checkout's git revision, or `unknown` outside a git work tree.
pub fn git_rev(root: &Path) -> String {
    Command::new("git")
        .current_dir(root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Profile of this benchmark binary; `louvain` and `louvaind` are always
/// built with `--release`.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
