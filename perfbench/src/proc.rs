//! Building the real binaries, and running them as measured child
//! processes: wall time from spawn to exit and the child's own peak
//! resident memory.

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The two binaries the end-to-end numbers come from.
pub struct Bins {
    pub louvain: PathBuf,
    pub louvaind: PathBuf,
}

/// Build `louvain` and `louvaind` from the repository's own workspace
/// (release profile) and return their paths. Cargo's target directory
/// is honoured the way Cargo itself resolves it: `CARGO_TARGET_DIR`,
/// relative to the working directory, or `<root>/target`.
pub fn build_bins(root: &Path) -> Result<Bins, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| format!("working directory: {e}"))?
            .join(dir),
        None => root.join("target"),
    };
    let status = Command::new(cargo)
        .current_dir(root)
        .env("CARGO_TARGET_DIR", &target)
        .args(["build", "--release", "--quiet", "--bin", "louvain"])
        .args(["--bin", "louvaind"])
        .status()
        .map_err(|e| format!("cannot start cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building louvain/louvaind failed: {status}"));
    }
    let bin = target.join("release");
    Ok(Bins {
        louvain: bin.join("louvain"),
        louvaind: bin.join("louvaind"),
    })
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    pub wall_s: f64,
    pub success: bool,
}

/// Children that are running right now, for the watchdog.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn live() -> std::sync::MutexGuard<'static, Vec<u32>> {
    LIVE.lock()
        .expect("no thread panics while holding the child list")
}

/// Kill every live child and exit with status 3 once `limit` has
/// passed, so a hung daemon or run can never outlive the benchmark's
/// time limit. The thread is detached on purpose: it ends with the
/// process.
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        let pids: Vec<u32> = live().clone();
        for pid in pids {
            sys::kill_and_reap(pid as i32);
        }
        eprintln!("perfbench: time limit of {limit:?} exceeded; children killed");
        std::process::exit(3);
    });
}

/// Spawn `cmd` and register it with the watchdog.
pub fn spawn(cmd: &mut Command) -> Result<Child, String> {
    let child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {:?}: {e}", cmd.get_program()))?;
    live().push(child.id());
    Ok(child)
}

/// Wait for `child` to exit. `started` is when it was spawned.
pub fn reap(mut child: Child, started: Instant) -> Result<Exit, String> {
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    live().retain(|&p| p != child.id());
    Ok(Exit {
        wall_s,
        success: status.success(),
    })
}

/// A `kB` field of a live process's `/proc/<pid>/status`, in MiB.
pub fn status_mb(pid: u32, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// How often a running child's `VmHWM` is read.
const HWM_EVERY: Duration = Duration::from_millis(5);

/// Run `cmd` to completion; how it ended and its peak RSS in MiB.
///
/// The peak is the child's own `VmHWM`, read while it runs. `ru_maxrss`
/// from `wait4` would not do: a child started with `posix_spawn` shares
/// this process's memory until it execs, and Linux carries that shared
/// high-water mark into the child's `ru_maxrss`, so it would report the
/// benchmark's own footprint whenever that is the larger.
pub fn run_measured(cmd: &mut Command) -> Result<(Exit, f64), String> {
    let started = Instant::now();
    // `spawn` returns once the child has exec'd, so every read below
    // sees the child's own address space.
    let child = spawn(cmd)?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0.0f64;
            while !done.load(Ordering::SeqCst) {
                if let Some(mb) = status_mb(pid, "VmHWM") {
                    peak = peak.max(mb);
                }
                std::thread::sleep(HWM_EVERY);
            }
            peak
        });
        let exit = reap(child, started);
        done.store(true, Ordering::SeqCst);
        let peak = sampler.join().map_err(|_| "VmHWM sampler panicked")?;
        Ok((exit?, peak))
    })
}

/// `kill(2)` and `waitpid(2)` for the watchdog, which must stop children
/// another thread owns. The standard library links libc already; only
/// the declarations are needed.
mod sys {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
        fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    }

    const SIGKILL: i32 = 9;

    pub fn kill_and_reap(pid: i32) {
        let mut status = 0i32;
        // SAFETY: both calls take plain integers and a pointer to a live
        // local; `pid` is a child this process spawned and has not reaped
        // (reaping unregisters it), so no other process is signalled.
        unsafe {
            kill(pid, SIGKILL);
            waitpid(pid, &mut status, 0);
        }
    }
}
