//! `perfbench` — end-to-end and per-layer benchmark for `louvain run` and
//! `louvaind` jobs. See README.md for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rmat-p1 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--workload all` runs every workload untraced and then traced.

mod check;
mod host;
mod layers;
mod proc;
mod report;
mod runs;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use report::Report;
use runs::{Family, RunWorkload};

/// Longest one workload pass may take once the binaries are built.
const PASS_LIMIT: Duration = Duration::from_secs(170);

const WORKLOADS: [&str; 4] = ["rmat-p1", "rmat-p1-t2", "lfr-p2", "serve-mix"];

fn run_workload(name: &str) -> Option<RunWorkload> {
    let (family, ranks, threads) = match name {
        "rmat-p1" => (Family::Rmat, 1, 1),
        "rmat-p1-t2" => (Family::Rmat, 1, 2),
        "lfr-p2" => (Family::Lfr, 2, 1),
        _ => return None,
    };
    Some(RunWorkload {
        family,
        ranks,
        threads,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |key: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key} <value>"))
    };
    let workload = get("--workload")?.to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected {} or all)",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A per-pass scratch directory inside the checkout, removed afterwards.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(root: &Path, name: &str) -> Result<WorkDir, String> {
        let dir = root
            .join(".perfbench-work")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One pass of one workload; returns its failed-operation count.
fn pass(
    root: &Path,
    bins: &proc::Bins,
    name: &str,
    args: &Args,
    trace: bool,
) -> Result<u64, String> {
    let dir = WorkDir::new(root, name)?;
    let mut r = Report::default();
    let before = host::probe_ms();
    match run_workload(name) {
        Some(w) if trace => runs::traced(w, &dir.0, args.seed, &mut r)?,
        Some(w) => runs::end_to_end(w, bins, &dir.0, args.seed, args.seconds, &mut r)?,
        None if trace => serve::traced(bins, &dir.0, args.seed, &mut r)?,
        None => serve::end_to_end(bins, &dir.0, args.seed, args.seconds, &mut r)?,
    }
    let after = host::probe_ms();
    r.note(format!(
        "host probe: {before:.2} ms before, {after:.2} ms after"
    ));
    if trace {
        r.layer("host.cores", host::cores() as f64);
        r.layer("host.probe_ms", (before + after) / 2.0);
    }
    let header = format!(
        "perfbench workload={name} seed={} seconds={} trace={} nproc={} rev={} profile={}",
        args.seed,
        args.seconds,
        u8::from(trace),
        host::cores(),
        host::git_rev(root),
        host::profile(),
    );
    r.print(&header, trace)?;
    Ok(r.failed())
}

fn run() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a subdirectory of the repository");
    let bins = proc::build_bins(root)?;
    let passes: Vec<(&str, bool)> = if args.workload == "all" {
        [false, true]
            .into_iter()
            .flat_map(|t| WORKLOADS.iter().map(move |w| (*w, t)))
            .collect()
    } else {
        vec![(args.workload.as_str(), args.trace)]
    };
    proc::start_watchdog(PASS_LIMIT * passes.len() as u32);
    let mut failed = 0;
    for (name, trace) in &passes {
        failed += pass(root, &bins, name, &args, *trace)?;
    }
    if passes.len() > 1 {
        println!(
            "summary: {} passes, {failed} failed operations",
            passes.len()
        );
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
