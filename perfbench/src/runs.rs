//! The three `louvain run` workloads: one CLI process per repetition,
//! and an in-process traced pass for the per-layer numbers.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use distributed_louvain::comm::RunConfig;
use distributed_louvain::dist::{f_score, nmi, run_distributed_with, DistConfig, DistOutcome};
use distributed_louvain::graph::{binio, gen, Csr, VertexId};
use distributed_louvain::obs::{self, Json};

use crate::check::{assignment_problems, same_q};
use crate::layers;
use crate::proc::{self, Bins};
use crate::report::Report;
use crate::stats::{median, mix};

/// Graphs of the workload's spec per run, drawn from sub-seeds. One
/// graph's cost depends on its draw (RMAT draws converge in 19 or 20
/// iterations, and their run times differ by up to a fifth), so the
/// timed repetitions rotate over several graphs and no single draw sets
/// a run's median.
const GRAPHS: usize = 5;
/// Timed set-ups of a graph right before each of its timed runs. One
/// graph's set-up takes about half a second and a single sample moves by
/// up to a sixth with the host, so each run adds more than one.
const SETUPS_PER_RUN: usize = 2;

#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// RMAT, 2^17 vertices × edge factor 8: about 972k edges.
    Rmat,
    /// LFR, 131,072 vertices, μ = 0.3: about 895k edges, with the
    /// planted communities as ground truth.
    Lfr,
}

/// One `louvain run` workload.
#[derive(Debug, Clone, Copy)]
pub struct RunWorkload {
    pub family: Family,
    pub ranks: usize,
    pub threads: usize,
}

struct Input {
    graph: PathBuf,
    csr: Csr,
    truth: Option<Vec<VertexId>>,
}

/// Generate graph `k` of the workload from `seed` and write it where the
/// program will read it: `graph-k.bin` and, for LFR, `graph-k.truth`
/// (kept off the CLI's `<graph>.truth` sibling name so that `louvain
/// run` spends its time on Louvain, not on scoring).
fn write_input(family: Family, dir: &Path, seed: u64, k: usize) -> Result<Input, String> {
    let seed = mix(&[seed, k as u64]);
    let generated = match family {
        Family::Rmat => gen::rmat(gen::RmatParams::social(17, 8, seed)),
        Family::Lfr => gen::lfr(gen::LfrParams {
            mu: 0.3,
            ..gen::LfrParams::small(131_072, seed)
        }),
    };
    let graph = dir.join(format!("graph-{k}.bin"));
    binio::write_edge_list(&graph, &generated.graph.to_edge_list())
        .map_err(|e| format!("writing {}: {e}", graph.display()))?;
    if let Some(truth) = &generated.ground_truth {
        let text: String = truth.iter().map(|c| format!("{c}\n")).collect();
        std::fs::write(dir.join(format!("graph-{k}.truth")), text)
            .map_err(|e| format!("truth: {e}"))?;
    }
    Ok(Input {
        graph,
        csr: generated.graph,
        truth: generated.ground_truth,
    })
}

/// Set up one graph; its time is one `setup_s` sample.
fn timed_setup(w: RunWorkload, dir: &Path, seed: u64, k: usize) -> Result<(Input, f64), String> {
    let started = Instant::now();
    let input = write_input(w.family, dir, seed, k)?;
    Ok((input, started.elapsed().as_secs_f64()))
}

/// Set up every graph before the window. Graph 0 goes first and is the
/// untimed warm-up set-up; each other graph gives one `setup_s` sample.
fn setup(
    w: RunWorkload,
    dir: &Path,
    seed: u64,
    setup_times: &mut Vec<f64>,
) -> Result<Vec<Input>, String> {
    let mut inputs = Vec::new();
    for k in 0..GRAPHS {
        let (input, secs) = timed_setup(w, dir, seed, k)?;
        if k > 0 {
            setup_times.push(secs);
        }
        inputs.push(input);
    }
    // The truth file is what a user scores against; read it back so the
    // benchmark scores from the same bytes.
    for (k, input) in inputs.iter_mut().enumerate() {
        if input.truth.is_some() {
            input.truth = Some(read_assignment(&dir.join(format!("graph-{k}.truth")))?);
        }
    }
    Ok(inputs)
}

fn read_assignment(path: &Path) -> Result<Vec<VertexId>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|l| l.trim().parse::<VertexId>())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// What one checked `louvain run` gave.
struct RunResult {
    graph: usize,
    wall_s: f64,
    peak_rss_mb: f64,
    iterations: u64,
    nmi: f64,
    fscore: f64,
}

/// Run the CLI on graph `k` and check its outputs. `first_q` holds each
/// graph's first reported modularity; every repetition must match it.
fn louvain_run(
    bins: &Bins,
    w: RunWorkload,
    dir: &Path,
    (k, input): (usize, &Input),
    first_q: &mut [Option<f64>],
    r: &mut Report,
    what: &str,
) -> Result<Option<RunResult>, String> {
    let assignment = dir.join("assignment.txt");
    let report = dir.join("report.json");
    for f in [&assignment, &report] {
        let _ = std::fs::remove_file(f);
    }
    let log = std::fs::File::create(dir.join("louvain.log")).map_err(|e| format!("log: {e}"))?;
    let (exit, peak_rss_mb) = proc::run_measured(
        Command::new(&bins.louvain)
            .arg("run")
            .arg(&input.graph)
            .args(["--ranks", &w.ranks.to_string()])
            .args(["--threads-per-rank", &w.threads.to_string()])
            .args(["--variant", "baseline", "--assignment"])
            .arg(&assignment)
            .arg("--report-out")
            .arg(&report)
            .stdout(Stdio::null())
            .stderr(log),
    )?;
    if !exit.success {
        r.op(what, vec!["louvain run exited with an error".into()]);
        return Ok(None);
    }
    let doc = std::fs::read_to_string(&report)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t).map_err(|e| e.to_string()));
    let (q, iterations) = match &doc {
        Ok(d) => (
            d.get("modularity").and_then(Json::as_f64),
            d.get("iterations").and_then(Json::as_u64),
        ),
        Err(_) => (None, None),
    };
    let (Some(q), Some(iterations)) = (q, iterations) else {
        r.op(
            what,
            vec![format!("unreadable run report {}", report.display())],
        );
        return Ok(None);
    };
    let found = read_assignment(&assignment)?;
    let mut problems = assignment_problems(&input.csr, &found, q);
    problems.extend(same_q(&mut first_q[k], q));
    let (nmi, fscore) = match &input.truth {
        Some(t) if t.len() == found.len() => (nmi(t, &found), f_score(t, &found).f_score),
        _ => (0.0, 0.0),
    };
    r.op(what, problems);
    Ok(Some(RunResult {
        graph: k,
        wall_s: exit.wall_s,
        peak_rss_mb,
        iterations,
        nmi,
        fscore,
    }))
}

/// Mean over the graphs of one value per graph (each graph's runs agree
/// on it bit for bit, or the run was counted as failed).
fn per_graph_mean(runs: &[RunResult], f: fn(&RunResult) -> f64) -> f64 {
    let per_graph: Vec<f64> = (0..GRAPHS)
        .filter_map(|k| runs.iter().find(|x| x.graph == k).map(f))
        .collect();
    per_graph.iter().sum::<f64>() / per_graph.len() as f64
}

/// Untraced end-to-end pass: set up, one warm-up run on the first graph,
/// then whole rotations over the graphs until `seconds` have passed, so
/// every graph weighs the same in the median. Each timed run is preceded
/// by timed set-ups of its graph again (same seed, same bytes), so the
/// `setup_s` samples span the window's host phases the way the `run_s`
/// samples do, instead of the few seconds before it.
pub fn end_to_end(
    w: RunWorkload,
    bins: &Bins,
    dir: &Path,
    seed: u64,
    seconds: f64,
    r: &mut Report,
) -> Result<(), String> {
    let mut setup_times = Vec::new();
    let inputs = setup(w, dir, seed, &mut setup_times)?;
    let mut first_q = vec![None; inputs.len()];
    louvain_run(
        bins,
        w,
        dir,
        (0, &inputs[0]),
        &mut first_q,
        r,
        "warm-up run",
    )?;
    let window = Instant::now();
    let mut runs = Vec::new();
    let mut rep = 0;
    while rep % GRAPHS != 0 || window.elapsed().as_secs_f64() < seconds {
        rep += 1;
        let k = rep % inputs.len();
        for _ in 0..SETUPS_PER_RUN {
            setup_times.push(timed_setup(w, dir, seed, k)?.1);
        }
        let what = format!("run {rep} (graph {k})");
        match louvain_run(bins, w, dir, (k, &inputs[k]), &mut first_q, r, &what)? {
            Some(run) => runs.push(run),
            None if r.failed() > 3 => return Err("louvain run keeps failing".into()),
            None => {}
        }
    }
    let col = |f: fn(&RunResult) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    let n = runs.len();
    let qs: Vec<f64> = first_q.iter().flatten().copied().collect();
    r.metric("setup_s", median(&setup_times), setup_times.len());
    r.metric("run_s", median(&col(|x| x.wall_s)), n);
    r.metric("modularity", qs.iter().sum::<f64>() / qs.len() as f64, n);
    r.metric("peak_rss_mb", median(&col(|x| x.peak_rss_mb)), n);
    r.extra(
        "iterations",
        per_graph_mean(&runs, |x| x.iterations as f64),
        "count",
        n,
    );
    if inputs[0].truth.is_some() {
        r.extra("nmi", per_graph_mean(&runs, |x| x.nmi), "ratio", n);
        r.extra("fscore", per_graph_mean(&runs, |x| x.fscore), "ratio", n);
    }
    let walls: Vec<String> = runs
        .iter()
        .map(|x| format!("{:.3}@{}", x.wall_s, x.graph))
        .collect();
    r.note(format!("run walls (s@graph): {}", walls.join(" ")));
    let setups: Vec<String> = setup_times.iter().map(|t| format!("{t:.3}")).collect();
    r.note(format!("set-ups (s, in order): {}", setups.join(" ")));
    Ok(())
}

/// Traced pass on the first graph: load and run in-process twice
/// untraced and once traced, timing each layer's public entry point
/// around the call.
pub fn traced(w: RunWorkload, dir: &Path, seed: u64, r: &mut Report) -> Result<(), String> {
    let input = write_input(w.family, dir, seed, 0)?;
    let cfg = DistConfig {
        threads_per_rank: w.threads,
        ..DistConfig::baseline()
    };
    let (mut reads, mut builds, mut untraced) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_q = None;
    let mut traced: Option<(f64, DistOutcome)> = None;
    for rep in 0..3 {
        let trace = rep == 2;
        let t = Instant::now();
        let el = binio::read_edge_list(&input.graph).map_err(|e| e.to_string())?;
        reads.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let g = Csr::from_edge_list(el);
        builds.push(t.elapsed().as_secs_f64());
        obs::set_enabled(trace);
        let t = Instant::now();
        let out = run_distributed_with(&g, w.ranks, &cfg, RunConfig::default());
        let wall = t.elapsed().as_secs_f64();
        obs::set_enabled(false);
        let mut problems = assignment_problems(&input.csr, &out.assignment, out.modularity);
        problems.extend(same_q(&mut first_q, out.modularity));
        r.op(if trace { "traced run" } else { "untraced run" }, problems);
        if trace {
            traced = Some((wall, out));
        } else {
            untraced.push(wall);
        }
    }
    let (traced_wall, out) = traced.expect("the last repetition is traced");
    r.layer("graph.read_s", median(&reads));
    r.layer("graph.csr_build_s", median(&builds));
    r.layer("core.run_s", median(&untraced));
    r.layer("obs.trace_overhead", traced_wall / median(&untraced));
    layers::record_traced(r, &[&out])
}
