//! The `serve-mix` workload: a `louvaind serve` child process driven by
//! a closed loop of two TCP connections from this process, in lockstep.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use distributed_louvain::comm::RunConfig;
use distributed_louvain::dist::{
    run_distributed_resilient_source, CheckpointOptions, DistConfig, DistOutcome, GraphSource,
    ResilOptions,
};
use distributed_louvain::graph::{gen, Csr, VertexId};
use distributed_louvain::obs::{self, Json};
use distributed_louvain::serve::cache::graph_fingerprint;
use distributed_louvain::store::{self, SlabBuilder, SlabOptions};

use crate::check::assignment_problems;
use crate::layers;
use crate::proc::{self, Bins};
use crate::report::Report;
use crate::stats::{median, mix, p95, tail, TAIL_BEYOND};

/// Load-generator connections, and daemon workers: with jobs at one
/// rank, two workers keep exactly `nproc` = 2 threads busy.
pub const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
/// Result-cache capacity of the daemon. A repeat follows its original
/// within `MAX_REPEAT_DELAY` fresh jobs on its own connection, so at most
/// a handful of results are inserted in between: well inside this.
const CACHE: usize = 16;
/// Fresh jobs a repeat may trail its original by.
const MAX_REPEAT_DELAY: usize = 2;
/// Timed set-ups (slabs written and a daemon started each time), after
/// one untimed warm-up set-up. Half run before the timed window and half
/// after it, so the samples span the window's host phases instead of the
/// few seconds before it.
const SETUP_REPS: usize = 6;
/// Timed rounds over which the daemon's resident memory is sampled. The
/// daemon keeps every finished job's result in its job table and holds
/// on to much of the memory its jobs freed, so its memory grows with the
/// jobs it has served; sampling a fixed set of jobs keeps a faster commit
/// (more jobs in the window) from reading as a memory regression. The
/// window always runs at least this many rounds.
const RSS_ROUNDS: u64 = 3;
/// How often the daemon's RSS is sampled.
const RSS_EVERY: Duration = Duration::from_millis(20);
/// Sampler states.
const RSS_WAIT: u8 = 0;
const RSS_SAMPLE: u8 = 1;
const RSS_STOP: u8 = 2;

const VERTICES: u64 = 32_768;

/// The ingested inputs: 32,768-vertex graphs of different sizes, so a
/// cache hit's `graph_fingerprint` pass (a read of the whole slab) costs
/// differently per graph.
#[derive(Debug, Clone, Copy)]
enum SlabKind {
    Ssca2 { max_clique: u64 },
    Lfr { mu: f64 },
}

const SLABS: [(&str, SlabKind); 3] = [
    ("ssca2-c100", SlabKind::Ssca2 { max_clique: 100 }),
    ("ssca2-c40", SlabKind::Ssca2 { max_clique: 40 }),
    ("lfr-mu30", SlabKind::Lfr { mu: 0.3 }),
];

/// Paper variants a fresh job may run.
pub const VARIANTS: [&str; 3] = ["baseline", "cycling", "etc:0.25"];

/// Cache key of a job as the schedule sees it. `seed` is `config.seed`,
/// which makes every fresh key distinct; it has 52 bits, so the JSON
/// number carrying it is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    pub slab: usize,
    pub variant: usize,
    pub seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Fresh(Key),
    /// Resubmit the fresh job at this index of the same round.
    Repeat(usize),
}

/// Round used for each connection's warm-up.
pub const WARMUP_ROUND: u64 = u64::MAX;

/// One round of one connection. A round submits every slab × variant
/// pair once as a fresh job, each followed by its repeat after at most
/// `MAX_REPEAT_DELAY` further fresh jobs; the warm-up round is one fresh
/// job and its repeat. Whole rounds keep the mix of graphs and variants
/// the same however many rounds a run completes.
///
/// The order of pairs and the fresh/repeat pattern depend on `(seed,
/// round)` only; only the jobs' `config.seed` differs by connection. The
/// connections run in lockstep, so each slot runs the same slab and
/// variant on both workers at once and the daemon sees the same
/// concurrent work on every run of a seed.
pub fn round(seed: u64, conn: usize, round: u64) -> Vec<Op> {
    let shared = |i: u64| mix(&[seed, round, i]);
    let mut pairs: Vec<(usize, usize)> = if round == WARMUP_ROUND {
        vec![(0, 0)]
    } else {
        (0..SLABS.len())
            .flat_map(|s| (0..VARIANTS.len()).map(move |v| (s, v)))
            .collect()
    };
    // Fisher–Yates with the round's own stream.
    for i in (1..pairs.len()).rev() {
        let j = (shared(1_000 + i as u64) % (i as u64 + 1)) as usize;
        pairs.swap(i, j);
    }
    let mut ops = Vec::new();
    let mut pending: Vec<(usize, usize)> = Vec::new(); // (due after fresh #, op index)
    for (n, &(slab, variant)) in pairs.iter().enumerate() {
        let at = ops.len();
        ops.push(Op::Fresh(Key {
            slab,
            variant,
            seed: mix(&[seed, conn as u64, round, n as u64]) >> 12,
        }));
        let delay = (shared(2_000 + n as u64) % (MAX_REPEAT_DELAY as u64 + 1)) as usize;
        pending.push((n + delay, at));
        pending.retain(|&(due, orig)| {
            if due <= n {
                ops.push(Op::Repeat(orig));
                false
            } else {
                true
            }
        });
    }
    ops.extend(pending.into_iter().map(|(_, orig)| Op::Repeat(orig)));
    ops
}

/// Write the slab of `kind` from `seed`, spilling into `tmp`.
fn write_slab(kind: SlabKind, path: &Path, tmp: &Path, seed: u64) -> Result<(), String> {
    let opts = SlabOptions {
        tmp_dir: Some(tmp.to_path_buf()),
        ..SlabOptions::default()
    };
    let mut b = SlabBuilder::new(VERTICES, opts);
    let streamed = match kind {
        SlabKind::Ssca2 { max_clique } => gen::ssca2_stream(ssca2(max_clique, seed), &mut b),
        SlabKind::Lfr { mu } => gen::lfr_stream(lfr(mu, seed), &mut b),
    };
    streamed.map_err(|e| format!("generating {}: {e}", path.display()))?;
    b.finish(path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(())
}

fn ssca2(max_clique: u64, seed: u64) -> gen::Ssca2Params {
    gen::Ssca2Params {
        max_clique_size: max_clique,
        ..gen::Ssca2Params::paper(VERTICES, seed)
    }
}

fn lfr(mu: f64, seed: u64) -> gen::LfrParams {
    gen::LfrParams {
        mu,
        ..gen::LfrParams::small(VERTICES, seed)
    }
}

/// The same graph in memory, for checking returned assignments: the
/// streamed and in-memory generator paths emit identical edges.
fn reference_graph(kind: SlabKind, seed: u64) -> Csr {
    match kind {
        SlabKind::Ssca2 { max_clique } => gen::ssca2(ssca2(max_clique, seed)).graph,
        SlabKind::Lfr { mu } => gen::lfr(lfr(mu, seed)).graph,
    }
}

struct Inputs {
    slabs: Vec<PathBuf>,
    graphs: Vec<Csr>,
}

fn write_slabs(dir: &Path, seed: u64) -> Result<Vec<PathBuf>, String> {
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    SLABS
        .iter()
        .enumerate()
        .map(|(i, (name, kind))| {
            let path = dir.join(format!("{name}.slab"));
            write_slab(*kind, &path, &tmp, mix(&[seed, i as u64]))?;
            Ok(path)
        })
        .collect()
}

fn reference_graphs(seed: u64) -> Vec<Csr> {
    SLABS
        .iter()
        .enumerate()
        .map(|(i, (_, kind))| reference_graph(*kind, mix(&[seed, i as u64])))
        .collect()
}

/// A running `louvaind serve --listen 127.0.0.1:0` child.
struct Daemon {
    child: Option<Child>,
    started: Instant,
    addr: String,
    stdout: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn start(bins: &Bins, dir: &Path, event_log: Option<&Path>) -> Result<Daemon, String> {
        let log = std::fs::File::create(dir.join("louvaind.log")).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(&bins.louvaind);
        cmd.args(["serve", "--listen", "127.0.0.1:0"])
            .args(["--workers", &WORKERS.to_string()])
            .args(["--cache", &CACHE.to_string()])
            .arg("--ckpt-root")
            .arg(dir.join("ckpt"))
            .arg("--flight-dir")
            .arg(dir.join("flight"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log);
        if let Some(path) = event_log {
            cmd.arg("--event-log")
                .arg(path)
                .args(["--event-log-max-bytes", &(1u64 << 30).to_string()]);
        }
        let started = Instant::now();
        let mut child = proc::spawn(&mut cmd)?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut first = String::new();
        let read = out.read_line(&mut first);
        let mut daemon = Daemon {
            child: Some(child),
            started,
            addr: String::new(),
            stdout: Some(std::thread::spawn(move || drain(out))),
        };
        match (read, first.trim().strip_prefix("louvaind listening on ")) {
            (Ok(_), Some(addr)) => daemon.addr = addr.to_string(),
            _ => return Err(format!("louvaind did not start: {first:?}")),
        }
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon not yet reaped").id()
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Ask for a drain-and-exit on a control connection and reap the
    /// process.
    fn shutdown(mut self) -> Result<(), String> {
        let mut c = self.connect()?;
        c.send(&Json::Obj(vec![("type".into(), Json::str("shutdown"))]))?;
        while c.recv()?.get("type").and_then(Json::as_str) != Some("drained") {}
        drop(c);
        let child = self.child.take().expect("daemon not yet reaped");
        let exit = proc::reap(child, self.started)?;
        if let Some(h) = self.stdout.take() {
            h.join().map_err(|_| "stdout reader panicked")?;
        }
        if !exit.success {
            return Err("louvaind exited with an error".into());
        }
        Ok(())
    }
}

fn drain(mut out: BufReader<ChildStdout>) {
    let mut line = String::new();
    while matches!(out.read_line(&mut line), Ok(n) if n > 0) {
        line.clear();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = proc::reap(child, self.started);
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

/// One JSON-lines session.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn send(&mut self, doc: &Json) -> Result<(), String> {
        let line = doc.to_string_compact() + "\n";
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Json::parse(&line).map_err(|e| format!("bad response line: {e}")),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Submit and wait for the job's terminal line.
    fn submit(&mut self, job_id: &str, graph: &Path, key: Key) -> Result<JobResult, String> {
        let config = Json::Obj(vec![
            ("variant".into(), Json::str(VARIANTS[key.variant])),
            ("seed".into(), Json::Num(key.seed as f64)),
        ]);
        let doc = Json::Obj(vec![
            ("type".into(), Json::str("submit")),
            ("job_id".into(), Json::str(job_id)),
            ("graph".into(), Json::str(graph.to_string_lossy())),
            ("ranks".into(), Json::Num(1.0)),
            ("config".into(), config),
        ]);
        let started = Instant::now();
        self.send(&doc)?;
        loop {
            let line = self.recv()?;
            let ty = line.get("type").and_then(Json::as_str).unwrap_or("");
            let outcome = match ty {
                "accepted" => continue,
                "result" => line.get("outcome").and_then(Json::as_str).unwrap_or("?"),
                "rejected" => "rejected",
                _ => "error",
            };
            return Ok(JobResult {
                latency_s: started.elapsed().as_secs_f64(),
                done: outcome == "done",
                outcome: outcome.to_string(),
                cached: line.get("cached") == Some(&Json::Bool(true)),
                q: line
                    .get("modularity")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN),
                wall_s: line.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0) * 1e-3,
            });
        }
    }

    /// The final level of a finished job's dendrogram.
    fn assignment(&mut self, job_id: &str) -> Result<Vec<VertexId>, String> {
        self.send(&Json::Obj(vec![
            ("type".into(), Json::str("query")),
            ("job_id".into(), Json::str(job_id)),
        ]))?;
        let line = self.recv()?;
        let last = line
            .get("levels")
            .and_then(Json::as_arr)
            .and_then(|l| l.last())
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("no dendrogram for {job_id}: {}", line.to_string_compact()))?;
        last.iter()
            .map(|c| {
                c.as_u64()
                    .ok_or_else(|| "non-integer community id".to_string())
            })
            .collect()
    }

    fn counters(&mut self) -> Result<Json, String> {
        self.send(&Json::Obj(vec![("type".into(), Json::str("metrics"))]))?;
        let line = self.recv()?;
        line.get("counters")
            .cloned()
            .ok_or_else(|| "metrics response has no counters".into())
    }
}

#[derive(Debug, Clone)]
struct JobResult {
    latency_s: f64,
    done: bool,
    outcome: String,
    cached: bool,
    q: f64,
    wall_s: f64,
}

/// One submitted job and what checking it found.
struct Record {
    timed: bool,
    fresh: bool,
    job_id: String,
    result: JobResult,
    problems: Vec<String>,
}

struct Loop<'a> {
    inputs: &'a Inputs,
    seed: u64,
    /// Every connection waits here before each submission, so slot `i`
    /// of a round runs on all connections at once.
    step: Barrier,
    /// Whether the connections stop before the next round; written by
    /// the barrier leader, so all of them decide alike.
    stop: AtomicBool,
    /// Whether the RSS sampler records (`RSS_*`); set by the leader.
    sampler: AtomicU8,
}

impl Loop<'_> {
    fn run_round(
        &self,
        conn: &mut Conn,
        c: usize,
        r: u64,
        timed: bool,
        out: &mut Vec<Record>,
    ) -> Result<(), String> {
        let ops = round(self.seed, c, r);
        let base = out.len();
        for (i, op) in ops.iter().enumerate() {
            self.step.wait();
            let key = match *op {
                Op::Fresh(k) => k,
                Op::Repeat(j) => match ops[j] {
                    Op::Fresh(k) => k,
                    Op::Repeat(_) => unreachable!("a repeat always names a fresh job"),
                },
            };
            let round_tag = if r == WARMUP_ROUND {
                "w".to_string()
            } else {
                r.to_string()
            };
            let job_id = format!("c{c}-r{round_tag}-{i}");
            let res = conn.submit(&job_id, &self.inputs.slabs[key.slab], key)?;
            let mut problems = Vec::new();
            if !res.done {
                problems.push(format!("job ended `{}`", res.outcome));
            } else if let Op::Repeat(j) = *op {
                let orig = &out[base + j].result;
                if !res.cached {
                    problems.push("repeat of a finished job missed the cache".into());
                }
                if res.q.to_bits() != orig.q.to_bits() {
                    problems.push(format!("repeat Q {} != original Q {}", res.q, orig.q));
                }
            } else {
                if res.cached {
                    problems.push("fresh key answered from the cache".into());
                }
                let found = conn.assignment(&job_id)?;
                problems.extend(assignment_problems(
                    &self.inputs.graphs[key.slab],
                    &found,
                    res.q,
                ));
            }
            out.push(Record {
                timed,
                fresh: matches!(op, Op::Fresh(_)),
                job_id,
                result: res,
                problems,
            });
        }
        Ok(())
    }

    /// Drive one connection: its warm-up round, then whole rounds until
    /// `seconds` have passed since the window opened (or, with `rounds`,
    /// exactly that many).
    fn drive(
        &self,
        mut conn: Conn,
        c: usize,
        seconds: f64,
        rounds: Option<u64>,
    ) -> Result<(Vec<Record>, Instant, Instant), String> {
        let mut out = Vec::new();
        self.run_round(&mut conn, c, WARMUP_ROUND, false, &mut out)?;
        self.step.wait();
        let began = Instant::now();
        for r in 0.. {
            if self.step.wait().is_leader() {
                let go = match rounds {
                    Some(n) => r < n,
                    None => r < RSS_ROUNDS || began.elapsed().as_secs_f64() < seconds,
                };
                self.stop.store(!go, Ordering::SeqCst);
                let sampler = match r {
                    0 if rounds.is_none() => RSS_SAMPLE,
                    RSS_ROUNDS => RSS_STOP,
                    _ => self.sampler.load(Ordering::SeqCst),
                };
                self.sampler.store(sampler, Ordering::SeqCst);
            }
            self.step.wait();
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            self.run_round(&mut conn, c, r, true, &mut out)?;
        }
        Ok((out, began, Instant::now()))
    }
}

/// What a closed-loop session against the daemon produced.
struct Session {
    records: Vec<Record>,
    window_s: f64,
    counters: Json,
    /// The daemon's RSS every `RSS_EVERY` over the first `RSS_ROUNDS`
    /// timed rounds (empty when fewer rounds ran).
    rss_mb: Vec<f64>,
}

fn closed_loop(
    daemon: &Daemon,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    rounds: Option<u64>,
) -> Result<Session, String> {
    let lp = Loop {
        inputs,
        seed,
        step: Barrier::new(CONNECTIONS),
        stop: AtomicBool::new(false),
        sampler: AtomicU8::new(RSS_WAIT),
    };
    let pid = daemon.pid();
    let conns = (0..CONNECTIONS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let (results, rss_mb) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            loop {
                match lp.sampler.load(Ordering::SeqCst) {
                    RSS_STOP => return samples,
                    RSS_SAMPLE => samples.extend(proc::status_mb(pid, "VmRSS")),
                    _ => {}
                }
                std::thread::sleep(RSS_EVERY);
            }
        });
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let lp = &lp;
                s.spawn(move || lp.drive(conn, c, seconds, rounds))
            })
            .collect();
        let results: Vec<Result<_, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect();
        // Fewer than RSS_ROUNDS rounds: the samples cover no fixed job set.
        let complete = lp.sampler.swap(RSS_STOP, Ordering::SeqCst) == RSS_STOP;
        let samples = sampler.join().unwrap_or_default();
        (results, if complete { samples } else { Vec::new() })
    });
    let mut records = Vec::new();
    let (mut began, mut ended) = (None::<Instant>, None::<Instant>);
    for res in results {
        let (recs, b, e) = res?;
        records.extend(recs);
        began = Some(began.map_or(b, |x| x.min(b)));
        ended = Some(ended.map_or(e, |x| x.max(e)));
    }
    let window_s = (ended.expect("one connection") - began.expect("one connection")).as_secs_f64();
    let counters = daemon.connect()?.counters()?;
    Ok(Session {
        records,
        window_s,
        counters,
        rss_mb,
    })
}

fn counter(counters: &Json, name: &str) -> u64 {
    counters.get(name).and_then(Json::as_u64).unwrap_or(0)
}

/// Record every job as an operation, then the daemon's own counters
/// against the schedule as one more.
fn account(r: &mut Report, s: &Session) {
    for rec in &s.records {
        r.op(&format!("job {}", rec.job_id), rec.problems.clone());
    }
    let planned_hits = s.records.iter().filter(|x| !x.fresh).count() as u64;
    let planned_misses = s.records.iter().filter(|x| x.fresh).count() as u64;
    let mut problems = Vec::new();
    let hits = counter(&s.counters, "serve.cache_hits");
    let misses = counter(&s.counters, "serve.cache_misses");
    if hits != planned_hits || misses != planned_misses {
        problems.push(format!(
            "cache hits/misses {hits}/{misses}, schedule planned {planned_hits}/{planned_misses}"
        ));
    }
    for bad in [
        "serve.jobs_rejected",
        "serve.jobs_quarantined",
        "serve.jobs_cancelled",
    ] {
        if counter(&s.counters, bad) > 0 {
            problems.push(format!("{bad} = {}", counter(&s.counters, bad)));
        }
    }
    r.op("daemon counters", problems);
}

fn latencies(s: &Session, fresh: bool) -> Vec<f64> {
    s.records
        .iter()
        .filter(|x| x.timed && x.fresh == fresh && x.result.done)
        .map(|x| x.result.latency_s)
        .collect()
}

/// Write the slabs and start a daemon on them; the time is one
/// `setup_s` sample.
fn timed_setup(bins: &Bins, dir: &Path, seed: u64) -> Result<(Vec<PathBuf>, Daemon, f64), String> {
    let started = Instant::now();
    let slabs = write_slabs(dir, seed)?;
    let daemon = Daemon::start(bins, dir, None)?;
    Ok((slabs, daemon, started.elapsed().as_secs_f64()))
}

/// Untraced end-to-end pass.
pub fn end_to_end(
    bins: &Bins,
    dir: &Path,
    seed: u64,
    seconds: f64,
    r: &mut Report,
) -> Result<(), String> {
    let mut times = Vec::new();
    let mut daemon = None;
    let mut slabs = Vec::new();
    // The warm-up set-up and the first half of the timed ones; the last
    // daemon started serves the window.
    for rep in 0..=SETUP_REPS / 2 {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d)?;
        }
        let (paths, d, secs) = timed_setup(bins, dir, seed)?;
        if rep > 0 {
            times.push(secs);
        }
        slabs = paths;
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least the warm-up set-up ran");
    let inputs = Inputs {
        slabs,
        graphs: reference_graphs(seed),
    };
    let s = closed_loop(&daemon, &inputs, seed, seconds, None)?;
    daemon.shutdown()?;
    account(r, &s);
    for _ in SETUP_REPS / 2..SETUP_REPS {
        let (_, d, secs) = timed_setup(bins, dir, seed)?;
        times.push(secs);
        d.shutdown()?;
    }
    r.metric("setup_s", median(&times), times.len());

    let fresh = latencies(&s, true);
    let hits = latencies(&s, false);
    if fresh.is_empty() || hits.is_empty() {
        return Err("no job finished in the timed window".into());
    }
    let qs: Vec<f64> = s
        .records
        .iter()
        .filter(|x| x.timed && x.fresh && x.result.done)
        .map(|x| x.result.q)
        .collect();
    let done = s
        .records
        .iter()
        .filter(|x| x.timed && x.result.done)
        .count();
    r.metric("run_s", median(&fresh), fresh.len());
    r.metric(
        "modularity",
        qs.iter().sum::<f64>() / qs.len() as f64,
        qs.len(),
    );
    // The 95th percentile: the level the daemon's memory reaches while
    // two jobs overlap, without letting the single luckiest or unluckiest
    // alignment of their peaks decide.
    let rss = p95(&s.rss_mb).ok_or("no RSS samples of the daemon")?;
    r.metric("peak_rss_mb", rss, s.rss_mb.len());
    r.extra("job_p50_s", median(&fresh), "s", fresh.len());
    match tail(&fresh) {
        Some(t) => r.extra(
            format!("job_tail_s (p{:.1}, {TAIL_BEYOND} beyond)", t.percentile),
            t.value,
            "s",
            t.samples,
        ),
        None => r.note(format!(
            "job_tail_s: only {} fresh jobs, no tail",
            fresh.len()
        )),
    }
    r.extra("hit_p50_s", median(&hits), "s", hits.len());
    r.extra("jobs_per_s", done as f64 / s.window_s, "1/s", done);
    Ok(())
}

fn median_time<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((median(&times), last.expect("reps > 0")))
}

/// One baseline job per slab, in-process, the way a worker runs it.
fn job(path: &Path, ckpt: PathBuf) -> Result<DistOutcome, String> {
    let resil = ResilOptions {
        checkpoint: Some(CheckpointOptions::new(ckpt)),
        record_levels: true,
        ..ResilOptions::none()
    };
    run_distributed_resilient_source(
        GraphSource::SlabRanged(path),
        1,
        &DistConfig::baseline(),
        RunConfig::default(),
        &resil,
    )
}

/// Milliseconds between each job's `job_accepted` and `job_started`
/// events in the daemon's event log.
fn queue_waits(log: &Path) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let mut accepted = std::collections::HashMap::new();
    let mut waits = Vec::new();
    for line in text.lines() {
        let ev = Json::parse(line).map_err(|e| format!("event log: {e}"))?;
        let (Some(kind), Some(job), Some(ms)) = (
            ev.get("kind").and_then(Json::as_str),
            ev.get("job").and_then(Json::as_str),
            ev.get("unix_ms").and_then(Json::as_f64),
        ) else {
            continue;
        };
        match kind {
            "job_accepted" => {
                accepted.insert(job.to_string(), ms);
            }
            "job_started" => {
                if let Some(a) = accepted.remove(job) {
                    waits.push(ms - a);
                }
            }
            _ => {}
        }
    }
    Ok(waits)
}

/// Traced pass: time the store, serve and resil entry points per slab,
/// trace one in-process job per slab, then run one round per connection
/// against the daemon with its event log on.
pub fn traced(bins: &Bins, dir: &Path, seed: u64, r: &mut Report) -> Result<(), String> {
    let inputs = Inputs {
        slabs: write_slabs(dir, seed)?,
        graphs: reference_graphs(seed),
    };
    let g = SLABS.len() as f64;
    let (mut load_s, mut bytes, mut fp_s) = (0.0, 0.0, 0.0);
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut outs = Vec::new();
    for (i, path) in inputs.slabs.iter().enumerate() {
        let (t, slice) = median_time(3, || {
            store::load_rank(path, 0, 1).map_err(|e| format!("{}: {e}", path.display()))
        })?;
        load_s += t / g;
        bytes += slice.bytes_read as f64 / g;
        let (t, _) = median_time(3, || graph_fingerprint(path).map_err(|e| e.to_string()))?;
        fp_s += t / g;

        let t = Instant::now();
        let plain = job(path, dir.join(format!("ckpt-plain-{i}")))?;
        plain_s += t.elapsed().as_secs_f64();
        obs::set_enabled(true);
        let t = Instant::now();
        let traced = job(path, dir.join(format!("ckpt-traced-{i}")));
        traced_s += t.elapsed().as_secs_f64();
        obs::set_enabled(false);
        let traced = traced?;
        for (what, out) in [("untraced job", &plain), ("traced job", &traced)] {
            let mut problems =
                assignment_problems(&inputs.graphs[i], &out.assignment, out.modularity);
            if out.modularity.to_bits() != plain.modularity.to_bits() {
                problems.push("traced and untraced Q differ".into());
            }
            r.op(what, problems);
        }
        outs.push(traced);
    }
    r.layer("store.load_s", load_s);
    r.layer("store.bytes_read", bytes);
    r.layer("serve.fingerprint_s", fp_s);
    r.layer("core.run_s", plain_s);
    r.layer("obs.trace_overhead", traced_s / plain_s);
    layers::record_traced(r, &outs.iter().collect::<Vec<_>>())?;

    let log = dir.join("events.jsonl");
    let daemon = Daemon::start(bins, dir, Some(&log))?;
    let s = closed_loop(&daemon, &inputs, seed, 0.0, Some(1))?;
    daemon.shutdown()?;
    account(r, &s);
    let waits = queue_waits(&log)?;
    if waits.is_empty() {
        return Err("event log recorded no job starts".into());
    }
    let overhead: Vec<f64> = s
        .records
        .iter()
        .filter(|x| x.timed && x.fresh && x.result.done)
        .map(|x| x.result.latency_s - x.result.wall_s)
        .collect();
    let hits = latencies(&s, false);
    if overhead.is_empty() || hits.is_empty() {
        return Err("no job finished in the traced round".into());
    }
    r.layer("serve.queue_wait_s", median(&waits) * 1e-3);
    r.layer("serve.overhead_s", median(&overhead));
    r.layer("serve.hit_p50_s", median(&hits));
    r.layer(
        "serve.cache_hits",
        counter(&s.counters, "serve.cache_hits") as f64,
    );
    r.layer(
        "serve.cache_misses",
        counter(&s.counters, "serve.cache_misses") as f64,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn fresh_key(ops: &[Op], i: usize) -> Key {
        match ops[i] {
            Op::Fresh(k) => k,
            Op::Repeat(_) => panic!("op {i} is not fresh"),
        }
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        for seed in [1, 2, 77] {
            for c in 0..CONNECTIONS {
                for r in [0, 1, 5, WARMUP_ROUND] {
                    assert_eq!(round(seed, c, r), round(seed, c, r));
                }
            }
        }
        assert_ne!(round(1, 0, 0), round(2, 0, 0));
    }

    #[test]
    fn every_repeat_follows_its_original_on_the_same_connection() {
        for seed in 0..20 {
            for c in 0..CONNECTIONS {
                for r in (0..8).chain([WARMUP_ROUND]) {
                    let ops = round(seed, c, r);
                    let mut repeated = HashSet::new();
                    for (i, op) in ops.iter().enumerate() {
                        if let Op::Repeat(j) = *op {
                            assert!(j < i, "repeat {i} precedes its original {j}");
                            fresh_key(&ops, j);
                            assert!(repeated.insert(j), "fresh job {j} repeated twice");
                            let fresh_between = ops[j + 1..i]
                                .iter()
                                .filter(|o| matches!(o, Op::Fresh(_)))
                                .count();
                            assert!(fresh_between <= MAX_REPEAT_DELAY);
                        }
                    }
                    let fresh = ops.iter().filter(|o| matches!(o, Op::Fresh(_))).count();
                    assert_eq!(repeated.len(), fresh, "every fresh job is repeated once");
                }
            }
        }
    }

    #[test]
    fn connections_run_the_same_pair_in_each_slot() {
        for r in (0..8).chain([WARMUP_ROUND]) {
            let a = round(3, 0, r);
            let b = round(3, 1, r);
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                match (x, y) {
                    (Op::Fresh(p), Op::Fresh(q)) => {
                        assert_eq!((p.slab, p.variant), (q.slab, q.variant));
                        assert_ne!(p.seed, q.seed, "slot {i} runs one key twice");
                    }
                    (Op::Repeat(p), Op::Repeat(q)) => assert_eq!(p, q),
                    _ => panic!("slot {i} mixes a fresh job and a repeat"),
                }
            }
        }
    }

    #[test]
    fn each_round_runs_every_slab_variant_pair_once() {
        let ops = round(9, 1, 3);
        let pairs: HashSet<(usize, usize)> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Fresh(k) => Some((k.slab, k.variant)),
                Op::Repeat(_) => None,
            })
            .collect();
        assert_eq!(pairs.len(), SLABS.len() * VARIANTS.len());
        assert_eq!(ops.len(), 2 * pairs.len());
    }

    #[test]
    fn fresh_keys_never_collide_across_connections_and_rounds() {
        let mut seen = HashSet::new();
        for c in 0..CONNECTIONS {
            for r in (0..64).chain([WARMUP_ROUND]) {
                for op in round(5, c, r) {
                    if let Op::Fresh(k) = op {
                        assert!(seen.insert(k));
                    }
                }
            }
        }
    }
}
