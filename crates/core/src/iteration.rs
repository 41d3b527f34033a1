//! The Louvain iterations of one phase (Algorithm 3).
//!
//! Each iteration performs the paper's four communication steps:
//!
//! 1. owners push the latest community of every ghosted vertex
//!    (lines 4–5),
//! 2. ranks pull the weights `a_c` (and sizes) of remote communities
//!    their vertices might join (the "ghost community" information),
//! 3. after the local compute step (lines 6–9), weight deltas for
//!    remotely-owned communities are pushed to their owners
//!    (lines 10–11),
//! 4. modularity is computed with global reductions (lines 12–13).
//!
//! Ranks see remote state only as of the most recent exchange — the
//! "community update lag" that distinguishes the distributed algorithm
//! from its shared-memory counterpart (Section III-B).
//!
//! Every per-arc loop runs over the dense local ids of
//! [`GhostLayer::adjacency`] (owned vertices `[0, nlocal)`, ghosts
//! `nlocal + slot`), and communities get dense *slots* per round: owned
//! `c` is `c - first`, remote `c` is `nlocal` + its index in the round's
//! ascending step-2 pull table.
//!
//! One kernel serves every schedule. [`Kernel::decide`], a pure function
//! of the vertex and the state it reads, sums arc weights per slot in a
//! pooled per-thread dense [`Accumulator`] (Sahu's collision-free
//! layout) and picks what an ascending community-id scan picks, so
//! near-ties within 1e-12 go to the smallest id; [`Kernel::apply`] does
//! the bookkeeping. The schedules ([`crate::SweepMode`]) differ only in
//! when they apply: *sequential* (one thread) and *relaxed* (racing
//! rayon chunks, the Grappolo discipline, kept as an ablation) right
//! after each decide; *colored* after deciding a whole conflict-free
//! batch of a distance-1 coloring against the frozen batch-start state
//! on a persistent worker pool, so results are bit-identical at any
//! thread count. The coloring ([`distributed_coloring`]) is the greedy
//! coloring in descending (priority, id) order, computed in linear work.
//! DESIGN.md §11 gives the parity argument.
//!
//! Paper future-work extensions, all off by default (see
//! [`crate::DistConfig`]): MPI-3-style neighborhood collectives for the
//! ghost refresh, pruning of refresh traffic for permanently inactive
//! vertices under ET, and distance-1-colored sub-rounds in which
//! concurrently moved vertices are never adjacent.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use rayon::prelude::*;
use rayon::WorkerPool;

use louvain_comm::{Comm, CommStep, ReduceOp};
use louvain_graph::atomic::AtomicF64;
use louvain_graph::hash::{fast_map, FastMap};
use louvain_graph::{LocalGraph, VertexId, Weight};

use crate::config::{DistConfig, SweepMode};
use crate::ghost::{DenseAdj, GhostLayer};
use crate::heuristics::{distributed_coloring, EtTracker};
use crate::scratch::{reclaim, Accumulator, IterScratch};
use crate::stats::{IterationTrace, WorkCounter};

/// Community slot of a vertex no swept vertex reads this round.
const NO_SLOT: u32 = u32::MAX;

/// Outcome of one phase's iteration loop on one rank.
#[derive(Debug)]
pub struct PhaseResult {
    /// Final community (global id) of each local vertex.
    pub comm_of_local: Vec<VertexId>,
    /// Final communities of the ghost vertices (freshly exchanged after
    /// the last iteration, so rebuild sees a consistent state).
    pub ghost_comm: Vec<VertexId>,
    /// Weight `a_c` of every *owned* community (indexed by `c - first`).
    pub owned_a: Vec<Weight>,
    pub modularity: f64,
    pub iterations: usize,
    pub traces: Vec<IterationTrace>,
    pub compute: WorkCounter,
    /// Modeled seconds in ghost/community exchanges (steps 1–3).
    pub comm_seconds: f64,
    /// Modeled seconds in the modularity reductions (step 4).
    pub reduce_seconds: f64,
    /// True if the ETC 90%-inactive exit ended the phase.
    pub etc_exit: bool,
    /// Ghost refreshes pruned away by the inactive-vertex refinement.
    pub pruned_ghosts: usize,
}

/// Immutable phase inputs shared by the iteration loop.
pub struct PhaseContext<'a> {
    pub comm: &'a Comm,
    pub lg: &'a LocalGraph,
    /// Global `2m` (all-reduced once per phase by the caller).
    pub two_m: f64,
}

/// Shared (possibly multi-threaded) per-rank community state.
struct SweepState {
    /// Community of each local vertex (global ids).
    comm: Vec<AtomicU64>,
    /// Community slot of each local vertex, valid for the vertices the
    /// current round reads ([`NO_SLOT`] for the others).
    slot: Vec<AtomicU32>,
    /// Weight of each owned community (`a_c`, indexed `c - first`).
    a: Vec<AtomicF64>,
    /// Size of each owned community.
    size: Vec<AtomicU64>,
    /// Per-vertex move flags for this iteration.
    moved: Vec<AtomicBool>,
}

impl SweepState {
    fn new(k_local: &[Weight], lg: &LocalGraph) -> Self {
        let nlocal = lg.num_local();
        Self {
            comm: (0..nlocal)
                .map(|l| AtomicU64::new(lg.to_global(l)))
                .collect(),
            slot: (0..nlocal).map(|_| AtomicU32::new(NO_SLOT)).collect(),
            a: k_local.iter().map(|&k| AtomicF64::new(k)).collect(),
            size: (0..nlocal).map(|_| AtomicU64::new(1)).collect(),
            moved: (0..nlocal).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    #[inline]
    fn comm_of_local(&self, l: usize) -> VertexId {
        self.comm[l].load(Ordering::Relaxed)
    }

    fn snapshot_a(&self) -> Vec<Weight> {
        self.a.iter().map(|a| a.load()).collect()
    }

    /// Apply owners' received `(community, Δa_c, Δsize)` deltas.
    fn absorb_deltas(&self, first: VertexId, received: &[Vec<(VertexId, f64, i64)>]) {
        for &(c, da, ds) in received.iter().flatten() {
            let i = (c - first) as usize;
            self.a[i].fetch_add(da);
            let cur = self.size[i].load(Ordering::Relaxed) as i64;
            self.size[i].store((cur + ds) as u64, Ordering::Relaxed);
        }
    }
}

/// Remote-community view of one sweep: `(Δa_c, Δsize)` accumulated by
/// the moves applied so far, indexed like the round's pull table.
type RemoteDeltas = Vec<Option<(Weight, i64)>>;

/// One sweep's (or one rayon chunk's) results, merged after the loop.
#[derive(Default)]
struct SweepAcc {
    deltas: RemoteDeltas,
    moves: u64,
    edges: u64,
    vertices: u64,
}

impl SweepAcc {
    fn new(remote: usize) -> Self {
        let deltas = vec![None; remote];
        Self {
            deltas,
            ..Self::default()
        }
    }

    fn merge(mut self, other: SweepAcc) -> SweepAcc {
        for (d, o) in self.deltas.iter_mut().zip(other.deltas) {
            if let Some((da, ds)) = o {
                let e = d.get_or_insert((0.0, 0));
                e.0 += da;
                e.1 += ds;
            }
        }
        self.moves += other.moves;
        self.edges += other.edges;
        self.vertices += other.vertices;
        self
    }
}

/// The round's read-only view for deciding and applying moves, shared by
/// every schedule and thread.
struct Kernel<'a> {
    adj: DenseAdj<'a>,
    state: &'a SweepState,
    k_local: &'a [Weight],
    /// Community slot of each ghost (see [`IterScratch::ghost_slot`]).
    ghost_slot: &'a [u32],
    /// Remote community id of slot `nlocal + i`.
    pull_ids: &'a [VertexId],
    /// `(a_c, size)` of slot `nlocal + i` as pulled in step 2.
    remote_a: &'a [(Weight, u64)],
    nlocal: usize,
    first: VertexId,
    two_m: f64,
    guard_singleton_swap: bool,
}

impl Kernel<'_> {
    /// Number of community slots (the accumulator length).
    fn slots(&self) -> usize {
        self.nlocal + self.pull_ids.len()
    }

    #[inline]
    fn comm_id(&self, s: u32) -> VertexId {
        let s = s as usize;
        if s < self.nlocal {
            self.first + s as VertexId
        } else {
            self.pull_ids[s - self.nlocal]
        }
    }

    /// Community slot of dense vertex id `d`.
    #[inline]
    fn slot_of(&self, d: usize) -> u32 {
        if d < self.nlocal {
            self.state.slot[d].load(Ordering::Relaxed)
        } else {
            self.ghost_slot[d - self.nlocal]
        }
    }

    /// `(a_c, size)` of slot `s`. Remote values are the step-2 pull,
    /// adjusted by the deltas this sweep has itself applied since —
    /// without this "local view", every vertex of the rank sees the same
    /// stale (small) a_c of an attractive remote community and they all
    /// pile in, overshooting badly on mesh-like graphs.
    #[inline]
    fn info(&self, s: u32, deltas: &RemoteDeltas) -> (Weight, u64) {
        let s = s as usize;
        if s < self.nlocal {
            (
                self.state.a[s].load(),
                self.state.size[s].load(Ordering::Relaxed),
            )
        } else {
            let i = s - self.nlocal;
            let (mut a, mut sz) = self.remote_a[i];
            if let Some((da, ds)) = deltas[i] {
                a += da;
                sz = (sz as i64 + ds).max(0) as u64;
            }
            (a, sz)
        }
    }

    /// Decide (without applying) the best move for local vertex `l`: the
    /// slot of its new community, or `None` to stay. A pure function of
    /// the vertex, the shared state and `deltas`; `acc` comes back reset.
    fn decide(
        &self,
        l: usize,
        deltas: &RemoteDeltas,
        acc: &mut Accumulator,
        edges: &mut u64,
    ) -> Option<u32> {
        let (ids, ws) = self.adj.row(l);
        *edges += ids.len() as u64;
        for (&d, &w) in ids.iter().zip(ws) {
            if d as usize != l {
                acc.add(self.slot_of(d as usize), w);
            }
        }
        if acc.is_empty() {
            return None;
        }
        let su = self.state.slot[l].load(Ordering::Relaxed);
        let cu = self.comm_id(su);
        let kv = self.k_local[l];
        let e_cu = acc.get(su).unwrap_or(0.0);
        let (a_cu, size_cu) = self.info(su, deltas);
        let stay = e_cu - kv * (a_cu - kv) / self.two_m;
        let (best_s, best_c, best_score, best_size) = self.best_candidate(acc, su, kv, deltas);
        acc.reset();
        let mut do_move = best_c != cu
            && (best_score > stay + 1e-12 || ((best_score - stay).abs() <= 1e-12 && best_c < cu));
        // Singleton-swap guard (Vite / Lu et al. minimum labeling): two
        // singleton vertices evaluating each other concurrently would swap
        // communities forever; only the one moving toward the smaller
        // community id proceeds.
        if self.guard_singleton_swap && do_move && size_cu == 1 && best_size == 1 && best_c > cu {
            do_move = false;
        }
        do_move.then_some(best_s)
    }

    /// The candidate other than slot `su` that the documented rule picks,
    /// as `(slot, community, score, size)`: scanning in ascending
    /// community id from `(su, -inf)`, a candidate replaces the incumbent
    /// if it scores more than 1e-12 higher, or within 1e-12 with a
    /// smaller id.
    ///
    /// When every score is finite and none lies within 1e-12 below the
    /// maximum, that scan ends on the smallest id with the maximal score
    /// whatever came before, so one unsorted pass finds it; only
    /// near-ties pay for sorting the touched slots.
    fn best_candidate(
        &self,
        acc: &mut Accumulator,
        su: u32,
        kv: Weight,
        deltas: &RemoteDeltas,
    ) -> (u32, VertexId, f64, u64) {
        let candidate = |s: u32, e_vc: Weight| {
            let (a_c, size_c) = self.info(s, deltas);
            (s, self.comm_id(s), e_vc - kv * a_c / self.two_m, size_c)
        };
        let stay = (su, self.comm_id(su), f64::NEG_INFINITY, 0);
        let (mut best, mut runner_up, mut finite) = (stay, f64::NEG_INFINITY, true);
        for (s, e_vc) in acc.entries().filter(|&(s, _)| s != su) {
            let cand = candidate(s, e_vc);
            finite &= cand.2.is_finite();
            if cand.2 > best.2 {
                runner_up = best.2;
                best = cand;
            } else if cand.2 < best.2 {
                runner_up = runner_up.max(cand.2);
            } else if cand.1 < best.1 {
                best = cand;
            }
        }
        if finite && best.2 > runner_up + 1e-12 {
            return best;
        }
        acc.sort_by_key(|s| self.comm_id(s));
        let mut b = stay;
        for (s, e_vc) in acc.entries().filter(|&(s, _)| s != su) {
            let cand = candidate(s, e_vc);
            if cand.2 > b.2 + 1e-12 || ((cand.2 - b.2).abs() <= 1e-12 && cand.1 < b.1) {
                b = cand;
            }
        }
        b
    }

    /// Apply a decided move of local vertex `l` into slot `to`: owned
    /// communities are updated in place, remote ones through `acc`'s
    /// deltas (pushed to their owners after the sweep).
    fn apply(&self, l: usize, to: u32, acc: &mut SweepAcc) {
        let from = self.state.slot[l].load(Ordering::Relaxed);
        let kv = self.k_local[l];
        self.state.comm[l].store(self.comm_id(to), Ordering::Relaxed);
        self.state.slot[l].store(to, Ordering::Relaxed);
        self.state.moved[l].store(true, Ordering::Relaxed);
        acc.moves += 1;
        for (s, dw, dn) in [(from, -kv, -1i64), (to, kv, 1)] {
            let s = s as usize;
            if s < self.nlocal {
                self.state.a[s].fetch_add(dw);
                if dn > 0 {
                    self.state.size[s].fetch_add(1, Ordering::Relaxed);
                } else {
                    self.state.size[s].fetch_sub(1, Ordering::Relaxed);
                }
            } else {
                let d = acc.deltas[s - self.nlocal].get_or_insert((0.0, 0));
                d.0 += dw;
                d.1 += dn;
            }
        }
    }

    /// Decide-and-apply over `vertices` in order (the sequential sweep,
    /// and one chunk of the relaxed schedule).
    fn sweep(&self, vertices: &[usize], scratch: &IterScratch) -> SweepAcc {
        let mut acc = SweepAcc::new(self.pull_ids.len());
        let mut weights = scratch.take_acc(self.slots());
        for &l in vertices {
            acc.vertices += 1;
            if let Some(to) = self.decide(l, &acc.deltas, &mut weights, &mut acc.edges) {
                self.apply(l, to, &mut acc);
            }
        }
        scratch.put_acc(weights);
        acc
    }
}

/// One ghost community exchange (Step 1), full or delta flavour;
/// returns its modeled seconds.
///
/// The snapshot is taken into the scratch arena, and after the exchange
/// becomes the new delta baseline (`last_pushed`). `use_delta` must be
/// decided *uniformly* across ranks (it changes the collective's payload
/// type): callers derive it from the config flag, from whether a full
/// baseline exists yet (`have_baseline`, which advances in lockstep
/// because exchanges are collective), and from the previous iteration's
/// all-reduced global move count.
///
/// The changed-bit tracking diffs against `last_pushed` rather than
/// reusing `SweepState::moved`: the move flags reset once per iteration
/// while colored sweeps exchange once per sub-round, and vertex
/// following moves vertices outside any sweep. Comparing against the
/// exact last-pushed values is correct in every one of those paths.
fn exchange_ghosts(
    comm: &Comm,
    ghosts: &GhostLayer,
    state: &SweepState,
    scratch: &mut IterScratch,
    ghost_comm: &mut Vec<VertexId>,
    neighborhood: bool,
    use_delta: bool,
) -> f64 {
    let t0 = comm.stats().modeled_seconds();
    comm.with_step(CommStep::GhostRefresh, || {
        scratch.comm_snapshot.clear();
        scratch
            .comm_snapshot
            .extend(state.comm.iter().map(|c| c.load(Ordering::Relaxed)));
        let vals = &scratch.comm_snapshot;
        if use_delta {
            debug_assert_eq!(scratch.last_pushed.len(), vals.len());
            scratch.changed.clear();
            scratch
                .changed
                .extend(vals.iter().zip(&scratch.last_pushed).map(|(a, b)| a != b));
            if neighborhood {
                ghosts.refresh_delta_neighborhood(comm, vals, &scratch.changed, ghost_comm);
            } else {
                ghosts.refresh_delta(comm, vals, &scratch.changed, ghost_comm);
            }
        } else if neighborhood {
            ghosts.refresh_neighborhood(comm, vals, ghost_comm);
        } else {
            ghosts.refresh(comm, vals, ghost_comm);
        }
        scratch.last_pushed.clear();
        scratch.last_pushed.extend_from_slice(vals);
    });
    let seconds = comm.stats().modeled_seconds() - t0;
    // Delta hit-rate metrics: changed/total slot ratio is the payload
    // compression the delta flavour achieves over a full refresh.
    if louvain_obs::enabled() {
        if use_delta {
            let changed = scratch.changed.iter().filter(|&&c| c).count() as u64;
            louvain_obs::counter_add("ghost.delta.refreshes", 1);
            louvain_obs::counter_add("ghost.delta.changed", changed);
            louvain_obs::counter_add("ghost.delta.slots", scratch.changed.len() as u64);
        } else {
            louvain_obs::counter_add("ghost.full.refreshes", 1);
            louvain_obs::counter_add("ghost.full.slots", scratch.last_pushed.len() as u64);
        }
    }
    seconds
}

/// Step 2's local half, before the pull. Marks the dense ids the round's
/// swept vertices read (themselves and their neighbors), collects the
/// remote communities of the marked ids into the ascending pull table,
/// fills the per-rank request buffers, and translates the marked ids'
/// communities into community slots: owned `c` is `c - first`, remote
/// `c` is `nlocal` + its pull-table index, and unmarked ids, which
/// nothing reads, get [`NO_SLOT`]. Returns the arcs scanned.
fn plan_round(
    adj: &DenseAdj<'_>,
    lg: &LocalGraph,
    state: &SweepState,
    ghost_comm: &[VertexId],
    scratch: &mut IterScratch,
    in_round: impl Fn(usize) -> bool,
) -> u64 {
    let nlocal = adj.num_local();
    let first = lg.first_vertex();
    let mut arcs = 0u64;
    scratch.marked.clear();
    scratch.marked.resize(nlocal + ghost_comm.len(), false);
    for (l, &is_active) in scratch.active.iter().enumerate() {
        if !is_active || !in_round(l) {
            continue;
        }
        scratch.marked[l] = true;
        let (ids, _) = adj.row(l);
        arcs += ids.len() as u64;
        for &d in ids {
            scratch.marked[d as usize] = true;
        }
    }
    let comm_of = |d: usize| {
        if d < nlocal {
            state.comm_of_local(d)
        } else {
            ghost_comm[d - nlocal]
        }
    };
    let (marked, pull_ids) = (&scratch.marked, &mut scratch.pull_ids);
    pull_ids.clear();
    pull_ids.extend(
        (0..marked.len())
            .filter(|&d| marked[d])
            .map(comm_of)
            .filter(|&c| !lg.owns(c)),
    );
    pull_ids.sort_unstable();
    pull_ids.dedup();
    // The request buffers come back cleared from `reclaim`.
    for &c in pull_ids.iter() {
        scratch.requests[lg.partition().owner_of(c)].push(c);
    }
    let slot_of = |d: usize| -> u32 {
        let c = comm_of(d);
        if !marked[d] {
            NO_SLOT
        } else if lg.owns(c) {
            (c - first) as u32
        } else {
            let i = pull_ids
                .binary_search(&c)
                .expect("a read community is in the pull table");
            (nlocal + i) as u32
        }
    };
    for (l, s) in state.slot.iter().enumerate() {
        s.store(slot_of(l), Ordering::Relaxed);
    }
    scratch.ghost_slot.clear();
    scratch
        .ghost_slot
        .extend((nlocal..marked.len()).map(slot_of));
    arcs
}

/// One colored deterministic sweep over `scratch.round_vertices`.
///
/// Vertices are grouped into conflict-free batches by color class (the
/// distance-1 coloring guarantees no two batch members are adjacent, so
/// no decision can read a community membership another batch member is
/// about to change). Each batch's moves are *decided* in parallel by the
/// worker pool against the frozen batch-start state, then *applied*
/// sequentially in batch order on the calling thread. Decisions are pure
/// and the worker pool returns results in contiguous-range order, so the
/// applied sequence is a function of the coloring alone — results at any
/// `threads_per_rank` are bit-identical for a fixed coloring (and the
/// coloring never depends on the thread count). The parity argument is
/// spelled out in DESIGN.md §11.
fn colored_sweep(
    pool: &WorkerPool,
    color: &[u32],
    kernel: &Kernel<'_>,
    scratch: &IterScratch,
    batches: &mut Vec<Vec<usize>>,
    (iter, round): (usize, usize),
) -> SweepAcc {
    for b in batches.iter_mut() {
        b.clear();
    }
    // `round_vertices` is already in sweep order, so each batch inherits
    // the deterministic order of its members.
    for &l in &scratch.round_vertices {
        let c = color[l] as usize;
        if batches.len() <= c {
            batches.resize_with(c + 1, Vec::new);
        }
        batches[c].push(l);
    }
    let mut acc = SweepAcc::new(kernel.pull_ids.len());
    for (batch_color, batch) in batches.iter().enumerate() {
        if batch.is_empty() {
            continue;
        }
        let mut batch_span = louvain_obs::span!(
            "sweep.batch",
            iter = iter,
            round = round,
            color = batch_color
        );
        let frozen = &acc.deltas;
        let decide = |r: std::ops::Range<usize>| {
            let vertices = r.len() as u64;
            let mut weights = scratch.take_acc(kernel.slots());
            let mut moves: Vec<(usize, u32)> = Vec::new();
            let mut edges = 0u64;
            for &l in &batch[r] {
                if let Some(to) = kernel.decide(l, frozen, &mut weights, &mut edges) {
                    moves.push((l, to));
                }
            }
            scratch.put_acc(weights);
            (moves, edges, vertices)
        };
        let decided = pool.run(batch.len(), decide);
        let mut batch_moves = 0u64;
        for (moves, edges, vertices) in decided {
            acc.edges += edges;
            acc.vertices += vertices;
            for (l, to) in moves {
                kernel.apply(l, to, &mut acc);
                batch_moves += 1;
            }
        }
        louvain_obs::counter_add("sweep.batch_moves", batch_moves);
        batch_span.arg("moves", batch_moves);
    }
    acc
}

/// Run the iteration loop of one phase with threshold `tau`.
/// `ghosts` is taken mutably so the inactive-ghost pruning refinement can
/// mask refresh traffic mid-phase.
pub fn louvain_phase(
    ctx: &PhaseContext<'_>,
    ghosts: &mut GhostLayer,
    cfg: &DistConfig,
    phase_idx: usize,
    tau: f64,
) -> PhaseResult {
    let comm = ctx.comm;
    let lg = ctx.lg;
    let part = lg.partition();
    let nlocal = lg.num_local();
    let first = lg.first_vertex();
    let n_global = lg.num_global();
    let threads = cfg.threads_per_rank.max(1);
    // Hoisted copy: the parallel sweep closure must not capture `ctx`
    // (it holds the non-Sync communicator).
    let two_m = ctx.two_m;

    let k_local: Vec<Weight> = (0..nlocal).map(|l| lg.weighted_degree(l)).collect();
    let state = SweepState::new(&k_local, lg);
    let mut ghost_comm: Vec<VertexId> = Vec::new();

    let mut et: Option<EtTracker> = cfg
        .variant
        .alpha()
        .map(|alpha| EtTracker::new(nlocal, first, alpha, cfg.seed));
    let sweep_order: Vec<usize> = if cfg.index_order_sweep {
        (0..nlocal).collect()
    } else {
        louvain_graph::hash::shuffled_order(
            nlocal,
            cfg.seed ^ (phase_idx as u64).wrapping_mul(0x9e37) ^ first,
        )
    };

    let mut compute = WorkCounter::default();
    let mut comm_seconds = 0.0;
    let mut reduce_seconds = 0.0;

    // Distance-1 coloring, needed by the `color_sweeps` sub-round
    // extension and/or the colored deterministic batch schedule. Computed
    // once per phase with a thread-count-independent seed, so the
    // coloring — and with it every colored-schedule trajectory — is fixed
    // across `threads_per_rank` settings.
    let colored_batches = match cfg.sweep {
        SweepMode::Colored => true,
        SweepMode::Auto => threads > 1,
        SweepMode::Relaxed => false,
    };
    let coloring: Option<(Vec<u32>, u32)> = if cfg.color_sweeps || colored_batches {
        let _span = louvain_obs::span!("coloring", phase = phase_idx);
        let t0 = comm.stats().modeled_seconds();
        let res = distributed_coloring(comm, lg, ghosts, cfg.seed ^ 0xC0105);
        comm_seconds += comm.stats().modeled_seconds() - t0;
        louvain_obs::counter_add("sweep.colors", res.1 as u64);
        Some(res)
    } else {
        None
    };
    // Sub-rounds (one exchange per color class) only under `color_sweeps`;
    // the colored batch schedule shares one exchange across all classes.
    let num_rounds = if cfg.color_sweeps {
        coloring.as_ref().map_or(1, |&(_, nc)| nc as usize)
    } else {
        1
    };
    // The colored schedule dispatches one parallel region per color batch,
    // so workers are kept alive for the whole phase instead of respawned.
    let pool = colored_batches.then(|| WorkerPool::new(threads));

    // Per-phase scratch arena: every buffer of the four-step loop is
    // allocated once here and recycled across iterations.
    let mut scratch = IterScratch::new(nlocal, comm.size());
    // Delta-refresh policy state. Both inputs advance in lockstep on all
    // ranks (exchanges are collective, the move count is all-reduced), so
    // every rank picks the same refresh flavour each time.
    let mut have_baseline = false;
    let mut prev_moves_global = u64::MAX;

    // Distributed vertex following: pendant vertices pre-join their
    // unique neighbor's singleton community before the first sweep.
    // Collective (one ghost exchange of pendant flags + one delta push),
    // so every rank must agree on the flag.
    if cfg.vertex_following && phase_idx == 0 {
        let _span = louvain_obs::span!("vertex_following", phase = phase_idx);
        let t0 = comm.stats().modeled_seconds();
        apply_vertex_following(
            comm,
            lg,
            ghosts,
            &state,
            &k_local,
            cfg.neighborhood_collectives,
        );
        comm_seconds += comm.stats().modeled_seconds() - t0;
    }

    let mut traces: Vec<IterationTrace> = Vec::new();
    let mut prev_q = f64::NEG_INFINITY;
    let mut iterations = 0;
    let mut etc_exit = false;

    while iterations < cfg.max_iterations {
        iterations += 1;
        let mut iter_span = louvain_obs::span!("iteration", phase = phase_idx, iter = iterations);
        let edges_at_iter_start = compute.edges_scanned;
        // Telemetry baseline for this iteration's ghost-traffic delta;
        // behind the same one-relaxed-load gate as every recording site.
        let ghost_bytes_at_start = if louvain_obs::enabled() {
            comm.stats().step_bytes(CommStep::GhostRefresh)
        } else {
            0
        };
        scratch.active.clear();
        scratch.active.extend((0..nlocal).map(|l| match &et {
            Some(t) => t.is_active(phase_idx, iterations, l),
            None => true,
        }));
        for m in &state.moved {
            m.store(false, Ordering::Relaxed);
        }
        let mut local_moves = 0u64;

        // One sub-round per color class (one total without coloring).
        for round in 0..num_rounds {
            let in_round = |l: usize| match &coloring {
                Some((color, _)) if cfg.color_sweeps => color[l] as usize == round,
                _ => true,
            };

            // -- Step 1: receive the latest ghost vertex communities. -----
            let use_delta = cfg.delta_ghost_refresh
                && have_baseline
                && prev_moves_global.saturating_mul(4) < n_global;
            comm_seconds += exchange_ghosts(
                comm,
                ghosts,
                &state,
                &mut scratch,
                &mut ghost_comm,
                cfg.neighborhood_collectives,
                use_delta,
            );
            have_baseline = true;

            // -- Step 2: pull a_c for remote communities we may join. ------
            let adj = ghosts.adjacency(lg);
            compute.edges_scanned +=
                plan_round(&adj, lg, &state, &ghost_comm, &mut scratch, in_round);
            let t0 = comm.stats().modeled_seconds();
            // Keyed exchange: owners reply (community, a_c, size) in
            // request order, so the replies concatenated in rank order
            // line up with the ascending pull table; both receive sides
            // are reclaimed as next round's send buffers.
            let reply_vals = comm.with_step(CommStep::CommunityPull, || {
                let incoming = comm.all_to_all_v(std::mem::take(&mut scratch.requests));
                for buf in &mut scratch.replies {
                    buf.clear();
                }
                for (j, ids) in incoming.iter().enumerate() {
                    scratch.replies[j].extend(ids.iter().map(|&c| {
                        let i = (c - first) as usize;
                        (c, state.a[i].load(), state.size[i].load(Ordering::Relaxed))
                    }));
                }
                reclaim(&mut scratch.requests, incoming);
                comm.all_to_all_v(std::mem::take(&mut scratch.replies))
            });
            scratch.remote_a.clear();
            for &(c, a, sz) in reply_vals.iter().flatten() {
                debug_assert_eq!(c, scratch.pull_ids[scratch.remote_a.len()]);
                scratch.remote_a.push((a, sz));
            }
            reclaim(&mut scratch.replies, reply_vals);
            comm_seconds += comm.stats().modeled_seconds() - t0;

            // -- Step 3: the compute sweep (lines 6–9). --------------------
            scratch.round_vertices.clear();
            scratch.round_vertices.extend(
                sweep_order
                    .iter()
                    .copied()
                    .filter(|&l| scratch.active[l] && in_round(l)),
            );
            let acc: SweepAcc = {
                let _sweep_span = louvain_obs::span!("sweep", iter = iterations, round = round);
                let mut batches = std::mem::take(&mut scratch.batches);
                let kernel = Kernel {
                    adj,
                    state: &state,
                    k_local: &k_local,
                    ghost_slot: &scratch.ghost_slot,
                    pull_ids: &scratch.pull_ids,
                    remote_a: &scratch.remote_a,
                    nlocal,
                    first,
                    two_m,
                    guard_singleton_swap: !cfg.disable_singleton_guard,
                };
                let acc = match (&pool, &coloring) {
                    (Some(pool), Some((color, _))) => colored_sweep(
                        pool,
                        color,
                        &kernel,
                        &scratch,
                        &mut batches,
                        (iterations, round),
                    ),
                    _ if threads <= 1 => kernel.sweep(&scratch.round_vertices, &scratch),
                    _ => {
                        let chunk = scratch.round_vertices.len().div_ceil(threads * 4).max(64);
                        scratch
                            .round_vertices
                            .par_chunks(chunk)
                            .map(|chunk| kernel.sweep(chunk, &scratch))
                            .reduce(|| SweepAcc::new(kernel.pull_ids.len()), SweepAcc::merge)
                    }
                };
                scratch.batches = batches;
                // Advance the tracing layer's modeled clock so the sweep
                // span carries modeled compute time next to wall time.
                let work = WorkCounter {
                    edges_scanned: acc.edges,
                    vertices_processed: acc.vertices,
                };
                louvain_obs::add_modeled_seconds(
                    work.modeled_seconds() / crate::stats::parallel_speedup(threads),
                );
                acc
            };
            local_moves += acc.moves;
            compute.edges_scanned += acc.edges;
            compute.vertices_processed += acc.vertices;
            louvain_obs::counter_add("sweep.moves", acc.moves);
            louvain_obs::counter_add("sweep.vertices", acc.vertices);
            louvain_obs::counter_add("sweep.edges", acc.edges);

            // -- Step 3b: push deltas to community owners (lines 10–11). --
            let t0 = comm.stats().modeled_seconds();
            for buf in &mut scratch.delta_msgs {
                buf.clear();
            }
            for (&c, d) in scratch.pull_ids.iter().zip(&acc.deltas) {
                if let Some((da, ds)) = *d {
                    scratch.delta_msgs[part.owner_of(c)].push((c, da, ds));
                }
            }
            let received_deltas = comm.with_step(CommStep::DeltaPush, || {
                comm.all_to_all_v(std::mem::take(&mut scratch.delta_msgs))
            });
            state.absorb_deltas(first, &received_deltas);
            reclaim(&mut scratch.delta_msgs, received_deltas);
            comm_seconds += comm.stats().modeled_seconds() - t0;
        }

        // -- Step 4: global modularity (lines 12–13). ----------------------
        let (e_in_local, a2_local) =
            local_modularity_terms(&ghosts.adjacency(lg), &state, &ghost_comm);
        compute.edges_scanned += lg.num_local_arcs() as u64;
        let t0 = comm.stats().modeled_seconds();
        let (e_in, a2, moves_global) = comm.with_step(CommStep::Reduction, || {
            (
                comm.all_reduce(e_in_local, ReduceOp::Sum),
                comm.all_reduce(a2_local, ReduceOp::Sum),
                comm.all_reduce(local_moves, ReduceOp::Sum),
            )
        });
        reduce_seconds += comm.stats().modeled_seconds() - t0;
        prev_moves_global = moves_global;
        let q = if ctx.two_m > 0.0 {
            e_in / ctx.two_m - a2 / (ctx.two_m * ctx.two_m)
        } else {
            0.0
        };

        // -- ET bookkeeping / ghost pruning / ETC exit. --------------------
        let mut inactive_global = 0u64;
        if let Some(t) = &mut et {
            for (l, m) in state.moved.iter().enumerate() {
                t.update(l, m.load(Ordering::Relaxed));
            }
            if cfg.prune_inactive_ghosts {
                let frozen = t.drain_newly_frozen();
                let t0 = comm.stats().modeled_seconds();
                ghosts.prune(comm, lg, &frozen);
                comm_seconds += comm.stats().modeled_seconds() - t0;
            }
            if cfg.variant.uses_etc_exit() {
                let t0 = comm.stats().modeled_seconds();
                inactive_global = comm.with_step(CommStep::Reduction, || {
                    comm.all_reduce(t.num_inactive(), ReduceOp::Sum)
                });
                comm_seconds += comm.stats().modeled_seconds() - t0;
            }
        }
        traces.push(IterationTrace {
            modularity: q,
            moves: moves_global,
            inactive: inactive_global,
            local_edges: compute.edges_scanned - edges_at_iter_start,
        });
        iter_span.arg("moves", moves_global);
        iter_span.arg("q", q);
        louvain_obs::gauge_set("modularity", q);
        if louvain_obs::telemetry_enabled() {
            // Convergence telemetry: the global fields (q, delta-Q,
            // moves) are all-reduced and identical on every rank; the
            // per-rank fields sum exactly across ranks because each
            // vertex and each community has exactly one owner.
            let mut community_sizes = louvain_obs::Histogram::default();
            let mut communities = 0u64;
            for sz in &state.size {
                let sz = sz.load(Ordering::Relaxed);
                if sz > 0 {
                    communities += 1;
                    community_sizes.observe(sz);
                }
            }
            louvain_obs::record_iteration(louvain_obs::IterationRecord {
                phase: phase_idx as u64,
                iteration: (iterations - 1) as u64,
                modularity: q,
                delta_q: if prev_q.is_finite() { q - prev_q } else { 0.0 },
                moves: moves_global,
                active: scratch.active.iter().filter(|&&a| a).count() as u64,
                vertices: nlocal as u64,
                communities,
                community_sizes,
                ghost_bytes: comm.stats().step_bytes(CommStep::GhostRefresh) - ghost_bytes_at_start,
            });
        }

        if cfg.variant.uses_etc_exit()
            && inactive_global as f64 >= cfg.etc_exit_fraction * n_global as f64
        {
            etc_exit = true;
            break;
        }
        if moves_global == 0 || (prev_q.is_finite() && q - prev_q <= tau) {
            break;
        }
        prev_q = q;
    }

    // Final refresh so rebuild observes the final state of the ghosts,
    // then recompute modularity once WITHOUT lag: the per-iteration values
    // above drive convergence exactly as in the paper (stale ghost state),
    // but the reported phase modularity must be exact. Pruned ghosts are
    // frozen, so their cached values are already final.
    let use_delta =
        cfg.delta_ghost_refresh && have_baseline && prev_moves_global.saturating_mul(4) < n_global;
    comm_seconds += exchange_ghosts(
        comm,
        ghosts,
        &state,
        &mut scratch,
        &mut ghost_comm,
        cfg.neighborhood_collectives,
        use_delta,
    );
    let comm_of_local = std::mem::take(&mut scratch.comm_snapshot);
    let (e_in_local, a2_local) = local_modularity_terms(&ghosts.adjacency(lg), &state, &ghost_comm);
    let t0 = comm.stats().modeled_seconds();
    let (e_in, a2) = comm.with_step(CommStep::Reduction, || {
        (
            comm.all_reduce(e_in_local, ReduceOp::Sum),
            comm.all_reduce(a2_local, ReduceOp::Sum),
        )
    });
    reduce_seconds += comm.stats().modeled_seconds() - t0;
    let final_q = if ctx.two_m > 0.0 {
        e_in / ctx.two_m - a2 / (ctx.two_m * ctx.two_m)
    } else {
        0.0
    };

    // Memory gauges at phase end: buffer capacities are monotone within
    // a phase, so this samples the arena's and wire pools' high-water
    // marks (min/max land in the gauge stats across phases).
    if louvain_obs::enabled() {
        louvain_obs::gauge_set("mem.scratch_bytes", scratch.approx_bytes() as f64);
        louvain_obs::gauge_set("mem.wire_bytes", ghosts.wire_bytes() as f64);
    }

    PhaseResult {
        comm_of_local,
        ghost_comm,
        owned_a: state.snapshot_a(),
        modularity: final_q,
        iterations,
        traces,
        compute,
        comm_seconds,
        reduce_seconds,
        etc_exit,
        pruned_ghosts: ghosts.num_pruned(),
    }
}

/// Distributed vertex following (phase 0 only), chain-collapsing flavour.
///
/// Degree-1 *chains* — not just direct pendants — are peeled iteratively:
/// each round, every vertex with exactly one still-alive non-loop
/// neighbor follows that neighbor and drops out, exposing the next link.
/// Mutual pendant pairs (an isolated edge: each endpoint is the other's
/// unique alive neighbor) collapse toward the smaller id — following
/// blindly would swap them instead of merging. Peeling repeats until a
/// global round removes nothing.
///
/// A peeled vertex's recorded parent may itself be peeled in a later
/// round, so chains are then resolved to their surviving *anchor* by
/// distributed pointer chasing (owners answer "alive, or else forward to
/// my parent" pulls), and every peeled vertex joins its anchor's
/// singleton community in one delta push. Anchors are alive and have
/// never moved, so the anchor's community id equals its vertex id.
///
/// All rounds are collective (flag ghost exchanges + an all-reduced
/// peel/unresolved count), so every rank runs the same number of them.
/// Peeled vertices stay active in later sweeps: they may still migrate
/// once real modularity information starts flowing.
fn apply_vertex_following(
    comm: &Comm,
    lg: &LocalGraph,
    ghosts: &GhostLayer,
    state: &SweepState,
    k_local: &[Weight],
    neighborhood: bool,
) {
    let part = lg.partition();
    let first = lg.first_vertex();
    let nlocal = lg.num_local();
    let adj = ghosts.adjacency(lg);
    let global_of: Vec<VertexId> = (0..nlocal)
        .map(|l| lg.to_global(l))
        .chain(ghosts.ghost_ids())
        .collect();
    // Vertex-following traffic keeps its default `Other` attribution;
    // the explicit scopes give it wait/transfer sub-spans so the traced
    // byte counters reconcile with the sub-span totals.
    let refresh = |vals: &[u64], out: &mut Vec<u64>| {
        comm.with_step(CommStep::Other, || {
            if neighborhood {
                ghosts.refresh_neighborhood(comm, vals, out);
            } else {
                ghosts.refresh(comm, vals, out);
            }
        });
    };
    // A flag of dense id `d`: owned from `local`, ghost from `ghost`.
    let flag = |local: &[u64], ghost: &[u64], d: usize| -> bool {
        if d < nlocal {
            local[d] == 1
        } else {
            ghost[d - nlocal] == 1
        }
    };

    // -- Peeling rounds. ---------------------------------------------------
    let mut alive: Vec<u64> = vec![1; nlocal];
    let mut parent: Vec<Option<VertexId>> = vec![None; nlocal];
    // Dense id of each vertex's unique alive neighbor this round.
    let mut qual_target: Vec<Option<usize>> = vec![None; nlocal];
    let mut ghost_alive: Vec<u64> = Vec::new();
    let mut ghost_qual: Vec<u64> = Vec::new();
    loop {
        refresh(&alive, &mut ghost_alive);
        for l in 0..nlocal {
            qual_target[l] = None;
            if alive[l] == 0 {
                continue;
            }
            let mut nbrs = adj
                .neighbors(l)
                .filter(|&(d, _)| d != l && flag(&alive, &ghost_alive, d));
            qual_target[l] = match (nbrs.next(), nbrs.next()) {
                (Some((d, _)), None) => Some(d),
                _ => None,
            };
        }
        let qual: Vec<u64> = qual_target.iter().map(|t| u64::from(t.is_some())).collect();
        refresh(&qual, &mut ghost_qual);
        let mut peeled = 0u64;
        for l in 0..nlocal {
            let Some(d) = qual_target[l] else { continue };
            let (u, v) = (global_of[d], lg.to_global(l));
            // If the parent also qualifies, the relation is mutual (its
            // unique alive neighbor must be us): only the larger id
            // follows, the smaller survives as the pair's anchor.
            if flag(&qual, &ghost_qual, d) && u > v {
                continue;
            }
            alive[l] = 0;
            parent[l] = Some(u);
            peeled += 1;
        }
        let peeled_global =
            comm.with_step(CommStep::Other, || comm.all_reduce(peeled, ReduceOp::Sum));
        if peeled_global == 0 {
            break;
        }
    }

    // -- Pointer chasing: resolve chains to their surviving anchors. -------
    let mut anchor = parent;
    let mut resolved: Vec<bool> = anchor.iter().map(|t| t.is_none()).collect();
    loop {
        let mut requests: Vec<Vec<VertexId>> = vec![Vec::new(); comm.size()];
        for (l, r) in resolved.iter().enumerate() {
            if !r {
                let t = anchor[l].expect("unresolved vertex without a target");
                requests[part.owner_of(t)].push(t);
            }
        }
        let incoming = comm.with_step(CommStep::Other, || comm.all_to_all_v(requests));
        let replies: Vec<Vec<(VertexId, u64, VertexId)>> = incoming
            .iter()
            .map(|ids| {
                ids.iter()
                    .map(|&u| {
                        let i = (u - first) as usize;
                        // Answering from the advancing anchor array (not
                        // the original parents) gives path compression.
                        if alive[i] == 1 {
                            (u, 1, u)
                        } else {
                            (u, 0, anchor[i].expect("dead vertex without a parent"))
                        }
                    })
                    .collect()
            })
            .collect();
        let reply_vals = comm.with_step(CommStep::Other, || comm.all_to_all_v(replies));
        let mut next: FastMap<VertexId, (bool, VertexId)> = fast_map();
        for vals in &reply_vals {
            for &(u, alive_flag, nxt) in vals {
                next.insert(u, (alive_flag == 1, nxt));
            }
        }
        let mut unresolved = 0u64;
        for l in 0..nlocal {
            if resolved[l] {
                continue;
            }
            let t = anchor[l].expect("unresolved vertex without a target");
            let &(is_alive, nxt) = next.get(&t).expect("owner did not answer a pull");
            if is_alive {
                resolved[l] = true;
            } else {
                anchor[l] = Some(nxt);
                unresolved += 1;
            }
        }
        let unresolved_global = comm.with_step(CommStep::Other, || {
            comm.all_reduce(unresolved, ReduceOp::Sum)
        });
        if unresolved_global == 0 {
            break;
        }
    }

    // -- Apply: every peeled vertex joins its anchor's singleton. ----------
    let mut deltas: FastMap<VertexId, (Weight, i64)> = fast_map();
    let mut collapsed = 0u64;
    for l in 0..nlocal {
        if alive[l] == 1 {
            continue;
        }
        let t = anchor[l].expect("peeled vertex without an anchor");
        let kv = k_local[l];
        // Leave own singleton community (owned here by construction).
        state.comm[l].store(t, Ordering::Relaxed);
        state.a[l].fetch_add(-kv);
        state.size[l].fetch_sub(1, Ordering::Relaxed);
        collapsed += 1;
        // Join the anchor's community.
        if lg.owns(t) {
            let i = (t - first) as usize;
            state.a[i].fetch_add(kv);
            state.size[i].fetch_add(1, Ordering::Relaxed);
        } else {
            let d = deltas.entry(t).or_insert((0.0, 0));
            d.0 += kv;
            d.1 += 1;
        }
    }
    louvain_obs::counter_add("vf.collapsed", collapsed);
    let mut delta_msgs: Vec<Vec<(VertexId, f64, i64)>> = vec![Vec::new(); comm.size()];
    for (&c, &(da, ds)) in &deltas {
        delta_msgs[part.owner_of(c)].push((c, da, ds));
    }
    let received = comm.with_step(CommStep::Other, || comm.all_to_all_v(delta_msgs));
    state.absorb_deltas(first, &received);
}

/// This rank's contribution to `Σ e_in` and `Σ a_c²` (Eq. 2).
fn local_modularity_terms(
    adj: &DenseAdj<'_>,
    state: &SweepState,
    ghost_comm: &[VertexId],
) -> (f64, f64) {
    let nlocal = adj.num_local();
    let mut e_in_local = 0.0;
    for l in 0..nlocal {
        let cv = state.comm_of_local(l);
        for (d, w) in adj.neighbors(l) {
            let cu = if d < nlocal {
                state.comm_of_local(d)
            } else {
                ghost_comm[d - nlocal]
            };
            if cu == cv {
                e_in_local += w;
            }
        }
    }
    let a2_local: f64 = state
        .a
        .iter()
        .map(|a| {
            let v = a.load();
            v * v
        })
        .sum();
    (e_in_local, a2_local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistConfig;
    use louvain_comm::run;
    use louvain_graph::community::modularity;
    use louvain_graph::{Csr, EdgeList, VertexPartition};

    fn two_triangles() -> Csr {
        Csr::from_edge_list(EdgeList::from_edges(
            6,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
                (2, 3, 1.0),
            ],
        ))
    }

    /// Run one phase on `p` ranks; return (global assignment, modularity).
    fn run_one_phase(g: &Csr, p: usize, cfg: &DistConfig) -> (Vec<VertexId>, f64) {
        let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, p);
        let parts = LocalGraph::scatter(g, &part);
        let two_m = g.two_m();
        let outs = run(p, |c| {
            let lg = parts[c.rank()].clone();
            let mut ghosts = GhostLayer::build(c, &lg);
            let ctx = PhaseContext {
                comm: c,
                lg: &lg,
                two_m,
            };
            let r = louvain_phase(&ctx, &mut ghosts, cfg, 0, cfg.threshold);
            (r.comm_of_local, r.modularity)
        });
        let mut assignment = Vec::new();
        let q = outs[0].1;
        for (a, q_r) in outs {
            assert!((q_r - q).abs() < 1e-12, "ranks disagree on modularity");
            assignment.extend(a);
        }
        (assignment, q)
    }

    #[test]
    fn single_rank_phase_finds_triangles() {
        let g = two_triangles();
        let (assignment, q) = run_one_phase(&g, 1, &DistConfig::baseline());
        assert_eq!(assignment[0], assignment[1]);
        assert_eq!(assignment[1], assignment[2]);
        assert_eq!(assignment[3], assignment[4]);
        assert_ne!(assignment[0], assignment[3]);
        assert!(q > 0.3);
    }

    #[test]
    fn distributed_phase_matches_reference_modularity() {
        let g = two_triangles();
        for p in [1, 2, 3] {
            let (assignment, q) = run_one_phase(&g, p, &DistConfig::baseline());
            let q_ref = modularity(&g, &assignment);
            assert!(
                (q - q_ref).abs() < 1e-9,
                "p={p}: reported {q} vs reference {q_ref}"
            );
        }
    }

    #[test]
    fn phase_on_lfr_improves_modularity_on_many_ranks() {
        let g = louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(600, 5)).graph;
        let (assignment, q) = run_one_phase(&g, 4, &DistConfig::baseline());
        assert!(q > 0.4, "q = {q}");
        assert_eq!(assignment.len(), 600);
        let q_ref = modularity(&g, &assignment);
        assert!((q - q_ref).abs() < 1e-9);
    }

    #[test]
    fn vertex_following_merges_pendants_immediately() {
        // Star + pendant chain: 0-1, 0-2, 0-3 (star) and isolated edge 4-5.
        let g = Csr::from_edge_list(EdgeList::from_edges(
            6,
            [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (4, 5, 1.0)],
        ));
        let cfg = DistConfig {
            vertex_following: true,
            ..DistConfig::baseline()
        };
        for p in [1, 2, 3] {
            let (assignment, q) = run_one_phase(&g, p, &cfg);
            // All star leaves end with the hub.
            assert_eq!(assignment[1], assignment[0], "p={p}");
            assert_eq!(assignment[2], assignment[0], "p={p}");
            assert_eq!(assignment[3], assignment[0], "p={p}");
            // The pendant pair collapses toward the smaller id.
            assert_eq!(assignment[4], assignment[5], "p={p}");
            assert_eq!(assignment[4], 4, "p={p}");
            let q_ref = modularity(&g, &assignment);
            assert!((q - q_ref).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn vertex_following_preserves_quality_on_lfr() {
        let g = louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(800, 11)).graph;
        let base = run_one_phase(&g, 2, &DistConfig::baseline());
        let cfg = DistConfig {
            vertex_following: true,
            ..DistConfig::baseline()
        };
        let vf = run_one_phase(&g, 2, &cfg);
        assert!(vf.1 > base.1 - 0.05, "vf {} vs base {}", vf.1, base.1);
    }

    #[test]
    fn multithreaded_sweep_reaches_comparable_quality() {
        let g = louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(1_000, 9)).graph;
        let base = run_one_phase(&g, 2, &DistConfig::baseline());
        let cfg = DistConfig {
            sweep: crate::SweepMode::Relaxed,
            threads_per_rank: 4,
            ..DistConfig::baseline()
        };
        let threaded = run_one_phase(&g, 2, &cfg);
        // Racing chunks change the trajectory but not the quality
        // ballpark; the reported Q must still be exact for the returned
        // assignment.
        assert!(
            threaded.1 > base.1 - 0.1,
            "threaded {} vs sequential {}",
            threaded.1,
            base.1
        );
        let q_ref = modularity(&g, &threaded.0);
        assert!((threaded.1 - q_ref).abs() < 1e-9);
    }

    #[test]
    fn neighborhood_collectives_give_identical_results() {
        let g = louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(600, 6)).graph;
        let base = run_one_phase(&g, 3, &DistConfig::baseline());
        let cfg = DistConfig {
            neighborhood_collectives: true,
            ..DistConfig::baseline()
        };
        let nbr = run_one_phase(&g, 3, &cfg);
        assert_eq!(base.0, nbr.0, "assignments differ");
        assert_eq!(base.1, nbr.1);
    }

    #[test]
    fn delta_ghost_refresh_gives_identical_results() {
        // The delta refresh promises a *bit-identical* trajectory, so the
        // comparison is exact equality (not a tolerance) on three
        // generator families at 1, 2 and 8 ranks — including the p=1
        // degenerate case where there are no ghosts at all.
        let graphs = parity_graphs();
        let delta_cfg = DistConfig {
            delta_ghost_refresh: true,
            ..DistConfig::baseline()
        };
        for (gi, g) in graphs.iter().enumerate() {
            for p in [1, 2, 8] {
                let base = run_one_phase(g, p, &DistConfig::baseline());
                let delta = run_one_phase(g, p, &delta_cfg);
                assert_eq!(base.0, delta.0, "graph {gi}, p={p}: assignments differ");
                assert_eq!(base.1, delta.1, "graph {gi}, p={p}: modularity differs");
            }
        }
    }

    #[test]
    fn delta_refresh_composes_with_neighborhood_and_pruning() {
        let g = louvain_graph::gen::ssca2(louvain_graph::gen::Ssca2Params {
            n: 600,
            max_clique_size: 15,
            inter_clique_prob: 0.05,
            seed: 3,
        })
        .graph;
        // Neighborhood collectives: the delta flavour rides the same
        // neighbor topology, so results stay identical.
        let nbr = DistConfig {
            neighborhood_collectives: true,
            ..DistConfig::baseline()
        };
        let nbr_delta = DistConfig {
            delta_ghost_refresh: true,
            ..nbr.clone()
        };
        let a = run_one_phase(&g, 4, &nbr);
        let b = run_one_phase(&g, 4, &nbr_delta);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        // ET + inactive-ghost pruning: pruned serve slots are excluded
        // from delta payloads exactly as from full ones.
        let et = DistConfig {
            prune_inactive_ghosts: true,
            ..DistConfig::with_variant(crate::Variant::Et { alpha: 0.75 })
        };
        let et_delta = DistConfig {
            delta_ghost_refresh: true,
            ..et.clone()
        };
        let a = run_one_phase(&g, 3, &et);
        let b = run_one_phase(&g, 3, &et_delta);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        let q_ref = modularity(&g, &b.0);
        assert!((b.1 - q_ref).abs() < 1e-9);
    }

    #[test]
    fn modularity_traces_are_deterministic_and_delta_invariant() {
        let g = louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(500, 3)).graph;
        let part = VertexPartition::balanced_vertices(500, 2);
        let parts = LocalGraph::scatter(&g, &part);
        let two_m = g.two_m();
        let run_traces = |cfg: &DistConfig| -> Vec<Vec<(f64, u64)>> {
            run(2, |c| {
                let lg = parts[c.rank()].clone();
                let mut ghosts = GhostLayer::build(c, &lg);
                let ctx = PhaseContext {
                    comm: c,
                    lg: &lg,
                    two_m,
                };
                let r = louvain_phase(&ctx, &mut ghosts, cfg, 0, cfg.threshold);
                r.traces.iter().map(|t| (t.modularity, t.moves)).collect()
            })
        };
        let base = run_traces(&DistConfig::baseline());
        let again = run_traces(&DistConfig::baseline());
        assert_eq!(
            base, again,
            "single-threaded sweeps must be bit-reproducible"
        );
        let delta_cfg = DistConfig {
            delta_ghost_refresh: true,
            ..DistConfig::baseline()
        };
        let delta = run_traces(&delta_cfg);
        assert_eq!(base, delta, "delta refresh must not perturb the trajectory");
    }

    #[test]
    fn colored_sweeps_converge_with_comparable_quality() {
        let g = louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(600, 7)).graph;
        let base = run_one_phase(&g, 3, &DistConfig::baseline());
        let cfg = DistConfig {
            color_sweeps: true,
            ..DistConfig::baseline()
        };
        let colored = run_one_phase(&g, 3, &cfg);
        assert!(
            colored.1 > base.1 - 0.1,
            "colored {} vs base {}",
            colored.1,
            base.1
        );
    }

    #[test]
    fn pruning_preserves_results_for_frozen_et() {
        // With pruning on, the phase output must still be a consistent
        // (reported == recomputed) clustering.
        let g = louvain_graph::gen::ssca2(louvain_graph::gen::Ssca2Params {
            n: 600,
            max_clique_size: 15,
            inter_clique_prob: 0.05,
            seed: 3,
        })
        .graph;
        let cfg = DistConfig {
            prune_inactive_ghosts: true,
            ..DistConfig::with_variant(crate::Variant::Et { alpha: 0.75 })
        };
        let (assignment, q) = run_one_phase(&g, 3, &cfg);
        let q_ref = modularity(&g, &assignment);
        assert!(
            (q - q_ref).abs() < 1e-9,
            "reported {q} vs reference {q_ref}"
        );
    }

    #[test]
    fn etc_variant_terminates_and_reports_inactive() {
        let g = louvain_graph::gen::ssca2(louvain_graph::gen::Ssca2Params {
            n: 600,
            max_clique_size: 15,
            inter_clique_prob: 0.05,
            seed: 2,
        })
        .graph;
        let cfg = DistConfig::with_variant(crate::Variant::Etc { alpha: 0.75 });
        let part = VertexPartition::balanced_vertices(600, 2);
        let parts = LocalGraph::scatter(&g, &part);
        let two_m = g.two_m();
        let outs = run(2, |c| {
            let lg = parts[c.rank()].clone();
            let mut ghosts = GhostLayer::build(c, &lg);
            let ctx = PhaseContext {
                comm: c,
                lg: &lg,
                two_m,
            };
            let r = louvain_phase(&ctx, &mut ghosts, &cfg, 0, cfg.threshold);
            (r.iterations, r.traces.last().unwrap().inactive)
        });
        // Both ranks agree on iteration count (bulk synchronous).
        assert_eq!(outs[0].0, outs[1].0);
    }

    fn parity_graphs() -> Vec<Csr> {
        vec![
            louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(600, 6)).graph,
            louvain_graph::gen::ssca2(louvain_graph::gen::Ssca2Params {
                n: 500,
                max_clique_size: 12,
                inter_clique_prob: 0.05,
                seed: 7,
            })
            .graph,
            louvain_graph::gen::rmat(louvain_graph::gen::RmatParams::social(9, 8, 11)).graph,
        ]
    }

    /// LFR with arbitrary non-integer weights: gains of distinct candidates
    /// can then differ by a few ulps, so near-ties within 1e-12 depend on
    /// the candidate scan order.
    fn non_integer_weight_graph() -> Csr {
        let g = louvain_graph::gen::lfr(louvain_graph::gen::LfrParams::small(600, 8)).graph;
        let weight =
            |v: u64, u: u64| 0.1 + (louvain_graph::hash::mix64(v * 7919 + u) % 1000) as f64 / 997.0;
        let edges = (0..600).flat_map(|v| {
            g.neighbors(v)
                .filter(move |&(u, _)| v < u)
                .map(move |(u, _)| (v, u, weight(v, u)))
        });
        Csr::from_edge_list(EdgeList::from_edges(600, edges))
    }

    #[test]
    fn colored_schedule_is_bit_identical_across_thread_counts() {
        // The tentpole determinism claim: for a fixed coloring (the
        // coloring seed never depends on the thread count), the colored
        // schedule produces byte-identical assignments and bit-identical
        // modularity at threads ∈ {1, 2, 4}, across {1, 2, 8} ranks, all
        // three bench generator families and a non-integer-weight graph.
        let mut graphs = parity_graphs();
        graphs.push(non_integer_weight_graph());
        for (gi, g) in graphs.iter().enumerate() {
            for p in [1, 2, 8] {
                let runs: Vec<(Vec<VertexId>, f64)> = [1usize, 2, 4]
                    .iter()
                    .map(|&t| {
                        let cfg = DistConfig {
                            sweep: crate::SweepMode::Colored,
                            threads_per_rank: t,
                            ..DistConfig::baseline()
                        };
                        run_one_phase(g, p, &cfg)
                    })
                    .collect();
                for (i, r) in runs.iter().enumerate().skip(1) {
                    assert_eq!(
                        runs[0].0,
                        r.0,
                        "graph {gi}, p={p}: threads=1 vs threads={} assignments differ",
                        [1, 2, 4][i]
                    );
                    assert_eq!(
                        runs[0].1.to_bits(),
                        r.1.to_bits(),
                        "graph {gi}, p={p}: modularity differs"
                    );
                }
            }
        }
    }

    #[test]
    fn auto_mode_keeps_seed_behavior_on_one_thread() {
        // Auto at threads=1 must remain the seed's sequential sweep
        // bit-for-bit; Auto at threads>1 must equal Colored at the same
        // thread count (same coloring, same frozen-batch schedule).
        let g = parity_graphs().remove(0);
        for p in [1, 3] {
            let auto1 = run_one_phase(&g, p, &DistConfig::baseline());
            let explicit_seq = run_one_phase(
                &g,
                p,
                &DistConfig {
                    sweep: crate::SweepMode::Relaxed,
                    ..DistConfig::baseline()
                },
            );
            assert_eq!(auto1.0, explicit_seq.0, "p={p}");
            assert_eq!(auto1.1.to_bits(), explicit_seq.1.to_bits(), "p={p}");
            let auto4 = run_one_phase(
                &g,
                p,
                &DistConfig {
                    threads_per_rank: 4,
                    ..DistConfig::baseline()
                },
            );
            let colored4 = run_one_phase(
                &g,
                p,
                &DistConfig {
                    sweep: crate::SweepMode::Colored,
                    threads_per_rank: 4,
                    ..DistConfig::baseline()
                },
            );
            assert_eq!(auto4.0, colored4.0, "p={p}");
            assert_eq!(auto4.1.to_bits(), colored4.1.to_bits(), "p={p}");
        }
    }

    #[test]
    fn colored_schedule_quality_parity_with_sequential() {
        // Quality parity across {1, 2, 8} ranks × 3 generators: the
        // colored frozen-batch trajectory differs from the sequential one
        // (Jacobi- vs Gauss-Seidel-style updates within a batch), but the
        // final modularity stays within the documented tolerance, and the
        // reported value is exact for the reported assignment.
        for (gi, g) in parity_graphs().iter().enumerate() {
            for p in [1, 2, 8] {
                let base = run_one_phase(g, p, &DistConfig::baseline());
                let colored = run_one_phase(
                    g,
                    p,
                    &DistConfig {
                        sweep: crate::SweepMode::Colored,
                        threads_per_rank: 4,
                        ..DistConfig::baseline()
                    },
                );
                assert!(
                    colored.1 > base.1 - 0.1,
                    "graph {gi}, p={p}: colored {} vs sequential {}",
                    colored.1,
                    base.1
                );
                let q_ref = modularity(g, &colored.0);
                assert!((colored.1 - q_ref).abs() < 1e-9, "graph {gi}, p={p}");
            }
        }
    }

    #[test]
    fn colored_schedule_composes_with_et_and_color_sweeps() {
        // Thread-count bit-identity must survive composition with the ET
        // activity filter (settled vertices skipped per batch) and the
        // color_sweeps sub-round extension (monochromatic rounds).
        let g = louvain_graph::gen::ssca2(louvain_graph::gen::Ssca2Params {
            n: 600,
            max_clique_size: 15,
            inter_clique_prob: 0.05,
            seed: 3,
        })
        .graph;
        for base_cfg in [
            DistConfig::with_variant(crate::Variant::Et { alpha: 0.25 }),
            DistConfig {
                color_sweeps: true,
                ..DistConfig::baseline()
            },
        ] {
            let t1 = run_one_phase(
                &g,
                2,
                &DistConfig {
                    sweep: crate::SweepMode::Colored,
                    threads_per_rank: 1,
                    ..base_cfg.clone()
                },
            );
            let t4 = run_one_phase(
                &g,
                2,
                &DistConfig {
                    sweep: crate::SweepMode::Colored,
                    threads_per_rank: 4,
                    ..base_cfg.clone()
                },
            );
            assert_eq!(t1.0, t4.0);
            assert_eq!(t1.1.to_bits(), t4.1.to_bits());
        }
    }

    #[test]
    fn vertex_following_collapses_chains() {
        // Path 0-1-2-3-4 hanging off triangle 4-5-6: iterative peeling
        // collapses the whole chain onto its anchor, where the old
        // single-round VF only captured direct pendants.
        let g = Csr::from_edge_list(EdgeList::from_edges(
            7,
            [
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 6, 1.0),
                (4, 6, 1.0),
            ],
        ));
        let cfg = DistConfig {
            vertex_following: true,
            ..DistConfig::baseline()
        };
        for p in [1, 2, 3] {
            let (assignment, q) = run_one_phase(&g, p, &cfg);
            // The chain 0-1-2-3 collapses with the triangle side it hangs
            // from: everything in 0..=3 lands in one community.
            assert_eq!(assignment[0], assignment[1], "p={p}");
            assert_eq!(assignment[1], assignment[2], "p={p}");
            assert_eq!(assignment[2], assignment[3], "p={p}");
            let q_ref = modularity(&g, &assignment);
            assert!((q - q_ref).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn candidate_pick_matches_the_ascending_scan_on_near_ties() {
        // A star whose leaves' arc weights differ by fractions of the
        // 1e-12 tolerance: the center, swept first, faces near-tie chains
        // where the pick depends on the scan order, and must join the
        // community a plain ascending-id scan picks.
        let cfg = DistConfig {
            index_order_sweep: true,
            max_iterations: 1,
            disable_singleton_guard: true,
            ..DistConfig::baseline()
        };
        for draw in 0..200u64 {
            let leaves = 2 + draw % 12;
            let mut el = EdgeList::new(leaves + 1);
            for i in 1..=leaves {
                let h = louvain_graph::hash::mix64(draw * 131 + i);
                el.push(0, i, 1.0 + (h % 7) as f64 * 4e-13 + (h % 3) as f64);
            }
            let g = Csr::from_edge_list(el);
            let (two_m, k0) = (g.two_m(), g.weighted_degree(0));
            let mut best = (0, f64::NEG_INFINITY);
            for (c, w) in g.neighbors(0) {
                let score = w - k0 * w / two_m;
                if score > best.1 + 1e-12 || ((score - best.1).abs() <= 1e-12 && c < best.0) {
                    best = (c, score);
                }
            }
            assert_eq!(run_one_phase(&g, 1, &cfg).0[0], best.0, "draw {draw}");
        }
    }

    #[test]
    fn work_counters_and_comm_time_are_recorded() {
        let g = two_triangles();
        let part = VertexPartition::balanced_vertices(6, 2);
        let parts = LocalGraph::scatter(&g, &part);
        let outs = run(2, |c| {
            let lg = parts[c.rank()].clone();
            let mut ghosts = GhostLayer::build(c, &lg);
            let ctx = PhaseContext {
                comm: c,
                lg: &lg,
                two_m: g.two_m(),
            };
            let r = louvain_phase(&ctx, &mut ghosts, &DistConfig::baseline(), 0, 1e-6);
            (r.compute, r.comm_seconds, r.reduce_seconds)
        });
        for (w, cs, rs) in outs {
            assert!(w.edges_scanned > 0);
            assert!(w.vertices_processed > 0);
            assert!(cs > 0.0);
            assert!(rs > 0.0);
        }
    }
}
