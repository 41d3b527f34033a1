//! Reusable per-phase scratch buffers for the iteration hot loop.
//!
//! [`louvain_phase`](crate::iteration::louvain_phase) runs the paper's
//! four communication steps dozens of times per phase. The seed
//! implementation allocated every intermediate — the community snapshot,
//! the request/reply vectors of the a_c pull, the delta message buffers,
//! the per-thread neighbor-weight accumulators — from scratch on every
//! round. [`IterScratch`] owns all of them for the lifetime of a phase:
//! buffers are cleared between uses (which keeps their capacity) instead
//! of reallocated, and vectors that cross the simulated wire are
//! reclaimed from the receive side of the same collective (see
//! [`reclaim`]), so after the first iteration the steady state performs
//! no allocation at all on the exchange path.

use std::sync::Mutex;

use louvain_graph::{VertexId, Weight};

/// Sahu's collision-free per-thread accumulator ("Enhancing Efficiency
/// in Parallel Louvain"): one value per dense community slot plus the
/// list of slots touched since the last reset. Untouched slots hold NaN,
/// so a touched community whose weights sum to 0.0 is still a candidate,
/// exactly as a hash-map entry would be.
#[derive(Debug, Default)]
pub struct Accumulator {
    val: Vec<Weight>,
    touched: Vec<u32>,
}

impl Accumulator {
    /// Add `w` to slot `s` (recording `s` the first time it is touched).
    #[inline]
    pub fn add(&mut self, s: u32, w: Weight) {
        let v = &mut self.val[s as usize];
        if v.is_nan() {
            *v = 0.0;
            self.touched.push(s);
        }
        *v += w;
    }

    /// Accumulated weight of slot `s`, if it was touched.
    #[inline]
    pub fn get(&self, s: u32) -> Option<Weight> {
        let v = self.val[s as usize];
        (!v.is_nan()).then_some(v)
    }

    /// True if no slot was touched since the last reset.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Reorder the touched slots (first-touch order until then).
    pub fn sort_by_key<K: Ord>(&mut self, mut key: impl FnMut(u32) -> K) {
        self.touched.sort_unstable_by_key(|&s| key(s));
    }

    /// `(slot, accumulated weight)` of the touched slots, in their
    /// current order.
    pub fn entries(&self) -> impl Iterator<Item = (u32, Weight)> + '_ {
        self.touched.iter().map(|&s| (s, self.val[s as usize]))
    }

    /// Forget every touched slot — O(touched), not O(slots).
    pub fn reset(&mut self) {
        for s in self.touched.drain(..) {
            self.val[s as usize] = Weight::NAN;
        }
    }
}

/// Per-phase arena of reusable iteration buffers. `Sync` so the parallel
/// compute sweep can check accumulators out of the shared pool.
pub struct IterScratch {
    /// Community snapshot taken immediately before each ghost exchange.
    pub comm_snapshot: Vec<VertexId>,
    /// Community values as of the *last* ghost exchange — the baseline the
    /// delta refresh diffs against. Empty until the first (always full)
    /// exchange of the phase.
    pub last_pushed: Vec<VertexId>,
    /// `changed[l]`: vertex `l`'s community differs from [`last_pushed`];
    /// rebuilt before every delta refresh.
    ///
    /// [`last_pushed`]: IterScratch::last_pushed
    pub changed: Vec<bool>,
    /// Per-vertex ET activity flags for the current iteration.
    pub active: Vec<bool>,
    /// Dense ids (owned vertices, then ghosts) that the round's swept
    /// vertices can read: the swept vertices and their neighbors.
    pub marked: Vec<bool>,
    /// The round's step-2 pull table: remote communities the swept
    /// vertices can read, ascending. Remote community `pull_ids[i]` has
    /// community slot `nlocal + i`.
    pub pull_ids: Vec<VertexId>,
    /// Per-destination-rank request buffers for the a_c pull.
    pub requests: Vec<Vec<VertexId>>,
    /// Per-destination-rank keyed `(community, a_c, size)` reply buffers.
    pub replies: Vec<Vec<(VertexId, Weight, u64)>>,
    /// `(a_c, size)` of `pull_ids[i]` as pulled this round.
    pub remote_a: Vec<(Weight, u64)>,
    /// Community slot of each ghost's community this round (`u32::MAX`
    /// for ghosts no swept vertex reads).
    pub ghost_slot: Vec<u32>,
    /// The vertex ids swept in the current (sub-)round.
    pub round_vertices: Vec<usize>,
    /// Per-destination-rank delta messages for the owner push.
    pub delta_msgs: Vec<Vec<(VertexId, f64, i64)>>,
    /// Per-color conflict-free batches of the colored sweep schedule,
    /// rebuilt (cleared, capacities kept) every round it runs.
    pub batches: Vec<Vec<usize>>,
    /// Accumulators checked out by sweep workers (sequential, one per
    /// rayon chunk, or one per worker range of a color batch) and
    /// returned after use.
    accs: Mutex<Vec<Accumulator>>,
}

impl IterScratch {
    /// Arena for a rank with `nlocal` vertices in a world of `p` ranks.
    pub fn new(nlocal: usize, p: usize) -> Self {
        Self {
            comm_snapshot: Vec::with_capacity(nlocal),
            last_pushed: Vec::with_capacity(nlocal),
            changed: Vec::with_capacity(nlocal),
            active: Vec::with_capacity(nlocal),
            marked: Vec::new(),
            pull_ids: Vec::new(),
            requests: vec![Vec::new(); p],
            replies: vec![Vec::new(); p],
            remote_a: Vec::new(),
            ghost_slot: Vec::new(),
            round_vertices: Vec::with_capacity(nlocal),
            delta_msgs: vec![Vec::new(); p],
            batches: Vec::new(),
            accs: Mutex::new(Vec::new()),
        }
    }

    /// Check a reset accumulator covering at least `slots` community
    /// slots out of the pool (allocating only if the pool is dry).
    pub fn take_acc(&self, slots: usize) -> Accumulator {
        let mut acc = self
            .accs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default();
        debug_assert!(acc.touched.is_empty(), "pooled accumulator not reset");
        if acc.val.len() < slots {
            acc.val.resize(slots, Weight::NAN);
        }
        acc
    }

    /// Return a reset accumulator to the pool for the next sweep.
    pub fn put_acc(&self, acc: Accumulator) {
        self.accs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(acc);
    }

    /// Approximate resident bytes of the arena, from buffer *capacities*
    /// (not lengths): buffers only grow within a phase, so sampling at
    /// phase end yields the arena's high-water mark for the
    /// `mem.scratch_bytes` gauge.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        fn flat<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * size_of::<T>()) as u64
        }
        fn nested<T>(v: &[Vec<T>]) -> u64 {
            v.iter()
                .map(|b| (b.capacity() * size_of::<T>()) as u64)
                .sum()
        }
        let accs = self.accs.lock().unwrap_or_else(|e| e.into_inner());
        flat(&self.comm_snapshot)
            + flat(&self.last_pushed)
            + flat(&self.changed)
            + flat(&self.active)
            + flat(&self.marked)
            + flat(&self.pull_ids)
            + nested(&self.requests)
            + nested(&self.replies)
            + flat(&self.remote_a)
            + flat(&self.ghost_slot)
            + flat(&self.round_vertices)
            + nested(&self.delta_msgs)
            + nested(&self.batches)
            + accs
                .iter()
                .map(|a| flat(&a.val) + flat(&a.touched))
                .sum::<u64>()
    }
}

/// Reclaim the vectors received from one collective as the send buffers
/// of the next: `dst` takes ownership of `used`'s (cleared) allocations.
/// Exchange patterns are near-symmetric round over round, so the
/// capacities stay warm.
pub fn reclaim<T>(dst: &mut Vec<Vec<T>>, mut used: Vec<Vec<T>>) {
    for b in &mut used {
        b.clear();
    }
    *dst = used;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_pool_recycles_reset_accumulators() {
        let s = IterScratch::new(8, 2);
        let mut a = s.take_acc(4);
        a.add(3, 2.0);
        a.add(1, 0.0);
        a.add(3, 0.5);
        assert_eq!(a.get(3), Some(2.5));
        assert_eq!(a.get(1), Some(0.0), "a zero sum is still touched");
        assert_eq!(a.get(0), None);
        assert_eq!(a.entries().collect::<Vec<_>>(), vec![(3, 2.5), (1, 0.0)]);
        a.sort_by_key(|s| s);
        assert_eq!(a.entries().collect::<Vec<_>>(), vec![(1, 0.0), (3, 2.5)]);
        a.reset();
        s.put_acc(a);
        let a2 = s.take_acc(6);
        assert!(
            (0..6).all(|i| a2.get(i).is_none()),
            "pooled accumulator must come back reset"
        );
        assert!(s.approx_bytes() > 0);
    }

    #[test]
    fn reclaim_clears_and_keeps_allocations() {
        let mut dst: Vec<Vec<u64>> = vec![Vec::new(); 2];
        let used = vec![vec![1, 2, 3], vec![4]];
        reclaim(&mut dst, used);
        assert_eq!(dst.len(), 2);
        assert!(dst.iter().all(|b| b.is_empty()));
        assert!(dst[0].capacity() >= 3);
    }
}
