//! Ghost-vertex discovery and refresh (Algorithm 4).
//!
//! Once per phase, every rank scans its edge lists for destinations owned
//! elsewhere, sends each owner the list of vertices it needs ("ghosts"),
//! and the owner remembers which of its vertices to serve to whom. Every
//! iteration then starts with the owners *pushing* the latest community
//! assignment of those vertices (Algorithm 3 lines 4–5).
//!
//! Three refinements from the paper's discussion are implemented here:
//!
//! * **neighborhood refresh** ([`GhostLayer::refresh_neighborhood`]) —
//!   the ghost topology is fixed for the whole phase and symmetric, so the
//!   exchange can use an MPI-3-style neighborhood collective whose
//!   per-message cost scales with the topology degree instead of `p−1`;
//! * **delta refresh** ([`GhostLayer::refresh_delta`]) — after the first
//!   iterations most vertices stop moving, so owners push `(index, value)`
//!   pairs only for vertices whose community changed since the last
//!   exchange instead of re-sending every ghost value. Ghost slots not
//!   mentioned keep their previous value, which is exactly the owner's
//!   current value — so a delta refresh leaves the ghost array
//!   byte-identical to what a full [`GhostLayer::refresh`] would produce;
//! * **inactive-ghost pruning** ([`GhostLayer::prune`]) — under early
//!   termination, a permanently inactive vertex can never move again, so
//!   its owner announces it and peers stop refreshing that ghost
//!   ("any communication that relates to inactive vertices can be
//!   prevented/preempted by communicating the ghost vertex IDs that have
//!   become inactive", Section IV-B).
//!
//! Refresh rounds run in the per-iteration hot path, so all send/receive
//! buffers cycle through a small pool ([`GhostLayer`] keeps the vectors
//! returned by one collective and reuses their capacity as the next
//! round's send buffers) and per-owner slot offsets are precomputed once
//! at build time.
//!
//! The build also relabels the rank's adjacency once to *dense local ids*
//! (the Vite/miniVite layout, see [`DenseAdj`]): `[0, nlocal)` for owned
//! vertices and `nlocal + slot` for ghosts. Every per-arc loop of the
//! phase — the sweep, the step-2 scan, the modularity scan, coloring,
//! vertex following and rebuild — indexes arrays with these ids instead
//! of looking ghost ids up in a map.

use std::sync::Mutex;

use louvain_comm::Comm;
use louvain_graph::hash::fast_map;
use louvain_graph::{LocalGraph, VertexId, Weight};

/// Wire entry of a delta refresh: (position in the receiver's request
/// list for this owner, new value).
pub type DeltaEntry = (u32, VertexId);

/// Grab-and-put vector pool: `take` pops a cleared buffer (or makes a
/// fresh one), `put_back` returns buffers so their capacity is reused.
#[derive(Debug, Default)]
struct BufPool<T> {
    free: Mutex<Vec<Vec<T>>>,
}

impl<T> BufPool<T> {
    fn take(&self) -> Vec<T> {
        let mut buf = self
            .free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default();
        buf.clear();
        buf
    }

    fn put_back(&self, bufs: impl IntoIterator<Item = Vec<T>>) {
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        free.extend(bufs);
    }

    /// Bytes held by the pooled buffers (capacities).
    fn pooled_bytes(&self) -> u64 {
        self.free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|b| (b.capacity() * std::mem::size_of::<T>()) as u64)
            .sum()
    }
}

/// A rank's adjacency over dense local ids: owned vertex `l` is `l`,
/// the ghost in slot `g` is `nlocal + g`. Rows follow the slab's CSR, so
/// arc order (and with it every floating-point summation order) is the
/// slab's own.
#[derive(Debug, Clone, Copy)]
pub struct DenseAdj<'a> {
    offsets: &'a [usize],
    ids: &'a [u32],
    weights: &'a [Weight],
}

impl<'a> DenseAdj<'a> {
    /// Number of owned vertices (the first ghost's dense id).
    pub fn num_local(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Dense neighbor ids and arc weights of local vertex `l`.
    #[inline]
    pub fn row(&self, l: usize) -> (&'a [u32], &'a [Weight]) {
        let r = self.offsets[l]..self.offsets[l + 1];
        (&self.ids[r.clone()], &self.weights[r])
    }

    /// `(dense id, weight)` pairs of local vertex `l`.
    #[inline]
    pub fn neighbors(&self, l: usize) -> impl Iterator<Item = (usize, Weight)> + 'a {
        let (ids, ws) = self.row(l);
        ids.iter().map(|&d| d as usize).zip(ws.iter().copied())
    }
}

/// Per-phase ghost bookkeeping for one rank.
#[derive(Debug)]
pub struct GhostLayer {
    /// Ghost ids this rank needs, grouped by owner, sorted (fixed order —
    /// the wire format of every refresh).
    requests: Vec<Vec<VertexId>>,
    /// `request_mask[owner][i]` — false once the ghost was pruned
    /// (frozen); its slot keeps the last received value.
    request_mask: Vec<Vec<bool>>,
    /// The rank's adjacency relabeled to dense local ids, aligned with
    /// the slab's destination array (see [`DenseAdj`]).
    dense: Vec<u32>,
    /// For each peer rank: the local indices of our vertices it ghosts,
    /// aligned with that peer's request order.
    serve: Vec<Vec<usize>>,
    /// Mirror of the peer's `request_mask` for our serve entries.
    serve_mask: Vec<Vec<bool>>,
    /// Ranks this rank actually exchanges ghosts with (symmetric).
    neighbors: Vec<usize>,
    /// `base[owner]` — slot offset of `requests[owner][0]` in the flat
    /// ghost value array (precomputed; `fill_from` runs per refresh).
    base: Vec<usize>,
    num_ghosts: usize,
    pruned: usize,
    /// Recycled value buffers for full refreshes.
    val_pool: BufPool<VertexId>,
    /// Recycled `(index, value)` buffers for delta refreshes.
    delta_pool: BufPool<DeltaEntry>,
}

impl GhostLayer {
    /// Run Algorithm 4: discover ghosts and exchange request lists.
    /// Collective — every rank must call it.
    pub fn build(comm: &Comm, lg: &LocalGraph) -> Self {
        let p = comm.size();
        let part = lg.partition();
        let nlocal = lg.num_local();
        let first = lg.first_vertex();
        let (_, dests, _) = lg.csr_parts();
        // Owners hold ascending contiguous ranges, so the sorted distinct
        // remote destinations are already grouped by owner: slot order is
        // (owner, position-in-request) order and ascending id order. The
        // id → slot map lives only for this one relabeling pass.
        let mut slot_of = fast_map::<VertexId, u32>();
        for &u in dests {
            if !lg.owns(u) {
                slot_of.entry(u).or_insert(0);
            }
        }
        let mut ghost_ids: Vec<VertexId> = slot_of.keys().copied().collect();
        ghost_ids.sort_unstable();
        assert!(
            nlocal + ghost_ids.len() <= u32::MAX as usize,
            "dense local ids overflow u32"
        );
        for (slot, g) in ghost_ids.iter().enumerate() {
            slot_of.insert(*g, (nlocal + slot) as u32);
        }
        let dense: Vec<u32> = dests
            .iter()
            .map(|&u| {
                if lg.owns(u) {
                    (u - first) as u32
                } else {
                    slot_of[&u]
                }
            })
            .collect();
        drop(slot_of);
        let mut requests: Vec<Vec<VertexId>> = vec![Vec::new(); p];
        for &g in &ghost_ids {
            requests[part.owner_of(g)].push(g);
        }
        let num_ghosts = ghost_ids.len();
        // Tell each owner what we need; learn what others need from us.
        // `all_to_all_v_ref` borrows the request lists (they stay the
        // wire-format reference for every later refresh).
        let received = comm.all_to_all_v_ref(&requests);
        let serve: Vec<Vec<usize>> = received
            .into_iter()
            .map(|ids| ids.into_iter().map(|g| lg.to_local(g)).collect())
            .collect();
        // The ghost relation is symmetric (arcs are stored in both
        // directions), so requests[j] and serve[j] are non-empty together.
        let neighbors: Vec<usize> = (0..p)
            .filter(|&j| j != comm.rank() && (!requests[j].is_empty() || !serve[j].is_empty()))
            .collect();
        let request_mask = requests.iter().map(|r| vec![true; r.len()]).collect();
        let serve_mask = serve.iter().map(|s| vec![true; s.len()]).collect();
        let base: Vec<usize> = requests
            .iter()
            .scan(0usize, |acc, r| {
                let b = *acc;
                *acc += r.len();
                Some(b)
            })
            .collect();
        Self {
            requests,
            request_mask,
            dense,
            serve,
            serve_mask,
            neighbors,
            base,
            num_ghosts,
            pruned: 0,
            val_pool: BufPool::default(),
            delta_pool: BufPool::default(),
        }
    }

    /// Number of distinct ghost vertices held by this rank.
    pub fn num_ghosts(&self) -> usize {
        self.num_ghosts
    }

    /// Ghosts whose refresh has been pruned.
    pub fn num_pruned(&self) -> usize {
        self.pruned
    }

    /// Ranks this rank exchanges ghosts with (symmetric topology).
    pub fn neighbor_ranks(&self) -> &[usize] {
        &self.neighbors
    }

    /// Global ids of the ghosts in slot order (ascending): the ghost in
    /// slot `g` of the value array filled by [`GhostLayer::refresh`].
    pub fn ghost_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.requests.iter().flatten().copied()
    }

    /// The rank's adjacency over dense local ids. `lg` must be the slab
    /// this layer was built from.
    pub fn adjacency<'a>(&'a self, lg: &'a LocalGraph) -> DenseAdj<'a> {
        let (offsets, dests, weights) = lg.csr_parts();
        assert_eq!(dests.len(), self.dense.len(), "ghost layer of another slab");
        DenseAdj {
            offsets,
            ids: &self.dense,
            weights,
        }
    }

    /// Build the per-peer outgoing value buffer for a refresh round
    /// (masked serve entries are skipped), reusing pooled capacity.
    fn serve_buffers(&self, local_vals: &[VertexId], j: usize) -> Vec<VertexId> {
        let mut buf = self.val_pool.take();
        buf.extend(
            self.serve[j]
                .iter()
                .zip(&self.serve_mask[j])
                .filter(|&(_, &alive)| alive)
                .map(|(&l, _)| local_vals[l]),
        );
        buf
    }

    /// Build the per-peer outgoing delta buffer: `(index, value)` pairs
    /// for alive serve entries whose local vertex is marked changed.
    fn delta_buffers(
        &self,
        local_vals: &[VertexId],
        changed: &[bool],
        j: usize,
    ) -> Vec<DeltaEntry> {
        let mut buf = self.delta_pool.take();
        buf.extend(
            self.serve[j]
                .iter()
                .zip(&self.serve_mask[j])
                .enumerate()
                .filter(|&(_, (&l, &alive))| alive && changed[l])
                .map(|(i, (&l, _))| (i as u32, local_vals[l])),
        );
        buf
    }

    /// Scatter one peer's reply into the slot array (masked request
    /// entries keep their last value).
    fn fill_from(&self, out: &mut [VertexId], owner: usize, values: &[VertexId]) {
        let base = self.base[owner];
        let mut vi = 0;
        for (i, &alive) in self.request_mask[owner].iter().enumerate() {
            if alive {
                out[base + i] = values[vi];
                vi += 1;
            }
        }
        debug_assert_eq!(vi, values.len());
    }

    /// Scatter one peer's delta reply: only the mentioned slots change.
    fn fill_from_delta(&self, out: &mut [VertexId], owner: usize, pairs: &[DeltaEntry]) {
        let base = self.base[owner];
        for &(i, v) in pairs {
            debug_assert!(
                self.request_mask[owner][i as usize],
                "delta for a pruned ghost slot"
            );
            out[base + i as usize] = v;
        }
    }

    /// One refresh round over the full communicator: every owner pushes
    /// `local_vals` entries for the vertices each peer ghosts; `out` is
    /// updated in slot order (it must persist across rounds once pruning
    /// is enabled — pruned slots keep their frozen value). Collective.
    pub fn refresh(&self, comm: &Comm, local_vals: &[VertexId], out: &mut Vec<VertexId>) {
        out.resize(self.num_ghosts, 0);
        let sends: Vec<Vec<VertexId>> = (0..comm.size())
            .map(|j| self.serve_buffers(local_vals, j))
            .collect();
        let received = comm.all_to_all_v(sends);
        for (owner, values) in received.iter().enumerate() {
            self.fill_from(out, owner, values);
        }
        self.val_pool.put_back(received);
    }

    /// [`GhostLayer::refresh`] over the neighborhood topology only
    /// (MPI-3 style): per-message cost scales with the topology degree.
    /// All ranks must use the same refresh flavour within a phase.
    pub fn refresh_neighborhood(
        &self,
        comm: &Comm,
        local_vals: &[VertexId],
        out: &mut Vec<VertexId>,
    ) {
        out.resize(self.num_ghosts, 0);
        let sends: Vec<Vec<VertexId>> = self
            .neighbors
            .iter()
            .map(|&j| self.serve_buffers(local_vals, j))
            .collect();
        let received = comm.neighbor_all_to_all_v(&self.neighbors, sends);
        for (&owner, values) in self.neighbors.iter().zip(&received) {
            self.fill_from(out, owner, values);
        }
        self.val_pool.put_back(received);
    }

    /// Delta refresh over the full communicator: owners push `(index,
    /// value)` pairs only for serve entries whose local vertex is marked
    /// in `changed` (indexed by local vertex). `out` must already hold
    /// the values of a previous full refresh of this phase with every
    /// un-`changed` vertex at its current value — then the result is
    /// byte-identical to a full [`GhostLayer::refresh`]. Collective; all
    /// ranks must take the delta path in the same round.
    pub fn refresh_delta(
        &self,
        comm: &Comm,
        local_vals: &[VertexId],
        changed: &[bool],
        out: &mut [VertexId],
    ) {
        debug_assert_eq!(
            out.len(),
            self.num_ghosts,
            "delta refresh needs a full refresh first"
        );
        let sends: Vec<Vec<DeltaEntry>> = (0..comm.size())
            .map(|j| self.delta_buffers(local_vals, changed, j))
            .collect();
        let received = comm.all_to_all_v(sends);
        for (owner, pairs) in received.iter().enumerate() {
            self.fill_from_delta(out, owner, pairs);
        }
        self.delta_pool.put_back(received);
    }

    /// [`GhostLayer::refresh_delta`] over the neighborhood topology.
    pub fn refresh_delta_neighborhood(
        &self,
        comm: &Comm,
        local_vals: &[VertexId],
        changed: &[bool],
        out: &mut [VertexId],
    ) {
        debug_assert_eq!(
            out.len(),
            self.num_ghosts,
            "delta refresh needs a full refresh first"
        );
        let sends: Vec<Vec<DeltaEntry>> = self
            .neighbors
            .iter()
            .map(|&j| self.delta_buffers(local_vals, changed, j))
            .collect();
        let received = comm.neighbor_all_to_all_v(&self.neighbors, sends);
        for (&owner, pairs) in self.neighbors.iter().zip(&received) {
            self.fill_from_delta(out, owner, pairs);
        }
        self.delta_pool.put_back(received);
    }

    /// Prune refresh traffic for permanently frozen vertices: this rank
    /// announces `frozen_locals` (local indices of owned vertices that
    /// became permanently inactive) to every peer ghosting them, and
    /// symmetrically drops the ghosts other owners announce. Both sides
    /// mask in the same round, so subsequent refreshes stay aligned.
    /// Returns the number of ghost slots this rank stopped refreshing.
    /// Collective.
    pub fn prune(&mut self, comm: &Comm, lg: &LocalGraph, frozen_locals: &[usize]) -> usize {
        let frozen: louvain_graph::hash::FastSet<usize> = frozen_locals.iter().copied().collect();
        // Mask our serve entries and build the announcements.
        let mut announce: Vec<Vec<VertexId>> = vec![Vec::new(); comm.size()];
        for ((serve, mask), out) in self
            .serve
            .iter()
            .zip(self.serve_mask.iter_mut())
            .zip(announce.iter_mut())
        {
            for (i, &l) in serve.iter().enumerate() {
                if mask[i] && frozen.contains(&l) {
                    mask[i] = false;
                    out.push(lg.to_global(l));
                }
            }
        }
        let received = comm.all_to_all_v(announce);
        // Drop the announced ghosts from our request masks.
        let mut dropped = 0;
        for (owner, gids) in received.iter().enumerate() {
            for gid in gids {
                let i = self.requests[owner]
                    .binary_search(gid)
                    .expect("announced ghost not in request list");
                if self.request_mask[owner][i] {
                    self.request_mask[owner][i] = false;
                    dropped += 1;
                }
            }
        }
        self.pruned += dropped;
        dropped
    }

    /// Approximate resident bytes of the ghost bookkeeping (request and
    /// serve tables, masks, dense adjacency) — the `mem.ghost_bytes`
    /// gauge.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        fn nested<T>(v: &[Vec<T>]) -> u64 {
            v.iter()
                .map(|b| (b.capacity() * size_of::<T>()) as u64)
                .sum()
        }
        nested(&self.requests)
            + nested(&self.request_mask)
            + nested(&self.serve)
            + nested(&self.serve_mask)
            + (self.dense.capacity() * size_of::<u32>()) as u64
            + (self.neighbors.capacity() * size_of::<usize>()) as u64
            + (self.base.capacity() * size_of::<usize>()) as u64
    }

    /// Bytes parked in the recycled wire-buffer pools between refresh
    /// rounds — the `mem.wire_bytes` gauge.
    pub fn wire_bytes(&self) -> u64 {
        self.val_pool.pooled_bytes() + self.delta_pool.pooled_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_comm::run;
    use louvain_graph::{Csr, EdgeList, VertexPartition};

    fn ring(n: u64) -> Csr {
        let mut el = EdgeList::new(n);
        for v in 0..n {
            el.push(v, (v + 1) % n, 1.0);
        }
        Csr::from_edge_list(el)
    }

    fn scatter_for(p: usize, g: &Csr) -> Vec<LocalGraph> {
        let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, p);
        LocalGraph::scatter(g, &part)
    }

    #[test]
    fn ring_ghosts_are_the_boundary_vertices() {
        let g = ring(12);
        let parts = scatter_for(3, &g);
        let out = run(3, |c| {
            let lg = parts[c.rank()].clone();
            let layer = GhostLayer::build(c, &lg);
            (layer.num_ghosts(), layer.neighbor_ranks().to_vec())
        });
        // Each rank's range is contiguous on a ring: exactly 2 ghosts
        // (one on each side), and both other ranks are topology neighbors.
        for (rank, (ghosts, neighbors)) in out.into_iter().enumerate() {
            assert_eq!(ghosts, 2);
            let expected: Vec<usize> = (0..3).filter(|&j| j != rank).collect();
            assert_eq!(neighbors, expected);
        }
    }

    #[test]
    fn dense_adjacency_maps_back_to_global_ids() {
        let g = louvain_graph::gen::rmat(louvain_graph::gen::RmatParams::social(8, 6, 4)).graph;
        let parts = scatter_for(3, &g);
        let out = run(3, |c| {
            let lg = parts[c.rank()].clone();
            let layer = GhostLayer::build(c, &lg);
            let nlocal = lg.num_local();
            let ghost_ids: Vec<VertexId> = layer.ghost_ids().collect();
            let adj = layer.adjacency(&lg);
            let mut ok = ghost_ids.windows(2).all(|w| w[0] < w[1]);
            for l in 0..nlocal {
                for ((d, w), (u, wu)) in adj.neighbors(l).zip(lg.neighbors(l)) {
                    let back = if d < nlocal {
                        lg.to_global(d)
                    } else {
                        ghost_ids[d - nlocal]
                    };
                    ok &= back == u && w == wu;
                }
                ok &= adj.row(l).0.len() == lg.neighbors(l).count();
            }
            ok
        });
        assert!(out.into_iter().all(|b| b));
    }

    #[test]
    fn refresh_delivers_owner_values() {
        let g = ring(12);
        let parts = scatter_for(3, &g);
        let out = run(3, |c| {
            let lg = parts[c.rank()].clone();
            let layer = GhostLayer::build(c, &lg);
            // Every rank publishes value = 1000 + global id for each of
            // its local vertices.
            let local_vals: Vec<u64> = (0..lg.num_local())
                .map(|l| 1000 + lg.to_global(l))
                .collect();
            let mut ghost_vals = Vec::new();
            layer.refresh(c, &local_vals, &mut ghost_vals);
            // Check all ghosts carry their owner's value.
            layer.ghost_ids().count() == ghost_vals.len()
                && layer
                    .ghost_ids()
                    .zip(&ghost_vals)
                    .all(|(g, &v)| v == 1000 + g)
        });
        assert!(out.into_iter().all(|b| b));
    }

    #[test]
    fn neighborhood_refresh_matches_full_refresh() {
        let g = ring(16);
        let parts = scatter_for(4, &g);
        let out = run(4, |c| {
            let lg = parts[c.rank()].clone();
            let layer = GhostLayer::build(c, &lg);
            let local_vals: Vec<u64> = (0..lg.num_local()).map(|l| 7 * lg.to_global(l)).collect();
            let mut full = Vec::new();
            layer.refresh(c, &local_vals, &mut full);
            let mut nbr = Vec::new();
            layer.refresh_neighborhood(c, &local_vals, &mut nbr);
            full == nbr
        });
        assert!(out.into_iter().all(|b| b));
    }

    #[test]
    fn delta_refresh_matches_full_refresh() {
        let g = ring(16);
        let parts = scatter_for(4, &g);
        let out = run(4, |c| {
            let lg = parts[c.rank()].clone();
            let layer = GhostLayer::build(c, &lg);
            // Round 1: full refresh establishes the baseline.
            let vals1: Vec<u64> = (0..lg.num_local()).map(|l| 10 + lg.to_global(l)).collect();
            let mut baseline = Vec::new();
            layer.refresh(c, &vals1, &mut baseline);
            // Round 2: only even-id vertices change.
            let vals2: Vec<u64> = (0..lg.num_local())
                .map(|l| {
                    let gid = lg.to_global(l);
                    if gid.is_multiple_of(2) {
                        900 + gid
                    } else {
                        10 + gid
                    }
                })
                .collect();
            let changed: Vec<bool> = (0..lg.num_local())
                .map(|l| lg.to_global(l).is_multiple_of(2))
                .collect();
            let mut full = baseline.clone();
            layer.refresh(c, &vals2, &mut full);
            let mut delta = baseline.clone();
            layer.refresh_delta(c, &vals2, &changed, &mut delta);
            // Round 3 (no changes at all): the delta exchange is empty and
            // must leave the array untouched.
            let no_change = vec![false; lg.num_local()];
            let mut delta3 = delta.clone();
            layer.refresh_delta(c, &vals2, &no_change, &mut delta3);
            (full == delta, delta3 == delta)
        });
        assert!(out.into_iter().all(|(a, b)| a && b));
    }

    #[test]
    fn delta_neighborhood_matches_delta_full() {
        let g = ring(12);
        let parts = scatter_for(3, &g);
        let out = run(3, |c| {
            let lg = parts[c.rank()].clone();
            let layer = GhostLayer::build(c, &lg);
            let vals1: Vec<u64> = (0..lg.num_local()).map(|l| lg.to_global(l)).collect();
            let mut baseline = Vec::new();
            layer.refresh(c, &vals1, &mut baseline);
            let vals2: Vec<u64> = (0..lg.num_local())
                .map(|l| 3 * lg.to_global(l) + 1)
                .collect();
            let changed = vec![true; lg.num_local()];
            let mut via_full = baseline.clone();
            layer.refresh_delta(c, &vals2, &changed, &mut via_full);
            let mut via_nbr = baseline.clone();
            layer.refresh_delta_neighborhood(c, &vals2, &changed, &mut via_nbr);
            via_full == via_nbr
        });
        assert!(out.into_iter().all(|b| b));
    }

    #[test]
    fn delta_refresh_respects_pruned_slots() {
        let g = ring(8);
        let parts = scatter_for(2, &g);
        let out = run(2, |c| {
            let lg = parts[c.rank()].clone();
            let mut layer = GhostLayer::build(c, &lg);
            let mut ghost_vals = Vec::new();
            let vals1: Vec<u64> = (0..lg.num_local()).map(|l| 100 + lg.to_global(l)).collect();
            layer.refresh(c, &vals1, &mut ghost_vals);
            // Rank 0 freezes global vertex 0 (ghosted by rank 1).
            let frozen: Vec<usize> = if c.rank() == 0 {
                vec![lg.to_local(0)]
            } else {
                vec![]
            };
            layer.prune(c, &lg, &frozen);
            // Every vertex "changes" — but the pruned serve entry must not
            // be sent, so the frozen ghost keeps its round-1 value.
            let vals2: Vec<u64> = (0..lg.num_local()).map(|l| 200 + lg.to_global(l)).collect();
            let changed = vec![true; lg.num_local()];
            layer.refresh_delta(c, &vals2, &changed, &mut ghost_vals);
            ghost_vals
        });
        // Rank 1 ghosts vertices 0 and 3: 0 is frozen at 100, 3 moves to 203.
        assert!(out[1].contains(&100), "{:?}", out[1]);
        assert!(out[1].contains(&203), "{:?}", out[1]);
    }

    #[test]
    fn single_rank_has_no_ghosts() {
        let g = ring(8);
        let parts = scatter_for(1, &g);
        let out = run(1, |c| {
            let layer = GhostLayer::build(c, &parts[0]);
            let mut vals = vec![7u64; 3];
            layer.refresh(c, &[0u64; 8], &mut vals);
            (layer.num_ghosts(), vals.len(), layer.neighbor_ranks().len())
        });
        assert_eq!(out[0], (0, 0, 0));
    }

    #[test]
    fn repeated_refreshes_track_changing_values() {
        let g = ring(8);
        let parts = scatter_for(2, &g);
        let out = run(2, |c| {
            let lg = parts[c.rank()].clone();
            let layer = GhostLayer::build(c, &lg);
            let mut results = Vec::new();
            let mut ghost_vals = Vec::new();
            for round in 0..3u64 {
                let local_vals: Vec<u64> = (0..lg.num_local())
                    .map(|l| round * 100 + lg.to_global(l))
                    .collect();
                layer.refresh(c, &local_vals, &mut ghost_vals);
                results.push(ghost_vals.clone());
            }
            results
        });
        // Rank 0 on an 8-ring owns 0..4, ghosts are 7 and 4.
        let r0 = &out[0];
        for round in 0..3u64 {
            assert!(r0[round as usize].contains(&(round * 100 + 7)));
            assert!(r0[round as usize].contains(&(round * 100 + 4)));
        }
    }

    #[test]
    fn pruned_ghosts_keep_their_frozen_value() {
        let g = ring(8);
        let parts = scatter_for(2, &g);
        let out = run(2, |c| {
            let lg = parts[c.rank()].clone();
            let mut layer = GhostLayer::build(c, &lg);
            let mut ghost_vals = Vec::new();
            // Round 1: everyone publishes 100 + gid.
            let vals1: Vec<u64> = (0..lg.num_local()).map(|l| 100 + lg.to_global(l)).collect();
            layer.refresh(c, &vals1, &mut ghost_vals);
            let before = ghost_vals.clone();
            // Rank 0 freezes its local vertex with global id 0 — which is
            // ghosted by rank 1 (ring edge 7–0).
            let frozen: Vec<usize> = if c.rank() == 0 {
                vec![lg.to_local(0)]
            } else {
                vec![]
            };
            let dropped = layer.prune(c, &lg, &frozen);
            // Round 2: values change to 200 + gid; the pruned ghost must
            // keep its round-1 value.
            let vals2: Vec<u64> = (0..lg.num_local()).map(|l| 200 + lg.to_global(l)).collect();
            layer.refresh(c, &vals2, &mut ghost_vals);
            (before, ghost_vals, dropped, layer.num_pruned())
        });
        // Rank 1 ghosts vertices 0 and 3. After pruning vertex 0 its value
        // stays at 100 while vertex 3 advances to 203.
        let (before1, after1, dropped1, pruned1) = &out[1];
        assert_eq!(*dropped1, 1);
        assert_eq!(*pruned1, 1);
        assert!(before1.contains(&100));
        assert!(after1.contains(&100), "frozen ghost value lost: {after1:?}");
        assert!(after1.contains(&203));
        // Rank 0 pruned nothing on its side.
        assert_eq!(out[0].2, 0);
    }

    #[test]
    fn prune_then_neighborhood_refresh_stays_consistent() {
        let g = ring(12);
        let parts = scatter_for(3, &g);
        let out = run(3, |c| {
            let lg = parts[c.rank()].clone();
            let mut layer = GhostLayer::build(c, &lg);
            let mut ghost_vals = Vec::new();
            let vals: Vec<u64> = (0..lg.num_local()).map(|l| lg.to_global(l)).collect();
            layer.refresh_neighborhood(c, &vals, &mut ghost_vals);
            // Everyone freezes their first local vertex.
            let frozen = vec![0usize];
            layer.prune(c, &lg, &frozen);
            let vals2: Vec<u64> = (0..lg.num_local()).map(|l| 500 + lg.to_global(l)).collect();
            layer.refresh_neighborhood(c, &vals2, &mut ghost_vals);
            ghost_vals
        });
        // Rank 0 ghosts 11 (from rank 2) and 4 (from rank 1). Vertex 4 is
        // rank 1's first local vertex → frozen at its old value 4.
        assert!(out[0].contains(&4), "{:?}", out[0]);
        assert!(out[0].contains(&(500 + 11)));
    }
}
