//! Distributed distance-1 coloring (Jones–Plassmann).
//!
//! The paper's future-work item: "the use of distance-1 coloring to
//! ensure that the set of vertices that are processed in parallel for
//! community assignments are mutually non-adjacent and hence independent.
//! This may lead to faster convergence."
//!
//! Every vertex gets a random priority derived from its global id (so all
//! ranks agree without communication), and ties are broken by id. In
//! round-based Jones–Plassmann a vertex is colored once all of its
//! higher-(priority, id) neighbors are, with the smallest color none of
//! them uses — so the result is exactly the *greedy coloring in
//! descending (priority, id) order*, whatever the rank count or the
//! schedule (the Grappolo discipline of Lu & Halappanavar). That makes a
//! linear-work computation possible:
//!
//! * `wait[l]` counts the higher-key neighbor arcs of local vertex `l`;
//! * every dense id (owned vertex or ghost slot, see
//!   [`DenseAdj`](crate::ghost::DenseAdj)) lists the local vertices that
//!   wait on it;
//! * within a round, a local stack cascades colorings to exhaustion:
//!   coloring a vertex releases its waiters, and a waiter whose count
//!   reaches zero is colored in turn;
//! * between rounds one ghost refresh publishes the new colors, and each
//!   newly colored ghost releases its local waiters.
//!
//! On one rank this is a single round of O(m) work; across ranks the
//! round count is the longest chain of cross-rank dependencies, not the
//! longest priority chain.

use louvain_comm::{Comm, CommStep, ReduceOp};
use louvain_graph::hash::mix64;
use louvain_graph::{LocalGraph, VertexId};

use crate::ghost::GhostLayer;

/// Sentinel for "not colored yet" on the wire.
const UNCOLORED: u64 = u64::MAX;

/// Priority of a vertex — any rank can compute any vertex's priority.
#[inline]
fn priority(seed: u64, v: VertexId) -> u64 {
    mix64(seed ^ mix64(v))
}

/// Color the distributed graph; returns `(color_of_local, num_colors)`.
/// Collective. The coloring is proper (no two adjacent vertices, across
/// ranks included, share a color) and equals the sequential greedy
/// coloring in descending (priority, id) order. Each call adds its round
/// count to the `coloring.rounds` counter.
pub fn distributed_coloring(
    comm: &Comm,
    lg: &LocalGraph,
    ghosts: &GhostLayer,
    seed: u64,
) -> (Vec<u32>, u32) {
    let nlocal = lg.num_local();
    let adj = ghosts.adjacency(lg);
    // Keys compared per arc are computed once per dense id.
    let key: Vec<(u64, VertexId)> = (0..nlocal)
        .map(|l| lg.to_global(l))
        .chain(ghosts.ghost_ids())
        .map(|v| (priority(seed, v), v))
        .collect();

    // Waiter lists (CSR over dense ids) and wait counters.
    let mut wait = vec![0u32; nlocal];
    let mut offsets = vec![0usize; key.len() + 1];
    for (l, w) in wait.iter_mut().enumerate() {
        for (d, _) in adj.neighbors(l) {
            if d != l && key[d] > key[l] {
                *w += 1;
                offsets[d + 1] += 1;
            }
        }
    }
    for i in 0..key.len() {
        offsets[i + 1] += offsets[i];
    }
    let mut fill = offsets.clone();
    let mut waiters = vec![0u32; offsets[key.len()]];
    for l in 0..nlocal {
        for (d, _) in adj.neighbors(l) {
            if d != l && key[d] > key[l] {
                waiters[fill[d]] = l as u32;
                fill[d] += 1;
            }
        }
    }
    drop(fill);

    let mut color: Vec<u64> = vec![UNCOLORED; nlocal];
    let mut ghost_color: Vec<VertexId> = Vec::new();
    let mut ghost_seen = vec![false; ghosts.num_ghosts()];
    let mut ready: Vec<usize> = (0..nlocal).filter(|&l| wait[l] == 0).collect();
    // Release the waiters of dense id `d`, queueing those now ready.
    let release = |d: usize, wait: &mut [u32], ready: &mut Vec<usize>| {
        for &l in &waiters[offsets[d]..offsets[d + 1]] {
            let w = &mut wait[l as usize];
            *w -= 1;
            if *w == 0 {
                ready.push(l as usize);
            }
        }
    };
    // `forbidden[c] == stamp` marks color c as taken by a higher-key
    // neighbor of the vertex being colored.
    let mut forbidden: Vec<usize> = Vec::new();
    let mut uncolored = nlocal as u64;
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        comm.with_step(CommStep::Other, || {
            ghosts.refresh(comm, &color, &mut ghost_color)
        });
        for (g, &c) in ghost_color.iter().enumerate() {
            if c != UNCOLORED && !ghost_seen[g] {
                ghost_seen[g] = true;
                release(nlocal + g, &mut wait, &mut ready);
            }
        }
        while let Some(l) = ready.pop() {
            let stamp = l + 1;
            for (d, _) in adj.neighbors(l) {
                if d == l || key[d] < key[l] {
                    continue;
                }
                let c = if d < nlocal {
                    color[d]
                } else {
                    ghost_color[d - nlocal]
                };
                debug_assert_ne!(c, UNCOLORED, "higher-key neighbor still uncolored");
                let c = c as usize;
                if c >= forbidden.len() {
                    forbidden.resize(c + 1, 0);
                }
                forbidden[c] = stamp;
            }
            let c = forbidden
                .iter()
                .position(|&f| f != stamp)
                .unwrap_or(forbidden.len());
            color[l] = c as u64;
            uncolored -= 1;
            release(l, &mut wait, &mut ready);
        }
        let remaining = comm.with_step(CommStep::Other, || {
            comm.all_reduce(uncolored, ReduceOp::Sum)
        });
        if remaining == 0 {
            break;
        }
    }
    louvain_obs::counter_add("coloring.rounds", rounds);

    let local_max = color.iter().copied().max().unwrap_or(0);
    let global_max = comm.with_step(CommStep::Other, || {
        comm.all_reduce(if nlocal == 0 { 0 } else { local_max }, ReduceOp::Max)
    });
    (
        color.into_iter().map(|c| c as u32).collect(),
        global_max as u32 + 1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use louvain_comm::run;
    use louvain_graph::gen::{erdos_renyi, ErdosRenyiParams};
    use louvain_graph::{Csr, VertexPartition};

    fn color_distributed(g: &Csr, p: usize) -> (Vec<u32>, u32) {
        let part = VertexPartition::balanced_vertices(g.num_vertices() as u64, p);
        let parts = LocalGraph::scatter(g, &part);
        let outs = run(p, |c| {
            let lg = parts[c.rank()].clone();
            let ghosts = GhostLayer::build(c, &lg);
            distributed_coloring(c, &lg, &ghosts, 42)
        });
        let ncolors = outs[0].1;
        let mut colors = Vec::new();
        for (cs, nc) in outs {
            assert_eq!(nc, ncolors, "ranks disagree on color count");
            colors.extend(cs);
        }
        (colors, ncolors)
    }

    #[test]
    fn coloring_is_proper_across_ranks() {
        let g = erdos_renyi(ErdosRenyiParams {
            n: 400,
            avg_degree: 8.0,
            seed: 3,
        })
        .graph;
        for p in [1, 2, 4] {
            let (colors, ncolors) = color_distributed(&g, p);
            assert_eq!(colors.len(), g.num_vertices());
            for v in 0..g.num_vertices() as u64 {
                for (u, _) in g.neighbors(v) {
                    if u != v {
                        assert_ne!(
                            colors[v as usize], colors[u as usize],
                            "edge {v}-{u} (p={p})"
                        );
                    }
                }
            }
            let max_deg = (0..g.num_vertices())
                .map(|v| g.degree(v as u64))
                .max()
                .unwrap();
            assert!(ncolors as usize <= max_deg + 1);
        }
    }

    #[test]
    fn coloring_is_rank_count_invariant() {
        // Priorities depend only on (seed, global id), so the JP coloring
        // is identical no matter how the graph is partitioned.
        let g = erdos_renyi(ErdosRenyiParams {
            n: 300,
            avg_degree: 6.0,
            seed: 5,
        })
        .graph;
        let (c1, n1) = color_distributed(&g, 1);
        let (c3, n3) = color_distributed(&g, 3);
        assert_eq!(c1, c3);
        assert_eq!(n1, n3);
    }

    /// The sequential reference: color vertices one by one in descending
    /// (priority, id) order, each with the smallest color unused by its
    /// already colored (i.e. higher-key) neighbors.
    fn greedy_in_priority_order(g: &Csr, seed: u64) -> (Vec<u32>, u32) {
        let n = g.num_vertices();
        let mut order: Vec<u64> = (0..n as u64).collect();
        order.sort_unstable_by_key(|&v| std::cmp::Reverse((priority(seed, v), v)));
        let mut color: Vec<Option<u32>> = vec![None; n];
        for v in order {
            let mut used: Vec<u32> = g
                .neighbors(v)
                .filter(|&(u, _)| u != v)
                .filter_map(|(u, _)| color[u as usize])
                .collect();
            used.sort_unstable();
            used.dedup();
            let c = used
                .iter()
                .enumerate()
                .find(|&(i, &c)| c != i as u32)
                .map_or(used.len() as u32, |(i, _)| i as u32);
            color[v as usize] = Some(c);
        }
        let color: Vec<u32> = color.into_iter().map(|c| c.unwrap()).collect();
        let nc = color.iter().copied().max().map_or(1, |m| m + 1);
        (color, nc)
    }

    #[test]
    fn coloring_equals_sequential_greedy_in_priority_order() {
        let graphs = [
            erdos_renyi(ErdosRenyiParams {
                n: 400,
                avg_degree: 8.0,
                seed: 3,
            })
            .graph,
            // Skewed degrees: hubs with long higher-priority chains.
            louvain_graph::gen::rmat(louvain_graph::gen::RmatParams::social(12, 8, 17)).graph,
        ];
        for (gi, g) in graphs.iter().enumerate() {
            let expected = greedy_in_priority_order(g, 42);
            for p in [1, 2, 4] {
                assert_eq!(color_distributed(g, p), expected, "graph {gi}, p={p}");
            }
        }
    }

    #[test]
    fn edgeless_graph_gets_one_color() {
        let g = Csr::from_edge_list(louvain_graph::EdgeList::new(10));
        let (colors, ncolors) = color_distributed(&g, 2);
        assert_eq!(ncolors, 1);
        assert!(colors.iter().all(|&c| c == 0));
    }
}
