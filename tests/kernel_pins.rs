//! Bit-identity pins for the move kernel: modularity bits, iteration
//! count and an assignment hash of full runs, captured before the decide
//! kernel moved to dense community slots and the coloring to wait
//! counters. Any change to a schedule's trajectory (scan order, delta
//! bookkeeping, coloring, vertex following) shows up here.

use distributed_louvain::dist::{run_distributed, DistConfig, SweepMode, Variant};
use distributed_louvain::graph::{gen, Csr, VertexId};

/// (graph, ranks, schedule, modularity bits, iterations, assignment hash)
type Pin = (&'static str, usize, &'static str, u64, usize, u64);

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("rmat", 1, "sequential", 0x3fc337573d7e741a, 14, 0xc6d4f99414ca73a6),
    ("rmat", 1, "colored-t2", 0x3fc37f8201326cb5, 15, 0xccac053c36da361a),
    ("rmat", 1, "relaxed-t1", 0x3fc337573d7e741a, 14, 0xc6d4f99414ca73a6),
    ("rmat", 1, "et-prune-colorsweeps", 0x3fc2fc4dada4ffac, 17, 0x635f6f5a71acb1af),
    ("rmat", 1, "colored-t2-vf-delta-nbr", 0x3fc2d1be0e5bcc34, 16, 0x89743439c5581998),
    ("rmat", 2, "sequential", 0x3fc2a3257b67e858, 16, 0xe939290c0f3cfabc),
    ("rmat", 2, "colored-t2", 0x3fc247919a99952d, 13, 0x64ad585d589673c0),
    ("rmat", 2, "relaxed-t1", 0x3fc2a3257b67e858, 16, 0xe939290c0f3cfabc),
    ("rmat", 2, "et-prune-colorsweeps", 0x3fc2e25610d09f20, 15, 0xa2d0a63604dc0779),
    ("rmat", 2, "colored-t2-vf-delta-nbr", 0x3fc2bf6dd40e3c7e, 16, 0x555c510f42d358df),
    ("lfr", 1, "sequential", 0x3fe1b890dbec5342, 13, 0xd6c1ed2c704e70c5),
    ("lfr", 1, "colored-t2", 0x3fe1a74426b2b9d8, 18, 0xe9241c08d8afd751),
    ("lfr", 1, "relaxed-t1", 0x3fe1b890dbec5342, 13, 0xd6c1ed2c704e70c5),
    ("lfr", 1, "et-prune-colorsweeps", 0x3fe13f103d5bb6a0, 19, 0x8439fbb602a4d911),
    ("lfr", 1, "colored-t2-vf-delta-nbr", 0x3fe1a74426b2b9d8, 18, 0xe9241c08d8afd751),
    ("lfr", 2, "sequential", 0x3fe1ba8f7c70e27c, 23, 0xc768911df9247568),
    ("lfr", 2, "colored-t2", 0x3fe1b1a6cc1aedc3, 27, 0x23db382054fdc7b8),
    ("lfr", 2, "relaxed-t1", 0x3fe1ba8f7c70e27c, 23, 0xc768911df9247568),
    ("lfr", 2, "et-prune-colorsweeps", 0x3fe1336265a7484f, 19, 0xc90e4029b2c3630f),
    ("lfr", 2, "colored-t2-vf-delta-nbr", 0x3fe1b1a6cc1aedc3, 27, 0x23db382054fdc7b8),
    ("ssca2", 1, "sequential", 0x3fef1fdb369c90b2, 10, 0x788d48e35b40484f),
    ("ssca2", 1, "colored-t2", 0x3fef14968f96d611, 10, 0xa6f90024b2818aae),
    ("ssca2", 1, "relaxed-t1", 0x3fef1fdb369c90b2, 10, 0x788d48e35b40484f),
    ("ssca2", 1, "et-prune-colorsweeps", 0x3fef1ed0f185ba65, 9, 0x9cc0ef0aed9ad7bf),
    ("ssca2", 1, "colored-t2-vf-delta-nbr", 0x3fef14968f96d611, 10, 0xa6f90024b2818aae),
    ("ssca2", 2, "sequential", 0x3fef1fdb369c90b2, 11, 0x788d48e35b40484f),
    ("ssca2", 2, "colored-t2", 0x3fef14968f96d611, 10, 0xa6f90024b2818aae),
    ("ssca2", 2, "relaxed-t1", 0x3fef1fdb369c90b2, 11, 0x788d48e35b40484f),
    ("ssca2", 2, "et-prune-colorsweeps", 0x3fef1e44bb990807, 9, 0xcf6a036d4a8ec25e),
    ("ssca2", 2, "colored-t2-vf-delta-nbr", 0x3fef14968f96d611, 10, 0xa6f90024b2818aae),
];

fn graph(name: &str) -> Csr {
    match name {
        "rmat" => gen::rmat(gen::RmatParams::social(10, 8, 5)).graph,
        "lfr" => {
            gen::lfr(gen::LfrParams {
                mu: 0.4,
                ..gen::LfrParams::small(1_500, 4)
            })
            .graph
        }
        "ssca2" => {
            gen::ssca2(gen::Ssca2Params {
                n: 800,
                max_clique_size: 14,
                inter_clique_prob: 0.6,
                seed: 9,
            })
            .graph
        }
        other => panic!("unknown graph {other}"),
    }
}

fn schedule(name: &str) -> DistConfig {
    match name {
        "sequential" => DistConfig::baseline(),
        "colored-t2" => DistConfig {
            sweep: SweepMode::Colored,
            threads_per_rank: 2,
            ..DistConfig::baseline()
        },
        "relaxed-t1" => DistConfig {
            sweep: SweepMode::Relaxed,
            threads_per_rank: 1,
            ..DistConfig::baseline()
        },
        // ET activity filter, ghost pruning and per-color sub-rounds.
        "et-prune-colorsweeps" => DistConfig {
            prune_inactive_ghosts: true,
            color_sweeps: true,
            ..DistConfig::with_variant(Variant::Et { alpha: 0.75 })
        },
        // Vertex following and both refresh refinements on the colored
        // schedule.
        "colored-t2-vf-delta-nbr" => DistConfig {
            sweep: SweepMode::Colored,
            threads_per_rank: 2,
            vertex_following: true,
            delta_ghost_refresh: true,
            neighborhood_collectives: true,
            ..DistConfig::baseline()
        },
        other => panic!("unknown schedule {other}"),
    }
}

/// FNV-1a over the little-endian bytes of the assignment.
fn assignment_hash(a: &[VertexId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in a.iter().flat_map(|x| x.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn kernel_trajectories_match_their_pins() {
    let mut failures = Vec::new();
    for name in ["rmat", "lfr", "ssca2"] {
        let g = graph(name);
        for &(_, p, sched, q_bits, iterations, hash) in PINS.iter().filter(|pin| pin.0 == name) {
            let out = run_distributed(&g, p, &schedule(sched));
            let got = (
                out.modularity.to_bits(),
                out.total_iterations,
                assignment_hash(&out.assignment),
            );
            if got != (q_bits, iterations, hash) {
                failures.push(format!(
                    "{name} p={p} {sched}: got (0x{:016x}, {}, 0x{:016x}), pinned (0x{q_bits:016x}, {iterations}, 0x{hash:016x})",
                    got.0, got.1, got.2
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert_eq!(
        PINS.len(),
        3 * 2 * 5,
        "every graph × ranks × schedule is pinned"
    );
}
