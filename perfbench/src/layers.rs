//! Per-layer numbers from a traced run: the span rollup, the iteration
//! span split into its children, and the counters `DistOutcome` returns.

use std::collections::BTreeMap;

use distributed_louvain::dist::DistOutcome;
use distributed_louvain::obs::{ArgValue, EventKind, TraceData, TraceEvent};

use crate::report::Report;

/// The direct children of an `iteration` span: the compute sweep and the
/// four communication steps of Algorithm 3. Whatever else the iteration
/// does (the step-2 and modularity arc rescans, and at t > 1 coloring
/// and vertex following) has no span yet and shows as unattributed.
const ITERATION_CHILDREN: [(&str, &str); 5] = [
    ("sweep", "core.sweep_s"),
    ("ghost_refresh", "comm.ghost_refresh_s"),
    ("community_pull", "comm.community_pull_s"),
    ("delta_push", "comm.delta_push_s"),
    ("reduction", "comm.reduction_s"),
];

/// Wall time of all `iteration` spans, split into children and self time
/// (nanoseconds summed over ranks).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct IterationSplit {
    pub iteration_ns: u64,
    /// Clipped child time per metric name of [`ITERATION_CHILDREN`].
    pub children_ns: BTreeMap<&'static str, u64>,
    /// Iteration time no child covers.
    pub unattributed_ns: u64,
}

/// The part of `parent` that no interval in `children` covers. Children
/// are clipped to the parent and their union is taken, so overlapping
/// or leaking children can never drive the result below zero.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

fn is_child(ev: &TraceEvent, name: &str) -> bool {
    ev.name == name && (name == "sweep" || ev.cat == "comm")
}

fn window(ev: &TraceEvent) -> Option<(u64, u64)> {
    match ev.kind {
        EventKind::Complete { dur_ns } => Some((ev.ts_ns, ev.ts_ns + dur_ns)),
        EventKind::Instant => None,
    }
}

/// Split every rank's `iteration` spans into their children and the
/// remainder.
pub fn iteration_split(trace: &TraceData) -> IterationSplit {
    let mut split = IterationSplit::default();
    for rt in &trace.ranks {
        for it in rt.events.iter().filter(|e| e.name == "iteration") {
            let Some((start, end)) = window(it) else {
                continue;
            };
            let mut spans = Vec::new();
            for ev in &rt.events {
                let Some((s, e)) = window(ev) else { continue };
                if ev.attempt != it.attempt || s < start || s >= end {
                    continue;
                }
                if let Some((_, metric)) = ITERATION_CHILDREN
                    .iter()
                    .find(|(name, _)| is_child(ev, name))
                {
                    *split.children_ns.entry(metric).or_default() += e.min(end) - s;
                    spans.push((s, e));
                }
            }
            split.iteration_ns += end - start;
            split.unattributed_ns += self_time((start, end), &spans);
        }
    }
    split
}

fn span_bytes(trace: &TraceData, name: &str) -> u64 {
    trace
        .ranks
        .iter()
        .flat_map(|r| &r.events)
        .filter(|e| e.name == name)
        .flat_map(|e| &e.args)
        .filter_map(|(k, v)| match (k, v) {
            (&"bytes", ArgValue::U64(b)) => Some(*b),
            _ => None,
        })
        .sum()
}

/// Record the `core`, `comm` and `resil` layer metrics of one or more
/// traced runs into `r`, summed over the runs (rank-seconds for times).
pub fn record_traced(r: &mut Report, runs: &[&DistOutcome]) -> Result<(), String> {
    let mut split = IterationSplit::default();
    let (mut sweep_wall, mut sweep_modeled) = (0.0, 0.0);
    let (mut phase, mut rebuild, mut ghost_build, mut ckpt) = (0.0, 0.0, 0.0, 0.0);
    let (mut ckpt_bytes, mut arcs, mut iterations, mut phases) = (0u64, 0u64, 0u64, 0u64);
    let (mut wait_ns, mut p2p_bytes, mut p2p_msgs) = (0u64, 0u64, 0u64);
    for out in runs {
        let trace = out.trace.as_ref().ok_or("traced run returned no trace")?;
        if trace.total_dropped() > 0 {
            return Err(format!(
                "trace ring overflowed ({} events dropped)",
                trace.total_dropped()
            ));
        }
        let s = iteration_split(trace);
        split.iteration_ns += s.iteration_ns;
        split.unattributed_ns += s.unattributed_ns;
        for (k, v) in s.children_ns {
            *split.children_ns.entry(k).or_default() += v;
        }
        for roll in trace.span_rollup() {
            match roll.name.as_str() {
                "sweep" => {
                    sweep_wall += roll.wall_seconds;
                    sweep_modeled += roll.modeled_seconds;
                }
                "phase" => phase += roll.wall_seconds,
                "rebuild" => rebuild += roll.wall_seconds,
                "ghost_build" => ghost_build += roll.wall_seconds,
                "checkpoint_write" => ckpt += roll.wall_seconds,
                _ => {}
            }
        }
        ckpt_bytes += span_bytes(trace, "checkpoint_write");
        arcs += out
            .per_rank_stats
            .iter()
            .flatten()
            .flat_map(|p| &p.iteration_traces)
            .map(|t| t.local_edges)
            .sum::<u64>();
        iterations += out.total_iterations as u64;
        phases += out.phases as u64;
        wait_ns += out.traffic.wait_nanos_total();
        p2p_bytes += out.traffic.p2p_bytes;
        p2p_msgs += out.traffic.p2p_messages;
    }
    let secs = |ns: u64| ns as f64 * 1e-9;
    r.layer("core.phase_s", phase);
    r.layer("core.iteration_s", secs(split.iteration_ns));
    for (_, metric) in ITERATION_CHILDREN {
        let ns = split.children_ns.get(metric).copied().unwrap_or(0);
        r.layer(metric, secs(ns));
    }
    r.layer("core.unattributed_s", secs(split.unattributed_ns));
    let sweep_ns = split.children_ns.get("core.sweep_s").copied().unwrap_or(0);
    r.layer(
        "core.sweep_ns_per_arc",
        if arcs == 0 {
            0.0
        } else {
            sweep_ns as f64 / arcs as f64
        },
    );
    r.layer("core.arcs_scanned", arcs as f64);
    r.layer("core.iterations", iterations as f64);
    r.layer("core.phases", phases as f64);
    r.layer("core.rebuild_s", rebuild);
    r.layer("core.ghost_build_s", ghost_build);
    r.layer(
        "core.modeled_over_measured",
        if sweep_wall > 0.0 {
            sweep_modeled / sweep_wall
        } else {
            0.0
        },
    );
    r.layer("comm.wait_s", secs(wait_ns));
    r.layer("comm.p2p_bytes", p2p_bytes as f64);
    r.layer("comm.p2p_messages", p2p_msgs as f64);
    r.layer("resil.checkpoint_write_s", ckpt);
    r.layer("resil.checkpoint_bytes", ckpt_bytes as f64);

    let children: u64 = split.children_ns.values().sum();
    let gap = (children + split.unattributed_ns).abs_diff(split.iteration_ns);
    r.note(format!(
        "iteration split: {:.4} s = children {:.4} s + unattributed {:.4} s (overlap {:.6} s)",
        secs(split.iteration_ns),
        secs(children),
        secs(split.unattributed_ns),
        secs(gap),
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        assert_eq!(self_time((0, 100), &[]), 100);
    }

    #[test]
    fn self_time_never_goes_negative() {
        // Nested, overlapping, duplicated and leaking children.
        let cases: [&[(u64, u64)]; 5] = [
            &[(0, 100), (0, 100)],
            &[(10, 60), (20, 80), (30, 40)],
            &[(90, 200)],
            &[(0, 50), (50, 150), (150, 300)],
            &[(200, 300), (40, 40)],
        ];
        let expected = [0, 30, 90, 0, 100];
        for (children, want) in cases.iter().zip(expected) {
            let got = self_time((0, 100), children);
            assert!(got <= 100);
            assert_eq!(got, want, "children {children:?}");
        }
    }

    #[test]
    fn self_time_with_parent_not_at_zero() {
        assert_eq!(self_time((1000, 1100), &[(900, 1010), (1090, 1200)]), 80);
    }
}
