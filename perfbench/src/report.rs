//! The metric catalogue, failure accounting, and the result printer.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off. Each
/// workload defines them for its own unit of work; README.md has the
/// table.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("modularity", "Q"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer a
/// workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.read_s", "s"),
    ("graph.csr_build_s", "s"),
    ("store.load_s", "s"),
    ("store.bytes_read", "bytes"),
    ("core.run_s", "s"),
    ("core.phase_s", "s"),
    ("core.iteration_s", "s"),
    ("core.sweep_s", "s"),
    ("core.sweep_ns_per_arc", "ns/arc"),
    ("core.arcs_scanned", "count"),
    ("core.iterations", "count"),
    ("core.phases", "count"),
    ("core.unattributed_s", "s"),
    ("core.rebuild_s", "s"),
    ("core.ghost_build_s", "s"),
    ("core.modeled_over_measured", "ratio"),
    ("comm.ghost_refresh_s", "s"),
    ("comm.community_pull_s", "s"),
    ("comm.delta_push_s", "s"),
    ("comm.reduction_s", "s"),
    ("comm.wait_s", "s"),
    ("comm.p2p_bytes", "bytes"),
    ("comm.p2p_messages", "count"),
    ("resil.checkpoint_write_s", "s"),
    ("resil.checkpoint_bytes", "bytes"),
    ("serve.fingerprint_s", "s"),
    ("serve.hit_p50_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("obs.trace_overhead", "ratio"),
    ("host.cores", "count"),
    ("host.probe_ms", "ms"),
];

#[derive(Debug, Clone, Copy)]
struct Sample {
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// What one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, Sample>,
    /// Workload-specific end-to-end figures (quality against ground
    /// truth, the serving tail and throughput): printed with their
    /// units and counts, outside the gated JSON.
    extras: Vec<(String, Sample)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> (&'static str, &'static str) {
    *table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
}

impl Report {
    /// An end-to-end metric from `samples` measurements.
    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        let (name, unit) = unit_of(END_TO_END, name);
        self.metrics.insert(
            name,
            Sample {
                value,
                unit,
                samples,
            },
        );
    }

    /// A per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        let (name, unit) = unit_of(PER_LAYER, name);
        self.metrics.insert(
            name,
            Sample {
                value,
                unit,
                samples: 1,
            },
        );
    }

    /// A printed-only figure.
    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.extras.push((
            name.into(),
            Sample {
                value,
                unit,
                samples: n,
            },
        ));
    }

    /// One attempted operation; it failed if any of `problems` is set.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .push(format!("{what}: {}", problems.join("; ")));
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Print the human-readable lines, then the result as the last line
    /// of standard output. `traced` selects which catalogue the JSON
    /// carries; per-layer metrics a workload did not record read 0.
    pub fn print(&self, header: &str, traced: bool) -> Result<(), String> {
        println!("{header}");
        for n in &self.notes {
            println!("  note  {n}");
        }
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut json = Vec::new();
        for &(name, unit) in table {
            let s = match self.metrics.get(name) {
                Some(s) => *s,
                None if traced => Sample {
                    value: 0.0,
                    unit,
                    samples: 0,
                },
                None => return Err(format!("end-to-end metric `{name}` was not measured")),
            };
            if !s.value.is_finite() {
                return Err(format!("metric `{name}` is not a finite number"));
            }
            println!("  {name:<28} {:>16.6} {unit:<7} n={}", s.value, s.samples);
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                s.value
            ));
        }
        for (name, s) in &self.extras {
            println!(
                "  {name:<28} {:>16.6} {:<7} n={}",
                s.value, s.unit, s.samples
            );
        }
        for f in &self.failures {
            println!("  FAILED {f}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            json.join(", ")
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distributed_louvain::obs::Json;

    fn names_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_units(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(names_units(&doc, "per_layer"), own(PER_LAYER));
    }
}
