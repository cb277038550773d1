//! The metric catalogue and the run's printed result.
//!
//! `BENCHMARK.json` at the repository root lists the same names with
//! their regression bounds; a unit test keeps the two in step.

use crate::stats::{case_minimums, percentile, sorted};
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("code_cycles", "cycles"),
];

/// Per-layer metrics, printed by every traced run on every workload. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.transport.residual_us", "us"),
    ("serve.batch.wait_us", "us"),
    ("serve.batch.queue_wait_p50_us", "us"),
    ("serve.batch.execute_p50_us", "us"),
    ("serve.batch.occupancy", "compiles/flush"),
    ("serve.batch.rejected", "count"),
    ("serve.svd.cpu_us_per_req", "us"),
    ("serve.proto.decode_us", "us"),
    ("serve.proto.encode_us", "us"),
    ("machine.resolve_us", "us"),
    ("ir.parse_us", "us"),
    ("core.cache.key_us", "us"),
    ("core.cache.lookup_us", "us"),
    ("core.cache.render_us", "us"),
    ("core.cache.insert_us", "us"),
    ("core.cache.hit_ratio", "fraction"),
    ("analysis.depgraph_us", "us"),
    ("analysis.depgraph.calls_per_compile", "count"),
    ("core.partition_us", "us"),
    ("core.partition.kl_probes", "count"),
    ("core.partition.bin_packs", "count"),
    ("vectorize.transform_us", "us"),
    ("vectorize.full_us", "us"),
    ("vectorize.traditional_us", "us"),
    ("modsched.schedule_us", "us"),
    ("modsched.iis_tried", "count"),
    ("modsched.validate_us", "us"),
    ("modsched.regalloc_us", "us"),
    ("ir.verify_us", "us"),
    ("core.driver.residual_us", "us"),
    ("core.driver.fallbacks", "count"),
    ("modsched.emit_us", "us"),
    ("sim.sched_exec_ns_per_iter", "ns"),
    ("sim.reference_ns_per_iter", "ns"),
    ("sim.check_us", "us"),
    ("sim.stall_cycles", "cycles"),
    ("bench.client.cpu_us_per_req", "us"),
    ("bench.gen_late_p99_ms.r250", "ms"),
    ("bench.gen_late_p99_ms.r1000", "ms"),
    ("bench.gen_late_p99_ms.r4000", "ms"),
    ("bench.trace_overhead", "ratio"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// What one run of one workload measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured part.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output mismatches found by the checks; any makes the run incorrect.
    pub mismatches: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    /// Workload-specific figures printed next to the metrics.
    diagnostics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Record a catalogued metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue or a non-finite value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not in the catalogue"
        );
        assert!(value.is_finite(), "metric `{name}` measured {value}");
        self.values.insert(name, value);
    }

    /// Record a figure that is printed but is not one of the catalogued
    /// metrics (p99 with its sample count, the ladder, error rate, ...).
    pub fn diag(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.diagnostics.push((name.into(), value, unit));
    }

    /// Record an output mismatch (the first few are kept verbatim).
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        } else if self.mismatches.len() == 20 {
            self.mismatches
                .push("... further mismatches omitted".into());
        }
    }

    /// Record the timing metrics of an in-process workload from per-call
    /// times (ms) taken in whole passes over the same `cases`: latency
    /// percentiles and throughput come from each case's fastest time over
    /// the passes, which interference on a shared machine moves least.
    pub fn set_pass_timings(&mut self, lat_ms: &[f64], cases: usize, elapsed_s: f64) {
        let typical = sorted(case_minimums(lat_ms, cases));
        self.set("p50_ms", percentile(&typical, 50.0));
        self.set("p90_ms", percentile(&typical, 90.0));
        self.set(
            "throughput_per_s",
            cases as f64 / (typical.iter().sum::<f64>() / 1e3),
        );
        self.diag("p99_ms", percentile(&typical, 99.0), "ms");
        self.diag("passes", (lat_ms.len() / cases) as f64, "count");
        self.diag("wall_calls_per_s", lat_ms.len() as f64 / elapsed_s, "1/s");
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The metrics this run reports: the end-to-end set untraced, the
    /// per-layer set traced.
    fn reported(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let v = match self.values.get(name) {
                    Some(&v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric `{name}` was not measured"),
                };
                (name, v, unit)
            })
            .collect()
    }

    /// The `name value unit` lines: every measured metric and diagnostic.
    pub fn lines(&self, traced: bool) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        if traced {
            for (&name, &v) in &self.values {
                if END_TO_END.iter().any(|(n, _)| *n == name) {
                    out.push(format!("{name} {v} {}", unit_of(name).unwrap_or("")));
                }
            }
        }
        for (name, v, unit) in self.reported(traced) {
            out.push(format!("{name} {v} {unit}"));
        }
        for (name, v, unit) in &self.diagnostics {
            out.push(format!("{name} {v} {unit}"));
        }
        out
    }

    /// The one-line JSON result.
    pub fn json(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .reported(traced)
            .into_iter()
            .map(|(name, v, unit)| format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_serve::json::{self, Value};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_caps() {
        assert!(!END_TO_END.is_empty() && END_TO_END.len() <= 16);
        assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(valid_unit(unit), "bad unit `{unit}` for `{name}`");
            assert!(seen.insert(name), "`{name}` listed twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "`{bad}` must be rejected");
        }
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
        for m in doc.get("end_to_end").and_then(Value::as_arr).expect("list") {
            let Some(Value::Num(bound)) = m.get("bound") else {
                panic!("bound missing: {m:?}")
            };
            assert!(*bound > 0.0 && *bound <= 0.25, "bound {bound} out of range");
        }
    }

    #[test]
    fn json_line_carries_exactly_the_mode_set() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.5 + i as f64);
        }
        r.set("ir.parse_us", 2.25);
        let doc = json::parse(&r.json(false)).expect("untraced JSON parses");
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        let Some(Value::Obj(m)) = doc.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m["p50_ms"].get("value"), Some(&Value::Num(2.5)));

        let doc = json::parse(&r.json(true)).expect("traced JSON parses");
        let Some(Value::Obj(m)) = doc.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m["ir.parse_us"].get("value"), Some(&Value::Num(2.25)));
        assert_eq!(m["sim.check_us"].get("value"), Some(&Value::Num(0.0)));

        r.mismatch("response 4 differs".into());
        assert!(r
            .json(false)
            .starts_with("{\"correct\":false,\"attempted\":3,\"failed\":0,"));
    }
}
