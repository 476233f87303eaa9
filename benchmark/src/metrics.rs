//! The metric names and units of `BENCHMARK.json`, and the result line.
//!
//! Every run prints every metric of its mode for every workload; a layer a
//! workload never enters reports 0 for that layer's metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of each end-to-end metric (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_ms_p50", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("max_load_bytes", "B"),
    ("replication", "ratio"),
];

/// `(name, unit)` of each per-layer metric (`--trace 1`); the prefix before
/// the dot is the crate the metric belongs to.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cq.parse_ms", "ms"),
    ("lp.solve_ms", "ms"),
    ("lp.path_closed_form", "count"),
    ("lp.path_cache_hit", "count"),
    ("lp.path_simplex", "count"),
    ("lp.cache_hit_rate", "ratio"),
    ("core.analyze_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.rounds", "count"),
    ("core.heavy_values", "count"),
    ("core.heavy_patterns", "count"),
    ("core.load_vs_bound", "ratio"),
    ("core.load_vs_predicted", "ratio"),
    ("data.stats_scan_ms", "ms"),
    ("data.stats_scanned_tuples", "count"),
    ("skew.plan_ms", "ms"),
    ("skew.residual_plans", "count"),
    ("skew.heavy_values", "count"),
    ("sim.route_ms", "ms"),
    ("sim.routed_msgs", "count"),
    ("sim.routed_copies", "count"),
    ("sim.seal_ms", "ms"),
    ("sim.blocks_sealed", "count"),
    ("sim.block_fill", "ratio"),
    ("sim.ingest_ms", "ms"),
    ("sim.ingest_block_ms", "ms"),
    ("sim.add_local_ms", "ms"),
    ("sim.union_ms", "ms"),
    ("sim.free_ms", "ms"),
    ("sim.total_bytes", "B"),
    ("sim.balance_ratio", "ratio"),
    ("sim.pool_allocated", "count"),
    ("sim.pool_hit_rate", "ratio"),
    ("sim.makespan_ticks", "ticks"),
    ("sim.critical_path_ticks", "ticks"),
    ("sim.blocked_ticks", "ticks"),
    ("sim.idle_ticks", "ticks"),
    ("sim.barrier_wait_ticks", "ticks"),
    ("storage.local_join_ms", "ms"),
    ("storage.seq_join_ms", "ms"),
    ("storage.output_tuples", "count"),
    ("storage.output_dup_ratio", "ratio"),
    ("net.encode_ms", "ms"),
    ("net.decode_ms", "ms"),
    ("net.frames", "count"),
    ("net.frame_bytes", "B"),
    ("net.inproc_query_ms", "ms"),
    ("net.tcp_over_inproc", "ratio"),
    ("net.svc_planning_us_p50", "us"),
    ("net.svc_cache_hot_frac", "ratio"),
    ("net.svc_deferred", "count"),
    ("net.svc_inflight_max", "count"),
    ("harness.query_ms_p50", "ms"),
    ("harness.query_ms_p90", "ms"),
    ("harness.query_ms_tail", "ms"),
    ("harness.tail_pct", "%"),
    ("harness.samples", "count"),
    ("harness.cpu_ms_per_query", "ms"),
    ("harness.trace_cover", "ratio"),
    ("harness.trace_overhead_frac", "ratio"),
    ("harness.nproc", "count"),
];

/// Metrics that repeat exactly between two runs of the same seed and
/// iteration count (`--check-counts` asserts it). Times, and the service
/// readings that depend on how the reactors interleave, are left out.
pub const EXACT: &[&str] = &[
    "max_load_bytes",
    "replication",
    "lp.path_closed_form",
    "lp.path_cache_hit",
    "lp.path_simplex",
    "lp.cache_hit_rate",
    "core.rounds",
    "core.heavy_values",
    "core.heavy_patterns",
    "core.load_vs_bound",
    "core.load_vs_predicted",
    "data.stats_scanned_tuples",
    "skew.residual_plans",
    "skew.heavy_values",
    "sim.routed_msgs",
    "sim.routed_copies",
    "sim.blocks_sealed",
    "sim.block_fill",
    "sim.total_bytes",
    "sim.balance_ratio",
    "sim.makespan_ticks",
    "sim.critical_path_ticks",
    "sim.blocked_ticks",
    "sim.idle_ticks",
    "sim.barrier_wait_ticks",
    "storage.output_tuples",
    "storage.output_dup_ratio",
    "net.frames",
    "net.frame_bytes",
];

/// The values measured by one run, keyed by registered metric name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name`, which must be registered above.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one run did: how many operations it attempted, how many failed their
/// check, and what it measured.
#[derive(Debug, Default, Clone)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunReport {
    /// The result line of the driver contract: one JSON object holding
    /// exactly `correct`, `attempted`, `failed` and every metric of `defs`.
    pub fn result_line(&self, defs: &[(&str, &str)]) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in defs.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = self.metrics.get(name);
            write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String cannot fail");
        }
        line.push_str("}}");
        line
    }

    /// The first metric of `defs` that is not a finite number (a ratio over
    /// a zero denominator), which no JSON parser would accept.
    pub fn non_finite<'a>(&self, defs: &[(&'a str, &str)]) -> Option<&'a str> {
        defs.iter().map(|(name, _)| *name).find(|name| !self.metrics.get(name).is_finite())
    }

    /// A human-readable table of every metric of `defs`, one per line.
    pub fn table(&self, defs: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in defs {
            writeln!(out, "  {name:<30} {:>16.4} {unit}", self.metrics.get(name))
                .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_exactly_the_registered_metrics() {
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for (name, unit) in defs {
                let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
                assert!(BENCHMARK_JSON.contains(&entry), "{section} lacks {name} [{unit}]");
            }
        }
        let listed = BENCHMARK_JSON.matches("\"better\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "BENCHMARK.json has extras");
    }

    #[test]
    fn names_are_unique_and_exact_ones_are_registered() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for name in EXACT {
            assert!(names.binary_search(name).is_ok(), "{name} is not registered");
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut report = RunReport { attempted: 12, failed: 0, ..RunReport::default() };
        report.metrics.set("setup_s", 0.25);
        report.metrics.set("query_ms_p50", 71.5);
        let line = report.result_line(&END_TO_END[..2]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"query_ms_p50\": {\"value\": 71.5, \"unit\": \"ms\"}}}"
        );
        report.failed = 1;
        assert!(report.result_line(&[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_ratio_over_zero_is_found() {
        let mut report = RunReport::default();
        report.metrics.set("sim.pool_hit_rate", 0.5);
        assert_eq!(report.non_finite(PER_LAYER), None);
        report.metrics.set("harness.trace_cover", f64::INFINITY);
        assert_eq!(report.non_finite(PER_LAYER), Some("harness.trace_cover"));
        report.metrics.set("harness.trace_cover", f64::NAN);
        assert_eq!(report.non_finite(PER_LAYER), Some("harness.trace_cover"));
    }
}
