//! Metric names, units and the result line.
//!
//! These names are the benchmark's contract: later changes are judged by
//! them, so they only ever gain entries. `BENCHMARK.json` at the
//! repository root lists the same names and units; a self-test keeps the
//! two in step.

use std::fmt::Write as _;

/// End-to-end metrics, printed by `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_cps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("error_rate", "ratio"),
    ("max_stall_ms", "ms"),
    ("wall_us_per_cmd", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by `--trace 1`, named by module.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.events_per_cmd", "count"),
    ("runtime.events_per_wall_s", "1/s"),
    ("runtime.allocs_per_event", "count"),
    ("runtime.alloc_bytes_per_cmd", "B"),
    ("runtime.wall_s_per_sim_s", "s/s"),
    ("runtime.raw_events_per_s", "1/s"),
    ("runtime.net_retransmissions", "count"),
    ("runtime.net_dropped_sends", "count"),
    ("paxos.us_per_decision", "us"),
    ("paxos.msgs_per_decision", "count"),
    ("paxos.leader_elections", "count"),
    ("amcast.us_per_delivery.1g", "us"),
    ("amcast.us_per_delivery.2g", "us"),
    ("amcast.msgs_per_delivery.2g", "count"),
    ("client.retries_per_kcmd", "count"),
    ("client.timeouts", "count"),
    ("client.backoffs", "count"),
    ("oracle.queries_per_cmd", "count"),
    ("oracle.plans", "count"),
    ("oracle.plan_moves", "count"),
    ("oracle.plan_edge_cut", "ratio"),
    ("oracle.graph_evictions", "count"),
    ("server.multi_partition_frac", "ratio"),
    ("server.objects_per_cmd", "count"),
    ("server.migration_keys_staged", "count"),
    ("server.migration_chunk_retries", "count"),
    ("server.migration_reverts", "count"),
    ("server.migration_deferred", "count"),
    ("cluster.crashes", "count"),
    ("cluster.recovery_completions", "count"),
    ("cluster.recovery_snapshot_elements", "count"),
    ("partitioner.full_ms", "ms"),
    ("partitioner.warm_ms", "ms"),
    ("partitioner.edge_cut_frac", "ratio"),
    ("workloads.next_ns", "ns"),
    ("workloads.execute_us.new_order", "us"),
    ("workloads.execute_us.payment", "us"),
    ("workloads.execute_us.order_status", "us"),
    ("workloads.execute_us.delivery", "us"),
    ("workloads.execute_us.stock_level", "us"),
    ("workloads.execute_us.get_timeline", "us"),
    ("workloads.execute_us.post", "us"),
    ("workloads.latency_p99_ms.read", "ms"),
    ("workloads.latency_p99_ms.write", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// The unit of a registered metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// Nearest-rank quantile of an ascending sample; 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of a small sample (sorts in place); 0 when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The tail quantile reported as "p99": 0.99, or lower when the sample
/// has fewer than 1000 values, so that at least ten values lie beyond it.
pub fn tail_q(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.99)
}

/// One run's result line plus the diagnostics printed before it.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Failed checks; any entry makes the run incorrect and exit 1.
    pub failures: Vec<String>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Checks the metrics against the registry: every name of the mode's
    /// list reported once with a finite value, and nothing else.
    pub fn finish(&mut self, traced: bool) {
        let expected = if traced { PER_LAYER } else { END_TO_END };
        let mut got: Vec<&str> = self.metrics.iter().map(|(n, _)| *n).collect();
        got.sort_unstable();
        let mut want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
        want.sort_unstable();
        if got != want {
            self.failures
                .push(format!("reported metrics {got:?} differ from the registry's {want:?}"));
        }
        for (name, value) in &self.metrics {
            if !value.is_finite() {
                self.failures.push(format!("metric {name} is not finite: {value}"));
            }
        }
    }

    /// The last line of standard output.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            if !out.is_empty() {
                out.push_str(", ");
            }
            let unit = unit_of(name).unwrap_or("unregistered");
            let value = if value.is_finite() { value.to_string() } else { "null".into() };
            let _ = write!(out, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{out}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_are_well_formed_unique_and_carry_units() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
            assert!(seen.insert(*name), "duplicate metric name {name}");
        }
    }

    /// The registry and `BENCHMARK.json` name the same metrics with the
    /// same units.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "metric count differs");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&xs, 0.5), 50);
        assert_eq!(quantile(&xs, 0.99), 99);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail_q(100_000), 0.99);
        assert!((tail_q(200) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn result_line_carries_values_units_and_verdict() {
        let mut r = Report { attempted: 5, ..Report::default() };
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.finish(false);
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0"), "{line}");
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"), "{line}");
    }

    #[test]
    fn finish_rejects_missing_extra_and_non_finite_metrics() {
        let mut r = Report::default();
        r.set("setup_s", 1.0);
        r.finish(false);
        assert!(r.to_json().starts_with("{\"correct\": false"));
        let mut r = Report::default();
        for (name, _) in PER_LAYER {
            r.set(name, f64::NAN);
        }
        r.finish(true);
        assert!(r.failures.iter().any(|f| f.contains("not finite")));
        assert!(r.to_json().contains("\"value\": null"));
    }
}
