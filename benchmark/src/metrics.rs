//! The metric catalogue and the JSON result line.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a test
//! keeps the two in step.

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by an untraced run on every workload.
pub const END_TO_END: [(&str, &str, Better); 4] = [
    ("setup_s", "s", Lower),
    ("qps", "1/s", Higher),
    ("query_p50_ms", "ms", Lower),
    ("peak_rss_mb", "MiB", Lower),
];

/// Per-layer metrics, reported by a traced run on every workload.
pub const PER_LAYER: [(&str, &str, Better); 37] = [
    ("graph.ingest_ms", "ms", Lower),
    ("ingest.p50_ms", "ms", Lower),
    ("planner.plan_ms", "ms", Lower),
    ("planner.runs_per_query", "ratio", Lower),
    ("planner.envelope_yield", "ratio", Higher),
    ("planner.profile_groups", "count", Higher),
    ("planner.profile_answered", "count", Higher),
    ("planner.dedup_answered", "count", Higher),
    ("planner.shared_answered", "count", Higher),
    ("executor.batch_ms", "ms", Lower),
    ("executor.pipeline_ms", "ms", Lower),
    ("executor.parallel_eff", "ratio", Higher),
    ("executor.follower_reruns", "count", Higher),
    ("vug.quick_ms", "ms", Lower),
    ("vug.tight_ms", "ms", Lower),
    ("vug.eev_ms", "ms", Lower),
    ("vug.quick_ratio", "ratio", Higher),
    ("vug.tight_ratio", "ratio", Higher),
    ("vug.eev_search_yield", "ratio", Higher),
    ("profile.pass_ms", "ms", Lower),
    ("profile_cache.hit_ratio", "ratio", Higher),
    ("result_cache.hit_ratio", "ratio", Higher),
    ("result_cache.evictions", "count", Lower),
    ("result_cache.bytes", "bytes", Lower),
    ("result_cache.probe_us", "us", Lower),
    ("server.mean_batch", "count", Higher),
    ("server.timer_flushes", "count", Lower),
    ("server.size_flushes", "count", Higher),
    ("server.empty_wakeups", "count", Lower),
    ("server.quota_rejections", "count", Lower),
    ("server.overhead_ms", "ms", Lower),
    ("protocol.encode_us", "us", Lower),
    ("protocol.decode_us", "us", Lower),
    ("protocol.bytes_per_answer", "bytes", Lower),
    ("trace.overhead_pct", "%", Lower),
    ("latency.p99_ms", "ms", Lower),
    ("latency.samples", "count", Higher),
];

#[cfg(test)]
/// `true` for a name of 1–64 characters from `[A-Za-z0-9_.-]` starting
/// with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values of one run, in catalogue order.
pub struct Report {
    catalogue: &'static [(&'static str, &'static str, Better)],
    values: Vec<Option<f64>>,
}

impl Report {
    /// An empty report over the end-to-end or the per-layer catalogue.
    pub fn new(traced: bool) -> Self {
        let catalogue: &'static [_] = if traced { &PER_LAYER } else { &END_TO_END };
        Self { catalogue, values: vec![None; catalogue.len()] }
    }

    /// Sets metric `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let index = self
            .catalogue
            .iter()
            .position(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values[index] = Some(if value.is_finite() { value } else { 0.0 });
    }

    /// Human-readable `name = value unit` lines.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for ((name, unit, _), value) in self.catalogue.iter().zip(&self.values) {
            let _ = writeln!(out, "  {name:<28} {:>14.6} {unit}", value.unwrap_or(f64::NAN));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit.
    pub fn json(&self, attempted: usize, failed: usize) -> String {
        let mut metrics = String::new();
        for (i, ((name, unit, _), value)) in self.catalogue.iter().zip(&self.values).enumerate() {
            let value = value.unwrap_or_else(|| panic!("metric {name} was not measured"));
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
            failed == 0
        )
    }
}

/// The `BENCHMARK.json` entry of a metric, as written there.
#[cfg(test)]
pub fn benchmark_entry(name: &str, unit: &str, better: Better) -> String {
    format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"", better.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn metric_names_use_the_allowed_charset() {
        assert!(valid_name("result_cache.probe_us"));
        assert!(valid_name("a-b.c_9"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("p99 ms"));
        assert!(!valid_name("ratio/s"));
        assert!(!valid_name(&"x".repeat(65)));
        let mut seen = HashSet::new();
        for (name, unit, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} is listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                text.contains(&benchmark_entry(name, unit, *better)),
                "{name} missing or different"
            );
        }
        let listed = text.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "no extra metrics listed");
        assert!(text.contains("\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\""));
    }

    #[test]
    fn result_line_has_every_metric() {
        let mut report = Report::new(false);
        for (i, (name, _, _)) in END_TO_END.iter().enumerate() {
            report.set(name, i as f64 + 0.5);
        }
        let line = report.json(10, 0);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"qps\": {\"value\": 1.5, \"unit\": \"1/s\"}"));
    }
}
