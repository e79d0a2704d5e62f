//! The named metrics and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json`; a test keeps
//! the two in step.

use std::collections::BTreeMap;

use crate::trace::Span;

/// End-to-end metrics, printed with `--trace 0` on every workload:
/// (name, unit, direction).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("ingest_reports_per_s", "1/s", "higher"),
    ("ingest_ack_p50_us", "us", "lower"),
    ("query_p50_us", "us", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("rss_peak_mib", "MiB", "lower"),
];

/// Layers whose self time the traced run reports as `trace.self_ms.<layer>`.
pub const TRACED_LAYERS: &[&str] = &[
    "net",
    "core",
    "wire",
    "service",
    "snapshot",
    "window",
    "storage",
    "repl",
    "transforms",
    "freq_oracle",
    "loadgen",
];

/// Per-layer metrics, printed with `--trace 1` on every workload; a layer
/// a workload does not exercise reads 0: (name, unit, direction).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // The two p99s do not repeat within a tenth across runs on a shared
    // 2-thread box, so they are reported here rather than gated.
    ("ingest_ack_p99_us", "us", "lower"),
    ("query_p99_us", "us", "lower"),
    ("transforms.fwht_inverse_us", "us", "lower"),
    ("transforms.haar_inverse_us", "us", "lower"),
    ("freq_oracle.hrr_estimate_us", "us", "lower"),
    ("core.encode_ns_per_report", "ns", "lower"),
    ("core.absorb_ns_per_report", "ns", "lower"),
    ("core.estimate_us", "us", "lower"),
    ("core.merge_us", "us", "lower"),
    ("core.subtract_us", "us", "lower"),
    ("wire.decode_ns_per_report", "ns", "lower"),
    ("wire.bytes_per_report", "bytes", "lower"),
    ("service.submit_ns_per_report", "ns", "lower"),
    ("service.refresh_p50_us", "us", "lower"),
    ("service.refresh_p99_us", "us", "lower"),
    ("service.refreshes_delta", "count", "higher"),
    ("service.refreshes_full", "count", "lower"),
    ("snapshot.freeze_us", "us", "lower"),
    ("snapshot.answer_ns", "ns", "lower"),
    ("window.seal_us", "us", "lower"),
    ("window.snapshot_k8_us", "us", "lower"),
    ("window.snapshot_k1_us", "us", "lower"),
    ("window.state_mib", "MiB", "lower"),
    ("window.query_p50_us", "us", "lower"),
    ("window.query_p99_us", "us", "lower"),
    ("window.seal_p50_us", "us", "lower"),
    ("storage.ingest_ns_per_report", "ns", "lower"),
    ("storage.ingest_nofsync_ns_per_report", "ns", "lower"),
    ("storage.sync_us", "us", "lower"),
    ("storage.wal_bytes_per_report", "bytes", "lower"),
    ("storage.replay_ns_per_report", "ns", "lower"),
    ("storage.recovery_s", "s", "lower"),
    ("storage.wedged", "count", "lower"),
    ("repl.feed_ns_per_record", "ns", "lower"),
    ("repl.apply_ns_per_report", "ns", "lower"),
    ("repl.catchup_reports_per_s", "1/s", "higher"),
    ("net.report_residual_ns_per_report", "ns", "lower"),
    ("net.query_residual_us", "us", "lower"),
    ("net.report_ns_p99", "ns", "lower"),
    ("net.frames_rejected", "count", "lower"),
    ("net.queue_depth_hw", "count", "lower"),
    ("loadgen.late_p99_us", "us", "lower"),
    ("op_failure_ratio", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.residual_share", "ratio", "lower"),
    ("trace.self_ms.net", "ms", "lower"),
    ("trace.self_ms.core", "ms", "lower"),
    ("trace.self_ms.wire", "ms", "lower"),
    ("trace.self_ms.service", "ms", "lower"),
    ("trace.self_ms.snapshot", "ms", "lower"),
    ("trace.self_ms.window", "ms", "lower"),
    ("trace.self_ms.storage", "ms", "lower"),
    ("trace.self_ms.repl", "ms", "lower"),
    ("trace.self_ms.transforms", "ms", "lower"),
    ("trace.self_ms.freq_oracle", "ms", "lower"),
    ("trace.self_ms.loadgen", "ms", "lower"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// REPORT, QUERY and SEAL operations attempted.
    pub attempted: u64,
    /// Those refused or failed.
    pub failed: u64,
    /// Metric values by name (end-to-end and, in a traced run, per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Run parameters: seed, sizes, policies, hardware threads, commit.
    pub stamp: Vec<(&'static str, String)>,
    /// Spans recorded by a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a run parameter.
    pub fn stamp(&mut self, key: &'static str, value: impl ToString) {
        self.stamp.push((key, value.to_string()));
    }

    /// Failed over attempted operations.
    #[must_use]
    pub fn failure_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, holding every metric of the
    /// chosen list.
    ///
    /// # Errors
    ///
    /// A metric the run did not produce, a non-finite value, or an
    /// end-to-end value that is not positive.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(list.len());
        for (name, unit, _) in list {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() || (!traced && value <= 0.0) {
                return Err(format!("metric {name} has unusable value {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }

    /// The run parameters as one JSON object.
    #[must_use]
    pub fn stamp_json(&self) -> String {
        let fields: Vec<String> = self
            .stamp
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(*better == "lower" || *better == "higher");
        }
        for layer in TRACED_LAYERS {
            let key = format!("trace.self_ms.{layer}");
            assert!(
                PER_LAYER.iter().any(|(n, _, _)| *n == key),
                "{key} not listed"
            );
        }
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut out = Outcome::default();
        assert!(out.result_line(false).is_err());
        for (name, _, _) in END_TO_END {
            out.set(name, 1.5);
        }
        let line = out.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        out.set("setup_s", 0.0);
        assert!(
            out.result_line(false).is_err(),
            "an end-to-end zero must be refused"
        );
    }
}
