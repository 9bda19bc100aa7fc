//! Metric names, units, and the one-line JSON result.
//!
//! The two tables below are the benchmark's contract: `--trace 0` emits
//! every [`END_TO_END`] metric and `--trace 1` every [`PER_LAYER`]
//! metric, on every workload. `BENCHMARK.json` lists the same names and
//! units; the smoke test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("flow_wall_s", "s"),
    ("candidates_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("area_reduction_pct", "%"),
    ("power_reduction_pct", "%"),
    ("front_hv", "1"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ml.data_s", "s"),
    ("ml.train_s", "s"),
    ("ml.models_trained", "count"),
    ("ml.train_useful_frac", "1"),
    ("bespoke.generate_s", "s"),
    ("synth.optimize_s", "s"),
    ("sim.compile_s", "s"),
    ("core.measure_s", "s"),
    ("mult_cache.fill_s", "s"),
    ("mult_cache.built", "count"),
    ("mult_cache.useful_frac", "1"),
    ("coeff_approx.approx_s", "s"),
    ("prune.analyze_s", "s"),
    ("eval.resolve_s", "s"),
    ("eval.fold_s", "s"),
    ("eval.masked_sim_s", "s"),
    ("eval.score_s", "s"),
    ("eval.retime_s", "s"),
    ("eval.asked", "count"),
    ("eval.fresh", "count"),
    ("eval.cache_hit_frac", "1"),
    ("eval.delta_hit_frac", "1"),
    ("eval.mean_delta_nets", "count"),
    ("explore.other_s", "s"),
    ("explore.generations", "count"),
    ("artifact.export_s", "s"),
    ("artifact.load_s", "s"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.engine_p99_ms", "ms"),
    ("serve.gen_late_ms_p99", "ms"),
    ("serve.p99_light_ms", "ms"),
    ("serve.capacity_rps", "1/s"),
    ("serve.mean_batch", "count"),
    ("serve.occupancy", "1"),
    ("serve.batches", "count"),
    ("serve.queue_full", "count"),
    ("serve.audited_batches", "count"),
    ("fabric.jobs", "count"),
    ("fabric.job_p50_ms", "ms"),
    ("fabric.job_p99_ms", "ms"),
    ("fabric.rejected", "count"),
    ("trace.unattributed_frac", "1"),
    ("trace.overhead_frac", "1"),
];

/// What one workload run produced: the operation counts behind
/// `fail_frac` plus every metric value it measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations checked: studies, searches, re-evaluated samples,
    /// requests, tenant passes.
    pub attempted: u64,
    /// Checked operations that failed: refused, cancelled or wrong
    /// requests, digest or oracle mismatches.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records `value` under `name` (replacing an earlier value).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one checked operation, failed or not.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line: every metric of `table`, by name, with its
    /// unit. End-to-end metrics must all have been measured; per-layer
    /// metrics a workload bypasses read 0.
    pub fn to_json(&self, table: &[(&str, &str)], require_all: bool) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("the run checked no operation".to_owned());
        }
        let mut out = String::new();
        let correct = self.failed == 0;
        let _ = write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if require_all => return Err(format!("metric `{name}` was not measured")),
                None => 0.0,
            };
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite ({value})"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank on a sorted
/// copy; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// kernel does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error() {
        let mut r = Report::default();
        assert!(r.to_json(&[("setup_s", "s")], true).is_err(), "nothing attempted");
        r.check(true);
        assert!(r.to_json(&[("setup_s", "s")], true).is_err());
        let json = r.to_json(&[("ml.data_s", "s")], false).unwrap();
        assert!(json.contains("\"ml.data_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
    }
}
