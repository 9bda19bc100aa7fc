//! Pieces the workloads share: digests of design points, the Table II
//! selection, normalized hypervolumes and evaluator telemetry totals.

use pax_core::explore::SearchStats;
use pax_core::framework::CircuitStudy;
use pax_core::report::{summarize_gains, table2_row, Table2Row};
use pax_core::DesignPoint;
use pax_ml::quant::QuantizedModel;
use pax_ml::synth_data::SynthConfig;

use crate::report::{Report, PER_LAYER};
use crate::trace::{self, Span};

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPEATS: usize = 5;

/// The accuracy-loss budget of the paper's Table II.
pub const MAX_LOSS: f64 = 0.01;

/// Input size of a run: the paper's full-size synthetic datasets, or a
/// tiny variant for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    /// The paper's synthetic data; the data seed is fixed, so the
    /// pipeline's results are pinned and the workload seed only varies
    /// order and schedules.
    pub fn synth_config(self) -> SynthConfig {
        match self {
            Size::Full => SynthConfig::default(),
            Size::Tiny => SynthConfig { size_factor: 0.06, ..SynthConfig::default() },
        }
    }
}

/// A deliberate fault, for the smoke test that shows faults are counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    None,
    /// Flip one bit of one design point before it is checked.
    Point,
    /// Expect a wrong class for one served row.
    Class,
}

/// FNV-1a over the exact bits of design points (technique, genome and
/// every measured axis).
pub fn digest<'a>(points: impl IntoIterator<Item = &'a DesignPoint>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in points {
        eat(p.technique.label().as_bytes());
        eat(&p.tau_c.map_or(u64::MAX, f64::to_bits).to_le_bytes());
        eat(&p.phi_c.unwrap_or(i64::MIN).to_le_bytes());
        eat(p.coeff.map_or([u8::MAX; 2], |g| *g.levels()).as_slice());
        for v in [p.accuracy, p.area_mm2, p.power_mw, p.critical_ms] {
            eat(&v.to_bits().to_le_bytes());
        }
        eat(&(p.gate_count as u64).to_le_bytes());
    }
    h
}

/// Digest of every point a study produced, baseline first.
pub fn study_digest(study: &CircuitStudy) -> u64 {
    digest(study.all_points())
}

/// Table II rows (per circuit, the minimum-area design within 1% loss).
pub fn table2(studies: &[(&CircuitStudy, f64)]) -> Vec<Table2Row> {
    studies.iter().map(|(s, battery_mw)| table2_row(s, MAX_LOSS, *battery_mw)).collect()
}

/// Mean cross-layer `(area, power)` reduction in percent over the rows.
pub fn cross_reductions(rows: &[Table2Row]) -> (f64, f64) {
    let g = summarize_gains(rows);
    (g.cross_area, g.cross_power)
}

/// A search's final hypervolume divided by the volume of its reference
/// box: accuracy spans `[ref, 1]`, minimized axes `[0, ref]`.
pub fn normalized_hv(stats: &SearchStats) -> Option<f64> {
    let hv = stats.hypervolume?;
    let mut volume = 1.0;
    for (label, r) in stats.objectives.iter().zip(&stats.hv_ref) {
        volume *= if label == "accuracy" { 1.0 - r } else { *r };
    }
    (volume > 0.0).then(|| hv / volume)
}

/// Evaluator telemetry summed over searches.
#[derive(Debug, Default, Clone)]
pub struct EvalTotals {
    pub asked: u64,
    pub fresh: u64,
    pub cache_hits: u64,
    pub generations: u64,
    pub wall_s: f64,
    /// Per-phase worker time, seconds: resolve, fold, masked-sim,
    /// score, re-time.
    pub phase_s: [f64; 5],
    pub delta_folds: u64,
    pub full_folds: u64,
    pub delta_nets: u64,
}

const PHASES: [&str; 5] = ["resolve", "fold", "masked-sim", "score", "re-time"];

impl EvalTotals {
    pub fn add(&mut self, s: &SearchStats) {
        self.asked += s.asked as u64;
        self.fresh += s.evaluated as u64;
        self.cache_hits += s.cache_hits as u64;
        self.generations += s.generations as u64;
        self.wall_s += s.telemetry.wall_ms / 1e3;
        for (slot, name) in self.phase_s.iter_mut().zip(PHASES) {
            *slot += s.telemetry.phases.get(name).map_or(0.0, |p| p.ns as f64 / 1e9);
        }
        self.delta_folds += s.telemetry.delta.delta_folds;
        self.full_folds += s.telemetry.delta.full_folds;
        self.delta_nets += s.telemetry.delta.delta_nets;
    }

    /// Fresh evaluations per second of search wall time.
    pub fn candidates_per_s(&self) -> f64 {
        self.fresh as f64 / self.wall_s.max(1e-9)
    }

    /// Records the `eval.*` and `explore.*` per-layer metrics. The
    /// measurement phases run on `workers` threads at once, so
    /// `explore.other_s` subtracts their per-worker share from the wall.
    pub fn emit(&self, rep: &mut Report, workers: usize) {
        let [resolve, fold, sim, score, retime] = self.phase_s;
        rep.set("eval.resolve_s", resolve);
        rep.set("eval.fold_s", fold);
        rep.set("eval.masked_sim_s", sim);
        rep.set("eval.score_s", score);
        rep.set("eval.retime_s", retime);
        rep.set("eval.asked", self.asked as f64);
        rep.set("eval.fresh", self.fresh as f64);
        rep.set("eval.cache_hit_frac", self.cache_hits as f64 / self.asked.max(1) as f64);
        let folds = self.delta_folds + self.full_folds;
        rep.set("eval.delta_hit_frac", self.delta_folds as f64 / folds.max(1) as f64);
        rep.set("eval.mean_delta_nets", self.delta_nets as f64 / self.delta_folds.max(1) as f64);
        let worker_s = (fold + sim + score + retime) / workers.max(1) as f64;
        rep.set("explore.other_s", self.wall_s - resolve - worker_s);
        rep.set("explore.generations", self.generations as f64);
    }
}

/// Records each layer's self time (`<span name>_s`) and the share of the
/// `root` span's wall time no layer span covers.
pub fn span_metrics(rep: &mut Report, spans: &[Span], root: &str) {
    for (layer, seconds) in trace::self_seconds(spans) {
        if let Some((name, _)) = PER_LAYER.iter().find(|(n, _)| n.strip_suffix("_s") == Some(layer))
        {
            rep.set(name, seconds);
        }
    }
    if let Some(root) = spans.iter().find(|s| s.name == root) {
        rep.set("trace.unattributed_frac", trace::unattributed_frac(spans, root));
    }
}

/// Records `mult_cache.built` (multipliers synthesized, summed over the
/// studies' caches) and `mult_cache.useful_frac`: the distinct
/// multipliers among them — one signed coefficient range per input
/// width the models use — divided by that sum.
pub fn mult_cache_metrics<'a>(
    rep: &mut Report,
    built: usize,
    models: impl IntoIterator<Item = &'a QuantizedModel>,
) {
    let mut ranges = std::collections::BTreeSet::new();
    for m in models {
        ranges.insert((m.spec.input_bits, m.spec.coef_bits));
        if m.kind.is_mlp() && m.hidden_width > 0 {
            ranges.insert((m.hidden_width, m.spec.coef_bits));
        }
    }
    let distinct: usize = ranges.iter().map(|&(_, coef)| 1usize << coef).sum();
    rep.set("mult_cache.built", built as f64);
    rep.set("mult_cache.useful_frac", distinct as f64 / built.max(1) as f64);
}

/// Worker threads the in-process evaluator uses (its default).
pub fn eval_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |t| t.get()).min(16)
}

/// A deterministic permutation of `0..n` from `seed` (Fisher–Yates over
/// a splitmix64 stream).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_core::Technique;

    fn point(area: f64) -> DesignPoint {
        DesignPoint {
            technique: Technique::Cross,
            tau_c: Some(0.9),
            phi_c: Some(3),
            coeff: None,
            accuracy: 0.8,
            area_mm2: area,
            power_mw: 1.0,
            gate_count: 10,
            critical_ms: 2.0,
        }
    }

    #[test]
    fn digest_sees_a_single_bit() {
        let a = point(5.0);
        let b = point(f64::from_bits(5.0f64.to_bits() ^ 1));
        assert_ne!(digest([&a]), digest([&b]));
        assert_eq!(digest([&a]), digest([&point(5.0)]));
    }

    #[test]
    fn permutation_is_seeded() {
        let p = permutation(14, 7);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..14).collect::<Vec<_>>());
        assert_eq!(p, permutation(14, 7));
        assert_ne!(p, permutation(14, 8));
    }
}
