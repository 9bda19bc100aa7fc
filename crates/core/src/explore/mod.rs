//! Pluggable design-space exploration engine.
//!
//! The paper explores >4300 `(τc, φc)` designs per circuit by
//! exhaustive enumeration. This module turns that hard-wired sweep into
//! a subsystem with swappable search shapes:
//!
//! * [`Candidate`] — the cross-layer genome: a graded per-layer
//!   coefficient-approximation gene ([`CoeffGene`], level 0 = exact)
//!   selecting the base circuit to prune, plus the `(τc, φc)`
//!   threshold pair;
//! * [`SearchStrategy`] — the ask/tell trait a search implements;
//!   shipped strategies are [`ExhaustiveGrid`] (the paper-faithful
//!   sweep) and [`Nsga2`] (seeded evolutionary search, budgeted by
//!   fresh evaluations);
//! * [`Evaluator`] — maps candidates to measured [`DesignPoint`]s,
//!   reusing one compiled tape + pruning analysis per base circuit and
//!   evaluating distinct prunings in parallel across a worker pool;
//! * [`EvalCache`] — content-hashed memoization, so duplicate
//!   pruned-gate sets are measured once, within *and across*
//!   strategies sharing one engine;
//! * [`EvalFabric`] — the seam to an external worker pool: attach one
//!   with [`Evaluator::with_fabric`] and fresh evaluations ship as
//!   owned batch jobs to (e.g.) the `pax-serve` engine instead of the
//!   evaluator's private thread pool, multiplexing design-space search
//!   with live serving traffic;
//! * [`ObjectiveSet`] — the configurable N-dimensional objective space
//!   (any subset of accuracy ↑ / area ↓ / power ↓ / delay ↓, with
//!   per-axis direction, weights and masking);
//! * [`ParetoArchive`] — the objective-space front maintained
//!   incrementally at insert time instead of batch-recomputed, with an
//!   exact hypervolume (sorted sweep in 2-D, WFG slicing in N-D);
//! * [`Engine`] — the driver loop: ask → evaluate → archive → tell.
//!
//! [`Framework::try_run_study`](crate::framework::Framework::try_run_study)
//! runs on this engine; strategy selection lives in
//! [`FrameworkConfig::search`](crate::framework::FrameworkConfig) and
//! per-strategy statistics surface in
//! [`ExecStats::search`](crate::framework::ExecStats).
//!
//! # Examples
//!
//! Sweep a grid and an evolutionary search over one engine, sharing
//! measured designs:
//!
//! ```no_run
//! use pax_core::explore::{
//!     CoeffGene, Engine, EvalContext, Evaluator, ExhaustiveGrid, Nsga2, Nsga2Config,
//! };
//! use pax_core::prune::{analyze, PruneConfig};
//! # let (netlist, model, train, test): (pax_netlist::Netlist, pax_ml::quant::QuantizedModel, pax_ml::Dataset, pax_ml::Dataset) = unimplemented!();
//!
//! let lib = egt_pdk::egt_library();
//! let tech = egt_pdk::TechParams::egt();
//! let analysis = analyze(&netlist, &model, &train);
//! let evaluator = Evaluator::new(
//!     &lib,
//!     &tech,
//!     &test,
//!     vec![EvalContext { coeff: CoeffGene::exact(), netlist: &netlist, model: &model, analysis }],
//! );
//! let mut engine = Engine::new(&evaluator, &PruneConfig::default());
//! let grid = engine.run(&mut ExhaustiveGrid::new()).unwrap();
//! let evo = engine.run(&mut Nsga2::new(Nsga2Config::default())).unwrap();
//! assert!(evo.stats.cache_hits > 0, "designs the grid measured come for free");
//! ```

mod archive;
mod evaluator;
mod fabric;
mod grid;
mod nsga2;
mod objective;

pub use archive::{HypervolumeError, ParetoArchive};
pub use evaluator::{CoeffAxis, EvalCache, EvalContext, EvalMode, Evaluator};
pub use fabric::{EvalFabric, FabricError, FabricJob};
pub use grid::ExhaustiveGrid;
pub use nsga2::{resolve_seed, Nsga2, Nsga2Config};
pub use objective::{Objective, ObjectiveAxis, ObjectiveSet};

use std::sync::Arc;
use std::time::Instant;

use pax_obs::{AxisExtreme, JournalEvent, PhasesSnapshot, StudyJournal};

use crate::error::StudyError;
use crate::prune::{DeltaFoldStats, PruneConfig};
use crate::DesignPoint;

/// Maximum number of weighted-sum layers the coefficient gene grades
/// independently. The models in `pax-ml` have at most two (an MLP's
/// hidden and output layers); single-layer models simply ignore the
/// second slot.
pub const MAX_COEFF_LAYERS: usize = 2;

/// The graded per-layer coefficient-approximation gene.
///
/// Each slot holds one approximation *level* for the corresponding
/// weighted-sum layer: level `0` is exact, higher levels select
/// progressively wider `±e` neighbourhoods from the evaluator's
/// coefficient axis ([`CoeffAxis`]). The gene is a pure label — its
/// hardware meaning comes from the [`EvalContext`] (or lazily
/// materialized context) carrying the same gene, which is why legacy
/// two-context setups can keep using `exact()` / `uniform(1)` without
/// ever configuring level widths.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct CoeffGene {
    levels: [u8; MAX_COEFF_LAYERS],
}

impl CoeffGene {
    /// The all-zero gene: prune the exact bespoke baseline.
    pub const fn exact() -> Self {
        Self { levels: [0; MAX_COEFF_LAYERS] }
    }

    /// The same approximation level on every layer. `uniform(1)` is the
    /// conventional label for "the one pre-approximated circuit" in
    /// legacy two-context setups.
    pub const fn uniform(level: u8) -> Self {
        Self { levels: [level; MAX_COEFF_LAYERS] }
    }

    /// A gene from explicit per-layer levels; layers beyond
    /// [`MAX_COEFF_LAYERS`] are rejected, missing trailing layers stay
    /// exact.
    pub fn per_layer(levels: &[u8]) -> Self {
        assert!(levels.len() <= MAX_COEFF_LAYERS, "too many coeff layers");
        let mut out = [0u8; MAX_COEFF_LAYERS];
        out[..levels.len()].copy_from_slice(levels);
        Self { levels: out }
    }

    /// Whether every layer is exact (level 0).
    pub fn is_exact(&self) -> bool {
        self.levels == [0; MAX_COEFF_LAYERS]
    }

    /// The approximation level of `layer` (0 beyond the gene's slots).
    pub fn level(&self, layer: usize) -> u8 {
        self.levels.get(layer).copied().unwrap_or(0)
    }

    /// All per-layer levels.
    pub fn levels(&self) -> &[u8; MAX_COEFF_LAYERS] {
        &self.levels
    }

    /// City-block distance between two genes — the repair metric used
    /// to snap a foreign gene onto the nearest in-space context.
    pub fn distance(&self, other: &Self) -> u32 {
        self.levels.iter().zip(&other.levels).map(|(&a, &b)| u32::from(a.abs_diff(b))).sum()
    }

    /// A slash-free rendering for path-like labels (journal `study`
    /// fields): `exact` or `L2.1`.
    pub fn tag(&self) -> String {
        if self.is_exact() {
            return "exact".to_owned();
        }
        let mut out = String::from("L");
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                out.push('.');
            }
            out.push_str(&l.to_string());
        }
        out
    }

    /// Inverse of the [`Display`](std::fmt::Display) form (`exact` or
    /// `l0/l1/…`) — used by the artifact text format.
    pub fn from_label(label: &str) -> Option<Self> {
        if label == "exact" {
            return Some(Self::exact());
        }
        let levels: Option<Vec<u8>> = label.split('/').map(|t| t.parse().ok()).collect();
        let levels = levels?;
        if levels.is_empty() || levels.len() > MAX_COEFF_LAYERS {
            return None;
        }
        Some(Self::per_layer(&levels))
    }
}

impl std::fmt::Display for CoeffGene {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_exact() {
            return write!(f, "exact");
        }
        write!(f, "{}", self.levels[0])?;
        for l in &self.levels[1..] {
            write!(f, "/{l}")?;
        }
        Ok(())
    }
}

/// One point of the cross-layer search space — the genome strategies
/// breed and the [`Evaluator`] measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The per-layer coefficient-approximation level selecting the base
    /// circuit to prune ([`CoeffGene::exact`] = the exact baseline).
    pub coeff: CoeffGene,
    /// The τ threshold: gates whose dominant-value fraction reaches it
    /// qualify for pruning.
    pub tau_c: f64,
    /// The φ threshold: qualified gates additionally need significance
    /// at most φc.
    pub phi_c: i64,
}

/// Per-base-circuit view of the searchable space.
#[derive(Debug, Clone)]
pub struct ContextSpace {
    /// The coefficient gene selecting this base circuit.
    pub gene: CoeffGene,
    /// `(τ, φ)` of every prunable gate of the base circuit.
    pub gates: Vec<(f64, i64)>,
}

impl ContextSpace {
    /// Distinct φ values of the τ-qualified gates at `tau_c`, ascending
    /// — the paper's Φτ set of relevant φ thresholds.
    pub fn phis_at(&self, tau_c: f64) -> Vec<i64> {
        let mut phis: Vec<i64> = self
            .gates
            .iter()
            .filter(|&&(tau, _)| tau >= tau_c - 1e-12)
            .map(|&(_, phi)| phi)
            .collect();
        phis.sort_unstable();
        phis.dedup();
        phis
    }

    /// Distinct gate τ values, ascending — the knee points of the τ
    /// axis: thresholds between two of them select identical gate sets.
    pub fn distinct_taus(&self) -> Vec<f64> {
        let mut taus: Vec<f64> = self.gates.iter().map(|&(tau, _)| tau).collect();
        taus.sort_by(|a, b| a.partial_cmp(b).expect("finite τ"));
        taus.dedup();
        taus
    }

    /// Distinct gate φ values, ascending; `[-1]` when the circuit has
    /// no prunable gates (so genomes stay well-formed).
    pub fn distinct_phis(&self) -> Vec<i64> {
        let mut phis: Vec<i64> = self.gates.iter().map(|&(_, phi)| phi).collect();
        phis.sort_unstable();
        phis.dedup();
        if phis.is_empty() {
            phis.push(-1);
        }
        phis
    }
}

/// What a strategy may search over: the configured τc steps (for
/// grid-faithful strategies), the τ bounds, and each base circuit's
/// per-gate metrics.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// The configured τc values, ascending (the exhaustive grid visits
    /// exactly these).
    pub tau_values: Vec<f64>,
    /// One entry per base circuit the evaluator holds.
    pub contexts: Vec<ContextSpace>,
}

impl SearchSpace {
    /// The context selected by a genome's coefficient gene.
    pub fn context(&self, gene: CoeffGene) -> Option<&ContextSpace> {
        self.contexts.iter().find(|c| c.gene == gene)
    }

    /// Like [`SearchSpace::context`], but a missing context surfaces as
    /// a typed [`StudyError::MissingContext`] — the path strategies use
    /// so a foreign genome degrades into a repair instead of a panic.
    pub fn require(&self, gene: CoeffGene) -> Result<&ContextSpace, StudyError> {
        self.context(gene).ok_or(StudyError::MissingContext { gene })
    }

    /// The in-space context whose gene is city-block nearest to `gene`
    /// (ties fall to the earlier context). `None` only for an empty
    /// space, which the [`Evaluator`] constructor rules out.
    pub fn nearest_context(&self, gene: CoeffGene) -> Option<&ContextSpace> {
        self.contexts.iter().min_by_key(|c| c.gene.distance(&gene))
    }

    /// `(lowest, highest)` configured τc.
    pub fn tau_bounds(&self) -> (f64, f64) {
        (
            self.tau_values.first().copied().unwrap_or(0.8),
            self.tau_values.last().copied().unwrap_or(0.99),
        )
    }
}

/// A pluggable search shape over the cross-layer genome.
///
/// The [`Engine`] drives the ask/tell loop: `ask` yields the next batch
/// of genomes to measure (one generation, or the whole sweep for
/// one-shot strategies; empty means the strategy is done), `tell`
/// returns the measured batch so the strategy can select survivors.
/// Strategies never measure anything themselves — the engine's
/// evaluator and cache do, which is what makes search shapes
/// interchangeable and lets them share measurements.
pub trait SearchStrategy {
    /// Short identifier used in stats and reports.
    fn name(&self) -> &str;

    /// Budget of fresh (non-cached) evaluations this strategy wants,
    /// `None` for unlimited. The engine truncates batches to honour it.
    fn budget(&self) -> Option<usize> {
        None
    }

    /// The next batch of candidates to evaluate; empty ends the search.
    fn ask(&mut self, space: &SearchSpace) -> Vec<Candidate>;

    /// Feedback: the evaluated batch, in ask order (possibly truncated
    /// to the evaluation budget), together with the engine's objective
    /// space so selection ranks candidates on the axes the study
    /// actually optimizes.
    fn tell(&mut self, results: &[(Candidate, DesignPoint)], objectives: &ObjectiveSet);
}

/// Per-strategy exploration statistics, surfaced through
/// [`ExecStats`](crate::framework::ExecStats).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Strategy name.
    pub strategy: String,
    /// Candidates the strategy asked for (the paper counts these as
    /// "explored designs").
    pub asked: usize,
    /// Fresh evaluations actually synthesized and simulated.
    pub evaluated: usize,
    /// Evaluations served from the content-hash cache.
    pub cache_hits: usize,
    /// Ask/tell rounds driven (generations, for evolutionary shapes).
    pub generations: usize,
    /// Labels of the enabled objective axes the search optimized.
    pub objectives: Vec<String>,
    /// Per-axis extremes over the final front (one entry per enabled
    /// axis; empty when the front is).
    pub axes: Vec<AxisStats>,
    /// Size of the final Pareto front.
    pub front_size: usize,
    /// Final front hypervolume against [`SearchStats::hv_ref`], `None`
    /// until anything was measured. With the fixed per-run reference
    /// point this is the value the search journal's last record shows.
    pub hypervolume: Option<f64>,
    /// The hypervolume reference point, fixed at the first measured
    /// generation (raw axis units, enabled-axis order): `0.0` for
    /// maximized axes, twice the first batch's worst value for
    /// minimized ones — deterministic for a seeded search.
    pub hv_ref: Vec<f64>,
    /// Phase-timed evaluation telemetry for this run.
    pub telemetry: SearchTelemetry,
}

/// Wall-clock telemetry of one search run: where evaluation time went,
/// split into the [`EVAL_PHASES`](crate::prune::EVAL_PHASES) phases.
///
/// Equality compares only the deterministic phase *call counts* —
/// nanosecond totals differ run to run, and `SearchStats` equality
/// (exercised by the determinism suite) must hold across identical
/// seeded runs.
#[derive(Debug, Clone, Default)]
pub struct SearchTelemetry {
    /// Per-phase call counts and wall time for this run (deltas, not
    /// evaluator lifetime totals).
    pub phases: PhasesSnapshot,
    /// Wall time of the whole ask→evaluate→tell loop, milliseconds.
    pub wall_ms: f64,
    /// Cone-fold counters for this run (again a delta over the
    /// evaluator's lifetime totals): folds run and base nodes
    /// re-folded. Excluded from equality alongside the nanosecond
    /// totals, as telemetry.
    pub delta: DeltaFoldStats,
}

impl PartialEq for SearchTelemetry {
    fn eq(&self, other: &Self) -> bool {
        self.phases.counts() == other.phases.counts()
    }
}

/// One objective axis's extremes over a search's final front.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisStats {
    /// Axis label (see [`Objective::label`]).
    pub axis: String,
    /// The best front value on this axis (max for maximized axes, min
    /// otherwise).
    pub best: f64,
    /// The worst front value on this axis.
    pub worst: f64,
}

/// Everything one [`Engine::run`] produced.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Every evaluated `(genome, measurement)`, in ask order.
    pub points: Vec<(Candidate, DesignPoint)>,
    /// The non-dominated subset, maintained incrementally.
    pub archive: ParetoArchive,
    /// Exploration counters.
    pub stats: SearchStats,
}

/// The exploration driver: owns the evaluation cache (shared across
/// every strategy run on this engine) and loops ask → evaluate →
/// archive → tell until the strategy finishes or exhausts its budget.
#[derive(Debug)]
pub struct Engine<'a, 'b> {
    evaluator: &'b Evaluator<'a>,
    space: SearchSpace,
    cache: EvalCache,
    objectives: ObjectiveSet,
    /// Explicit journal sink; when absent, each run checks the
    /// `PAX_OBS_JOURNAL` environment toggle instead.
    journal: Option<Arc<StudyJournal>>,
    journal_label: String,
}

impl<'a, 'b> Engine<'a, 'b> {
    /// Creates an engine over an evaluator, optimizing the default
    /// (accuracy, area) objectives; the search space derives from the
    /// evaluator's contexts and the pruning configuration's τ steps.
    pub fn new(evaluator: &'b Evaluator<'a>, cfg: &PruneConfig) -> Self {
        Self::with_objectives(evaluator, cfg, ObjectiveSet::default())
    }

    /// [`Engine::new`] over an explicit objective space: archives,
    /// hypervolumes and strategy selection all rank by `objectives`.
    pub fn with_objectives(
        evaluator: &'b Evaluator<'a>,
        cfg: &PruneConfig,
        objectives: ObjectiveSet,
    ) -> Self {
        let space = evaluator.space(cfg);
        Self {
            evaluator,
            space,
            cache: EvalCache::new(),
            objectives,
            journal: None,
            journal_label: "study".to_owned(),
        }
    }

    /// Routes every subsequent run's generation records to `journal`
    /// (otherwise the `PAX_OBS_JOURNAL` environment toggle decides).
    /// Journals may be shared across engines — appends are whole-line
    /// atomic.
    pub fn set_journal(&mut self, journal: Arc<StudyJournal>) {
        self.journal = Some(journal);
    }

    /// The `study` field journal records carry (default `"study"`;
    /// the framework passes `model/series`).
    pub fn set_journal_label(&mut self, label: impl Into<String>) {
        self.journal_label = label.into();
    }

    /// The space strategies search over.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The engine's evaluation cache (inspection only).
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// The objective space runs on this engine optimize.
    pub fn objectives(&self) -> &ObjectiveSet {
        &self.objectives
    }

    /// Swaps the objective space for subsequent runs, keeping the
    /// evaluation cache — re-ranking already-measured designs under new
    /// objectives costs no fresh synthesis or simulation.
    pub fn set_objectives(&mut self, objectives: ObjectiveSet) {
        self.objectives = objectives;
    }

    /// Drives one strategy to completion. The cache persists across
    /// calls, so a second strategy re-measures nothing the first
    /// already paid for.
    pub fn run(&mut self, strategy: &mut dyn SearchStrategy) -> Result<SearchOutcome, StudyError> {
        let journal = match &self.journal {
            Some(journal) => Some(Arc::clone(journal)),
            None => StudyJournal::from_env()
                .map_err(|e| StudyError::Journal(e.to_string()))?
                .map(Arc::new),
        };
        let run_start = Instant::now();
        let telemetry_start = self.evaluator.telemetry();
        let delta_start = self.evaluator.delta_stats();
        let mut points = Vec::new();
        let mut archive = ParetoArchive::with_objectives(self.objectives.clone());
        let mut stats = SearchStats {
            strategy: strategy.name().to_string(),
            objectives: self.objectives.labels().iter().map(|l| l.to_string()).collect(),
            ..Default::default()
        };
        let budget = strategy.budget();
        let mut spent = 0usize;
        // Fixed once the first batch lands, so per-generation
        // hypervolumes are comparable (and monotone non-decreasing).
        let mut ref_point: Option<Vec<f64>> = None;
        loop {
            let gen_start = Instant::now();
            let batch = strategy.ask(&self.space);
            if batch.is_empty() {
                break;
            }
            stats.generations += 1;
            stats.asked += batch.len();
            let remaining = budget.map(|b| b.saturating_sub(spent));
            let (results, fresh) =
                self.evaluator.evaluate_batch(&batch, &mut self.cache, remaining)?;
            spent += fresh;
            stats.evaluated += fresh;
            stats.cache_hits += results.len() - fresh;
            // Results may be a truncated prefix when the budget ran
            // out; the strategy only learns about what was measured.
            stats.asked -= batch.len() - results.len();
            archive.extend(results.iter().map(|(_, p)| p.clone()));
            strategy.tell(&results, &self.objectives);
            if ref_point.is_none() && !results.is_empty() {
                ref_point = Some(reference_point(&self.objectives, results.iter().map(|(_, p)| p)));
            }
            if let Some(journal) = &journal {
                let hv = ref_point
                    .as_ref()
                    .filter(|_| !archive.is_empty())
                    .map(|r| archive.hypervolume(r));
                let event = JournalEvent {
                    study: self.journal_label.clone(),
                    strategy: stats.strategy.clone(),
                    gen: stats.generations as u64 - 1,
                    asked: results.len() as u64,
                    fresh: fresh as u64,
                    cached: (results.len() - fresh) as u64,
                    front: archive.len() as u64,
                    hypervolume: hv,
                    ref_point: ref_point.clone().unwrap_or_default(),
                    axes: axis_stats(&self.objectives, archive.front())
                        .into_iter()
                        .map(|a| AxisExtreme { axis: a.axis, best: a.best, worst: a.worst })
                        .collect(),
                    wall_ms: gen_start.elapsed().as_secs_f64() * 1e3,
                };
                journal.append(&event).map_err(|e| StudyError::Journal(e.to_string()))?;
            }
            points.extend(results);
            if remaining.is_some_and(|r| fresh >= r) {
                break;
            }
        }
        stats.axes = axis_stats(&self.objectives, archive.front());
        stats.front_size = archive.len();
        stats.hypervolume =
            ref_point.as_ref().filter(|_| !archive.is_empty()).map(|r| archive.hypervolume(r));
        stats.hv_ref = ref_point.unwrap_or_default();
        stats.telemetry = SearchTelemetry {
            phases: self.evaluator.telemetry().since(&telemetry_start),
            wall_ms: run_start.elapsed().as_secs_f64() * 1e3,
            delta: self.evaluator.delta_stats().since(&delta_start),
        };
        Ok(SearchOutcome { points, archive, stats })
    }
}

/// The fixed hypervolume reference point derived from the first
/// measured batch: `0.0` for maximized axes (any positive value
/// dominates it), twice the batch's worst value for minimized ones
/// (`1.0` when that worst is not positive, keeping the box nonempty).
/// Deterministic whenever the first batch is — seeded searches journal
/// identical reference points run to run.
fn reference_point<'p>(
    objectives: &ObjectiveSet,
    points: impl Iterator<Item = &'p DesignPoint> + Clone,
) -> Vec<f64> {
    objectives
        .enabled()
        .map(|axis| {
            if axis.objective.maximize() {
                0.0
            } else {
                let worst = points
                    .clone()
                    .map(|p| axis.objective.value(p))
                    .fold(f64::NEG_INFINITY, f64::max);
                if worst > 0.0 {
                    2.0 * worst
                } else {
                    1.0
                }
            }
        })
        .collect()
}

/// Per-axis extremes of a front, in enabled-axis order.
fn axis_stats(objectives: &ObjectiveSet, front: &[DesignPoint]) -> Vec<AxisStats> {
    if front.is_empty() {
        return Vec::new();
    }
    objectives
        .enabled()
        .map(|axis| {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for p in front {
                let v = axis.objective.value(p);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let (best, worst) = if axis.objective.maximize() { (hi, lo) } else { (lo, hi) };
            AxisStats { axis: axis.objective.label().to_string(), best, worst }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_space_phi_tau_helpers() {
        let ctx = ContextSpace {
            gene: CoeffGene::exact(),
            gates: vec![(0.9, 3), (0.8, 1), (0.95, 3), (0.85, -1)],
        };
        assert_eq!(ctx.phis_at(0.79), vec![-1, 1, 3]);
        assert_eq!(ctx.phis_at(0.9), vec![3]);
        assert_eq!(ctx.distinct_taus(), vec![0.8, 0.85, 0.9, 0.95]);
        assert_eq!(ctx.distinct_phis(), vec![-1, 1, 3]);
        let empty = ContextSpace { gene: CoeffGene::uniform(1), gates: vec![] };
        assert_eq!(empty.distinct_phis(), vec![-1]);
    }

    #[test]
    fn search_space_lookup() {
        let space = SearchSpace {
            tau_values: vec![0.8, 0.99],
            contexts: vec![ContextSpace { gene: CoeffGene::uniform(1), gates: vec![] }],
        };
        assert!(space.context(CoeffGene::uniform(1)).is_some());
        assert!(space.context(CoeffGene::exact()).is_none());
        assert!(matches!(
            space.require(CoeffGene::exact()),
            Err(StudyError::MissingContext { gene }) if gene == CoeffGene::exact()
        ));
        assert_eq!(space.tau_bounds(), (0.8, 0.99));
    }

    #[test]
    fn coeff_gene_labels_and_distance() {
        assert!(CoeffGene::exact().is_exact());
        assert!(CoeffGene::default().is_exact());
        assert!(!CoeffGene::uniform(1).is_exact());
        assert_eq!(CoeffGene::per_layer(&[2]), CoeffGene::per_layer(&[2, 0]));
        assert_eq!(CoeffGene::per_layer(&[1, 3]).level(1), 3);
        assert_eq!(CoeffGene::per_layer(&[1, 3]).level(9), 0, "beyond the slots is exact");
        assert_eq!(CoeffGene::exact().distance(&CoeffGene::per_layer(&[2, 1])), 3);
        assert_eq!(CoeffGene::exact().to_string(), "exact");
        assert_eq!(CoeffGene::per_layer(&[2, 1]).to_string(), "2/1");
    }

    #[test]
    fn nearest_context_snaps_by_city_block_distance() {
        let space = SearchSpace {
            tau_values: vec![0.8],
            contexts: vec![
                ContextSpace { gene: CoeffGene::exact(), gates: vec![] },
                ContextSpace { gene: CoeffGene::uniform(2), gates: vec![] },
            ],
        };
        let near = space.nearest_context(CoeffGene::per_layer(&[2, 1])).unwrap();
        assert_eq!(near.gene, CoeffGene::uniform(2));
        let tie = space.nearest_context(CoeffGene::per_layer(&[1, 1])).unwrap();
        assert_eq!(tie.gene, CoeffGene::exact(), "ties fall to the earlier context");
    }
}
