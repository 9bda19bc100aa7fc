//! The end-to-end cross-layer approximation framework.
//!
//! [`Framework::try_run_study`] executes the paper's full flow for one
//! trained, quantized model:
//!
//! 1. generate + optimize the **exact bespoke baseline** (black
//!    triangle) and measure it;
//! 2. apply the **coefficient approximation** and measure the resulting
//!    circuit (red star);
//! 3. run the full **pruning exploration on the baseline** (gray ×);
//! 4. run it **on the coefficient-approximated circuit** — the
//!    cross-layer designs (green dots);
//!
//! returning every evaluated design, per-stage wall-clock (Table III)
//! and helpers for the Pareto front (Fig. 3) and the <1%-loss area
//! optimum (Table II).
//!
//! Both pruning explorations run on the pluggable
//! [`explore`](crate::explore) engine; [`FrameworkConfig::search`]
//! selects the strategy (exhaustive grid by default, evolutionary
//! NSGA-II via [`SearchConfig::nsga2`]) and the [`ObjectiveSet`] the
//! exploration optimizes (accuracy × area by default, any subset of accuracy /
//! area / power / delay), and [`Framework::try_run_study_with`]
//! overrides both per study.

use std::time::Instant;

use egt_pdk::{Library, TechParams};
use pax_bespoke::{try_evaluate_compiled, BespokeCircuit};
use pax_ml::quant::{ModelKind, QuantizedModel};
use pax_ml::Dataset;
use pax_sim::CompiledNetlist;
use pax_synth::{area, opt};

use crate::coeff_approx::{approximate_model, CoeffApproxConfig, CoeffApproxReport};
use crate::error::StudyError;
use crate::explore::{
    CoeffAxis, CoeffGene, Engine, EvalContext, Evaluator, ExhaustiveGrid, Nsga2, Nsga2Config,
    ObjectiveSet, SearchStats, SearchStrategy,
};
use crate::mult_cache::MultCache;
use crate::prune::{analyze, analyze_compiled, apply_set, PruneConfig};
use crate::{pareto, DesignPoint, Technique};

/// Which search shape drives the pruning exploration.
///
/// Strategy objects themselves are stateful, so the configuration
/// stores a *recipe*; [`SearchConfig::build`] instantiates a fresh
/// strategy per exploration. Custom [`SearchStrategy`] implementations
/// plug in through [`Framework::try_run_study_with`].
#[derive(Debug, Clone, PartialEq, Default)]
pub enum StrategyConfig {
    /// The paper-faithful exhaustive `(τc, φc)` sweep (the default).
    #[default]
    Exhaustive,
    /// Seeded NSGA-II-style evolutionary search under an evaluation
    /// budget.
    Nsga2(Nsga2Config),
}

/// The full search configuration: a strategy recipe plus the objective
/// space it optimizes (accuracy ↑ × area ↓ by default; any subset of
/// accuracy/area/power/delay via [`ObjectiveSet`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchConfig {
    /// The search shape (exhaustive grid by default).
    pub strategy: StrategyConfig,
    /// The objective axes dominance, archives and evolutionary
    /// selection rank by.
    pub objectives: ObjectiveSet,
    /// Coefficient-approximation error widths opened as a graded
    /// search axis: `levels[k - 1]` is the `e` a gene level `k` maps
    /// to (level 0 is always exact). Empty (the default) keeps the
    /// paper-faithful two-pass flow — one pruning exploration on the
    /// exact baseline, one on the `e`-approximated circuit. Non-empty
    /// runs **one joint exploration** whose search space holds the
    /// exact base circuit plus every per-layer gene combination over
    /// these widths (see [`Evaluator::with_coeff_axis`]).
    pub coeff_levels: Vec<i64>,
    /// Prior survivors injected into an evolutionary search's
    /// generation 0 ([`SearchConfig::seed_front`]). Ignored by the
    /// exhaustive grid, which enumerates everything regardless.
    pub seed_front: Vec<DesignPoint>,
}

impl SearchConfig {
    /// The paper-faithful default: exhaustive sweep over (accuracy,
    /// area).
    pub fn exhaustive() -> Self {
        Self::default()
    }

    /// Evolutionary search under the default (accuracy, area)
    /// objectives.
    pub fn nsga2(cfg: Nsga2Config) -> Self {
        Self { strategy: StrategyConfig::Nsga2(cfg), ..Default::default() }
    }

    /// Replaces the objective space (builder style).
    pub fn with_objectives(mut self, objectives: ObjectiveSet) -> Self {
        self.objectives = objectives;
        self
    }

    /// Opens the coefficient-approximation axis (builder style): the
    /// ascending error widths gene levels `1..` map to. See
    /// [`SearchConfig::coeff_levels`].
    pub fn with_coeff_levels(mut self, levels: Vec<i64>) -> Self {
        self.coeff_levels = levels;
        self
    }

    /// Warm-starts the search with a previously found front (builder
    /// style): an evolutionary strategy injects these survivors into
    /// its generation 0, so a follow-up study — a re-run under new
    /// objectives, a finer coefficient axis, a bigger budget — resumes
    /// from the prior front instead of rediscovering it. See
    /// [`Nsga2::with_seed_front`] for the genome-reconstruction rules.
    #[must_use]
    pub fn seed_front(mut self, front: &[DesignPoint]) -> Self {
        self.seed_front = front.to_vec();
        self
    }

    /// Instantiates a fresh strategy from the recipe.
    pub fn build(&self) -> Box<dyn SearchStrategy> {
        match &self.strategy {
            StrategyConfig::Exhaustive => Box::new(ExhaustiveGrid::new()),
            StrategyConfig::Nsga2(cfg) => {
                Box::new(Nsga2::new(cfg.clone()).with_seed_front(&self.seed_front))
            }
        }
    }
}

/// Framework configuration.
#[derive(Debug, Clone, Default)]
pub struct FrameworkConfig {
    /// Coefficient-approximation settings (`e = 4` by default).
    pub coeff: CoeffApproxConfig,
    /// Pruning exploration settings (τc ∈ [80%, 99%]).
    pub prune: PruneConfig,
    /// Technology operating point (clock, battery, I/O floor).
    pub tech: TechParams,
    /// Search strategy driving both pruning explorations (exhaustive
    /// grid by default).
    pub search: SearchConfig,
}

/// Per-stage wall-clock of one study — the paper's Table III measures
/// the same breakdown (their Xeon server needed 1–48 minutes per
/// circuit; this in-process reproduction is considerably faster).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Baseline generation + measurement, in ms.
    pub baseline_ms: u128,
    /// Coefficient approximation (including multiplier-cache fill), ms.
    pub coeff_ms: u128,
    /// Pruning exploration on the baseline, ms. Zero in joint mode
    /// ([`SearchConfig::coeff_levels`] non-empty), where one
    /// exploration covers both series and bills `prune_cross_ms`.
    pub prune_baseline_ms: u128,
    /// Pruning exploration on the approximated circuit, ms (the whole
    /// joint exploration in joint mode).
    pub prune_cross_ms: u128,
    /// Number of (τc, φc) designs explored across both prunings.
    pub designs_explored: usize,
    /// Number of distinct prunings actually synthesized and simulated.
    pub designs_unique: usize,
    /// Per-exploration search statistics (baseline pruning first, then
    /// the cross-layer pruning).
    pub search: Vec<SearchStats>,
}

impl ExecStats {
    /// Total framework time in ms.
    pub fn total_ms(&self) -> u128 {
        self.baseline_ms + self.coeff_ms + self.prune_baseline_ms + self.prune_cross_ms
    }
}

/// Everything the framework produced for one model.
#[derive(Debug, Clone)]
pub struct CircuitStudy {
    /// Model/dataset identifier.
    pub name: String,
    /// Model family.
    pub kind: ModelKind,
    /// The exact bespoke design.
    pub baseline: DesignPoint,
    /// The coefficient-approximation-only design.
    pub coeff: DesignPoint,
    /// All pruning-only designs (pruned baselines).
    pub prune_only: Vec<DesignPoint>,
    /// All cross-layer designs (pruned approximated circuits).
    pub cross: Vec<DesignPoint>,
    /// Details of the coefficient approximation.
    pub coeff_report: CoeffApproxReport,
    /// Wall-clock breakdown.
    pub stats: ExecStats,
}

impl CircuitStudy {
    /// All evaluated designs, baseline first.
    pub fn all_points(&self) -> Vec<&DesignPoint> {
        std::iter::once(&self.baseline)
            .chain(std::iter::once(&self.coeff))
            .chain(self.prune_only.iter())
            .chain(self.cross.iter())
            .collect()
    }

    /// The Pareto-optimal designs over all techniques (accuracy ↑,
    /// area ↓), cloned in ascending-area order. Built on the
    /// incremental [`ParetoArchive`](crate::explore::ParetoArchive);
    /// `proptest_explore` pins its equivalence to the batch
    /// [`pareto::pareto_front`].
    pub fn pareto_front(&self) -> Vec<DesignPoint> {
        let mut archive = crate::explore::ParetoArchive::new();
        archive.extend(self.all_points().into_iter().cloned());
        archive.into_front()
    }

    /// The paper's Table II selection: per technique, the minimum-area
    /// design losing less than `max_loss` accuracy against the baseline.
    /// The baseline itself qualifies for `PruneOnly`/`Cross` series if
    /// nothing better exists (zero-gain entries appear in the paper's
    /// table too).
    pub fn best_within_loss(&self, technique: Technique, max_loss: f64) -> DesignPoint {
        let min_acc = self.baseline.accuracy - max_loss;
        let candidates: Vec<DesignPoint> = match technique {
            Technique::Exact => vec![self.baseline.clone()],
            Technique::CoeffApprox => vec![self.coeff.clone(), self.baseline.clone()],
            Technique::PruneOnly => {
                let mut v = self.prune_only.clone();
                v.push(self.baseline.clone());
                v
            }
            Technique::Cross => {
                let mut v = self.cross.clone();
                v.push(self.coeff.clone());
                v.push(self.baseline.clone());
                v
            }
        };
        let idx =
            pareto::best_area_within(&candidates, min_acc).expect("the baseline always qualifies");
        candidates[idx].clone()
    }
}

/// The cross-layer approximation framework.
#[derive(Debug)]
pub struct Framework {
    lib: Library,
    cfg: FrameworkConfig,
    cache: MultCache,
}

impl Framework {
    /// Creates a framework over the built-in EGT library.
    pub fn new(cfg: FrameworkConfig) -> Self {
        Self::with_library(egt_pdk::egt_library(), cfg)
    }

    /// Creates a framework over a custom printed library.
    pub fn with_library(lib: Library, cfg: FrameworkConfig) -> Self {
        let cache = MultCache::new(lib.clone());
        Self { lib, cfg, cache }
    }

    /// The framework's configuration.
    pub fn config(&self) -> &FrameworkConfig {
        &self.cfg
    }

    /// The shared bespoke-multiplier area cache.
    pub fn cache(&self) -> &MultCache {
        &self.cache
    }

    /// The library in use.
    pub fn library(&self) -> &Library {
        &self.lib
    }

    /// Measures one circuit: test-set accuracy (and its switching
    /// activity), area, power, timing. Compiles the netlist for the one
    /// simulation; when the same circuit is measured *and* analyzed for
    /// pruning, [`Framework::try_measure_compiled`] shares one tape.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError`] when the library does not cover the
    /// netlist or the stimulus cannot be simulated.
    pub fn try_measure(
        &self,
        netlist: &pax_netlist::Netlist,
        model: &QuantizedModel,
        test: &Dataset,
        technique: Technique,
    ) -> Result<DesignPoint, StudyError> {
        self.try_measure_compiled(
            &CompiledNetlist::compile(netlist),
            netlist,
            model,
            test,
            technique,
        )
    }

    /// [`Framework::try_measure`] over an already-compiled netlist: the
    /// study flow compiles each design point once and reuses the tape
    /// across every simulation of that point.
    ///
    /// # Errors
    ///
    /// See [`Framework::try_measure`].
    pub fn try_measure_compiled(
        &self,
        compiled: &CompiledNetlist,
        netlist: &pax_netlist::Netlist,
        model: &QuantizedModel,
        test: &Dataset,
        technique: Technique,
    ) -> Result<DesignPoint, StudyError> {
        let outcome = try_evaluate_compiled(compiled, model, test)?;
        let area = area::area_mm2(netlist, &self.lib)?;
        let power =
            pax_sim::power::power(netlist, &self.lib, &self.cfg.tech, &outcome.sim.activity)?;
        let timing = pax_sta::analyze(netlist, &self.lib, &self.cfg.tech)?;
        Ok(DesignPoint {
            technique,
            tau_c: None,
            phi_c: None,
            coeff: None,
            accuracy: outcome.accuracy,
            area_mm2: area,
            power_mw: power.total_mw(),
            gate_count: netlist.gate_count(),
            critical_ms: timing.critical_path_ms,
        })
    }

    /// Runs the complete flow on one quantized model, with the pruning
    /// exploration driven by the configured search strategy.
    ///
    /// `train` drives τ estimation (the paper simulates the training
    /// set for the SAIF dump) while `test` drives every accuracy and
    /// power figure.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError`] when the library does not cover a
    /// synthesized circuit or a stimulus cannot be simulated.
    pub fn try_run_study(
        &self,
        model: &QuantizedModel,
        train: &Dataset,
        test: &Dataset,
    ) -> Result<CircuitStudy, StudyError> {
        self.try_run_study_with(model, train, test, &self.cfg.search)
    }

    /// [`Framework::try_run_study`] under an explicit search strategy,
    /// overriding [`FrameworkConfig::search`] — grid and evolutionary
    /// explorations of one model without rebuilding the framework.
    /// Every study entry point funnels here.
    ///
    /// # Errors
    ///
    /// See [`Framework::try_run_study`].
    pub fn try_run_study_with(
        &self,
        model: &QuantizedModel,
        train: &Dataset,
        test: &Dataset,
        search: &SearchConfig,
    ) -> Result<CircuitStudy, StudyError> {
        // 1. Exact bespoke baseline. Compiled once: the tape serves the
        //    baseline measurement here and the τ analysis in step 3.
        let t0 = Instant::now();
        let base_circuit = {
            let c = BespokeCircuit::generate(model);
            c.with_netlist(opt::optimize(&c.netlist))
        };
        let base_tape = CompiledNetlist::compile(&base_circuit.netlist);
        let baseline = self.try_measure_compiled(
            &base_tape,
            &base_circuit.netlist,
            model,
            test,
            Technique::Exact,
        )?;
        let baseline_ms = t0.elapsed().as_millis();

        // 2. Coefficient approximation (multiplier cache fill is part of
        //    the paper's step-1 cost).
        let t1 = Instant::now();
        self.cache.build_range(model.spec.input_bits, model.spec.coef_bits);
        if model.kind.is_mlp() && model.hidden_width > 0 {
            self.cache.build_range(model.hidden_width, model.spec.coef_bits);
        }
        let (approx_model, coeff_report) = approximate_model(model, &self.cache, &self.cfg.coeff);
        let approx_circuit = {
            let c = BespokeCircuit::generate(&approx_model);
            c.with_netlist(opt::optimize(&c.netlist))
        };
        let approx_tape = CompiledNetlist::compile(&approx_circuit.netlist);
        let coeff = self.try_measure_compiled(
            &approx_tape,
            &approx_circuit.netlist,
            &approx_model,
            test,
            Technique::CoeffApprox,
        )?;
        let coeff_ms = t1.elapsed().as_millis();

        // 3 + 4. Pruning exploration(s). With an empty coeff-levels
        // ladder this is the paper-faithful two-pass flow (baseline
        // sweep, then the cross-layer sweep on the `e`-approximated
        // circuit) — bit-identical to the pre-axis framework. A
        // non-empty ladder instead runs ONE joint exploration whose
        // space holds the exact base plus every graded gene, and the
        // resulting points split into the two series by technique.
        let (prune_only, cross, prune_baseline_ms, prune_cross_ms, search_stats) =
            if search.coeff_levels.is_empty() {
                // 3. Pruning exploration on the baseline (gray ×).
                let t2 = Instant::now();
                let (prune_only, stats_a) = self.explore_series(
                    &base_circuit,
                    &base_tape,
                    model,
                    train,
                    test,
                    CoeffGene::exact(),
                    search,
                )?;
                let prune_baseline_ms = t2.elapsed().as_millis();

                // 4. Pruning exploration on the approximated circuit
                //    (green dots) — the cross-layer designs. The gene
                //    sets ladder index 1 on exactly the layers the
                //    model has, matching what a joint coeff axis would
                //    label the same base circuit — so the recorded
                //    `DesignPoint::coeff` agrees across the two routes.
                let t3 = Instant::now();
                let layers = model
                    .sum_shapes()
                    .iter()
                    .map(|&(layer, _, _)| layer + 1)
                    .max()
                    .unwrap_or(1)
                    .min(crate::explore::MAX_COEFF_LAYERS);
                let (cross, stats_b) = self.explore_series(
                    &approx_circuit,
                    &approx_tape,
                    &approx_model,
                    train,
                    test,
                    CoeffGene::per_layer(&vec![1; layers]),
                    search,
                )?;
                let prune_cross_ms = t3.elapsed().as_millis();
                (prune_only, cross, prune_baseline_ms, prune_cross_ms, vec![stats_a, stats_b])
            } else {
                let t2 = Instant::now();
                let analysis = analyze_compiled(&base_tape, &base_circuit.netlist, model, train);
                let evaluator = Evaluator::new(
                    &self.lib,
                    &self.cfg.tech,
                    test,
                    vec![EvalContext {
                        coeff: CoeffGene::exact(),
                        netlist: &base_circuit.netlist,
                        model,
                        analysis,
                    }],
                )
                .with_coeff_axis(CoeffAxis {
                    model,
                    train,
                    cache: &self.cache,
                    cfg: self.cfg.coeff.clone(),
                    levels: search.coeff_levels.clone(),
                });
                let mut engine =
                    Engine::with_objectives(&evaluator, &self.cfg.prune, search.objectives.clone());
                engine.set_journal_label(format!("{}/prune-joint", model.name));
                let mut strategy = search.build();
                let outcome = engine.run(strategy.as_mut())?;
                let (mut prune_only, mut cross) = (Vec::new(), Vec::new());
                for (_, p) in outcome.points {
                    match p.technique {
                        Technique::Cross => cross.push(p),
                        _ => prune_only.push(p),
                    }
                }
                // One joint pass: the whole wall-clock lands on the
                // cross bucket, the baseline bucket stays zero.
                (prune_only, cross, 0, t2.elapsed().as_millis(), vec![outcome.stats])
            };

        Ok(CircuitStudy {
            name: model.name.clone(),
            kind: model.kind,
            baseline,
            coeff,
            prune_only,
            cross,
            coeff_report,
            stats: ExecStats {
                baseline_ms,
                coeff_ms,
                prune_baseline_ms,
                prune_cross_ms,
                designs_explored: search_stats.iter().map(|s| s.asked).sum(),
                designs_unique: search_stats.iter().map(|s| s.evaluated).sum(),
                search: search_stats,
            },
        })
    }

    /// Re-materializes the netlist of a design point selected from a
    /// study: re-applies the coefficient approximation (for
    /// `CoeffApprox`/`Cross`) and the pruning threshold pair recorded in
    /// the point. Deterministic — the returned netlist has exactly the
    /// metrics the point reported.
    pub fn materialize(
        &self,
        model: &QuantizedModel,
        train: &Dataset,
        point: &DesignPoint,
    ) -> pax_netlist::Netlist {
        self.materialize_with_model(model, train, point).0
    }

    /// Like [`Framework::materialize`], but also returns the **golden
    /// model** the netlist hardwires: for `CoeffApprox`/`Cross` points
    /// that is the coefficient-approximated model, not the input model.
    /// Serving cross-checks (see `pax-serve`) need this model — pruning
    /// is a netlist-level approximation, so the golden model predicts
    /// exactly what the *unpruned* circuit would.
    pub fn materialize_with_model(
        &self,
        model: &QuantizedModel,
        train: &Dataset,
        point: &DesignPoint,
    ) -> (pax_netlist::Netlist, QuantizedModel) {
        self.materialize_with_model_cached(model, train, point, None)
    }

    /// [`Framework::materialize_with_model`] reusing a caller-supplied
    /// [`PruneAnalysis`](crate::prune::PruneAnalysis) instead of
    /// re-simulating the training set per export.
    ///
    /// The analysis must have been computed (with `train`) on exactly
    /// the base circuit this point materializes from — the optimized
    /// bespoke netlist of the exact model for `Exact`/`PruneOnly`
    /// points, of the coefficient-approximated model for
    /// `CoeffApprox`/`Cross` points. Study drivers exporting many
    /// design points of one study already hold that analysis (it drove
    /// the exploration); threading it through here removes the
    /// dominant per-export cost. Pass `None` to recompute.
    pub fn materialize_with_model_cached(
        &self,
        model: &QuantizedModel,
        train: &Dataset,
        point: &DesignPoint,
        cached: Option<&crate::prune::PruneAnalysis>,
    ) -> (pax_netlist::Netlist, QuantizedModel) {
        let base_model = match point.technique {
            Technique::Exact | Technique::PruneOnly => model.clone(),
            Technique::CoeffApprox | Technique::Cross => {
                self.cache.build_range(model.spec.input_bits, model.spec.coef_bits);
                if model.kind.is_mlp() && model.hidden_width > 0 {
                    self.cache.build_range(model.hidden_width, model.spec.coef_bits);
                }
                approximate_model(model, &self.cache, &self.cfg.coeff).0
            }
        };
        let circuit = BespokeCircuit::generate(&base_model);
        let netlist = opt::optimize(&circuit.netlist);
        let netlist = match (point.tau_c, point.phi_c) {
            (Some(tau_c), Some(phi_c)) => {
                let computed;
                let analysis = match cached {
                    Some(a) => {
                        // A wrong-circuit analysis must fail loudly, not
                        // silently mis-prune: besides the node count,
                        // the candidate list is a structural fingerprint
                        // (it is exactly the netlist's non-free gates in
                        // id order, which two different base circuits
                        // essentially never share).
                        let candidates: Vec<pax_netlist::NetId> = netlist
                            .iter()
                            .filter_map(|(id, node)| match node {
                                pax_netlist::Node::Gate(g) if !g.kind.is_free() => Some(id),
                                _ => None,
                            })
                            .collect();
                        assert!(
                            a.tau.len() == netlist.len() && a.candidates == candidates,
                            "cached analysis does not match the materialized base circuit"
                        );
                        a
                    }
                    None => {
                        computed = analyze(&netlist, &base_model, train);
                        &computed
                    }
                };
                let set: Vec<pax_netlist::NetId> = analysis
                    .candidates
                    .iter()
                    .copied()
                    .filter(|&g| analysis.tau_of(g) >= tau_c - 1e-12 && analysis.phi_of(g) <= phi_c)
                    .collect();
                apply_set(&netlist, analysis, &set)
            }
            _ => netlist,
        };
        (netlist, base_model)
    }

    /// Bundles a selected design into a self-contained, servable
    /// [`Artifact`](crate::artifact::Artifact): the materialized netlist,
    /// the golden model it hardwires, and the recorded metrics.
    pub fn export_artifact(
        &self,
        model: &QuantizedModel,
        train: &Dataset,
        point: &DesignPoint,
    ) -> crate::artifact::Artifact {
        let (netlist, golden) = self.materialize_with_model(model, train, point);
        crate::artifact::Artifact { model: golden, netlist, point: point.clone() }
    }

    /// One pruning exploration on the [`explore::Engine`](crate::explore::Engine):
    /// analyze the base circuit once, then let the configured strategy
    /// search its `(τc, φc)` space under the configured objective set.
    /// With [`StrategyConfig::Exhaustive`] this reproduces the paper's
    /// grid (`enumerate_grid`, each distinct set measured on the
    /// rebuild oracle) point for point.
    #[allow(clippy::too_many_arguments)]
    fn explore_series(
        &self,
        circuit: &BespokeCircuit,
        tape: &CompiledNetlist,
        model: &QuantizedModel,
        train: &Dataset,
        test: &Dataset,
        gene: CoeffGene,
        search: &SearchConfig,
    ) -> Result<(Vec<DesignPoint>, SearchStats), StudyError> {
        let analysis = analyze_compiled(tape, &circuit.netlist, model, train);
        let evaluator = Evaluator::new(
            &self.lib,
            &self.cfg.tech,
            test,
            vec![EvalContext { coeff: gene, netlist: &circuit.netlist, model, analysis }],
        );
        let mut engine =
            Engine::with_objectives(&evaluator, &self.cfg.prune, search.objectives.clone());
        engine.set_journal_label(format!(
            "{}/{}",
            model.name,
            if gene.is_exact() {
                "prune-baseline".to_owned()
            } else {
                // Tag the series with the gene so journals from
                // different graded levels stay distinguishable.
                format!("prune-cross-{}", gene.tag())
            }
        ));
        let mut strategy = search.build();
        let outcome = engine.run(strategy.as_mut())?;
        Ok((outcome.points.into_iter().map(|(_, p)| p).collect(), outcome.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_ml::quant::QuantSpec;
    use pax_ml::synth_data::blobs;
    use pax_ml::train::svm::{train_svm_classifier, SvmParams};

    fn small_study() -> CircuitStudy {
        let data = blobs("fw", 260, 4, 3, 0.09, 123);
        let (train, test) = data.split(0.7, 1);
        let (train, test) = pax_ml::normalize(&train, &test);
        let m = train_svm_classifier(&train, &SvmParams { epochs: 50, ..Default::default() }, 3);
        let q = QuantizedModel::from_linear_classifier("fw", &m, QuantSpec::default());
        Framework::new(FrameworkConfig::default()).try_run_study(&q, &train, &test).expect("study")
    }

    #[test]
    fn study_produces_all_series() {
        let s = small_study();
        assert_eq!(s.baseline.technique, Technique::Exact);
        assert_eq!(s.coeff.technique, Technique::CoeffApprox);
        assert!(!s.prune_only.is_empty());
        assert!(!s.cross.is_empty());
        assert!(s.stats.designs_explored >= s.stats.designs_unique);
        assert!(s.stats.total_ms() > 0);
    }

    #[test]
    fn coefficient_approximation_shrinks_area_at_similar_accuracy() {
        let s = small_study();
        assert!(
            s.coeff.area_mm2 <= s.baseline.area_mm2,
            "coeff {} vs baseline {}",
            s.coeff.area_mm2,
            s.baseline.area_mm2
        );
        assert!(
            s.coeff.accuracy >= s.baseline.accuracy - 0.05,
            "accuracy collapsed: {} vs {}",
            s.coeff.accuracy,
            s.baseline.accuracy
        );
    }

    #[test]
    fn pareto_front_is_non_empty_and_dominant() {
        let s = small_study();
        let front = s.pareto_front();
        assert!(!front.is_empty());
        // The front must contain a point at least as accurate as any
        // other point.
        let max_acc = s.all_points().iter().map(|p| p.accuracy).fold(0.0, f64::max);
        assert!(front.iter().any(|p| (p.accuracy - max_acc).abs() < 1e-12));
    }

    #[test]
    fn materialize_reproduces_measured_metrics() {
        let data = blobs("mt", 220, 3, 3, 0.09, 321);
        let (train, test) = data.split(0.7, 1);
        let (train, test) = pax_ml::normalize(&train, &test);
        let m = train_svm_classifier(&train, &SvmParams { epochs: 40, ..Default::default() }, 3);
        let q = QuantizedModel::from_linear_classifier("mt", &m, QuantSpec::default());
        let fw = Framework::new(FrameworkConfig::default());
        let study = fw.try_run_study(&q, &train, &test).expect("study");
        // Pick an interesting cross-layer point (max pruning).
        let point = study
            .cross
            .iter()
            .min_by(|a, b| a.area_mm2.partial_cmp(&b.area_mm2).unwrap())
            .expect("cross series non-empty");
        let nl = fw.materialize(&q, &train, point);
        let re = fw.try_measure(&nl, &q, &test, point.technique).expect("measure");
        assert!((re.area_mm2 - point.area_mm2).abs() < 1e-9, "area must reproduce");
        assert!((re.accuracy - point.accuracy).abs() < 1e-12, "accuracy must reproduce");
        // The baseline materializes to the measured baseline too.
        let base_nl = fw.materialize(&q, &train, &study.baseline);
        let base_re = fw.try_measure(&base_nl, &q, &test, Technique::Exact).expect("measure");
        assert!((base_re.area_mm2 - study.baseline.area_mm2).abs() < 1e-9);
    }

    #[test]
    fn materialize_with_cached_analysis_matches_uncached() {
        let data = blobs("ca", 220, 3, 3, 0.09, 654);
        let (train, test) = data.split(0.7, 1);
        let (train, test) = pax_ml::normalize(&train, &test);
        let m = train_svm_classifier(&train, &SvmParams { epochs: 40, ..Default::default() }, 3);
        let q = QuantizedModel::from_linear_classifier("ca", &m, QuantSpec::default());
        let fw = Framework::new(FrameworkConfig::default());
        let study = fw.try_run_study(&q, &train, &test).expect("study");
        let point = study
            .prune_only
            .iter()
            .find(|p| p.tau_c.is_some())
            .expect("pruned points exist")
            .clone();
        // The analysis a study driver would already hold: computed on
        // the same optimized base circuit.
        let base = {
            let c = BespokeCircuit::generate(&q);
            opt::optimize(&c.netlist)
        };
        let analysis = analyze(&base, &q, &train);
        let (cached_nl, cached_model) =
            fw.materialize_with_model_cached(&q, &train, &point, Some(&analysis));
        let (fresh_nl, fresh_model) = fw.materialize_with_model(&q, &train, &point);
        assert_eq!(cached_nl, fresh_nl, "cached analysis must not change the materialization");
        assert_eq!(cached_model.name, fresh_model.name);
    }

    #[test]
    #[should_panic(expected = "cached analysis does not match")]
    fn mismatched_cached_analysis_is_rejected() {
        let data = blobs("cb", 220, 3, 3, 0.09, 655);
        let (train, test) = data.split(0.7, 1);
        let (train, test) = pax_ml::normalize(&train, &test);
        let m = train_svm_classifier(&train, &SvmParams { epochs: 40, ..Default::default() }, 3);
        let q = QuantizedModel::from_linear_classifier("cb", &m, QuantSpec::default());
        let fw = Framework::new(FrameworkConfig::default());
        let study = fw.try_run_study(&q, &train, &test).expect("study");
        let point = study.prune_only.iter().find(|p| p.tau_c.is_some()).unwrap().clone();
        // An analysis over a *different* (unoptimized) netlist must be
        // rejected instead of silently mis-pruning.
        let wrong = analyze(&BespokeCircuit::generate(&q).netlist, &q, &train);
        let _ = fw.materialize_with_model_cached(&q, &train, &point, Some(&wrong));
    }

    #[test]
    fn evolutionary_study_is_deterministic_and_budgeted() {
        let data = blobs("evo", 240, 4, 3, 0.09, 55);
        let (train, test) = data.split(0.7, 1);
        let (train, test) = pax_ml::normalize(&train, &test);
        let m = train_svm_classifier(&train, &SvmParams { epochs: 40, ..Default::default() }, 3);
        let q = QuantizedModel::from_linear_classifier("evo", &m, QuantSpec::default());
        let fw = Framework::new(FrameworkConfig::default());
        let search = SearchConfig::nsga2(Nsga2Config {
            population: 8,
            generations: 4,
            max_evals: 12,
            seed: 33,
            ..Default::default()
        });
        let a = fw.try_run_study_with(&q, &train, &test, &search).expect("study");
        let b = fw.try_run_study_with(&q, &train, &test, &search).expect("study");
        // Same seed, same genomes, same designs — repeated-run equality.
        assert_eq!(a.prune_only, b.prune_only);
        assert_eq!(a.cross, b.cross);
        assert_eq!(a.stats.search, b.stats.search);
        // The budget bounds fresh evaluations per exploration.
        for s in &a.stats.search {
            assert_eq!(s.strategy, "nsga2");
            assert!(s.evaluated <= 12, "budget violated: {}", s.evaluated);
        }
        assert!(!a.cross.is_empty());
    }

    #[test]
    fn joint_coeff_axis_study_splits_series_by_gene() {
        let data = blobs("joint", 240, 4, 3, 0.09, 88);
        let (train, test) = data.split(0.7, 1);
        let (train, test) = pax_ml::normalize(&train, &test);
        let m = train_svm_classifier(&train, &SvmParams { epochs: 40, ..Default::default() }, 3);
        let q = QuantizedModel::from_linear_classifier("joint", &m, QuantSpec::default());
        let fw = Framework::new(FrameworkConfig::default());
        let search = SearchConfig::exhaustive().with_coeff_levels(vec![4]);
        let s = fw.try_run_study_with(&q, &train, &test, &search).expect("study");
        // One joint exploration produced both series, split by gene.
        assert_eq!(s.stats.search.len(), 1, "one joint exploration");
        assert_eq!(s.stats.prune_baseline_ms, 0, "joint wall-clock bills the cross bucket");
        assert!(!s.prune_only.is_empty(), "exact-gene points");
        assert!(!s.cross.is_empty(), "graded-gene points");
        assert!(s.prune_only.iter().all(|p| p.technique == Technique::PruneOnly));
        assert!(s.cross.iter().all(|p| p.technique == Technique::Cross));
        // With one graded level equal to the configured `e`, the joint
        // cross series matches the legacy two-pass cross series point
        // for point (same base circuit, same sweep).
        let legacy = fw.try_run_study(&q, &train, &test).expect("study");
        assert_eq!(s.cross, legacy.cross, "level-1 gene reproduces the two-pass cross sweep");
        assert_eq!(s.prune_only, legacy.prune_only, "exact gene reproduces the baseline sweep");
        // Determinism: the joint flow reproduces itself.
        let again = fw.try_run_study_with(&q, &train, &test, &search).expect("study");
        assert_eq!(s.cross, again.cross);
        assert_eq!(s.prune_only, again.prune_only);
    }

    #[test]
    fn three_objective_study_surfaces_per_axis_stats() {
        let data = blobs("nd", 240, 4, 3, 0.09, 77);
        let (train, test) = data.split(0.7, 1);
        let (train, test) = pax_ml::normalize(&train, &test);
        let m = train_svm_classifier(&train, &SvmParams { epochs: 40, ..Default::default() }, 3);
        let q = QuantizedModel::from_linear_classifier("nd", &m, QuantSpec::default());
        let fw = Framework::new(FrameworkConfig::default());
        let search = SearchConfig::exhaustive()
            .with_objectives(crate::explore::ObjectiveSet::accuracy_area_power());
        let s = fw.try_run_study_with(&q, &train, &test, &search).expect("study");
        for stats in &s.stats.search {
            assert_eq!(stats.objectives, vec!["accuracy", "area_mm2", "power_mw"]);
            assert_eq!(stats.axes.len(), 3, "one AxisStats per enabled axis");
            for axis in &stats.axes {
                let (lo, hi) = (axis.best.min(axis.worst), axis.best.max(axis.worst));
                assert!(lo.is_finite() && hi.is_finite());
                if axis.axis == "accuracy" {
                    assert!(axis.best >= axis.worst, "accuracy is maximized");
                } else {
                    assert!(axis.best <= axis.worst, "{} is minimized", axis.axis);
                }
            }
        }
    }

    #[test]
    fn exhaustive_engine_matches_legacy_grid_sweep() {
        // Golden reproduction: the engine-driven default study must
        // equal enumerate_grid with every distinct set measured on the
        // rebuild oracle.
        let data = blobs("legacy", 230, 3, 3, 0.09, 91);
        let (train, test) = data.split(0.7, 1);
        let (train, test) = pax_ml::normalize(&train, &test);
        let m = train_svm_classifier(&train, &SvmParams { epochs: 40, ..Default::default() }, 3);
        let q = QuantizedModel::from_linear_classifier("legacy", &m, QuantSpec::default());
        let fw = Framework::new(FrameworkConfig::default());
        let study = fw.try_run_study(&q, &train, &test).expect("study");

        let circuit = {
            let c = BespokeCircuit::generate(&q);
            c.with_netlist(opt::optimize(&c.netlist))
        };
        let analysis = analyze(&circuit.netlist, &q, &train);
        let grid = crate::prune::enumerate_grid(&analysis, &fw.config().prune);
        let evals: Vec<_> = grid
            .sets
            .iter()
            .map(|set| {
                crate::prune::try_evaluate_set_rebuild(
                    &circuit.netlist,
                    &q,
                    &test,
                    fw.library(),
                    &fw.config().tech,
                    &analysis,
                    set,
                )
                .unwrap()
            })
            .collect();
        let legacy: Vec<DesignPoint> = grid
            .combos
            .iter()
            .map(|combo| {
                let e = &evals[combo.set];
                DesignPoint {
                    technique: Technique::PruneOnly,
                    tau_c: Some(combo.tau_c),
                    phi_c: Some(combo.phi_c),
                    coeff: None,
                    accuracy: e.accuracy,
                    area_mm2: e.area_mm2,
                    power_mw: e.power_mw,
                    gate_count: e.gate_count,
                    critical_ms: e.critical_ms,
                }
            })
            .collect();
        assert_eq!(study.prune_only, legacy, "engine sweep must be bit-for-bit identical");
        assert_eq!(study.stats.search[0].asked, grid.n_designs());
        assert_eq!(study.stats.search[0].evaluated, grid.n_unique());
    }

    #[test]
    fn table2_selection_respects_loss_budget() {
        let s = small_study();
        for t in [Technique::CoeffApprox, Technique::PruneOnly, Technique::Cross] {
            let best = s.best_within_loss(t, 0.01);
            assert!(best.accuracy >= s.baseline.accuracy - 0.01 - 1e-12);
            assert!(best.area_mm2 <= s.baseline.area_mm2 + 1e-9);
        }
        let cross = s.best_within_loss(Technique::Cross, 0.01);
        let coeff = s.best_within_loss(Technique::CoeffApprox, 0.01);
        assert!(cross.area_mm2 <= coeff.area_mm2 + 1e-9, "cross can use coeff's design");
    }
}
