//! Differential pinning of overlay evaluation against the rebuild
//! pipeline.
//!
//! Overlay evaluation (`OverlayContext`: cone pass on the shared tape +
//! cone fold + incremental re-timing) replaces the per-candidate
//! re-synthesize/recompile/re-simulate pipeline everywhere. Its
//! admission ticket is **bit-for-bit equality on every measured axis**
//! — accuracy, area, power, critical-path delay (and gate counts) —
//! against the legacy pipeline, which is kept as
//! `try_evaluate_set_rebuild` solely to serve as this suite's oracle.
//!
//! Covered here, on real bespoke circuits (classifier *and* regressor,
//! so both score-decoding paths run):
//!
//! * random `(τc, φc)` candidates, random chains of them through one
//!   reused `EvalScratch`, and every distinct set of the paper's grid
//!   → bit-equal `PruneEval`s;
//! * the public `Evaluator` paths (`EvalMode::Overlay` vs
//!   `EvalMode::Rebuild`) producing identical `DesignPoint`s;
//! * every `Evaluator` path (overlay, rebuild, fabric) surfacing
//!   library gaps as `StudyError` instead of panicking;
//! * evaluator telemetry counting each evaluation once, in-process and
//!   through a fabric;
//! * a lazy coefficient axis, whose contexts build across the worker
//!   pool, matching contexts built one at a time and given up front.
//!
//! Run with a fixed seed (`PAX_PROPTEST_SEED=<n>`) for reproducible
//! case streams — CI pins one in the `overlay-differential` job.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use egt_pdk::{Library, TechParams};
use pax_bespoke::BespokeCircuit;
use pax_core::coeff_approx::{approximate_model_layers, CoeffApproxConfig};
use pax_core::explore::{
    Candidate, CoeffAxis, CoeffGene, Engine, EvalCache, EvalContext, EvalFabric, EvalMode,
    Evaluator, ExhaustiveGrid, FabricError, FabricJob, SearchSpace, MAX_COEFF_LAYERS,
};
use pax_core::mult_cache::MultCache;
use pax_core::prune::{
    analyze, enumerate_grid, try_evaluate_set_rebuild, EvalScratch, OverlayContext, PruneAnalysis,
    PruneConfig, PruneEval,
};
use pax_core::StudyError;
use pax_ml::quant::{QuantSpec, QuantizedModel};
use pax_ml::synth_data::blobs;
use pax_ml::Dataset;
use pax_netlist::NetId;
use proptest::prelude::*;

struct Fixture {
    circuit: BespokeCircuit,
    analysis: PruneAnalysis,
    test: Dataset,
}

fn classifier_fixture(seed: u64) -> Fixture {
    let data = blobs("ovc", 260, 3, 3, 0.09, 40 + (seed % 5));
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let m = pax_ml::train::svm::train_svm_classifier(
        &train,
        &pax_ml::train::svm::SvmParams { epochs: 50, ..Default::default() },
        3,
    );
    let q = QuantizedModel::from_linear_classifier("ovc", &m, QuantSpec::default());
    let c = BespokeCircuit::generate(&q);
    let circuit = c.with_netlist(pax_synth::opt::optimize(&c.netlist));
    let analysis = analyze(&circuit.netlist, &circuit.model, &train);
    Fixture { circuit, analysis, test }
}

fn regressor_fixture(seed: u64) -> Fixture {
    let data = blobs("ovr", 240, 3, 3, 0.1, 90 + (seed % 5));
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let m = pax_ml::train::svr::train_svr(
        &train,
        &pax_ml::train::svr::SvrParams { epochs: 60, ..Default::default() },
        7,
    );
    let q = QuantizedModel::from_svr("ovr", &m, train.n_classes, QuantSpec::default());
    let c = BespokeCircuit::generate(&q);
    let circuit = c.with_netlist(pax_synth::opt::optimize(&c.netlist));
    let analysis = analyze(&circuit.netlist, &circuit.model, &train);
    Fixture { circuit, analysis, test }
}

/// The candidate's gate set under the paper's step-3 filter.
fn gate_set(a: &PruneAnalysis, tau_c: f64, phi_c: i64) -> Vec<NetId> {
    let mut set: Vec<NetId> = a
        .candidates
        .iter()
        .copied()
        .filter(|&g| a.tau_of(g) >= tau_c - 1e-12 && a.phi_of(g) <= phi_c)
        .collect();
    set.sort_unstable();
    set
}

fn assert_bit_equal(overlay: &PruneEval, rebuild: &PruneEval, what: &str) {
    assert_eq!(overlay.accuracy.to_bits(), rebuild.accuracy.to_bits(), "{what}: accuracy");
    assert_eq!(overlay.area_mm2.to_bits(), rebuild.area_mm2.to_bits(), "{what}: area");
    assert_eq!(overlay.power_mw.to_bits(), rebuild.power_mw.to_bits(), "{what}: power");
    assert_eq!(overlay.critical_ms.to_bits(), rebuild.critical_ms.to_bits(), "{what}: delay");
    assert_eq!(overlay.gate_count, rebuild.gate_count, "{what}: gate count");
    assert_eq!(overlay.n_pruned, rebuild.n_pruned, "{what}: n_pruned");
}

fn check_fixture(f: &Fixture, tau_c: f64, phi_c: i64) {
    let lib = egt_pdk::egt_library();
    let tech = TechParams::egt();
    let set = gate_set(&f.analysis, tau_c, phi_c);
    let ctx = OverlayContext::new(
        f.circuit.netlist.clone(),
        f.circuit.model.clone(),
        f.test.clone(),
        &lib,
        &tech,
    )
    .expect("context over the EGT library");
    let overlay =
        ctx.evaluate(&f.analysis, &set, &mut EvalScratch::default()).expect("overlay evaluation");
    let rebuild = try_evaluate_set_rebuild(
        &f.circuit.netlist,
        &f.circuit.model,
        &f.test,
        &lib,
        &tech,
        &f.analysis,
        &set,
    )
    .expect("rebuild evaluation");
    assert_bit_equal(&overlay, &rebuild, &format!("τc={tau_c} φc={phi_c} |set|={}", set.len()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Classifier circuits: overlay == rebuild on all four axes, for
    /// random threshold pairs.
    #[test]
    fn classifier_overlay_equals_rebuild(
        seed in any::<u64>(),
        tau_c in 0.5f64..1.0,
        phi_raw in -1i64..12,
    ) {
        let f = classifier_fixture(seed);
        check_fixture(&f, tau_c, phi_raw);
    }

    /// Regressor circuits exercise the `score0` dequantization path.
    #[test]
    fn regressor_overlay_equals_rebuild(
        seed in any::<u64>(),
        tau_c in 0.5f64..1.0,
        phi_raw in -1i64..12,
    ) {
        let f = regressor_fixture(seed);
        check_fixture(&f, tau_c, phi_raw);
    }

    /// One `EvalScratch` reused across a random `(τc, φc)` chain —
    /// neighbour steps and arbitrary jumps alike — must stay bit-equal
    /// to the rebuild at every link. This is the property the
    /// evaluator's per-worker scratches rely on.
    #[test]
    fn scratch_chain_equals_rebuild(
        seed in any::<u64>(),
        chain in proptest::collection::vec((0.5f64..1.0, -1i64..12), 2..7),
    ) {
        let f = classifier_fixture(seed);
        let lib = egt_pdk::egt_library();
        let tech = TechParams::egt();
        let ctx = OverlayContext::new(
            f.circuit.netlist.clone(),
            f.circuit.model.clone(),
            f.test.clone(),
            &lib,
            &tech,
        )
        .expect("context over the EGT library");
        let mut scratch = EvalScratch::default();
        for (i, &(tau_c, phi_c)) in chain.iter().enumerate() {
            let set = gate_set(&f.analysis, tau_c, phi_c);
            let got = ctx.evaluate(&f.analysis, &set, &mut scratch).expect("overlay evaluation");
            let rebuild = try_evaluate_set_rebuild(
                &f.circuit.netlist,
                &f.circuit.model,
                &f.test,
                &lib,
                &tech,
                &f.analysis,
                &set,
            )
            .expect("rebuild evaluation");
            assert_bit_equal(&got, &rebuild, &format!("chain step {i} |set|={}", set.len()));
        }
    }
}

/// Every distinct set of the paper's grid: overlay == rebuild on all
/// four axes.
#[test]
fn grid_sweep_is_bit_identical() {
    let f = classifier_fixture(1);
    let lib = egt_pdk::egt_library();
    let tech = TechParams::egt();
    let grid = enumerate_grid(&f.analysis, &PruneConfig::default());
    let reference: Vec<PruneEval> = grid
        .sets
        .iter()
        .map(|s| {
            try_evaluate_set_rebuild(
                &f.circuit.netlist,
                &f.circuit.model,
                &f.test,
                &lib,
                &tech,
                &f.analysis,
                s,
            )
            .unwrap()
        })
        .collect();
    let ctx = OverlayContext::new(
        f.circuit.netlist.clone(),
        f.circuit.model.clone(),
        f.test.clone(),
        &lib,
        &tech,
    )
    .unwrap();
    let mut scratch = EvalScratch::default();
    for (s, want) in grid.sets.iter().zip(&reference) {
        let got = ctx.evaluate(&f.analysis, s, &mut scratch).unwrap();
        assert_bit_equal(&got, want, &format!("|set|={}", s.len()));
    }
}

/// The public engine path: an `Evaluator` in overlay mode produces
/// `DesignPoint`s identical to one in rebuild mode.
#[test]
fn evaluator_modes_agree_bit_for_bit() {
    let f = classifier_fixture(2);
    let lib = egt_pdk::egt_library();
    let tech = TechParams::egt();
    let candidates: Vec<Candidate> = [(0.8, 3), (0.9, 0), (0.95, -1), (0.99, 8), (0.85, 5)]
        .iter()
        .map(|&(tau_c, phi_c)| Candidate { coeff: CoeffGene::exact(), tau_c, phi_c })
        .collect();

    let overlay_eval = Evaluator::new(&lib, &tech, &f.test, exact_context(&f));
    assert_eq!(overlay_eval.mode(), EvalMode::Overlay, "overlay is the default");
    let (a, fresh_a) =
        overlay_eval.evaluate_batch(&candidates, &mut EvalCache::new(), None).unwrap();

    let rebuild_eval =
        Evaluator::new(&lib, &tech, &f.test, exact_context(&f)).with_mode(EvalMode::Rebuild);
    let (b, fresh_b) =
        rebuild_eval.evaluate_batch(&candidates, &mut EvalCache::new(), None).unwrap();

    assert_eq!(fresh_a, fresh_b);
    assert_eq!(a.len(), b.len());
    for ((ca, pa), (cb, pb)) in a.iter().zip(&b) {
        assert_eq!(ca, cb);
        assert_eq!(pa.accuracy.to_bits(), pb.accuracy.to_bits());
        assert_eq!(pa.area_mm2.to_bits(), pb.area_mm2.to_bits());
        assert_eq!(pa.power_mw.to_bits(), pb.power_mw.to_bits());
        assert_eq!(pa.critical_ms.to_bits(), pb.critical_ms.to_bits());
        assert_eq!(pa.gate_count, pb.gate_count);
    }
}

/// The fixture's exact base circuit as the evaluator's one context.
fn exact_context(f: &Fixture) -> Vec<EvalContext<'_>> {
    vec![EvalContext {
        coeff: CoeffGene::exact(),
        netlist: &f.circuit.netlist,
        model: &f.circuit.model,
        analysis: f.analysis.clone(),
    }]
}

/// The smallest fabric: runs every job on the submitting thread and
/// counts what it was given.
#[derive(Debug, Default)]
struct InlineFabric {
    jobs: AtomicUsize,
}

impl EvalFabric for InlineFabric {
    fn submit(&self, job: FabricJob) -> Result<(), FabricError> {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        job();
        Ok(())
    }
}

/// Grid evaluation propagates library gaps as `StudyError::Library` on
/// every evaluator path — overlay, rebuild and fabric — instead of
/// panicking mid-pool. The overlay cannot even profile the base
/// circuit, so the fabric never receives a job.
#[test]
fn grid_evaluation_surfaces_library_errors() {
    let f = classifier_fixture(3);
    let empty = Library::new("empty", 1.0);
    let tech = TechParams::egt();
    let grid: Vec<Candidate> = enumerate_grid(&f.analysis, &PruneConfig::default())
        .combos
        .iter()
        .map(|c| Candidate { coeff: CoeffGene::exact(), tau_c: c.tau_c, phi_c: c.phi_c })
        .collect();
    let fabric = Arc::new(InlineFabric::default());
    let evaluators = [
        Evaluator::new(&empty, &tech, &f.test, exact_context(&f)),
        Evaluator::new(&empty, &tech, &f.test, exact_context(&f)).with_mode(EvalMode::Rebuild),
        Evaluator::new(&empty, &tech, &f.test, exact_context(&f)).with_fabric(fabric.clone()),
    ];
    for evaluator in &evaluators {
        let err = evaluator
            .evaluate_batch(&grid, &mut EvalCache::new(), None)
            .expect_err("empty library must fail, not panic");
        assert!(matches!(err, StudyError::Library(_)), "{:?}: got {err}", evaluator.mode());
    }
    assert_eq!(fabric.jobs.load(Ordering::Relaxed), 0, "no job ships for a failed context");
}

/// Every fresh evaluation lands in the per-phase call counts and the
/// fold counters exactly once, whether it ran on the local pool or as
/// a fabric job: the evaluator merges one overlay per context, never
/// two.
#[test]
fn telemetry_counts_each_evaluation_once() {
    let f = classifier_fixture(4);
    let lib = egt_pdk::egt_library();
    let tech = TechParams::egt();
    let fabric = Arc::new(InlineFabric::default());
    let local = Evaluator::new(&lib, &tech, &f.test, exact_context(&f));
    let shipped =
        Evaluator::new(&lib, &tech, &f.test, exact_context(&f)).with_fabric(fabric.clone());
    for evaluator in [&local, &shipped] {
        let stats = Engine::new(evaluator, &PruneConfig::default())
            .run(&mut ExhaustiveGrid::new())
            .expect("grid over the EGT library")
            .stats;
        let evaluated = stats.evaluated as u64;
        assert!(evaluated > 1, "the grid should need several evaluations");
        for phase in ["fold", "masked-sim", "score", "re-time"] {
            let calls = stats.telemetry.phases.get(phase).expect("evaluation phase").calls;
            assert_eq!(calls, evaluated, "{:?}: {phase} calls", evaluator.mode());
        }
        let delta = stats.telemetry.delta;
        assert_eq!(delta.delta_folds + delta.full_folds, evaluated, "{:?}", evaluator.mode());
        if evaluator.mode() == EvalMode::Fabric {
            assert_eq!(fabric.jobs.load(Ordering::Relaxed) as u64, evaluated, "one job each");
        }
    }
}

/// A training-set-carrying fixture for the coefficient-axis
/// differential: the axis materializes per-gene base circuits itself,
/// so it needs the train split the given context was analyzed with.
struct AxisFixture {
    model: QuantizedModel,
    netlist: pax_netlist::Netlist,
    analysis: PruneAnalysis,
    train: Dataset,
    test: Dataset,
}

fn axis_fixture(seed: u64) -> AxisFixture {
    let data = blobs("ovx", 240, 3, 3, 0.09, 40 + (seed % 5));
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let m = pax_ml::train::svm::train_svm_classifier(
        &train,
        &pax_ml::train::svm::SvmParams { epochs: 50, ..Default::default() },
        3,
    );
    let model = QuantizedModel::from_linear_classifier("ovx", &m, QuantSpec::default());
    let netlist = pax_synth::opt::optimize(&BespokeCircuit::generate(&model).netlist);
    let analysis = analyze(&netlist, &model, &train);
    AxisFixture { model, netlist, analysis, train, test }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The graded coefficient axis: an evaluator whose space holds the
    /// exact base plus lazily-materialized per-gene contexts must
    /// return bit-identical `DesignPoint`s in overlay and rebuild mode
    /// for candidates on *every* gene — the stacked coeff+prune
    /// admission ticket on all four measured axes.
    #[test]
    fn coeff_axis_overlay_equals_rebuild(
        seed in any::<u64>(),
        tau_c in 0.5f64..1.0,
        phi_raw in -1i64..12,
    ) {
        let f = axis_fixture(seed);
        let lib = egt_pdk::egt_library();
        let tech = TechParams::egt();
        let cache = MultCache::new(lib.clone());
        cache.build_range(f.model.spec.input_bits, f.model.spec.coef_bits);
        let contexts = || {
            vec![EvalContext {
                coeff: CoeffGene::exact(),
                netlist: &f.netlist,
                model: &f.model,
                analysis: f.analysis.clone(),
            }]
        };
        let axis = || CoeffAxis {
            model: &f.model,
            train: &f.train,
            cache: &cache,
            cfg: CoeffApproxConfig::default(),
            levels: vec![2, 4],
        };
        let overlay = Evaluator::new(&lib, &tech, &f.test, contexts()).with_coeff_axis(axis());
        let rebuild = Evaluator::new(&lib, &tech, &f.test, contexts())
            .with_coeff_axis(axis())
            .with_mode(EvalMode::Rebuild);
        // One candidate per gene: exact plus both graded levels.
        let candidates: Vec<Candidate> = overlay
            .genes()
            .into_iter()
            .map(|coeff| Candidate { coeff, tau_c, phi_c: phi_raw })
            .collect();
        prop_assert!(candidates.len() >= 3, "axis must open graded contexts");
        let (a, fresh_a) = overlay.evaluate_batch(&candidates, &mut EvalCache::new(), None).unwrap();
        let (b, fresh_b) = rebuild.evaluate_batch(&candidates, &mut EvalCache::new(), None).unwrap();
        prop_assert_eq!(fresh_a, fresh_b);
        prop_assert_eq!(a.len(), b.len());
        for ((ca, pa), (cb, pb)) in a.iter().zip(&b) {
            prop_assert_eq!(ca, cb);
            prop_assert_eq!(pa.accuracy.to_bits(), pb.accuracy.to_bits());
            prop_assert_eq!(pa.area_mm2.to_bits(), pb.area_mm2.to_bits());
            prop_assert_eq!(pa.power_mw.to_bits(), pb.power_mw.to_bits());
            prop_assert_eq!(pa.critical_ms.to_bits(), pb.critical_ms.to_bits());
            prop_assert_eq!(pa.gate_count, pb.gate_count);
        }
    }
}

/// A two-layer MLP and its splits, for the nine-gene coefficient axis
/// (`levels` 2 and 4 on both layers).
fn mlp_axis_fixture() -> AxisFixture {
    let data = blobs("ovm", 240, 3, 3, 0.09, 44);
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let mlp = pax_ml::train::mlp::train_mlp_classifier(
        &train,
        &pax_ml::train::mlp::MlpParams { hidden: 3, epochs: 60, ..Default::default() },
        5,
    );
    let model = QuantizedModel::from_mlp("ovm", &mlp, 3, QuantSpec::default());
    let netlist = pax_synth::opt::optimize(&BespokeCircuit::generate(&model).netlist);
    let analysis = analyze(&netlist, &model, &train);
    AxisFixture { model, netlist, analysis, train, test }
}

fn assert_same_space(a: &SearchSpace, b: &SearchSpace) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.tau_values), bits(&b.tau_values), "τc values");
    assert_eq!(a.contexts.len(), b.contexts.len(), "context count");
    for (ca, cb) in a.contexts.iter().zip(&b.contexts) {
        assert_eq!(ca.gene, cb.gene);
        let gates = |c: &pax_core::explore::ContextSpace| {
            c.gates.iter().map(|&(tau, phi)| (tau.to_bits(), phi)).collect::<Vec<_>>()
        };
        assert_eq!(gates(ca), gates(cb), "gate metrics of gene {}", ca.gene);
    }
}

/// Contexts built across the pool are the contexts a caller builds one
/// at a time: a lazy nine-gene MLP axis gives, bit for bit, the search
/// space and the exhaustive grid's every design point of an evaluator
/// handed each context up front, built in gene order with the axis's
/// own pipeline (approximate → generate → optimize → analyze).
#[test]
fn pooled_context_build_equals_contexts_given_up_front() {
    let f = mlp_axis_fixture();
    let lib = egt_pdk::egt_library();
    let tech = TechParams::egt();
    let cache = MultCache::new(lib.clone());
    let (cfg, levels) = (CoeffApproxConfig::default(), vec![2i64, 4]);
    let exact = EvalContext {
        coeff: CoeffGene::exact(),
        netlist: &f.netlist,
        model: &f.model,
        analysis: f.analysis.clone(),
    };
    let lazy = Evaluator::new(&lib, &tech, &f.test, vec![exact]).with_coeff_axis(CoeffAxis {
        model: &f.model,
        train: &f.train,
        cache: &cache,
        cfg: cfg.clone(),
        levels: levels.clone(),
    });
    let genes = lazy.genes();
    assert_eq!(genes.len(), 9, "two layers × three levels each");
    let built: Vec<_> = genes
        .iter()
        .map(|&gene| {
            let widths: Vec<i64> = (0..MAX_COEFF_LAYERS)
                .map(|layer| match gene.level(layer) {
                    0 => 0,
                    level => levels[usize::from(level) - 1],
                })
                .collect();
            let (model, _) = approximate_model_layers(&f.model, &cache, &cfg, &widths);
            let netlist = pax_synth::opt::optimize(&BespokeCircuit::generate(&model).netlist);
            let analysis = analyze(&netlist, &model, &f.train);
            (gene, model, netlist, analysis)
        })
        .collect();
    let given = Evaluator::new(
        &lib,
        &tech,
        &f.test,
        built
            .iter()
            .map(|(coeff, model, netlist, analysis)| EvalContext {
                coeff: *coeff,
                netlist,
                model,
                analysis: analysis.clone(),
            })
            .collect(),
    );
    let prune = PruneConfig::default();
    assert_same_space(&lazy.space(&prune), &given.space(&prune));
    let a = Engine::new(&lazy, &prune).run(&mut ExhaustiveGrid::new()).expect("lazy grid");
    let b = Engine::new(&given, &prune).run(&mut ExhaustiveGrid::new()).expect("given grid");
    assert_eq!(a.points.len(), b.points.len());
    assert!(a.points.iter().any(|(c, _)| !c.coeff.is_exact()), "the grid covers graded genes");
    for ((ca, pa), (cb, pb)) in a.points.iter().zip(&b.points) {
        assert_eq!(ca, cb);
        assert_eq!(
            (pa.technique, pa.tau_c.map(f64::to_bits), pa.phi_c, pa.coeff, pa.gate_count),
            (pb.technique, pb.tau_c.map(f64::to_bits), pb.phi_c, pb.coeff, pb.gate_count),
            "{ca:?}"
        );
        assert_eq!(pa.accuracy.to_bits(), pb.accuracy.to_bits(), "{ca:?}");
        assert_eq!(pa.area_mm2.to_bits(), pb.area_mm2.to_bits(), "{ca:?}");
        assert_eq!(pa.power_mw.to_bits(), pb.power_mw.to_bits(), "{ca:?}");
        assert_eq!(pa.critical_ms.to_bits(), pb.critical_ms.to_bits(), "{ca:?}");
    }
}

/// Building the search space needs no cell library — the pooled
/// materialization succeeds with an empty one — and the first fresh
/// evaluation still reports the gap as `StudyError::Library`.
#[test]
fn pooled_space_needs_no_library_and_evaluation_reports_it() {
    let f = axis_fixture(2);
    let empty = Library::new("empty", 1.0);
    let tech = TechParams::egt();
    let cache = MultCache::new(egt_pdk::egt_library());
    let exact = EvalContext {
        coeff: CoeffGene::exact(),
        netlist: &f.netlist,
        model: &f.model,
        analysis: f.analysis.clone(),
    };
    let evaluator =
        Evaluator::new(&empty, &tech, &f.test, vec![exact]).with_coeff_axis(CoeffAxis {
            model: &f.model,
            train: &f.train,
            cache: &cache,
            cfg: CoeffApproxConfig::default(),
            levels: vec![2, 4],
        });
    let space = evaluator.space(&PruneConfig::default());
    assert_eq!(space.contexts.len(), evaluator.genes().len());
    let batch: Vec<Candidate> =
        space.contexts.iter().map(|c| Candidate { coeff: c.gene, tau_c: 0.8, phi_c: 4 }).collect();
    let err = evaluator
        .evaluate_batch(&batch, &mut EvalCache::new(), None)
        .expect_err("an empty library cannot measure a candidate");
    assert!(matches!(err, StudyError::Library(_)), "got {err}");
}
