//! Workspace observability, end to end: a journalled NSGA-II study must
//! emit a parseable JSONL journal with monotone non-decreasing
//! hypervolume, instrumentation must not change any measured value, and
//! served traffic must surface real tail latencies (nonzero p50 ≤ p99)
//! through both `MetricsSnapshot` and the `pax_obs` exposition formats.

use std::path::PathBuf;
use std::sync::Arc;

use pax_bespoke::BespokeCircuit;
use pax_core::coeff_approx::approximate_model;
use pax_core::explore::{
    CoeffGene, Engine, EvalContext, Evaluator, Nsga2, Nsga2Config, SearchOutcome,
};
use pax_core::framework::{Framework, FrameworkConfig};
use pax_ml::quant::{QuantSpec, QuantizedModel};
use pax_ml::synth_data::blobs;
use pax_ml::train::svm::{train_svm_classifier, SvmParams};
use pax_obs::{JournalEvent, SampleValue, StudyJournal};
use pax_serve::{EngineConfig, ServeEngine};

/// Runs a small NSGA-II study on a blobs classifier, journalling to
/// `journal` when given, and returns the outcome.
fn run_study(journal: Option<&PathBuf>) -> SearchOutcome {
    let data = blobs("obs-study", 220, 3, 3, 0.09, 13);
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let svm = train_svm_classifier(&train, &SvmParams { epochs: 60, ..Default::default() }, 5);
    let model = QuantizedModel::from_linear_classifier("obs-study", &svm, QuantSpec::default());

    let fw = Framework::new(FrameworkConfig::default());
    fw.cache().build_range(model.spec.input_bits, model.spec.coef_bits);
    let (approx, _) = approximate_model(&model, fw.cache(), &fw.config().coeff);
    let base_nl = pax_synth::opt::optimize(&BespokeCircuit::generate(&model).netlist);
    let approx_nl = pax_synth::opt::optimize(&BespokeCircuit::generate(&approx).netlist);
    let base_analysis = pax_core::prune::analyze(&base_nl, &model, &train);
    let approx_analysis = pax_core::prune::analyze(&approx_nl, &approx, &train);
    let contexts = vec![
        EvalContext {
            coeff: CoeffGene::exact(),
            netlist: &base_nl,
            model: &model,
            analysis: base_analysis,
        },
        EvalContext {
            coeff: CoeffGene::uniform(1),
            netlist: &approx_nl,
            model: &approx,
            analysis: approx_analysis,
        },
    ];

    let evaluator = Evaluator::new(fw.library(), &fw.config().tech, &test, contexts);
    let mut engine = Engine::new(&evaluator, &fw.config().prune);
    if let Some(path) = journal {
        engine.set_journal(Arc::new(StudyJournal::create(path).expect("create journal")));
        engine.set_journal_label("obs-study/nsga2".to_owned());
    }
    let mut nsga = Nsga2::new(Nsga2Config {
        population: 6,
        generations: 6,
        max_evals: 36,
        seed: 23,
        ..Default::default()
    });
    engine.run(&mut nsga).expect("journalled study")
}

#[test]
fn journal_lines_parse_and_hypervolume_is_monotone() {
    let dir = std::env::temp_dir().join("pax-obs-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("study_journal.jsonl");
    std::fs::remove_file(&path).ok();

    let outcome = run_study(Some(&path));
    let text = std::fs::read_to_string(&path).expect("journal written");
    std::fs::remove_file(&path).ok();

    let events: Vec<JournalEvent> = text
        .lines()
        .map(|line| JournalEvent::parse(line).unwrap_or_else(|e| panic!("{e}: {line}")))
        .collect();
    assert_eq!(events.len(), outcome.stats.generations, "one event per ask/tell generation");

    let mut prev_hv = f64::NEG_INFINITY;
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.study, "obs-study/nsga2");
        assert_eq!(e.strategy, "nsga2");
        assert_eq!(e.gen, i as u64, "generation indices are sequential");
        assert_eq!(e.asked, e.fresh + e.cached, "asked splits into fresh + cached");
        assert!(e.front > 0, "archive never empties after the first tell");
        assert!(!e.axes.is_empty(), "per-axis extremes recorded");
        assert!(e.wall_ms >= 0.0);
        let hv = e.hypervolume.expect("journalled runs compute hypervolume");
        assert!(
            hv + 1e-12 >= prev_hv,
            "hypervolume must be monotone non-decreasing: gen {i} has {hv} < {prev_hv}"
        );
        prev_hv = hv;
    }

    // The final stats agree with the last journal record.
    let last = events.last().unwrap();
    assert_eq!(outcome.stats.front_size as u64, last.front);
    let final_hv = outcome.stats.hypervolume.expect("journalled run records hypervolume");
    assert!((final_hv - last.hypervolume.unwrap()).abs() < 1e-9);

    // Phase spans attributed the evaluator's work.
    let counts = outcome.stats.telemetry.phases.counts();
    let calls = |name: &str| counts.iter().find(|(n, _)| *n == name).map_or(0, |(_, c)| *c);
    assert!(calls("masked-sim") > 0, "masked-sim span must tick: {counts:?}");
    assert!(calls("score") > 0, "score span must tick: {counts:?}");
}

#[test]
fn instrumentation_changes_no_measured_values() {
    let dir = std::env::temp_dir().join("pax-obs-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("differential_journal.jsonl");
    std::fs::remove_file(&path).ok();

    let plain = run_study(None);
    let journalled = run_study(Some(&path));
    std::fs::remove_file(&path).ok();

    assert_eq!(plain.points, journalled.points, "journalling must not steer the search");
    assert_eq!(plain.stats.evaluated, journalled.stats.evaluated);
    assert_eq!(plain.stats.front_size, journalled.stats.front_size);
}

#[test]
fn served_traffic_surfaces_tail_latency_and_exposition() {
    let data = blobs("obs-serve", 220, 3, 3, 0.09, 17);
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let svm = train_svm_classifier(&train, &SvmParams { epochs: 60, ..Default::default() }, 5);
    let model = QuantizedModel::from_linear_classifier("obs-serve", &svm, QuantSpec::default());
    let fw = Framework::new(FrameworkConfig::default());
    let study = fw.try_run_study(&model, &train, &test).expect("study");
    let artifact = fw.export_artifact(&model, &train, &study.baseline);

    let engine = ServeEngine::new(EngineConfig::default());
    engine.register(artifact.clone()).unwrap();
    let rows: Vec<Vec<i64>> =
        test.features.iter().map(|x| artifact.model.quantize_input(x)).collect();
    engine.classify("obs-serve", &rows).expect("serving must succeed");

    let snap = engine.metrics("obs-serve").unwrap();
    assert!(snap.p50_latency_ms > 0.0, "nonzero p50 after live traffic");
    assert!(snap.p99_latency_ms > 0.0, "nonzero p99 after live traffic");
    assert!(snap.p50_latency_ms <= snap.p99_latency_ms, "p50 must not exceed p99");
    assert_eq!(snap.queue_depth, 0, "drained engine reports an empty queue");

    let telemetry = engine.telemetry();
    match telemetry.get("serve", "latency_ns", "obs-serve") {
        Some(SampleValue::Histogram(h)) => {
            assert_eq!(h.count, rows.len() as u64);
            assert!(h.p50() > 0 && h.p50() <= h.p99());
        }
        other => panic!("expected a latency histogram sample, got {other:?}"),
    }
    let prom = telemetry.to_prometheus();
    assert!(prom.contains("pax_serve_completed{label=\"obs-serve\"}"), "{prom}");
    assert!(prom.contains("quantile=\"0.99\""), "{prom}");
    let table = telemetry.to_table();
    assert!(table.contains("shard_queue_depth"), "{table}");
    engine.shutdown();
}
