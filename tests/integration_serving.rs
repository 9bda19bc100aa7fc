//! End-to-end serving pipeline: train → study → export a servable
//! artifact → save → reload → register → serve — asserting that the
//! reloaded artifact reproduces its recorded [`DesignPoint`] accuracy
//! through the live engine, and that the online auditor measures zero
//! divergence for an exact design and the expected (bounded) divergence
//! for a cross-layer-approximated one.

use pax_core::artifact::Artifact;
use pax_core::framework::{Framework, FrameworkConfig};
use pax_core::Technique;
use pax_ml::quant::{QuantSpec, QuantizedModel};
use pax_ml::synth_data::blobs;
use pax_ml::train::svm::{train_svm_classifier, SvmParams};
use pax_ml::Dataset;
use pax_serve::{EngineConfig, ModelOptions, Primary, ServeEngine};

/// Offline half: train a small classifier, run the study, export the
/// chosen technique's best design as an artifact.
fn export(name: &str, technique: Technique) -> (Artifact, Dataset) {
    let data = blobs(name, 260, 3, 3, 0.09, 11);
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let svm = train_svm_classifier(&train, &SvmParams { epochs: 60, ..Default::default() }, 5);
    let model = QuantizedModel::from_linear_classifier(name, &svm, QuantSpec::default());
    let fw = Framework::new(FrameworkConfig::default());
    let study = fw.try_run_study(&model, &train, &test).expect("study");
    let point = match technique {
        Technique::Exact => study.baseline.clone(),
        t => study.best_within_loss(t, 0.03),
    };
    (fw.export_artifact(&model, &train, &point), test)
}

/// Serving-time accuracy of `engine`'s model `name` on `test`, computed
/// through real request traffic (quantize → submit → wait).
fn served_accuracy(engine: &ServeEngine, name: &str, art: &Artifact, test: &Dataset) -> f64 {
    let rows: Vec<Vec<i64>> = test.features.iter().map(|x| art.model.quantize_input(x)).collect();
    let predictions = engine.classify(name, &rows).expect("serving must succeed");
    pax_ml::metrics::accuracy(&predictions, &test.labels)
}

#[test]
fn reloaded_artifact_reproduces_recorded_accuracy_through_engine() {
    let (art, test) = export("serve-cross", Technique::Cross);
    let recorded = art.point.accuracy;

    // Save → reload through the text format.
    let dir = std::env::temp_dir().join("pax-serve-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve-cross.paxart");
    art.save(&path).unwrap();
    let reloaded = Artifact::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Offline re-measurement agrees with the recorded point…
    let offline = reloaded.measured_accuracy(&test);
    assert!(
        (offline - recorded).abs() < 1e-12,
        "reloaded artifact re-measures {offline}, recorded {recorded}"
    );

    // …and so does accuracy measured through live engine traffic.
    let engine = ServeEngine::new(EngineConfig::default());
    engine.register(reloaded.clone()).unwrap();
    let online = served_accuracy(&engine, "serve-cross", &reloaded, &test);
    assert!((online - recorded).abs() < 1e-12, "served accuracy {online}, recorded {recorded}");
    engine.shutdown();
}

/// Audits run *after* responses by design, so audit counters can lag a
/// just-returned `classify` by one batch — poll briefly before asserting.
fn settle_audits(engine: &ServeEngine, name: &str, expected: u64) -> pax_serve::MetricsSnapshot {
    for _ in 0..200 {
        let snap = engine.metrics(name).expect("model registered");
        if snap.audited_samples >= expected {
            return snap;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    engine.metrics(name).expect("model registered")
}

#[test]
fn auditor_measures_zero_divergence_on_exact_design() {
    let (art, test) = export("serve-exact", Technique::Exact);
    let engine = ServeEngine::new(EngineConfig { audit_fraction: 1.0, ..Default::default() });
    engine.register(art.clone()).unwrap();
    let _ = served_accuracy(&engine, "serve-exact", &art, &test);
    let n = test.features.len() as u64;
    let snap = settle_audits(&engine, "serve-exact", n);
    assert_eq!(snap.completed, n);
    assert!(snap.audited_samples >= snap.completed, "fraction 1.0 audits everything");
    assert_eq!(
        snap.divergence, 0.0,
        "an unapproximated circuit must never diverge from its golden model"
    );
}

#[test]
fn auditor_divergence_matches_offline_gap_on_pruned_design() {
    // A cross-layer point prunes the netlist below the golden
    // (coefficient-approximated) model, so audited divergence equals the
    // measured prediction gap between the two backends — computed here
    // offline for the exact same traffic.
    let (art, test) = export("serve-pruned", Technique::Cross);
    let rows: Vec<Vec<i64>> = test.features.iter().map(|x| art.model.quantize_input(x)).collect();
    let expected_gap = {
        use pax_serve::{Backend, NetlistBackend, QuantBackend};
        let nb = NetlistBackend::new(art.netlist.clone(), art.model.clone());
        let qb = QuantBackend::new(art.model.clone());
        let a = nb.try_classify(&rows).expect("exact batch must classify");
        let b = qb.try_classify(&rows).expect("exact batch must classify");
        a.iter().zip(&b).filter(|(x, y)| x != y).count() as f64 / rows.len() as f64
    };

    let engine = ServeEngine::new(EngineConfig { audit_fraction: 1.0, ..Default::default() });
    engine
        .register_with(
            art.clone(),
            ModelOptions { primary: Some(Primary::Netlist), ..Default::default() },
        )
        .unwrap();
    engine.classify("serve-pruned", &rows).expect("serving must succeed");
    let snap = settle_audits(&engine, "serve-pruned", rows.len() as u64);
    assert_eq!(snap.audited_samples, rows.len() as u64);
    assert!(
        (snap.divergence - expected_gap).abs() < 1e-12,
        "live divergence {} vs offline gap {expected_gap}",
        snap.divergence
    );
}
