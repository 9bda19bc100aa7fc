//! End-to-end pipeline tests: every model family travels from training
//! through quantization, circuit generation and the full framework.

use pax_core::framework::{Framework, FrameworkConfig};
use pax_core::Technique;
use pax_ml::quant::{ModelKind, QuantSpec, QuantizedModel};
use pax_ml::synth_data::{blobs, ordinal, OrdinalSpec};
use pax_ml::train::mlp::{train_mlp_classifier, train_mlp_regressor, MlpParams};
use pax_ml::train::svm::{train_svm_classifier, SvmParams};
use pax_ml::train::svr::{train_svr, SvrParams};
use pax_ml::Dataset;

fn ordinal_data() -> Dataset {
    ordinal(&OrdinalSpec {
        name: "pipe",
        n_samples: 500,
        n_features: 6,
        n_informative: 4,
        class_fractions: vec![0.5, 0.3, 0.2],
        noise: 0.1,
        seed: 7,
    })
}

fn run_family(kind: ModelKind) -> pax_core::framework::CircuitStudy {
    let data = match kind {
        ModelKind::MlpC | ModelKind::SvmC => blobs("pipe", 500, 5, 3, 0.09, 19),
        _ => ordinal_data(),
    };
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let spec = QuantSpec::default();
    let model = match kind {
        ModelKind::MlpC => {
            let m = train_mlp_classifier(
                &train,
                &MlpParams { hidden: 3, epochs: 80, ..Default::default() },
                3,
            );
            QuantizedModel::from_mlp("pipe", &m, train.n_classes, spec)
        }
        ModelKind::MlpR => {
            let m = train_mlp_regressor(
                &train,
                &MlpParams { hidden: 3, epochs: 80, lr: 0.01, ..Default::default() },
                3,
            );
            QuantizedModel::from_mlp("pipe", &m, train.n_classes, spec)
        }
        ModelKind::SvmC => {
            let m =
                train_svm_classifier(&train, &SvmParams { epochs: 60, ..Default::default() }, 3);
            QuantizedModel::from_linear_classifier("pipe", &m, spec)
        }
        ModelKind::SvmR => {
            let m = train_svr(&train, &SvrParams { epochs: 60, ..Default::default() }, 3);
            QuantizedModel::from_svr("pipe", &m, train.n_classes, spec)
        }
    };
    assert_eq!(model.kind, kind);
    Framework::new(FrameworkConfig::default()).try_run_study(&model, &train, &test).expect("study")
}

#[test]
fn mlp_classifier_pipeline() {
    let s = run_family(ModelKind::MlpC);
    assert!(s.baseline.accuracy > 0.8, "baseline acc {}", s.baseline.accuracy);
    assert!(s.coeff.area_mm2 < s.baseline.area_mm2);
    assert!(!s.cross.is_empty());
}

#[test]
fn mlp_regressor_pipeline() {
    let s = run_family(ModelKind::MlpR);
    assert!(s.baseline.accuracy > 0.6, "baseline acc {}", s.baseline.accuracy);
    assert!(!s.prune_only.is_empty());
}

#[test]
fn svm_classifier_pipeline() {
    let s = run_family(ModelKind::SvmC);
    assert!(s.baseline.accuracy > 0.8, "baseline acc {}", s.baseline.accuracy);
    // The cross-layer <1%-loss pick never loses to single-layer picks.
    let cross = s.best_within_loss(Technique::Cross, 0.01);
    let coeff = s.best_within_loss(Technique::CoeffApprox, 0.01);
    let prune = s.best_within_loss(Technique::PruneOnly, 0.01);
    assert!(cross.area_mm2 <= coeff.area_mm2 + 1e-9);
    assert!(cross.area_mm2 <= prune.area_mm2 + 1e-9);
}

#[test]
fn svm_regressor_pipeline() {
    let s = run_family(ModelKind::SvmR);
    assert!(s.baseline.accuracy > 0.6, "baseline acc {}", s.baseline.accuracy);
    // Timing stats cover every phase.
    assert!(s.stats.total_ms() > 0);
    assert!(s.stats.designs_explored > 0);
}

#[test]
fn studies_are_deterministic() {
    let a = run_family(ModelKind::SvmC);
    let b = run_family(ModelKind::SvmC);
    assert_eq!(a.baseline.accuracy, b.baseline.accuracy);
    assert_eq!(a.baseline.area_mm2, b.baseline.area_mm2);
    assert_eq!(a.cross.len(), b.cross.len());
    for (x, y) in a.cross.iter().zip(&b.cross) {
        assert_eq!(x.area_mm2, y.area_mm2);
        assert_eq!(x.accuracy, y.accuracy);
    }
}
