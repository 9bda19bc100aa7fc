//! Pareto and selection invariants over full framework runs.

use pax_core::framework::{Framework, FrameworkConfig};
use pax_core::{pareto, Technique};
use pax_ml::quant::{QuantSpec, QuantizedModel};
use pax_ml::synth_data::blobs;

fn study() -> pax_core::framework::CircuitStudy {
    let data = blobs("pa", 360, 4, 4, 0.09, 71);
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let m = pax_ml::train::svm::train_svm_classifier(
        &train,
        &pax_ml::train::svm::SvmParams { epochs: 60, ..Default::default() },
        5,
    );
    let q = QuantizedModel::from_linear_classifier("pa", &m, QuantSpec::default());
    Framework::new(FrameworkConfig::default()).try_run_study(&q, &train, &test).expect("study")
}

#[test]
fn front_contains_no_dominated_point_and_dominates_everything() {
    let s = study();
    let front = s.pareto_front();
    assert!(!front.is_empty());
    for (i, a) in front.iter().enumerate() {
        for (j, b) in front.iter().enumerate() {
            if i != j {
                assert!(!a.dominates(b), "front points must not dominate each other");
            }
        }
    }
    for p in s.all_points() {
        let dominated = front.iter().any(|f| f.dominates(p));
        let on_front = front.iter().any(|f| f.area_mm2 == p.area_mm2 && f.accuracy == p.accuracy);
        assert!(
            dominated || on_front,
            "point (acc {}, area {}) neither dominated nor on the front",
            p.accuracy,
            p.area_mm2
        );
    }
}

#[test]
fn baseline_never_beats_cross_layer_selection() {
    let s = study();
    for loss in [0.0, 0.01, 0.05] {
        let pick = s.best_within_loss(Technique::Cross, loss);
        assert!(pick.area_mm2 <= s.baseline.area_mm2 + 1e-9);
        assert!(pick.accuracy >= s.baseline.accuracy - loss - 1e-12);
    }
}

#[test]
fn looser_budget_cannot_increase_area() {
    let s = study();
    let tight = s.best_within_loss(Technique::Cross, 0.005);
    let loose = s.best_within_loss(Technique::Cross, 0.05);
    assert!(loose.area_mm2 <= tight.area_mm2 + 1e-9);
}

#[test]
fn best_area_within_matches_manual_scan() {
    let s = study();
    let all: Vec<pax_core::DesignPoint> = s.all_points().into_iter().cloned().collect();
    let min_acc = s.baseline.accuracy - 0.01;
    let expected = all
        .iter()
        .filter(|p| p.accuracy >= min_acc)
        .map(|p| p.area_mm2)
        .fold(f64::INFINITY, f64::min);
    let got = pareto::best_area_within(&all, min_acc).map(|i| all[i].area_mm2).unwrap();
    assert!((got - expected).abs() < 1e-12);
}

#[test]
fn normalized_areas_are_consistent() {
    let s = study();
    for p in s.all_points() {
        let norm = p.norm_area(s.baseline.area_mm2);
        assert!((0.0..=1.0 + 1e-9).contains(&norm), "norm area {norm}");
        assert!((norm * s.baseline.area_mm2 - p.area_mm2).abs() < 1e-6);
    }
}
