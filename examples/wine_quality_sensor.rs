//! Smart-packaging scenario: a printed wine-quality sensor label.
//!
//! The paper's motivating domains — smart packaging, fast-moving
//! consumer goods — need a classifier printed directly on the package
//! and powered by a single Molex 30 mW battery. This example walks the
//! RedWine catalog models through the framework and reports which
//! designs become battery-feasible (in the paper, the cross-layer flow
//! is the only technique that unlocks new circuit families).
//!
//! ```text
//! cargo run --release -p pax-core --example wine_quality_sensor
//! ```

use egt_pdk::TechParams;
use pax_core::framework::{Framework, FrameworkConfig};
use pax_core::Technique;
use pax_ml::quant::{QuantSpec, QuantizedModel};
use pax_ml::synth_data::{redwine, SynthConfig};
use pax_ml::train::svm::{train_svm_classifier, SvmParams};
use pax_ml::train::svr::{train_svr, SvrParams};

fn main() {
    let tech = TechParams::egt();
    // Reduced dataset for a quick demo run; drop `size_factor` for the
    // full-size experiment.
    let cfg = SynthConfig { size_factor: 0.4, ..SynthConfig::default() };
    let data = redwine(&cfg);
    let (train, test) = data.split(0.7, 11);
    let (train, test) = pax_ml::normalize(&train, &test);
    println!(
        "wine dataset: {} samples, {} features, {} quality classes",
        data.len(),
        data.n_features(),
        data.n_classes
    );

    let fw = Framework::new(FrameworkConfig { tech: tech.clone(), ..Default::default() });

    // Candidate architectures for the label: the cheap regressor and the
    // per-class SVM.
    let svr = train_svr(&train, &SvrParams::default(), 3);
    let svr_model =
        QuantizedModel::from_svr("wine-svr", &svr, data.n_classes, QuantSpec::default());
    let svc =
        train_svm_classifier(&train, &SvmParams { lr: 0.1, epochs: 400, ..Default::default() }, 3);
    let svc_model = QuantizedModel::from_linear_classifier("wine-svc", &svc, QuantSpec::default());

    for model in [&svr_model, &svc_model] {
        let study = fw.try_run_study(model, &train, &test).expect("study");
        println!("\n=== {} ({}) ===", model.name, model.kind);
        for (label, point) in [
            ("exact bespoke", study.baseline.clone()),
            ("coeff approx", study.best_within_loss(Technique::CoeffApprox, 0.01)),
            ("pruning only", study.best_within_loss(Technique::PruneOnly, 0.01)),
            ("cross-layer", study.best_within_loss(Technique::Cross, 0.01)),
        ] {
            let battery =
                if tech.fits_battery(point.power_mw) { "fits 30 mW battery" } else { "too hungry" };
            println!(
                "  {label:14} {:6.2} cm² {:6.2} mW acc {:.3} — {battery}",
                point.area_cm2(),
                point.power_mw,
                point.accuracy
            );
        }
    }
}
