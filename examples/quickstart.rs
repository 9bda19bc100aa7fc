//! Quickstart: train a tiny printed classifier, run the cross-layer
//! approximation framework, and pick a design.
//!
//! ```text
//! cargo run --release -p pax-core --example quickstart
//! ```

use pax_core::framework::{Framework, FrameworkConfig};
use pax_core::Technique;
use pax_ml::quant::{QuantSpec, QuantizedModel};
use pax_ml::synth_data::blobs;
use pax_ml::train::svm::{train_svm_classifier, SvmParams};

fn main() {
    // 1. Data: a small 4-feature, 3-class sensor-style dataset.
    let data = blobs("quickstart", 600, 4, 3, 0.08, 42);
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);

    // 2. Train a linear SVM classifier and quantize it to the printed
    //    fixed-point format (4-bit inputs, 8-bit coefficients).
    let svm = train_svm_classifier(&train, &SvmParams::default(), 7);
    let model = QuantizedModel::from_linear_classifier("quickstart", &svm, QuantSpec::default());
    println!(
        "trained {}-class SVM over {} features ({} hardwired coefficients)",
        model.n_classes,
        model.n_inputs(),
        model.n_coefficients()
    );

    // 3. Run the full cross-layer approximation flow.
    let fw = Framework::new(FrameworkConfig::default());
    let study = fw.try_run_study(&model, &train, &test).expect("study");
    println!(
        "baseline bespoke circuit: {:.1} cm², {:.1} mW, accuracy {:.3}",
        study.baseline.area_cm2(),
        study.baseline.power_mw,
        study.baseline.accuracy
    );
    println!(
        "coefficient approximation alone: {:.1} cm² ({:.0}% smaller), accuracy {:.3}",
        study.coeff.area_cm2(),
        100.0 * (1.0 - study.coeff.norm_area(study.baseline.area_mm2)),
        study.coeff.accuracy
    );

    // 4. Pick the smallest design losing less than 1% accuracy — the
    //    paper's Table II selection.
    let best = study.best_within_loss(Technique::Cross, 0.01);
    println!(
        "cross-layer pick: {:.1} cm², {:.1} mW, accuracy {:.3} (τc={:?}, φc={:?})",
        best.area_cm2(),
        best.power_mw,
        best.accuracy,
        best.tau_c,
        best.phi_c
    );

    // 5. Materialize its netlist and export it as structural Verilog.
    let netlist = fw.materialize(&model, &train, &best);
    let verilog = pax_netlist::verilog::to_verilog(&netlist);
    println!(
        "final netlist: {} gates, {} lines of structural Verilog",
        netlist.gate_count(),
        verilog.lines().count()
    );
}
