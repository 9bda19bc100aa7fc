//! Low-end healthcare scenario: a disposable cardiotocography monitor
//! patch (the paper's "smart bandage" class of applications).
//!
//! The patch has a hard area budget — printed substrate is cheap but the
//! patch is small — so instead of the battery constraint this example
//! selects from the Pareto front under an area cap and shows the
//! accuracy/area trade-off curve the full exploration produces.
//!
//! ```text
//! cargo run --release -p pax-core --example cardio_monitor
//! ```

use pax_core::framework::{Framework, FrameworkConfig};
use pax_ml::quant::{QuantSpec, QuantizedModel};
use pax_ml::synth_data::{cardio, SynthConfig};
use pax_ml::train::svm::{train_svm_classifier, SvmParams};

const AREA_BUDGET_CM2: f64 = 12.0;

fn main() {
    let cfg = SynthConfig { size_factor: 0.4, ..SynthConfig::default() };
    let data = cardio(&cfg);
    let (train, test) = data.split(0.7, 5);
    let (train, test) = pax_ml::normalize(&train, &test);
    println!(
        "cardio dataset: {} samples, {} features, classes {:?} (normal/suspect/pathological)",
        data.len(),
        data.n_features(),
        data.class_counts()
    );

    let svc = train_svm_classifier(
        &train,
        &SvmParams { lr: 0.1, epochs: 600, batch: 64, ..Default::default() },
        9,
    );
    let model = QuantizedModel::from_linear_classifier("cardio-patch", &svc, QuantSpec::default());

    let fw = Framework::new(FrameworkConfig::default());
    let study = fw.try_run_study(&model, &train, &test).expect("study");

    println!(
        "\nexact bespoke: {:.1} cm² at accuracy {:.3} (budget: {AREA_BUDGET_CM2} cm²)",
        study.baseline.area_cm2(),
        study.baseline.accuracy
    );
    println!("\nPareto front (accuracy vs area):");
    for p in study.pareto_front() {
        let marker = if p.area_cm2() <= AREA_BUDGET_CM2 { "within budget" } else { "over budget" };
        println!(
            "  {:12} {:6.2} cm²  acc {:.3}  {marker}",
            p.technique.label(),
            p.area_cm2(),
            p.accuracy
        );
    }

    // Pick the most accurate design inside the budget.
    let pick = study
        .pareto_front()
        .into_iter()
        .filter(|p| p.area_cm2() <= AREA_BUDGET_CM2)
        .max_by(|a, b| a.accuracy.partial_cmp(&b.accuracy).expect("finite"));
    match pick {
        Some(p) => {
            println!(
                "\nselected: {} design, {:.1} cm², {:.1} mW, accuracy {:.3} \
                 (baseline would need {:.1} cm²)",
                p.technique.label(),
                p.area_cm2(),
                p.power_mw,
                p.accuracy,
                study.baseline.area_cm2()
            );
            let nl = fw.materialize(&model, &train, &p);
            println!("materialized netlist: {} gates", nl.gate_count());
        }
        None => println!("\nno design fits {AREA_BUDGET_CM2} cm² — relax the budget"),
    }
}
