//! Bring-your-own-data: load a CSV, train, approximate, and export every
//! artifact (model dump, Verilog, DOT, SAIF).
//!
//! The example writes a small synthetic CSV to a temp directory to stay
//! self-contained; point `load_csv` at a real file (e.g. a UCI download
//! with `features…,label` rows) to use your own data.
//!
//! ```text
//! cargo run --release -p pax-core --example custom_csv_model
//! ```

use pax_core::framework::{Framework, FrameworkConfig};
use pax_core::Technique;
use pax_ml::quant::{QuantSpec, QuantizedModel};
use pax_ml::synth_data::load_csv;
use pax_ml::train::svm::{train_svm_classifier, SvmParams};

fn main() {
    // A stand-in for the user's CSV file.
    let path = std::env::temp_dir().join("pax_custom_demo.csv");
    let mut csv = String::from("f0,f1,f2,label\n");
    let mut state = 0x1234u64;
    for _ in 0..400 {
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) as f64 / (1u64 << 24) as f64
        };
        let (a, b, c) = (next(), next(), next());
        let label = usize::from(a + 0.5 * b > 0.8) + usize::from(a + c > 1.2);
        csv.push_str(&format!("{a:.4},{b:.4},{c:.4},{label}\n"));
    }
    std::fs::write(&path, csv).expect("write demo csv");

    // 1. Ingest.
    let data = load_csv("custom", &path).expect("parse csv");
    println!(
        "loaded {}: {} rows, {} features, {} classes",
        path.display(),
        data.len(),
        data.n_features(),
        data.n_classes
    );
    let (train, test) = data.split(0.7, 3);
    let (train, test) = pax_ml::normalize(&train, &test);

    // 2. Train + quantize + dump the model (the scikit-learn-dump
    //    equivalent of the paper's flow).
    let svc = train_svm_classifier(&train, &SvmParams::default(), 5);
    let model = QuantizedModel::from_linear_classifier("custom", &svc, QuantSpec::default());
    let dump = pax_ml::serialize::to_text(&model);
    let model_path = std::env::temp_dir().join("pax_custom_model.txt");
    std::fs::write(&model_path, &dump).expect("write model dump");
    let reloaded = pax_ml::serialize::from_text(&dump).expect("reload model");
    assert_eq!(reloaded, model);
    println!("model dumped to {} ({} bytes) and reloaded", model_path.display(), dump.len());

    // 3. Approximate.
    let fw = Framework::new(FrameworkConfig::default());
    let study = fw.try_run_study(&model, &train, &test).expect("study");
    let pick = study.best_within_loss(Technique::Cross, 0.01);
    println!(
        "cross-layer design: {:.2} cm² ({:.0}% below baseline), accuracy {:.3}",
        pick.area_cm2(),
        100.0 * (1.0 - pick.norm_area(study.baseline.area_mm2)),
        pick.accuracy
    );

    // 4. Export hardware artifacts.
    let netlist = fw.materialize(&model, &train, &pick);
    let out_dir = std::env::temp_dir().join("pax_custom_out");
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    std::fs::write(out_dir.join("design.v"), pax_netlist::verilog::to_verilog(&netlist))
        .expect("write verilog");
    std::fs::write(out_dir.join("design.dot"), pax_netlist::dot::to_dot(&netlist))
        .expect("write dot");
    let stim = pax_bespoke::stimulus_for(&model, &test);
    let sim = pax_sim::try_simulate(&netlist, &stim).expect("the test set drives every input");
    std::fs::write(out_dir.join("design.saif"), pax_sim::saif::to_saif(&netlist, &sim.activity))
        .expect("write saif");
    println!("wrote design.v / design.dot / design.saif under {}", out_dir.display());
}
