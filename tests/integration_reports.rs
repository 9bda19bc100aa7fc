//! Artifact-level integration: CSV/markdown reports, serialization
//! roundtrips through the filesystem, and EDA exports (Verilog, DOT,
//! SAIF) of real circuits.

use pax_bespoke::{stimulus_for, BespokeCircuit};
use pax_core::framework::{Framework, FrameworkConfig};
use pax_core::report;
use pax_ml::quant::{QuantSpec, QuantizedModel};
use pax_ml::synth_data::blobs;
use pax_sim::try_simulate;

fn setup() -> (pax_core::framework::CircuitStudy, BespokeCircuit, pax_ml::Dataset, QuantizedModel) {
    let data = blobs("rp", 260, 3, 3, 0.1, 13);
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let m = pax_ml::train::svm::train_svm_classifier(
        &train,
        &pax_ml::train::svm::SvmParams { epochs: 40, ..Default::default() },
        3,
    );
    let q = QuantizedModel::from_linear_classifier("rp", &m, QuantSpec::default());
    let circuit = BespokeCircuit::generate(&q);
    let study =
        Framework::new(FrameworkConfig::default()).try_run_study(&q, &train, &test).expect("study");
    (study, circuit, test, q)
}

#[test]
fn fig3_csv_is_well_formed() {
    let (study, ..) = setup();
    let csv = report::fig3_csv(&study);
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    assert_eq!(header, "technique,tau_c,phi_c,coeff,accuracy,area_mm2,norm_area,power_mw");
    let n_fields = header.split(',').count();
    let mut rows = 0;
    for line in lines {
        assert_eq!(line.split(',').count(), n_fields, "ragged row: {line}");
        rows += 1;
    }
    assert_eq!(rows, study.all_points().len());
}

#[test]
fn table2_markdown_contains_all_techniques() {
    let (study, ..) = setup();
    let row = report::table2_row(&study, 0.01, 30.0);
    let md = report::table2_markdown(std::slice::from_ref(&row));
    assert!(md.contains("rp svm-c"));
    assert!(md.lines().count() >= 4);
}

#[test]
fn model_roundtrips_through_filesystem() {
    let (_, _, _, model) = setup();
    let path = std::env::temp_dir().join("pax_integration_model.txt");
    std::fs::write(&path, pax_ml::serialize::to_text(&model)).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let back = pax_ml::serialize::from_text(&text).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(back, model);
}

#[test]
fn verilog_export_covers_the_whole_netlist() {
    let (_, circuit, ..) = setup();
    let v = pax_netlist::verilog::to_verilog(&circuit.netlist);
    assert!(v.contains("module rp_svm_c"));
    assert!(v.contains("endmodule"));
    // Every output port appears.
    for p in circuit.netlist.output_ports() {
        assert!(v.contains(&format!("output [{}:0] {}", p.width() - 1, p.name)), "{}", p.name);
    }
    // Gate instance count matches the netlist census.
    let instances =
        v.lines().filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_uppercase())).count();
    assert_eq!(instances, circuit.netlist.gate_count());
}

#[test]
fn dot_export_is_renderable_graphviz() {
    let (_, circuit, ..) = setup();
    let dot = pax_netlist::dot::to_dot(&circuit.netlist);
    assert!(dot.starts_with("digraph"));
    assert!(dot.trim_end().ends_with('}'));
    assert!(dot.matches("->").count() > circuit.netlist.gate_count());
}

#[test]
fn saif_roundtrips_through_file_and_matches_activity() {
    let (_, circuit, test, model) = setup();
    let sim = try_simulate(&circuit.netlist, &stimulus_for(&model, &test)).expect("valid stimulus");
    let text = pax_sim::saif::to_saif(&circuit.netlist, &sim.activity);
    let path = std::env::temp_dir().join("pax_integration.saif");
    std::fs::write(&path, &text).unwrap();
    let parsed = pax_sim::saif::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(parsed.to_activity(), sim.activity);
    assert_eq!(parsed.duration as usize, test.len());
}

#[test]
fn liberty_roundtrip_preserves_measurements() {
    let lib = egt_pdk::egt_library();
    let text = egt_pdk::liberty::to_string(&lib);
    let back = egt_pdk::liberty::parse(&text).unwrap();
    let (_, circuit, ..) = setup();
    let a1 = pax_synth::area::area_mm2(&circuit.netlist, &lib).unwrap();
    let a2 = pax_synth::area::area_mm2(&circuit.netlist, &back).unwrap();
    assert_eq!(a1, a2, "reloaded library must measure identically");
}
