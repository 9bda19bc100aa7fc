//! Golden pin of one cardio svm-r design point under overlay
//! evaluation.
//!
//! The differential property suite (`pax-core`'s `proptest_overlay`)
//! establishes overlay == rebuild on random candidates; this test nails
//! one *fixed* paper-catalog design point to exact bit patterns, so a
//! regression in either pipeline — or in anything upstream that is
//! supposed to be deterministic (training, quantization, bespoke
//! synthesis, simulation) — trips immediately and visibly.
//!
//! The pinned values were produced by this very flow at the time the
//! overlay landed; overlay and rebuild agreed bit-for-bit then, and
//! both are asserted against the same constants now.

use egt_pdk::TechParams;
use pax_bench::catalog::{train_entry, DatasetId};
use pax_core::prune::{analyze, try_evaluate_set_rebuild, EvalScratch, OverlayContext};
use pax_ml::quant::ModelKind;
use pax_ml::synth_data::SynthConfig;
use pax_netlist::NetId;

#[test]
fn cardio_svm_r_design_point_is_pinned() {
    let cfg = SynthConfig::small();
    let entry = train_entry(DatasetId::Cardio, ModelKind::SvmR, &cfg);
    let base =
        pax_synth::opt::optimize(&pax_bespoke::BespokeCircuit::generate(&entry.model).netlist);
    let analysis = analyze(&base, &entry.model, &entry.train);
    let lib = egt_pdk::egt_library();
    let tech = TechParams::egt();

    // The most aggressive design of the paper-faithful grid — a fully
    // deterministic pick (grid enumeration is seeded end to end).
    let grid = pax_core::prune::enumerate_grid(&analysis, &pax_core::prune::PruneConfig::default());
    let set: Vec<NetId> = grid.sets.iter().max_by_key(|s| s.len()).expect("non-empty grid").clone();
    assert!(!set.is_empty(), "the design point must prune something");

    let ctx =
        OverlayContext::new(base.clone(), entry.model.clone(), entry.test.clone(), &lib, &tech)
            .unwrap();
    let overlay = ctx.evaluate(&analysis, &set, &mut EvalScratch::default()).unwrap();
    let rebuild =
        try_evaluate_set_rebuild(&base, &entry.model, &entry.test, &lib, &tech, &analysis, &set)
            .unwrap();

    // Overlay and rebuild agree bitwise on every axis…
    assert_eq!(overlay.accuracy.to_bits(), rebuild.accuracy.to_bits());
    assert_eq!(overlay.area_mm2.to_bits(), rebuild.area_mm2.to_bits());
    assert_eq!(overlay.power_mw.to_bits(), rebuild.power_mw.to_bits());
    assert_eq!(overlay.critical_ms.to_bits(), rebuild.critical_ms.to_bits());
    assert_eq!(overlay.gate_count, rebuild.gate_count);

    // …and both match the recorded golden values.
    let golden = std::env::var("PAX_PRINT_GOLDEN").is_ok();
    if golden {
        eprintln!(
            "GOLDEN n_pruned={} gate_count={} accuracy={:#x} area={:#x} power={:#x} delay={:#x}",
            overlay.n_pruned,
            overlay.gate_count,
            overlay.accuracy.to_bits(),
            overlay.area_mm2.to_bits(),
            overlay.power_mw.to_bits(),
            overlay.critical_ms.to_bits(),
        );
        return;
    }
    assert_eq!(overlay.n_pruned, GOLDEN_N_PRUNED);
    assert_eq!(overlay.gate_count, GOLDEN_GATE_COUNT);
    assert_eq!(overlay.accuracy.to_bits(), GOLDEN_ACCURACY_BITS);
    assert_eq!(overlay.area_mm2.to_bits(), GOLDEN_AREA_BITS);
    assert_eq!(overlay.power_mw.to_bits(), GOLDEN_POWER_BITS);
    assert_eq!(overlay.critical_ms.to_bits(), GOLDEN_DELAY_BITS);
}

// Regenerate with:
//   PAX_PRINT_GOLDEN=1 cargo test -p pax-bench --test golden_prune_eval -- --nocapture
const GOLDEN_N_PRUNED: usize = 57;
const GOLDEN_GATE_COUNT: usize = 1055;
const GOLDEN_ACCURACY_BITS: u64 = 0x3feaf7f31e97588e; // ≈ 0.8428
const GOLDEN_AREA_BITS: u64 = 0x40839ae147ae1482; // ≈ 627.36 mm²
const GOLDEN_POWER_BITS: u64 = 0x40356e61b9970187; // ≈ 21.43 mW
const GOLDEN_DELAY_BITS: u64 = 0x4037f33333333336; // ≈ 23.95 ms
