//! Pruning invariants at system level, most importantly the paper's
//! error-magnitude bound: gates pruned under a φc threshold can only
//! change score-bus values by less than `2^(φc+1)`.

use pax_bespoke::{stimulus_for, BespokeCircuit};
use pax_core::prune::{analyze, apply_set, enumerate_grid, PruneConfig};
use pax_ml::quant::{QuantSpec, QuantizedModel};
use pax_ml::synth_data::{blobs, ordinal, OrdinalSpec};
use pax_netlist::eval;
use pax_sim::try_simulate;
use pax_synth::opt;

fn classifier_setup() -> (BespokeCircuit, pax_ml::Dataset, pax_ml::Dataset) {
    let data = blobs("pr", 400, 4, 3, 0.1, 23);
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let m = pax_ml::train::svm::train_svm_classifier(
        &train,
        &pax_ml::train::svm::SvmParams { epochs: 50, ..Default::default() },
        3,
    );
    let q = QuantizedModel::from_linear_classifier("pr", &m, QuantSpec::default());
    let c = BespokeCircuit::generate(&q);
    let c = c.with_netlist(opt::optimize(&c.netlist));
    (c, train, test)
}

fn regressor_setup() -> (BespokeCircuit, pax_ml::Dataset, pax_ml::Dataset) {
    let data = ordinal(&OrdinalSpec {
        name: "prr",
        n_samples: 400,
        n_features: 6,
        n_informative: 4,
        class_fractions: vec![0.4, 0.35, 0.25],
        noise: 0.15,
        seed: 3,
    });
    let (train, test) = data.split(0.7, 1);
    let (train, test) = pax_ml::normalize(&train, &test);
    let m = pax_ml::train::svr::train_svr(
        &train,
        &pax_ml::train::svr::SvrParams { epochs: 50, ..Default::default() },
        3,
    );
    let q = QuantizedModel::from_svr("prr", &m, 3, QuantSpec::default());
    let c = BespokeCircuit::generate(&q);
    let c = c.with_netlist(opt::optimize(&c.netlist));
    (c, train, test)
}

/// The error-magnitude bound of §III-C: any pruned set whose gates all
/// have φ ≤ φc leaves the score buses within `±2^(φc+1)` of the exact
/// values, on *every* sample — pruned gates cannot structurally reach
/// more significant bits.
#[test]
fn score_error_bounded_by_phi() {
    for (circuit, train, test) in [classifier_setup(), regressor_setup()] {
        let analysis = analyze(&circuit.netlist, &circuit.model, &train);
        let grid = enumerate_grid(&analysis, &PruneConfig::default());
        let base_sim = try_simulate(&circuit.netlist, &stimulus_for(&circuit.model, &test))
            .expect("valid stimulus");

        // Check a few representative combos, including aggressive ones.
        for combo in grid.combos.iter().step_by(grid.combos.len().div_ceil(8).max(1)) {
            let set = &grid.sets[combo.set];
            // Gates with φ = −1 (argmax internals) do not touch score
            // buses at all; the bound below covers them trivially.
            let pruned = apply_set(&circuit.netlist, &analysis, set);
            let pruned_sim = try_simulate(&pruned, &stimulus_for(&circuit.model, &test))
                .expect("valid stimulus");
            let bound = 1i64 << (combo.phi_c + 1).max(0);
            for port in circuit.netlist.output_ports() {
                if !port.name.starts_with("score") {
                    continue;
                }
                let w = port.width();
                for s in 0..test.len() {
                    let a = eval::to_signed(base_sim.port_sample(&port.name, s), w);
                    let b = eval::to_signed(pruned_sim.port_sample(&port.name, s), w);
                    assert!(
                        (a - b).abs() < bound,
                        "sample {s} port {}: |{a} - {b}| >= 2^({}+1) (τc={}, {} gates)",
                        port.name,
                        combo.phi_c,
                        combo.tau_c,
                        set.len()
                    );
                }
            }
        }
    }
}

/// Error *rate* sanity: pruning only τ = 100% gates (constant over the
/// training set) must keep training-set behaviour identical.
#[test]
fn fully_constant_gates_prune_for_free_on_train() {
    let (circuit, train, _) = classifier_setup();
    let analysis = analyze(&circuit.netlist, &circuit.model, &train);
    let set: Vec<pax_netlist::NetId> = analysis
        .candidates
        .iter()
        .copied()
        .filter(|&g| analysis.tau_of(g) >= 1.0 - 1e-12)
        .collect();
    let pruned = apply_set(&circuit.netlist, &analysis, &set);
    let base = try_simulate(&circuit.netlist, &stimulus_for(&circuit.model, &train))
        .expect("valid stimulus");
    let after =
        try_simulate(&pruned, &stimulus_for(&circuit.model, &train)).expect("valid stimulus");
    for s in 0..train.len() {
        assert_eq!(
            base.port_sample("class", s),
            after.port_sample("class", s),
            "sample {s} changed although only train-constant gates were pruned"
        );
    }
}

/// Pruning monotonicity: smaller φc under the same τc can only shrink
/// (or keep) the pruned netlist's area.
#[test]
fn area_decreases_with_larger_thresholds() {
    let (circuit, train, _) = classifier_setup();
    let lib = egt_pdk::egt_library();
    let analysis = analyze(&circuit.netlist, &circuit.model, &train);
    let grid = enumerate_grid(&analysis, &PruneConfig::default());
    // Group combos by τc and verify area monotonically falls as φc rises.
    let mut by_tau: std::collections::BTreeMap<u64, Vec<(i64, f64)>> = Default::default();
    for combo in grid.combos.iter().take(60) {
        let pruned = apply_set(&circuit.netlist, &analysis, &grid.sets[combo.set]);
        let area = pax_synth::area::area_mm2(&pruned, &lib).unwrap();
        by_tau.entry((combo.tau_c * 1000.0) as u64).or_default().push((combo.phi_c, area));
    }
    for (_, mut v) in by_tau {
        v.sort_by_key(|p| p.0);
        for pair in v.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1 + 1e-9,
                "larger φc must prune at least as much: {pair:?}"
            );
        }
    }
}
