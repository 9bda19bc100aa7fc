//! Differential pinning of the symbolic fold against the real rebuild.
//!
//! `pax_netlist::fold::FoldedCircuit` re-implements the hash-consing
//! builder's constant-fold rules on flat arrays so overlay evaluation
//! can skip per-candidate netlist construction. That mirror is only
//! admissible while it is **node-for-node identical** to
//! `opt::apply_constants` — this suite enforces exactly that on random
//! netlists × random substitution sets, including the degenerate cases
//! (empty substitution, output-port bits substituted, whole-input
//! cones).
//!
//! Run with a fixed seed (`PAX_PROPTEST_SEED=<n>`) for reproducible
//! case streams — CI pins one in the `overlay-differential` job.

use std::collections::BTreeMap;

use pax_netlist::fold::{FoldIndex, FoldScratch, FoldedCircuit};
use pax_netlist::{validate, NetId, Netlist, NetlistBuilder, Node};
use pax_synth::opt;
use proptest::prelude::*;

/// Splitmix-style step for the netlist/substitution generators.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds a random combinational netlist exercising every gate kind,
/// mirroring the generator of `pax-sim`'s differential suite.
fn random_netlist(seed: u64, n_gates: usize) -> Netlist {
    let mut state = seed | 1;
    let mut b = NetlistBuilder::new("rand");
    let mut nets: Vec<NetId> = Vec::new();
    let n_ports = 2 + (next(&mut state) % 2) as usize;
    for p in 0..n_ports {
        let width = 1 + (next(&mut state) % 5) as usize;
        let bus = b.input_port(format!("in{p}"), width);
        for i in 0..bus.width() {
            nets.push(bus[i]);
        }
    }
    let k0 = b.const0();
    let k1 = b.const1();
    nets.push(k0);
    nets.push(k1);

    for _ in 0..n_gates {
        let pick = |state: &mut u64| nets[(next(state) % nets.len() as u64) as usize];
        let (a, c, s) = (pick(&mut state), pick(&mut state), pick(&mut state));
        let g = match next(&mut state) % 14 {
            0 => b.buf_cell(a),
            1 => b.not(a),
            2 => b.and2(a, c),
            3 => b.nand2(a, c),
            4 => b.or2(a, c),
            5 => b.nor2(a, c),
            6 => b.and3(a, c, s),
            7 => b.or3(a, c, s),
            8 => b.nand3(a, c, s),
            9 => b.nor3(a, c, s),
            10 => b.xor2(a, c),
            11 => b.xnor2(a, c),
            12 => b.mux(s, a, c),
            _ => b.constant(next(&mut state).is_multiple_of(2)),
        };
        nets.push(g);
    }

    let n_outs = 1 + (next(&mut state) % 2) as usize;
    for o in 0..n_outs {
        let width = 1 + (next(&mut state) % 16) as usize;
        let bits: Vec<NetId> =
            (0..width).map(|_| nets[(next(&mut state) % nets.len() as u64) as usize]).collect();
        b.output_port(format!("out{o}"), bits.into());
    }
    b.finish()
}

/// A random substitution over the netlist's area-occupying gates — the
/// shape pruning produces (gate nets forced to a constant).
fn random_subst(nl: &Netlist, seed: u64, max_fraction: f64) -> BTreeMap<NetId, bool> {
    let mut state = seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1;
    let gates: Vec<NetId> = nl
        .iter()
        .filter_map(|(id, node)| match node {
            Node::Gate(g) if !g.kind.is_free() => Some(id),
            _ => None,
        })
        .collect();
    let mut subst = BTreeMap::new();
    if gates.is_empty() {
        return subst;
    }
    let n = ((gates.len() as f64 * max_fraction) as u64).max(1);
    for _ in 0..(next(&mut state) % (n + 1)) {
        let g = gates[(next(&mut state) % gates.len() as u64) as usize];
        subst.insert(g, next(&mut state).is_multiple_of(2));
    }
    subst
}

/// The folded mirror must reconstruct the rebuilt netlist exactly:
/// same nodes in the same order, same ports, same everything.
fn assert_fold_matches(nl: &Netlist, subst: &BTreeMap<NetId, bool>) {
    let rebuilt = opt::apply_constants(nl, subst);
    validate::assert_valid(&rebuilt);
    let folded = FoldedCircuit::apply(nl, subst);
    let materialized = folded.materialize(nl);
    assert_eq!(
        materialized,
        rebuilt,
        "symbolic fold diverged from apply_constants (|subst| = {})",
        subst.len()
    );
    assert_eq!(folded.gate_count(), rebuilt.gate_count());
    assert_eq!(folded.len(), rebuilt.len());
}

/// Node-for-node equality between two folds: same nodes in the same
/// order, same output wiring, same provenance streams.
fn assert_same_fold(cone: &FoldedCircuit, fresh: &FoldedCircuit) {
    assert_eq!(cone.nodes(), fresh.nodes(), "folded node arrays diverged");
    assert_eq!(cone.output_bits(), fresh.output_bits(), "output wiring diverged");
    assert_eq!(cone.gate_count(), fresh.gate_count());
    for i in 0..fresh.len() {
        assert_eq!(cone.provenance(i), fresh.provenance(i), "provenance diverged at node {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random circuits × random pruned sets: the mirror equals the
    /// rebuild node-for-node.
    #[test]
    fn fold_equals_apply_constants(seed in any::<u64>(), n_gates in 1usize..160) {
        let nl = random_netlist(seed, n_gates);
        let subst = random_subst(&nl, seed ^ 0xABCD, 0.4);
        assert_fold_matches(&nl, &subst);
    }

    /// The empty substitution degenerates to a plain re-optimization.
    #[test]
    fn empty_subst_equals_resynthesis(seed in any::<u64>(), n_gates in 1usize..120) {
        let nl = random_netlist(seed, n_gates);
        assert_fold_matches(&nl, &BTreeMap::new());
    }

    /// Heavy pruning (up to every gate substituted) exercises the
    /// whole-cone collapse and constant output-port paths.
    #[test]
    fn heavy_subst_collapses_identically(seed in any::<u64>(), n_gates in 1usize..80) {
        let nl = random_netlist(seed, n_gates);
        let subst = random_subst(&nl, seed ^ 0x5EED, 1.0);
        assert_fold_matches(&nl, &subst);
    }

    /// The cone fold against the base's index: on `opt::optimize`d
    /// random netlists × random id-sorted masks at densities 1/2 to
    /// 1/64, the empty mask and masks over output bits, one reused
    /// scratch equals the from-scratch fold on nodes, provenance and
    /// output bits.
    #[test]
    fn cone_fold_matches_fresh_fold(seed in any::<u64>(), n_gates in 1usize..160) {
        let nl = opt::optimize(&random_netlist(seed, n_gates));
        let index = FoldIndex::new(&nl).expect("an optimize output is canonical");
        let gates: Vec<NetId> = nl
            .iter()
            .filter_map(|(id, node)| match node {
                Node::Gate(g) if !g.kind.is_free() => Some(id),
                _ => None,
            })
            .collect();
        let out_gates: Vec<NetId> = nl
            .output_ports()
            .iter()
            .flat_map(|p| p.bits.iter().copied())
            .filter(|b| gates.contains(b))
            .collect();
        let mut state = seed.wrapping_mul(0xA076_1D64_78BD_642F) | 1;
        let mut scratch = FoldScratch::default();
        for density in [0u64, 64, 16, 8, 4, 2, 1] {
            let mut mask = BTreeMap::new();
            match density {
                0 => {}
                1 => {
                    // Output bits, plus a few random gates.
                    for &g in &out_gates {
                        mask.insert(g, next(&mut state).is_multiple_of(2));
                    }
                    for &g in &gates {
                        if next(&mut state).is_multiple_of(8) {
                            mask.insert(g, next(&mut state).is_multiple_of(2));
                        }
                    }
                }
                d => {
                    for &g in &gates {
                        if next(&mut state).is_multiple_of(d) {
                            mask.insert(g, next(&mut state).is_multiple_of(2));
                        }
                    }
                }
            }
            let sorted: Vec<(NetId, bool)> = mask.iter().map(|(k, v)| (*k, *v)).collect();
            let fresh = FoldedCircuit::apply_sorted(&nl, &sorted);
            assert_same_fold(index.fold(&sorted, &mut scratch), &fresh);
        }
    }

    /// Provenance soundness on random circuits: every non-constant
    /// folded node's scalar value equals its source net's substituted
    /// value (inverted when flagged), on random input samples.
    #[test]
    fn provenance_streams_are_sound(seed in any::<u64>(), n_gates in 1usize..100) {
        let nl = random_netlist(seed, n_gates);
        let subst = random_subst(&nl, seed ^ 0x9999, 0.4);
        let folded = FoldedCircuit::apply(&nl, &subst);
        let materialized = folded.materialize(&nl);

        let mut state = seed.wrapping_mul(31) | 1;
        for _ in 0..8 {
            // One random sample per input bit.
            let sample: Vec<bool> = (0..nl.len()).map(|_| next(&mut state).is_multiple_of(2)).collect();
            // Source values under the forced substitution.
            let mut src = vec![false; nl.len()];
            for (id, node) in nl.iter() {
                let v = match node {
                    Node::Input { .. } => sample[id.index()],
                    Node::Gate(g) => {
                        let ins: Vec<bool> = g.inputs().iter().map(|i| src[i.index()]).collect();
                        g.kind.eval_bool(&ins)
                    }
                };
                src[id.index()] = subst.get(&id).copied().unwrap_or(v);
            }
            // Folded values on the same input assignment.
            let mut got = vec![false; materialized.len()];
            for (id, node) in materialized.iter() {
                got[id.index()] = match node {
                    Node::Input { port, bit } => {
                        let old = nl.input_ports()[*port as usize].bits[*bit as usize];
                        sample[old.index()]
                    }
                    Node::Gate(g) => {
                        let ins: Vec<bool> = g.inputs().iter().map(|i| got[i.index()]).collect();
                        g.kind.eval_bool(&ins)
                    }
                };
            }
            for (i, &g) in got.iter().enumerate() {
                if let Some(p) = folded.provenance(i) {
                    prop_assert_eq!(
                        g,
                        src[p.source.index()] ^ p.inverted,
                        "node {} prov {:?}",
                        i,
                        p
                    );
                }
            }
        }
    }
}
