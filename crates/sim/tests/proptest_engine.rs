//! Differential testing: every evaluation path must agree bit-for-bit.
//!
//! The scalar evaluator (`pax_netlist::eval`) is the reference. The
//! bit-parallel interpreter (`try_simulate`) and the compiled tape
//! (`CompiledNetlist`) are pinned to it on arbitrary random circuits
//! and stimuli — functional outputs *and* per-net activity (ones,
//! toggles), including across 64-sample word boundaries.
//!
//! Run with a fixed seed (`PAX_PROPTEST_SEED=<n>`) for reproducible
//! case streams — CI pins one.

use std::collections::BTreeMap;

use pax_netlist::{eval, NetId, Netlist, NetlistBuilder, Node};
use pax_sim::{compare, try_simulate, CompiledNetlist, ConeScratch, Stimulus};
use pax_synth::{bits, constmul, csa};
use proptest::prelude::*;

/// Splitmix-style step for the netlist/stimulus generators.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds a random combinational netlist: a few multi-bit input ports,
/// constants, then `n_gates` gates of random kind over random earlier
/// nets (the hash-consing builder may fold some — that is part of the
/// surface under test), capped output ports over random nets.
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

    // One or two output ports over random nets, ≤ 16 bits each.
    let n_outs = 1 + (next(&mut state) % 2) as usize;
    for o in 0..n_outs {
        let width = 1 + (next(&mut state) % 16) as usize;
        let bits: Vec<NetId> =
            (0..width).map(|_| nets[(next(&mut state) % nets.len() as u64) as usize]).collect();
        b.output_port(format!("out{o}"), bits.into());
    }
    b.finish()
}

/// Random per-port stimulus fitting each input port's width.
fn random_stimulus(nl: &Netlist, seed: u64, n_samples: usize) -> Stimulus {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut stim = Stimulus::new();
    for p in nl.input_ports() {
        let samples: Vec<u64> =
            (0..n_samples).map(|_| next(&mut state) & ((1u64 << p.width()) - 1)).collect();
        stim.port(p.name.clone(), samples);
    }
    stim
}

/// Checks one cone-pass case against the unfused masked oracle
/// (`run_masked_with_activity`): a random netlist, `n_samples` random
/// samples and up to `n_mask` random id-sorted masks. The pass must give
/// every output port, and every net's toggles through its view, exactly
/// — with `affected` as the masked nets' fanout cone, and with every
/// slot affected. One scratch serves both runs. The pass counts no
/// `ones`, so none are compared; the τ analysis pins them on its full
/// tracked run.
fn check_cone_pass(seed: u64, n_gates: usize, n_samples: usize, n_mask: usize) {
    let nl = random_netlist(seed, n_gates);
    let stim = random_stimulus(&nl, seed ^ 0xFACE, n_samples);
    let compiled = CompiledNetlist::compile(&nl);
    // Maskable nets: gate-driven, not constant ties.
    let candidates: Vec<NetId> = nl
        .iter()
        .filter_map(|(id, node)| match node {
            Node::Gate(g) if !g.kind.is_free() => Some(id),
            _ => None,
        })
        .collect();
    let mut state = seed ^ 0xC0DE;
    let mut mask: Vec<(NetId, bool)> = Vec::new();
    for _ in 0..n_mask {
        if candidates.is_empty() {
            break;
        }
        let net = candidates[(next(&mut state) % candidates.len() as u64) as usize];
        if mask.iter().all(|&(n, _)| n != net) {
            mask.push((net, next(&mut state) & 1 == 1));
        }
    }
    mask.sort_unstable_by_key(|&(n, _)| n);
    // The masked nets' transitive fanout (ids are topological).
    let mut cone = vec![false; nl.len()];
    for &(net, _) in &mask {
        cone[net.index()] = true;
    }
    for (id, node) in nl.iter() {
        if let Node::Gate(g) = node {
            if g.inputs().iter().any(|i| cone[i.index()]) {
                cone[id.index()] = true;
            }
        }
    }
    let packed = compiled.pack(&stim).expect("valid stimulus");
    let trace = compiled.trace(&packed);
    let oracle = compiled.run_masked_with_activity(&packed, &mask);
    let mut scratch = ConeScratch::default();
    for affected in [cone, vec![true; nl.len()]] {
        let (outputs, toggles) = compiled.run_cone(&trace, &mask, &affected, &mut scratch);
        for p in nl.output_ports() {
            assert_eq!(
                outputs.port_values(&p.name),
                oracle.port_values(&p.name),
                "cone pass diverges from oracle on {} ({n_samples} samples, mask {mask:?})",
                p.name
            );
        }
        for i in 0..nl.len() {
            let net = NetId::from_index(i);
            assert_eq!(
                toggles.toggles(net),
                oracle.activity.toggles(net),
                "toggles net {i} ({n_samples} samples, mask {mask:?})"
            );
        }
    }
}

/// The cone pass at the word counts the catalog's circuits run —
/// cardio 10 words, whitewine 23, pendigits 52 — plus an exact
/// multiple of the word and one sample past it: a few random netlists ×
/// masks per size, each also run with every slot affected.
#[test]
fn cone_pass_matches_masked_oracle_at_catalog_word_counts() {
    for n_samples in [640usize, 1024, 1025, 3300] {
        for case in 0..4u64 {
            let seed = next(&mut (n_samples as u64 * 31 + case));
            check_cone_pass(seed, 30 + 20 * case as usize, n_samples, 1 + 2 * case as usize);
        }
    }
}

/// Scalar reference: evaluates every net of the netlist on one sample,
/// mirroring `eval_ports`' walk but exposing all nets — the ground
/// truth the activity counters are differenced against.
fn scalar_net_values(nl: &Netlist, by_name: &BTreeMap<&str, u64>) -> Vec<bool> {
    let mut vals = vec![false; nl.len()];
    for (id, node) in nl.iter() {
        vals[id.index()] = match node {
            Node::Input { port, bit } => {
                let p = &nl.input_ports()[*port as usize];
                by_name[p.name.as_str()] >> bit & 1 == 1
            }
            Node::Gate(g) => {
                let ins: Vec<bool> = g.inputs().iter().map(|i| vals[i.index()]).collect();
                g.kind.eval_bool(&ins)
            }
        };
    }
    vals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine vs scalar evaluator on weighted-sum circuits with sample
    /// counts that straddle 64-bit word boundaries.
    #[test]
    fn engine_matches_scalar(
        w1 in -60i64..60,
        w2 in -60i64..60,
        n_samples in 1usize..200,
        seed in any::<u64>(),
    ) {
        let mut b = NetlistBuilder::new("ws");
        let x1 = b.input_port("x1", 4);
        let x2 = b.input_port("x2", 4);
        let width = bits::signed_width_for((w1.min(0) + w2.min(0)) * 15, (w1.max(0) + w2.max(0)) * 15);
        let p1 = constmul::bespoke_mul(&mut b, &x1, w1, width);
        let p2 = constmul::bespoke_mul(&mut b, &x2, w2, width);
        let s = csa::sum_terms(
            &mut b,
            &[csa::Term::signed(p1), csa::Term::signed(p2)],
            0,
            width,
        );
        b.output_port("s", s);
        let nl = b.finish();

        let mut state = seed | 1;
        let mut v1 = Vec::new();
        let mut v2 = Vec::new();
        for _ in 0..n_samples {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            v1.push(state >> 60);
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            v2.push(state >> 60);
        }
        let mut stim = Stimulus::new();
        stim.port("x1", v1.clone()).port("x2", v2.clone());
        let res = try_simulate(&nl, &stim).expect("valid stimulus");
        for s_idx in 0..n_samples {
            let expect = eval::eval_ports(&nl, &[("x1", v1[s_idx]), ("x2", v2[s_idx])]);
            prop_assert_eq!(res.port_sample("s", s_idx), expect["s"]);
            // Cross-check the integer semantics too.
            let value = eval::to_signed(res.port_sample("s", s_idx), width);
            prop_assert_eq!(value, w1 * v1[s_idx] as i64 + w2 * v2[s_idx] as i64);
        }
    }

    /// The optimizer is exact: compare() must prove equivalence for any
    /// bespoke multiplier before/after optimization.
    #[test]
    fn optimizer_equivalence_via_compare(w in -128i64..=127) {
        let build = |name: &str| {
            let mut b = NetlistBuilder::new(name);
            let x = b.input_port("x", 4);
            let width = bits::product_width(4, w);
            let p = constmul::bespoke_mul(&mut b, &x, w, width);
            b.output_port("p", p);
            b.finish()
        };
        let nl = build("m");
        let opt = pax_synth::opt::optimize(&nl);
        prop_assert!(compare::compare(&nl, &opt, 0).expect("exhaustive stimulus").is_equivalent());
    }

    /// The differential pin: on random netlists × random stimuli, the
    /// compiled tape, the interpreter and the scalar reference agree
    /// bit-for-bit — output ports, per-net ones AND per-net toggles.
    #[test]
    fn compiled_interpreter_scalar_agree_on_random_netlists(
        seed in any::<u64>(),
        n_gates in 1usize..90,
        n_samples in 1usize..220,
    ) {
        let nl = random_netlist(seed, n_gates);
        let stim = random_stimulus(&nl, seed ^ 0xD1F, n_samples);
        let interp = try_simulate(&nl, &stim).expect("valid stimulus");
        let compiled = CompiledNetlist::compile(&nl);
        let tape = compiled.run_with_activity(&stim).expect("valid stimulus");
        let fast = compiled.run(&stim).expect("valid stimulus");

        // Scalar ground truth, sample by sample, all nets.
        let mut ones = vec![0u64; nl.len()];
        let mut toggles = vec![0u64; nl.len()];
        let mut prev: Option<Vec<bool>> = None;
        for s in 0..n_samples {
            let by_name: BTreeMap<&str, u64> =
                nl.input_ports().iter().map(|p| (p.name.as_str(), stim.samples(&p.name).unwrap()[s])).collect();
            let inputs: Vec<(&str, u64)> = by_name.iter().map(|(&n, &v)| (n, v)).collect();
            let expect = eval::eval_ports(&nl, &inputs);
            for p in nl.output_ports() {
                prop_assert_eq!(interp.port_sample(&p.name, s), expect[&p.name], "interp {} s={}", p.name, s);
                prop_assert_eq!(tape.port_sample(&p.name, s), expect[&p.name], "tape {} s={}", p.name, s);
                prop_assert_eq!(fast.port_sample(&p.name, s), expect[&p.name], "fast {} s={}", p.name, s);
            }
            let vals = scalar_net_values(&nl, &by_name);
            for (i, &v) in vals.iter().enumerate() {
                ones[i] += u64::from(v);
                if let Some(prev) = &prev {
                    toggles[i] += u64::from(prev[i] != v);
                }
            }
            prev = Some(vals);
        }
        for i in 0..nl.len() {
            let net = NetId::from_index(i);
            prop_assert_eq!(interp.activity.ones(net), ones[i], "interp ones net {}", i);
            prop_assert_eq!(interp.activity.toggles(net), toggles[i], "interp toggles net {}", i);
            prop_assert_eq!(tape.activity.ones(net), ones[i], "tape ones net {}", i);
            prop_assert_eq!(tape.activity.toggles(net), toggles[i], "tape toggles net {}", i);
        }
    }

    /// Engine vs compiled on the structured weighted-sum circuits too
    /// (the original interpreter property, extended to the tape).
    #[test]
    fn compiled_matches_interpreter_on_weighted_sums(
        w1 in -60i64..60,
        w2 in -60i64..60,
        n_samples in 1usize..200,
        seed in any::<u64>(),
    ) {
        let mut b = NetlistBuilder::new("ws");
        let x1 = b.input_port("x1", 4);
        let x2 = b.input_port("x2", 4);
        let width = bits::signed_width_for((w1.min(0) + w2.min(0)) * 15, (w1.max(0) + w2.max(0)) * 15);
        let p1 = constmul::bespoke_mul(&mut b, &x1, w1, width);
        let p2 = constmul::bespoke_mul(&mut b, &x2, w2, width);
        let s = csa::sum_terms(
            &mut b,
            &[csa::Term::signed(p1), csa::Term::signed(p2)],
            0,
            width,
        );
        b.output_port("s", s);
        let nl = b.finish();
        let stim = random_stimulus(&nl, seed, n_samples);
        let interp = try_simulate(&nl, &stim).expect("valid stimulus");
        let tape = CompiledNetlist::compile(&nl).run_with_activity(&stim).expect("valid stimulus");
        prop_assert_eq!(interp.port_values("s"), tape.port_values("s"));
        for i in 0..nl.len() {
            let net = NetId::from_index(i);
            prop_assert_eq!(interp.activity.ones(net), tape.activity.ones(net));
            prop_assert_eq!(interp.activity.toggles(net), tape.activity.toggles(net));
        }
    }

    /// The tape's 256-lane words agree bit-for-bit with 64-lane
    /// words on random netlists — same instructions, wider vectors.
    #[test]
    fn wide_words_match_u64_on_random_netlists(
        seed in any::<u64>(),
        n_gates in 1usize..90,
        n_samples in 1usize..400,
    ) {
        let nl = random_netlist(seed, n_gates);
        let stim = random_stimulus(&nl, seed ^ 0x256, n_samples);
        let compiled = CompiledNetlist::compile(&nl);
        let narrow = compiled.pack(&stim).expect("valid stimulus");
        let wide = compiled.pack_wide(&stim).expect("valid stimulus");
        let a = compiled.run_packed(&narrow);
        let b = compiled.run_packed(&wide);
        for p in nl.output_ports() {
            prop_assert_eq!(
                a.port_values(&p.name), b.port_values(&p.name),
                "wide/narrow diverge on {}", p.name
            );
        }
    }

    /// The cone pass equals the masked oracle on random netlists ×
    /// random id-sorted masks at 1–300 samples (see `check_cone_pass`;
    /// any superset of the cone gives the same result).
    #[test]
    fn cone_pass_matches_unfused_masked_oracle(
        seed in any::<u64>(),
        n_gates in 1usize..90,
        n_samples in 1usize..=300,
        n_mask in 0usize..8,
    ) {
        check_cone_pass(seed, n_gates, n_samples, n_mask);
    }

    /// Toggle counts are insensitive to how samples split across words:
    /// simulating a stream equals summing per-net stats of the same
    /// stream (consistency at word boundaries).
    #[test]
    fn toggle_count_reference(samples in proptest::collection::vec(0u64..2, 2..300)) {
        let mut b = NetlistBuilder::new("wire");
        let x = b.input_port("x", 1);
        b.output_port("y", x.clone());
        let nl = b.finish();
        let mut stim = Stimulus::new();
        stim.port("x", samples.clone());
        let res = try_simulate(&nl, &stim).expect("valid stimulus");
        let expect: u64 = samples.windows(2).map(|p| u64::from(p[0] != p[1])).sum();
        prop_assert_eq!(res.activity.toggles(x[0]), expect);
        let ones: u64 = samples.iter().sum();
        prop_assert_eq!(res.activity.ones(x[0]), ones);
    }
}
