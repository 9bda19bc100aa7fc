//! Delta-masked simulation: functional outputs *and* activity for a
//! chain of related masks, re-executing only what changed between
//! neighbours.
//!
//! [`CompiledNetlist::run_masked`] +
//! [`CompiledNetlist::masked_activity`](CompiledNetlist::masked_activity)
//! price every candidate at one full fused pass over the tape plus a
//! cone-restricted activity recompute. Across a lattice-ordered batch of
//! pruning candidates, consecutive masks differ by a handful of nets —
//! the full fused pass mostly recomputes values the previous candidate
//! already produced.
//!
//! [`DeltaSim`] keeps the complete per-word value rows of the *current*
//! mask (seeded from a [`BaseTrace`]) and, per
//! [`step`](DeltaSim::step), re-executes only the instructions
//! downstream of the symmetric difference between the current and the
//! requested mask — in unfused tape order, in place — then re-counts
//! only those slots. Functional outputs are harvested straight from the
//! rows, so the fused pass disappears entirely.
//!
//! Bit-identity: the rows evolve under exactly the unfused masked
//! semantics of [`CompiledNetlist::run_masked_with_activity`] (same
//! instruction rewiring, same reserved constant slots, same tail-lane
//! masking, same toggle-boundary rules), and unfused == fused is pinned
//! by the engine's differential suite — so every step's outputs and
//! activity equal a from-scratch masked run bit for bit. The
//! `proptest_engine` suite pins `DeltaSim::step` against both oracles
//! across random mask chains.

use std::collections::BTreeMap;

use pax_netlist::NetId;

use crate::compiled::const_operands;
use crate::engine::SimOutputs;
use crate::fuse::Instr;
use crate::{Activity, BaseTrace, CompiledNetlist};

/// Rolling delta-masked execution state over one `(tape, stimulus)`
/// pair. See the module docs for the design; create one via
/// [`DeltaSim::new`] and drive it with [`DeltaSim::step`].
#[derive(Debug, Clone)]
pub struct DeltaSim {
    n_slots: usize,
    n_samples: usize,
    n_words: usize,
    /// `rows[w][slot]`: the value word of `slot` at word `w` under the
    /// current mask, plus the two reserved constant slots at the end
    /// (all-zero, then all-one — tail lanes included, exactly like the
    /// masked execution paths).
    rows: Vec<Vec<u64>>,
    /// Activity counts of the current mask (base-netlist slots only).
    ones: Vec<u64>,
    toggles: Vec<u64>,
    /// The unfused tape under the current mask's operand rewiring.
    instrs: Vec<Instr>,
    /// The current mask, id-sorted.
    cur: Vec<(NetId, bool)>,
    /// Scratch: per-slot changed flag for the step in flight (reserved
    /// slots stay `false` forever).
    changed: Vec<bool>,
    /// Scratch: toggle-boundary bit per slot, zeroed for every slot a
    /// step re-counts.
    prev_msb: Vec<u64>,
    /// Nets in the last step's symmetric difference.
    last_delta: usize,
}

impl DeltaSim {
    /// Seeds a delta session from `trace` (an unmasked recording of the
    /// stimulus on `tape`): the current mask starts empty, rows and
    /// counts start at the base run's.
    pub fn new(tape: &CompiledNetlist, trace: &BaseTrace) -> Self {
        let n_slots = tape.n_slots;
        let rows = trace
            .rows
            .iter()
            .map(|r| {
                let mut row = Vec::with_capacity(n_slots + 2);
                row.extend_from_slice(r);
                row.push(0);
                row.push(u64::MAX);
                row
            })
            .collect();
        Self {
            n_slots,
            n_samples: trace.n_samples,
            n_words: trace.n_words,
            rows,
            ones: trace.ones.clone(),
            toggles: trace.toggles.clone(),
            instrs: tape.instrs.clone(),
            cur: Vec::new(),
            changed: vec![false; n_slots + 2],
            prev_msb: vec![0; n_slots],
            last_delta: 0,
        }
    }

    /// Number of nets in the last step's symmetric difference (0 before
    /// the first step) — the delta-size telemetry hook.
    pub fn last_delta(&self) -> usize {
        self.last_delta
    }

    /// Advances the session to `mask` (id-sorted, same contract as
    /// [`CompiledNetlist::run_masked`]) and returns that mask's
    /// functional outputs and full activity, bit-identical to
    /// [`CompiledNetlist::run_masked`] /
    /// [`CompiledNetlist::run_masked_with_activity`] on the traced
    /// stimulus. `tape` must be the tape this session was seeded from.
    ///
    /// # Panics
    ///
    /// Panics if a masked net is not driven by a (non-constant) gate
    /// instruction of the tape — masking inputs or tie cells is a
    /// caller bug.
    pub fn step(
        &mut self,
        tape: &CompiledNetlist,
        mask: &[(NetId, bool)],
    ) -> (SimOutputs, Activity) {
        debug_assert_eq!(tape.n_slots, self.n_slots, "delta session pinned to one tape");
        debug_assert!(mask.windows(2).all(|w| w[0].0 < w[1].0), "mask must be id-sorted");
        let zero = self.n_slots as u32;
        let one = zero + 1;

        // Symmetric difference against the current mask, rewiring the
        // rolling instruction view as we merge: newly masked (or
        // re-valued) nets pin to their constants, un-masked nets restore
        // their base operands.
        let mut delta = 0usize;
        {
            let mut old = self.cur.iter().peekable();
            let mut new = mask.iter().peekable();
            loop {
                let (slot, rewire) = match (old.peek(), new.peek()) {
                    (Some(&&(a, av)), Some(&&(b, bv))) if a == b => {
                        old.next();
                        new.next();
                        if av == bv {
                            continue;
                        }
                        (a, Some(bv))
                    }
                    (Some(&&(a, _)), Some(&&(b, _))) if a < b => {
                        old.next();
                        (a, None)
                    }
                    (Some(_), None) => {
                        let &(a, _) = old.next().expect("peeked");
                        (a, None)
                    }
                    (_, Some(_)) => {
                        let &(b, bv) = new.next().expect("peeked");
                        (b, Some(bv))
                    }
                    (None, None) => break,
                };
                let at = tape.instr_of[slot.index()];
                assert!(at != u32::MAX, "masked net {slot} is not a gate instruction");
                let kind = tape.kinds[at as usize];
                assert!(!kind.is_free(), "masked net {slot} is a constant tie");
                let i = &mut self.instrs[at as usize];
                match rewire {
                    Some(value) => {
                        let (a, b, c) = const_operands(kind, value, zero, one);
                        (i.a, i.b, i.c) = (a, b, c);
                    }
                    None => *i = tape.instrs[at as usize],
                }
                self.changed[slot.index()] = true;
                delta += 1;
            }
        }
        self.last_delta = delta;

        // Forward closure over the (topological) tape: an instruction
        // re-executes when its destination was rewired or any operand's
        // value changed. Rewired-to-constant instructions read only the
        // reserved slots, so a net masked identically in both masks
        // never re-executes — its cone is settled.
        let mut sel: Vec<u32> = Vec::new();
        for at in 0..self.instrs.len() {
            let i = self.instrs[at];
            if self.changed[i.dst as usize]
                || self.changed[i.a as usize]
                || self.changed[i.b as usize]
                || self.changed[i.c as usize]
            {
                self.changed[i.dst as usize] = true;
                sel.push(at as u32);
            }
        }
        let changed_slots: Vec<usize> = (0..self.n_slots).filter(|&s| self.changed[s]).collect();
        for &s in &changed_slots {
            self.ones[s] = 0;
            self.toggles[s] = 0;
            self.prev_msb[s] = 0;
            self.changed[s] = false;
        }

        // Re-execute and re-count only the changed cone, in place, with
        // exactly `masked_activity`'s counting discipline.
        for w in 0..self.n_words {
            let row = &mut self.rows[w];
            for &at in &sel {
                let i = self.instrs[at as usize];
                let a = row[i.a as usize];
                let b = row[i.b as usize];
                let c = row[i.c as usize];
                row[i.dst as usize] = tape.kinds[at as usize].eval_word(a, b, c);
            }
            let valid = (self.n_samples - w * 64).min(64);
            let m = if valid == 64 { u64::MAX } else { (1u64 << valid) - 1 };
            for &s in &changed_slots {
                let v = row[s];
                self.ones[s] += (v & m).count_ones() as u64;
                let shifted = (v << 1) | self.prev_msb[s];
                let mut diff = (v ^ shifted) & m;
                if w == 0 {
                    diff &= !1;
                }
                self.toggles[s] += diff.count_ones() as u64;
                self.prev_msb[s] = v >> (valid - 1) & 1;
            }
        }
        self.cur.clear();
        self.cur.extend_from_slice(mask);

        // Harvest the output planes straight from the rows (tail lanes
        // masked, exactly like the executing paths).
        let mut port_words: BTreeMap<String, Vec<Vec<u64>>> = BTreeMap::new();
        let mut cursor = tape.output_slots.iter();
        for p in &tape.output_ports {
            let planes: Vec<Vec<u64>> = cursor
                .by_ref()
                .take(p.width())
                .map(|&slot| {
                    (0..self.n_words)
                        .map(|w| {
                            let valid = (self.n_samples - w * 64).min(64);
                            let m = if valid == 64 { u64::MAX } else { (1u64 << valid) - 1 };
                            self.rows[w][slot as usize] & m
                        })
                        .collect()
                })
                .collect();
            port_words.insert(p.name.clone(), planes);
        }
        let outputs = SimOutputs::new(self.n_samples, port_words);
        let activity = Activity::new(self.n_samples, self.ones.clone(), self.toggles.clone());
        (outputs, activity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stimulus;
    use pax_netlist::{NetlistBuilder, Node};

    /// A two-output netlist with shared logic and a fused cone.
    fn sample() -> (pax_netlist::Netlist, Vec<NetId>) {
        let mut b = NetlistBuilder::new("d");
        let x = b.input_port("x", 5);
        let t1 = b.and2(x[0], x[1]);
        let t2 = b.or2(t1, x[2]);
        let t3 = b.xor2(t2, x[3]);
        let t4 = b.nand2(t1, x[4]);
        let t5 = b.mux(x[4], t3, t2);
        b.output_port("y", vec![t3, t5].into());
        b.output_port("z", vec![t4].into());
        (b.finish(), vec![t1, t2, t3, t4, t5])
    }

    fn stim(width: usize, repeats: usize) -> Stimulus {
        let n = 1usize << width;
        let samples: Vec<u64> = (0..n * repeats).map(|i| (i % n) as u64).collect();
        let mut s = Stimulus::new();
        s.port("x", samples);
        s
    }

    #[test]
    fn delta_chain_matches_masked_oracles() {
        let (nl, nets) = sample();
        let tape = CompiledNetlist::compile(&nl);
        let stim = stim(5, 3); // 96 samples: exercises the tail word
        let packed = tape.pack(&stim).unwrap();
        let trace = tape.trace(&packed);
        let mut sim = DeltaSim::new(&tape, &trace);
        let chain: Vec<Vec<(NetId, bool)>> = vec![
            vec![],
            vec![(nets[0], true)],
            vec![(nets[0], true), (nets[3], false)],
            vec![(nets[0], false), (nets[3], false)], // re-valued net
            vec![(nets[3], false)],
            vec![(nets[1], true), (nets[2], false), (nets[4], true)],
            vec![],
        ];
        for mask in &chain {
            let mut sorted = mask.clone();
            sorted.sort_unstable_by_key(|&(n, _)| n);
            let (outputs, activity) = sim.step(&tape, &sorted);
            let fused = tape.run_masked(&packed, &sorted);
            let oracle = tape.run_masked_with_activity(&packed, &sorted);
            for port in ["y", "z"] {
                assert_eq!(outputs.port_values(port), fused.port_values(port), "mask {mask:?}");
                assert_eq!(outputs.port_values(port), oracle.port_values(port), "mask {mask:?}");
            }
            for i in 0..nl.len() {
                let net = NetId::from_index(i);
                assert_eq!(activity.ones(net), oracle.activity.ones(net), "ones {i} {mask:?}");
                assert_eq!(
                    activity.toggles(net),
                    oracle.activity.toggles(net),
                    "toggles {i} {mask:?}"
                );
            }
        }
    }

    #[test]
    fn delta_size_reports_symmetric_difference() {
        let (nl, nets) = sample();
        let tape = CompiledNetlist::compile(&nl);
        let packed = tape.pack(&stim(5, 1)).unwrap();
        let trace = tape.trace(&packed);
        let mut sim = DeltaSim::new(&tape, &trace);
        assert_eq!(sim.last_delta(), 0);
        sim.step(&tape, &[(nets[0], true)]);
        assert_eq!(sim.last_delta(), 1);
        sim.step(&tape, &[(nets[0], true), (nets[3], false)]);
        assert_eq!(sim.last_delta(), 1);
        sim.step(&tape, &[(nets[1], false)]);
        assert_eq!(sim.last_delta(), 3);
        // A re-valued net counts once.
        sim.step(&tape, &[(nets[1], true)]);
        assert_eq!(sim.last_delta(), 1);
    }

    #[test]
    #[should_panic(expected = "not a gate instruction")]
    fn masking_an_input_panics() {
        let (nl, _) = sample();
        let tape = CompiledNetlist::compile(&nl);
        let packed = tape.pack(&stim(5, 1)).unwrap();
        let trace = tape.trace(&packed);
        let input_net = nl
            .iter()
            .find_map(|(id, n)| matches!(n, Node::Input { .. }).then_some(id))
            .expect("input present");
        DeltaSim::new(&tape, &trace).step(&tape, &[(input_net, true)]);
    }
}
