//! Compile-once/execute-many netlist evaluation.
//!
//! [`simulate`](crate::simulate) walks the [`Netlist`] node list on
//! every word: per gate it matches on the node enum, probes the operand
//! `Option`s and dispatches on the gate kind. That is fine for a study
//! that evaluates each netlist once, but the serving engine and the
//! pruning search evaluate the *same* netlist thousands of times — the
//! dispatch overhead becomes the hot path.
//!
//! [`CompiledNetlist`] removes it by compiling the netlist once into a
//! flat instruction tape:
//!
//! * **levelized, kind-grouped runs** — gates are sorted by logic level
//!   (preserving topological validity) and grouped into runs of one
//!   [`GateKind`], so the kind dispatch is hoisted out of the inner
//!   loop: one `match` per run, then a tight loop over dense operand
//!   slots;
//! * **LUT-cone fusion** — at compile time the tape is greedily covered
//!   with k-input cones (k ≤ 6, single-fanout internals only; see the
//!   invariants in the `fuse` module docs). Each profitable cone
//!   becomes one table-lookup instruction, so a whole run of decoded
//!   gates collapses into a handful of register-resident word ops. The
//!   activity-off entry points ([`run`](CompiledNetlist::run),
//!   [`run_packed`](CompiledNetlist::run_packed),
//!   [`run_masked`](CompiledNetlist::run_masked)) execute the fused
//!   tape;
//! * **width-generic words** — the kernel is generic over
//!   [`Word`](crate::Word): 64 lanes (`u64`) or 256 lanes
//!   ([`W256`](crate::W256)). [`run`](CompiledNetlist::run) picks the
//!   wide word automatically for large stimuli; outputs flatten back to
//!   `u64` planes losslessly, so callers never see the width;
//! * **optional activity accounting** — the activity-on entry points
//!   ([`run_with_activity`](CompiledNetlist::run_with_activity),
//!   [`run_packed_with_activity`](CompiledNetlist::run_packed_with_activity),
//!   [`run_masked_with_activity`](CompiledNetlist::run_masked_with_activity))
//!   produce an [`Activity`] record bit-identical to the interpreter's.
//!   They execute the **unfused** tape at 64 lanes: exact per-net toggle
//!   accounting must observe every internal net, and fused cones elide
//!   theirs. The unfused tape doubles as the differential oracle the
//!   fused tape is pinned against;
//! * **sequential word execution** — every entry point runs its words
//!   one after another on the calling thread. The largest catalog run,
//!   pendigits svm-c's τ analysis, is about a million tape operations,
//!   too little to pay for threads; callers that evaluate many tapes or
//!   masks parallelize across those evaluations instead (`pax_core::par`
//!   and the `pax-serve` worker pool).
//!
//! All entry points are pinned bit-for-bit (ports, ones, toggles) to
//! [`simulate`](crate::simulate) and to the scalar
//! [`eval_ports`](pax_netlist::eval::eval_ports) reference by the
//! differential property suite in `tests/proptest_engine.rs` — fused ==
//! unfused == interpreted, at both word widths.
//!
//! # Examples
//!
//! ```
//! use pax_netlist::NetlistBuilder;
//! use pax_sim::{CompiledNetlist, Stimulus};
//!
//! let mut b = NetlistBuilder::new("xor");
//! let x = b.input_port("x", 1);
//! let y = b.input_port("y", 1);
//! let g = b.xor2(x[0], y[0]);
//! b.output_port("z", vec![g].into());
//! let compiled = CompiledNetlist::compile(&b.finish());
//!
//! let mut stim = Stimulus::new();
//! stim.port("x", vec![0, 0, 1, 1]);
//! stim.port("y", vec![0, 1, 0, 1]);
//! // Compile once, run on as many stimuli as you like.
//! let out = compiled.run(&stim).unwrap();
//! assert_eq!(out.port_values("z"), vec![0, 1, 1, 0]);
//! ```

use std::collections::BTreeMap;

use pax_netlist::{GateKind, Netlist, Node, Port};

use crate::engine::{pack_inputs, PackedInputs, SimOutputs, SimResult};
use crate::fuse::{eval_lut, table_mask, FusedTape, Instr, LutInstr, Run, Step, MAX_K};
use crate::word::{Word, W256};
use crate::{Activity, SimError, Stimulus};

/// Stimuli longer than this execute over 256-lane words: four 64-bit
/// limbs per instruction decode. Below it the wide word would waste
/// lanes (a 256-lane word holds at least two full `u64` words of
/// samples before it pays off).
const WIDE_WORD_THRESHOLD: usize = 128;

/// A netlist compiled to a flat, kind-grouped instruction tape plus a
/// LUT-fused execution plan. See the module docs in `compiled.rs` for
/// the design and when to prefer this over
/// [`simulate`](crate::simulate).
#[derive(Debug, Clone)]
pub struct CompiledNetlist {
    name: String,
    pub(crate) n_slots: usize,
    /// The unfused tape: every gate, levelized and kind-grouped. This
    /// is the activity oracle and the source cones are re-derived from.
    pub(crate) instrs: Vec<Instr>,
    runs: Vec<Run>,
    /// Gate kind at each unfused tape position (run lookup, hoisted).
    pub(crate) kinds: Vec<GateKind>,
    /// Constant value of tie-cell slots (`None` for everything else) —
    /// needed when re-deriving cone tables under masks.
    const_of: Vec<Option<bool>>,
    /// The fused execution plan the activity-off paths run.
    fused: FusedTape,
    input_ports: Vec<Port>,
    pub(crate) output_ports: Vec<Port>,
    /// Value slot of every output-port bit, ports in declaration order,
    /// bits LSB-first — the flat order output planes use.
    pub(crate) output_slots: Vec<u32>,
    /// Unfused tape position of the instruction writing each slot
    /// (`u32::MAX` for input/non-gate slots) — the lookup masked
    /// execution rewrites through.
    pub(crate) instr_of: Vec<u32>,
}

/// A [`Stimulus`] packed once against a tape's input ports, reusable
/// across many [`CompiledNetlist::run_packed`] /
/// [`CompiledNetlist::run_masked`] calls. Packing validates coverage,
/// sample counts and port widths — exactly what
/// [`CompiledNetlist::run`] does per call — so sharing one
/// `PackedStimulus` removes that per-evaluation cost when thousands of
/// pruning candidates are scored on the same test set.
///
/// Generic over the executing [`Word`]: [`CompiledNetlist::pack`]
/// produces 64-lane words, [`CompiledNetlist::pack_wide`] 256-lane
/// words. Execution results are bit-identical either way.
#[derive(Debug)]
pub struct PackedStimulus<W: Word = u64> {
    inner: PackedInputs<W>,
}

impl<W: Word> PackedStimulus<W> {
    /// Number of packed samples.
    pub fn n_samples(&self) -> usize {
        self.inner.n_samples
    }
}

/// One full recording of an unfused, unmasked run: per-word values of
/// every slot plus the base activity counts. [`CompiledNetlist::trace`]
/// produces it once per (tape, stimulus) pair;
/// [`CompiledNetlist::masked_activity`] then re-derives the activity of
/// any masked variant by re-executing only the instructions downstream
/// of the mask — every other slot's values (and therefore counts) are
/// word-for-word identical to the base run, so they are merged from the
/// trace instead of recomputed.
#[derive(Debug, Clone)]
pub struct BaseTrace {
    pub(crate) n_samples: usize,
    pub(crate) n_words: usize,
    /// `rows[w][slot]`: the value word of `slot` at word `w`.
    pub(crate) rows: Vec<Vec<u64>>,
    pub(crate) ones: Vec<u64>,
    pub(crate) toggles: Vec<u64>,
}

impl BaseTrace {
    /// Number of traced samples.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// The base (unmasked) activity this trace recorded.
    pub fn base_activity(&self) -> Activity {
        Activity::new(self.n_samples, self.ones.clone(), self.toggles.clone())
    }
}

impl CompiledNetlist {
    /// Compiles `nl` into an instruction tape and covers it with fused
    /// LUT cones.
    ///
    /// Gates are stable-sorted by logic level (so the tape stays a valid
    /// topological order) and, within a level, by kind — maximizing the
    /// length of single-kind runs.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than `u32::MAX` nodes.
    pub fn compile(nl: &Netlist) -> Self {
        assert!(nl.len() <= u32::MAX as usize, "netlist too large to compile");
        let levels = pax_netlist::topo::levels(nl);
        let mut gates: Vec<usize> = nl
            .iter()
            .filter(|(_, node)| matches!(node, Node::Gate(_)))
            .map(|(id, _)| id.index())
            .collect();
        gates.sort_by_key(|&i| {
            let Node::Gate(g) = nl.nodes()[i] else { unreachable!("filtered to gates") };
            (levels[i], g.kind, i)
        });

        let mut instrs = Vec::with_capacity(gates.len());
        let mut kinds = Vec::with_capacity(gates.len());
        let mut runs: Vec<Run> = Vec::new();
        let mut const_of: Vec<Option<bool>> = vec![None; nl.len()];
        for &i in &gates {
            let Node::Gate(g) = nl.nodes()[i] else { unreachable!("filtered to gates") };
            let ins = g.inputs();
            let operand = |k: usize| ins.get(k).map_or(0, |n| n.index() as u32);
            let at = instrs.len() as u32;
            instrs.push(Instr { a: operand(0), b: operand(1), c: operand(2), dst: i as u32 });
            kinds.push(g.kind);
            match g.kind {
                GateKind::Const0 => const_of[i] = Some(false),
                GateKind::Const1 => const_of[i] = Some(true),
                _ => {}
            }
            match runs.last_mut() {
                Some(run) if run.op == g.kind => run.end = at + 1,
                _ => runs.push(Run { op: g.kind, start: at, end: at + 1 }),
            }
        }

        let output_slots: Vec<u32> = nl
            .output_ports()
            .iter()
            .flat_map(|p| p.bits.iter().map(|n| n.index() as u32))
            .collect();

        let mut instr_of = vec![u32::MAX; nl.len()];
        for (at, i) in instrs.iter().enumerate() {
            instr_of[i.dst as usize] = at as u32;
        }

        let fused = FusedTape::build(&instrs, &kinds, nl.len(), &output_slots);

        Self {
            name: nl.name().to_owned(),
            n_slots: nl.len(),
            instrs,
            runs,
            kinds,
            const_of,
            fused,
            input_ports: nl.input_ports().to_vec(),
            output_ports: nl.output_ports().to_vec(),
            output_slots,
            instr_of,
        }
    }

    /// The compiled netlist's module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of value slots (nodes of the source netlist).
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Number of unfused tape instructions (gates, constants included).
    pub fn n_instructions(&self) -> usize {
        self.instrs.len()
    }

    /// Number of single-kind runs the unfused tape was grouped into —
    /// the number of kind dispatches per activity-tracked word.
    pub fn n_runs(&self) -> usize {
        self.runs.len()
    }

    /// Number of fused LUT cones in the activity-off execution plan.
    pub fn n_luts(&self) -> usize {
        self.fused.luts.len()
    }

    /// Instructions per word on the fused (activity-off) plan: residual
    /// gates plus LUTs. The gap to [`n_instructions`](Self::n_instructions)
    /// is what fusion removed.
    pub fn n_fused_instructions(&self) -> usize {
        self.fused.instrs.len() + self.fused.luts.len()
    }

    /// Executes the fused tape on `stim` — functional outputs only, no
    /// activity accounting. This is the serving path: it never pays for
    /// toggle counters nobody reads. Stimuli above ~2 `u64` words of
    /// samples execute over 256-lane words; results are bit-identical
    /// across widths.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for empty, incomplete, ragged or oversized
    /// stimuli.
    pub fn run(&self, stim: &Stimulus) -> Result<SimOutputs, SimError> {
        if stim.try_n_samples().unwrap_or(0) > WIDE_WORD_THRESHOLD {
            let packed = self.pack_wide(stim)?;
            Ok(self.run_packed(&packed))
        } else {
            let packed = self.pack(stim)?;
            Ok(self.run_packed(&packed))
        }
    }

    /// Packs `stim` against this tape's input ports for repeated
    /// execution via [`run_packed`](Self::run_packed) /
    /// [`run_masked`](Self::run_masked), at 64 lanes per word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for empty, incomplete, ragged or oversized
    /// stimuli.
    pub fn pack(&self, stim: &Stimulus) -> Result<PackedStimulus, SimError> {
        Ok(PackedStimulus { inner: pack_inputs(&self.input_ports, stim)? })
    }

    /// Packs `stim` at 256 lanes per word — the width
    /// [`run`](Self::run) picks automatically for large stimuli. Use
    /// with [`run_packed`](Self::run_packed) /
    /// [`run_masked`](Self::run_masked); the activity-tracking entry
    /// points require 64-lane packing.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for empty, incomplete, ragged or oversized
    /// stimuli.
    pub fn pack_wide(&self, stim: &Stimulus) -> Result<PackedStimulus<W256>, SimError> {
        Ok(PackedStimulus { inner: pack_inputs(&self.input_ports, stim)? })
    }

    /// Executes the fused tape on an already-packed stimulus —
    /// functional outputs only. Validation happened at
    /// [`pack`](Self::pack) time, so this path is infallible.
    pub fn run_packed<W: Word>(&self, packed: &PackedStimulus<W>) -> SimOutputs {
        self.execute_fused(&self.fused.instrs, &self.fused.luts, self.n_slots, &packed.inner)
    }

    /// Executes the unfused tape on an already-packed stimulus with full
    /// activity accounting.
    pub fn run_packed_with_activity(&self, packed: &PackedStimulus) -> SimResult {
        let (outputs, activity) = self.execute_tracked(&self.instrs, self.n_slots, &packed.inner);
        SimResult::new(activity, outputs)
    }

    /// Executes the fused tape with the `mask`ed gates pinned to
    /// constants — functional outputs only (the overlay-evaluation and
    /// serving hot path). Masks compose with fusion without recompiling:
    ///
    /// * a masked net driven by a *residual* (unfused) gate rewrites
    ///   that instruction's operands onto two reserved constant slots,
    ///   exactly as on the unfused tape;
    /// * a masked net that is a cone *output* splats the cone's truth
    ///   table to the constant;
    /// * a masked net *internal* to a cone re-derives that cone's truth
    ///   table with the net tied to its constant — a pure table
    ///   transform over the recorded cone members (no recompile).
    ///
    /// Output-splat rewrites are applied after internal re-derivations,
    /// so masking a cone's output always wins over masks inside it.
    /// Functional outputs equal the rebuilt netlist's bit for bit, and
    /// equal [`run_masked_with_activity`](Self::run_masked_with_activity)'s
    /// on every port; results are bit-identical across word widths.
    ///
    /// # Panics
    ///
    /// Panics if a masked net is not driven by a (non-constant) gate
    /// instruction of this tape — masking inputs or tie cells is a
    /// caller bug.
    pub fn run_masked<W: Word>(
        &self,
        packed: &PackedStimulus<W>,
        mask: &[(pax_netlist::NetId, bool)],
    ) -> SimOutputs {
        if mask.is_empty() {
            return self.run_packed(packed);
        }
        let zero = self.n_slots as u32;
        let one = zero + 1;
        let mut instrs = self.fused.instrs.clone();
        let mut luts = self.fused.luts.clone();
        // Ties landing inside a cone are grouped per cone, so one
        // re-derivation honors all of them at once.
        let mut cone_ties: BTreeMap<u32, Vec<(u32, bool)>> = BTreeMap::new();
        let mut out_splats: Vec<(u32, bool)> = Vec::new();
        for &(net, value) in mask {
            let slot = net.index();
            let base_at = self.instr_of[slot];
            assert!(base_at != u32::MAX, "masked net {net} is not a gate instruction");
            let kind = self.kinds[base_at as usize];
            assert!(!kind.is_free(), "masked net {net} is a constant tie");
            if self.fused.lut_of[slot] != u32::MAX {
                out_splats.push((self.fused.lut_of[slot], value));
            } else if self.fused.cone_of[slot] != u32::MAX {
                cone_ties.entry(self.fused.cone_of[slot]).or_default().push((slot as u32, value));
            } else {
                let at = self.fused.instr_of[slot];
                debug_assert!(at != u32::MAX, "slot is neither fused nor residual");
                let (a, b, c) = const_operands(kind, value, zero, one);
                let i = &mut instrs[at as usize];
                (i.a, i.b, i.c) = (a, b, c);
            }
        }
        for (&cone, ties) in &cone_ties {
            luts[cone as usize].table = self.fused.derive_table(
                cone as usize,
                &self.instrs,
                &self.kinds,
                &self.const_of,
                ties,
            );
        }
        for &(lut, value) in &out_splats {
            let k = luts[lut as usize].k;
            luts[lut as usize].table = if value { table_mask(k) } else { 0 };
        }
        self.execute_fused(&instrs, &luts, self.n_slots + 2, &packed.inner)
    }

    /// Executes the **unfused** tape with the `mask`ed gates pinned to
    /// constants, with full per-net activity accounting: each
    /// `(net, value)` pair rewrites that gate's operands onto two
    /// reserved constant slots, so its output — and everything
    /// downstream — behaves exactly as if the net had been substituted
    /// with the constant and the netlist re-synthesized. Run structure,
    /// kinds and instruction positions are untouched; per-call cost is
    /// one instruction-vector clone.
    ///
    /// Exact toggle accounting must observe every internal net, so this
    /// path never fuses; it is the differential oracle
    /// [`run_masked`](Self::run_masked) is pinned against. Per-slot
    /// activity is reported in *base-netlist* slot space — a fold
    /// provenance maps surviving rebuilt gates back onto these slots.
    ///
    /// # Panics
    ///
    /// Panics if a masked net is not driven by a (non-constant) gate
    /// instruction of this tape — masking inputs or tie cells is a
    /// caller bug.
    pub fn run_masked_with_activity(
        &self,
        packed: &PackedStimulus,
        mask: &[(pax_netlist::NetId, bool)],
    ) -> SimResult {
        let instrs = self.masked_instrs(mask);
        let (outputs, activity) = self.execute_tracked(&instrs, self.n_slots + 2, &packed.inner);
        SimResult::new(activity, outputs)
    }

    /// The unfused tape with `mask` rewritten onto the reserved constant
    /// slots (shared by both masked-activity paths).
    fn masked_instrs(&self, mask: &[(pax_netlist::NetId, bool)]) -> Vec<Instr> {
        let mut instrs = self.instrs.clone();
        let zero = self.n_slots as u32;
        let one = zero + 1;
        for &(net, value) in mask {
            let at = self.instr_of[net.index()];
            assert!(at != u32::MAX, "masked net {net} is not a gate instruction");
            let kind = self.kinds[at as usize];
            assert!(!kind.is_free(), "masked net {net} is a constant tie");
            let (a, b, c) = const_operands(kind, value, zero, one);
            let i = &mut instrs[at as usize];
            (i.a, i.b, i.c) = (a, b, c);
        }
        instrs
    }

    /// Records one unfused, unmasked run of `packed`: every slot's value
    /// word per stimulus word, plus the base activity. The trace is the
    /// fixed input to [`masked_activity`](Self::masked_activity), which
    /// re-derives masked activity incrementally instead of re-executing
    /// the whole tape.
    pub fn trace(&self, packed: &PackedStimulus) -> BaseTrace {
        let p = &packed.inner;
        let mut rows = Vec::with_capacity(p.n_words);
        let (ones, toggles) = self
            .execute_counted(&self.instrs, self.n_slots, p, |_, vals, _| rows.push(vals.to_vec()));
        BaseTrace { n_samples: p.n_samples, n_words: p.n_words, rows, ones, toggles }
    }

    /// Activity of the `mask`ed tape, derived incrementally from a
    /// [`trace`](Self::trace) of the same stimulus: only instructions
    /// whose destination is in `affected` are re-executed (reading
    /// unaffected operands straight from the trace rows), and only
    /// affected slots are re-counted — everything else merges the base
    /// counts unchanged.
    ///
    /// `affected[slot]` must be `true` for every masked net and every
    /// net in the masked nets' transitive fanout (the caller already
    /// walks that cone for timing). Slots outside that set hold values
    /// word-for-word identical to the base run, which is what makes the
    /// merge exact: the result is bit-identical to
    /// [`run_masked_with_activity`](Self::run_masked_with_activity)'s
    /// activity.
    ///
    /// # Panics
    ///
    /// Panics on nets [`run_masked`](Self::run_masked) would reject.
    pub fn masked_activity(
        &self,
        trace: &BaseTrace,
        mask: &[(pax_netlist::NetId, bool)],
        affected: &[bool],
    ) -> Activity {
        let instrs = self.masked_instrs(mask);
        let zero = self.n_slots;
        let one = zero + 1;
        // Affected instructions, in tape (topological) order.
        let sel: Vec<u32> = (0..instrs.len() as u32)
            .filter(|&at| affected[instrs[at as usize].dst as usize])
            .collect();
        let aff_slots: Vec<usize> = (0..self.n_slots).filter(|&s| affected[s]).collect();

        let mut ones = trace.ones.clone();
        let mut toggles = trace.toggles.clone();
        for &s in &aff_slots {
            ones[s] = 0;
            toggles[s] = 0;
        }
        let mut prev_msb = vec![0u64; self.n_slots];
        let mut vals = vec![0u64; self.n_slots + 2];
        for w in 0..trace.n_words {
            vals[..self.n_slots].copy_from_slice(&trace.rows[w]);
            vals[zero] = 0;
            vals[one] = u64::MAX;
            for &at in &sel {
                let i = instrs[at as usize];
                let a = vals[i.a as usize];
                let b = vals[i.b as usize];
                let c = vals[i.c as usize];
                vals[i.dst as usize] = self.kinds[at as usize].eval_word(a, b, c);
            }
            let valid = (trace.n_samples - w * 64).min(64);
            let m = if valid == 64 { u64::MAX } else { (1u64 << valid) - 1 };
            for &s in &aff_slots {
                let v = vals[s];
                ones[s] += (v & m).count_ones() as u64;
                let shifted = (v << 1) | prev_msb[s];
                let mut diff = (v ^ shifted) & m;
                if w == 0 {
                    diff &= !1;
                }
                toggles[s] += diff.count_ones() as u64;
                prev_msb[s] = v >> (valid - 1) & 1;
            }
        }
        Activity::new(trace.n_samples, ones, toggles)
    }

    /// Executes the unfused tape on `stim` with full per-net activity
    /// accounting, producing a [`SimResult`] bit-identical to
    /// [`simulate`](crate::simulate)'s.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for empty, incomplete, ragged or oversized
    /// stimuli.
    pub fn run_with_activity(&self, stim: &Stimulus) -> Result<SimResult, SimError> {
        let packed = self.pack(stim)?;
        Ok(self.run_packed_with_activity(&packed))
    }

    /// Runs the fused plan (base or masked views of its instruction and
    /// LUT vectors) over all words and flattens the `W`-wide output
    /// planes back to `u64` words.
    fn execute_fused<W: Word>(
        &self,
        instrs: &[Instr],
        luts: &[LutInstr],
        n_vals: usize,
        packed: &PackedInputs<W>,
    ) -> SimOutputs {
        let mut vals = vec![W::zero(); n_vals];
        if n_vals > self.n_slots {
            vals[self.n_slots + 1] = W::ones(); // the reserved all-ones slot
        }
        let n_samples = packed.n_samples;
        let n_words64 = n_samples.div_ceil(64);
        let mut flat: Vec<Vec<u64>> = vec![vec![0u64; n_words64]; self.output_slots.len()];
        for w in 0..packed.n_words {
            load_inputs(packed, w, &mut vals);
            for step in &self.fused.steps {
                match *step {
                    Step::Gates(r) => {
                        let run = self.fused.runs[r as usize];
                        exec_run(run.op, &instrs[run.start as usize..run.end as usize], &mut vals);
                    }
                    Step::Luts { start, end } => {
                        for lut in &luts[start as usize..end as usize] {
                            let mut xs = [W::zero(); MAX_K];
                            for (x, &slot) in xs.iter_mut().zip(&lut.ins[..lut.k as usize]) {
                                *x = vals[slot as usize];
                            }
                            vals[lut.dst as usize] = eval_lut(lut.table, lut.k, &xs);
                        }
                    }
                }
            }
            // Lane l of wide word w is bit l % 64 of limb l / 64, so
            // limbs are consecutive u64 words of the same plane. The
            // tail word is masked to valid samples.
            for (plane, &slot) in flat.iter_mut().zip(&self.output_slots) {
                let wv = vals[slot as usize];
                for l in 0..W::LIMBS {
                    let g = w * W::LIMBS + l;
                    if g >= n_words64 {
                        break;
                    }
                    let valid = (n_samples - g * 64).min(64);
                    let m = if valid == 64 { u64::MAX } else { (1u64 << valid) - 1 };
                    plane[g] = wv.limb(l) & m;
                }
            }
        }
        self.outputs(n_samples, flat)
    }

    /// Runs an unfused tape view (the base instruction vector, or a
    /// masked rewrite of it over `n_vals` slots) over all words with
    /// activity tracking.
    fn execute_tracked(
        &self,
        instrs: &[Instr],
        n_vals: usize,
        packed: &PackedInputs,
    ) -> (SimOutputs, Activity) {
        let mut flat: Vec<Vec<u64>> = vec![vec![0u64; packed.n_words]; self.output_slots.len()];
        let (ones, toggles) = self.execute_counted(instrs, n_vals, packed, |w, vals, mask| {
            for (plane, &slot) in flat.iter_mut().zip(&self.output_slots) {
                plane[w] = vals[slot as usize] & mask;
            }
        });
        let n_samples = packed.n_samples;
        (self.outputs(n_samples, flat), Activity::new(n_samples, ones, toggles))
    }

    /// Executes an unfused tape view word by word, handing each word's
    /// slot values and valid-lane mask to `visit`, and returns the
    /// per-slot `(ones, toggles)` counts. When `n_vals` exceeds the slot
    /// count, the two extra slots are the masked-execution constants
    /// (all-zero and all-one lanes); the counts cover the netlist's own
    /// slots only, so they never leak out.
    fn execute_counted(
        &self,
        instrs: &[Instr],
        n_vals: usize,
        packed: &PackedInputs,
        mut visit: impl FnMut(usize, &[u64], u64),
    ) -> (Vec<u64>, Vec<u64>) {
        let mut vals = vec![0u64; n_vals];
        if n_vals > self.n_slots {
            vals[self.n_slots + 1] = u64::MAX; // the reserved all-ones slot
        }
        let mut ones = vec![0u64; self.n_slots];
        let mut toggles = vec![0u64; self.n_slots];
        // Each slot's value on the previous word's last sample.
        let mut prev_msb = vec![0u64; self.n_slots];
        for w in 0..packed.n_words {
            load_inputs(packed, w, &mut vals);
            exec_runs(&self.runs, instrs, &mut vals);
            let valid = (packed.n_samples - w * 64).min(64);
            let mask = if valid == 64 { u64::MAX } else { (1u64 << valid) - 1 };
            for (idx, &v) in vals[..self.n_slots].iter().enumerate() {
                ones[idx] += (v & mask).count_ones() as u64;
                let shifted = (v << 1) | prev_msb[idx];
                let mut diff = (v ^ shifted) & mask;
                if w == 0 {
                    diff &= !1; // the very first sample has no predecessor
                }
                toggles[idx] += diff.count_ones() as u64;
                prev_msb[idx] = v >> (valid - 1) & 1;
            }
            visit(w, &vals, mask);
        }
        (ones, toggles)
    }

    /// Groups flat `u64` output planes (ports in declaration order, bits
    /// LSB-first) back into per-port word vectors.
    fn outputs(&self, n_samples: usize, flat: Vec<Vec<u64>>) -> SimOutputs {
        let mut port_words: BTreeMap<String, Vec<Vec<u64>>> = BTreeMap::new();
        let mut cursor = flat.into_iter();
        for p in &self.output_ports {
            port_words.insert(p.name.clone(), cursor.by_ref().take(p.width()).collect());
        }
        SimOutputs::new(n_samples, port_words)
    }
}

#[inline]
fn load_inputs<W: Word>(packed: &PackedInputs<W>, w: usize, vals: &mut [W]) {
    for (plane, &node) in packed.planes.iter().zip(&packed.nodes) {
        vals[node] = plane[w];
    }
}

/// Evaluates every run of an unfused tape view on one word of lane
/// values (the run table fixes each stretch's kind).
#[inline]
fn exec_runs<W: Word>(runs: &[Run], instrs: &[Instr], vals: &mut [W]) {
    for run in runs {
        exec_run(run.op, &instrs[run.start as usize..run.end as usize], vals);
    }
}

/// Evaluates one single-kind instruction stretch on one word of lane
/// values: one kind dispatch, then a branch-free loop.
///
/// The per-kind expressions mirror [`GateKind::eval_word`] — the
/// differential suite pins them against the scalar reference, at both
/// word widths.
fn exec_run<W: Word>(op: GateKind, instrs: &[Instr], vals: &mut [W]) {
    macro_rules! unary {
        ($instrs:expr, |$a:ident| $e:expr) => {
            for i in $instrs {
                let $a = vals[i.a as usize];
                vals[i.dst as usize] = $e;
            }
        };
    }
    macro_rules! binary {
        ($instrs:expr, |$a:ident, $b:ident| $e:expr) => {
            for i in $instrs {
                let $a = vals[i.a as usize];
                let $b = vals[i.b as usize];
                vals[i.dst as usize] = $e;
            }
        };
    }
    macro_rules! ternary {
        ($instrs:expr, |$a:ident, $b:ident, $c:ident| $e:expr) => {
            for i in $instrs {
                let $a = vals[i.a as usize];
                let $b = vals[i.b as usize];
                let $c = vals[i.c as usize];
                vals[i.dst as usize] = $e;
            }
        };
    }
    match op {
        GateKind::Const0 => {
            for i in instrs {
                vals[i.dst as usize] = W::zero();
            }
        }
        GateKind::Const1 => {
            for i in instrs {
                vals[i.dst as usize] = W::ones();
            }
        }
        GateKind::Buf => unary!(instrs, |a| a),
        GateKind::Not => unary!(instrs, |a| !a),
        GateKind::And2 => binary!(instrs, |a, b| a & b),
        GateKind::Nand2 => binary!(instrs, |a, b| !(a & b)),
        GateKind::Or2 => binary!(instrs, |a, b| a | b),
        GateKind::Nor2 => binary!(instrs, |a, b| !(a | b)),
        GateKind::And3 => ternary!(instrs, |a, b, c| a & b & c),
        GateKind::Or3 => ternary!(instrs, |a, b, c| a | b | c),
        GateKind::Nand3 => ternary!(instrs, |a, b, c| !(a & b & c)),
        GateKind::Nor3 => ternary!(instrs, |a, b, c| !(a | b | c)),
        GateKind::Xor2 => binary!(instrs, |a, b| a ^ b),
        GateKind::Xnor2 => binary!(instrs, |a, b| !(a ^ b)),
        // ins = (sel, a, b): sel ? a : b
        GateKind::Mux2 => ternary!(instrs, |a, b, c| (a & b) | (!a & c)),
    }
}

/// Operand rewrite pinning a gate of `kind` to the constant `value`,
/// given the reserved all-`zero` and all-`one` slots. Every non-free
/// kind can produce both constants from those two streams, so masked
/// execution never has to alter run grouping or instruction kinds.
pub(crate) fn const_operands(kind: GateKind, value: bool, zero: u32, one: u32) -> (u32, u32, u32) {
    use GateKind::*;
    // `t`: fill that makes the gate output `value` for monotone kinds;
    // `f`: the inverted fill for the negated kinds.
    let t = if value { one } else { zero };
    let f = if value { zero } else { one };
    match kind {
        Buf => (t, zero, zero),
        Not => (f, zero, zero),
        And2 | And3 | Or2 | Or3 => (t, t, t),
        Nand2 | Nand3 | Nor2 | Nor3 => (f, f, f),
        Xor2 => (if value { one } else { zero }, zero, zero),
        Xnor2 => (if value { zero } else { one }, zero, zero),
        // (sel, a, b): sel = 1 selects the `a` operand.
        Mux2 => (one, t, zero),
        Const0 | Const1 => unreachable!("constant ties are never masked"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use pax_netlist::{NetId, NetlistBuilder};

    /// A netlist exercising every gate kind on shared inputs.
    fn all_kinds_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("kinds");
        let x = b.input_port("x", 3);
        let (a, c, s) = (x[0], x[1], x[2]);
        let k0 = b.const0();
        let k1 = b.const1();
        let outs = vec![
            b.buf_cell(a),
            b.not(a),
            b.and2(a, c),
            b.nand2(a, c),
            b.or2(a, c),
            b.nor2(a, c),
            b.and3(a, c, s),
            b.or3(a, c, s),
            b.nand3(a, c, s),
            b.nor3(a, c, s),
            b.xor2(a, c),
            b.xnor2(a, c),
            b.mux(s, a, c),
            k0,
            k1,
        ];
        b.output_port("y", outs.into());
        b.finish()
    }

    /// A netlist with a deep single-fanout cone — the fusion pass must
    /// collapse it. Returns the netlist plus the internal cone nets (in
    /// topological order) and the cone output.
    fn cone_netlist() -> (Netlist, Vec<NetId>, NetId) {
        let mut b = NetlistBuilder::new("cone");
        let x = b.input_port("x", 6);
        let t1 = b.and2(x[0], x[1]);
        let t2 = b.and2(t1, x[2]);
        let t3 = b.or2(t2, x[3]);
        let t4 = b.and2(t3, x[4]);
        let out = b.xor2(t4, x[5]);
        b.output_port("y", vec![out].into());
        (b.finish(), vec![t1, t2, t3, t4], out)
    }

    fn exhaustive_stim(width: usize, repeats: usize) -> Stimulus {
        let n = 1usize << width;
        let samples: Vec<u64> = (0..n * repeats).map(|i| (i % n) as u64).collect();
        let mut stim = Stimulus::new();
        stim.port("x", samples);
        stim
    }

    #[test]
    fn compiled_matches_interpreter_on_all_gate_kinds() {
        let nl = all_kinds_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        // 40 repeats → 320 samples → 5 words; exercises word boundaries.
        let stim = exhaustive_stim(3, 40);
        let reference = simulate(&nl, &stim);
        let got = compiled.run_with_activity(&stim).unwrap();
        assert_eq!(got.port_values("y"), reference.port_values("y"));
        for i in 0..nl.len() {
            let net = NetId::from_index(i);
            assert_eq!(got.activity.ones(net), reference.activity.ones(net), "ones of net {i}");
            assert_eq!(
                got.activity.toggles(net),
                reference.activity.toggles(net),
                "toggles of net {i}"
            );
        }
        // The functional-only (fused, wide-word) path agrees too.
        assert_eq!(compiled.run(&stim).unwrap().port_values("y"), reference.port_values("y"));
    }

    #[test]
    fn fused_cone_matches_unfused_on_all_paths() {
        let (nl, internals, out) = cone_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        assert!(compiled.n_luts() >= 1, "the cone must fuse");
        assert!(
            compiled.n_fused_instructions() < compiled.n_instructions(),
            "fusion must shorten the tape: {} vs {}",
            compiled.n_fused_instructions(),
            compiled.n_instructions()
        );
        // 5 repeats → 320 samples: exercises both word widths.
        let stim = exhaustive_stim(6, 5);
        let reference = simulate(&nl, &stim);
        assert_eq!(compiled.run(&stim).unwrap().port_values("y"), reference.port_values("y"));
        let packed = compiled.pack(&stim).unwrap();
        assert_eq!(compiled.run_packed(&packed).port_values("y"), reference.port_values("y"));

        // Masks internal to the cone re-derive its table; masks on the
        // cone output splat it. Both must equal the unfused oracle.
        let mut nets = internals.clone();
        nets.push(out);
        for &net in &nets {
            for value in [false, true] {
                let fused = compiled.run_masked(&packed, &[(net, value)]);
                let oracle = compiled.run_masked_with_activity(&packed, &[(net, value)]);
                assert_eq!(
                    fused.port_values("y"),
                    oracle.port_values("y"),
                    "net {net} value {value}"
                );
            }
        }
        // Multiple ties inside one cone compose.
        let pair = [(internals[0], true), (internals[2], false)];
        let fused = compiled.run_masked(&packed, &pair);
        let oracle = compiled.run_masked_with_activity(&packed, &pair);
        assert_eq!(fused.port_values("y"), oracle.port_values("y"));
        // An internal tie plus an output splat: the output mask wins.
        let both = [(internals[1], true), (out, false)];
        let fused = compiled.run_masked(&packed, &both);
        let oracle = compiled.run_masked_with_activity(&packed, &both);
        assert_eq!(fused.port_values("y"), oracle.port_values("y"));
        assert_eq!(fused.port_values("y"), vec![0; fused.n_samples()]);
    }

    #[test]
    fn wide_words_match_u64_exactly() {
        let (nl, _, _) = cone_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        for n in [1usize, 63, 64, 65, 127, 128, 129, 255, 256, 257, 320] {
            let samples: Vec<u64> = (0..n).map(|i| (i % 64) as u64).collect();
            let mut stim = Stimulus::new();
            stim.port("x", samples);
            let narrow = {
                let packed = compiled.pack(&stim).unwrap();
                compiled.run_packed(&packed)
            };
            let wide = {
                let packed = compiled.pack_wide(&stim).unwrap();
                compiled.run_packed(&packed)
            };
            assert_eq!(wide.port_values("y"), narrow.port_values("y"), "n={n}");
            // `run` picks the width itself; it must agree with both.
            assert_eq!(compiled.run(&stim).unwrap().port_values("y"), narrow.port_values("y"));
            // Masked execution agrees across widths too.
            let mask_net = nl
                .iter()
                .find_map(|(id, node)| match node {
                    Node::Gate(g) if !g.kind.is_free() => Some(id),
                    _ => None,
                })
                .expect("gate present");
            let narrow_masked =
                compiled.run_masked(&compiled.pack(&stim).unwrap(), &[(mask_net, true)]);
            let wide_masked =
                compiled.run_masked(&compiled.pack_wide(&stim).unwrap(), &[(mask_net, true)]);
            assert_eq!(wide_masked.port_values("y"), narrow_masked.port_values("y"), "n={n}");
        }
    }

    #[test]
    fn masked_activity_is_bit_identical_to_full_masked_run() {
        let (nl, internals, out) = cone_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        let stim = exhaustive_stim(6, 3); // 192 samples, 3 words
        let packed = compiled.pack(&stim).unwrap();
        let trace = compiled.trace(&packed);
        // Base activity from the trace matches a full tracked run.
        let full = compiled.run_packed_with_activity(&packed);
        let base = trace.base_activity();
        for i in 0..nl.len() {
            let net = NetId::from_index(i);
            assert_eq!(base.ones(net), full.activity.ones(net), "base ones {i}");
            assert_eq!(base.toggles(net), full.activity.toggles(net), "base toggles {i}");
        }
        // Delta recompute equals the full masked tracked run, for masks
        // on internal cone nets and on the cone output alike.
        let mut nets = internals.clone();
        nets.push(out);
        for &net in &nets {
            for value in [false, true] {
                // Affected = the masked net plus its transitive fanout.
                let mut affected = vec![false; nl.len()];
                affected[net.index()] = true;
                for (id, node) in nl.iter() {
                    if let Node::Gate(g) = node {
                        if g.inputs().iter().any(|i| affected[i.index()]) {
                            affected[id.index()] = true;
                        }
                    }
                }
                let delta = compiled.masked_activity(&trace, &[(net, value)], &affected);
                let oracle = compiled.run_masked_with_activity(&packed, &[(net, value)]);
                for i in 0..nl.len() {
                    let n = NetId::from_index(i);
                    assert_eq!(
                        delta.ones(n),
                        oracle.activity.ones(n),
                        "ones net {i} mask {net}={value}"
                    );
                    assert_eq!(
                        delta.toggles(n),
                        oracle.activity.toggles(n),
                        "toggles net {i} mask {net}={value}"
                    );
                }
            }
        }
    }

    #[test]
    fn many_word_runs_match_the_interpreter() {
        let nl = all_kinds_netlist();
        let stim = exhaustive_stim(3, 100); // 800 samples, 13 words
        let reference = simulate(&nl, &stim);
        let compiled = CompiledNetlist::compile(&nl);
        let got = compiled.run_with_activity(&stim).unwrap();
        assert_eq!(got.port_values("y"), reference.port_values("y"));
        for i in 0..nl.len() {
            let net = NetId::from_index(i);
            assert_eq!(got.activity.ones(net), reference.activity.ones(net), "net={i}");
            assert_eq!(got.activity.toggles(net), reference.activity.toggles(net), "net={i}");
        }
        // The fused functional path agrees too.
        assert_eq!(compiled.run(&stim).unwrap().port_values("y"), reference.port_values("y"));
    }

    #[test]
    fn runs_group_gate_kinds() {
        let mut b = NetlistBuilder::new("grp");
        let x = b.input_port("x", 4);
        // Four independent AND2 gates at level 1: one run.
        let ands: Vec<_> = (0..4).map(|i| b.and2(x[i], x[(i + 1) % 4])).collect();
        let or = b.or2(ands[0], ands[1]);
        let or2 = b.or2(ands[2], ands[3]);
        let top = b.xor2(or, or2);
        b.output_port("y", vec![top].into());
        let nl = b.finish();
        let compiled = CompiledNetlist::compile(&nl);
        assert_eq!(
            compiled.n_instructions(),
            nl.iter().filter(|(_, n)| matches!(n, Node::Gate(_))).count()
        );
        // 4 ANDs + 2 ORs + 1 XOR collapse into exactly three runs.
        assert_eq!(compiled.n_runs(), 3);
        assert_eq!(compiled.n_slots(), nl.len());
        assert_eq!(compiled.name(), "grp");
    }

    #[test]
    fn reports_typed_errors_like_the_interpreter() {
        let nl = all_kinds_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        assert_eq!(compiled.run(&Stimulus::new()).unwrap_err(), SimError::EmptyStimulus);
        let mut oversized = Stimulus::new();
        oversized.port("x", vec![8]);
        assert!(matches!(
            compiled.run(&oversized),
            Err(SimError::OversizedSample { value: 8, width: 3, .. })
        ));
        let empty_named = {
            let mut b = NetlistBuilder::new("two");
            let x = b.input_port("x", 1);
            let y = b.input_port("y", 1);
            let g = b.and2(x[0], y[0]);
            b.output_port("z", vec![g].into());
            CompiledNetlist::compile(&b.finish())
        };
        let mut missing = Stimulus::new();
        missing.port("x", vec![1]);
        assert!(matches!(
            empty_named.run(&missing),
            Err(SimError::MissingPort { port }) if port == "y"
        ));
    }

    #[test]
    fn masked_run_pins_gates_to_their_constants() {
        let nl = all_kinds_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        let stim = exhaustive_stim(3, 40);
        let packed = compiled.pack(&stim).unwrap();
        // Mask every non-free gate in turn, to both constants: the
        // masked slot must stream exactly that constant, and every
        // other gate must behave as if it read it.
        let gates: Vec<NetId> = nl
            .iter()
            .filter_map(|(id, n)| match n {
                Node::Gate(g) if !g.kind.is_free() => Some(id),
                _ => None,
            })
            .collect();
        for &g in &gates {
            for value in [false, true] {
                let got = compiled.run_masked_with_activity(&packed, &[(g, value)]);
                let n = got.n_samples as u64;
                assert_eq!(got.activity.ones(g), if value { n } else { 0 }, "gate {g}");
                assert_eq!(got.activity.toggles(g), 0, "gate {g}");
                // The fused activity-off path returns the same ports.
                let fused = compiled.run_masked(&packed, &[(g, value)]);
                assert_eq!(fused.port_values("y"), got.port_values("y"), "fused gate {g}");
                // Reference: rebuild the netlist with the gate's output
                // bit replaced by a constant in the output port.
                let y = nl.output_ports()[0].clone();
                let scalar: Vec<u64> = (0..got.n_samples)
                    .map(|s| {
                        let x = stim.samples("x").unwrap()[s];
                        let mut vals = vec![false; nl.len()];
                        for (id, node) in nl.iter() {
                            vals[id.index()] = match node {
                                Node::Input { bit, .. } => x >> bit & 1 == 1,
                                Node::Gate(gg) => {
                                    let ins: Vec<bool> =
                                        gg.inputs().iter().map(|i| vals[i.index()]).collect();
                                    gg.kind.eval_bool(&ins)
                                }
                            };
                            if id == g {
                                vals[id.index()] = value;
                            }
                        }
                        y.bits
                            .iter()
                            .enumerate()
                            .fold(0u64, |acc, (i, b)| acc | (vals[b.index()] as u64) << i)
                    })
                    .collect();
                assert_eq!(got.port_values("y"), scalar, "gate {g} value {value}");
            }
        }
    }

    #[test]
    fn masked_run_and_packed_paths_agree() {
        let nl = all_kinds_netlist();
        let stim = exhaustive_stim(3, 100); // 800 samples, 13 words
        let mask_net = nl
            .iter()
            .find_map(|(id, n)| match n {
                Node::Gate(g) if g.kind == GateKind::And3 => Some(id),
                _ => None,
            })
            .expect("AND3 present");
        let c = CompiledNetlist::compile(&nl);
        let packed = c.pack(&stim).unwrap();
        // The fused masked path agrees with the unfused tracked one.
        let tracked = c.run_masked_with_activity(&packed, &[(mask_net, true)]);
        let fused = c.run_masked(&packed, &[(mask_net, true)]);
        assert_eq!(fused.port_values("y"), tracked.port_values("y"));
        // The packed entry points agree with the stimulus-taking ones.
        assert_eq!(packed.n_samples(), 800);
        let a = c.run_packed_with_activity(&packed);
        let b = c.run_with_activity(&stim).unwrap();
        assert_eq!(a.port_values("y"), b.port_values("y"));
        assert_eq!(c.run_packed(&packed).port_values("y"), b.port_values("y"));
        // An empty mask degenerates to the unmasked run.
        let m = c.run_masked(&packed, &[]);
        assert_eq!(m.port_values("y"), b.port_values("y"));
        let ma = c.run_masked_with_activity(&packed, &[]);
        for i in 0..nl.len() {
            let net = NetId::from_index(i);
            assert_eq!(ma.activity.toggles(net), b.activity.toggles(net));
        }
    }

    #[test]
    #[should_panic(expected = "not a gate instruction")]
    fn masking_an_input_panics() {
        let nl = all_kinds_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        let packed = compiled.pack(&exhaustive_stim(3, 2)).unwrap();
        let input_net = nl.input_ports()[0].bits[0];
        let _ = compiled.run_masked(&packed, &[(input_net, true)]);
    }

    #[test]
    #[should_panic(expected = "not a gate instruction")]
    fn masking_an_input_panics_with_activity() {
        let nl = all_kinds_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        let packed = compiled.pack(&exhaustive_stim(3, 2)).unwrap();
        let input_net = nl.input_ports()[0].bits[0];
        let _ = compiled.run_masked_with_activity(&packed, &[(input_net, true)]);
    }

    #[test]
    fn single_sample_and_exact_word_boundaries() {
        let nl = all_kinds_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        for n in [1usize, 63, 64, 65, 128, 129] {
            let samples: Vec<u64> = (0..n).map(|i| (i % 8) as u64).collect();
            let mut stim = Stimulus::new();
            stim.port("x", samples);
            let reference = simulate(&nl, &stim);
            let got = compiled.run_with_activity(&stim).unwrap();
            assert_eq!(got.port_values("y"), reference.port_values("y"), "n={n}");
            for i in 0..nl.len() {
                let net = NetId::from_index(i);
                assert_eq!(got.activity.toggles(net), reference.activity.toggles(net), "n={n}");
            }
            // The fused path (either width) agrees at every boundary.
            assert_eq!(compiled.run(&stim).unwrap().port_values("y"), reference.port_values("y"));
        }
    }
}
