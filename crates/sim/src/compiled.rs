//! Compile-once/execute-many netlist evaluation.
//!
//! [`try_simulate`](crate::try_simulate) walks the [`Netlist`] node list on
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
//!   slots. Every entry point executes this one tape;
//! * **width-generic words** — the activity-off entry points
//!   ([`run`](CompiledNetlist::run),
//!   [`run_packed`](CompiledNetlist::run_packed)) are generic over
//!   [`Word`](crate::Word): 64 lanes (`u64`) or 256 lanes
//!   ([`W256`](crate::W256)). [`run`](CompiledNetlist::run) picks the
//!   wide word automatically for large stimuli; outputs flatten back to
//!   `u64` planes losslessly, so callers never see the width;
//! * **optional activity accounting** — the activity-on entry points
//!   ([`run_with_activity`](CompiledNetlist::run_with_activity),
//!   [`run_packed_with_activity`](CompiledNetlist::run_packed_with_activity),
//!   [`run_masked_with_activity`](CompiledNetlist::run_masked_with_activity))
//!   produce an [`Activity`] record bit-identical to the interpreter's,
//!   at 64 lanes;
//! * **masked candidates as a cone pass** — a pruning candidate pins
//!   some gates to constants. [`run_cone`](CompiledNetlist::run_cone)
//!   re-executes only the pinned gates' transitive fanout, reading
//!   every other value from one recorded unmasked run
//!   ([`BaseTrace`]). It runs one instruction at a time over all its
//!   words: one kind dispatch, then a word loop the compiler
//!   vectorizes, then one toggle count over the finished column. It
//!   returns the outputs and a [`ConeToggles`] view (fresh counts in
//!   the cone, the trace's outside it), both equal to
//!   [`run_masked_with_activity`](CompiledNetlist::run_masked_with_activity)'s
//!   bit for bit;
//! * **sequential word execution** — every entry point runs its words
//!   one after another on the calling thread. The largest catalog run,
//!   pendigits svm-c's τ analysis, is about a million tape operations,
//!   too little to pay for threads; callers that evaluate many tapes or
//!   masks parallelize across those evaluations instead (`pax_core::par`
//!   and the `pax-serve` worker pool).
//!
//! All entry points are pinned bit-for-bit (ports, ones, toggles) to
//! [`try_simulate`](crate::try_simulate) and to the scalar
//! [`eval_ports`](pax_netlist::eval::eval_ports) reference by the
//! differential property suite in `tests/proptest_engine.rs` — compiled
//! == interpreted, at both word widths, and cone pass == masked run
//! (ports and every net's toggles; the cone pass counts no `ones`).
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

use pax_netlist::{GateKind, NetId, Netlist, Node, Port};

use crate::engine::{pack_inputs, PackedInputs, SimOutputs, SimResult};
use crate::word::{Word, W256};
use crate::{Activity, SimError, Stimulus};

/// Stimuli longer than this execute over 256-lane words: four 64-bit
/// limbs per instruction decode. Below it the wide word would waste
/// lanes (a 256-lane word holds at least two full `u64` words of
/// samples before it pays off).
const WIDE_WORD_THRESHOLD: usize = 128;

/// One tape instruction: dense operand slots plus the destination
/// slot. Unused operands point at slot 0 and are never read by the
/// executing run.
#[derive(Debug, Clone, Copy)]
struct Instr {
    a: u32,
    b: u32,
    c: u32,
    dst: u32,
}

/// A maximal consecutive stretch of instructions sharing one gate kind.
#[derive(Debug, Clone, Copy)]
struct Run {
    op: GateKind,
    start: u32,
    end: u32,
}

/// A netlist compiled to a flat, kind-grouped instruction tape. See
/// the module docs in `compiled.rs` for the design and when to prefer
/// this over [`try_simulate`](crate::try_simulate).
#[derive(Debug, Clone)]
pub struct CompiledNetlist {
    name: String,
    n_slots: usize,
    /// The tape: every gate, levelized and kind-grouped.
    instrs: Vec<Instr>,
    runs: Vec<Run>,
    /// Gate kind at each tape position (run lookup, hoisted).
    kinds: Vec<GateKind>,
    input_ports: Vec<Port>,
    output_ports: Vec<Port>,
    /// Value slot of every output-port bit, ports in declaration order,
    /// bits LSB-first — the flat order output planes use.
    output_slots: Vec<u32>,
    /// Tape position of the instruction writing each slot
    /// (`u32::MAX` for input/non-gate slots) — the lookup masked
    /// execution rewrites through.
    instr_of: Vec<u32>,
}

/// A [`Stimulus`] packed once against a tape's input ports, reusable
/// across many [`CompiledNetlist::run_packed`] /
/// [`CompiledNetlist::run_masked_with_activity`] calls. Packing
/// validates coverage, sample counts and port widths — exactly what
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

/// One full recording of an unmasked run: the 64-lane value
/// words of every slot plus the base activity counts.
/// [`CompiledNetlist::trace`] produces it once per (tape, stimulus)
/// pair; [`CompiledNetlist::run_cone`] then evaluates any masked
/// variant by re-executing only the instructions downstream of the
/// mask — every other slot's values (and therefore counts) are
/// word-for-word identical to the base run, so they are read from the
/// trace instead of recomputed.
#[derive(Debug, Clone)]
pub struct BaseTrace {
    n_samples: usize,
    n_words: usize,
    /// Slot-major values: `cols[slot * n_words + w]` is the value word
    /// of `slot` at word `w`, so one slot's words are contiguous.
    cols: Vec<u64>,
    ones: Vec<u64>,
    toggles: Vec<u64>,
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

    /// The recorded value words of `slot`.
    fn col(&self, slot: usize) -> &[u64] {
        &self.cols[slot * self.n_words..(slot + 1) * self.n_words]
    }
}

/// Reusable buffers for [`CompiledNetlist::run_cone`]. Every call
/// re-initializes them, so one scratch may serve any tape and any
/// trace; keeping one per worker saves re-allocating the cone's value
/// columns per candidate.
#[derive(Debug, Default)]
pub struct ConeScratch {
    /// Slot → value column in `cols` for the two reserved constant
    /// slots and the cone's slots; `u32::MAX` (read the trace) for
    /// every other slot.
    col_of: Vec<u32>,
    /// The cone's instructions in tape order, each with its gate kind;
    /// masked gates are rewired onto the reserved constant slots.
    cone: Vec<(GateKind, Instr)>,
    /// Column-major values: the all-zero and the all-one column, then
    /// one column per cone instruction.
    cols: Vec<u64>,
    /// Toggle count of each column of `cols` (0 for the constants).
    toggles: Vec<u64>,
}

/// The per-net toggle counts of one [`CompiledNetlist::run_cone`]
/// pass: a net the pass re-executed reads its cone column's fresh
/// count, every other net the trace's base count — together exactly
/// the toggles of
/// [`run_masked_with_activity`](CompiledNetlist::run_masked_with_activity).
#[derive(Debug, Clone, Copy)]
pub struct ConeToggles<'a> {
    n_samples: usize,
    /// The trace's base count of every net.
    base: &'a [u64],
    col_of: &'a [u32],
    counts: &'a [u64],
}

impl ConeToggles<'_> {
    /// Transitions between consecutive samples for `net`.
    #[inline]
    pub fn toggles(&self, net: NetId) -> u64 {
        match self.col_of[net.index()] {
            u32::MAX => self.base[net.index()],
            col => self.counts[col as usize],
        }
    }

    /// Average toggles per sample — the same expression as
    /// [`Activity::toggle_rate`], so the two agree bit for bit.
    #[inline]
    pub fn toggle_rate(&self, net: NetId) -> f64 {
        if self.n_samples <= 1 {
            return 0.0;
        }
        self.toggles(net) as f64 / (self.n_samples - 1) as f64
    }
}

impl CompiledNetlist {
    /// Compiles `nl` into an instruction tape.
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
        for &i in &gates {
            let Node::Gate(g) = nl.nodes()[i] else { unreachable!("filtered to gates") };
            let ins = g.inputs();
            let operand = |k: usize| ins.get(k).map_or(0, |n| n.index() as u32);
            let at = instrs.len() as u32;
            instrs.push(Instr { a: operand(0), b: operand(1), c: operand(2), dst: i as u32 });
            kinds.push(g.kind);
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

        Self {
            name: nl.name().to_owned(),
            n_slots: nl.len(),
            instrs,
            runs,
            kinds,
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

    /// Number of tape instructions (gates, constants included).
    pub fn n_instructions(&self) -> usize {
        self.instrs.len()
    }

    /// Number of single-kind runs the tape was grouped into — the
    /// number of kind dispatches per word.
    pub fn n_runs(&self) -> usize {
        self.runs.len()
    }

    /// Executes the tape on `stim` — functional outputs only, no
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
    /// execution via [`run_packed`](Self::run_packed) and the
    /// activity-tracking entry points, at 64 lanes per word.
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
    /// with [`run_packed`](Self::run_packed); the activity-tracking
    /// entry points require 64-lane packing.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for empty, incomplete, ragged or oversized
    /// stimuli.
    pub fn pack_wide(&self, stim: &Stimulus) -> Result<PackedStimulus<W256>, SimError> {
        Ok(PackedStimulus { inner: pack_inputs(&self.input_ports, stim)? })
    }

    /// Executes the tape on an already-packed stimulus — functional
    /// outputs only. Validation happened at [`pack`](Self::pack) time,
    /// so this path is infallible.
    pub fn run_packed<W: Word>(&self, packed: &PackedStimulus<W>) -> SimOutputs {
        self.execute(&packed.inner)
    }

    /// Executes the tape on an already-packed stimulus with full
    /// activity accounting.
    pub fn run_packed_with_activity(&self, packed: &PackedStimulus) -> SimResult {
        let (outputs, activity) = self.execute_tracked(&self.instrs, self.n_slots, &packed.inner);
        SimResult::new(activity, outputs)
    }

    /// Executes the tape with the `mask`ed gates pinned to
    /// constants, with full per-net activity accounting: each
    /// `(net, value)` pair rewrites that gate's operands onto two
    /// reserved constant slots, so its output — and everything
    /// downstream — behaves exactly as if the net had been substituted
    /// with the constant and the netlist re-synthesized. Run structure,
    /// kinds and instruction positions are untouched; per-call cost is
    /// one instruction-vector clone and a full tracked run.
    ///
    /// This is the differential oracle [`run_cone`](Self::run_cone) is
    /// pinned against. Per-slot activity is reported in *base-netlist*
    /// slot space — a fold provenance maps surviving rebuilt gates back
    /// onto these slots.
    ///
    /// # Panics
    ///
    /// Panics if a masked net is not driven by a (non-constant) gate
    /// instruction of this tape — masking inputs or tie cells is a
    /// caller bug.
    pub fn run_masked_with_activity(
        &self,
        packed: &PackedStimulus,
        mask: &[(NetId, bool)],
    ) -> SimResult {
        let mut instrs = self.instrs.clone();
        let zero = self.n_slots as u32;
        for &(net, value) in mask {
            let (at, kind) = self.masked_gate(net);
            let i = &mut instrs[at];
            (i.a, i.b, i.c) = const_operands(kind, value, zero, zero + 1);
        }
        let (outputs, activity) = self.execute_tracked(&instrs, self.n_slots + 2, &packed.inner);
        SimResult::new(activity, outputs)
    }

    /// Tape position and kind of the gate driving the masked `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not driven by a (non-constant) gate
    /// instruction.
    fn masked_gate(&self, net: NetId) -> (usize, GateKind) {
        let at = self.instr_of[net.index()];
        assert!(at != u32::MAX, "masked net {net} is not a gate instruction");
        let kind = self.kinds[at as usize];
        assert!(!kind.is_free(), "masked net {net} is a constant tie");
        (at as usize, kind)
    }

    /// Records one unmasked run of `packed`: every slot's value
    /// words plus the base activity — the fixed input every
    /// [`run_cone`](Self::run_cone) call reads.
    pub fn trace(&self, packed: &PackedStimulus) -> BaseTrace {
        let p = &packed.inner;
        let n_words = p.n_words;
        let mut cols = vec![0u64; self.n_slots * n_words];
        let (ones, toggles) = self.execute_counted(&self.instrs, self.n_slots, p, |w, vals, _| {
            for (slot, &v) in vals.iter().enumerate() {
                cols[slot * n_words + w] = v;
            }
        });
        BaseTrace { n_samples: p.n_samples, n_words, cols, ones, toggles }
    }

    /// The cone pass: outputs and per-net toggles of the `mask`ed tape,
    /// from a [`trace`](Self::trace) of the same stimulus, in one pass
    /// over the affected cone's instructions in tape order.
    ///
    /// `mask` is id-sorted `(net, value)` pairs, each pinning that gate
    /// to a constant through the two reserved constant slots, exactly
    /// as [`run_masked_with_activity`](Self::run_masked_with_activity)
    /// does. `affected[slot]` must be `true` for every masked net and
    /// every net in their transitive fanout; any superset gives the
    /// same result. Only instructions writing an affected slot execute,
    /// each over all words at once: one kind dispatch, then a word loop
    /// over operand columns; every other operand and output bit is read
    /// from the trace, whose values are word-for-word those of the
    /// masked run. Each finished cone column is counted once, under
    /// [`run_masked_with_activity`](Self::run_masked_with_activity)'s
    /// lane and toggle-boundary rules, so the outputs and the returned
    /// [`ConeToggles`] equal its outputs and toggles bit for bit. The
    /// pass counts no `ones`: no masked candidate reads them.
    ///
    /// # Panics
    ///
    /// Panics if a masked net is not driven by a (non-constant) gate
    /// instruction of this tape, or lies outside `affected`.
    pub fn run_cone<'a>(
        &self,
        trace: &'a BaseTrace,
        mask: &[(NetId, bool)],
        affected: &[bool],
        scratch: &'a mut ConeScratch,
    ) -> (SimOutputs, ConeToggles<'a>) {
        debug_assert!(mask.windows(2).all(|w| w[0].0 < w[1].0), "mask must be id-sorted");
        let nw = trace.n_words;
        let zero = self.n_slots as u32;
        let ConeScratch { col_of, cone, cols, toggles } = scratch;
        col_of.clear();
        col_of.resize(self.n_slots + 2, u32::MAX);
        (col_of[zero as usize], col_of[zero as usize + 1]) = (0, 1);

        // The cone in tape (topological) order, masked gates rewired.
        cone.clear();
        for (at, i) in self.instrs.iter().enumerate() {
            if affected[i.dst as usize] {
                col_of[i.dst as usize] = 2 + cone.len() as u32;
                cone.push((self.kinds[at], *i));
            }
        }
        for &(net, value) in mask {
            let (_, kind) = self.masked_gate(net);
            let col = col_of[net.index()];
            assert!(col != u32::MAX, "masked net {net} lies outside the affected cone");
            let i = &mut cone[col as usize - 2].1;
            (i.a, i.b, i.c) = const_operands(kind, value, zero, zero + 1);
        }

        // Grow only: every column this pass reads it writes first, so
        // a stale tail is never read, and shrinking would make the next
        // larger cone zero-fill its columns again.
        if cols.len() < (2 + cone.len()) * nw {
            cols.resize((2 + cone.len()) * nw, 0);
        }
        cols[..nw].fill(0);
        cols[nw..2 * nw].fill(u64::MAX);
        toggles.clear();
        toggles.extend([0, 0]);
        let tail_mask = lane_mask(trace.n_samples, nw - 1);
        for (k, &(kind, i)) in cone.iter().enumerate() {
            // Operands are constants, earlier cone columns or the trace.
            let (done, rest) = cols.split_at_mut((2 + k) * nw);
            let operand = |n: usize, slot: u32| match col_of[slot as usize] {
                _ if n >= kind.arity() => &done[..nw],
                u32::MAX => trace.col(slot as usize),
                c => &done[c as usize * nw..(c as usize + 1) * nw],
            };
            let out = &mut rest[..nw];
            eval_column(kind, out, operand(0, i.a), operand(1, i.b), operand(2, i.c));
            toggles.push(column_toggles(out, tail_mask));
        }

        let flat = self
            .output_slots
            .iter()
            .map(|&slot| {
                let mut plane = match col_of[slot as usize] {
                    u32::MAX => trace.col(slot as usize),
                    c => &cols[c as usize * nw..(c as usize + 1) * nw],
                }
                .to_vec();
                plane[nw - 1] &= tail_mask;
                plane
            })
            .collect();
        let n_samples = trace.n_samples;
        let outputs = self.outputs(n_samples, flat);
        (outputs, ConeToggles { n_samples, base: &trace.toggles, col_of, counts: toggles })
    }

    /// Executes the tape on `stim` with full per-net activity
    /// accounting, producing a [`SimResult`] bit-identical to
    /// [`try_simulate`](crate::try_simulate)'s.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for empty, incomplete, ragged or oversized
    /// stimuli.
    pub fn run_with_activity(&self, stim: &Stimulus) -> Result<SimResult, SimError> {
        let packed = self.pack(stim)?;
        Ok(self.run_packed_with_activity(&packed))
    }

    /// Runs the tape over all words and flattens the `W`-wide output
    /// planes back to `u64` words.
    fn execute<W: Word>(&self, packed: &PackedInputs<W>) -> SimOutputs {
        let mut vals = vec![W::zero(); self.n_slots];
        let n_samples = packed.n_samples;
        let n_words64 = n_samples.div_ceil(64);
        let mut flat: Vec<Vec<u64>> = vec![vec![0u64; n_words64]; self.output_slots.len()];
        for w in 0..packed.n_words {
            load_inputs(packed, w, &mut vals);
            exec_runs(&self.runs, &self.instrs, &mut vals);
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
                    plane[g] = wv.limb(l) & lane_mask(n_samples, g);
                }
            }
        }
        self.outputs(n_samples, flat)
    }

    /// Runs a tape view (the base instruction vector, or a masked
    /// rewrite of it over `n_vals` slots) over all words with activity
    /// tracking.
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

    /// Executes a tape view word by word, handing each word's
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
            for (idx, &v) in vals[..self.n_slots].iter().enumerate() {
                let (o, t) = count_word(v, w, packed.n_samples, &mut prev_msb[idx]);
                ones[idx] += o;
                toggles[idx] += t;
            }
            visit(w, &vals, lane_mask(packed.n_samples, w));
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

/// Valid-lane mask of 64-lane word `w` of an `n_samples` run: every
/// lane of a full word, the valid low lanes of the tail word.
#[inline]
fn lane_mask(n_samples: usize, w: usize) -> u64 {
    let valid = (n_samples - w * 64).min(64);
    if valid == 64 {
        u64::MAX
    } else {
        (1u64 << valid) - 1
    }
}

/// One slot's `(ones, toggles)` over 64-lane word `w` of an `n_samples`
/// run, under the rules every activity path shares: only valid lanes
/// count, and the run's first sample has no predecessor. `prev` carries
/// the slot's value on the previous word's last valid lane.
#[inline]
fn count_word(v: u64, w: usize, n_samples: usize, prev: &mut u64) -> (u64, u64) {
    let valid = (n_samples - w * 64).min(64);
    let mask = lane_mask(n_samples, w);
    let mut diff = (v ^ ((v << 1) | *prev)) & mask;
    if w == 0 {
        diff &= !1; // the very first sample has no predecessor
    }
    *prev = v >> (valid - 1) & 1;
    (u64::from((v & mask).count_ones()), u64::from(diff.count_ones()))
}

/// Evaluates one gate of `kind` over whole columns: one kind
/// dispatch, then a word loop per kind. Every arm hands
/// [`GateKind::eval_word`] a constant kind, so the match inside it
/// folds away and each loop is a plain slice expression the compiler
/// vectorizes.
fn eval_column(kind: GateKind, out: &mut [u64], a: &[u64], b: &[u64], c: &[u64]) {
    #[inline(always)]
    fn words(kind: GateKind, out: &mut [u64], a: &[u64], b: &[u64], c: &[u64]) {
        let (a, b, c) = (&a[..out.len()], &b[..out.len()], &c[..out.len()]);
        for w in 0..out.len() {
            out[w] = kind.eval_word(a[w], b[w], c[w]);
        }
    }
    use GateKind::*;
    match kind {
        Const0 => words(Const0, out, a, b, c),
        Const1 => words(Const1, out, a, b, c),
        Buf => words(Buf, out, a, b, c),
        Not => words(Not, out, a, b, c),
        And2 => words(And2, out, a, b, c),
        Nand2 => words(Nand2, out, a, b, c),
        Or2 => words(Or2, out, a, b, c),
        Nor2 => words(Nor2, out, a, b, c),
        And3 => words(And3, out, a, b, c),
        Or3 => words(Or3, out, a, b, c),
        Nand3 => words(Nand3, out, a, b, c),
        Nor3 => words(Nor3, out, a, b, c),
        Xor2 => words(Xor2, out, a, b, c),
        Xnor2 => words(Xnor2, out, a, b, c),
        Mux2 => words(Mux2, out, a, b, c),
    }
}

/// Toggles of one finished value column — the sum of [`count_word`]'s
/// toggles over its words, with the lane masks hoisted: every word but
/// the last is full (its last sample is bit 63), only word 0 drops the
/// first sample, and only the tail word is masked, by `tail_mask`.
fn column_toggles(col: &[u64], tail_mask: u64) -> u64 {
    let last = col.len() - 1;
    let first = (col[0] ^ (col[0] << 1)) & !1;
    if last == 0 {
        return u64::from((first & tail_mask).count_ones());
    }
    let step = |v: u64, prev: u64| v ^ ((v << 1) | (prev >> 63));
    let full: u64 = col[1..last]
        .iter()
        .zip(&col[..last - 1])
        .map(|(&v, &prev)| u64::from(step(v, prev).count_ones()))
        .sum();
    let tail = step(col[last], col[last - 1]) & tail_mask;
    u64::from(first.count_ones()) + full + u64::from(tail.count_ones())
}

#[inline]
fn load_inputs<W: Word>(packed: &PackedInputs<W>, w: usize, vals: &mut [W]) {
    for (plane, &node) in packed.planes.iter().zip(&packed.nodes) {
        vals[node] = plane[w];
    }
}

/// Evaluates every run of a tape view on one word of lane values (the
/// run table fixes each stretch's kind).
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
fn const_operands(kind: GateKind, value: bool, zero: u32, one: u32) -> (u32, u32, u32) {
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
    use crate::try_simulate;
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

    /// A netlist with a deep single-fanout cone. Returns the netlist
    /// plus the internal cone nets (in topological order) and the cone
    /// output.
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

    /// The masked nets plus their transitive fanout (node ids are a
    /// topological order).
    fn fanout_cone(nl: &Netlist, mask: &[(NetId, bool)]) -> Vec<bool> {
        let mut affected = vec![false; nl.len()];
        for &(net, _) in mask {
            affected[net.index()] = true;
        }
        for (id, node) in nl.iter() {
            if let Node::Gate(g) = node {
                if g.inputs().iter().any(|i| affected[i.index()]) {
                    affected[id.index()] = true;
                }
            }
        }
        affected
    }

    /// Runs the cone pass over `affected` and asserts it equals `want`:
    /// every output port, and every net's toggles and toggle rate
    /// through the returned view. Returns the pass's outputs.
    fn check_cone_with(
        c: &CompiledNetlist,
        trace: &BaseTrace,
        mask: &[(NetId, bool)],
        affected: &[bool],
        scratch: &mut ConeScratch,
        want: &SimResult,
        what: &str,
    ) -> SimOutputs {
        let (outputs, toggles) = c.run_cone(trace, mask, affected, scratch);
        for port in want.outputs().ports() {
            assert_eq!(outputs.port_values(port), want.port_values(port), "{what}: {port}");
        }
        for i in 0..c.n_slots() {
            let net = NetId::from_index(i);
            assert_eq!(toggles.toggles(net), want.activity.toggles(net), "{what}: toggles {i}");
            assert_eq!(
                toggles.toggle_rate(net).to_bits(),
                want.activity.toggle_rate(net).to_bits(),
                "{what}: toggle rate {i}"
            );
        }
        outputs
    }

    /// [`check_cone_with`] over `mask`'s fanout cone, with fresh scratch.
    fn check_cone(
        nl: &Netlist,
        c: &CompiledNetlist,
        trace: &BaseTrace,
        mask: &[(NetId, bool)],
        want: &SimResult,
        what: &str,
    ) -> SimOutputs {
        let affected = fanout_cone(nl, mask);
        check_cone_with(c, trace, mask, &affected, &mut ConeScratch::default(), want, what)
    }

    /// Asserts equal output ports and equal per-net ones and toggles.
    fn assert_same(nl: &Netlist, got: &SimResult, want: &SimResult, what: &str) {
        for p in nl.output_ports() {
            assert_eq!(got.port_values(&p.name), want.port_values(&p.name), "{what}: {}", p.name);
        }
        for i in 0..nl.len() {
            let net = NetId::from_index(i);
            assert_eq!(got.activity.ones(net), want.activity.ones(net), "{what}: ones {i}");
            assert_eq!(
                got.activity.toggles(net),
                want.activity.toggles(net),
                "{what}: toggles {i}"
            );
        }
    }

    #[test]
    fn compiled_matches_interpreter_on_all_gate_kinds() {
        let nl = all_kinds_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        // 40 repeats → 320 samples → 5 words; exercises word boundaries.
        let stim = exhaustive_stim(3, 40);
        let reference = try_simulate(&nl, &stim).unwrap();
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
        // The functional-only (wide-word) path agrees too.
        assert_eq!(compiled.run(&stim).unwrap().port_values("y"), reference.port_values("y"));
    }

    /// The deep single-fanout cone that LUT fusion used to collapse:
    /// every path, masks inside the cone included, agrees with the
    /// interpreter and the masked oracle.
    #[test]
    fn fused_cone_matches_unfused_on_all_paths() {
        let (nl, internals, out) = cone_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        // 5 repeats → 320 samples: exercises both word widths.
        let stim = exhaustive_stim(6, 5);
        let reference = try_simulate(&nl, &stim).unwrap();
        assert_eq!(compiled.run(&stim).unwrap().port_values("y"), reference.port_values("y"));
        let packed = compiled.pack(&stim).unwrap();
        assert_eq!(compiled.run_packed(&packed).port_values("y"), reference.port_values("y"));

        // Masks inside the cone and on its output: the cone pass equals
        // the masked oracle.
        let trace = compiled.trace(&packed);
        let mut nets = internals.clone();
        nets.push(out);
        for &net in &nets {
            for value in [false, true] {
                let oracle = compiled.run_masked_with_activity(&packed, &[(net, value)]);
                let what = format!("net {net} value {value}");
                check_cone(&nl, &compiled, &trace, &[(net, value)], &oracle, &what);
            }
        }
        // Multiple masks inside one cone compose.
        let pair = [(internals[0], true), (internals[2], false)];
        let oracle = compiled.run_masked_with_activity(&packed, &pair);
        check_cone(&nl, &compiled, &trace, &pair, &oracle, "pair");
        // A mask inside the cone plus one on its output: the output wins.
        let both = [(internals[1], true), (out, false)];
        let oracle = compiled.run_masked_with_activity(&packed, &both);
        let got = check_cone(&nl, &compiled, &trace, &both, &oracle, "both");
        assert_eq!(got.port_values("y"), vec![0; got.n_samples()]);
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
        // The cone pass equals the full masked tracked run, for masks
        // on internal cone nets and on the cone output alike, whether
        // `affected` is the exact fanout cone or every slot.
        let mut nets = internals.clone();
        nets.push(out);
        let everything = vec![true; nl.len()];
        let mut scratch = ConeScratch::default();
        for &net in &nets {
            for value in [false, true] {
                let mask = [(net, value)];
                let oracle = compiled.run_masked_with_activity(&packed, &mask);
                let what = format!("mask {net}={value}");
                check_cone(&nl, &compiled, &trace, &mask, &oracle, &what);
                let (what, all) = (format!("{what}, all affected"), &everything);
                check_cone_with(&compiled, &trace, &mask, all, &mut scratch, &oracle, &what);
            }
        }
    }

    #[test]
    fn mask_chain_matches_masked_oracles() {
        // Two outputs over shared logic.
        let mut b = NetlistBuilder::new("d");
        let x = b.input_port("x", 5);
        let t1 = b.and2(x[0], x[1]);
        let t2 = b.or2(t1, x[2]);
        let t3 = b.xor2(t2, x[3]);
        let t4 = b.nand2(t1, x[4]);
        let t5 = b.mux(x[4], t3, t2);
        b.output_port("y", vec![t3, t5].into());
        b.output_port("z", vec![t4].into());
        let nl = b.finish();
        let nets = [t1, t2, t3, t4, t5];
        let tape = CompiledNetlist::compile(&nl);
        let packed = tape.pack(&exhaustive_stim(5, 3)).unwrap(); // 96 samples: a tail word
        let trace = tape.trace(&packed);
        // One scratch across the chain: reuse must not leak state.
        let mut scratch = ConeScratch::default();
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
            let oracle = tape.run_masked_with_activity(&packed, mask);
            let affected = fanout_cone(&nl, mask);
            let what = format!("mask {mask:?}");
            check_cone_with(&tape, &trace, mask, &affected, &mut scratch, &oracle, &what);
        }
    }

    #[test]
    fn many_word_runs_match_the_interpreter() {
        let nl = all_kinds_netlist();
        let stim = exhaustive_stim(3, 100); // 800 samples, 13 words
        let reference = try_simulate(&nl, &stim).unwrap();
        let compiled = CompiledNetlist::compile(&nl);
        let got = compiled.run_with_activity(&stim).unwrap();
        assert_eq!(got.port_values("y"), reference.port_values("y"));
        for i in 0..nl.len() {
            let net = NetId::from_index(i);
            assert_eq!(got.activity.ones(net), reference.activity.ones(net), "net={i}");
            assert_eq!(got.activity.toggles(net), reference.activity.toggles(net), "net={i}");
        }
        // The functional-only path agrees too.
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
        let trace = compiled.trace(&packed);
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
                // The cone pass returns the same ports and toggles.
                check_cone(&nl, &compiled, &trace, &[(g, value)], &got, &format!("cone, gate {g}"));
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
        let trace = c.trace(&packed);
        // The cone pass agrees with the tracked masked run.
        let tracked = c.run_masked_with_activity(&packed, &[(mask_net, true)]);
        check_cone(&nl, &c, &trace, &[(mask_net, true)], &tracked, "masked AND3");
        // The packed entry points agree with the stimulus-taking ones.
        assert_eq!(packed.n_samples(), 800);
        let a = c.run_packed_with_activity(&packed);
        let b = c.run_with_activity(&stim).unwrap();
        assert_eq!(a.port_values("y"), b.port_values("y"));
        assert_eq!(c.run_packed(&packed).port_values("y"), b.port_values("y"));
        // An empty mask degenerates to the unmasked run.
        check_cone(&nl, &c, &trace, &[], &b, "empty mask, cone pass");
        assert_same(&nl, &c.run_masked_with_activity(&packed, &[]), &b, "empty mask, oracle");
    }

    #[test]
    #[should_panic(expected = "not a gate instruction")]
    fn masking_an_input_panics() {
        let nl = all_kinds_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        let packed = compiled.pack(&exhaustive_stim(3, 2)).unwrap();
        let input_net = nl.input_ports()[0].bits[0];
        let mask = [(input_net, true)];
        let affected = fanout_cone(&nl, &mask);
        let trace = compiled.trace(&packed);
        let _ = compiled.run_cone(&trace, &mask, &affected, &mut ConeScratch::default());
    }

    #[test]
    #[should_panic(expected = "outside the affected cone")]
    fn masking_outside_the_affected_cone_panics() {
        let (nl, internals, _) = cone_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        let trace = compiled.trace(&compiled.pack(&exhaustive_stim(6, 1)).unwrap());
        let nothing = vec![false; nl.len()];
        let mask = [(internals[0], true)];
        let _ = compiled.run_cone(&trace, &mask, &nothing, &mut ConeScratch::default());
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

    /// The hoisted column count equals [`count_word`] summed word by
    /// word, for every tail length from 1 to 64 lanes and columns of 1
    /// to 60 words.
    #[test]
    fn column_toggles_equal_word_by_word_counts() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for nw in 1..=60usize {
            for tail in 1..=64usize {
                let n_samples = (nw - 1) * 64 + tail;
                let col: Vec<u64> = (0..nw).map(|_| next()).collect();
                let mut prev = 0;
                let want: u64 =
                    (0..nw).map(|w| count_word(col[w], w, n_samples, &mut prev).1).sum();
                let got = column_toggles(&col, lane_mask(n_samples, nw - 1));
                assert_eq!(got, want, "{nw} words, {tail} tail lanes");
            }
        }
    }

    #[test]
    fn single_sample_and_exact_word_boundaries() {
        let nl = all_kinds_netlist();
        let compiled = CompiledNetlist::compile(&nl);
        for n in [1usize, 63, 64, 65, 128, 129] {
            let samples: Vec<u64> = (0..n).map(|i| (i % 8) as u64).collect();
            let mut stim = Stimulus::new();
            stim.port("x", samples);
            let reference = try_simulate(&nl, &stim).unwrap();
            let got = compiled.run_with_activity(&stim).unwrap();
            assert_eq!(got.port_values("y"), reference.port_values("y"), "n={n}");
            for i in 0..nl.len() {
                let net = NetId::from_index(i);
                assert_eq!(got.activity.toggles(net), reference.activity.toggles(net), "n={n}");
            }
            // The functional-only path (either width) agrees at every
            // boundary.
            assert_eq!(compiled.run(&stim).unwrap().port_values("y"), reference.port_values("y"));
        }
    }
}
