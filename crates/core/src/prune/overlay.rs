//! Overlay-based incremental candidate evaluation.
//!
//! The legacy pipeline rebuilds every pruning candidate from scratch:
//! `apply_set` re-synthesizes the netlist, `CompiledNetlist::compile`
//! builds a fresh tape, the full test set is re-quantized, re-packed
//! and re-simulated, and area/power/STA walk the new netlist. For the
//! paper's grid (thousands of `(τc, φc)` designs per circuit) that
//! per-candidate setup dominates the exploration wall-clock.
//!
//! [`OverlayContext`] amortizes everything that does not actually
//! depend on the candidate:
//!
//! * the **base tape** is compiled once, and its unmasked run on the
//!   test stimulus (quantized and bit-packed once) is recorded once as
//!   a [`BaseTrace`]. Each candidate is then one
//!   [cone pass](pax_sim::CompiledNetlist::run_cone): pruned gates
//!   skip to their dominant constant via two reserved constant slots,
//!   only the pruned set's transitive fanout re-executes, and every
//!   other value is read from the trace — outputs and switching
//!   activity bit-identical to a full tracked run of the rebuilt
//!   netlist;
//! * the candidate's **surviving structure** comes from the symbolic
//!   fold ([`FoldedCircuit`]) — node-for-node the netlist
//!   `apply_set` would have built, without building it — so the
//!   area/power walks add the very same cell figures in the very same
//!   order;
//! * switching activity maps from masked base slots onto surviving
//!   gates through the fold's [`Provenance`] (inversion preserves
//!   toggle counts exactly);
//! * timing is **re-timed incrementally**: only the affected cone (the
//!   pruned set's transitive fanout) is recomputed through
//!   [`pax_sta::DelayTable`]; every other gate reuses the base
//!   circuit's arrival time.
//!
//! The result is **bit-for-bit identical** to the rebuild pipeline on
//! all four measured axes (accuracy, area, power, delay) — pinned by
//! the differential property suite in
//! `crates/core/tests/proptest_overlay.rs` and by the golden cardio
//! svm-r design point. The rebuild pipeline itself stays in
//! `search.rs` as that suite's oracle.
//!
//! Both entry points run that same simulation and survivor walk and
//! differ only in their fold: [`OverlayContext::evaluate`] folds from
//! scratch, and [`OverlayContext::evaluate_with_session`] replays a
//! [`DeltaSession`]'s [`Refolder`] from the first substitution that
//! differs from the session's last mask.
//!
//! A context owns its inputs behind `Arc`s, so the
//! [`Evaluator`](crate::explore::Evaluator) builds one per base circuit
//! and shares it between its local workers and its fabric jobs; the
//! contexts of one evaluator share a single copy of the test set.
//!
//! [`Provenance`]: pax_netlist::fold::Provenance

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use egt_pdk::{Library, PdkError, TechParams};
use pax_bespoke::{score_outputs, stimulus_for};
use pax_ml::quant::QuantizedModel;
use pax_ml::Dataset;
use pax_netlist::fold::{FoldedCircuit, Refolder};
use pax_netlist::traverse::Fanout;
use pax_netlist::{GateKind, NetId, Netlist};
use pax_obs::Phases;
use pax_sim::power::PowerReport;
use pax_sim::{Activity, BaseTrace, CompiledNetlist, ConeScratch};
use pax_sta::DelayTable;

use super::{PruneAnalysis, PruneEval};
use crate::error::StudyError;

/// The phases one candidate evaluation splits into, in reporting
/// order. `resolve` (genome → gate set) is accounted by the
/// [`Evaluator`](crate::explore::Evaluator); the remaining four are
/// accounted here per [`OverlayContext::evaluate`] call. The timers are
/// relaxed atomics around unchanged code paths, so instrumentation
/// cannot perturb any measured value — the overlay-vs-rebuild
/// differential suite pins that.
pub const EVAL_PHASES: &[&str] = &["resolve", "fold", "masked-sim", "score", "re-time"];

/// [`EVAL_PHASES`] indices, kept adjacent to the list they index.
pub(crate) mod phase {
    /// Genome → sorted gate set (evaluator-side).
    pub const RESOLVE: usize = 0;
    /// Symbolic fold of the surviving structure.
    pub const FOLD: usize = 1;
    /// Masked execution of the shared tape.
    pub const MASKED_SIM: usize = 2;
    /// Output scoring against the golden model.
    pub const SCORE: usize = 3;
    /// Affected-cone walk: area/power sums + incremental re-timing.
    pub const RE_TIME: usize = 4;
}

/// Copied per-kind area/power cell figures (delay lives in
/// [`DelayTable`]). Copies of the library's `f64`s produce the same
/// sums as fresh `require` lookups, so caching them is observationally
/// free.
#[derive(Debug, Clone, Copy)]
struct CellFigures {
    area_mm2: f64,
    static_uw: f64,
    sw_energy_nj: f64,
}

/// Per-kind cell figures resolved once per base circuit. Missing cells
/// surface as [`PdkError::UnknownCell`] only when a candidate actually
/// uses the kind — the same contract as `Library::require`.
#[derive(Debug, Clone)]
struct CellTable {
    cells: [Option<CellFigures>; GateKind::COUNT],
}

impl CellTable {
    fn new(lib: &Library) -> Self {
        let mut cells = [None; GateKind::COUNT];
        for &kind in GateKind::all() {
            if kind.is_free() {
                continue;
            }
            cells[kind as usize] = lib.cell(kind.mnemonic()).map(|c| CellFigures {
                area_mm2: c.area_mm2,
                static_uw: c.static_uw,
                sw_energy_nj: c.sw_energy_nj,
            });
        }
        Self { cells }
    }

    fn require(&self, kind: GateKind) -> Result<CellFigures, PdkError> {
        self.cells[kind as usize].ok_or_else(|| PdkError::UnknownCell(kind.mnemonic().to_owned()))
    }
}

/// Everything candidate evaluation shares across one base circuit:
/// the compiled tape, its recorded run on the test set, resolved cell
/// figures, the base timing profile and the fanout table the
/// affected-cone analysis walks. Build once per `(base circuit, test set)` pair; then
/// [`evaluate`](Self::evaluate) any number of pruned-gate sets without
/// re-synthesis or recompilation. It owns what it reads, so it can be
/// shared with threads that outlive its builder.
#[derive(Debug)]
pub struct OverlayContext {
    base: Arc<Netlist>,
    model: Arc<QuantizedModel>,
    test: Arc<Dataset>,
    tech: TechParams,
    tape: CompiledNetlist,
    /// One recorded unfused run of the base tape on the packed test
    /// set: every slot's values plus base activity. Each candidate's
    /// cone pass reads everything outside its cone from it.
    trace: BaseTrace,
    cells: CellTable,
    delays: DelayTable,
    /// Base-circuit arrival times (`pax_sta` on the unpruned netlist) —
    /// reused verbatim outside the affected cone.
    base_arrival: Vec<f64>,
    fanout: Fanout,
    /// Per-phase wall-time accounting across every `evaluate` call on
    /// this context (lock-free; workers record concurrently).
    phases: Phases,
    /// Folds that resumed a cached parent replay
    /// ([`evaluate_with_session`](Self::evaluate_with_session) hits).
    delta_folds: AtomicU64,
    /// Folds that ran from scratch (fresh sessions, profitability
    /// fallbacks, and every plain [`evaluate`](Self::evaluate) call).
    full_folds: AtomicU64,
    /// Total substitution-delta nets across the delta folds (mean delta
    /// size = `delta_nets / delta_folds`).
    delta_nets: AtomicU64,
}

/// Cumulative delta-evaluation counters of one [`OverlayContext`],
/// for telemetry reporting. Unlike phase call counts, the delta/full
/// split depends on how candidates were chunked across workers, so
/// these never participate in determinism comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaFoldStats {
    /// Evaluations that reused a cached parent fold.
    pub delta_folds: u64,
    /// Evaluations folded from scratch.
    pub full_folds: u64,
    /// Total symmetric-difference nets across the delta evaluations.
    pub delta_nets: u64,
}

impl DeltaFoldStats {
    /// The counter growth since an earlier snapshot of the same
    /// counters (saturating, so a stale snapshot cannot underflow).
    #[must_use]
    pub fn since(&self, start: &DeltaFoldStats) -> DeltaFoldStats {
        DeltaFoldStats {
            delta_folds: self.delta_folds.saturating_sub(start.delta_folds),
            full_folds: self.full_folds.saturating_sub(start.full_folds),
            delta_nets: self.delta_nets.saturating_sub(start.delta_nets),
        }
    }

    /// Merges another context's counters into this one.
    pub fn merge(&mut self, other: &DeltaFoldStats) {
        self.delta_folds += other.delta_folds;
        self.full_folds += other.full_folds;
        self.delta_nets += other.delta_nets;
    }

    /// Delta folds as a share of all folds (`None` before any fold).
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.delta_folds + self.full_folds;
        (total > 0).then(|| self.delta_folds as f64 / total as f64)
    }

    /// Mean substitution-delta size across the delta folds.
    pub fn mean_delta(&self) -> Option<f64> {
        (self.delta_folds > 0).then(|| self.delta_nets as f64 / self.delta_folds as f64)
    }
}

/// One worker's rolling evaluation state against a single
/// [`OverlayContext`]: a rewindable fold replay ([`Refolder`]) keyed to
/// the last evaluated mask, plus reusable cone-pass buffers. Create via
/// [`OverlayContext::delta_session`], feed to
/// [`OverlayContext::evaluate_with_session`]; results are bit-identical
/// to [`OverlayContext::evaluate`] regardless of the session's history.
#[derive(Debug)]
pub struct DeltaSession {
    refolder: Refolder,
    /// The mask of the last evaluation (id-sorted), for sizing the
    /// delta before committing to a rewind.
    last_mask: Vec<(NetId, bool)>,
    scratch: ConeScratch,
}

impl OverlayContext {
    /// Compiles the shared tape, records its run on the packed test
    /// stimulus and profiles the base circuit's timing. Pass owned
    /// values, or `Arc`s to share them with other owners.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError::Sim`] when the stimulus cannot be packed
    /// against the base circuit's ports and [`StudyError::Library`]
    /// when the library does not cover the base circuit's cells.
    ///
    /// # Panics
    ///
    /// Panics if the dataset's feature count differs from the model's
    /// (a caller bug, exactly like the rebuild path).
    pub fn new(
        base: impl Into<Arc<Netlist>>,
        model: impl Into<Arc<QuantizedModel>>,
        test: impl Into<Arc<Dataset>>,
        lib: &Library,
        tech: &TechParams,
    ) -> Result<Self, StudyError> {
        let (base, model, test) = (base.into(), model.into(), test.into());
        // The tape runs on the calling thread; the evaluator's `par`
        // pool parallelizes across candidates.
        let tape = CompiledNetlist::compile(&base);
        let trace = tape.trace(&tape.pack(&stimulus_for(&model, &test))?);
        let base_arrival = pax_sta::analyze(&base, lib, tech)?.arrival_ms;
        let fanout = Fanout::build(&base);
        Ok(Self {
            base,
            model,
            test,
            tech: tech.clone(),
            tape,
            trace,
            cells: CellTable::new(lib),
            delays: DelayTable::new(lib),
            base_arrival,
            fanout,
            phases: Phases::new(EVAL_PHASES),
            delta_folds: AtomicU64::new(0),
            full_folds: AtomicU64::new(0),
            delta_nets: AtomicU64::new(0),
        })
    }

    /// The base netlist this context evaluates prunings of.
    pub fn base(&self) -> &Netlist {
        &self.base
    }

    /// The per-phase timing accumulators this context has gathered
    /// ([`EVAL_PHASES`] order; the `resolve` slot stays zero here).
    pub fn phases(&self) -> &Phases {
        &self.phases
    }

    /// Evaluates one pruned-gate set as an overlay on the shared tape:
    /// a cone pass for accuracy and switching activity, a fresh
    /// symbolic fold for the surviving structure, incremental re-timing
    /// for the critical path. Bit-identical to the rebuild pipeline
    /// (`try_evaluate_set_rebuild`) on every [`PruneEval`] field.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError::Library`] when the library lacks a cell a
    /// surviving gate needs — the same condition the rebuild path
    /// reports.
    pub fn evaluate(
        &self,
        analysis: &PruneAnalysis,
        set: &[NetId],
    ) -> Result<PruneEval, StudyError> {
        let mask = mask_of(analysis, set);
        let fold = |mask: &[(NetId, bool)]| FoldedCircuit::apply_sorted(&self.base, mask);
        let eval = self.evaluate_mask(&mask, &mut ConeScratch::default(), fold);
        self.full_folds.fetch_add(1, Ordering::Relaxed);
        eval
    }

    /// [`evaluate`](Self::evaluate) through a rolling [`DeltaSession`]:
    /// the same simulation, but the fold resumes the session's cached
    /// replay from the first divergent substitution. Results are
    /// bit-identical to [`evaluate`](Self::evaluate) — and therefore to
    /// the rebuild pipeline — on every [`PruneEval`] field, regardless
    /// of what the session evaluated before (pinned by the
    /// session-chain differential tests).
    ///
    /// When the symmetric difference exceeds `|set| + 2` a rewound
    /// replay would re-do more work than a fresh fold, so the refolder
    /// falls back to folding from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError::Library`] when the library lacks a cell a
    /// surviving gate needs — the same condition
    /// [`evaluate`](Self::evaluate) reports.
    pub fn evaluate_with_session(
        &self,
        analysis: &PruneAnalysis,
        set: &[NetId],
        session: &mut DeltaSession,
    ) -> Result<PruneEval, StudyError> {
        let mask = mask_of(analysis, set);
        let DeltaSession { refolder, last_mask, scratch } = session;
        let symdiff = symdiff_len(last_mask, &mask);
        if symdiff > set.len() + 2 {
            refolder.reset();
        }
        let eval = self.evaluate_mask(&mask, scratch, |mask| refolder.refold(&self.base, mask));
        if refolder.last_resume().is_some() {
            self.delta_folds.fetch_add(1, Ordering::Relaxed);
            self.delta_nets.fetch_add(symdiff as u64, Ordering::Relaxed);
        } else {
            self.full_folds.fetch_add(1, Ordering::Relaxed);
        }
        *last_mask = mask;
        eval
    }

    /// The one evaluation body both entry points share; they differ
    /// only in `fold`. The cone pass runs the shared tape with the
    /// pruned gates' slots streaming their dominant constants, so
    /// everything downstream reacts exactly as the rebuilt netlist
    /// would; `fold` yields the surviving structure — node-for-node
    /// what `apply_set` would rebuild.
    fn evaluate_mask(
        &self,
        mask: &[(NetId, bool)],
        scratch: &mut ConeScratch,
        fold: impl FnOnce(&[(NetId, bool)]) -> FoldedCircuit,
    ) -> Result<PruneEval, StudyError> {
        let affected = self.affected_cone(mask);
        let sim = self
            .phases
            .time(phase::MASKED_SIM, || self.tape.run_cone(&self.trace, mask, &affected, scratch));
        let (accuracy, _) = self
            .phases
            .time(phase::SCORE, || score_outputs(&self.model, &self.test, sim.outputs()));
        let folded = self.phases.time(phase::FOLD, || fold(mask));
        self.survivor_walk(mask.len(), &affected, accuracy, &sim.activity, &folded)
    }

    /// Snapshots the cumulative delta/full fold counters.
    pub fn delta_stats(&self) -> DeltaFoldStats {
        DeltaFoldStats {
            delta_folds: self.delta_folds.load(Ordering::Relaxed),
            full_folds: self.full_folds.load(Ordering::Relaxed),
            delta_nets: self.delta_nets.load(Ordering::Relaxed),
        }
    }

    /// Creates a fresh rolling evaluation session against this context
    /// (one per worker thread; sessions are not `Sync`).
    pub fn delta_session(&self) -> DeltaSession {
        DeltaSession {
            refolder: Refolder::new(),
            last_mask: Vec::new(),
            scratch: ConeScratch::default(),
        }
    }

    /// Affected cone: the pruned set's transitive fanout in the base
    /// circuit. Gates outside it hold values word-for-word identical
    /// to the base run (the cone pass reads them from the trace) and
    /// are isomorphic images of their base counterparts (re-timing
    /// reuses their base arrival times verbatim).
    fn affected_cone(&self, mask: &[(NetId, bool)]) -> Vec<bool> {
        let mut affected = vec![false; self.base.len()];
        let mut stack: Vec<NetId> = mask.iter().map(|&(net, _)| net).collect();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut affected[n.index()], true) {
                continue;
            }
            for &t in self.fanout.of(n) {
                if !affected[t.index()] {
                    stack.push(t);
                }
            }
        }
        affected
    }

    /// One walk over the fold's survivors in construction order: area
    /// and power sums plus incremental re-timing, assembled into the
    /// final [`PruneEval`]. It keeps the f64 summation sequence of the
    /// rebuild path's separate area/power/STA walks.
    fn survivor_walk(
        &self,
        n_pruned: usize,
        affected: &[bool],
        accuracy: f64,
        activity: &Activity,
        folded: &FoldedCircuit,
    ) -> Result<PruneEval, StudyError> {
        let retime_start = std::time::Instant::now();
        let f_hz = self.tech.clock_hz();
        let mut area_mm2 = 0.0;
        let mut static_uw = 0.0;
        let mut dynamic_uw = 0.0;
        let mut arrival = vec![0.0f64; folded.len()];
        for (i, node) in folded.nodes().iter().enumerate() {
            let Some((kind, ins)) = node.gate() else { continue };
            if kind.is_free() {
                continue; // constants: no area, no power, no delay
            }
            let cell = self.cells.require(kind)?;
            area_mm2 += cell.area_mm2;
            static_uw += cell.static_uw;
            let prov = folded.provenance(i).expect("non-constant folded nodes carry provenance");
            // Toggle counts survive inversion, so the masked base slot
            // stands in for the surviving gate's output exactly.
            dynamic_uw += cell.sw_energy_nj * activity.toggle_rate(prov.source) * f_hz * 1e-3;
            if !prov.inverted && !affected[prov.source.index()] {
                arrival[i] = self.base_arrival[prov.source.index()];
            } else {
                let delay = self.delays.delay_ms(kind)?;
                let mut worst = 0.0;
                for &inp in ins {
                    if arrival[inp as usize] >= worst {
                        worst = arrival[inp as usize];
                    }
                }
                arrival[i] = worst + delay;
            }
        }
        let mut critical_ms = 0.0;
        for &bit in folded.output_bits() {
            if arrival[bit as usize] >= critical_ms {
                critical_ms = arrival[bit as usize];
            }
        }
        // The survivor walk carries a `?`, so it times via an explicit
        // start rather than a closure.
        self.phases.add(
            phase::RE_TIME,
            u64::try_from(retime_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );

        let power = PowerReport {
            static_mw: static_uw * 1e-3,
            dynamic_mw: dynamic_uw * 1e-3,
            io_floor_mw: self.tech.io_floor_mw,
        };
        Ok(PruneEval {
            area_mm2,
            power_mw: power.total_mw(),
            accuracy,
            gate_count: folded.gate_count(),
            critical_ms,
            n_pruned,
        })
    }
}

/// A sorted pruned-gate set's id-sorted `(net, dominant value)` mask.
fn mask_of(analysis: &PruneAnalysis, set: &[NetId]) -> Vec<(NetId, bool)> {
    set.iter().map(|&g| (g, analysis.dominant(g))).collect()
}

/// The number of `(net, value)` substitutions present in exactly one
/// of two id-sorted masks (a net re-valued on both sides counts once) —
/// the delta size [`DeltaFoldStats`] reports.
fn symdiff_len(old: &[(NetId, bool)], new: &[(NetId, bool)]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < old.len() && j < new.len() {
        match old[i].0.cmp(&new[j].0) {
            std::cmp::Ordering::Less => {
                n += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                n += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                n += usize::from(old[i].1 != new[j].1);
                i += 1;
                j += 1;
            }
        }
    }
    n + (old.len() - i) + (new.len() - j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::{analyze, enumerate_grid, try_evaluate_set_rebuild, PruneConfig};
    use pax_bespoke::BespokeCircuit;
    use pax_ml::quant::QuantSpec;
    use pax_ml::synth_data::blobs;

    fn setup() -> (BespokeCircuit, Dataset, Dataset) {
        let data = blobs("ov", 280, 3, 3, 0.09, 53);
        let (train, test) = data.split(0.7, 1);
        let (train, test) = pax_ml::normalize(&train, &test);
        let m = pax_ml::train::svm::train_svm_classifier(
            &train,
            &pax_ml::train::svm::SvmParams { epochs: 50, ..Default::default() },
            3,
        );
        let q =
            pax_ml::quant::QuantizedModel::from_linear_classifier("ov", &m, QuantSpec::default());
        let c = BespokeCircuit::generate(&q);
        let c = c.with_netlist(pax_synth::opt::optimize(&c.netlist));
        (c, train, test)
    }

    #[test]
    fn overlay_is_bit_identical_to_rebuild_across_the_grid() {
        let (c, train, test) = setup();
        let lib = egt_pdk::egt_library();
        let tech = egt_pdk::TechParams::egt();
        let a = analyze(&c.netlist, &c.model, &train);
        let grid = enumerate_grid(&a, &PruneConfig::default());
        let ctx =
            OverlayContext::new(c.netlist.clone(), c.model.clone(), test.clone(), &lib, &tech)
                .unwrap();
        for set in &grid.sets {
            let overlay = ctx.evaluate(&a, set).unwrap();
            let rebuild =
                try_evaluate_set_rebuild(&c.netlist, &c.model, &test, &lib, &tech, &a, set)
                    .unwrap();
            assert_eq!(
                overlay.accuracy.to_bits(),
                rebuild.accuracy.to_bits(),
                "accuracy diverged on |set| = {}",
                set.len()
            );
            assert_eq!(overlay.area_mm2.to_bits(), rebuild.area_mm2.to_bits(), "area");
            assert_eq!(overlay.power_mw.to_bits(), rebuild.power_mw.to_bits(), "power");
            assert_eq!(overlay.critical_ms.to_bits(), rebuild.critical_ms.to_bits(), "delay");
            assert_eq!(overlay.gate_count, rebuild.gate_count, "gate count");
            assert_eq!(overlay.n_pruned, rebuild.n_pruned);
        }
        assert!(!grid.sets.is_empty());
    }

    #[test]
    fn session_chain_is_bit_identical_to_fresh_evaluate() {
        let (c, train, test) = setup();
        let lib = egt_pdk::egt_library();
        let tech = egt_pdk::TechParams::egt();
        let a = analyze(&c.netlist, &c.model, &train);
        let grid = enumerate_grid(&a, &PruneConfig::default());
        let ctx =
            OverlayContext::new(c.netlist.clone(), c.model.clone(), test.clone(), &lib, &tech)
                .unwrap();
        let mut session = ctx.delta_session();
        // Forward then reverse: the forward leg resumes neighbouring
        // sets with small deltas, the reverse leg jumps between mostly
        // disjoint sets and exercises the profitability fallback.
        for set in grid.sets.iter().chain(grid.sets.iter().rev()) {
            let fresh = ctx.evaluate(&a, set).unwrap();
            let delta = ctx.evaluate_with_session(&a, set, &mut session).unwrap();
            assert_eq!(
                delta.accuracy.to_bits(),
                fresh.accuracy.to_bits(),
                "accuracy diverged on |set| = {}",
                set.len()
            );
            assert_eq!(delta.area_mm2.to_bits(), fresh.area_mm2.to_bits(), "area");
            assert_eq!(delta.power_mw.to_bits(), fresh.power_mw.to_bits(), "power");
            assert_eq!(delta.critical_ms.to_bits(), fresh.critical_ms.to_bits(), "delay");
            assert_eq!(delta.gate_count, fresh.gate_count, "gate count");
            assert_eq!(delta.n_pruned, fresh.n_pruned);
        }
        let stats = ctx.delta_stats();
        assert!(stats.delta_folds > 0, "the chain should resume at least one fold");
        assert_eq!(
            stats.delta_folds + stats.full_folds,
            4 * grid.sets.len() as u64,
            "every fold (fresh oracle + session) lands in exactly one counter"
        );
        assert!(stats.hit_rate().unwrap() > 0.0);
        assert!(stats.mean_delta().unwrap() > 0.0);
    }

    #[test]
    fn symdiff_counts_each_changed_substitution_once() {
        let n = |i: usize| NetId::from_index(i);
        assert_eq!(symdiff_len(&[], &[]), 0);
        assert_eq!(symdiff_len(&[], &[(n(1), true)]), 1);
        assert_eq!(symdiff_len(&[(n(1), true)], &[(n(1), true), (n(4), false)]), 1);
        assert_eq!(symdiff_len(&[(n(1), true), (n(4), false)], &[(n(2), false)]), 3);
        // A re-valued net counts once.
        assert_eq!(symdiff_len(&[(n(2), false)], &[(n(2), true)]), 1);
    }

    #[test]
    fn missing_library_cells_error_instead_of_panicking() {
        let (c, train, test) = setup();
        let empty = Library::new("empty", 1.0);
        let tech = egt_pdk::TechParams::egt();
        let _a = analyze(&c.netlist, &c.model, &train);
        // The base timing profile already needs the library.
        let err = OverlayContext::new(c.netlist.clone(), c.model.clone(), test, &empty, &tech)
            .expect_err("empty library cannot profile the base circuit");
        assert!(matches!(err, StudyError::Library(PdkError::UnknownCell(_))));
    }
}
