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
//!   other value is read from the trace — outputs and per-net toggle
//!   counts bit-identical to a full tracked run of the rebuilt
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
//! [`OverlayContext::evaluate`] is the one evaluation call. It is
//! stateless apart from a caller-owned [`EvalScratch`]: the in-process
//! pool keeps one per worker, and each fabric job brings its own. Its
//! fold is the cone fold ([`FoldIndex::fold`]): it re-folds only the
//! nodes the mask changes, against the base's own signature map, and
//! yields node for node what [`FoldedCircuit::apply_sorted`] would.
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
use pax_netlist::fold::{FoldIndex, FoldScratch, FoldedCircuit};
use pax_netlist::{GateKind, NetId, Netlist};
use pax_obs::Phases;
use pax_sim::power::PowerReport;
use pax_sim::{BaseTrace, CompiledNetlist, ConeScratch, ConeToggles};
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
/// figures, the base timing profile and the fold index (whose fanout
/// table the affected-cone analysis walks too). Build once per
/// `(base circuit, test set)` pair; then
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
    /// One recorded run of the base tape on the packed test
    /// set: every slot's values plus base activity. Each candidate's
    /// cone pass reads everything outside its cone from it.
    trace: BaseTrace,
    cells: CellTable,
    delays: DelayTable,
    /// Base-circuit arrival times (`pax_sta` on the unpruned netlist) —
    /// reused verbatim outside the affected cone.
    base_arrival: Vec<f64>,
    /// The base's cone-fold index.
    index: FoldIndex,
    /// Per-phase wall-time accounting across every `evaluate` call on
    /// this context (lock-free; workers record concurrently).
    phases: Phases,
    /// Cone folds run.
    folds: AtomicU64,
    /// Base nodes those folds re-folded.
    refolded: AtomicU64,
}

/// Cumulative cone-fold counters of one [`OverlayContext`], for
/// telemetry reporting. The field names predate the cone fold and are
/// kept for the readers of [`SearchTelemetry`](crate::explore::SearchTelemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaFoldStats {
    /// Cone folds run (one per overlay evaluation).
    pub delta_folds: u64,
    /// Always 0: every fold is a cone fold.
    pub full_folds: u64,
    /// Base nodes the cone folds re-folded.
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

    /// Mean re-folded nodes per cone fold (`None` before any fold).
    pub fn mean_delta(&self) -> Option<f64> {
        (self.delta_folds > 0).then(|| self.delta_nets as f64 / self.delta_folds as f64)
    }
}

/// Reusable buffers of [`OverlayContext::evaluate`]: the cone pass's
/// and the cone fold's. Every call re-initializes them, so one scratch
/// serves any context; keep one per worker.
#[derive(Debug, Default)]
pub struct EvalScratch {
    cone: ConeScratch,
    fold: FoldScratch,
}

impl OverlayContext {
    /// Compiles the shared tape, records its run on the packed test
    /// stimulus, indexes the base for cone folds and profiles its
    /// timing. Pass owned values, or `Arc`s to share them with other
    /// owners.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError::FeatureMismatch`] when the dataset's
    /// feature count differs from the model's,
    /// [`StudyError::NonCanonicalBase`] when the base is not an
    /// optimized netlist, [`StudyError::Sim`] when the stimulus cannot
    /// be packed against the base circuit's ports and
    /// [`StudyError::Library`] when the library does not cover the base
    /// circuit's cells.
    pub fn new(
        base: impl Into<Arc<Netlist>>,
        model: impl Into<Arc<QuantizedModel>>,
        test: impl Into<Arc<Dataset>>,
        lib: &Library,
        tech: &TechParams,
    ) -> Result<Self, StudyError> {
        let (base, model, test) = (base.into(), model.into(), test.into());
        if test.n_features() != model.n_inputs() {
            return Err(StudyError::FeatureMismatch {
                model: model.n_inputs(),
                dataset: test.n_features(),
            });
        }
        let index = FoldIndex::new(&base).map_err(StudyError::NonCanonicalBase)?;
        // The tape runs on the calling thread; the evaluator's `par`
        // pool parallelizes across candidates.
        let tape = CompiledNetlist::compile(&base);
        let trace = tape.trace(&tape.pack(&stimulus_for(&model, &test))?);
        let base_arrival = pax_sta::analyze(&base, lib, tech)?.arrival_ms;
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
            index,
            phases: Phases::new(EVAL_PHASES),
            folds: AtomicU64::new(0),
            refolded: AtomicU64::new(0),
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
    /// a cone pass for accuracy and switching activity, a cone fold for
    /// the surviving structure, incremental re-timing for the critical
    /// path. The cone pass runs the tape with the pruned gates' slots
    /// streaming their dominant constants, so everything downstream
    /// reacts exactly as the rebuilt netlist would; the fold yields
    /// node for node what `apply_set` would rebuild. Bit-identical to
    /// the rebuild pipeline (`try_evaluate_set_rebuild`) on every
    /// [`PruneEval`] field, whatever `scratch` served before.
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
        scratch: &mut EvalScratch,
    ) -> Result<PruneEval, StudyError> {
        let mask: Vec<(NetId, bool)> = set.iter().map(|&g| (g, analysis.dominant(g))).collect();
        let affected = self.affected_cone(&mask);
        let (cone, fold) = (&mut scratch.cone, &mut scratch.fold);
        let (mask_ref, affected_ref) = (&mask, &affected);
        let (outputs, toggles) = self.phases.time(phase::MASKED_SIM, move || {
            self.tape.run_cone(&self.trace, mask_ref, affected_ref, cone)
        });
        let (accuracy, _) =
            self.phases.time(phase::SCORE, || score_outputs(&self.model, &self.test, &outputs));
        let folded = self.phases.time(phase::FOLD, move || self.index.fold(mask_ref, fold));
        let eval = self.survivor_walk(set.len(), &affected, accuracy, toggles, folded);
        self.folds.fetch_add(1, Ordering::Relaxed);
        self.refolded.fetch_add(scratch.fold.refolded() as u64, Ordering::Relaxed);
        eval
    }

    /// Snapshots the cumulative cone-fold counters.
    pub fn delta_stats(&self) -> DeltaFoldStats {
        DeltaFoldStats {
            delta_folds: self.folds.load(Ordering::Relaxed),
            full_folds: 0,
            delta_nets: self.refolded.load(Ordering::Relaxed),
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
            for &t in self.index.fanout().of(n) {
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
        toggles: ConeToggles<'_>,
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
            dynamic_uw += cell.sw_energy_nj * toggles.toggle_rate(prov.source) * f_hz * 1e-3;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::{analyze, enumerate_grid, try_evaluate_set_rebuild, PruneConfig};
    use pax_bespoke::BespokeCircuit;
    use pax_ml::quant::QuantSpec;
    use pax_ml::synth_data::blobs;
    use pax_netlist::NetlistError;

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
            let overlay = ctx.evaluate(&a, set, &mut EvalScratch::default()).unwrap();
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
    fn scratch_chain_is_bit_identical_to_rebuild() {
        let (c, train, test) = setup();
        let lib = egt_pdk::egt_library();
        let tech = egt_pdk::TechParams::egt();
        let a = analyze(&c.netlist, &c.model, &train);
        let grid = enumerate_grid(&a, &PruneConfig::default());
        let ctx =
            OverlayContext::new(c.netlist.clone(), c.model.clone(), test.clone(), &lib, &tech)
                .unwrap();
        // One reused scratch, forward then backward over the grid: the
        // forward leg steps between neighbouring sets, the backward leg
        // jumps between mostly disjoint ones.
        let mut scratch = EvalScratch::default();
        for set in grid.sets.iter().chain(grid.sets.iter().rev()) {
            let got = ctx.evaluate(&a, set, &mut scratch).unwrap();
            let rebuild =
                try_evaluate_set_rebuild(&c.netlist, &c.model, &test, &lib, &tech, &a, set)
                    .unwrap();
            assert_eq!(
                got.accuracy.to_bits(),
                rebuild.accuracy.to_bits(),
                "accuracy diverged on |set| = {}",
                set.len()
            );
            assert_eq!(got.area_mm2.to_bits(), rebuild.area_mm2.to_bits(), "area");
            assert_eq!(got.power_mw.to_bits(), rebuild.power_mw.to_bits(), "power");
            assert_eq!(got.critical_ms.to_bits(), rebuild.critical_ms.to_bits(), "delay");
            assert_eq!(got.gate_count, rebuild.gate_count, "gate count");
            assert_eq!(got.n_pruned, rebuild.n_pruned);
        }
        let stats = ctx.delta_stats();
        assert_eq!(stats.delta_folds, 2 * grid.sets.len() as u64, "one cone fold per evaluation");
        assert_eq!(stats.full_folds, 0);
        assert!(stats.mean_delta().unwrap() > 0.0);
    }

    #[test]
    fn feature_count_mismatch_is_a_typed_error() {
        let (c, _, test) = setup();
        let lib = egt_pdk::egt_library();
        let tech = egt_pdk::TechParams::egt();
        let narrow = Dataset::new(
            "narrow",
            test.features.iter().map(|row| row[..row.len() - 1].to_vec()).collect(),
            test.labels.clone(),
            test.n_classes,
        );
        let err = OverlayContext::new(c.netlist.clone(), c.model.clone(), narrow, &lib, &tech)
            .expect_err("one feature short of the model");
        let n = c.model.n_inputs();
        assert_eq!(err, StudyError::FeatureMismatch { model: n, dataset: n - 1 });
    }

    #[test]
    fn non_canonical_base_is_a_typed_error() {
        let (c, _, test) = setup();
        let lib = egt_pdk::egt_library();
        let tech = egt_pdk::TechParams::egt();
        // The base with a buffer on its first output bit: the fold
        // replay drops buffers, so it cannot reproduce this netlist.
        let n = c.netlist.len();
        let first = c.netlist.output_ports()[0].bits[0].index();
        let mut text = String::new();
        let mut buffered = false;
        for line in pax_netlist::textio::to_text(&c.netlist).lines() {
            if line.starts_with("output ") && !buffered {
                text.push_str(&format!("node {n} {} {first}\n", GateKind::Buf.mnemonic()));
                let mut fields: Vec<String> = line.split(' ').map(str::to_owned).collect();
                fields[2] = n.to_string();
                text.push_str(&fields.join(" "));
                buffered = true;
            } else {
                text.push_str(line);
            }
            text.push('\n');
        }
        let base = pax_netlist::textio::from_text(&text).expect("a valid buffered netlist");
        let err = OverlayContext::new(base, c.model.clone(), test, &lib, &tech)
            .expect_err("a buffered base is not canonical");
        let buf = NetId::from_index(n);
        assert_eq!(err, StudyError::NonCanonicalBase(NetlistError::NotCanonical { net: buf }));
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
