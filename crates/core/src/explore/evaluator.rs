//! Candidate evaluation: genome → pruned netlist → measured
//! [`DesignPoint`], deduplicated by content hash and parallel across a
//! worker pool.
//!
//! Every evaluation measures all four quality axes — accuracy, area,
//! power and critical-path delay — regardless of which
//! [`ObjectiveSet`](super::ObjectiveSet) the engine ranks by. That is
//! what makes objective spaces swappable after the fact: re-ranking
//! cached designs under a different axis selection
//! ([`Engine::set_objectives`](super::Engine::set_objectives)) costs
//! no fresh synthesis or simulation.
//!
//! [`Evaluator`] is the one place candidate evaluations are dispatched.
//! It keeps one table of contexts, one per coefficient gene: the base
//! circuit with its pruning analysis, and an [`OverlayContext`] built
//! on first use and shared by `Arc`. Contexts are built across the
//! [`par`](crate::par) pool, one per worker at a time:
//! [`Evaluator::space`] materializes every still-lazy base circuit in
//! one parallel map, and each [`Evaluator::evaluate_batch`] builds the
//! overlays its fresh candidates need in another, before dispatching
//! them. Both dispatch shapes read that table, and both run the same
//! stateless call, [`OverlayContext::evaluate`]:
//!
//! * **local** ([`EvalMode::Overlay`]): the [`par`](crate::par) pool's
//!   workers take fresh candidates one at a time in batch order, each
//!   with its own [`EvalScratch`]. The [`EvalMode::Rebuild`] oracle
//!   runs on the same pool the same way;
//! * **fabric** ([`EvalMode::Fabric`]): each fresh candidate ships to
//!   the attached [`EvalFabric`] as one job, with a clone of the
//!   context's `Arc` and a scratch of its own.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use egt_pdk::{Library, TechParams};
use pax_ml::quant::QuantizedModel;
use pax_ml::Dataset;
use pax_netlist::{NetId, Netlist};

use pax_obs::{Phases, PhasesSnapshot};

use super::fabric::{EvalFabric, FabricError};
use super::{Candidate, CoeffGene, ContextSpace, SearchSpace, MAX_COEFF_LAYERS};
use crate::coeff_approx::{approximate_model_layers, CoeffApproxConfig};
use crate::error::StudyError;
use crate::mult_cache::MultCache;
use crate::par;
use crate::prune::{
    phase, DeltaFoldStats, EvalScratch, OverlayContext, PruneAnalysis, PruneConfig, PruneEval,
    EVAL_PHASES,
};
use crate::{DesignPoint, Technique};

/// How the evaluator measures a candidate.
///
/// [`EvalMode::Overlay`] (the default) evaluates prunings as masks on
/// the base circuit's shared compiled tape: no per-candidate
/// re-synthesis, recompilation or stimulus re-packing, timing re-timed
/// only in the affected cone. [`EvalMode::Rebuild`] keeps the legacy
/// pipeline — re-synthesize, recompile, re-simulate per candidate. The
/// two are bit-identical on every measured axis (the differential
/// suite pins it); `Rebuild` exists as that suite's oracle, as the
/// baseline of the `pax-bench` A/B studies and for runtime re-checks of
/// sampled fronts.
///
/// [`EvalMode::Fabric`] is overlay evaluation *routed through an
/// external worker pool* ([`EvalFabric`]) instead of the in-process
/// [`par`](crate::par) pool: each fresh candidate ships as one job that
/// holds an `Arc` of its context's shared overlay — the same one the
/// local workers read — to, in production, the `pax-serve` engine,
/// which multiplexes it with live inference traffic under per-study
/// queues and budgets. Fabric results are bit-identical to `Overlay`
/// (the fabric differential suite pins it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Prune-as-mask on the shared compiled tape (fast path, default).
    #[default]
    Overlay,
    /// Per-candidate re-synthesis + recompilation (legacy oracle).
    Rebuild,
    /// Overlay evaluation shipped to an attached [`EvalFabric`].
    Fabric,
}

/// One caller-provided base circuit a candidate can be pruned from —
/// e.g. the exact bespoke baseline ([`CoeffGene::exact`]) or a
/// pre-approximated circuit (conventionally [`CoeffGene::uniform`]`(1)`
/// in two-context setups) — with its pruning analysis computed once up
/// front. Further coefficient levels need no `EvalContext` at all:
/// [`Evaluator::with_coeff_axis`] materializes them lazily per gene.
/// The evaluator copies the netlist and model once into its context
/// table, so its overlays and fabric jobs borrow nothing.
#[derive(Debug)]
pub struct EvalContext<'a> {
    /// The coefficient gene selecting this context.
    pub coeff: CoeffGene,
    /// The (optimized) base netlist candidates prune.
    pub netlist: &'a Netlist,
    /// The model the netlist hardwires (the approximated model for
    /// non-exact contexts).
    pub model: &'a QuantizedModel,
    /// τ/φ metrics of the base netlist (training-set simulation).
    pub analysis: PruneAnalysis,
}

/// The graded coefficient-approximation axis: everything the evaluator
/// needs to materialize a base circuit for any [`CoeffGene`] on demand.
/// Attached via [`Evaluator::with_coeff_axis`], which enumerates one
/// lazy context per per-layer level combination.
#[derive(Debug)]
pub struct CoeffAxis<'a> {
    /// The *exact* base model every per-level approximation derives
    /// from.
    pub model: &'a QuantizedModel,
    /// Training set driving each materialized circuit's τ/φ analysis
    /// (the same set the caller analyzed its given contexts with).
    pub train: &'a Dataset,
    /// Shared bespoke-multiplier area cache (thread-safe; concurrent
    /// materializations share it).
    pub cache: &'a MultCache,
    /// Balance-search settings. The `e` field is ignored — the graded
    /// widths below rule.
    pub cfg: CoeffApproxConfig,
    /// Neighbourhood half-width of each graded level: `levels[k - 1]`
    /// is the `e` gene level `k` applies (level 0 is always exact).
    /// Must be non-empty, strictly positive and ascending.
    pub levels: Vec<i64>,
}

/// One base circuit a candidate prunes: the (optimized) netlist, the
/// model it hardwires and its pruning analysis. Owned behind `Arc`s so
/// the context's overlay and fabric jobs share them without copies.
#[derive(Debug)]
struct Base {
    netlist: Arc<Netlist>,
    model: Arc<QuantizedModel>,
    analysis: Arc<PruneAnalysis>,
}

/// What every overlay evaluation of one context reads: the shared
/// overlay plus the pruning analysis its masks resolve against. Built
/// once per context and shared by `Arc` — the local workers borrow it,
/// each fabric job holds a clone.
#[derive(Debug)]
struct Shared {
    overlay: OverlayContext,
    analysis: Arc<PruneAnalysis>,
}

/// One entry of the evaluator's context table.
#[derive(Debug)]
struct ContextSlot {
    gene: CoeffGene,
    /// Set at construction for caller-provided contexts; materialized
    /// from the [`CoeffAxis`] on first access otherwise — for every
    /// lazy slot at once, across the pool, by [`Evaluator::space`]
    /// (the `OnceLock` keeps concurrent workers from racing the
    /// synthesis).
    base: OnceLock<Base>,
    /// The overlay, built lazily by the first overlay-mode or fabric
    /// batch with a fresh candidate on this context — that batch builds
    /// every overlay it needs across the pool before evaluating. An
    /// evaluator pinned to [`EvalMode::Rebuild`] never pays for overlay
    /// setup, and a context no candidate touches builds none.
    /// Construction failures (library gaps, malformed stimuli) stay in
    /// the slot and surface per evaluation, mirroring the rebuild
    /// path's timing.
    shared: OnceLock<Result<Arc<Shared>, StudyError>>,
}

impl ContextSlot {
    fn new(gene: CoeffGene) -> Self {
        Self { gene, base: OnceLock::new(), shared: OnceLock::new() }
    }
}

/// Memoized evaluations keyed by the 64-bit content hash of
/// `(context, sorted pruned-gate set)`: different `(τc, φc)` pairs — and
/// different strategies sharing one [`Engine`](super::Engine) — often
/// select the same gates, which are synthesized and simulated once.
/// Debug builds keep the full sets and assert on hash collisions.
///
/// Concurrency contract: the cache is only ever touched by the thread
/// driving [`Evaluator::evaluate_batch`] (it is `&mut` there). Workers
/// — the in-process pool and fabric jobs alike — never see it; they
/// hand evaluations back to the driving thread, which inserts them.
/// Hit/len accounting is therefore free of lost updates by
/// construction: duplicate keys inside one batch are collapsed *before*
/// any parallel work starts (`fresh` holds each key once), so two
/// workers can never race an insert of the same content hash, and
/// `hits`/`len` are deterministic for a deterministic candidate stream
/// regardless of worker count or evaluation mode — the repeated-run
/// equality suite asserts exactly that.
#[derive(Debug, Default)]
pub struct EvalCache {
    map: HashMap<u64, PruneEval>,
    #[cfg(debug_assertions)]
    shadow: HashMap<u64, (usize, Vec<NetId>)>,
    hits: usize,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of evaluations served from the cache.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of distinct evaluations stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing has been evaluated yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// A plain lookup. Hit accounting happens in the dedup walk of
    /// [`Evaluator::evaluate_batch`] — the one place that knows whether
    /// a key was already paid for — not here, so that post-evaluation
    /// result assembly cannot skew the counters.
    fn get(&self, key: u64) -> Option<&PruneEval> {
        self.map.get(&key)
    }

    #[cfg(debug_assertions)]
    fn check_collision(&mut self, key: u64, ctx: usize, set: &[NetId]) {
        match self.shadow.get(&key) {
            Some(seen) => debug_assert!(
                seen.0 == ctx && seen.1 == set,
                "evaluation-cache hash collision on key {key:#x}"
            ),
            None => {
                self.shadow.insert(key, (ctx, set.to_vec()));
            }
        }
    }
}

/// Maps [`Candidate`] genomes to measured [`DesignPoint`]s over N
/// gene-keyed base circuits — caller-provided ([`EvalContext`]) or
/// lazily materialized from a [`CoeffAxis`] — evaluating distinct
/// prunings in parallel and memoizing them in an [`EvalCache`].
#[derive(Debug)]
pub struct Evaluator<'a> {
    lib: &'a Library,
    tech: &'a TechParams,
    /// The test set, copied once and shared by every context's overlay.
    test: Arc<Dataset>,
    contexts: Vec<ContextSlot>,
    /// The graded coefficient axis backing the lazy slots; `None` for
    /// purely caller-provided evaluators.
    axis: Option<CoeffAxis<'a>>,
    /// The external pool candidate evaluation rides in
    /// [`EvalMode::Fabric`]; `None` until [`Evaluator::with_fabric`].
    fabric: Option<Arc<dyn EvalFabric>>,
    mode: EvalMode,
    threads: usize,
    /// Evaluator-side phase accounting (the `resolve` slot; the
    /// per-candidate measurement phases accumulate inside each
    /// context's overlay and merge in [`Evaluator::telemetry`]).
    phases: Phases,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over the given base circuits. `contexts`
    /// must be non-empty and hold at most one context per coefficient
    /// gene.
    pub fn new(
        lib: &'a Library,
        tech: &'a TechParams,
        test: &'a Dataset,
        contexts: Vec<EvalContext<'a>>,
    ) -> Self {
        assert!(!contexts.is_empty(), "evaluator needs at least one base circuit");
        for i in 1..contexts.len() {
            assert!(
                contexts[..i].iter().all(|c| c.coeff != contexts[i].coeff),
                "one context per coefficient gene"
            );
        }
        let contexts = contexts
            .into_iter()
            .map(|c| {
                let base = Base {
                    netlist: Arc::new(c.netlist.clone()),
                    model: Arc::new(c.model.clone()),
                    analysis: Arc::new(c.analysis),
                };
                ContextSlot { base: OnceLock::from(base), ..ContextSlot::new(c.coeff) }
            })
            .collect();
        Self {
            lib,
            tech,
            test: Arc::new(test.clone()),
            contexts,
            axis: None,
            fabric: None,
            mode: EvalMode::default(),
            threads: par::workers(),
            phases: Phases::new(EVAL_PHASES),
        }
    }

    /// Opens the graded coefficient-approximation axis: one lazy
    /// context per per-layer level combination of `axis.levels` (for a
    /// two-layer model, the full `(level₀, level₁)` cross product; for
    /// a single-layer model, one context per level). Gene combinations
    /// a caller-provided context already covers are skipped, so the
    /// conventional exact [`EvalContext`] keeps serving the
    /// [`CoeffGene::exact`] corner. Each lazy context synthesizes and
    /// analyzes its base circuit only when a candidate (or the search
    /// space) first touches it; its shared overlay tape is built even
    /// later, on the first overlay-mode evaluation.
    #[must_use]
    pub fn with_coeff_axis(mut self, axis: CoeffAxis<'a>) -> Self {
        assert!(!axis.levels.is_empty(), "coeff axis needs at least one graded level");
        assert!(
            axis.levels.iter().all(|&e| e > 0),
            "graded levels are positive widths (level 0 is always exact)"
        );
        assert!(axis.levels.windows(2).all(|w| w[0] < w[1]), "graded levels must ascend");
        assert!(axis.levels.len() <= usize::from(u8::MAX), "too many graded levels");
        let per_layer = axis.levels.len() as u8;
        let layers =
            axis.model.sum_shapes().iter().map(|&(layer, _, _)| layer + 1).max().unwrap_or(1);
        let mut genes = Vec::new();
        for l0 in 0..=per_layer {
            if layers >= 2 {
                for l1 in 0..=per_layer {
                    genes.push(CoeffGene::per_layer(&[l0, l1]));
                }
            } else {
                genes.push(CoeffGene::per_layer(&[l0]));
            }
        }
        for gene in genes {
            if self.contexts.iter().all(|c| c.gene != gene) {
                self.contexts.push(ContextSlot::new(gene));
            }
        }
        self.axis = Some(axis);
        self
    }

    /// Merged per-phase telemetry: the evaluator's own `resolve`
    /// accounting plus every built overlay's fold/masked-sim/score/
    /// re-time totals. Rebuild-mode evaluations time nothing beyond
    /// `resolve` (the legacy oracle stays untouched). Pair two
    /// snapshots with [`PhasesSnapshot::since`] for per-run deltas —
    /// the [`Engine`](super::Engine) does exactly that.
    pub fn telemetry(&self) -> PhasesSnapshot {
        let merged = Phases::new(EVAL_PHASES);
        merged.merge(&self.phases);
        for shared in self.built() {
            merged.merge(shared.overlay.phases());
        }
        merged.snapshot()
    }

    /// The overlays built so far, in context order.
    fn built(&self) -> impl Iterator<Item = &Shared> {
        self.contexts.iter().filter_map(|c| match c.shared.get() {
            Some(Ok(shared)) => Some(&**shared),
            _ => None,
        })
    }

    /// The shared overlay of context `ctx_idx`, built on first use from
    /// the context's base circuit and the evaluator's test set.
    fn shared(&self, ctx_idx: usize) -> Result<&Arc<Shared>, StudyError> {
        self.contexts[ctx_idx]
            .shared
            .get_or_init(|| {
                let base = self.base(ctx_idx);
                let overlay = OverlayContext::new(
                    Arc::clone(&base.netlist),
                    Arc::clone(&base.model),
                    Arc::clone(&self.test),
                    self.lib,
                    self.tech,
                )?;
                Ok(Arc::new(Shared { overlay, analysis: Arc::clone(&base.analysis) }))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The base circuit of context `ctx_idx`, materializing a lazy
    /// context on first access.
    fn base(&self, ctx_idx: usize) -> &Base {
        let slot = &self.contexts[ctx_idx];
        slot.base.get_or_init(|| self.materialize(slot.gene))
    }

    /// Builds the base circuit of `gene` from the coefficient axis:
    /// per-layer `±e` approximation, bespoke synthesis + optimization,
    /// τ/φ analysis — the same pipeline callers run for their given
    /// contexts, which is what keeps the lazy path bit-identical to
    /// handing the circuit in up front.
    fn materialize(&self, gene: CoeffGene) -> Base {
        let axis = self.axis.as_ref().expect("lazy contexts always carry a coeff axis");
        let widths: Vec<i64> = (0..MAX_COEFF_LAYERS)
            .map(|layer| match gene.level(layer) {
                0 => 0,
                level => axis.levels[usize::from(level) - 1],
            })
            .collect();
        let (model, _) = approximate_model_layers(axis.model, axis.cache, &axis.cfg, &widths);
        let netlist =
            pax_synth::opt::optimize(&pax_bespoke::BespokeCircuit::generate(&model).netlist);
        let analysis = crate::prune::analyze(&netlist, &model, axis.train);
        Base { netlist: Arc::new(netlist), model: Arc::new(model), analysis: Arc::new(analysis) }
    }

    /// Selects how candidates are measured (overlay by default). See
    /// [`EvalMode`].
    #[must_use]
    pub fn with_mode(mut self, mode: EvalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches an external worker pool and switches to
    /// [`EvalMode::Fabric`]: every fresh evaluation ships to `fabric`
    /// as one job instead of running on the in-process [`par`] pool.
    /// In production the fabric is a `pax-serve` tenant handle, which
    /// multiplexes study evaluations with live inference traffic under
    /// that study's queue, budget and metrics.
    #[must_use]
    pub fn with_fabric(mut self, fabric: Arc<dyn EvalFabric>) -> Self {
        self.fabric = Some(fabric);
        self.mode = EvalMode::Fabric;
        self
    }

    /// The active evaluation mode.
    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// Cumulative cone-fold counters summed over every built overlay.
    pub fn delta_stats(&self) -> DeltaFoldStats {
        let mut stats = DeltaFoldStats::default();
        for shared in self.built() {
            stats.merge(&shared.overlay.delta_stats());
        }
        stats
    }

    /// The searchable space: τc bounds from the pruning configuration
    /// plus each context's per-gate (τ, φ) metrics, which strategies
    /// use to enumerate or sample thresholds. Strategies need every
    /// context's gate metrics to search it, so this materializes any
    /// still-lazy coefficient contexts, one per pool worker at a time
    /// (their overlay tapes stay lazy — those are only built when an
    /// overlay-mode evaluation lands).
    pub fn space(&self, cfg: &PruneConfig) -> SearchSpace {
        let lazy: Vec<usize> =
            (0..self.contexts.len()).filter(|&i| self.contexts[i].base.get().is_none()).collect();
        par::map(&lazy, self.threads, 1, |&i| {
            self.base(i);
        });
        SearchSpace {
            tau_values: cfg.tau_values(),
            contexts: (0..self.contexts.len())
                .map(|i| {
                    let analysis = &self.base(i).analysis;
                    ContextSpace {
                        gene: self.contexts[i].gene,
                        gates: analysis
                            .candidates
                            .iter()
                            .map(|&g| (analysis.tau_of(g), analysis.phi_of(g)))
                            .collect(),
                    }
                })
                .collect(),
        }
    }

    /// The coefficient genes the evaluator can serve, in context order.
    pub fn genes(&self) -> Vec<CoeffGene> {
        self.contexts.iter().map(|c| c.gene).collect()
    }

    fn context_index(&self, gene: CoeffGene) -> Result<usize, StudyError> {
        self.contexts.iter().position(|c| c.gene == gene).ok_or(StudyError::MissingContext { gene })
    }

    /// The sorted pruned-gate set a candidate selects (the paper's
    /// step-3 filter: τ-qualified gates whose φ is at most φc).
    pub fn gate_set(&self, c: &Candidate) -> Result<Vec<NetId>, StudyError> {
        let a = &self.base(self.context_index(c.coeff)?).analysis;
        let mut set: Vec<NetId> = a
            .candidates
            .iter()
            .copied()
            .filter(|&g| a.tau_of(g) >= c.tau_c - 1e-12 && a.phi_of(g) <= c.phi_c)
            .collect();
        set.sort_unstable();
        Ok(set)
    }

    /// Evaluates a batch of candidates, measuring each distinct
    /// `(context, gate set)` at most once (across the whole lifetime of
    /// `cache`) and in parallel. When `max_new_evals` is given, the
    /// batch is truncated to the longest prefix needing at most that
    /// many fresh evaluations — the engine's budget enforcement.
    ///
    /// Returns the evaluated `(candidate, point)` prefix and the number
    /// of fresh (non-cached) evaluations it cost.
    pub fn evaluate_batch(
        &self,
        batch: &[Candidate],
        cache: &mut EvalCache,
        max_new_evals: Option<usize>,
    ) -> Result<(Vec<(Candidate, DesignPoint)>, usize), StudyError> {
        // Resolve genomes to hashed gate sets, collecting the fresh
        // work while honouring the budget. The per-genome resolution
        // (τ/φ filter over every prunable gate + content hash) is
        // independent work, so large batches — the exhaustive grid asks
        // for thousands of combos at once — resolve across the worker
        // pool first; the dedup/budget walk below stays sequential
        // (its prefix semantics are order-dependent).
        let resolved = self.phases.time(phase::RESOLVE, || self.resolve_sets(batch))?;
        let mut keys = Vec::with_capacity(batch.len());
        let mut fresh: Vec<Fresh> = Vec::new();
        let mut fresh_keys: HashMap<u64, usize> = HashMap::new();
        let budget = max_new_evals.unwrap_or(usize::MAX);
        for (ctx, set) in resolved {
            let key = context_set_hash(ctx, &set);
            #[cfg(debug_assertions)]
            cache.check_collision(key, ctx, &set);
            if cache.map.contains_key(&key) || fresh_keys.contains_key(&key) {
                // Already stored, or a duplicate of fresh work earlier
                // in this batch — either way the evaluation is shared.
                cache.hits += 1;
                keys.push(key);
                continue;
            }
            if fresh.len() >= budget {
                break; // budget exhausted: evaluate the prefix only
            }
            fresh_keys.insert(key, fresh.len());
            fresh.push((key, ctx, set));
            keys.push(key);
        }
        let new_evals = fresh.len();
        if self.mode != EvalMode::Rebuild {
            self.build_overlays(&fresh);
        }
        let evals = match self.mode {
            EvalMode::Fabric => self.run_fabric(fresh)?,
            EvalMode::Overlay | EvalMode::Rebuild => self.run_local(&fresh)?,
        };
        for (key, eval) in evals {
            cache.map.insert(key, eval);
        }
        let results = batch[..keys.len()]
            .iter()
            .zip(&keys)
            .map(|(c, key)| {
                let e = cache.get(*key).expect("every batch key evaluated");
                (*c, self.point_for(c, e))
            })
            .collect();
        Ok((results, new_evals))
    }

    /// Resolves every genome's `(context index, sorted gate set)` —
    /// across the worker pool when the batch is large enough to
    /// amortize the spawns, sequentially otherwise. Resolution is pure,
    /// so parallelism cannot change the result.
    fn resolve_sets(&self, batch: &[Candidate]) -> Result<Vec<ResolvedSet>, StudyError> {
        /// Below this batch size thread spawns cost more than they save.
        const MIN_PARALLEL_BATCH: usize = 64;
        let threads = if batch.len() < MIN_PARALLEL_BATCH { 1 } else { self.threads };
        par::try_map(
            batch,
            threads,
            batch.len().div_ceil(threads),
            || (),
            |(), c| Ok((self.context_index(c.coeff)?, self.gate_set(c)?)),
        )
    }

    /// Builds the overlays of the distinct contexts in `fresh` that
    /// have none yet, one per pool worker at a time (a single one on
    /// the calling thread). Each result, a construction error included,
    /// stays in its slot, so the evaluation that reads it reports it
    /// exactly as a lazy build would.
    fn build_overlays(&self, fresh: &[Fresh]) {
        let mut todo: Vec<usize> = fresh
            .iter()
            .map(|&(_, ctx_idx, _)| ctx_idx)
            .filter(|&i| self.contexts[i].shared.get().is_none())
            .collect();
        todo.sort_unstable();
        todo.dedup();
        par::map(&todo, self.threads, 1, |&i| {
            let _ = self.shared(i);
        });
    }

    /// Runs the fresh evaluations on the [`par`] pool in batch order.
    /// Workers take one item at a time from a shared counter (set
    /// sizes, and thus costs, vary wildly, so static chunking would
    /// leave threads idle), each keeping one [`EvalScratch`]. Results
    /// come back in item order, and the first error stops the pool
    /// before it drains the remaining (expensive) evaluations.
    fn run_local(&self, fresh: &[Fresh]) -> Result<Vec<(u64, PruneEval)>, StudyError> {
        par::try_map(
            fresh,
            self.threads,
            1,
            EvalScratch::default,
            |scratch, (key, ctx_idx, set)| {
                let eval = if self.mode == EvalMode::Rebuild {
                    let b = self.base(*ctx_idx);
                    crate::prune::try_evaluate_set_rebuild(
                        &b.netlist,
                        &b.model,
                        &self.test,
                        self.lib,
                        self.tech,
                        &b.analysis,
                        set,
                    )
                } else {
                    self.shared(*ctx_idx)
                        .and_then(|s| s.overlay.evaluate(&s.analysis, set, scratch))
                }?;
                Ok((*key, eval))
            },
        )
    }

    /// Ships the fresh evaluations to the attached [`EvalFabric`] — one
    /// job per distinct `(context, gate set)`, each holding an `Arc` of
    /// its context's shared overlay and a scratch of its own — and
    /// collects their results over a channel. One candidate per job
    /// keeps each job short, so a serve worker is never held for a
    /// whole chunk while requests wait. A job dropped unrun (its tenant
    /// unregistered, or the pool torn down mid-batch) never sends, so
    /// the channel closes short and the batch fails with
    /// [`FabricError::Cancelled`] instead of hanging.
    fn run_fabric(&self, fresh: Vec<Fresh>) -> Result<Vec<(u64, PruneEval)>, StudyError> {
        let fabric = self.fabric.as_ref().ok_or(StudyError::Fabric(FabricError::NotAttached))?;
        let n = fresh.len();
        let (tx, rx) = std::sync::mpsc::channel::<Result<(u64, PruneEval), StudyError>>();
        for (key, ctx_idx, set) in fresh {
            let (shared, tx) = (Arc::clone(self.shared(ctx_idx)?), tx.clone());
            let job = Box::new(move || {
                let r = shared
                    .overlay
                    .evaluate(&shared.analysis, &set, &mut EvalScratch::default())
                    .map(|e| (key, e));
                // The receiver is gone when the driving thread already
                // bailed on an earlier error; nothing left to report.
                let _ = tx.send(r);
            });
            fabric.submit(job).map_err(StudyError::Fabric)?;
        }
        drop(tx);
        let mut out = Vec::with_capacity(n);
        for r in rx {
            out.push(r?);
        }
        if out.len() < n {
            return Err(StudyError::Fabric(FabricError::Cancelled));
        }
        Ok(out)
    }

    fn point_for(&self, c: &Candidate, e: &PruneEval) -> DesignPoint {
        DesignPoint {
            technique: if c.coeff.is_exact() { Technique::PruneOnly } else { Technique::Cross },
            tau_c: Some(c.tau_c),
            phi_c: Some(c.phi_c),
            coeff: (!c.coeff.is_exact()).then_some(c.coeff),
            accuracy: e.accuracy,
            area_mm2: e.area_mm2,
            power_mw: e.power_mw,
            gate_count: e.gate_count,
            critical_ms: e.critical_ms,
        }
    }
}

/// One resolved genome: `(context index, sorted pruned-gate set)`.
type ResolvedSet = (usize, Vec<NetId>);

/// One fresh evaluation: `(cache key, context index, sorted gate set)`.
type Fresh = (u64, usize, Vec<NetId>);

/// Cache key: the gate-set content hash salted with the context index.
fn context_set_hash(ctx: usize, set: &[NetId]) -> u64 {
    crate::prune::gate_set_hash(set) ^ (ctx as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
}
