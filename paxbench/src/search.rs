//! `joint_search`: joint coefficient × pruning exploration of the
//! heaviest circuits, in-process.
//!
//! Set-up trains the circuits and measures their exact and
//! coefficient-approximated base designs. The measured region then
//! sweeps every circuit (in a seeded order) with two searches over the
//! graded coefficient axis and the 4-D objective space: the exhaustive
//! grid, and NSGA-II seeded from the workload seed. Training sits
//! outside the timed region, so candidate evaluation dominates.
//!
//! Correctness: after the timed region, a deterministic sample of each
//! search's front is re-evaluated on the rebuild path
//! (`EvalMode::Rebuild`) and must match bit for bit.

use std::collections::BTreeSet;
use std::time::Instant;

use pax_bench::catalog::{DatasetId, Entry};
use pax_bench::table1::tech_for;
use pax_core::coeff_approx::CoeffApproxReport;
use pax_core::explore::{
    Candidate, CoeffAxis, CoeffGene, Engine, EvalCache, EvalContext, EvalMode, Evaluator,
    Nsga2Config, ObjectiveSet, SearchOutcome,
};
use pax_core::framework::{
    CircuitStudy, ExecStats, Framework, FrameworkConfig, SearchConfig, StrategyConfig,
};
use pax_core::prune::{analyze_compiled, PruneAnalysis};
use pax_core::{DesignPoint, Technique};
use pax_ml::quant::ModelKind;
use pax_netlist::Netlist;

use crate::common::{
    cross_reductions, digest, eval_workers, mult_cache_metrics, normalized_hv, permutation,
    span_metrics, table2, EvalTotals, Size, SETUP_REPEATS,
};
use crate::report::{median, peak_rss_mb, quantile, Report};
use crate::trace::Tracer;
use crate::Opts;

/// Error widths of the graded coefficient levels (level 0 is exact).
const LEVELS: [i64; 2] = [2, 4];

/// Fresh evaluations the NSGA-II search may spend per circuit.
const NSGA_BUDGET: usize = 160;

/// Front points re-evaluated on the rebuild path per search.
const REBUILD_SAMPLES: usize = 3;

fn circuits(size: Size) -> Vec<(DatasetId, ModelKind)> {
    let all = vec![
        (DatasetId::Pendigits, ModelKind::MlpC),
        (DatasetId::Cardio, ModelKind::MlpC),
        (DatasetId::WhiteWine, ModelKind::SvmC),
        (DatasetId::RedWine, ModelKind::SvmC),
    ];
    match size {
        Size::Full => all,
        Size::Tiny => all[2..].to_vec(),
    }
}

/// One circuit after set-up: its trained model, framework (whose
/// multiplier cache is filled) and exact base circuit with its analysis.
struct Circuit {
    entry: Entry,
    fw: Framework,
    base: Netlist,
    analysis: PruneAnalysis,
    baseline: DesignPoint,
    coeff: DesignPoint,
    coeff_report: CoeffApproxReport,
}

pub fn run(opts: &Opts, rep: &mut Report) -> Result<(), String> {
    let tr = Tracer::new(opts.trace);
    let mut setup_s = Vec::new();
    let mut circuits = Vec::new();
    for _ in 0..if opts.trace { 1 } else { SETUP_REPEATS } {
        let t = Instant::now();
        circuits = tr.span("setup", 0, |root| set_up(&tr, root, opts.size))?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    rep.set("setup_s", median(&setup_s));

    let order = permutation(circuits.len(), opts.seed);
    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut rss_mb = 0.0;
    let start = Instant::now();
    if opts.trace {
        // One plain sweep as the reference, then one traced sweep.
        sweeps.push(sweep(&Tracer::new(false), &circuits, &order, opts.seed)?);
        sweeps.push(sweep(&tr, &circuits, &order, opts.seed)?);
    } else {
        while sweeps.len() < 2 || start.elapsed().as_secs_f64() < opts.seconds {
            let s = sweep(&tr, &circuits, &order, opts.seed)?;
            eprintln!("[joint_search] sweep {}: {:.3} s", sweeps.len(), s.wall_s);
            if sweeps.is_empty() {
                // The warm-up sweep's high-water mark is the workload's
                // memory need; later sweeps only add allocator noise.
                rss_mb = peak_rss_mb();
            }
            sweeps.push(s);
        }
    }

    // Every sweep runs the same seeded searches: the results must repeat.
    let first = &sweeps[0];
    for s in &sweeps[1..] {
        rep.check(s.digests == first.digests);
    }
    rebuild_check(&circuits, &first.samples, rep)?;

    let mut studies = Vec::new();
    for (c, points) in circuits.iter().zip(&first.grid_points) {
        studies.push(grid_study(c, points));
    }
    let with_battery: Vec<_> = circuits
        .iter()
        .zip(&studies)
        .map(|(c, s)| (s, tech_for(c.entry.dataset, c.entry.kind).battery_mw))
        .collect();
    let (area, power) = cross_reductions(&table2(&with_battery));
    rep.set("area_reduction_pct", area);
    rep.set("power_reduction_pct", power);
    rep.set("front_hv", first.hv.iter().sum::<f64>() / first.hv.len().max(1) as f64);

    if opts.trace {
        let traced = &sweeps[1];
        layer_metrics(&tr, &circuits, traced, rep);
        rep.set("trace.overhead_frac", traced.wall_s / sweeps[0].wall_s.max(1e-9) - 1.0);
        let path = crate::trace_path("joint_search", opts.seed);
        tr.write_chrome(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    } else {
        // The first sweep warms caches and the allocator; it is checked
        // but not timed.
        let timed = &sweeps[1..];
        let walls: Vec<f64> = timed.iter().map(|s| s.wall_s).collect();
        let cps: Vec<f64> = timed.iter().map(|s| s.totals.candidates_per_s()).collect();
        // Per search, the median time over sweeps; the quantiles run over
        // the searches (p99 is the slowest search).
        let per_search: Vec<f64> = (0..first.search_ms.len())
            .map(|k| median(&timed.iter().map(|s| s.search_ms[k]).collect::<Vec<_>>()))
            .collect();
        rep.set("flow_wall_s", median(&walls));
        rep.set("candidates_per_s", median(&cps));
        rep.set("latency_p50_ms", quantile(&per_search, 0.5));
        rep.set("latency_p99_ms", quantile(&per_search, 0.99));
        rep.set("peak_rss_mb", rss_mb);
    }
    Ok(())
}

/// Trains the circuits in parallel and measures their base designs.
fn set_up(tr: &Tracer, root: u64, size: Size) -> Result<Vec<Circuit>, String> {
    let cfg = size.synth_config();
    let entries: Vec<Entry> = std::thread::scope(|s| {
        let handles: Vec<_> = circuits(size)
            .into_iter()
            .map(|(d, k)| {
                let cfg = &cfg;
                s.spawn(move || crate::flow::train_entry(tr, root, d, k, cfg).0)
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("training thread")).collect()
    });
    entries.into_iter().map(|entry| prepare(tr, root, entry).map_err(|e| e.to_string())).collect()
}

fn prepare(tr: &Tracer, root: u64, entry: Entry) -> Result<Circuit, pax_core::StudyError> {
    let fw = Framework::new(FrameworkConfig {
        tech: tech_for(entry.dataset, entry.kind),
        ..Default::default()
    });
    let b = crate::flow::traced_bases(tr, root, &fw, &entry.model, &entry.test)?;
    let analysis = tr.span("prune.analyze", root, |_| {
        analyze_compiled(&b.base_tape, &b.base.netlist, &entry.model, &entry.train)
    });
    Ok(Circuit {
        base: b.base.netlist,
        analysis,
        baseline: b.baseline,
        coeff: b.coeff,
        coeff_report: b.coeff_report,
        entry,
        fw,
    })
}

/// Everything one sweep measured.
#[derive(Debug, Default)]
struct Sweep {
    wall_s: f64,
    totals: EvalTotals,
    /// Wall time of every search, from building its evaluator to its
    /// final front, ms; in circuit × strategy order, like the fields
    /// below.
    search_ms: Vec<f64>,
    /// Digest of every search's points.
    digests: Vec<u64>,
    /// Normalized final hypervolume per search.
    hv: Vec<f64>,
    /// Per circuit (catalog order), the grid's design points.
    grid_points: Vec<Vec<DesignPoint>>,
    /// `(circuit index, sampled front candidates)` per search.
    samples: Vec<(usize, Vec<(Candidate, DesignPoint)>)>,
}

fn evaluator(c: &Circuit) -> Evaluator<'_> {
    let m = &c.entry.model;
    Evaluator::new(
        c.fw.library(),
        &c.fw.config().tech,
        &c.entry.test,
        vec![EvalContext {
            coeff: CoeffGene::exact(),
            netlist: &c.base,
            model: m,
            analysis: c.analysis.clone(),
        }],
    )
    .with_coeff_axis(CoeffAxis {
        model: m,
        train: &c.entry.train,
        cache: c.fw.cache(),
        cfg: c.fw.config().coeff.clone(),
        levels: LEVELS.to_vec(),
    })
}

/// The two searches of one circuit: the grid and NSGA-II, both over the
/// joint genome and all four objectives.
fn searches(seed: u64, circuit: usize) -> [SearchConfig; 2] {
    let nsga = Nsga2Config {
        population: 16,
        generations: 64,
        max_evals: NSGA_BUDGET,
        seed: seed ^ (circuit as u64).wrapping_mul(0x9E37_79B9),
        ..Default::default()
    };
    [SearchConfig::exhaustive(), SearchConfig::nsga2(nsga)]
        .map(|s| s.with_objectives(ObjectiveSet::all()).with_coeff_levels(LEVELS.to_vec()))
}

fn sweep(tr: &Tracer, circuits: &[Circuit], order: &[usize], seed: u64) -> Result<Sweep, String> {
    let mut out = Sweep { grid_points: vec![Vec::new(); circuits.len()], ..Sweep::default() };
    let mut per_circuit: Vec<Vec<(f64, u64, f64, Vec<_>)>> = vec![Vec::new(); circuits.len()];
    let t = Instant::now();
    tr.span("sweep", 0, |root| {
        for &i in order {
            let c = &circuits[i];
            for search in searches(seed, i) {
                let started = Instant::now();
                let outcome = tr.span("explore.search", root, |_| {
                    let evaluator = evaluator(c);
                    let mut engine = Engine::with_objectives(
                        &evaluator,
                        &c.fw.config().prune,
                        search.objectives.clone(),
                    );
                    engine.run(search.build().as_mut())
                });
                let outcome = outcome.map_err(|e| e.to_string())?;
                let ms = started.elapsed().as_secs_f64() * 1e3;
                out.totals.add(&outcome.stats);
                if matches!(search.strategy, StrategyConfig::Exhaustive) {
                    out.grid_points[i] = outcome.points.iter().map(|(_, p)| p.clone()).collect();
                }
                per_circuit[i].push((
                    ms,
                    digest(outcome.points.iter().map(|(_, p)| p)),
                    normalized_hv(&outcome.stats).unwrap_or(0.0),
                    front_sample(&outcome),
                ));
            }
        }
        Ok::<_, String>(())
    })?;
    out.wall_s = t.elapsed().as_secs_f64();
    for (i, searches) in per_circuit.into_iter().enumerate() {
        for (ms, d, hv, sample) in searches {
            out.search_ms.push(ms);
            out.digests.push(d);
            out.hv.push(hv);
            out.samples.push((i, sample));
        }
    }
    Ok(out)
}

/// Up to [`REBUILD_SAMPLES`] front points, evenly spaced along the
/// front, with the genomes that produced them.
fn front_sample(outcome: &SearchOutcome) -> Vec<(Candidate, DesignPoint)> {
    let front = outcome.archive.front();
    let n = front.len();
    let picks: BTreeSet<usize> =
        (0..REBUILD_SAMPLES.min(n)).map(|k| k * (n - 1) / (REBUILD_SAMPLES - 1).max(1)).collect();
    picks
        .into_iter()
        .filter_map(|k| {
            let want = digest([&front[k]]);
            outcome.points.iter().find(|(_, p)| digest([p]) == want).cloned()
        })
        .collect()
}

/// Re-evaluates the sampled front points on the rebuild path; each must
/// match the searched value bit for bit.
fn rebuild_check(
    circuits: &[Circuit],
    samples: &[(usize, Vec<(Candidate, DesignPoint)>)],
    rep: &mut Report,
) -> Result<(), String> {
    for (i, c) in circuits.iter().enumerate() {
        let picked: Vec<_> = samples
            .iter()
            .filter(|(ci, _)| *ci == i)
            .flat_map(|(_, s)| s.iter().cloned())
            .collect();
        let cands: Vec<_> = picked.iter().map(|(cand, _)| *cand).collect();
        let oracle = evaluator(c).with_mode(EvalMode::Rebuild);
        let (again, _) = oracle
            .evaluate_batch(&cands, &mut EvalCache::new(), None)
            .map_err(|e| e.to_string())?;
        for ((_, searched), (_, rebuilt)) in picked.iter().zip(&again) {
            let same = digest([searched]) == digest([rebuilt]);
            if !same {
                eprintln!("[joint_search] {}: rebuild diverged", c.entry.label());
            }
            rep.check(same);
        }
        rep.check(again.len() == picked.len());
    }
    Ok(())
}

/// A Table II view of one circuit's joint grid.
fn grid_study(c: &Circuit, points: &[DesignPoint]) -> CircuitStudy {
    let (cross, prune_only) = points.iter().cloned().partition(|p| p.technique == Technique::Cross);
    CircuitStudy {
        name: c.entry.model.name.clone(),
        kind: c.entry.model.kind,
        baseline: c.baseline.clone(),
        coeff: c.coeff.clone(),
        prune_only,
        cross,
        coeff_report: c.coeff_report.clone(),
        stats: ExecStats::default(),
    }
}

fn layer_metrics(tr: &Tracer, circuits: &[Circuit], traced: &Sweep, rep: &mut Report) {
    span_metrics(rep, &tr.spans(), "sweep");
    rep.set("ml.models_trained", circuits.len() as f64);
    rep.set("ml.train_useful_frac", 1.0);
    let built = circuits.iter().map(|c| c.fw.cache().len()).sum();
    mult_cache_metrics(rep, built, circuits.iter().map(|c| &c.entry.model));
    traced.totals.emit(rep, eval_workers());
}
