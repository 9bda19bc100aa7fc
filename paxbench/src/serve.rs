//! `serve_mixed`: open-loop serving beside a study tenant on one engine.
//!
//! Set-up trains cardio svm-c, runs its study, picks the `serve_demo`
//! design (the smallest pruned cross-layer point within 2% loss),
//! exports it as an artifact, reloads it, registers it on a
//! `ServeEngine`, and precomputes the class the artifact's netlist gives
//! every test row. It also runs the tenant's grid exploration once
//! in-process as the reference.
//!
//! The measured region: one generator thread sends seeded Poisson
//! arrivals of test rows (in seeded order) at a light rate, then at a
//! heavy rate; each request is timed from its scheduled send to its
//! resolution. Meanwhile one thread drives a study tenant closed-loop:
//! grid explorations through `Evaluator::with_fabric` on the same
//! engine, back to back. The traced run adds a stepped capacity search.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pax_bench::catalog::{DatasetId, Entry};
use pax_bench::table1::tech_for;
use pax_core::artifact::Artifact;
use pax_core::explore::{
    CoeffGene, Engine, EvalContext, Evaluator, ExhaustiveGrid, SearchOutcome, SearchStats,
};
use pax_core::framework::{CircuitStudy, Framework, FrameworkConfig};
use pax_core::prune::PruneAnalysis;
use pax_core::Technique;
use pax_ml::quant::ModelKind;
use pax_netlist::Netlist;
use pax_serve::{EngineConfig, Outcome, ServeEngine, ServeError, Ticket};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::common::{
    cross_reductions, digest, mult_cache_metrics, normalized_hv, span_metrics, study_digest,
    table2, EvalTotals, Inject, SETUP_REPEATS,
};
use crate::report::{median, peak_rss_mb, quantile, Report};
use crate::trace::Tracer;
use crate::Opts;

/// Offered load of the light phase, requests per second.
const LIGHT_RPS: f64 = 2_000.0;
/// Offered load of the heavy phase, requests per second.
const HEAVY_RPS: f64 = 20_000.0;
/// The capacity search's latency limit on the p99, in ms.
const CAPACITY_P99_MS: f64 = 10.0;
/// Seconds per step of the capacity search.
const CAPACITY_STEP_S: f64 = 0.5;
/// Bound on the tenant's job queue. A short queue keeps each worker's
/// job chunk short, so classification requests wait behind at most a
/// few candidate evaluations.
const TENANT_QUEUE: usize = 4;
/// Length of the windows the heavy phase is cut into; its latency
/// quantiles and tenant throughput are medians over windows, so a burst
/// of outside load in one window does not move them.
const WINDOW_S: f64 = 1.0;
/// Every 64th request gets a span in the traced run.
const SPAN_SAMPLE: u64 = 64;

/// Everything set-up produced.
struct Served {
    entry: Entry,
    fw: Framework,
    study: CircuitStudy,
    engine: ServeEngine,
    name: String,
    rows: Vec<Vec<i64>>,
    expected: Vec<usize>,
    /// The tenant's circuit: the exact base with its pruning analysis.
    base: Netlist,
    analysis: PruneAnalysis,
    /// The in-process grid the tenant's results must equal.
    reference: SearchOutcome,
}

pub fn run(opts: &Opts, rep: &mut Report) -> Result<(), String> {
    let tr = Tracer::new(opts.trace);
    let mut setup_s = Vec::new();
    let mut served: Option<Served> = None;
    for _ in 0..if opts.trace { 1 } else { SETUP_REPEATS } {
        if let Some(old) = served.take() {
            old.engine.shutdown();
        }
        let t = Instant::now();
        served = Some(tr.span("setup", 0, |root| set_up(&tr, root, opts, rep))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let served = served.expect("set up at least once");
    rep.set("setup_s", median(&setup_s));

    let battery_mw = tech_for(served.entry.dataset, served.entry.kind).battery_mw;
    let (area, power) = cross_reductions(&table2(&[(&served.study, battery_mw)]));
    rep.set("area_reduction_pct", area);
    rep.set("power_reduction_pct", power);
    rep.set("front_hv", normalized_hv(&served.reference.stats).unwrap_or(0.0));

    let seconds = opts.seconds;
    let mut phases = vec![
        Phase { rps: LIGHT_RPS, seconds: seconds / 3.0, traced: opts.trace },
        Phase { rps: HEAVY_RPS, seconds: seconds * 2.0 / 3.0, traced: false },
    ];
    if opts.trace {
        // The heavy phase once plain (the overhead reference) and once
        // traced, each a third of the run.
        phases[1].seconds = seconds / 3.0;
        phases.push(Phase { traced: true, ..phases[1].clone() });
    }

    let stop = AtomicBool::new(false);
    let passes: Mutex<Vec<TenantPass>> = Mutex::default();
    let tenant = served
        .engine
        .register_tenant(
            "study",
            pax_serve::TenantOptions { queue_capacity: TENANT_QUEUE, ..Default::default() },
        )
        .map_err(|e| e.to_string())?;
    let mut results: Vec<PhaseResult> = Vec::new();
    let mut capacity = 0.0;
    std::thread::scope(|s| {
        s.spawn(|| drive_tenant(&tr, &served, &tenant, &stop, &passes));
        tr.span("serve", 0, |root| {
            for (k, phase) in phases.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(opts.seed ^ (k as u64 + 1) << 32);
                results.push(send(&tr, root, &served, phase, &mut rng));
            }
            if opts.trace {
                capacity = capacity_search(&tr, root, &served, opts, rep);
            }
        });
        stop.store(true, Ordering::SeqCst);
    });

    for r in &results {
        rep.attempted += r.attempted;
        rep.failed += r.failed;
    }
    let passes = passes.into_inner().expect("tenant passes");
    for p in &passes {
        rep.check(p.matches);
    }
    let heavy = &results[1];
    let in_heavy: Vec<&TenantPass> =
        passes.iter().filter(|p| p.start >= heavy.start && p.end <= heavy.end).collect();
    let counted: Vec<&TenantPass> =
        if in_heavy.is_empty() { passes.iter().collect() } else { in_heavy };
    if counted.is_empty() {
        return Err("the tenant completed no exploration".to_owned());
    }

    if opts.trace {
        let traced_heavy = &results[2];
        span_metrics(rep, &tr.spans(), "serve");
        rep.set("ml.models_trained", 1.0);
        rep.set("ml.train_useful_frac", 1.0);
        mult_cache_metrics(rep, served.fw.cache().len(), [&served.entry.model]);
        let mut totals = EvalTotals::default();
        for p in &passes {
            totals.add(&p.stats);
        }
        totals.emit(rep, served.engine.workers());
        let submit_us: Vec<f64> =
            results.iter().flat_map(|r| r.submit_us.iter().copied()).collect();
        rep.set("serve.submit_us_p50", quantile(&submit_us, 0.5));
        rep.set("serve.submit_us_p99", quantile(&submit_us, 0.99));
        rep.set("serve.gen_late_ms_p99", quantile(&traced_heavy.late_ms, 0.99));
        rep.set("serve.p99_light_ms", quantile(&results[0].latency_ms, 0.99));
        rep.set("serve.capacity_rps", capacity);
        let m = served.engine.metrics(&served.name).ok_or("model vanished")?;
        rep.set("serve.engine_p99_ms", m.p99_latency_ms);
        rep.set("serve.mean_batch", m.mean_batch);
        rep.set("serve.occupancy", m.occupancy);
        rep.set("serve.batches", m.batches as f64);
        rep.set("serve.audited_batches", m.audited_batches as f64);
        rep.set("serve.queue_full", results.iter().map(|r| r.refused).sum::<u64>() as f64);
        let t = tenant.snapshot();
        rep.set("fabric.jobs", t.completed as f64);
        rep.set("fabric.job_p50_ms", t.p50_latency_ms);
        rep.set("fabric.job_p99_ms", t.p99_latency_ms);
        rep.set("fabric.rejected", t.rejected as f64);
        let plain = quantile(&heavy.latency_ms, 0.5);
        rep.set("trace.overhead_frac", quantile(&traced_heavy.latency_ms, 0.5) / plain - 1.0);
        let path = crate::trace_path("serve_mixed", opts.seed);
        tr.write_chrome(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    } else {
        rep.set("flow_wall_s", median(&counted.iter().map(|p| p.wall_s).collect::<Vec<_>>()));
        rep.set("candidates_per_s", windowed_cps(&counted, heavy.start));
        rep.set("latency_p50_ms", windowed_quantile(heavy, 0.5));
        rep.set("latency_p99_ms", windowed_quantile(heavy, 0.99));
        rep.set("peak_rss_mb", peak_rss_mb());
    }
    served.engine.unregister_tenant("study");
    served.engine.shutdown();
    Ok(())
}

/// The median over [`WINDOW_S`] windows of each window's `q`-quantile
/// request latency.
fn windowed_quantile(phase: &PhaseResult, q: f64) -> f64 {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for (&due, &ms) in phase.due_s.iter().zip(&phase.latency_ms) {
        let w = (due / WINDOW_S) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(ms);
    }
    let per_window: Vec<f64> =
        windows.iter().filter(|w| !w.is_empty()).map(|w| quantile(w, q)).collect();
    median(&per_window)
}

/// The median over [`WINDOW_S`] windows of the tenant's fresh
/// evaluations per second of exploration wall time, each pass counted
/// in the window it ended in.
fn windowed_cps(passes: &[&TenantPass], start: Instant) -> f64 {
    let mut windows: Vec<(f64, f64)> = Vec::new();
    for p in passes {
        let w = (p.end.saturating_duration_since(start).as_secs_f64() / WINDOW_S) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, (0.0, 0.0));
        }
        windows[w].0 += p.stats.evaluated as f64;
        windows[w].1 += p.wall_s;
    }
    let per_window: Vec<f64> =
        windows.iter().filter(|w| w.1 > 0.0).map(|&(fresh, wall)| fresh / wall).collect();
    median(&per_window)
}

fn set_up(tr: &Tracer, root: u64, opts: &Opts, rep: &mut Report) -> Result<Served, String> {
    let cfg = opts.size.synth_config();
    let (entry, _) = crate::flow::train_entry(tr, root, DatasetId::Cardio, ModelKind::SvmC, &cfg);
    let (model, train, test) = (&entry.model, &entry.train, &entry.test);
    let fw = Framework::new(FrameworkConfig {
        tech: tech_for(entry.dataset, entry.kind),
        ..Default::default()
    });
    let (study, bases, analysis) =
        crate::flow::traced_study(tr, root, &fw, model, train, test).map_err(|e| e.to_string())?;
    // The same circuit is pinned by the paper flow.
    let pinned = crate::reference::paper_flow(opts.size);
    rep.check(pinned.iter().any(|&(l, d)| l == entry.label() && d == study_digest(&study)));

    let pick = study
        .cross
        .iter()
        .filter(|p| p.tau_c.is_some() && p.accuracy >= study.baseline.accuracy - 0.02)
        .min_by(|a, b| a.area_mm2.total_cmp(&b.area_mm2))
        .cloned()
        .unwrap_or_else(|| study.best_within_loss(Technique::Cross, 0.02));
    let text =
        tr.span("artifact.export", root, |_| fw.export_artifact(model, train, &pick).to_text());
    let artifact = tr.span("artifact.load", root, |_| Artifact::from_text(&text))?;
    let engine = ServeEngine::new(EngineConfig::default());
    let name = artifact.name().to_owned();
    let rows: Vec<Vec<i64>> =
        test.features.iter().map(|x| artifact.model.quantize_input(x)).collect();
    let mut expected = pax_bespoke::evaluate(&artifact.netlist, &artifact.model, test).predictions;
    if opts.inject == Inject::Class {
        expected[0] = (expected[0] + 1) % model.n_outputs().max(2);
    }
    engine.register(artifact).map_err(|e| e.to_string())?;

    let base = bases.base.netlist;
    let reference = tr.span("explore.search", root, |_| {
        let evaluator = tenant_evaluator(&fw, &entry, &base, &analysis);
        Engine::new(&evaluator, &fw.config().prune).run(&mut ExhaustiveGrid::new())
    });
    let reference = reference.map_err(|e| e.to_string())?;
    Ok(Served { entry, fw, study, engine, name, rows, expected, base, analysis, reference })
}

fn tenant_evaluator<'a>(
    fw: &'a Framework,
    entry: &'a Entry,
    base: &'a Netlist,
    analysis: &PruneAnalysis,
) -> Evaluator<'a> {
    Evaluator::new(
        fw.library(),
        &fw.config().tech,
        &entry.test,
        vec![EvalContext {
            coeff: CoeffGene::exact(),
            netlist: base,
            model: &entry.model,
            analysis: analysis.clone(),
        }],
    )
}

/// One grid exploration the tenant completed.
struct TenantPass {
    start: Instant,
    end: Instant,
    wall_s: f64,
    stats: SearchStats,
    /// Whether its design points equal the in-process reference.
    matches: bool,
}

/// The study tenant: grid explorations on the serve engine's workers,
/// back to back, until `stop`.
fn drive_tenant(
    tr: &Tracer,
    served: &Served,
    tenant: &pax_serve::TenantHandle,
    stop: &AtomicBool,
    passes: &Mutex<Vec<TenantPass>>,
) {
    let want = digest(served.reference.points.iter().map(|(_, p)| p));
    while !stop.load(Ordering::SeqCst) {
        let start = Instant::now();
        let outcome = tr.span("explore.search", 0, |_| {
            let evaluator =
                tenant_evaluator(&served.fw, &served.entry, &served.base, &served.analysis)
                    .with_fabric(Arc::new(tenant.clone()));
            Engine::new(&evaluator, &served.fw.config().prune).run(&mut ExhaustiveGrid::new())
        });
        let end = Instant::now();
        let (stats, matches) = match outcome {
            Ok(o) => {
                let same = digest(o.points.iter().map(|(_, p)| p)) == want;
                (o.stats, same)
            }
            Err(e) => {
                eprintln!("[serve_mixed] tenant exploration failed: {e}");
                (SearchStats::default(), false)
            }
        };
        let wall_s = (end - start).as_secs_f64();
        passes.lock().expect("tenant passes").push(TenantPass {
            start,
            end,
            wall_s,
            stats,
            matches,
        });
    }
}

/// One offered-load phase.
#[derive(Debug, Clone)]
struct Phase {
    rps: f64,
    seconds: f64,
    /// Whether requests get (sampled) spans.
    traced: bool,
}

/// What one phase measured.
#[derive(Debug)]
struct PhaseResult {
    start: Instant,
    end: Instant,
    attempted: u64,
    failed: u64,
    refused: u64,
    /// Scheduled send → resolution, per answered request, ms.
    latency_ms: Vec<f64>,
    /// When each of those requests was due, seconds into the phase.
    due_s: Vec<f64>,
    /// How late the generator sent each request, ms.
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    /// Requests answered with a class other than the artifact's.
    wrong: u64,
    /// From the phase's end to its last request's resolution, ms: the
    /// backlog left when sending stopped.
    drain_ms: f64,
}

struct Pending {
    id: u64,
    due: Instant,
    ticket: Ticket,
    row: usize,
}

/// Sends one phase of Poisson arrivals. The generator only sends; a
/// collector thread blocks on the tickets in send order and times each
/// request from its scheduled send to its resolution.
fn send(tr: &Tracer, root: u64, served: &Served, phase: &Phase, rng: &mut StdRng) -> PhaseResult {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(phase.seconds);
    let mut out = PhaseResult {
        start,
        end,
        attempted: 0,
        failed: 0,
        refused: 0,
        latency_ms: Vec::new(),
        due_s: Vec::new(),
        late_ms: Vec::new(),
        submit_us: Vec::new(),
        wrong: 0,
        drain_ms: 0.0,
    };
    let traced = phase.traced && tr.enabled();
    let (tx, rx) = std::sync::mpsc::channel::<Pending>();
    let collected = std::thread::scope(|s| {
        let collector = s.spawn(move || collect(tr, root, served, rx, start, traced));
        let gap = |rng: &mut StdRng| {
            let u: f64 = rng.random();
            Duration::from_secs_f64(-(1.0 - u).ln() / phase.rps)
        };
        let mut due = start + gap(rng);
        let mut id = 0u64;
        while due < end {
            let wait = due.saturating_duration_since(Instant::now());
            if wait > Duration::from_micros(200) {
                std::thread::sleep(wait - Duration::from_micros(100));
                continue;
            }
            if !wait.is_zero() {
                std::thread::yield_now();
                continue;
            }
            let row = rng.random_range(0..served.rows.len());
            let t = Instant::now();
            out.late_ms.push((t - due).as_secs_f64() * 1e3);
            let submitted = served.engine.submit(&served.name, served.rows[row].clone());
            let after = Instant::now();
            out.submit_us.push((after - t).as_secs_f64() * 1e6);
            if traced && id.is_multiple_of(SPAN_SAMPLE) {
                tr.record("serve.submit", root, id + 1, t, after);
            }
            out.attempted += 1;
            match submitted {
                Ok(ticket) => {
                    tx.send(Pending { id, due, ticket, row }).expect("collector alive");
                }
                Err(e) => {
                    out.failed += 1;
                    if matches!(e, ServeError::QueueFull { .. }) {
                        out.refused += 1;
                    }
                }
            }
            id += 1;
            due += gap(rng);
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    let (latency, wrong, cancelled, last) = collected;
    (out.due_s, out.latency_ms) = latency.into_iter().unzip();
    out.wrong = wrong;
    out.drain_ms = last.map_or(0.0, |t| t.saturating_duration_since(end).as_secs_f64() * 1e3);
    out.failed += wrong + cancelled;
    out
}

/// The collector: waits for each ticket in send order and checks its
/// class. Returns `((due s, latency ms) per answered request, wrong
/// classes, cancelled, when the last request resolved)`.
fn collect(
    tr: &Tracer,
    root: u64,
    served: &Served,
    rx: std::sync::mpsc::Receiver<Pending>,
    start: Instant,
    traced: bool,
) -> (Vec<(f64, f64)>, u64, u64, Option<Instant>) {
    let (mut latency_ms, mut wrong, mut cancelled, mut last) = (Vec::new(), 0, 0, None);
    for p in rx {
        let outcome = p.ticket.wait();
        let done = Instant::now();
        match outcome {
            Outcome::Class(c) if c == served.expected[p.row] => {
                let due = (p.due - start).as_secs_f64();
                latency_ms.push((due, (done - p.due).as_secs_f64() * 1e3));
            }
            Outcome::Class(_) => wrong += 1,
            Outcome::Cancelled(_) => cancelled += 1,
        }
        if traced && p.id.is_multiple_of(SPAN_SAMPLE) {
            tr.record("serve.request", root, p.id + 1, p.due, done);
        }
        last = Some(done);
    }
    (latency_ms, wrong, cancelled, last)
}

/// Steps the offered load up from half the heavy rate until the p99
/// exceeds [`CAPACITY_P99_MS`], a request is refused, or a backlog
/// builds; returns the highest rate that met all three.
/// Overload is the point here, so only wrong answers count as failures.
fn capacity_search(tr: &Tracer, root: u64, served: &Served, opts: &Opts, rep: &mut Report) -> f64 {
    let mut best = 0.0;
    let mut rps = HEAVY_RPS / 2.0;
    for step in 0..12u64 {
        let phase = Phase { rps, seconds: CAPACITY_STEP_S, traced: false };
        let mut rng = StdRng::seed_from_u64(opts.seed ^ (step + 16) << 32);
        let r = send(tr, root, served, &phase, &mut rng);
        rep.attempted += r.latency_ms.len() as u64 + r.wrong;
        rep.failed += r.wrong;
        let p99 = quantile(&r.latency_ms, 0.99);
        let late = quantile(&r.late_ms, 0.99);
        eprintln!(
            "[serve_mixed] capacity step {rps:.0} req/s: p99 {p99:.3} ms, generator late p99 \
             {late:.3} ms, drain {:.3} ms, {} refused",
            r.drain_ms, r.refused
        );
        // A growing backlog shows as a late generator or a long drain.
        let ok = r.refused == 0
            && p99 <= CAPACITY_P99_MS
            && late <= CAPACITY_P99_MS
            && r.drain_ms <= CAPACITY_P99_MS;
        if !ok {
            break;
        }
        best = rps;
        rps *= 1.5;
    }
    best
}
