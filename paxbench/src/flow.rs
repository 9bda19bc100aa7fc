//! `paper_flow`: the `paper table3` pipeline at full size — synthesize
//! the data, train all 16 catalog models, run the 14 two-pass grid
//! studies and make the Table II selection.
//!
//! Each pass runs in a fresh child process, as a user running the
//! pipeline would: anything a process memoizes cannot leak from one
//! pass into the next. The workload seed permutes the order of the
//! studies; the data seed is the paper's, so every design point is
//! pinned by the digests in [`crate::reference`].
//!
//! The traced pass decomposes the pipeline into the public calls
//! `catalog::train_entry` and `Framework::try_run_study_with` make, with
//! a span around each, and its design points must equal the plain
//! pipeline's bit for bit.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use pax_bench::catalog::{all_entries, DatasetId, Entry};
use pax_bench::studies::{run_one, StudyRun};
use pax_bench::table1::tech_for;
use pax_bespoke::BespokeCircuit;
use pax_core::coeff_approx::{approximate_model, CoeffApproxReport};
use pax_core::explore::{CoeffGene, Engine, EvalContext, Evaluator, MAX_COEFF_LAYERS};
use pax_core::framework::{CircuitStudy, ExecStats, Framework, FrameworkConfig};
use pax_core::prune::{analyze_compiled, PruneAnalysis};
use pax_core::StudyError;
use pax_core::{DesignPoint, Technique};
use pax_ml::quant::{ModelKind, QuantSpec, QuantizedModel};
use pax_ml::synth_data::SynthConfig;
use pax_ml::train::mlp::{train_mlp_classifier, train_mlp_regressor, MlpParams};
use pax_ml::train::svm::{train_svm_classifier, SvmParams};
use pax_ml::train::svr::{train_svr, SvrParams};
use pax_ml::Dataset;
use pax_sim::CompiledNetlist;
use pax_synth::opt;

use crate::common::{
    cross_reductions, eval_workers, mult_cache_metrics, normalized_hv, permutation, span_metrics,
    study_digest, table2, EvalTotals, Inject, SETUP_REPEATS,
};
use crate::report::{median, peak_rss_mb, quantile, Report};
use crate::trace::Tracer;
use crate::Opts;

/// What one pass reported back to the parent.
#[derive(Debug, Default)]
struct Pass {
    wall_s: f64,
    /// `(circuit label, digest of its design points, study ms)`.
    studies: Vec<(String, u64, f64)>,
    fresh: f64,
    search_s: f64,
    area_pct: f64,
    power_pct: f64,
    hv: f64,
    rss_mb: f64,
    /// Per-layer metrics (traced pass only).
    layers: Vec<(String, f64)>,
}

/// The parent: set up, then run passes for `opts.seconds`.
pub fn run(opts: &Opts, rep: &mut Report) -> Result<(), String> {
    let cfg = opts.size.synth_config();
    // Set-up: synthesize the four paper datasets the pipeline consumes.
    // That takes ~15 ms, so it repeats more often than other set-ups to
    // give a steady median.
    let mut setup = Vec::new();
    for _ in 0..3 * SETUP_REPEATS {
        let t = Instant::now();
        for d in DatasetId::all() {
            std::hint::black_box(d.load(&cfg));
        }
        setup.push(t.elapsed().as_secs_f64());
    }
    rep.set("setup_s", median(&setup));

    if opts.trace {
        return run_traced(opts, rep);
    }
    let start = Instant::now();
    let (mut walls, mut cps, mut rss) = (Vec::new(), Vec::new(), 0f64);
    let mut study_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut pass_no = 0u64;
    while pass_no == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        let pass = spawn_pass(opts, pass_seed(opts.seed, pass_no), false)?;
        eprintln!("[paper_flow] pass {pass_no}: {:.3} s", pass.wall_s);
        check_digests(opts, &pass, rep);
        rss = rss.max(pass.rss_mb);
        pass_no += 1;
        walls.push(pass.wall_s);
        for (label, _, ms) in &pass.studies {
            study_ms.entry(label.clone()).or_default().push(*ms);
        }
        cps.push(pass.fresh / pass.search_s.max(1e-9));
        // Deterministic given the data: identical on every pass.
        rep.set("area_reduction_pct", pass.area_pct);
        rep.set("power_reduction_pct", pass.power_pct);
        rep.set("front_hv", pass.hv);
    }
    rep.set("flow_wall_s", median(&walls));
    rep.set("candidates_per_s", median(&cps));
    // Per circuit, the median study time over passes; the quantiles run
    // over circuits (p99 is the slowest circuit).
    let per_circuit: Vec<f64> = study_ms.values().map(|v| median(v)).collect();
    rep.set("latency_p50_ms", quantile(&per_circuit, 0.5));
    rep.set("latency_p99_ms", quantile(&per_circuit, 0.99));
    rep.set("peak_rss_mb", rss.max(peak_rss_mb()));
    Ok(())
}

/// Traced run: one plain pass as the reference, then one decomposed,
/// traced pass whose design points must equal it.
fn run_traced(opts: &Opts, rep: &mut Report) -> Result<(), String> {
    let seed = pass_seed(opts.seed, 0);
    let plain = spawn_pass(opts, seed, false)?;
    let traced = spawn_pass(opts, seed, true)?;
    check_digests(opts, &plain, rep);
    check_digests(opts, &traced, rep);
    let mut plain_digests = plain.studies.iter().map(|s| (&s.0, s.1)).collect::<Vec<_>>();
    let mut traced_digests = traced.studies.iter().map(|s| (&s.0, s.1)).collect::<Vec<_>>();
    plain_digests.sort();
    traced_digests.sort();
    let same = plain_digests == traced_digests;
    if !same {
        eprintln!("[paper_flow] the decomposed study diverged from Framework::run_study");
    }
    rep.check(same);
    for (name, value) in &traced.layers {
        let name = crate::report::PER_LAYER
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("unknown layer metric `{name}`"))?
            .0;
        rep.set(name, *value);
    }
    rep.set("trace.overhead_frac", traced.wall_s / plain.wall_s.max(1e-9) - 1.0);
    Ok(())
}

fn pass_seed(seed: u64, pass_no: u64) -> u64 {
    seed.wrapping_mul(0x100_0000_01B3) ^ pass_no
}

/// Counts one check per study: its digest against the pinned value.
fn check_digests(opts: &Opts, pass: &Pass, rep: &mut Report) {
    let pinned = crate::reference::paper_flow(opts.size);
    for (label, digest, _) in &pass.studies {
        let expected = pinned.iter().find(|(l, _)| l == label).map(|p| p.1);
        if expected != Some(*digest) {
            eprintln!("[paper_flow] {label}: digest {digest:#018x}, pinned {expected:x?}");
        }
        rep.check(expected == Some(*digest));
    }
}

fn spawn_pass(opts: &Opts, seed: u64, traced: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--pass", "paper_flow", "--size", opts.size.label()])
        .args(["--seed", &seed.to_string(), "--trace", if traced { "1" } else { "0" }])
        .args(["--inject", if opts.inject == Inject::Point { "point" } else { "none" }])
        .output()
        .map_err(|e| format!("spawn pass: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "pass exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    parse_pass(&String::from_utf8_lossy(&out.stdout))
}

fn parse_pass(text: &str) -> Result<Pass, String> {
    let mut p = Pass::default();
    let num = |v: Option<&str>| -> Result<f64, String> {
        v.and_then(|v| v.parse().ok()).ok_or_else(|| format!("bad pass line in:\n{text}"))
    };
    for line in text.lines() {
        let mut it = line.split_whitespace();
        match it.next() {
            Some("wall_s") => p.wall_s = num(it.next())?,
            Some("fresh") => p.fresh = num(it.next())?,
            Some("search_s") => p.search_s = num(it.next())?,
            Some("area_pct") => p.area_pct = num(it.next())?,
            Some("power_pct") => p.power_pct = num(it.next())?,
            Some("hv") => p.hv = num(it.next())?,
            Some("rss_mb") => p.rss_mb = num(it.next())?,
            Some("layer") => {
                let name = it.next().ok_or("layer without a name")?.to_owned();
                p.layers.push((name, num(it.next())?));
            }
            Some("study") => {
                let digest = it.next().and_then(|d| u64::from_str_radix(d, 16).ok());
                let ms = num(it.next())?;
                let label = it.collect::<Vec<_>>().join(" ");
                p.studies.push((label, digest.ok_or("bad study digest")?, ms));
            }
            _ => {}
        }
    }
    if p.studies.is_empty() {
        return Err(format!("pass reported no study:\n{text}"));
    }
    Ok(p)
}

/// The child: one pass, reported on stdout one value per line.
pub fn pass(opts: &Opts) -> Result<(), String> {
    let cfg = opts.size.synth_config();
    let tr = Tracer::new(opts.trace);
    let t0 = Instant::now();
    let (mut studies, extras) = if opts.trace {
        traced_pipeline(&tr, &cfg, opts.seed).map_err(|e| e.to_string())?
    } else {
        (plain_pipeline(&cfg, opts.seed), Extras::default())
    };
    let wall_s = t0.elapsed().as_secs_f64();

    if opts.inject == Inject::Point {
        let p = &mut studies[0].0.study.baseline;
        p.area_mm2 = f64::from_bits(p.area_mm2.to_bits() ^ 1);
    }
    let mut totals = EvalTotals::default();
    let (mut hv_sum, mut hv_n) = (0.0, 0f64);
    for (run, ms) in &studies {
        println!("study {:016x} {ms} {}", study_digest(&run.study), run.entry.label());
        for s in &run.study.stats.search {
            totals.add(s);
            if let Some(hv) = normalized_hv(s) {
                hv_sum += hv;
                hv_n += 1.0;
            }
        }
    }
    let with_battery: Vec<_> = studies
        .iter()
        .map(|(r, _)| (&r.study, tech_for(r.entry.dataset, r.entry.kind).battery_mw))
        .collect();
    let (area, power) = cross_reductions(&table2(&with_battery));
    println!("wall_s {wall_s}");
    println!("fresh {}", totals.fresh);
    println!("search_s {}", totals.wall_s);
    println!("area_pct {area}");
    println!("power_pct {power}");
    println!("hv {}", hv_sum / hv_n.max(1.0));
    println!("rss_mb {}", peak_rss_mb());

    if opts.trace {
        let mut rep = Report::default();
        layer_metrics(&tr, &studies, &extras, &totals, &mut rep);
        for (name, _) in crate::report::PER_LAYER {
            if let Some(v) = rep.get(name) {
                println!("layer {name} {v}");
            }
        }
        let path = crate::trace_path("paper_flow", opts.seed);
        tr.write_chrome(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// `paper table3` as the `paper` binary runs it: the parallel catalog,
/// then one `Framework` study per hardware-feasible circuit.
fn plain_pipeline(cfg: &SynthConfig, seed: u64) -> Vec<(StudyRun, f64)> {
    let entries: Vec<Entry> =
        all_entries(cfg).into_iter().filter(|e| e.hardware_feasible).collect();
    run_in_order(entries, seed, run_one)
}

/// Runs one study per entry in the seeded order, returning the results
/// in catalog order with each study's wall time in ms.
fn run_in_order<T>(
    entries: Vec<Entry>,
    seed: u64,
    mut study: impl FnMut(Entry) -> T,
) -> Vec<(T, f64)> {
    let order = permutation(entries.len(), seed);
    let mut slots: Vec<Option<Entry>> = entries.into_iter().map(Some).collect();
    let mut done: Vec<Option<(T, f64)>> = slots.iter().map(|_| None).collect();
    for i in order {
        let entry = slots[i].take().expect("each study runs once");
        let t = Instant::now();
        let out = study(entry);
        done[i] = Some((out, t.elapsed().as_secs_f64() * 1e3));
    }
    done.into_iter().map(|d| d.expect("every study ran")).collect()
}

/// Whether a catalog entry is used downstream, and its training time
/// in seconds.
type Trained = (bool, f64);

/// What the traced pass measured besides the studies themselves.
#[derive(Debug, Default)]
struct Extras {
    trained: Vec<Trained>,
    /// Multipliers each study's cache synthesized.
    built: usize,
}

/// The same pipeline, decomposed into public calls with a span around
/// each call into a layer.
fn traced_pipeline(
    tr: &Tracer,
    cfg: &SynthConfig,
    seed: u64,
) -> Result<(Vec<(StudyRun, f64)>, Extras), StudyError> {
    tr.span("flow", 0, |root| {
        let trained = tr.span("catalog", root, |cat| train_catalog(tr, cat, cfg));
        let mut extras = Extras {
            trained: trained.iter().map(|(e, s)| (e.hardware_feasible, *s)).collect(),
            built: 0,
        };
        let entries = trained.into_iter().map(|(e, _)| e).filter(|e| e.hardware_feasible);
        let runs = run_in_order(entries.collect(), seed, |entry| {
            let fw = Framework::new(FrameworkConfig {
                tech: tech_for(entry.dataset, entry.kind),
                ..Default::default()
            });
            let study = tr.span("study", root, |sid| {
                traced_study(tr, sid, &fw, &entry.model, &entry.train, &entry.test)
                    .map(|(study, _, _)| study)
            });
            extras.built += fw.cache().len();
            study.map(|study| StudyRun { entry, study })
        });
        let runs = runs
            .into_iter()
            .map(|(run, ms)| run.map(|r| (r, ms)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((runs, extras))
    })
}

/// The 16 catalog entries, trained in parallel as
/// `catalog::all_entries` does, with data synthesis and training in
/// separate spans.
fn train_catalog(tr: &Tracer, parent: u64, cfg: &SynthConfig) -> Vec<(Entry, f64)> {
    let kinds = [ModelKind::MlpC, ModelKind::MlpR, ModelKind::SvmC, ModelKind::SvmR];
    let pairs: Vec<(DatasetId, ModelKind)> =
        DatasetId::all().into_iter().flat_map(|d| kinds.map(|k| (d, k))).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .iter()
            .map(|&(d, k)| s.spawn(move || train_entry(tr, parent, d, k, cfg)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("training thread")).collect()
    })
}

/// `catalog::train_entry` with spans; the pinned digests catch any
/// drift from it.
pub fn train_entry(
    tr: &Tracer,
    parent: u64,
    dataset: DatasetId,
    kind: ModelKind,
    cfg: &SynthConfig,
) -> (Entry, f64) {
    tr.span("entry", parent, |eid| {
        let (train, test) = tr.span("ml.data", eid, |_| dataset.load(cfg));
        let t = Instant::now();
        let (model, t_column) = tr.span("ml.train", eid, |_| train_model(dataset, kind, &train));
        let train_s = t.elapsed().as_secs_f64();
        let hardware_feasible =
            !(dataset == DatasetId::Pendigits && matches!(kind, ModelKind::MlpR | ModelKind::SvmR));
        (Entry { dataset, kind, model, train, test, t_column, hardware_feasible }, train_s)
    })
}

/// The catalog's pinned hyper-parameters per (dataset, family).
fn train_model(dataset: DatasetId, kind: ModelKind, train: &Dataset) -> (QuantizedModel, String) {
    let seed = 0xA11CE ^ ((dataset as u64) << 4) ^ (kind as u64);
    let spec = QuantSpec::default();
    let hidden = dataset.mlp_hidden();
    let name = dataset.name();
    match kind {
        ModelKind::MlpC => {
            let lr = if dataset == DatasetId::Pendigits { 0.08 } else { 0.05 };
            let p = MlpParams { hidden, lr, epochs: 300, ..MlpParams::default() };
            let m = train_mlp_classifier(train, &p, seed);
            (QuantizedModel::from_mlp(name, &m, train.n_classes, spec), m.topology())
        }
        ModelKind::MlpR => {
            let p = MlpParams { hidden, lr: 0.01, epochs: 400, ..MlpParams::default() };
            let m = train_mlp_regressor(train, &p, seed);
            (QuantizedModel::from_mlp(name, &m, train.n_classes, spec), m.topology())
        }
        ModelKind::SvmC => {
            let p = SvmParams { lr: 0.1, epochs: 800, batch: 64, ..SvmParams::default() };
            let m = train_svm_classifier(train, &p, seed);
            let t = m.n_pairwise_classifiers().to_string();
            (QuantizedModel::from_linear_classifier(name, &m, spec), t)
        }
        ModelKind::SvmR => {
            let p = SvrParams { epochs: 300, ..SvrParams::default() };
            let m = train_svr(train, &p, seed);
            (QuantizedModel::from_svr(name, &m, train.n_classes, spec), "1".into())
        }
    }
}

/// The two base circuits a study prunes — the exact bespoke design and
/// its coefficient-approximated twin — each optimized, compiled and
/// measured, as the first two steps of `Framework::try_run_study_with`.
pub struct Bases {
    pub base: BespokeCircuit,
    pub base_tape: CompiledNetlist,
    pub baseline: DesignPoint,
    pub approx_model: QuantizedModel,
    pub coeff_report: CoeffApproxReport,
    pub approx: BespokeCircuit,
    pub approx_tape: CompiledNetlist,
    pub coeff: DesignPoint,
}

/// Steps 1 and 2 of a study, one span per call into a layer.
pub fn traced_bases(
    tr: &Tracer,
    parent: u64,
    fw: &Framework,
    model: &QuantizedModel,
    test: &Dataset,
) -> Result<Bases, StudyError> {
    let build = |m: &QuantizedModel| {
        let c = tr.span("bespoke.generate", parent, |_| BespokeCircuit::generate(m));
        let c = tr.span("synth.optimize", parent, |_| c.with_netlist(opt::optimize(&c.netlist)));
        let tape = tr.span("sim.compile", parent, |_| CompiledNetlist::compile(&c.netlist));
        (c, tape)
    };
    let measure = |c: &BespokeCircuit, tape: &CompiledNetlist, m: &QuantizedModel, t| {
        tr.span("core.measure", parent, |_| fw.try_measure_compiled(tape, &c.netlist, m, test, t))
    };
    let (base, base_tape) = build(model);
    let baseline = measure(&base, &base_tape, model, Technique::Exact)?;
    tr.span("mult_cache.fill", parent, |_| {
        fw.cache().build_range(model.spec.input_bits, model.spec.coef_bits);
        if model.kind.is_mlp() && model.hidden_width > 0 {
            fw.cache().build_range(model.hidden_width, model.spec.coef_bits);
        }
    });
    let (approx_model, coeff_report) = tr.span("coeff_approx.approx", parent, |_| {
        approximate_model(model, fw.cache(), &fw.config().coeff)
    });
    let (approx, approx_tape) = build(&approx_model);
    let coeff = measure(&approx, &approx_tape, &approx_model, Technique::CoeffApprox)?;
    Ok(Bases { base, base_tape, baseline, approx_model, coeff_report, approx, approx_tape, coeff })
}

/// `Framework::try_run_study_with` under the framework's own (two-pass,
/// exhaustive) search configuration, one span per call into a layer.
/// Also returns the base circuits and the exact base's pruning analysis.
pub fn traced_study(
    tr: &Tracer,
    parent: u64,
    fw: &Framework,
    model: &QuantizedModel,
    train: &Dataset,
    test: &Dataset,
) -> Result<(CircuitStudy, Bases, PruneAnalysis), StudyError> {
    let search = &fw.config().search;
    assert!(search.coeff_levels.is_empty(), "the paper flow runs the two-pass study");
    let b = traced_bases(tr, parent, fw, model, test)?;
    let series = |c: &BespokeCircuit, tape: &CompiledNetlist, m: &QuantizedModel, gene| {
        let analysis =
            tr.span("prune.analyze", parent, |_| analyze_compiled(tape, &c.netlist, m, train));
        tr.span("explore.search", parent, |_| {
            let evaluator = Evaluator::new(
                fw.library(),
                &fw.config().tech,
                test,
                vec![EvalContext {
                    coeff: gene,
                    netlist: &c.netlist,
                    model: m,
                    analysis: analysis.clone(),
                }],
            );
            let mut engine =
                Engine::with_objectives(&evaluator, &fw.config().prune, search.objectives.clone());
            let mut strategy = search.build();
            let outcome = engine.run(strategy.as_mut())?;
            Ok::<_, StudyError>((
                outcome.points.into_iter().map(|(_, p)| p).collect::<Vec<_>>(),
                outcome.stats,
                analysis,
            ))
        })
    };
    let (prune_only, stats_a, base_analysis) =
        series(&b.base, &b.base_tape, model, CoeffGene::exact())?;
    let layers = model
        .sum_shapes()
        .iter()
        .map(|&(layer, _, _)| layer + 1)
        .max()
        .unwrap_or(1)
        .min(MAX_COEFF_LAYERS);
    let gene = CoeffGene::per_layer(&vec![1; layers]);
    let (cross, stats_b, _) = series(&b.approx, &b.approx_tape, &b.approx_model, gene)?;
    let study = CircuitStudy {
        name: model.name.clone(),
        kind: model.kind,
        baseline: b.baseline.clone(),
        coeff: b.coeff.clone(),
        prune_only,
        cross,
        coeff_report: b.coeff_report.clone(),
        stats: ExecStats { search: vec![stats_a, stats_b], ..ExecStats::default() },
    };
    Ok((study, b, base_analysis))
}

/// The per-layer metrics of a traced pass.
fn layer_metrics(
    tr: &Tracer,
    studies: &[(StudyRun, f64)],
    extras: &Extras,
    totals: &EvalTotals,
    rep: &mut Report,
) {
    span_metrics(rep, &tr.spans(), "flow");
    rep.set("ml.models_trained", extras.trained.len() as f64);
    let all: f64 = extras.trained.iter().map(|t| t.1).sum();
    let useful: f64 = extras.trained.iter().filter(|t| t.0).map(|t| t.1).sum();
    rep.set("ml.train_useful_frac", useful / all.max(1e-12));
    mult_cache_metrics(rep, extras.built, studies.iter().map(|(r, _)| &r.entry.model));
    totals.emit(rep, eval_workers());
}
