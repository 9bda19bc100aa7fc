//! The three A/B candidate-evaluation studies behind
//! `BENCH_{prune,coeff,fabric}_eval.json`, in one harness.
//!
//! Each study sends the same candidates down two evaluation paths —
//! side A, the reference, and side B, the path under test — checks that
//! both measured bit-identical design points, and reports B's
//! candidate throughput relative to A's:
//!
//! | Study | A | B | Timed region |
//! |---|---|---|---|
//! | `prune_eval` | `EvalMode::Rebuild` | `EvalMode::Overlay` | evaluator construction + engine run (grid, then NSGA-II) |
//! | `coeff_eval` | rebuild | overlay, both on the joint coeff × prune grid | engine run (every gene's context is built beforehand; its cost is a counter) |
//! | `fabric_eval` | in-process evaluator | `Evaluator::with_fabric` on a fresh `ServeEngine` tenant | tenant registration + evaluator construction + engine run (grid, then NSGA-II) |
//!
//! Every side runs best-of-3, the same for both sides. The acceptance
//! bars are one table: on the cardio svm-r grid row, B must reach the
//! bar's multiple of A's throughput, and every row must be
//! bit-identical.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pax_core::coeff_approx::CoeffApproxConfig;
use pax_core::explore::{
    Candidate, CoeffAxis, CoeffGene, Engine, EvalCache, EvalContext, EvalMode, Evaluator,
    ExhaustiveGrid, Nsga2, Nsga2Config,
};
use pax_core::framework::{Framework, FrameworkConfig};
use pax_core::prune::{PruneAnalysis, PruneConfig};
use pax_core::DesignPoint;
use pax_ml::quant::ModelKind;
use pax_ml::synth_data::SynthConfig;
use pax_netlist::Netlist;
use pax_serve::{EngineConfig, ServeEngine, TenantOptions};

use crate::catalog::{train_entry, DatasetId, Entry};
use crate::table1::tech_for;

/// Timing repetitions per side; the fastest is reported (best-of-N
/// sheds scheduler noise).
const REPEATS: usize = 3;

/// The graded widths `coeff_eval`'s coefficient axis opens (gene level
/// `k` → `LEVELS[k - 1]`; level 0 is always exact).
const LEVELS: [i64; 2] = [2, 4];

/// One of the three A/B evaluation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Study {
    /// Rebuild pipeline vs overlay evaluation.
    Prune,
    /// Rebuild vs overlay on the joint coefficient × pruning grid.
    Coeff,
    /// In-process vs serve-fabric evaluation.
    Fabric,
}

/// What a study compares and the bar its side B must clear.
struct Spec {
    name: &'static str,
    heading: &'static str,
    a: &'static str,
    b: &'static str,
    /// The least `B ÷ A` throughput on the cardio svm-r grid row.
    bar: f64,
}

/// Every study's labels and acceptance bar, in [`Study`] order.
const SPECS: [Spec; 3] = [
    Spec {
        name: "prune_eval",
        heading: "Candidate evaluation — rebuild pipeline vs overlay on the shared tape",
        a: "rebuild",
        b: "overlay",
        bar: 3.0,
    },
    Spec {
        name: "coeff_eval",
        heading: "Stacked coeff+prune evaluation — rebuild pipeline vs overlay per gene",
        a: "rebuild",
        b: "overlay",
        bar: 2.0,
    },
    Spec {
        name: "fabric_eval",
        heading: "Candidate evaluation — in-process overlay vs the serve-engine fabric",
        a: "in-process",
        b: "fabric",
        bar: 0.9,
    },
];

impl Study {
    /// Every study, in `paper all` order.
    pub const ALL: [Study; 3] = [Study::Prune, Study::Coeff, Study::Fabric];

    fn spec(self) -> &'static Spec {
        &SPECS[self as usize]
    }

    /// The `paper` command and JSON file stem (`prune_eval`, …).
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// The study whose command is `name`.
    pub fn from_name(name: &str) -> Option<Study> {
        Study::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The markdown heading `paper` prints above the table.
    pub fn heading(self) -> &'static str {
        self.spec().heading
    }
}

/// One A/B measurement: one workload of one circuit on both sides.
#[derive(Debug, Clone)]
pub struct Row {
    /// The study that measured it.
    pub study: Study,
    /// Circuit label (`cardio svm-r`, …).
    pub circuit: String,
    /// `grid` or `nsga`.
    pub workload: &'static str,
    /// Fresh evaluations in one timed run.
    pub candidates: usize,
    /// Side A's best-of-3 wall-clock, ms.
    pub a_ms: f64,
    /// Side B's best-of-3 wall-clock, ms.
    pub b_ms: f64,
    /// Whether both sides measured bit-identical design points, in the
    /// same order (ratios mean nothing otherwise).
    pub identical: bool,
    /// Study-specific context, as `(name, value)` pairs.
    pub counters: Vec<(&'static str, f64)>,
}

impl Row {
    /// B's candidate throughput over A's.
    pub fn ratio(&self) -> f64 {
        self.a_ms / self.b_ms.max(1e-9)
    }

    /// Side A's candidates per second.
    pub fn a_cps(&self) -> f64 {
        self.candidates as f64 / (self.a_ms / 1e3).max(1e-9)
    }

    /// Side B's candidates per second.
    pub fn b_cps(&self) -> f64 {
        self.candidates as f64 / (self.b_ms / 1e3).max(1e-9)
    }
}

/// Which path a timed run takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    A,
    B,
}

/// One evaluation as the bit-identity check compares it: the genome,
/// then the exact bit patterns of accuracy, area, power and delay and
/// the gate count.
type Measured = (Candidate, [u64; 5]);

fn point_bits(c: Candidate, p: &DesignPoint) -> Measured {
    let (acc, area, power, delay) = (p.accuracy, p.area_mm2, p.power_mw, p.critical_ms);
    (c, [acc.to_bits(), area.to_bits(), power.to_bits(), delay.to_bits(), p.gate_count as u64])
}

/// What one run of a side returns: its measurements in order and the
/// fresh evaluations it spent.
struct Sample {
    measured: Vec<Measured>,
    candidates: usize,
}

/// Runs `side` [`REPEATS`] times and keeps the fastest repetition.
fn best_of(mut side: impl FnMut() -> Sample) -> (Sample, f64) {
    let mut best: Option<(Sample, f64)> = None;
    for _ in 0..REPEATS {
        let t = Instant::now();
        let sample = side();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if best.as_ref().is_none_or(|(_, b)| ms < *b) {
            best = Some((sample, ms));
        }
    }
    best.expect("at least one repetition")
}

/// Times side A, then side B, and checks they measured the same bits.
fn compare(
    study: Study,
    c: &Circuit<'_>,
    workload: &'static str,
    mut run: impl FnMut(Side) -> Sample,
) -> Row {
    let (a, a_ms) = best_of(|| run(Side::A));
    let (b, b_ms) = best_of(|| run(Side::B));
    Row {
        study,
        circuit: c.entry.label(),
        workload,
        candidates: a.candidates,
        a_ms,
        b_ms,
        identical: a.measured == b.measured,
        counters: Vec::new(),
    }
}

/// One catalog circuit set up for a study: its framework, the
/// optimized exact base and that base's pruning analysis.
struct Circuit<'e> {
    entry: &'e Entry,
    fw: Framework,
    base: Netlist,
    analysis: PruneAnalysis,
}

impl<'e> Circuit<'e> {
    fn new(entry: &'e Entry) -> Self {
        let fw = Framework::new(FrameworkConfig {
            tech: tech_for(entry.dataset, entry.kind),
            ..Default::default()
        });
        let base =
            pax_synth::opt::optimize(&pax_bespoke::BespokeCircuit::generate(&entry.model).netlist);
        let analysis = pax_core::prune::analyze(&base, &entry.model, &entry.train);
        Self { entry, fw, base, analysis }
    }

    fn prune(&self) -> &PruneConfig {
        &self.fw.config().prune
    }

    /// A fresh in-process overlay evaluator over the exact base.
    fn evaluator(&self) -> Evaluator<'_> {
        Evaluator::new(
            self.fw.library(),
            &self.fw.config().tech,
            &self.entry.test,
            vec![EvalContext {
                coeff: CoeffGene::exact(),
                netlist: &self.base,
                model: &self.entry.model,
                analysis: self.analysis.clone(),
            }],
        )
    }
}

/// One search on a cold engine: the exhaustive grid, or NSGA-II under
/// `nsga`.
fn search(evaluator: &Evaluator<'_>, prune: &PruneConfig, nsga: Option<&Nsga2Config>) -> Sample {
    let mut engine = Engine::new(evaluator, prune);
    let outcome = match nsga {
        None => engine.run(&mut ExhaustiveGrid::new()),
        Some(cfg) => engine.run(&mut Nsga2::new(cfg.clone())),
    }
    .expect("study evaluation");
    Sample {
        measured: outcome.points.iter().map(|(c, p)| point_bits(*c, p)).collect(),
        candidates: outcome.stats.evaluated,
    }
}

/// The grid row, then an NSGA-II row whose budget is a quarter of the
/// grid's fresh evaluations. The seed is fixed, so bit-identical sides
/// breed identical genomes.
fn grid_and_nsga(
    study: Study,
    c: &Circuit<'_>,
    seed: u64,
    mut run: impl FnMut(Side, Option<&Nsga2Config>) -> Sample,
) -> Vec<Row> {
    let grid = compare(study, c, "grid", |side| run(side, None));
    let budget = (grid.candidates / 4).max(8);
    let nsga = Nsga2Config {
        population: (budget / 3).clamp(6, 16),
        generations: 64,
        max_evals: budget,
        seed,
        ..Default::default()
    };
    let evolved = compare(study, c, "nsga", |side| run(side, Some(&nsga)));
    vec![grid, evolved]
}

/// `coeff_eval`: the joint grid over the exact base plus the graded
/// coefficient axis. Every gene's base circuit (and, on the overlay
/// side, its overlay) is built before the clock starts — the same work
/// for both sides — and the rebuild side's build time is a counter.
fn coeff_row(c: &Circuit<'_>) -> Row {
    let build = |mode| {
        c.evaluator()
            .with_coeff_axis(CoeffAxis {
                model: &c.entry.model,
                train: &c.entry.train,
                cache: c.fw.cache(),
                cfg: CoeffApproxConfig::default(),
                levels: LEVELS.to_vec(),
            })
            .with_mode(mode)
    };
    // One ungated probe per gene materializes every lazy context; the
    // throwaway cache keeps the probes out of the timed runs.
    let materialize = |evaluator: &Evaluator<'_>| {
        let probes: Vec<Candidate> = evaluator
            .genes()
            .into_iter()
            .map(|coeff| Candidate { coeff, tau_c: 1.0, phi_c: -1 })
            .collect();
        evaluator.evaluate_batch(&probes, &mut EvalCache::new(), None).expect("materialization");
    };
    let (rebuild, overlay) = (build(EvalMode::Rebuild), build(EvalMode::Overlay));
    let t = Instant::now();
    materialize(&rebuild);
    let materialize_ms = t.elapsed().as_secs_f64() * 1e3;
    materialize(&overlay);
    let mut row = compare(Study::Coeff, c, "grid", |side| {
        search(if side == Side::A { &rebuild } else { &overlay }, c.prune(), None)
    });
    row.counters =
        vec![("genes", rebuild.genes().len() as f64), ("materialize_ms", materialize_ms)];
    row
}

/// `fabric_eval`: the same searches in-process and through a fresh
/// tenant of one serve engine per repetition.
fn fabric_rows(c: &Circuit<'_>, seed: u64) -> Vec<Row> {
    let serve = ServeEngine::new(EngineConfig::default());
    let mut tenants = 0usize;
    let mut rows = grid_and_nsga(Study::Fabric, c, seed, |side, nsga| match side {
        Side::A => search(&c.evaluator(), c.prune(), nsga),
        Side::B => {
            let name = format!("bench-{}-{tenants}", c.entry.label());
            tenants += 1;
            let tenant = serve
                .register_tenant(&name, TenantOptions::default())
                .expect("fresh tenant per repetition");
            let sample = search(&c.evaluator().with_fabric(Arc::new(tenant)), c.prune(), nsga);
            serve.unregister_tenant(&name);
            sample
        }
    });
    for row in &mut rows {
        row.counters = vec![("workers", serve.workers() as f64)];
    }
    serve.shutdown();
    rows
}

/// Runs `study` on one catalog entry.
fn run_entry(study: Study, entry: &Entry, seed: u64) -> Vec<Row> {
    let c = Circuit::new(entry);
    match study {
        Study::Prune => grid_and_nsga(study, &c, seed, |side, nsga| {
            let mode = if side == Side::A { EvalMode::Rebuild } else { EvalMode::Overlay };
            search(&c.evaluator().with_mode(mode), c.prune(), nsga)
        }),
        Study::Coeff => vec![coeff_row(&c)],
        Study::Fabric => fabric_rows(&c, seed),
    }
}

/// Runs `study` on its circuits: the acceptance circuit (cardio svm-r)
/// plus a second family for breadth.
pub fn run(study: Study, cfg: &SynthConfig, seed: u64) -> Vec<Row> {
    [(DatasetId::Cardio, ModelKind::SvmR), (DatasetId::RedWine, ModelKind::SvmC)]
        .into_iter()
        .flat_map(|(d, k)| run_entry(study, &train_entry(d, k, cfg), seed))
        .collect()
}

/// Whether `rows` meet the study's bar: every row bit-identical, and
/// side B on the cardio svm-r grid row at least `bar` times faster.
fn passes(study: Study, rows: &[Row]) -> bool {
    rows.iter().all(|r| r.identical)
        && rows
            .iter()
            .find(|r| r.circuit.contains("cardio") && r.workload == "grid")
            .is_some_and(|r| r.ratio() >= study.spec().bar)
}

/// `3` for whole numbers, `127.93` otherwise.
fn number(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Markdown table of the rows.
pub fn render(study: Study, rows: &[Row]) -> String {
    let (a, b) = (study.spec().a, study.spec().b);
    let mut out = format!(
        "| Circuit | Workload | Candidates | {a} ms | {b} ms | {b} ÷ {a} | {a} c/s | {b} c/s | Counters | Identical |\n"
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        let counters: Vec<String> =
            r.counters.iter().map(|(n, v)| format!("{n} {}", number(*v))).collect();
        let counters = if counters.is_empty() { "—".to_owned() } else { counters.join(", ") };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.0} | {:.0} | {:.2}× | {:.0} | {:.0} | {} | {} |",
            r.circuit,
            r.workload,
            r.candidates,
            r.a_ms,
            r.b_ms,
            r.ratio(),
            r.a_cps(),
            r.b_cps(),
            counters,
            if r.identical { "yes" } else { "NO" },
        );
    }
    out
}

/// The `BENCH_<study>.json` payload.
pub fn to_json(study: Study, rows: &[Row], cfg: &SynthConfig, seed: u64) -> String {
    let Spec { name, a, b, bar, .. } = *study.spec();
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"benchmark\": \"{name}: {a} vs {b} candidate evaluation (cargo run -p pax-bench --release --bin paper -- {name})\","
    );
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(
        out,
        "  \"synth_config\": {{ \"seed\": {}, \"size_factor\": {} }},",
        cfg.seed, cfg.size_factor
    );
    let _ = writeln!(out, "  \"repeats\": {REPEATS},");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let counters: Vec<String> =
            r.counters.iter().map(|(n, v)| format!("\"{n}\": {}", number(*v))).collect();
        let _ = writeln!(
            out,
            "    {{ \"study\": \"{}\", \"circuit\": \"{}\", \"workload\": \"{}\", \"candidates\": {}, \"a\": \"{a}\", \"a_ms\": {:.1}, \"a_cps\": {:.1}, \"b\": \"{b}\", \"b_ms\": {:.1}, \"b_cps\": {:.1}, \"ratio\": {:.3}, \"identical\": {}, \"counters\": {{ {} }} }}{}",
            r.study.name(),
            r.circuit,
            r.workload,
            r.candidates,
            r.a_ms,
            r.a_cps(),
            r.b_ms,
            r.b_cps(),
            r.ratio(),
            r.identical,
            counters.join(", "),
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"acceptance\": {\n");
    let _ = writeln!(
        out,
        "    \"bar\": \"{b} >= {bar}x {a} candidate throughput on the cardio svm-r grid, with bit-identical results on every row\","
    );
    let _ = writeln!(out, "    \"pass\": {}", passes(study, rows));
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(row: &Row, name: &str) -> Option<f64> {
        row.counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Runs `study` on a small circuit and checks both sides agree and
    /// every rendering is well-formed.
    fn check(study: Study) -> Vec<Row> {
        let cfg = SynthConfig { size_factor: 0.12, ..SynthConfig::small() };
        let entry = train_entry(DatasetId::RedWine, ModelKind::SvmR, &cfg);
        let rows = run_entry(study, &entry, 11);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.candidates > 0, "{} {}", r.circuit, r.workload);
            assert!(r.identical, "{} sides diverged on {}", study.name(), r.workload);
            assert!(r.a_ms > 0.0 && r.b_ms > 0.0);
        }
        let md = render(study, &rows);
        assert!(md.contains("redwine") && md.contains("| yes |"), "{md}");
        let json = to_json(study, &rows, &cfg, 11);
        assert!(json.contains(&format!("\"study\": \"{}\"", study.name())));
        assert!(json.contains("\"acceptance\"") && json.ends_with("}\n"));
        rows
    }

    #[test]
    fn prune_eval_runs_and_modes_agree() {
        let rows = check(Study::Prune);
        assert_eq!(rows.iter().map(|r| r.workload).collect::<Vec<_>>(), ["grid", "nsga"]);
    }

    #[test]
    fn coeff_eval_runs_and_modes_agree() {
        let rows = check(Study::Coeff);
        assert_eq!(counter(&rows[0], "genes"), Some(3.0), "exact + two graded levels");
    }

    #[test]
    fn fabric_eval_runs_and_substrates_agree() {
        let rows = check(Study::Fabric);
        assert!(rows.iter().all(|r| counter(r, "workers").unwrap() > 0.0));
    }

    #[test]
    fn study_names_round_trip() {
        for study in Study::ALL {
            assert_eq!(Study::from_name(study.name()), Some(study));
        }
        assert_eq!(Study::from_name("explore"), None);
    }
}
