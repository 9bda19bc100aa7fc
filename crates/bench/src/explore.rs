//! Exploration-strategy study: exhaustive grid versus evolutionary
//! (NSGA-II) search on the same circuits, in 2, 3 and 4 objective
//! dimensions.
//!
//! For each selected circuit the study first runs the paper-faithful
//! exhaustive sweep, then re-runs the framework with the evolutionary
//! strategy at a fraction of the grid's evaluation budget, and compares
//! the resulting Pareto fronts by 2-D hypervolume (accuracy ↑, area ↓)
//! against a shared reference point (the baseline's area, accuracy 0).
//! The recorded numbers back `BENCH_explore.json`'s acceptance bar:
//! the evolutionary front must reach the grid front's hypervolume on at
//! least one circuit while spending ≤ 25% of its evaluations.
//!
//! On top of the 2-D comparison, each circuit gets an N-dimensional
//! study ([`NdRow`]): the measured design space re-ranked under the
//! 3-D (accuracy, area, power) and 4-D (+ delay) [`ObjectiveSet`]s,
//! plus an N-D-selected NSGA-II pass on the cache-hot grid engine —
//! power and delay are measured for every candidate anyway, so the
//! extra fronts cost almost no fresh synthesis.

use std::fmt::Write as _;

use pax_bespoke::BespokeCircuit;
use pax_core::coeff_approx::approximate_model;
use pax_core::explore::{
    CoeffGene, Engine, EvalContext, Evaluator, ExhaustiveGrid, Nsga2, Nsga2Config, ObjectiveSet,
    ParetoArchive, SearchOutcome,
};
use pax_core::framework::{Framework, FrameworkConfig};
use pax_core::{DesignPoint, Technique};
use pax_ml::synth_data::SynthConfig;

use crate::catalog::{train_entry, DatasetId, Entry};
use crate::table1::tech_for;
use pax_ml::quant::ModelKind;

/// Grid-versus-evolutionary comparison for one circuit.
#[derive(Debug)]
pub struct ExploreRow {
    /// Circuit label (`redwine svm-c`, …).
    pub circuit: String,
    /// Distinct prunings the exhaustive grid evaluated.
    pub grid_evals: usize,
    /// Designs the grid asked for (combos before dedup).
    pub grid_asked: usize,
    /// Hypervolume of the grid study's full Pareto front.
    pub grid_hv: f64,
    /// Distinct prunings the evolutionary search evaluated.
    pub evo_evals: usize,
    /// Designs the evolutionary search asked for.
    pub evo_asked: usize,
    /// Hypervolume of the evolutionary study's full Pareto front.
    pub evo_hv: f64,
    /// `evo_evals / grid_evals` — the evaluation-budget fraction spent.
    pub budget_fraction: f64,
    /// `evo_hv / grid_hv`.
    pub hv_ratio: f64,
    /// The 3-D and 4-D studies of this circuit's design space.
    pub nd: Vec<NdRow>,
}

/// One N-dimensional front of a circuit: the measured design space
/// re-ranked under an N-axis [`ObjectiveSet`], plus an N-D-selected
/// evolutionary pass sharing the grid engine's cache. Hypervolumes are
/// measured in a shared per-circuit reference box (accuracy floor 0,
/// minimized axes 1% beyond the worst observed value).
#[derive(Debug)]
pub struct NdRow {
    /// Objective-space dimensionality (3 or 4).
    pub dims: usize,
    /// Enabled axis labels.
    pub objectives: Vec<String>,
    /// Non-dominated designs among every point the 2-D comparison
    /// measured (grid ∪ evolutionary ∪ the two base circuits).
    pub front: usize,
    /// Hypervolume of that front.
    pub hypervolume: f64,
    /// Fresh evaluations the N-D NSGA-II pass spent (cache hits on the
    /// grid's measurements are free).
    pub evo_evals: usize,
    /// Front size of the N-D NSGA-II pass (plus the base circuits).
    pub evo_front: usize,
    /// Hypervolume of the N-D NSGA-II front in the same reference box.
    pub evo_hv: f64,
}

impl ExploreRow {
    /// Whether this circuit meets the acceptance bar: evolutionary
    /// hypervolume at least the grid's at ≤ 25% of the evaluations.
    pub fn passes(&self) -> bool {
        self.budget_fraction <= 0.25 + 1e-12 && self.hv_ratio >= 1.0 - 1e-12
    }
}

/// Hypervolume of a search outcome's front, together with the
/// out-of-search designs every strategy gets for free (baseline and
/// coefficient-approximated circuits), against a shared reference
/// point.
fn front_hypervolume(outcome: &SearchOutcome, fixed: &[DesignPoint], ref_area: f64) -> f64 {
    let mut archive = outcome.archive.clone();
    archive.extend(fixed.iter().cloned());
    archive.hypervolume(&[0.0, ref_area])
}

/// Runs the comparison on one catalog entry: both strategies search the
/// *joint* cross-layer genome (baseline and coefficient-approximated
/// base circuits at once) on independent engines — no shared cache, so
/// the budget comparison is honest. `budget_fraction` is the share of
/// the grid's distinct evaluations granted to the evolutionary search
/// (the acceptance bar uses 0.25); `seed` steers its RNG.
pub fn run_entry(entry: &Entry, budget_fraction: f64, seed: u64) -> ExploreRow {
    let cfg = FrameworkConfig { tech: tech_for(entry.dataset, entry.kind), ..Default::default() };
    let fw = Framework::new(cfg);
    let (model, train, test) = (&entry.model, &entry.train, &entry.test);

    // The two base circuits of the cross-layer flow, measured once —
    // these designs are free for every strategy.
    fw.cache().build_range(model.spec.input_bits, model.spec.coef_bits);
    if model.kind.is_mlp() && model.hidden_width > 0 {
        fw.cache().build_range(model.hidden_width, model.spec.coef_bits);
    }
    let (approx, _) = approximate_model(model, fw.cache(), &fw.config().coeff);
    let base_nl = pax_synth::opt::optimize(&BespokeCircuit::generate(model).netlist);
    let approx_nl = pax_synth::opt::optimize(&BespokeCircuit::generate(&approx).netlist);
    let fixed = vec![
        fw.try_measure(&base_nl, model, test, Technique::Exact).expect("catalog circuit measures"),
        fw.try_measure(&approx_nl, &approx, test, Technique::CoeffApprox)
            .expect("catalog circuit measures"),
    ];
    // Analyses are deterministic, so compute them once and clone into
    // each strategy's contexts — the per-strategy isolation that keeps
    // the budget comparison honest is the engine/cache, not the
    // training-set simulation.
    let base_analysis = pax_core::prune::analyze(&base_nl, model, train);
    let approx_analysis = pax_core::prune::analyze(&approx_nl, &approx, train);
    let contexts = || {
        vec![
            EvalContext {
                coeff: CoeffGene::exact(),
                netlist: &base_nl,
                model,
                analysis: base_analysis.clone(),
            },
            EvalContext {
                coeff: CoeffGene::uniform(1),
                netlist: &approx_nl,
                model: &approx,
                analysis: approx_analysis.clone(),
            },
        ]
    };

    // Exhaustive sweep on its own engine.
    let grid_eval = Evaluator::new(fw.library(), &fw.config().tech, test, contexts());
    let mut grid_engine = Engine::new(&grid_eval, &fw.config().prune);
    let grid = grid_engine.run(&mut ExhaustiveGrid::new()).expect("grid search");
    let grid_evals = grid.stats.evaluated;

    // Evolutionary search on a fresh engine (cold cache), budgeted to
    // the requested fraction of the grid's distinct evaluations. The
    // population stays small relative to the budget: selection pressure
    // needs several generations, and same-run cache hits make later
    // ones cheap.
    let budget = ((grid_evals as f64 * budget_fraction).floor() as usize).max(4);
    let mut nsga = Nsga2::new(Nsga2Config {
        population: (budget / 3).clamp(6, 16),
        generations: 64, // the evaluation budget binds first
        max_evals: budget,
        seed,
        ..Default::default()
    });
    let evo_eval = Evaluator::new(fw.library(), &fw.config().tech, test, contexts());
    let mut evo_engine = Engine::new(&evo_eval, &fw.config().prune);
    let evo = evo_engine.run(&mut nsga).expect("evolutionary search");

    // Shared reference: the worst area either search saw, so both
    // fronts are scored inside the same box.
    let ref_area = grid
        .points
        .iter()
        .chain(evo.points.iter())
        .map(|(_, p)| p.area_mm2)
        .chain(fixed.iter().map(|p| p.area_mm2))
        .fold(0.0, f64::max)
        * 1.01;
    let grid_hv = front_hypervolume(&grid, &fixed, ref_area);
    let evo_hv = front_hypervolume(&evo, &fixed, ref_area);
    // `PAX_EXPLORE_DEBUG=1` dumps both fronts for comparing where the
    // strategies diverge.
    if std::env::var("PAX_EXPLORE_DEBUG").is_ok() {
        for (name, o) in [("grid", &grid), ("evo", &evo)] {
            eprintln!("[{}] {} front:", entry.label(), name);
            for p in o.archive.front() {
                eprintln!(
                    "  {} τc={:.4} φc={} acc {:.4} area {:.2}",
                    p.technique.label(),
                    p.tau_c.unwrap_or(f64::NAN),
                    p.phi_c.unwrap_or(i64::MIN),
                    p.accuracy,
                    p.area_mm2
                );
            }
        }
    }
    // N-D studies: drive an N-D-selected NSGA-II pass per objective
    // space on the grid engine (its cache already holds the full sweep,
    // so only off-grid genomes cost fresh evaluations), then re-rank
    // the measured space under the same objectives.
    let nd_outcomes: Vec<(ObjectiveSet, SearchOutcome)> =
        [ObjectiveSet::accuracy_area_power(), ObjectiveSet::all()]
            .into_iter()
            .map(|objectives| {
                grid_engine.set_objectives(objectives.clone());
                let mut nsga_nd = Nsga2::new(Nsga2Config {
                    population: (budget / 3).clamp(6, 16),
                    generations: 64,
                    max_evals: budget,
                    seed,
                    ..Default::default()
                });
                let outcome = grid_engine.run(&mut nsga_nd).expect("N-D evolutionary search");
                (objectives, outcome)
            })
            .collect();
    // Shared per-circuit reference box: every point any pass measured,
    // nudged 1% past the worst value on each minimized axis.
    let base_points: Vec<DesignPoint> = grid
        .points
        .iter()
        .chain(evo.points.iter())
        .map(|(_, p)| p.clone())
        .chain(fixed.iter().cloned())
        .collect();
    let every: Vec<&DesignPoint> = base_points
        .iter()
        .chain(nd_outcomes.iter().flat_map(|(_, o)| o.points.iter().map(|(_, p)| p)))
        .collect();
    let nd = nd_outcomes
        .iter()
        .map(|(objectives, outcome)| {
            let reference: Vec<f64> = objectives
                .enabled()
                .map(|axis| {
                    if axis.objective.maximize() {
                        0.0
                    } else {
                        every.iter().map(|p| axis.objective.value(p)).fold(0.0, f64::max) * 1.01
                    }
                })
                .collect();
            let mut space = ParetoArchive::with_objectives(objectives.clone());
            space.extend(base_points.iter().cloned());
            let mut evo_arch = outcome.archive.clone();
            evo_arch.extend(fixed.iter().cloned());
            NdRow {
                dims: objectives.dim(),
                objectives: objectives.labels().iter().map(|l| l.to_string()).collect(),
                front: space.len(),
                hypervolume: space.hypervolume(&reference),
                evo_evals: outcome.stats.evaluated,
                evo_front: evo_arch.len(),
                evo_hv: evo_arch.hypervolume(&reference),
            }
        })
        .collect();
    ExploreRow {
        circuit: entry.label(),
        grid_evals,
        grid_asked: grid.stats.asked,
        grid_hv,
        evo_evals: evo.stats.evaluated,
        evo_asked: evo.stats.asked,
        evo_hv,
        budget_fraction: evo.stats.evaluated as f64 / grid_evals.max(1) as f64,
        hv_ratio: if grid_hv > 0.0 { evo_hv / grid_hv } else { 1.0 },
        nd,
    }
}

/// The default circuit selection: small-to-medium circuits covering
/// both model families, including an MLP whose dense gate-τ knee
/// structure gives the continuous-τ genome room the grid cannot reach.
pub fn default_entries(cfg: &SynthConfig) -> Vec<Entry> {
    vec![
        train_entry(DatasetId::RedWine, ModelKind::SvmC, cfg),
        train_entry(DatasetId::RedWine, ModelKind::SvmR, cfg),
        train_entry(DatasetId::Cardio, ModelKind::SvmR, cfg),
        train_entry(DatasetId::Cardio, ModelKind::SvmC, cfg),
        train_entry(DatasetId::WhiteWine, ModelKind::MlpC, cfg),
    ]
}

/// Runs the full study over the default circuits.
pub fn run(cfg: &SynthConfig, budget_fraction: f64, seed: u64) -> Vec<ExploreRow> {
    default_entries(cfg).iter().map(|e| run_entry(e, budget_fraction, seed)).collect()
}

/// Markdown rendering of the N-dimensional studies.
pub fn render_nd(rows: &[ExploreRow]) -> String {
    let mut out = String::from(
        "| Circuit | Dims | Objectives | Front | HV | N-D evo evals | N-D evo front | N-D evo HV |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        for n in &r.nd {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {:.4} | {} | {} | {:.4} |",
                r.circuit,
                n.dims,
                n.objectives.join("×"),
                n.front,
                n.hypervolume,
                n.evo_evals,
                n.evo_front,
                n.evo_hv,
            );
        }
    }
    out
}

/// Markdown rendering of the comparison.
pub fn render(rows: &[ExploreRow]) -> String {
    let mut out = String::from(
        "| Circuit | Grid evals | Grid HV | Evo evals | Evo HV | Budget | HV ratio | ≥ grid @ ≤25%? |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {:.4} | {} | {:.4} | {:.0}% | {:.3} | {} |",
            r.circuit,
            r.grid_evals,
            r.grid_hv,
            r.evo_evals,
            r.evo_hv,
            r.budget_fraction * 100.0,
            r.hv_ratio,
            if r.passes() { "yes" } else { "no" },
        );
    }
    out
}

/// JSON rendering (the `BENCH_explore.json` payload).
pub fn to_json(rows: &[ExploreRow], cfg: &SynthConfig, seed: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"benchmark\": \"exhaustive grid vs NSGA-II exploration (cargo run -p pax-bench --release --bin paper -- explore)\",\n",
    );
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(
        out,
        "  \"synth_config\": {{ \"seed\": {}, \"size_factor\": {} }},",
        cfg.seed, cfg.size_factor
    );
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let nd: Vec<String> = r
            .nd
            .iter()
            .map(|n| {
                format!(
                    "{{ \"dims\": {}, \"objectives\": \"{}\", \"front\": {}, \"hv\": {:.6}, \"evo_evals\": {}, \"evo_front\": {}, \"evo_hv\": {:.6} }}",
                    n.dims,
                    n.objectives.join("x"),
                    n.front,
                    n.hypervolume,
                    n.evo_evals,
                    n.evo_front,
                    n.evo_hv,
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "    {{ \"circuit\": \"{}\", \"grid_evals\": {}, \"grid_asked\": {}, \"grid_hv\": {:.6}, \"evo_evals\": {}, \"evo_asked\": {}, \"evo_hv\": {:.6}, \"budget_fraction\": {:.4}, \"hv_ratio\": {:.4}, \"passes\": {}, \"nd\": [{}] }}{}",
            r.circuit,
            r.grid_evals,
            r.grid_asked,
            r.grid_hv,
            r.evo_evals,
            r.evo_asked,
            r.evo_hv,
            r.budget_fraction,
            r.hv_ratio,
            r.passes(),
            nd.join(", "),
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    out.push_str("  ],\n");
    let pass = rows.iter().any(ExploreRow::passes);
    out.push_str("  \"acceptance\": {\n");
    out.push_str(
        "    \"bar\": \"NSGA-II hypervolume >= exhaustive grid's on at least one circuit at <= 25% of the grid's distinct evaluations\",\n",
    );
    let _ = writeln!(out, "    \"pass\": {pass}");
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_runs_and_respects_budget() {
        let cfg = SynthConfig::small();
        let entry = train_entry(DatasetId::RedWine, ModelKind::SvmR, &cfg);
        let row = run_entry(&entry, 0.25, 7);
        assert!(row.grid_evals > 0);
        assert!(
            row.budget_fraction <= 0.25 + 1e-12,
            "evolutionary search overspent: {:.3}",
            row.budget_fraction
        );
        assert!(row.grid_hv > 0.0 && row.evo_hv > 0.0);
        // The N-D studies cover 3 and 4 dimensions, budgeted like the
        // 2-D evolutionary pass, and every extra axis can only widen
        // the front.
        assert_eq!(row.nd.iter().map(|n| n.dims).collect::<Vec<_>>(), vec![3, 4]);
        for n in &row.nd {
            assert_eq!(n.objectives.len(), n.dims);
            assert!(n.front > 0 && n.hypervolume > 0.0);
            assert!(n.evo_front > 0 && n.evo_hv > 0.0);
            assert!(n.evo_evals <= row.grid_evals.max(4), "N-D pass stays budgeted");
        }
        assert!(row.nd[1].front >= row.nd[0].front, "4-D front is never smaller than 3-D");
        let md = render(std::slice::from_ref(&row));
        assert!(md.contains("redwine"));
        let nd_md = render_nd(&[row]);
        assert!(nd_md.contains("accuracy×area_mm2×power_mw×delay_ms"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let rows = vec![ExploreRow {
            circuit: "demo svm-c".into(),
            grid_evals: 40,
            grid_asked: 120,
            grid_hv: 1.25,
            evo_evals: 10,
            evo_asked: 64,
            evo_hv: 1.30,
            budget_fraction: 0.25,
            hv_ratio: 1.04,
            nd: vec![NdRow {
                dims: 3,
                objectives: vec!["accuracy".into(), "area_mm2".into(), "power_mw".into()],
                front: 9,
                hypervolume: 2.5,
                evo_evals: 4,
                evo_front: 7,
                evo_hv: 2.4,
            }],
        }];
        let json = to_json(&rows, &SynthConfig::small(), 7);
        assert!(json.contains("\"passes\": true"));
        assert!(json.contains("\"nd\": [{ \"dims\": 3,"));
        assert!(json.contains("\"acceptance\""));
        assert!(json.ends_with("}\n"));
    }
}
