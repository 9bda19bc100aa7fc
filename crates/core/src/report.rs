//! Report emission: CSV series for the figures, markdown rows for the
//! tables. The `pax-bench` binaries assemble these into the full paper
//! artifacts.

use std::fmt::Write as _;

use crate::framework::CircuitStudy;
use crate::{pareto, DesignPoint, Technique};

/// CSV of every design of a study, normalized to the baseline area —
/// one Fig. 3 subplot. Columns:
/// `technique,tau_c,phi_c,coeff,accuracy,area_mm2,norm_area,power_mw`
/// (`coeff` is the winning coefficient gene, empty for exact-base
/// points).
pub fn fig3_csv(study: &CircuitStudy) -> String {
    let base = study.baseline.area_mm2;
    let mut out =
        String::from("technique,tau_c,phi_c,coeff,accuracy,area_mm2,norm_area,power_mw\n");
    for p in study.all_points() {
        let _ = writeln!(out, "{}", point_csv_row(p, base));
    }
    out
}

/// CSV of the Pareto front of a study (same columns as [`fig3_csv`]).
pub fn pareto_csv(study: &CircuitStudy) -> String {
    let base = study.baseline.area_mm2;
    let mut out =
        String::from("technique,tau_c,phi_c,coeff,accuracy,area_mm2,norm_area,power_mw\n");
    for p in study.pareto_front() {
        let _ = writeln!(out, "{}", point_csv_row(&p, base));
    }
    out
}

/// One data row of the Fig. 3 CSVs (no trailing newline).
fn point_csv_row(p: &DesignPoint, base: f64) -> String {
    format!(
        "{},{},{},{},{:.6},{:.3},{:.4},{:.3}",
        p.technique.label(),
        p.tau_c.map_or(String::new(), |t| format!("{t:.2}")),
        p.phi_c.map_or(String::new(), |f| f.to_string()),
        p.coeff.map_or(String::new(), |g| g.to_string()),
        p.accuracy,
        p.area_mm2,
        p.norm_area(base),
        p.power_mw,
    )
}

/// One Table II row: per technique the <`max_loss` area optimum with
/// area/power gains versus the baseline, plus the battery verdicts.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Circuit identifier (e.g. `"cardio mlp-c"`).
    pub circuit: String,
    /// Selected design per technique: (cross, coeff-only, prune-only).
    pub cross: TechniqueCell,
    /// Coefficient-approximation-only cell.
    pub coeff: TechniqueCell,
    /// Pruning-only cell.
    pub prune: TechniqueCell,
}

/// One technique's entry in Table II.
#[derive(Debug, Clone)]
pub struct TechniqueCell {
    /// Area in cm².
    pub area_cm2: f64,
    /// Power in mW.
    pub power_mw: f64,
    /// Area gain vs. baseline, percent.
    pub area_gain_pct: f64,
    /// Power gain vs. baseline, percent.
    pub power_gain_pct: f64,
    /// Whether one printed Molex 30 mW battery suffices.
    pub battery_ok: bool,
}

/// Builds the Table II row of a study.
pub fn table2_row(study: &CircuitStudy, max_loss: f64, battery_mw: f64) -> Table2Row {
    let cell = |p: &DesignPoint| TechniqueCell {
        area_cm2: p.area_cm2(),
        power_mw: p.power_mw,
        area_gain_pct: gain_pct(study.baseline.area_mm2, p.area_mm2),
        power_gain_pct: gain_pct(study.baseline.power_mw, p.power_mw),
        battery_ok: p.power_mw <= battery_mw,
    };
    Table2Row {
        circuit: format!("{} {}", study.name, study.kind.tag()),
        cross: cell(&study.best_within_loss(Technique::Cross, max_loss)),
        coeff: cell(&study.best_within_loss(Technique::CoeffApprox, max_loss)),
        prune: cell(&study.best_within_loss(Technique::PruneOnly, max_loss)),
    }
}

fn gain_pct(base: f64, value: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        (base - value) / base * 100.0
    }
}

/// Markdown rendering of a set of Table II rows, paper layout.
pub fn table2_markdown(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "| ML Circuit | Cross A (cm²) | P (mW) | AG % | PG % | Coeff A | P | AG | PG | Prune A | P | AG | PG |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        let c = |cell: &TechniqueCell| {
            let star = if cell.battery_ok { "*" } else { "" };
            format!(
                "{:.1}{star} | {:.1} | {:.0} | {:.0}",
                cell.area_cm2, cell.power_mw, cell.area_gain_pct, cell.power_gain_pct
            )
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} |",
            r.circuit,
            c(&r.cross),
            c(&r.coeff),
            c(&r.prune)
        );
    }
    out.push_str("\n`*` = powered by one Molex 30 mW printed battery\n");
    out
}

/// Summary statistics across studies: the paper's headline numbers
/// ("47% and 44% average area and power reduction").
#[derive(Debug, Clone, Default)]
pub struct GainSummary {
    /// Mean area gain (%), cross-layer technique.
    pub cross_area: f64,
    /// Mean power gain (%), cross-layer technique.
    pub cross_power: f64,
    /// Mean area gain (%), coefficient approximation only.
    pub coeff_area: f64,
    /// Mean power gain (%), coefficient approximation only.
    pub coeff_power: f64,
    /// Mean area gain (%), pruning only.
    pub prune_area: f64,
    /// Mean power gain (%), pruning only.
    pub prune_power: f64,
}

/// Averages the Table II gains over a set of rows.
pub fn summarize_gains(rows: &[Table2Row]) -> GainSummary {
    if rows.is_empty() {
        return GainSummary::default();
    }
    let n = rows.len() as f64;
    let mut s = GainSummary::default();
    for r in rows {
        s.cross_area += r.cross.area_gain_pct;
        s.cross_power += r.cross.power_gain_pct;
        s.coeff_area += r.coeff.area_gain_pct;
        s.coeff_power += r.coeff.power_gain_pct;
        s.prune_area += r.prune.area_gain_pct;
        s.prune_power += r.prune.power_gain_pct;
    }
    s.cross_area /= n;
    s.cross_power /= n;
    s.coeff_area /= n;
    s.coeff_power /= n;
    s.prune_area /= n;
    s.prune_power /= n;
    s
}

/// Indices of a study's Pareto front among `all_points()` — convenience
/// for tests and plots.
pub fn front_indices(study: &CircuitStudy) -> Vec<usize> {
    let pts: Vec<DesignPoint> = study.all_points().into_iter().cloned().collect();
    pareto::pareto_front(&pts)
}

/// Markdown table of a study's per-exploration search statistics: which
/// strategy drove each pruning series, the objective axes it optimized,
/// how many designs it asked for, how many distinct prunings were
/// synthesized, and how many evaluations the content-hash cache
/// absorbed. [`axis_summary`] breaks the resulting fronts down per
/// objective axis.
pub fn search_summary(study: &CircuitStudy) -> String {
    let mut out = String::from(
        "| Series | Strategy | Objectives | Asked | Evaluated | Cache hits | Rounds |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|\n");
    for (i, s) in study.stats.search.iter().enumerate() {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} |",
            series_label(i),
            s.strategy,
            s.objectives.join("×"),
            s.asked,
            s.evaluated,
            s.cache_hits,
            s.generations,
        );
    }
    out
}

/// Markdown table of the per-axis front extremes of every exploration
/// series: for each enabled objective axis, the best and worst value on
/// the series' final Pareto front (best respects the axis direction —
/// highest accuracy, lowest area/power/delay).
pub fn axis_summary(study: &CircuitStudy) -> String {
    let mut out = String::from("| Series | Axis | Front best | Front worst |\n");
    out.push_str("|---|---|---|---|\n");
    for (i, s) in study.stats.search.iter().enumerate() {
        for axis in &s.axes {
            let _ = writeln!(
                out,
                "| {} | {} | {:.4} | {:.4} |",
                series_label(i),
                axis.axis,
                axis.best,
                axis.worst,
            );
        }
    }
    out
}

/// Markdown table of the per-series evaluation telemetry: the final
/// front size and hypervolume (against the run's fixed reference
/// point), then one row per evaluation phase with its call count, total
/// wall time and share of the phase-accounted time. Complements
/// [`search_summary`] (what was searched) with *where the time went*.
/// Series that ran overlay evaluation get one trailing line each with
/// their cone-fold count and mean re-folded nodes per fold.
pub fn telemetry_summary(study: &CircuitStudy) -> String {
    let mut out =
        String::from("| Series | Front | Hypervolume | Phase | Calls | Wall ms | Share |\n");
    out.push_str("|---|---|---|---|---|---|---|\n");
    let mut fold_lines = String::new();
    for (i, s) in study.stats.search.iter().enumerate() {
        let d = &s.telemetry.delta;
        if let Some(mean) = d.mean_delta() {
            let _ = writeln!(
                fold_lines,
                "Cone folds ({}): {} (mean {:.1} re-folded nodes)",
                series_label(i),
                d.delta_folds,
                mean,
            );
        }
        let total_ns = s.telemetry.phases.total_ns();
        let hv = s.hypervolume.map_or_else(|| "—".to_owned(), |h| format!("{h:.4}"));
        let mut first = true;
        for p in &s.telemetry.phases.phases {
            if p.calls == 0 {
                continue;
            }
            let (series, front, hv_cell) = if first {
                (series_label(i), format!("{}", s.front_size), hv.clone())
            } else {
                ("", String::new(), String::new())
            };
            first = false;
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {:.1} | {:.0}% |",
                series,
                front,
                hv_cell,
                p.name,
                p.calls,
                p.ns as f64 / 1e6,
                if total_ns == 0 { 0.0 } else { p.ns as f64 / total_ns as f64 * 100.0 },
            );
        }
        if first {
            // No phase ran (e.g. nothing was measured): still show the
            // series so the table enumerates every search.
            let _ = writeln!(
                out,
                "| {} | {} | {} | — | 0 | 0.0 | 0% |",
                series_label(i),
                s.front_size,
                hv,
            );
        }
    }
    if !fold_lines.is_empty() {
        out.push('\n');
        out.push_str(&fold_lines);
    }
    out
}

/// Name of the i-th exploration series of a study (baseline pruning
/// first, then the cross-layer pruning).
fn series_label(i: usize) -> &'static str {
    ["prune-baseline", "prune-cross"].get(i).copied().unwrap_or("extra")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{CircuitStudy, ExecStats};
    use crate::{DesignPoint, Technique};
    use pax_ml::quant::ModelKind;

    fn point(t: Technique, acc: f64, area: f64, power: f64) -> DesignPoint {
        DesignPoint {
            technique: t,
            tau_c: if t == Technique::Cross { Some(0.9) } else { None },
            phi_c: if t == Technique::Cross { Some(3) } else { None },
            coeff: None,
            accuracy: acc,
            area_mm2: area,
            power_mw: power,
            gate_count: 100,
            critical_ms: 50.0,
        }
    }

    fn fake_study() -> CircuitStudy {
        CircuitStudy {
            name: "demo".into(),
            kind: ModelKind::SvmC,
            baseline: point(Technique::Exact, 0.90, 1000.0, 40.0),
            coeff: point(Technique::CoeffApprox, 0.895, 700.0, 29.0),
            prune_only: vec![point(Technique::PruneOnly, 0.893, 800.0, 33.0)],
            cross: vec![
                point(Technique::Cross, 0.893, 500.0, 22.0),
                point(Technique::Cross, 0.85, 300.0, 15.0),
            ],
            coeff_report: crate::coeff_approx::CoeffApproxReport { sums: vec![] },
            stats: ExecStats::default(),
        }
    }

    #[test]
    fn fig3_csv_lists_every_point_with_norm_area() {
        let s = fake_study();
        let csv = fig3_csv(&s);
        assert_eq!(csv.lines().count(), 1 + 5);
        assert!(csv.contains("exact,,,,0.900000,1000.000,1.0000,40.000"));
        assert!(csv.contains("cross-layer,0.90,3"));
        assert!(csv.contains(",0.5000,")); // 500/1000 normalized
    }

    #[test]
    fn table2_row_computes_gains_and_battery() {
        let s = fake_study();
        let row = table2_row(&s, 0.01, 30.0);
        assert!((row.cross.area_gain_pct - 50.0).abs() < 1e-9);
        assert!((row.cross.power_gain_pct - 45.0).abs() < 1e-9);
        assert!(row.cross.battery_ok);
        assert!(row.coeff.battery_ok != (29.0 > 30.0) || row.coeff.battery_ok);
        assert!((row.prune.area_gain_pct - 20.0).abs() < 1e-9);
        let md = table2_markdown(&[row]);
        assert!(md.contains("demo svm-c"));
        assert!(md.contains("Molex"));
    }

    #[test]
    fn gains_average_across_rows() {
        let s = fake_study();
        let rows = vec![table2_row(&s, 0.01, 30.0), table2_row(&s, 0.01, 30.0)];
        let g = summarize_gains(&rows);
        assert!((g.cross_area - 50.0).abs() < 1e-9);
        assert!((g.coeff_area - 30.0).abs() < 1e-9);
    }

    #[test]
    fn search_summary_lists_each_series() {
        let mut s = fake_study();
        s.stats.search = vec![
            crate::explore::SearchStats {
                strategy: "exhaustive-grid".into(),
                asked: 40,
                evaluated: 12,
                cache_hits: 28,
                generations: 1,
                objectives: vec!["accuracy".into(), "area_mm2".into()],
                axes: vec![
                    crate::explore::AxisStats { axis: "accuracy".into(), best: 0.9, worst: 0.85 },
                    crate::explore::AxisStats {
                        axis: "area_mm2".into(),
                        best: 300.0,
                        worst: 500.0,
                    },
                ],
                ..Default::default()
            },
            crate::explore::SearchStats {
                strategy: "nsga2".into(),
                asked: 48,
                evaluated: 9,
                cache_hits: 39,
                generations: 2,
                objectives: vec!["accuracy".into(), "area_mm2".into(), "power_mw".into()],
                axes: vec![],
                ..Default::default()
            },
        ];
        let md = search_summary(&s);
        assert!(md.contains(
            "| prune-baseline | exhaustive-grid | accuracy×area_mm2 | 40 | 12 | 28 | 1 |"
        ));
        assert!(
            md.contains("| prune-cross | nsga2 | accuracy×area_mm2×power_mw | 48 | 9 | 39 | 2 |")
        );
        let axes = axis_summary(&s);
        assert!(axes.contains("| prune-baseline | accuracy | 0.9000 | 0.8500 |"));
        assert!(axes.contains("| prune-baseline | area_mm2 | 300.0000 | 500.0000 |"));
        assert!(!axes.contains("| prune-cross |"), "empty axis stats emit no rows");
    }

    #[test]
    fn telemetry_summary_lists_phases_and_front() {
        let mut s = fake_study();
        s.stats.search = vec![
            crate::explore::SearchStats {
                strategy: "nsga2".into(),
                front_size: 7,
                hypervolume: Some(0.8123),
                hv_ref: vec![0.0, 1000.0],
                telemetry: crate::explore::SearchTelemetry {
                    phases: pax_obs::PhasesSnapshot {
                        phases: vec![
                            pax_obs::PhaseStat { name: "resolve", calls: 3, ns: 1_000_000 },
                            pax_obs::PhaseStat { name: "fold", calls: 0, ns: 0 },
                            pax_obs::PhaseStat { name: "masked-sim", calls: 40, ns: 3_000_000 },
                        ],
                    },
                    wall_ms: 12.0,
                    delta: crate::prune::DeltaFoldStats {
                        delta_folds: 40,
                        full_folds: 0,
                        delta_nets: 128,
                    },
                },
                ..Default::default()
            },
            crate::explore::SearchStats::default(),
        ];
        let md = telemetry_summary(&s);
        assert!(md.contains("| prune-baseline | 7 | 0.8123 | resolve | 3 | 1.0 | 25% |"), "{md}");
        assert!(md.contains("|  |  |  | masked-sim | 40 | 3.0 | 75% |"), "{md}");
        assert!(!md.contains("| fold |"), "zero-call phases emit no rows: {md}");
        assert!(md.contains("| prune-cross | 0 | — | — | 0 | 0.0 | 0% |"), "{md}");
        assert!(md.contains("Cone folds (prune-baseline): 40 (mean 3.2 re-folded nodes)"), "{md}");
        assert!(!md.contains("Cone folds (prune-cross)"), "fold-free series emit no line: {md}");
    }

    #[test]
    fn pareto_csv_subsets_fig3() {
        let s = fake_study();
        let front = pareto_csv(&s);
        let all = fig3_csv(&s);
        for line in front.lines().skip(1) {
            assert!(all.contains(line), "front line missing from full set: {line}");
        }
    }
}
