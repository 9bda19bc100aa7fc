//! Table I: the exact bespoke baseline of every model — accuracy (4-bit
//! inputs / 8-bit coefficients), topology, coefficient count, area and
//! power.

use std::fmt::Write as _;

use egt_pdk::TechParams;
use pax_core::framework::{Framework, FrameworkConfig};
use pax_core::Technique;
use pax_ml::quant::ModelKind;
use pax_ml::synth_data::SynthConfig;
use pax_synth::opt;

use crate::catalog::{all_entries, DatasetId, Entry};

/// One Table I cell group.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Dataset.
    pub dataset: DatasetId,
    /// Model family.
    pub kind: ModelKind,
    /// Quantized test accuracy.
    pub accuracy: f64,
    /// Topology / classifier-count column.
    pub t_column: String,
    /// Number of coefficients.
    pub n_coefficients: usize,
    /// Baseline area in cm² (`None` for the excluded Pendigits
    /// regressors).
    pub area_cm2: Option<f64>,
    /// Baseline power in mW.
    pub power_mw: Option<f64>,
    /// Critical path in ms.
    pub critical_ms: Option<f64>,
}

/// The relaxed clock per circuit: 250 ms for the Pendigits MLP-C,
/// 200 ms for everything else (paper §III-A).
pub fn tech_for(dataset: DatasetId, kind: ModelKind) -> TechParams {
    if dataset == DatasetId::Pendigits && kind == ModelKind::MlpC {
        TechParams::egt().with_clock_ms(250.0)
    } else {
        TechParams::egt()
    }
}

/// Builds all 16 rows (training included).
pub fn build(cfg: &SynthConfig) -> Vec<Table1Row> {
    all_entries(cfg).into_iter().map(|e| row_for(&e)).collect()
}

/// Builds the row of one entry (generates and measures the baseline
/// circuit when hardware-feasible).
pub fn row_for(entry: &Entry) -> Table1Row {
    let accuracy = entry.quantized_accuracy();
    let (area_cm2, power_mw, critical_ms) = if entry.hardware_feasible {
        let tech = tech_for(entry.dataset, entry.kind);
        let fw = Framework::new(FrameworkConfig { tech, ..Default::default() });
        let circuit = pax_bespoke::BespokeCircuit::generate(&entry.model);
        let nl = opt::optimize(&circuit.netlist);
        let p = fw
            .try_measure(&nl, &entry.model, &entry.test, Technique::Exact)
            .expect("catalog circuit measures");
        (Some(p.area_cm2()), Some(p.power_mw), Some(p.critical_ms))
    } else {
        (None, None, None)
    };
    Table1Row {
        dataset: entry.dataset,
        kind: entry.kind,
        accuracy,
        t_column: entry.t_column.clone(),
        n_coefficients: entry.model.n_coefficients(),
        area_cm2,
        power_mw,
        critical_ms,
    }
}

/// Renders the rows as a markdown table in the paper's layout
/// (datasets as rows, families as column groups).
pub fn render(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("# Table I — baseline bespoke printed ML circuits\n\n");
    out.push_str("| Dataset | Family | Acc | T | #C | Area (cm²) | Power (mW) | Delay (ms) |\n");
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        let fmt_opt =
            |v: Option<f64>, digits: usize| v.map_or("-".to_string(), |x| format!("{x:.digits$}"));
        let _ = writeln!(
            out,
            "| {} | {} | {:.2} | {} | {} | {} | {} | {} |",
            r.dataset.name(),
            r.kind.tag(),
            r.accuracy,
            r.t_column,
            r.n_coefficients,
            fmt_opt(r.area_cm2, 1),
            fmt_opt(r.power_mw, 1),
            fmt_opt(r.critical_ms, 0),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::train_entry;

    #[test]
    fn row_for_small_model_has_all_fields() {
        let cfg = SynthConfig::small();
        let e = train_entry(DatasetId::RedWine, ModelKind::SvmR, &cfg);
        let r = row_for(&e);
        assert!(r.area_cm2.unwrap() > 0.0);
        assert!(r.power_mw.unwrap() > 3.0); // at least the I/O floor
        assert!(r.accuracy > 0.0);
        assert_eq!(r.n_coefficients, 11);
        let text = render(&[r]);
        assert!(text.contains("redwine"));
        assert!(text.contains("svm-r"));
    }

    #[test]
    fn pendigits_mlp_c_gets_relaxed_clock() {
        assert_eq!(tech_for(DatasetId::Pendigits, ModelKind::MlpC).clock_ms, 250.0);
        assert_eq!(tech_for(DatasetId::Pendigits, ModelKind::SvmC).clock_ms, 200.0);
        assert_eq!(tech_for(DatasetId::Cardio, ModelKind::MlpC).clock_ms, 200.0);
    }
}
