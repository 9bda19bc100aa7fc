//! Shared runner: executes the cross-layer framework on every
//! hardware-feasible catalog entry. Tables II/III and Fig. 3 all consume
//! the same study results.

use pax_core::framework::{CircuitStudy, Framework, FrameworkConfig};
use pax_ml::synth_data::SynthConfig;

use crate::catalog::{hardware_entries, Entry};
use crate::table1::tech_for;

/// A study together with its catalog entry.
#[derive(Debug)]
pub struct StudyRun {
    /// The catalog entry (model + data).
    pub entry: Entry,
    /// The framework's full output.
    pub study: CircuitStudy,
}

/// Runs the framework on one entry with the paper's configuration.
pub fn run_one(entry: Entry) -> StudyRun {
    let cfg = FrameworkConfig { tech: tech_for(entry.dataset, entry.kind), ..Default::default() };
    let fw = Framework::new(cfg);
    let study = fw.try_run_study(&entry.model, &entry.train, &entry.test).expect("catalog study");
    StudyRun { entry, study }
}

/// Runs the framework on all 14 hardware-feasible circuits.
///
/// Each study already parallelizes its pruning evaluation internally, so
/// circuits run sequentially to keep peak memory bounded.
pub fn run_all(cfg: &SynthConfig) -> Vec<StudyRun> {
    hardware_entries(cfg).into_iter().map(run_one).collect()
}

/// Runs the framework on the circuits whose label contains `filter`
/// (e.g. `"redwine"` or `"svm-c"`).
pub fn run_filtered(cfg: &SynthConfig, filter: &str) -> Vec<StudyRun> {
    hardware_entries(cfg).into_iter().filter(|e| e.label().contains(filter)).map(run_one).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{train_entry, DatasetId};
    use pax_ml::quant::ModelKind;

    #[test]
    fn one_study_runs_end_to_end() {
        let cfg = SynthConfig::small();
        let entry = train_entry(DatasetId::RedWine, ModelKind::SvmR, &cfg);
        let run = run_one(entry);
        assert!(!run.study.cross.is_empty());
        assert!(run.study.baseline.area_mm2 > 0.0);
        assert_eq!(run.study.kind, ModelKind::SvmR);
    }

    #[test]
    fn filter_selects_by_label() {
        let cfg = SynthConfig { size_factor: 0.08, ..SynthConfig::small() };
        let runs = run_filtered(&cfg, "redwine svm");
        assert_eq!(runs.len(), 2); // svm-c and svm-r
    }
}
