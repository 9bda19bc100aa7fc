//! The model catalog: every (dataset, family) pair of the paper's
//! Table I, trained deterministically with fixed seeds.
//!
//! Topologies follow the paper: one hidden layer with the least number
//! of neurons reaching near-maximum accuracy — (21,3,·) for Cardio,
//! (16,5,·) for Pendigits, (11,2,·) for RedWine, (11,4,·) for WhiteWine
//! — 8-bit coefficients, 4-bit inputs, 70%/30% split.

use pax_ml::quant::{ModelKind, QuantSpec, QuantizedModel};
use pax_ml::synth_data::{cardio, pendigits, redwine, whitewine, SynthConfig};
use pax_ml::train::mlp::{train_mlp_classifier, train_mlp_regressor, MlpParams};
use pax_ml::train::svm::{train_svm_classifier, SvmParams};
use pax_ml::train::svr::{train_svr, SvrParams};
use pax_ml::{normalize, Dataset};

/// The four paper datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// Cardiotocography: 21 features, 3 ordinal classes.
    Cardio,
    /// Pendigits: 16 features, 10 unordered classes.
    Pendigits,
    /// Red wine quality: 11 features, 6 ordinal classes.
    RedWine,
    /// White wine quality: 11 features, 7 ordinal classes.
    WhiteWine,
}

impl DatasetId {
    /// All datasets in Table I order.
    pub fn all() -> [DatasetId; 4] {
        [DatasetId::Cardio, DatasetId::Pendigits, DatasetId::RedWine, DatasetId::WhiteWine]
    }

    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Cardio => "cardio",
            DatasetId::Pendigits => "pendigits",
            DatasetId::RedWine => "redwine",
            DatasetId::WhiteWine => "whitewine",
        }
    }

    /// Hidden-layer width the paper selected for this dataset's MLPs.
    pub fn mlp_hidden(self) -> usize {
        match self {
            DatasetId::Cardio => 3,
            DatasetId::Pendigits => 5,
            DatasetId::RedWine => 2,
            DatasetId::WhiteWine => 4,
        }
    }

    /// Generates the synthetic dataset (normalized 70/30 split).
    pub fn load(self, cfg: &SynthConfig) -> (Dataset, Dataset) {
        let data = match self {
            DatasetId::Cardio => cardio(cfg),
            DatasetId::Pendigits => pendigits(cfg),
            DatasetId::RedWine => redwine(cfg),
            DatasetId::WhiteWine => whitewine(cfg),
        };
        let (train, test) = data.split(0.7, 0x5_EED0 + self as u64);
        normalize(&train, &test)
    }
}

/// One catalog entry: a trained + quantized model and its data.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Source dataset.
    pub dataset: DatasetId,
    /// Model family.
    pub kind: ModelKind,
    /// Quantized (8-bit coefficient, 4-bit input) model.
    pub model: QuantizedModel,
    /// Normalized training split.
    pub train: Dataset,
    /// Normalized test split.
    pub test: Dataset,
    /// Paper Table I "T" column: MLP topology, or the number of 1-vs-1
    /// classifiers for SVM-C, or 1 for SVM-R.
    pub t_column: String,
    /// Whether the paper evaluates this model in hardware (the two
    /// Pendigits regressors are accuracy-useless and excluded).
    pub hardware_feasible: bool,
}

impl Entry {
    /// Quantized test accuracy (the paper's Table I accuracy column).
    pub fn quantized_accuracy(&self) -> f64 {
        self.model.accuracy_on(&self.test)
    }

    /// Identifier like `cardio mlp-c`.
    pub fn label(&self) -> String {
        format!("{} {}", self.dataset.name(), self.kind.tag())
    }
}

/// Builds one entry. Hyper-parameters are fixed per (dataset, family)
/// pair — chosen offline with the crate's randomized search, then pinned
/// for reproducibility.
pub fn train_entry(dataset: DatasetId, kind: ModelKind, cfg: &SynthConfig) -> Entry {
    let (train, test) = dataset.load(cfg);
    let seed = 0xA11CE ^ (dataset as u64) << 4 ^ kind as u64;
    let spec = QuantSpec::default();
    let hidden = dataset.mlp_hidden();
    let (model, t_column) = match kind {
        ModelKind::MlpC => {
            let p = MlpParams { hidden, lr: mlp_lr(dataset), epochs: 300, ..MlpParams::default() };
            let m = train_mlp_classifier(&train, &p, seed);
            let topo = m.topology();
            (QuantizedModel::from_mlp(dataset.name(), &m, train.n_classes, spec), topo)
        }
        ModelKind::MlpR => {
            let p = MlpParams { hidden, lr: 0.01, epochs: 400, ..MlpParams::default() };
            let m = train_mlp_regressor(&train, &p, seed);
            let topo = m.topology();
            (QuantizedModel::from_mlp(dataset.name(), &m, train.n_classes, spec), topo)
        }
        ModelKind::SvmC => {
            let p = SvmParams { lr: 0.1, epochs: 800, batch: 64, ..SvmParams::default() };
            let m = train_svm_classifier(&train, &p, seed);
            let t = m.n_pairwise_classifiers().to_string();
            (QuantizedModel::from_linear_classifier(dataset.name(), &m, spec), t)
        }
        ModelKind::SvmR => {
            let p = SvrParams { epochs: 300, ..SvrParams::default() };
            let m = train_svr(&train, &p, seed);
            (QuantizedModel::from_svr(dataset.name(), &m, train.n_classes, spec), "1".into())
        }
    };
    // The paper drops the Pendigits regressors: regressing an unordered
    // digit label yields useless accuracy (0.37 / 0.23 in Table I).
    let hardware_feasible =
        !(dataset == DatasetId::Pendigits && matches!(kind, ModelKind::MlpR | ModelKind::SvmR));
    Entry { dataset, kind, model, train, test, t_column, hardware_feasible }
}

fn mlp_lr(dataset: DatasetId) -> f64 {
    match dataset {
        DatasetId::Pendigits => 0.08,
        _ => 0.05,
    }
}

/// All 16 Table I entries, in the paper's row-major order
/// (dataset-major, family-minor).
pub fn all_entries(cfg: &SynthConfig) -> Vec<Entry> {
    let kinds = [ModelKind::MlpC, ModelKind::MlpR, ModelKind::SvmC, ModelKind::SvmR];
    let pairs: Vec<(DatasetId, ModelKind)> =
        DatasetId::all().into_iter().flat_map(|d| kinds.into_iter().map(move |k| (d, k))).collect();
    // Train in parallel, one worker per entry: entries are completely
    // independent.
    pax_core::par::map(&pairs, pairs.len(), 1, |&(d, k)| train_entry(d, k, cfg))
}

/// The 14 hardware-feasible entries (Table I minus the Pendigits
/// regressors) — the circuits of Fig. 3 and Tables II/III.
pub fn hardware_entries(cfg: &SynthConfig) -> Vec<Entry> {
    all_entries(cfg).into_iter().filter(|e| e.hardware_feasible).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_shapes_match_table1() {
        let cfg = SynthConfig::small();
        let e = train_entry(DatasetId::Cardio, ModelKind::MlpC, &cfg);
        assert_eq!(e.t_column, "(21,3,3)");
        assert_eq!(e.model.n_coefficients(), 72); // Table I #C
        let e = train_entry(DatasetId::RedWine, ModelKind::SvmC, &cfg);
        assert_eq!(e.t_column, "15");
        assert_eq!(e.model.n_coefficients(), 66);
        let e = train_entry(DatasetId::WhiteWine, ModelKind::SvmR, &cfg);
        assert_eq!(e.model.n_coefficients(), 11);
        assert_eq!(e.t_column, "1");
    }

    #[test]
    fn pendigits_regressors_are_excluded_from_hardware() {
        let cfg = SynthConfig::small();
        let e = train_entry(DatasetId::Pendigits, ModelKind::SvmR, &cfg);
        assert!(!e.hardware_feasible);
        let e = train_entry(DatasetId::Pendigits, ModelKind::SvmC, &cfg);
        assert!(e.hardware_feasible);
    }

    #[test]
    fn training_is_deterministic() {
        let cfg = SynthConfig::small();
        let a = train_entry(DatasetId::RedWine, ModelKind::SvmR, &cfg);
        let b = train_entry(DatasetId::RedWine, ModelKind::SvmR, &cfg);
        assert_eq!(a.model, b.model);
    }
}
