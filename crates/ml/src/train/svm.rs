//! Linear SVM classifier training.
//!
//! The resulting model is a per-class weight matrix whose argmax (equal
//! to the 1-vs-1 voting winner, see
//! [`LinearClassifier`]) drives the
//! bespoke hardware. Two losses are provided: **Crammer–Singer**
//! multiclass hinge (default — it optimizes the argmax decision directly
//! and stays calibrated on imbalanced data) and classic one-vs-rest
//! hinge.

use rand::rngs::StdRng;
use rand::SeedableRng;

use super::sgd::{affine, init_matrix, transpose, untranspose, MiniBatches};
use crate::model::LinearClassifier;
use crate::Dataset;

/// Multiclass loss selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MulticlassLoss {
    /// Crammer–Singer: hinge on the margin between the true class score
    /// and the best violating class score.
    #[default]
    CrammerSinger,
    /// Independent one-vs-rest binary hinges.
    OneVsRest,
}

/// Hyper-parameters for linear SVM training.
#[derive(Debug, Clone, PartialEq)]
pub struct SvmParams {
    /// Learning rate.
    pub lr: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// L2 regularization strength.
    pub l2: f64,
    /// Loss formulation.
    pub loss: MulticlassLoss,
}

impl Default for SvmParams {
    fn default() -> Self {
        Self { lr: 0.05, epochs: 150, batch: 32, l2: 1e-4, loss: MulticlassLoss::default() }
    }
}

/// Trains a multiclass linear SVM.
///
/// # Panics
///
/// Panics on an empty dataset or a single-class dataset.
pub fn train_svm_classifier(data: &Dataset, params: &SvmParams, seed: u64) -> LinearClassifier {
    assert!(!data.is_empty(), "empty training set");
    assert!(data.n_classes >= 2, "need at least two classes");
    // Two initializations are raced and the better training-set fit
    // wins:
    // * a cold random start — best for unordered classes (Pendigits);
    // * a warm start from the ridge regression of the class index —
    //   the scores `s_c = 2c·ŷ − c²` realize exactly
    //   `argmax_c −(ŷ−c)²`, i.e. round-to-class, which is already a
    //   strong classifier on ordinal datasets (wine quality, cardio)
    //   that plain hinge SGD fails to reach through the label noise.
    let cold = train_from_init(data, params, seed, false);
    let warm = train_from_init(data, params, seed, true);
    let train_acc = |m: &LinearClassifier| {
        crate::metrics::accuracy(&m.predict_batch(&data.features), &data.labels)
    };
    if train_acc(&warm) >= train_acc(&cold) {
        warm
    } else {
        cold
    }
}

fn train_from_init(data: &Dataset, params: &SvmParams, seed: u64, warm: bool) -> LinearClassifier {
    let n = data.n_features();
    let k = data.n_classes;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = init_matrix(k, n, 0.01, &mut rng);
    let mut b = vec![0.0; k];
    if warm {
        let (wr, br) = super::linalg::ridge(&data.features, &data.labels, 1e-6 * data.len() as f64);
        for (c, (w_row, b_c)) in w.iter_mut().zip(&mut b).enumerate() {
            let c = c as f64;
            for (wi, &ri) in w_row.iter_mut().zip(&wr) {
                *wi += 2.0 * c * ri;
            }
            *b_c = 2.0 * c * br - c * c;
        }
    }

    // Feature-major weights and gradients (`[i * k + c]`), so one row's
    // k class scores come from a single blocked pass over its features.
    let mut w = transpose(&w, n);
    let mut gw = vec![0.0; n * k];
    let mut gb = vec![0.0; k];
    let mut scores = vec![0.0; k];
    for epoch in 0..params.epochs {
        let lr = params.lr / (1.0 + 0.02 * epoch as f64);
        let batches = MiniBatches::new(data.len(), params.batch, &mut rng);
        for batch in batches.iter() {
            let scale = lr / batch.len() as f64;
            gw.fill(0.0);
            gb.fill(0.0);
            for &row in batch {
                let x = &data.features[row];
                let y = data.labels[row] as usize;
                affine(&w, &b, x, &mut scores);
                match params.loss {
                    MulticlassLoss::CrammerSinger => {
                        // Most violating competitor.
                        let mut worst = usize::MAX;
                        let mut worst_margin = f64::NEG_INFINITY;
                        for c in 0..k {
                            if c == y {
                                continue;
                            }
                            let m = 1.0 + scores[c] - scores[y];
                            if m > worst_margin {
                                worst_margin = m;
                                worst = c;
                            }
                        }
                        if worst_margin > 0.0 {
                            for (g, &xv) in gw.chunks_exact_mut(k).zip(x) {
                                g[y] -= xv;
                                g[worst] += xv;
                            }
                            gb[y] -= 1.0;
                            gb[worst] += 1.0;
                        }
                    }
                    MulticlassLoss::OneVsRest => {
                        for c in 0..k {
                            let target = if c == y { 1.0 } else { -1.0 };
                            if target * scores[c] < 1.0 {
                                for (g, &xv) in gw.chunks_exact_mut(k).zip(x) {
                                    g[c] -= target * xv;
                                }
                                gb[c] -= target;
                            }
                        }
                    }
                }
            }
            for (wv, &g) in w.iter_mut().zip(&gw) {
                *wv -= scale * g + lr * params.l2 * *wv;
            }
            for (b_c, &g) in b.iter_mut().zip(&gb) {
                *b_c -= scale * g;
            }
        }
    }
    LinearClassifier::new(untranspose(&w, k), b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::synth_data::blobs;

    #[test]
    fn separates_blobs() {
        let data = blobs("b", 800, 6, 4, 0.07, 13);
        let (train, test) = data.split(0.7, 2);
        let (train, test) = crate::normalize(&train, &test);
        let m = train_svm_classifier(&train, &SvmParams::default(), 3);
        let acc = accuracy(&m.predict_batch(&test.features), &test.labels);
        assert!(acc > 0.95, "blobs are linearly separable: {acc}");
    }

    #[test]
    fn deterministic_under_seed() {
        let data = blobs("b", 200, 3, 3, 0.1, 13);
        let p = SvmParams { epochs: 10, ..SvmParams::default() };
        assert_eq!(train_svm_classifier(&data, &p, 5), train_svm_classifier(&data, &p, 5));
    }

    #[test]
    fn shapes_follow_dataset() {
        let data = blobs("b", 100, 7, 5, 0.2, 13);
        let m = train_svm_classifier(&data, &SvmParams { epochs: 2, ..SvmParams::default() }, 5);
        assert_eq!(m.n_classes(), 5);
        assert_eq!(m.n_features(), 7);
        assert_eq!(m.n_pairwise_classifiers(), 10);
    }

    #[test]
    #[should_panic(expected = "two classes")]
    fn single_class_rejected() {
        let data = Dataset::new("one", vec![vec![0.0]], vec![0.0], 1);
        let _ = train_svm_classifier(&data, &SvmParams::default(), 1);
    }
}
