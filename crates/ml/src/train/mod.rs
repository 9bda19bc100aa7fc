//! Training: SGD for MLPs (softmax cross-entropy / MSE), one-vs-rest
//! hinge for linear SVM classification, ε-insensitive regression for
//! SVM-R, and a `RandomizedSearchCV`-style hyper-parameter search.
//!
//! The paper trains with scikit-learn's `RandomizedSearchCV` under
//! 5-fold cross-validation; [`search`] reproduces that protocol. All
//! training is deterministic under a fixed seed.

pub mod mlp;
pub mod search;
pub mod svm;
pub mod svr;

pub(crate) mod linalg;
pub(crate) mod sgd;

/// Bit-level pins of every trainer's output on small fixed data: any
/// numerics drift (summation order, fused updates, a changed seed
/// stream) changes a digest and fails here, long before it reaches a
/// study's golden design points.
#[cfg(test)]
mod pins {
    use super::mlp::{train_mlp_classifier, train_mlp_regressor, MlpParams};
    use super::svm::{train_svm_classifier, MulticlassLoss, SvmParams};
    use super::svr::{train_svr, SvrParams};
    use crate::synth_data::{blobs, ordinal, OrdinalSpec};
    use crate::Dataset;

    /// FNV-1a over the IEEE-754 bit patterns, in order.
    fn digest<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
        values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, v| {
            v.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        })
    }

    /// Seven features and five classes: neither is a multiple of the
    /// kernels' four-lane blocks, so remainder lanes are exercised.
    fn blob_data() -> Dataset {
        let data = blobs("pin", 300, 7, 5, 0.12, 29);
        let (train, test) = data.split(0.8, 3);
        crate::normalize(&train, &test).0
    }

    fn ordinal_data() -> Dataset {
        let data = ordinal(&OrdinalSpec {
            name: "pin",
            n_samples: 400,
            n_features: 9,
            n_informative: 6,
            class_fractions: vec![0.5, 0.3, 0.2],
            noise: 0.2,
            seed: 31,
        });
        let (train, test) = data.split(0.8, 3);
        crate::normalize(&train, &test).0
    }

    #[test]
    fn svm_classifier_bits_are_pinned() {
        // Batch 24 leaves a short final batch on both datasets.
        let p = SvmParams { epochs: 25, batch: 24, ..SvmParams::default() };
        let ovr = SvmParams { loss: MulticlassLoss::OneVsRest, ..p.clone() };
        let got = [
            train_svm_classifier(&blob_data(), &p, 11),
            train_svm_classifier(&ordinal_data(), &p, 11),
            train_svm_classifier(&blob_data(), &ovr, 12),
        ]
        .map(|m| digest(m.w.iter().flatten().chain(&m.b)));
        assert_eq!(
            got,
            [11156740118696129348, 18135850027534557655, 5503844526060316314],
            "svm-c digests"
        );
    }

    #[test]
    fn mlp_classifier_bits_are_pinned() {
        let got = [3, 5].map(|hidden| {
            let p = MlpParams { hidden, epochs: 25, batch: 24, ..MlpParams::default() };
            let m = train_mlp_classifier(&blob_data(), &p, 13);
            digest(m.w1.iter().flatten().chain(&m.b1).chain(m.w2.iter().flatten()).chain(&m.b2))
        });
        assert_eq!(got, [1970277061022601622, 17292729760532683195], "mlp-c digests");
    }

    #[test]
    fn mlp_regressor_bits_are_pinned() {
        let got = [2, 5].map(|hidden| {
            let p = MlpParams { hidden, epochs: 25, batch: 24, lr: 0.01, ..MlpParams::default() };
            let m = train_mlp_regressor(&ordinal_data(), &p, 17);
            digest(m.w1.iter().flatten().chain(&m.b1).chain(m.w2.iter().flatten()).chain(&m.b2))
        });
        assert_eq!(got, [5312608052266630057, 10305509194860440847], "mlp-r digests");
    }

    #[test]
    fn svr_bits_are_pinned() {
        let p = SvrParams { epochs: 25, batch: 24, ..SvrParams::default() };
        let m = train_svr(&ordinal_data(), &p, 19);
        assert_eq!(digest(m.w.iter().chain([&m.b])), 6196523001512343115, "svr digest");
    }
}
