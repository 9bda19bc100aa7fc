//! MLP training by minibatch SGD with momentum.
//!
//! Classification uses softmax cross-entropy over the linear outputs
//! (prediction stays argmax, which is what the hardware implements);
//! regression uses mean squared error against the raw class index, as
//! the paper's MLP-R does.

use rand::rngs::StdRng;
use rand::SeedableRng;

use super::sgd::{affine, init_matrix, transpose, untranspose, MiniBatches};
use crate::model::{Mlp, MlpTask};
use crate::Dataset;

/// Hyper-parameters for MLP training.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpParams {
    /// Hidden-layer width (the paper uses ≤ 5).
    pub hidden: usize,
    /// Learning rate.
    pub lr: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// L2 weight decay.
    pub l2: f64,
    /// Momentum coefficient.
    pub momentum: f64,
}

impl Default for MlpParams {
    fn default() -> Self {
        Self { hidden: 3, lr: 0.05, epochs: 200, batch: 32, l2: 1e-4, momentum: 0.9 }
    }
}

/// Trains an MLP classifier (`hidden` ReLU units, one linear output per
/// class).
///
/// # Panics
///
/// Panics on an empty dataset or zero hidden width.
pub fn train_mlp_classifier(data: &Dataset, params: &MlpParams, seed: u64) -> Mlp {
    train(data, params, seed, MlpTask::Classification)
}

/// Trains an MLP regressor predicting the class index (one output).
pub fn train_mlp_regressor(data: &Dataset, params: &MlpParams, seed: u64) -> Mlp {
    train(data, params, seed, MlpTask::Regression)
}

fn train(data: &Dataset, params: &MlpParams, seed: u64, task: MlpTask) -> Mlp {
    assert!(!data.is_empty(), "empty training set");
    assert!(params.hidden > 0, "zero hidden width");
    let n_in = data.n_features();
    let n_out = match task {
        MlpTask::Classification => data.n_classes,
        MlpTask::Regression => 1,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let lim1 = (6.0 / (n_in + params.hidden) as f64).sqrt();
    let lim2 = (6.0 / (params.hidden + n_out) as f64).sqrt();
    let hidden = params.hidden;
    // Both layers' weights, velocities and gradients are flat and
    // input-major (`w1[i * hidden + hh]`, `w2[hh * n_out + o]`), so each
    // layer's outputs come from one blocked pass over its inputs.
    let mut w1 = transpose(&init_matrix(hidden, n_in, lim1, &mut rng), n_in);
    // Inputs are non-negative ([0, 1]-normalized), so a slightly positive
    // bias keeps every ReLU unit alive at the start of training; with a
    // zero init and few hidden units, whole layers can start dead.
    let mut b1 = vec![0.1; hidden];
    let mut w2 = transpose(&init_matrix(n_out, hidden, lim2, &mut rng), hidden);
    let mut b2 = vec![0.0; n_out];

    let mut vw1 = vec![0.0; n_in * hidden];
    let mut vb1 = vec![0.0; hidden];
    let mut vw2 = vec![0.0; hidden * n_out];
    let mut vb2 = vec![0.0; n_out];

    let mut gw1 = vec![0.0; n_in * hidden];
    let mut gb1 = vec![0.0; hidden];
    let mut gw2 = vec![0.0; hidden * n_out];
    let mut gb2 = vec![0.0; n_out];
    let mut z1 = vec![0.0; hidden];
    let mut h = vec![0.0; hidden];
    let mut out = vec![0.0; n_out];
    let mut exps = vec![0.0; n_out];
    let mut delta_out = vec![0.0; n_out];

    for epoch in 0..params.epochs {
        // 1/t learning-rate decay keeps late epochs from oscillating.
        let lr = params.lr / (1.0 + 0.01 * epoch as f64);
        let batches = MiniBatches::new(data.len(), params.batch, &mut rng);
        for batch in batches.iter() {
            let scale = 1.0 / batch.len() as f64;
            gw1.fill(0.0);
            gb1.fill(0.0);
            gw2.fill(0.0);
            gb2.fill(0.0);

            for &row in batch {
                let x = &data.features[row];
                // Forward.
                affine(&w1, &b1, x, &mut z1);
                for (hv, &z) in h.iter_mut().zip(&z1) {
                    *hv = z.max(0.0);
                }
                affine(&w2, &b2, &h, &mut out);

                // Output-layer error signal.
                match task {
                    MlpTask::Classification => {
                        // Softmax cross-entropy: δ = p − onehot(y).
                        let max = out.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                        for (e, v) in exps.iter_mut().zip(&out) {
                            *e = (v - max).exp();
                        }
                        let sum: f64 = exps.iter().sum();
                        let y = data.labels[row] as usize;
                        for (o, (d, &e)) in delta_out.iter_mut().zip(&exps).enumerate() {
                            *d = e / sum - f64::from(u8::from(o == y));
                        }
                    }
                    MlpTask::Regression => delta_out[0] = out[0] - data.labels[row],
                }

                // Backprop into hidden layer.
                for (g, &hv) in gw2.chunks_exact_mut(n_out).zip(&h) {
                    for (gv, &d) in g.iter_mut().zip(&delta_out) {
                        *gv += d * hv;
                    }
                }
                for (gb, &d) in gb2.iter_mut().zip(&delta_out) {
                    *gb += d;
                }
                for (hh, w2_h) in w2.chunks_exact(n_out).enumerate() {
                    if z1[hh] <= 0.0 {
                        continue; // ReLU gate closed
                    }
                    let delta_h: f64 = delta_out.iter().zip(w2_h).map(|(d, w)| d * w).sum();
                    for (g, &xv) in gw1.chunks_exact_mut(hidden).zip(x) {
                        g[hh] += delta_h * xv;
                    }
                    gb1[hh] += delta_h;
                }
            }

            // Momentum + L2 update.
            momentum_step(&mut w1, &mut vw1, &gw1, params, lr, scale);
            momentum_step(&mut w2, &mut vw2, &gw2, params, lr, scale);
            for ((b, v), &g) in b1.iter_mut().zip(&mut vb1).zip(&gb1) {
                *v = params.momentum * *v - lr * g * scale;
                *b += *v;
            }
            for ((b, v), &g) in b2.iter_mut().zip(&mut vb2).zip(&gb2) {
                *v = params.momentum * *v - lr * g * scale;
                *b += *v;
            }
        }
    }
    Mlp::new(untranspose(&w1, hidden), b1, untranspose(&w2, n_out), b2, task)
}

/// Momentum SGD with L2 weight decay, elementwise over one layer.
fn momentum_step(w: &mut [f64], v: &mut [f64], g: &[f64], params: &MlpParams, lr: f64, scale: f64) {
    for ((wv, vv), &gv) in w.iter_mut().zip(v.iter_mut()).zip(g) {
        *vv = params.momentum * *vv - lr * (gv * scale + params.l2 * *wv);
        *wv += *vv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, rounded_accuracy};
    use crate::synth_data::{blobs, ordinal, OrdinalSpec};

    #[test]
    fn learns_separable_blobs() {
        let data = blobs("b", 600, 4, 3, 0.08, 3);
        let (train, test) = data.split(0.7, 1);
        let (train, test) = crate::normalize(&train, &test);
        let m = train_mlp_classifier(
            &train,
            &MlpParams { hidden: 4, epochs: 120, ..MlpParams::default() },
            7,
        );
        let acc = accuracy(&m.predict_batch(&test.features, 3), &test.labels);
        assert!(acc > 0.92, "separable blobs should be easy: {acc}");
    }

    #[test]
    fn regressor_learns_ordinal_structure() {
        let data = ordinal(&OrdinalSpec {
            name: "o",
            n_samples: 1200,
            n_features: 6,
            n_informative: 4,
            class_fractions: vec![0.4, 0.35, 0.25],
            noise: 0.05,
            seed: 5,
        });
        let (train, test) = data.split(0.7, 1);
        let (train, test) = crate::normalize(&train, &test);
        let m = train_mlp_regressor(
            &train,
            &MlpParams { hidden: 3, epochs: 300, lr: 0.01, ..MlpParams::default() },
            9,
        );
        let acc = rounded_accuracy(&m.predict_values(&test.features), &test.labels, 3);
        assert!(acc > 0.75, "ordinal regression should work: {acc}");
    }

    #[test]
    fn training_is_deterministic() {
        let data = blobs("b", 200, 3, 2, 0.1, 3);
        let p = MlpParams { epochs: 10, ..MlpParams::default() };
        let a = train_mlp_classifier(&data, &p, 42);
        let b = train_mlp_classifier(&data, &p, 42);
        assert_eq!(a, b);
        let c = train_mlp_classifier(&data, &p, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn topology_follows_params() {
        let data = blobs("b", 100, 5, 4, 0.2, 3);
        let m = train_mlp_classifier(
            &data,
            &MlpParams { hidden: 2, epochs: 2, ..MlpParams::default() },
            1,
        );
        assert_eq!(m.topology(), "(5,2,4)");
    }
}
