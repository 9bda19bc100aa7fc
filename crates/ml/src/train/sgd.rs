//! Shared SGD plumbing: deterministic epoch shuffles and minibatching.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Yields shuffled minibatch index slices for one epoch.
pub(crate) struct MiniBatches {
    order: Vec<usize>,
    batch: usize,
}

impl MiniBatches {
    pub(crate) fn new(n: usize, batch: usize, rng: &mut StdRng) -> Self {
        assert!(batch > 0, "batch size must be positive");
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        Self { order, batch }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.order.chunks(self.batch)
    }
}

/// Uniform weight initialization in `[-limit, limit]` (Glorot-style when
/// `limit = sqrt(6 / (fan_in + fan_out))`).
pub(crate) fn init_matrix(rows: usize, cols: usize, limit: f64, rng: &mut StdRng) -> Vec<Vec<f64>> {
    use rand::RngExt;
    (0..rows).map(|_| (0..cols).map(|_| rng.random_range(-limit..limit)).collect()).collect()
}

/// Flattens a `rows × cols` matrix into column-major order, so that
/// `t[i * rows + r] == m[r][i]`: one input's weights into every output
/// sit side by side.
pub(crate) fn transpose(m: &[Vec<f64>], cols: usize) -> Vec<f64> {
    (0..cols).flat_map(|i| m.iter().map(move |row| row[i])).collect()
}

/// Inverse of [`transpose`]: rebuilds the `rows × cols` row-major matrix.
pub(crate) fn untranspose(t: &[f64], rows: usize) -> Vec<Vec<f64>> {
    (0..rows).map(|r| t.iter().skip(r).step_by(rows).copied().collect()).collect()
}

/// Affine map over feature-major weights:
/// `out[j] = Σᵢ wt[i·m + j] · x[i] + bias[j]` with `m = out.len()`.
///
/// Bit-identical to the row-major
/// `w[j].iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + bias[j]`:
/// every output lane keeps its own strictly sequential sum over the
/// inputs, seeded at `-0.0` like `Sum<f64>`, and adds the bias last.
/// Lanes are computed four at a time so the independent sums run side by
/// side in registers.
pub(crate) fn affine(wt: &[f64], bias: &[f64], x: &[f64], out: &mut [f64]) {
    let m = out.len();
    debug_assert_eq!(wt.len(), x.len() * m);
    debug_assert_eq!(bias.len(), m);
    let mut j = 0;
    while j + 4 <= m {
        lanes::<4>(wt, bias, x, out, j);
        j += 4;
    }
    match m - j {
        3 => lanes::<3>(wt, bias, x, out, j),
        2 => lanes::<2>(wt, bias, x, out, j),
        1 => lanes::<1>(wt, bias, x, out, j),
        _ => {}
    }
}

/// Output lanes `j..j + L` of [`affine`].
#[inline(always)]
fn lanes<const L: usize>(wt: &[f64], bias: &[f64], x: &[f64], out: &mut [f64], j: usize) {
    let m = out.len();
    let mut acc = [-0.0f64; L];
    let mut at = j;
    for &xv in x {
        let w: &[f64; L] = wt[at..at + L].try_into().expect("lane block");
        for l in 0..L {
            acc[l] += w[l] * xv;
        }
        at += m;
    }
    for l in 0..L {
        out[j + l] = acc[l] + bias[j + l];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn batches_cover_all_indices_once() {
        let mut rng = StdRng::seed_from_u64(3);
        let mb = MiniBatches::new(10, 3, &mut rng);
        let mut seen: Vec<usize> = mb.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        let sizes: Vec<usize> = mb.iter().map(<[usize]>::len).collect();
        assert_eq!(sizes, vec![3, 3, 3, 1]);
    }

    #[test]
    fn init_matrix_respects_limit() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = init_matrix(5, 7, 0.3, &mut rng);
        assert_eq!(m.len(), 5);
        assert!(m.iter().flatten().all(|v| v.abs() <= 0.3));
    }

    #[test]
    fn transpose_round_trips() {
        let m = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let t = transpose(&m, 3);
        assert_eq!(t, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(untranspose(&t, 2), m);
    }

    #[test]
    fn affine_matches_row_major_sums_bitwise() {
        // Every lane count 1..=9 covers full blocks plus each remainder.
        // Lane 0 sums only `-0.0` products into a `-0.0` bias, which
        // stays `-0.0` only under a `-0.0` seed.
        let mut rng = StdRng::seed_from_u64(9);
        for m in 1..=9 {
            for n in [1, 5, 16] {
                let mut w = init_matrix(m, n, 1.0, &mut rng);
                let mut x = init_matrix(1, n, 1.0, &mut rng).remove(0);
                let mut bias = init_matrix(1, m, 1.0, &mut rng).remove(0);
                w[0] = x.iter().map(|&v| if v > 0.0 { -0.0 } else { 0.0 }).collect();
                x[0] = 0.5;
                w[0][0] = -0.0;
                bias[0] = -0.0;
                let want: Vec<u64> = (0..m)
                    .map(|j| {
                        (w[j].iter().zip(&x).map(|(a, b)| a * b).sum::<f64>() + bias[j]).to_bits()
                    })
                    .collect();
                let mut out = vec![0.0; m];
                affine(&transpose(&w, n), &bias, &x, &mut out);
                assert_eq!(
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want,
                    "m={m} n={n}"
                );
            }
        }
    }
}
