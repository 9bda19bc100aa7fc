//! Hardware-driven coefficient approximation (paper §III-B).
//!
//! For each weighted sum of the model, every coefficient `wᵢ` gets a
//! two-element candidate set `Rᵢ = {w̃ᵢ⁻, w̃ᵢ⁺}`:
//!
//! * `w̃ᵢ⁻ ∈ [wᵢ, wᵢ+e]` — the cheapest-area value *above* `wᵢ`
//!   (replacing `wᵢ` with it makes the term error `xᵢ·(wᵢ−w̃ᵢ)` negative,
//!   since inputs are unsigned);
//! * `w̃ᵢ⁺ ∈ [wᵢ−e, wᵢ]` — the cheapest value below (positive error);
//!
//! both clipped at the representable coefficient range. Within a
//! segment, equal-area values tie to the lowest one.
//!
//! A search over `∏ Rᵢ` then picks the configuration minimizing
//! `|Σ (wᵢ − w̃ᵢ)|` — balancing positive against negative errors — with
//! ties broken towards minimal `Σ AREA(BM_w̃ᵢ)`. The multiplier-area sum
//! is the proxy for the weighted-sum area (validated at r ≈ 0.9 by the
//! `proxy` benchmark, as in the paper).
//!
//! The search is exact but not a scan of all `2ⁿ` configurations (over
//! two million for a 21-input cardio sum). The errors are small integers,
//! so suffix-reachability sets give the smallest reachable `|Σ error|`
//! directly. A depth-first walk then enters only prefixes that can still
//! reach it, summing areas left to right along the path, and drops a
//! prefix as soon as its partial area exceeds the best complete one.
//! Its answer is the lexicographic minimum of `(|Σ error|, area summed
//! left to right from 0.0, pick mask)`, the configuration an ascending
//! scan of every mask keeps. Bit `i` of the mask is set when coefficient
//! `i` takes its upper candidate. The test suite checks this scan,
//! kept as the oracle, against the search.

use pax_ml::quant::QuantizedModel;

use crate::mult_cache::MultCache;

/// Configuration of the coefficient approximation.
#[derive(Debug, Clone, PartialEq)]
pub struct CoeffApproxConfig {
    /// Neighbourhood half-width `e`. The paper fixes `e = 4`: area gains
    /// saturate beyond it (Fig. 2).
    pub e: i64,
    /// Weighted sums with more coefficients than this (or than 64) fall
    /// back to a greedy balance (the paper's models stay ≤ 21, far below
    /// this).
    pub exhaustive_limit: usize,
}

impl Default for CoeffApproxConfig {
    fn default() -> Self {
        Self { e: 4, exhaustive_limit: 24 }
    }
}

/// Per-sum outcome of the approximation.
#[derive(Debug, Clone)]
pub struct SumApproxReport {
    /// Layer index (0 = hidden/class sums, 1 = MLP output sums).
    pub layer: usize,
    /// Sum index within its layer.
    pub index: usize,
    /// Residual weight error `Σ (wᵢ − w̃ᵢ)` of the chosen configuration.
    pub residual_error: i64,
    /// Area proxy before, in mm².
    pub proxy_before: f64,
    /// Area proxy after, in mm².
    pub proxy_after: f64,
}

/// Whole-model report.
#[derive(Debug, Clone)]
pub struct CoeffApproxReport {
    /// Per-sum details.
    pub sums: Vec<SumApproxReport>,
}

impl CoeffApproxReport {
    /// Total area proxy before approximation.
    pub fn proxy_before(&self) -> f64 {
        self.sums.iter().map(|s| s.proxy_before).sum()
    }

    /// Total area proxy after approximation.
    pub fn proxy_after(&self) -> f64 {
        self.sums.iter().map(|s| s.proxy_after).sum()
    }

    /// Relative proxy reduction in percent.
    pub fn proxy_reduction_pct(&self) -> f64 {
        let before = self.proxy_before();
        if before <= 0.0 {
            0.0
        } else {
            (before - self.proxy_after()) / before * 100.0
        }
    }
}

/// Applies the approximation, returning the rewritten model and a
/// report. The input model is not modified.
pub fn approximate_model(
    model: &QuantizedModel,
    cache: &MultCache,
    cfg: &CoeffApproxConfig,
) -> (QuantizedModel, CoeffApproxReport) {
    approximate_model_layers(model, cache, cfg, &[cfg.e, cfg.e])
}

/// Per-layer variant of [`approximate_model`]: `layer_e[l]` overrides
/// the neighbourhood half-width for layer `l`'s sums. `e = 0` leaves a
/// layer exact (a width-0 neighbourhood is the identity — the
/// `e_zero_is_identity` test pins this — so those sums are skipped
/// wholesale rather than balanced over single-value candidate sets).
/// Layers beyond the slice stay exact. This is the primitive behind
/// the graded [`CoeffGene`](crate::explore::CoeffGene) axis, where each
/// gene level maps to one `e` per layer.
pub fn approximate_model_layers(
    model: &QuantizedModel,
    cache: &MultCache,
    cfg: &CoeffApproxConfig,
    layer_e: &[i64],
) -> (QuantizedModel, CoeffApproxReport) {
    assert!(layer_e.iter().all(|&e| e >= 0), "negative neighbourhood width");
    let mut out = model.clone();
    let mut sums = Vec::new();
    for (layer, index, in_bits) in model.sum_shapes() {
        let e = layer_e.get(layer).copied().unwrap_or(0);
        let weights = &model.sum(layer, index).weights;
        let area = |w: i64| cache.area(in_bits.max(1), w);
        let proxy_before: f64 = weights.iter().map(|&w| area(w)).sum();
        if e == 0 {
            // Identity layer: unchanged weights, zero residual, proxy
            // before == after.
            sums.push(SumApproxReport {
                layer,
                index,
                residual_error: 0,
                proxy_before,
                proxy_after: proxy_before,
            });
            continue;
        }
        let layer_cfg = CoeffApproxConfig { e, exhaustive_limit: cfg.exhaustive_limit };
        let chosen = balanced_weights(weights, model.spec.coef_range(), &layer_cfg, &area);
        let residual_error: i64 = weights.iter().zip(&chosen).map(|(w, c)| w - c).sum();
        let proxy_after: f64 = chosen.iter().map(|&w| area(w)).sum();
        sums.push(SumApproxReport { layer, index, residual_error, proxy_before, proxy_after });
        out.sum_mut(layer, index).weights = chosen;
    }
    (out, CoeffApproxReport { sums })
}

/// Approximates one weighted sum: builds every coefficient's candidate
/// set `Rᵢ = {down, up}`, then balances the errors over `∏ Rᵢ`. `area`
/// is the multiplier area of one coefficient value.
fn balanced_weights(
    weights: &[i64],
    coef_range: (i64, i64),
    cfg: &CoeffApproxConfig,
    area: &impl Fn(i64) -> f64,
) -> Vec<i64> {
    let candidates = candidate_sets(weights, coef_range, cfg.e, area);
    // Masks are `u64`, so wider sums than that always go greedy.
    if weights.len() <= cfg.exhaustive_limit.min(64) {
        let mask = exact_balance(&options(weights, &candidates, area));
        candidates
            .iter()
            .enumerate()
            .map(|(i, &(down, up))| if mask >> i & 1 == 1 { up } else { down })
            .collect()
    } else {
        greedy_balance(weights, &candidates, area)
    }
}

/// Candidate sets `Rᵢ = (down, up)`: the cheapest value at or below `wᵢ`
/// (positive error) and at or above it (negative error), each within `e`
/// and clipped at the representable range.
fn candidate_sets(
    weights: &[i64],
    (coef_lo, coef_hi): (i64, i64),
    e: i64,
    area: &impl Fn(i64) -> f64,
) -> Vec<(i64, i64)> {
    weights
        .iter()
        .map(|&w| {
            let up = best_in_segment(w, (w + e).min(coef_hi), area);
            let down = best_in_segment((w - e).max(coef_lo), w, area);
            (down, up)
        })
        .collect()
}

/// The cheapest-area value in `[lo, hi]`. The scan runs upwards and only
/// a strictly smaller area replaces the incumbent, so equal-area ties go
/// to the *lowest* value: on the down segment `[w−e, w]` that is the one
/// farthest from `w`, on the up segment `[w, w+e]` the one nearest.
fn best_in_segment(lo: i64, hi: i64, area: &impl Fn(i64) -> f64) -> i64 {
    debug_assert!(lo <= hi);
    let mut best = lo;
    let mut best_area = f64::INFINITY;
    for cand in lo..=hi {
        let a = area(cand);
        if a < best_area {
            best_area = a;
            best = cand;
        }
    }
    best
}

/// Per-position `(error, area)` of both picks: index 0 is `down`, 1 is
/// `up`, with error `wᵢ − w̃ᵢ`.
fn options(
    weights: &[i64],
    candidates: &[(i64, i64)],
    area: &impl Fn(i64) -> f64,
) -> Vec<[(i64, f64); 2]> {
    weights
        .iter()
        .zip(candidates)
        .map(|(&w, &(down, up))| [(w - down, area(down)), (w - up, area(up))])
        .collect()
}

/// Exact balance search over all `2ⁿ` picks. Bit `i` of the returned
/// mask is set when position `i` takes `opts[i][1]`.
///
/// The result is the lexicographic minimum of `(|Σ error|, area, mask)`,
/// where `area` is the picked areas summed left to right from `0.0` —
/// the same configuration a scan of every mask in ascending order would
/// keep. Instead of that scan it:
///
/// 1. finds the smallest reachable `|Σ error|` from suffix-reachability
///    sets (errors are small integers, so each set spans `2·Σ maxᵢ|errᵢ| + 1`
///    values);
/// 2. walks positions `0..n` depth first, entering only prefixes that
///    can still end at `±best`, accumulating area along the path (the
///    scan's own sequential sum) and abandoning a prefix once its partial
///    area exceeds the best complete one. Areas are non-negative and
///    float addition is monotone, so partial sums never decrease.
///
/// A position whose two picks are identical only takes pick 0, which
/// yields the smaller mask for the same error and area.
fn exact_balance(opts: &[[(i64, f64); 2]]) -> u64 {
    debug_assert!(opts.len() <= 64);
    debug_assert!(opts.iter().flatten().all(|&(_, a)| a >= 0.0), "areas must be non-negative");
    let span: i64 = opts.iter().map(|o| o[0].0.abs().max(o[1].0.abs())).sum();
    let width = (2 * span + 1) as usize;
    // reach[i * width + (s + span)]: some picks of positions i.. sum to s.
    let mut reach = vec![false; (opts.len() + 1) * width];
    reach[opts.len() * width + span as usize] = true;
    for (i, o) in opts.iter().enumerate().rev() {
        let (here, next) = reach.split_at_mut((i + 1) * width);
        let here = &mut here[i * width..];
        for (v, _) in next[..width].iter().enumerate().filter(|(_, &r)| r) {
            for &(err, _) in o {
                here[(v as i64 + err) as usize] = true;
            }
        }
    }
    let best_err = reach[..width]
        .iter()
        .enumerate()
        .filter(|(_, &r)| r)
        .map(|(v, _)| (v as i64 - span).abs())
        .min()
        .expect("every sum reaches some error");
    let mut search = Balance { opts, reach: &reach, width, span, target: best_err, best: None };
    search.descend(0, 0, 0.0, 0);
    search.best.expect("a reachable configuration").1
}

/// Depth-first state of [`exact_balance`].
struct Balance<'a> {
    opts: &'a [[(i64, f64); 2]],
    reach: &'a [bool],
    width: usize,
    span: i64,
    /// The minimal reachable `|Σ error|`.
    target: i64,
    /// Best complete `(area, mask)` so far.
    best: Option<(f64, u64)>,
}

impl Balance<'_> {
    /// Whether picks at positions `i..` can bring the error `err` of
    /// positions `..i` to `±target`.
    fn can_finish(&self, i: usize, err: i64) -> bool {
        [self.target, -self.target].into_iter().any(|t| {
            let need = t - err;
            need.abs() <= self.span && self.reach[i * self.width + (need + self.span) as usize]
        })
    }

    fn descend(&mut self, i: usize, err: i64, area: f64, mask: u64) {
        if let Some((best_area, _)) = self.best {
            if area > best_area {
                return;
            }
        }
        let Some(o) = self.opts.get(i) else {
            if self.best.is_none_or(|(a, m)| area < a || (area == a && mask < m)) {
                self.best = Some((area, mask));
            }
            return;
        };
        let same = o[0].0 == o[1].0 && o[0].1.to_bits() == o[1].1.to_bits();
        // The cheaper pick first, so a tight bound is found early.
        let order = if o[1].1 < o[0].1 { [1, 0] } else { [0, 1] };
        for pick in order {
            if same && pick == 1 {
                continue;
            }
            let (e, a) = o[pick];
            if self.can_finish(i + 1, err + e) {
                self.descend(i + 1, err + e, area + a, mask | ((pick as u64) << i));
            }
        }
    }
}

/// Greedy fallback for very wide sums: pick per-coefficient the cheaper
/// candidate, then flip the choices that best re-balance the error.
fn greedy_balance(
    weights: &[i64],
    candidates: &[(i64, i64)],
    area: &impl Fn(i64) -> f64,
) -> Vec<i64> {
    let mut chosen: Vec<i64> = candidates
        .iter()
        .map(|&(down, up)| if area(down) <= area(up) { down } else { up })
        .collect();
    // Flip selections while it reduces |Σ error|.
    loop {
        let err: i64 = weights.iter().zip(&chosen).map(|(w, c)| w - c).sum();
        if err == 0 {
            break;
        }
        let mut best: Option<(usize, i64)> = None;
        for (i, (&(down, up), &cur)) in candidates.iter().zip(&chosen).enumerate() {
            let alt = if cur == down { up } else { down };
            if alt == cur {
                continue;
            }
            // err = Σ(w − c); flipping c from cur to alt changes err by
            // −(alt − cur).
            let candidate_err = err - (alt - cur);
            if candidate_err.abs() < best.map_or(err.abs(), |(_, e)| e) {
                best = Some((i, candidate_err.abs()));
            }
        }
        match best {
            Some((i, _)) => {
                let (down, up) = candidates[i];
                chosen[i] = if chosen[i] == down { up } else { down };
            }
            None => break,
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_ml::model::LinearClassifier;
    use pax_ml::quant::{QuantSpec, QuantizedModel};

    fn cache() -> MultCache {
        MultCache::new(egt_pdk::egt_library())
    }

    fn model_with_weights(rows: Vec<Vec<f64>>) -> QuantizedModel {
        let k = rows.len();
        QuantizedModel::from_linear_classifier(
            "t",
            &LinearClassifier::new(rows, vec![0.0; k]),
            QuantSpec::default(),
        )
    }

    /// The oracle: scans every mask in ascending order and keeps the
    /// first with the smallest `(|Σ error|, area)`, area summed left to
    /// right from `0.0`. The error is carried from one mask to the next
    /// (counting up flips the trailing one bits and one zero bit, two
    /// flips on average); a mask's area is only summed when its error can
    /// still win.
    fn scan_balance(opts: &[[(i64, f64); 2]]) -> u64 {
        let mut err: i64 = opts.iter().map(|o| o[0].0).sum();
        let mut best_mask = 0u64;
        let mut best_err = i64::MAX;
        let mut best_area = f64::INFINITY;
        for mask in 0u64..(1u64 << opts.len()) {
            if mask > 0 {
                let t = mask.trailing_zeros() as usize;
                for o in &opts[..t] {
                    err += o[0].0 - o[1].0;
                }
                err += opts[t][1].0 - opts[t][0].0;
            }
            if err.abs() > best_err {
                continue;
            }
            let mut area = 0.0f64;
            for (i, o) in opts.iter().enumerate() {
                area += o[(mask >> i & 1) as usize].1;
            }
            if err.abs() < best_err || area < best_area {
                best_err = err.abs();
                best_area = area;
                best_mask = mask;
            }
        }
        best_mask
    }

    /// Both searches over one sum's candidate sets.
    fn both_balances(
        weights: &[i64],
        range: (i64, i64),
        e: i64,
        area: &impl Fn(i64) -> f64,
    ) -> (u64, u64) {
        let opts = options(weights, &candidate_sets(weights, range, e, area), area);
        (exact_balance(&opts), scan_balance(&opts))
    }

    /// Area levels for synthetic tables: few distinct values, so equal
    /// areas are common, and none dyadic, so sums of them round
    /// differently in different orders.
    const LEVELS: [f64; 5] = [0.1, 0.2, 0.3, 0.7, 1.1];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The pruned search returns the scan's mask on random sums whose
        /// area tables force ties: duplicate areas everywhere and zero
        /// area at 0 and every power of two (so many candidate sets hold
        /// two zero-area picks, or the same pick twice).
        #[test]
        fn exact_balance_equals_the_scan(
            weights in proptest::collection::vec(-128i64..=127, 1..=16),
            e in 1i64..=6,
            table in proptest::collection::vec(0usize..LEVELS.len(), 256),
        ) {
            let area = |w: i64| {
                if w == 0 || w.unsigned_abs().is_power_of_two() {
                    0.0
                } else {
                    LEVELS[table[(w + 128) as usize]]
                }
            };
            let (exact, scan) = both_balances(&weights, (-128, 127), e, &area);
            proptest::prop_assert_eq!(exact, scan, "weights {:?} e {}", weights, e);
        }
    }

    #[test]
    fn exact_balance_equals_the_scan_on_catalog_models() {
        let c = cache();
        let entries = pax_bench::catalog::all_entries(&pax_ml::synth_data::SynthConfig::small());
        let mut checked = 0;
        for entry in &entries {
            for widths in [[1, 1], [2, 4], [4, 4], [0, 4]] {
                for (layer, index, in_bits) in entry.model.sum_shapes() {
                    let e = widths[layer];
                    if e == 0 {
                        continue;
                    }
                    let weights = &entry.model.sum(layer, index).weights;
                    let area = |w: i64| c.area(in_bits.max(1), w);
                    let range = entry.model.spec.coef_range();
                    let (exact, scan) = both_balances(weights, range, e, &area);
                    assert_eq!(exact, scan, "{} {widths:?} sum ({layer}, {index})", entry.label());
                    checked += 1;
                }
            }
        }
        assert_eq!(entries.len(), 16);
        assert_eq!(checked, 294);
    }

    #[test]
    fn segment_ties_go_to_the_lowest_value() {
        // 3 and 5 tie below w = 6; 7 and 9 tie above it.
        let area = |v: i64| if [3, 5, 7, 9].contains(&v) { 1.0 } else { 2.0 };
        assert_eq!(best_in_segment(2, 6, &area), 3, "down segment: farthest from w");
        assert_eq!(best_in_segment(6, 10, &area), 7, "up segment: nearest to w");
        // A strictly cheaper value still wins wherever it sits.
        let area = |v: i64| if v == 6 { 0.5 } else { area(v) };
        assert_eq!(best_in_segment(2, 6, &area), 6);
    }

    #[test]
    fn exact_balance_breaks_exact_ties_on_the_smaller_mask() {
        // Both positions can cancel the other's error at equal area, so
        // masks 0b01 and 0b10 tie on (|Σ error|, area); 0b01 is kept.
        let opts = [[(1, 0.5), (-1, 0.5)], [(1, 0.5), (-1, 0.5)]];
        assert_eq!(exact_balance(&opts), 0b01);
        assert_eq!(scan_balance(&opts), 0b01);
        // Identical picks collapse to pick 0.
        let opts = [[(0, 0.25), (0, 0.25)], [(2, 0.0), (-2, 0.0)]];
        assert_eq!(exact_balance(&opts), scan_balance(&opts));
        assert_eq!(exact_balance(&opts), 0b00);
    }

    #[test]
    fn approximation_reduces_area_proxy() {
        // Dense coefficients near powers of two: big wins available.
        let m =
            model_with_weights(vec![vec![0.49, -0.26, 0.99, 0.13], vec![-0.52, 0.27, -0.95, 0.24]]);
        let c = cache();
        let (approx, report) = approximate_model(&m, &c, &CoeffApproxConfig::default());
        assert!(report.proxy_after() < report.proxy_before());
        assert!(report.proxy_reduction_pct() > 0.0);
        // Weights moved by at most e.
        for (before, after) in m.layer1.iter().zip(&approx.layer1) {
            for (&w, &wa) in before.weights.iter().zip(&after.weights) {
                assert!((w - wa).abs() <= 4, "{w} -> {wa}");
            }
        }
    }

    #[test]
    fn errors_are_balanced() {
        let m = model_with_weights(vec![vec![0.37, -0.81, 0.22, 0.66, -0.14]]);
        let c = cache();
        let (_, report) = approximate_model(&m, &c, &CoeffApproxConfig::default());
        // Exhaustive balancing keeps the residual error tiny relative to
        // the worst case (5 coefficients × e=4 = 20).
        assert!(
            report.sums[0].residual_error.abs() <= 4,
            "residual {}",
            report.sums[0].residual_error
        );
    }

    #[test]
    fn e_zero_is_identity() {
        let m = model_with_weights(vec![vec![0.5, -0.3, 0.8]]);
        let c = cache();
        let cfg = CoeffApproxConfig { e: 0, ..Default::default() };
        let (approx, report) = approximate_model(&m, &c, &cfg);
        assert_eq!(approx.layer1, m.layer1);
        assert_eq!(report.proxy_before(), report.proxy_after());
    }

    #[test]
    fn per_layer_widths_match_uniform_and_identity() {
        let m =
            model_with_weights(vec![vec![0.49, -0.26, 0.99, 0.13], vec![-0.52, 0.27, -0.95, 0.24]]);
        let c = cache();
        let cfg = CoeffApproxConfig::default();
        // Uniform per-layer widths reproduce the whole-model path
        // exactly (the legacy entry point now delegates here).
        let (uniform, _) = approximate_model(&m, &c, &cfg);
        let (layered, rep) = approximate_model_layers(&m, &c, &cfg, &[cfg.e, cfg.e]);
        assert_eq!(uniform.layer1, layered.layer1);
        assert!(rep.proxy_after() < rep.proxy_before());
        // A zero width leaves the layer exact, with an identity report.
        let (exact, rep0) = approximate_model_layers(&m, &c, &cfg, &[0]);
        assert_eq!(exact.layer1, m.layer1);
        assert_eq!(rep0.proxy_before(), rep0.proxy_after());
        assert!(rep0.sums.iter().all(|s| s.residual_error == 0));
    }

    #[test]
    fn clipping_at_range_borders() {
        // Weight quantized to exactly +127: the up-segment must clip at
        // 127 and never propose 128.
        let m = model_with_weights(vec![vec![1.0, -1.0, 0.01]]);
        let c = cache();
        let (approx, _) = approximate_model(&m, &c, &CoeffApproxConfig::default());
        for sum in &approx.layer1 {
            for &w in &sum.weights {
                assert!((-128..=127).contains(&w), "{w} out of range");
            }
        }
    }

    #[test]
    fn greedy_matches_exhaustive_direction_on_wide_sums() {
        let m = model_with_weights(vec![(0..30)
            .map(|i| ((i * 17 + 3) % 200) as f64 / 100.0 - 1.0)
            .collect()]);
        let c = cache();
        let cfg = CoeffApproxConfig { e: 4, exhaustive_limit: 8 }; // force greedy
        let (_, report) = approximate_model(&m, &c, &cfg);
        assert!(report.proxy_after() <= report.proxy_before());
        assert!(report.sums[0].residual_error.abs() <= 8);
    }

    #[test]
    fn approximation_never_increases_the_proxy() {
        // Both candidates of every coefficient are minimum-area values of
        // segments that contain the original coefficient, so whatever the
        // balance search picks, the proxy cannot grow. (Note the *chosen*
        // configuration is not monotone in e — balancing may prefer a
        // pricier candidate — only this upper bound is guaranteed.)
        let m = model_with_weights(vec![vec![0.43, -0.61, 0.29, 0.87, -0.33, 0.11]]);
        let c = cache();
        for e in [1, 2, 4, 6, 10] {
            let (_, r) = approximate_model(&m, &c, &CoeffApproxConfig { e, ..Default::default() });
            assert!(r.proxy_after() <= r.proxy_before() + 1e-9, "e={e}");
        }
    }

    #[test]
    fn candidate_floor_improves_with_e() {
        // The per-coefficient best reachable area is monotone in e even
        // though the balanced choice is not.
        let c = cache();
        for w in [-93i64, -37, 29, 77, 121] {
            let floor = |e: i64| {
                ((w - e).max(-128)..=(w + e).min(127))
                    .map(|cand| c.area(4, cand))
                    .fold(f64::INFINITY, f64::min)
            };
            assert!(floor(6) <= floor(2) + 1e-12, "w={w}");
            assert!(floor(2) <= floor(1) + 1e-12, "w={w}");
        }
    }
}
