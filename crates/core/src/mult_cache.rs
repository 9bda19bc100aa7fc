//! Bespoke-multiplier area cache — the paper's "step 1".
//!
//! For every candidate coefficient value the flow needs
//! `AREA(BM_w̃)`: the printed area of the bespoke multiplier computing
//! `x · w̃` for the relevant input width. The paper synthesizes each
//! candidate with Design Compiler (≤ 6 s on 12 licensed threads); here
//! each candidate is generated, optimized and measured in-process, and
//! memoized behind a read-write lock so parallel sweeps share the cache.

use std::collections::HashMap;

use egt_pdk::Library;
use parking_lot::RwLock;
use pax_netlist::NetlistBuilder;
use pax_synth::{area, bits, constmul, opt};

/// Thread-safe memoized `AREA(BM_w)` lookup.
#[derive(Debug)]
pub struct MultCache {
    lib: Library,
    map: RwLock<HashMap<(u32, i64), f64>>,
}

impl MultCache {
    /// Creates an empty cache over the given library.
    pub fn new(lib: Library) -> Self {
        Self { lib, map: RwLock::new(HashMap::new()) }
    }

    /// The library this cache measures against.
    pub fn library(&self) -> &Library {
        &self.lib
    }

    /// Area (mm²) of the bespoke multiplier for an unsigned `in_bits`
    /// input and constant `w`. Synthesizes and memoizes on first use.
    ///
    /// # Panics
    ///
    /// Panics if `in_bits` is 0 (no such operand exists).
    pub fn area(&self, in_bits: u32, w: i64) -> f64 {
        assert!(in_bits > 0, "zero-width multiplier operand");
        if let Some(&a) = self.map.read().get(&(in_bits, w)) {
            return a;
        }
        let a = synthesize_area(&self.lib, in_bits, w);
        self.map.write().insert((in_bits, w), a);
        a
    }

    /// Pre-computes the whole signed coefficient range for one input
    /// width in parallel. `coef_bits` of 8 fills `w ∈ [−128, 127]`.
    pub fn build_range(&self, in_bits: u32, coef_bits: u32) {
        let (lo, hi) = ((-(1i64 << (coef_bits - 1))), (1i64 << (coef_bits - 1)) - 1);
        let missing: Vec<i64> = {
            let map = self.map.read();
            (lo..=hi).filter(|&w| !map.contains_key(&(in_bits, w))).collect()
        };
        if missing.is_empty() {
            return;
        }
        let threads = crate::par::workers();
        let areas = crate::par::map(&missing, threads, missing.len().div_ceil(threads), |&w| {
            synthesize_area(&self.lib, in_bits, w)
        });
        let mut map = self.map.write();
        for (w, a) in missing.into_iter().zip(areas) {
            map.insert((in_bits, w), a);
        }
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Fig. 2's statistic: for every `w` in the signed `coef_bits`
    /// range, the relative area reduction (%) achieved by moving to the
    /// cheapest `w̃ ∈ [w−e, w+e]` (clipped at the range borders).
    /// Coefficients whose multiplier is already free reduce by 0%.
    pub fn reduction_stats(&self, in_bits: u32, coef_bits: u32, e: i64) -> Vec<f64> {
        self.build_range(in_bits, coef_bits);
        let (lo, hi) = ((-(1i64 << (coef_bits - 1))), (1i64 << (coef_bits - 1)) - 1);
        (lo..=hi)
            .map(|w| {
                let base = self.area(in_bits, w);
                if base <= 0.0 {
                    return 0.0;
                }
                let best = (w - e).max(lo)..=(w + e).min(hi);
                let min = best.map(|cand| self.area(in_bits, cand)).fold(f64::INFINITY, f64::min);
                (base - min) / base * 100.0
            })
            .collect()
    }
}

/// Generates, optimizes and measures one bespoke multiplier.
fn synthesize_area(lib: &Library, in_bits: u32, w: i64) -> f64 {
    let mut b = NetlistBuilder::new(format!("bm_{w}"));
    let x = b.input_port("x", in_bits as usize);
    let width = bits::product_width(in_bits as usize, w);
    let p = constmul::bespoke_mul(&mut b, &x, w, width);
    b.output_port("p", p);
    let nl = opt::optimize(&b.finish());
    area::area_mm2(&nl, lib).expect("EGT library covers the generated cells")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> MultCache {
        MultCache::new(egt_pdk::egt_library())
    }

    #[test]
    fn powers_of_two_are_free() {
        let c = cache();
        for w in [0i64, 1, 2, 4, 8, 16, 32, 64] {
            assert_eq!(c.area(4, w), 0.0, "w={w}");
        }
    }

    #[test]
    fn negative_and_dense_coefficients_cost_area() {
        let c = cache();
        assert!(c.area(4, -1) > 0.0);
        assert!(c.area(4, 0b101_0101) > c.area(4, 0b11)); // denser CSD
    }

    #[test]
    fn area_grows_with_input_width() {
        let c = cache();
        for w in [-77i64, 23, 99] {
            assert!(c.area(8, w) > c.area(4, w), "w={w}");
        }
    }

    #[test]
    fn build_range_fills_and_memoizes() {
        let c = cache();
        c.build_range(4, 6);
        assert_eq!(c.len(), 64);
        let before = c.area(4, -32);
        c.build_range(4, 6); // no-op
        assert_eq!(c.len(), 64);
        assert_eq!(c.area(4, -32), before);
    }

    #[test]
    fn reduction_stats_shape_matches_paper_fig2() {
        let c = cache();
        let r1 = c.reduction_stats(4, 6, 1);
        let r4 = c.reduction_stats(4, 6, 4);
        assert_eq!(r1.len(), 64);
        // Larger e can only help.
        for (a, b) in r1.iter().zip(&r4) {
            assert!(b >= a, "e=4 must dominate e=1");
        }
        // Reductions are percentages.
        assert!(r4.iter().all(|&v| (0.0..=100.0).contains(&v)));
        // Some coefficient reaches a free neighbour -> 100%.
        assert!(r4.contains(&100.0));
        // Free coefficients stay at 0%.
        assert!(r1.contains(&0.0));
        // Median reduction grows with e (the paper reports 19% -> 53%
        // from e=1 to e=4 across multiplier shapes).
        let median = |v: &[f64]| {
            let mut s = v.to_vec();
            s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            s[s.len() / 2]
        };
        assert!(median(&r4) > median(&r1));
    }

    #[test]
    #[should_panic(expected = "zero-width")]
    fn zero_width_rejected() {
        let _ = cache().area(0, 3);
    }
}
