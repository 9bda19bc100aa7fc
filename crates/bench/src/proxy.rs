//! §III-B area-proxy validation: over random weighted sums, correlate
//! `Σ AREA(BM_wᵢ)` (the optimization proxy) against the area of the
//! actually synthesized weighted-sum circuit. The paper reports a
//! Pearson correlation of 0.91 over 1000 random weighted sums.

use pax_core::mult_cache::MultCache;
use pax_netlist::{Bus, NetlistBuilder};
use pax_synth::{area, bits, opt, wsum};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Result of the proxy-validation experiment.
#[derive(Debug, Clone)]
pub struct ProxyResult {
    /// Pearson correlation coefficient between proxy and actual area.
    pub pearson_r: f64,
    /// `(proxy_mm2, actual_mm2)` per sampled weighted sum.
    pub points: Vec<(f64, f64)>,
}

/// Samples `n` random weighted sums (random coefficient count, values
/// and input widths, mirroring the paper's setup) and correlates proxy
/// vs. synthesized area.
pub fn run(cache: &MultCache, n: usize, seed: u64) -> ProxyResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let specs: Vec<(u32, Vec<i64>)> = (0..n)
        .map(|_| {
            let in_bits = *[4u32, 6, 8, 12].get(rng.random_range(0..4usize)).expect("fixed set");
            let n_coefs = rng.random_range(3..=16usize);
            let weights: Vec<i64> = (0..n_coefs).map(|_| rng.random_range(-128i64..=127)).collect();
            (in_bits, weights)
        })
        .collect();

    let points = pax_core::par::map(&specs, pax_core::par::workers(), 1, |(in_bits, weights)| {
        measure(cache, *in_bits, weights)
    });
    ProxyResult { pearson_r: pearson(&points), points }
}

fn measure(cache: &MultCache, in_bits: u32, weights: &[i64]) -> (f64, f64) {
    let proxy: f64 = weights.iter().map(|&w| cache.area(in_bits, w)).sum();
    let mut b = NetlistBuilder::new("ws");
    let inputs: Vec<Bus> =
        (0..weights.len()).map(|i| b.input_port(format!("x{i}"), in_bits as usize)).collect();
    let xmax = (1i64 << in_bits) - 1;
    let (mut lo, mut hi) = (0i64, 0i64);
    for &w in weights {
        if w > 0 {
            hi += w * xmax;
        } else {
            lo += w * xmax;
        }
    }
    let width = bits::signed_width_for(lo.min(0), hi.max(0)).max(2);
    let sum = wsum::weighted_sum(&mut b, &inputs, weights, 0, width);
    b.output_port("s", sum);
    let nl = opt::optimize(&b.finish());
    let actual = area::area_mm2(&nl, cache.library()).expect("library covers cells");
    (proxy, actual)
}

/// Pearson correlation of paired samples.
pub fn pearson(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    assert!(n >= 2.0, "need at least two samples");
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let vx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let vy: f64 = points.iter().map(|p| (p.1 - my).powi(2)).sum();
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_basics() {
        let perfect: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 * i as f64)).collect();
        assert!((pearson(&perfect) - 1.0).abs() < 1e-12);
        let anti: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, -(i as f64))).collect();
        assert!((pearson(&anti) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn proxy_correlates_strongly() {
        let cache = MultCache::new(egt_pdk::egt_library());
        // 60 sums keep the test quick; the bench runs the full 1000.
        let r = run(&cache, 60, 99);
        assert_eq!(r.points.len(), 60);
        assert!(
            r.pearson_r > 0.8,
            "the area proxy must track synthesized area (paper: 0.91), got {}",
            r.pearson_r
        );
    }
}
