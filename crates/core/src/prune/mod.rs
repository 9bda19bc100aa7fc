//! Netlist pruning through full (τc, φc) search (paper §III-C).
//!
//! A gate is prunable when its output sits at one constant value most of
//! the time (**τ**, measured by simulating the *training* set) and when
//! it can only structurally influence low-significance bits of the class
//! score buses (**φ**). Replacing such gates with their dominant
//! constant and re-synthesizing (constant propagation + dead-cone sweep)
//! removes whole fanin cones at a bounded error: the error *rate* is
//! bounded by `1 − τc` and the score-level error *magnitude* by
//! `2^(φc+1)`.
//!
//! Classifier subtlety (paper §III-C): the final argmax "congests" all
//! paths into a few output bits and destroys the error/significance
//! correlation, so φ is computed against the **pre-argmax score buses**;
//! gates inside the argmax itself reach no observation point and get
//! `φ = −1` — prunable at any `φc`, their damage rate-bounded by τ.
//!
//! The search is exhaustive over `τc ∈ {80%, 81%, …, 99%}` and, per τc,
//! over the distinct φ values `Φτ` of the τ-qualified gates — exactly
//! the paper's acceleration of the full search ("Φτ enables us to
//! explore only the relevant φc values"). Identical pruned-gate sets
//! arising from different `(τc, φc)` pairs are evaluated once.

mod analysis;
mod overlay;
mod search;

pub use analysis::{analyze, analyze_compiled, PruneAnalysis};
pub(crate) use overlay::phase;
pub use overlay::{DeltaFoldStats, EvalScratch, OverlayContext, EVAL_PHASES};
pub(crate) use search::gate_set_hash;
pub use search::{
    apply_set, enumerate_grid, try_evaluate_set_rebuild, GridCombo, PruneEval, PruneGrid,
};

/// Configuration of the pruning exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneConfig {
    /// Lowest τc explored (paper: 0.80).
    pub tau_lo: f64,
    /// Highest τc explored (paper: 0.99).
    pub tau_hi: f64,
    /// Number of τc steps across `[tau_lo, tau_hi]` (paper: 1% steps →
    /// 20 values).
    pub tau_steps: usize,
}

impl Default for PruneConfig {
    fn default() -> Self {
        Self { tau_lo: 0.80, tau_hi: 0.99, tau_steps: 20 }
    }
}

impl PruneConfig {
    /// The τc values explored, ascending.
    pub fn tau_values(&self) -> Vec<f64> {
        assert!(self.tau_steps >= 1, "need at least one τc");
        assert!(
            (0.5..=1.0).contains(&self.tau_lo) && self.tau_lo <= self.tau_hi,
            "invalid τc range"
        );
        if self.tau_steps == 1 {
            return vec![self.tau_lo];
        }
        (0..self.tau_steps)
            .map(|i| {
                self.tau_lo + (self.tau_hi - self.tau_lo) * i as f64 / (self.tau_steps - 1) as f64
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_values_span_the_paper_range() {
        let v = PruneConfig::default().tau_values();
        assert_eq!(v.len(), 20);
        assert!((v[0] - 0.80).abs() < 1e-12);
        assert!((v[19] - 0.99).abs() < 1e-12);
        // ~1% steps.
        assert!((v[1] - v[0] - 0.01).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid τc range")]
    fn bad_range_rejected() {
        let _ = PruneConfig { tau_lo: 0.3, tau_hi: 0.99, tau_steps: 5 }.tau_values();
    }
}
