//! Ablation studies for three design choices of the paper's flow
//! (`PAPER.md`):
//!
//! 1. **CSD vs. plain binary recoding** of bespoke multipliers — how
//!    much of Fig. 1's area advantage comes from the signed-digit form;
//! 2. **re-synthesis after pruning** — how much of the pruning gain is
//!    constant propagation + dead-cone sweeping rather than the pruned
//!    gates themselves;
//! 3. **exhaustive error balancing vs. greedy** in the coefficient
//!    approximation.

use egt_pdk::Library;
use pax_core::coeff_approx::{approximate_model, CoeffApproxConfig};
use pax_core::mult_cache::MultCache;
use pax_core::prune::{analyze, apply_set, enumerate_grid, PruneConfig};
use pax_ml::quant::{ModelKind, QuantizedModel};
use pax_ml::synth_data::SynthConfig;
use pax_netlist::NetlistBuilder;
use pax_synth::{area, bits, constmul, opt};

use crate::catalog::{train_entry, DatasetId};

/// Runs the three ablations and renders one line each; `cfg` sizes
/// the datasets the second and third train on.
pub fn run(cfg: &SynthConfig) -> String {
    let (csd, binary) = recoding_areas(&egt_pdk::egt_library());
    format!(
        "# Ablation 1 — CSD recoding: total 4×8 multiplier area {csd:.0} mm² (CSD) vs \
         {binary:.0} mm² (binary): CSD saves {:.1}%\n{}\n{}\n",
        (binary - csd) / binary * 100.0,
        resynthesis(cfg),
        balance(cfg)
    )
}

/// Total optimized area of every 4 × 8 bespoke multiplier
/// (`w ∈ [−128, 127]`) as `(CSD, binary)` recoding, in mm².
fn recoding_areas(lib: &Library) -> (f64, f64) {
    let measure = |binary: bool| -> f64 {
        (-128i64..=127)
            .map(|w| {
                let mut b = NetlistBuilder::new("bm");
                let x = b.input_port("x", 4);
                let width = bits::product_width(4, w);
                let p = if binary {
                    constmul::bespoke_mul_binary(&mut b, &x, w, width)
                } else {
                    constmul::bespoke_mul(&mut b, &x, w, width)
                };
                b.output_port("p", p);
                area::area_mm2(&opt::optimize(&b.finish()), lib).expect("library covers cells")
            })
            .sum()
    };
    (measure(false), measure(true))
}

/// Prunes the largest set of the redwine svm-c grid and compares the
/// pruned gates' own area with the area re-synthesis removes.
fn resynthesis(cfg: &SynthConfig) -> String {
    let entry = train_entry(DatasetId::RedWine, ModelKind::SvmC, cfg);
    let circuit = pax_bespoke::BespokeCircuit::generate(&entry.model);
    let netlist = opt::optimize(&circuit.netlist);
    let lib = egt_pdk::egt_library();
    let analysis = analyze(&netlist, &entry.model, &entry.train);
    let grid = enumerate_grid(&analysis, &PruneConfig::default());
    let set = grid.sets.iter().max_by_key(|s| s.len()).expect("non-empty grid");

    let base_area = area::area_mm2(&netlist, &lib).expect("library covers cells");
    // Without re-synthesis the gain is only the pruned gates themselves.
    let direct_gain: f64 = set
        .iter()
        .map(|&g| {
            let gate = netlist.gate(g).expect("candidates are gates");
            lib.cell(gate.kind.mnemonic()).map_or(0.0, |cell| cell.area_mm2)
        })
        .sum();
    let pruned = apply_set(&netlist, &analysis, set);
    let resynth_area = area::area_mm2(&pruned, &lib).expect("library covers cells");
    format!(
        "# Ablation 2 — re-synthesis after pruning ({} gates pruned): direct gate removal \
         would save {:.1}% of area; constant propagation + sweep deliver {:.1}%",
        set.len(),
        direct_gain / base_area * 100.0,
        (base_area - resynth_area) / base_area * 100.0
    )
}

/// Approximates the cardio svm-c coefficients with the exhaustive and
/// with the greedy (`exhaustive_limit: 0`) balance search.
fn balance(cfg: &SynthConfig) -> String {
    let entry = train_entry(DatasetId::Cardio, ModelKind::SvmC, cfg);
    let cache = MultCache::new(egt_pdk::egt_library());
    let exhaustive = CoeffApproxConfig::default();
    let greedy = CoeffApproxConfig { exhaustive_limit: 0, ..Default::default() };

    let (m_ex, r_ex) = approximate_model(&entry.model, &cache, &exhaustive);
    let (m_gr, r_gr) = approximate_model(&entry.model, &cache, &greedy);
    let acc = |m: &QuantizedModel| m.accuracy_on(&entry.test);
    format!(
        "# Ablation 3 — balance search: exhaustive proxy -{:.1}% (accuracy {:.3}), greedy \
         proxy -{:.1}% (accuracy {:.3})",
        r_ex.proxy_reduction_pct(),
        acc(&m_ex),
        r_gr.proxy_reduction_pct(),
        acc(&m_gr)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csd_recoding_saves_multiplier_area() {
        let (csd, binary) = recoding_areas(&egt_pdk::egt_library());
        assert!(csd > 0.0);
        assert!(csd < binary, "CSD {csd} mm² vs binary {binary} mm²");
    }
}
