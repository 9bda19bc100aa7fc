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

use criterion::{criterion_group, criterion_main, Criterion};
use pax_bench::catalog::{train_entry, DatasetId};
use pax_core::coeff_approx::{approximate_model, CoeffApproxConfig};
use pax_core::mult_cache::MultCache;
use pax_core::prune::{analyze, enumerate_grid, PruneConfig};
use pax_ml::quant::ModelKind;
use pax_ml::synth_data::SynthConfig;
use pax_netlist::NetlistBuilder;
use pax_synth::{area, bits, constmul, opt};

fn csd_vs_binary(c: &mut Criterion) {
    let lib = egt_pdk::egt_library();
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
                area::area_mm2(&opt::optimize(&b.finish()), &lib).unwrap()
            })
            .sum()
    };
    let csd = measure(false);
    let binary = measure(true);
    println!(
        "# Ablation 1 — CSD recoding: total 4×8 multiplier area {:.0} mm² (CSD) vs {:.0} mm² \
         (binary): CSD saves {:.1}%",
        csd,
        binary,
        (binary - csd) / binary * 100.0
    );

    c.bench_function("ablation/csd_multiplier_sweep", |b| {
        b.iter(|| std::hint::black_box(measure(false)))
    });
}

fn resynthesis_gain(c: &mut Criterion) {
    let quick = SynthConfig { size_factor: 0.15, ..SynthConfig::default() };
    let entry = train_entry(DatasetId::RedWine, ModelKind::SvmC, &quick);
    let circuit = pax_bespoke::BespokeCircuit::generate(&entry.model);
    let netlist = opt::optimize(&circuit.netlist);
    let lib = egt_pdk::egt_library();
    let analysis = analyze(&netlist, &entry.model, &entry.train);
    let grid = enumerate_grid(&analysis, &PruneConfig::default());
    let set = grid.sets.iter().max_by_key(|s| s.len()).expect("non-empty grid");

    let base_area = area::area_mm2(&netlist, &lib).unwrap();
    // Without re-synthesis the gain is only the pruned gates themselves.
    let direct_gain: f64 = set
        .iter()
        .map(|&g| {
            let gate = netlist.gate(g).expect("candidates are gates");
            lib.cell(gate.kind.mnemonic()).map_or(0.0, |cell| cell.area_mm2)
        })
        .sum();
    let pruned = pax_core::prune::apply_set(&netlist, &analysis, set);
    let resynth_area = area::area_mm2(&pruned, &lib).unwrap();
    println!(
        "# Ablation 2 — re-synthesis after pruning ({} gates pruned): direct gate removal \
         would save {:.1}% of area; constant propagation + sweep deliver {:.1}%",
        set.len(),
        direct_gain / base_area * 100.0,
        (base_area - resynth_area) / base_area * 100.0
    );

    c.bench_function("ablation/prune_apply_and_resynth", |b| {
        b.iter(|| std::hint::black_box(pax_core::prune::apply_set(&netlist, &analysis, set)))
    });
}

fn balance_objectives(c: &mut Criterion) {
    let quick = SynthConfig { size_factor: 0.15, ..SynthConfig::default() };
    let entry = train_entry(DatasetId::Cardio, ModelKind::SvmC, &quick);
    let cache = MultCache::new(egt_pdk::egt_library());
    let exhaustive = CoeffApproxConfig::default();
    let greedy = CoeffApproxConfig { exhaustive_limit: 0, ..Default::default() };

    let (m_ex, r_ex) = approximate_model(&entry.model, &cache, &exhaustive);
    let (m_gr, r_gr) = approximate_model(&entry.model, &cache, &greedy);
    let acc = |m: &pax_ml::quant::QuantizedModel| m.accuracy_on(&entry.test);
    println!(
        "# Ablation 3 — balance search: exhaustive proxy -{:.1}% (accuracy {:.3}), greedy \
         proxy -{:.1}% (accuracy {:.3})",
        r_ex.proxy_reduction_pct(),
        acc(&m_ex),
        r_gr.proxy_reduction_pct(),
        acc(&m_gr)
    );

    c.bench_function("ablation/coeff_approx_exhaustive", |b| {
        b.iter(|| std::hint::black_box(approximate_model(&entry.model, &cache, &exhaustive)))
    });
    c.bench_function("ablation/coeff_approx_greedy", |b| {
        b.iter(|| std::hint::black_box(approximate_model(&entry.model, &cache, &greedy)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = csd_vs_binary, resynthesis_gain, balance_objectives
}
criterion_main!(benches);
