//! Property tests over the exploration engine's building blocks: the
//! incremental Pareto archive must always equal the batch front (in
//! every supported dimensionality), the N-D hypervolume must be
//! monotone under non-dominated insertion and invariant to insertion
//! order, and the grid strategy must enumerate exactly the legacy grid.
//!
//! Coordinates are small integers on purpose: duplicates and exact
//! metric ties occur constantly, and every hypervolume term is a
//! product/sum of small integers — exact in `f64` — so monotonicity and
//! order-invariance can be asserted bitwise.

use pax_core::explore::{
    Candidate, CoeffGene, ContextSpace, ExhaustiveGrid, Nsga2, Nsga2Config, Objective,
    ObjectiveSet, ParetoArchive, SearchSpace, SearchStrategy,
};
use pax_core::{pareto, DesignPoint, Technique};
use proptest::prelude::*;

fn point(acc: f64, area: f64) -> DesignPoint {
    point4((acc, area, 0.0, 0.0))
}

fn point4((acc, area, power, delay): (f64, f64, f64, f64)) -> DesignPoint {
    DesignPoint {
        technique: Technique::Cross,
        tau_c: None,
        phi_c: None,
        coeff: None,
        accuracy: acc,
        area_mm2: area,
        power_mw: power,
        gate_count: 0,
        critical_ms: delay,
    }
}

/// The first `dim` canonical axes: accuracy ↑, area ↓, power ↓, delay ↓.
fn objective_set(dim: usize) -> ObjectiveSet {
    ObjectiveSet::new(&Objective::ALL[..dim])
}

/// Integer-valued points from raw tuples (minimized axes offset by 1 so
/// they are strictly positive).
fn cloud(raw: &[(u32, u32, u32, u32)]) -> Vec<DesignPoint> {
    raw.iter()
        .map(|&(a, r, w, d)| {
            point4((f64::from(a), f64::from(r) + 1.0, f64::from(w) + 1.0, f64::from(d) + 1.0))
        })
        .collect()
}

/// A reference point strictly dominated by every generated point:
/// accuracy floor below 0, minimized-axis ceilings above the coordinate
/// range.
fn reference(dim: usize) -> Vec<f64> {
    let mut r = vec![-1.0];
    r.resize(dim, 20.0);
    r
}

/// Independent brute-force oracle: non-dominated indices over canonical
/// keys, first occurrence kept on exact ties.
fn brute_force_front(keys: &[Vec<f64>]) -> Vec<usize> {
    (0..keys.len())
        .filter(|&i| {
            !keys.iter().enumerate().any(|(j, kj)| {
                j != i && kj.iter().zip(&keys[i]).all(|(a, b)| a <= b) && (kj != &keys[i] || j < i)
            })
        })
        .collect()
}

/// Canonical key multiset of an archive's front, sorted for comparison.
fn sorted_front_keys(archive: &ParetoArchive, objectives: &ObjectiveSet) -> Vec<Vec<f64>> {
    let mut keys: Vec<Vec<f64>> = archive.front().iter().map(|p| objectives.keys(p)).collect();
    keys.sort_by(|a, b| a.partial_cmp(b).expect("finite keys"));
    keys
}

/// Deterministic Fisher–Yates permutation from a splitmix64 stream (the
/// vendored proptest has no shuffle strategy).
fn permute<T: Clone>(items: &[T], mut seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..out.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental insertion equals batch `pareto_front` on random
    /// point clouds — same (accuracy, area) values, same ascending-area
    /// order, regardless of insertion order or duplicates.
    #[test]
    fn archive_equals_batch_front(
        raw in proptest::collection::vec((0u32..100, 0u32..100), 1..60)
    ) {
        // Coarse integer-derived coordinates so duplicates and exact
        // metric ties actually occur.
        let pts: Vec<DesignPoint> = raw
            .iter()
            .map(|&(a, r)| point(f64::from(a) / 100.0, f64::from(r) + 1.0))
            .collect();
        let mut archive = ParetoArchive::new();
        for p in &pts {
            archive.insert(p.clone());
        }
        let batch: Vec<(f64, f64)> = pareto::pareto_front(&pts)
            .into_iter()
            .map(|i| (pts[i].accuracy, pts[i].area_mm2))
            .collect();
        let incr: Vec<(f64, f64)> =
            archive.front().iter().map(|p| (p.accuracy, p.area_mm2)).collect();
        prop_assert_eq!(incr, batch);
        prop_assert_eq!(archive.inserted(), pts.len());
    }

    /// The archive's front is mutually non-dominated and dominates
    /// every rejected point.
    #[test]
    fn archive_front_is_sound(
        raw in proptest::collection::vec((0u32..50, 0u32..50), 1..40)
    ) {
        let pts: Vec<DesignPoint> = raw
            .iter()
            .map(|&(a, r)| point(f64::from(a) / 50.0, f64::from(r) + 1.0))
            .collect();
        let mut archive = ParetoArchive::new();
        archive.extend(pts.iter().cloned());
        let front = archive.front();
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                prop_assert!(i == j || !a.dominates(b), "front self-dominates");
            }
        }
        for p in &pts {
            prop_assert!(
                front
                    .iter()
                    .any(|f| f.dominates(p)
                        || (f.accuracy == p.accuracy && f.area_mm2 == p.area_mm2)),
                "point ({}, {}) neither on the front nor dominated",
                p.accuracy,
                p.area_mm2
            );
        }
    }

    /// In every dimensionality, the archive's front equals the
    /// brute-force batch dominance filter — both the independent
    /// in-test oracle and the library's `pareto_front_with`.
    #[test]
    fn nd_archive_equals_brute_force_front(
        dim in 2usize..=4,
        raw in proptest::collection::vec((0u32..12, 0u32..12, 0u32..12, 0u32..12), 1..45)
    ) {
        let objectives = objective_set(dim);
        let pts = cloud(&raw);
        let mut archive = ParetoArchive::with_objectives(objectives.clone());
        archive.extend(pts.iter().cloned());
        prop_assert_eq!(archive.inserted(), pts.len());

        let keys: Vec<Vec<f64>> = pts.iter().map(|p| objectives.keys(p)).collect();
        let oracle = brute_force_front(&keys);
        let mut oracle_keys: Vec<Vec<f64>> = oracle.iter().map(|&i| keys[i].clone()).collect();
        oracle_keys.sort_by(|a, b| a.partial_cmp(b).expect("finite keys"));
        prop_assert_eq!(&sorted_front_keys(&archive, &objectives), &oracle_keys);

        let lib = pareto::pareto_front_with(&pts, &objectives);
        prop_assert_eq!(&lib, &oracle, "library batch filter must match the oracle");

        // And the front is mutually non-dominated.
        for (i, a) in archive.front().iter().enumerate() {
            for (j, b) in archive.front().iter().enumerate() {
                prop_assert!(i == j || !objectives.dominates(a, b), "front self-dominates");
            }
        }
    }

    /// Hypervolume is monotone under insertion: a point entering the
    /// front strictly grows it (every generated point strictly
    /// dominates the reference), a bounced point leaves it bit-for-bit
    /// unchanged. Integer coordinates make both assertions exact.
    #[test]
    fn nd_hypervolume_is_monotone_under_insertion(
        dim in 2usize..=4,
        raw in proptest::collection::vec((0u32..10, 0u32..10, 0u32..10, 0u32..10), 1..24)
    ) {
        let objectives = objective_set(dim);
        let r = reference(dim);
        let mut archive = ParetoArchive::with_objectives(objectives);
        let mut hv = archive.hypervolume(&r);
        prop_assert_eq!(hv, 0.0);
        for p in cloud(&raw) {
            let entered = archive.insert(p);
            let next = archive.hypervolume(&r);
            if entered {
                prop_assert!(next > hv, "non-dominated insert must grow the volume");
            } else {
                prop_assert_eq!(next, hv, "rejected insert must not move the volume");
            }
            hv = next;
        }
        prop_assert_eq!(archive.try_hypervolume(&r), Ok(hv));
    }

    /// The final front (as a key multiset) and its hypervolume are
    /// invariant to insertion order — bitwise, because the N-D
    /// hypervolume sorts the front before slicing.
    #[test]
    fn nd_front_and_hypervolume_ignore_insertion_order(
        dim in 2usize..=4,
        raw in proptest::collection::vec((0u32..10, 0u32..10, 0u32..10, 0u32..10), 1..40),
        seed in proptest::prelude::any::<u64>()
    ) {
        let objectives = objective_set(dim);
        let r = reference(dim);
        let pts = cloud(&raw);
        let mut forward = ParetoArchive::with_objectives(objectives.clone());
        forward.extend(pts.iter().cloned());
        let mut shuffled = ParetoArchive::with_objectives(objectives.clone());
        shuffled.extend(permute(&pts, seed));
        prop_assert_eq!(
            sorted_front_keys(&forward, &objectives),
            sorted_front_keys(&shuffled, &objectives)
        );
        prop_assert_eq!(forward.hypervolume(&r), shuffled.hypervolume(&r));
    }

    /// A 4-D set masked down to (accuracy, area) behaves exactly like
    /// the native 2-D set: same front, same order, same hypervolume
    /// bits — the degenerate case that keeps old studies comparable.
    #[test]
    fn masked_4d_set_is_bit_identical_to_native_2d(
        raw in proptest::collection::vec((0u32..20, 0u32..20, 0u32..20, 0u32..20), 1..40)
    ) {
        let pts = cloud(&raw);
        let mut native = ParetoArchive::new();
        native.extend(pts.iter().cloned());
        let masked_set = ObjectiveSet::all().mask(&[true, true, false, false]);
        let mut masked = ParetoArchive::with_objectives(masked_set);
        masked.extend(pts.iter().cloned());
        let pairs = |a: &ParetoArchive| -> Vec<(f64, f64)> {
            a.front().iter().map(|p| (p.accuracy, p.area_mm2)).collect()
        };
        prop_assert_eq!(pairs(&native), pairs(&masked));
        let r = [0.0, 21.0];
        prop_assert_eq!(native.hypervolume(&r), masked.hypervolume(&r));
    }

    /// Cross-check of the two hypervolume code paths: with one axis
    /// held constant, the 3-D WFG volume is exactly the 2-D sweep
    /// volume times the constant axis's slab.
    #[test]
    fn wfg_reduces_to_the_2d_sweep_on_a_constant_axis(
        raw in proptest::collection::vec((0u32..15, 0u32..15), 1..40),
        power in 0u32..5,
        slab in 1u32..4
    ) {
        let pts: Vec<DesignPoint> = raw
            .iter()
            .map(|&(a, r)| point4((f64::from(a), f64::from(r) + 1.0, f64::from(power), 0.0)))
            .collect();
        let mut two = ParetoArchive::new();
        two.extend(pts.iter().cloned());
        let mut three = ParetoArchive::with_objectives(ObjectiveSet::accuracy_area_power());
        three.extend(pts.iter().cloned());
        let hv2 = two.hypervolume(&[-1.0, 16.0]);
        let hv3 = three.hypervolume(&[-1.0, 16.0, f64::from(power + slab)]);
        prop_assert_eq!(hv3, hv2 * f64::from(slab));
    }

    /// The grid strategy enumerates exactly the τ-qualified φ levels,
    /// in grid order, for arbitrary gate metric sets — and when no τc
    /// qualifies a single gate (all gate τs below the weakest step, a
    /// real outcome for saturated circuits), it emits exactly the one
    /// unpruned baseline point instead of silently dropping the
    /// context.
    #[test]
    fn grid_strategy_enumerates_qualified_phis(
        gates in proptest::collection::vec((40u32..100, -1i64..8), 0..30),
        steps in 1usize..8
    ) {
        let gates: Vec<(f64, i64)> =
            gates.iter().map(|&(t, p)| (f64::from(t) / 100.0, p)).collect();
        let tau_values: Vec<f64> =
            (0..steps).map(|i| 0.80 + 0.19 * i as f64 / steps.max(2) as f64).collect();
        let space = SearchSpace {
            tau_values: tau_values.clone(),
            contexts: vec![ContextSpace { gene: CoeffGene::exact(), gates: gates.clone() }],
        };
        let batch = ExhaustiveGrid::new().ask(&space);
        let mut expected: Vec<Candidate> = Vec::new();
        for &tau_c in &tau_values {
            let mut phis: Vec<i64> = gates
                .iter()
                .filter(|&&(t, _)| t >= tau_c - 1e-12)
                .map(|&(_, p)| p)
                .collect();
            phis.sort_unstable();
            phis.dedup();
            for phi_c in phis {
                expected.push(Candidate { coeff: CoeffGene::exact(), tau_c, phi_c });
            }
        }
        if expected.is_empty() {
            expected.push(Candidate {
                coeff: CoeffGene::exact(),
                tau_c: tau_values[0],
                phi_c: -1,
            });
        }
        prop_assert_eq!(batch, expected);
    }

    /// NSGA-II survives every degenerate space the issue tracker has
    /// seen in the wild, and then some: gate-free contexts (empty
    /// `distinct_taus()`, the old `clamp(0, -1)` panic), contexts whose
    /// gates all share one τ, empty τ grids, and several coefficient
    /// genes side by side. Every asked candidate must carry a gene that
    /// actually exists in the space.
    #[test]
    fn nsga2_survives_degenerate_spaces(
        ctxs in proptest::collection::vec(
            proptest::collection::vec((0u32..100, -1i64..8), 0..6),
            1..4
        ),
        steps in 0usize..4,
        seed in proptest::prelude::any::<u64>()
    ) {
        let contexts: Vec<ContextSpace> = ctxs
            .iter()
            .enumerate()
            .map(|(i, gates)| ContextSpace {
                gene: if i == 0 {
                    CoeffGene::exact()
                } else {
                    CoeffGene::uniform(u8::try_from(i).expect("tiny index"))
                },
                gates: gates.iter().map(|&(t, p)| (f64::from(t) / 100.0, p)).collect(),
            })
            .collect();
        let tau_values: Vec<f64> = (0..steps).map(|i| 0.80 + 0.05 * i as f64).collect();
        let space = SearchSpace { tau_values, contexts };
        let mut nsga = Nsga2::new(Nsga2Config {
            population: 8,
            generations: 4,
            max_evals: 64,
            seed,
            ..Default::default()
        });
        let objectives = ObjectiveSet::all();
        for _ in 0..4 {
            let batch = nsga.ask(&space);
            if batch.is_empty() {
                break;
            }
            let mut results = Vec::with_capacity(batch.len());
            for (i, c) in batch.iter().enumerate() {
                prop_assert!(
                    space.contexts.iter().any(|ctx| ctx.gene == c.coeff),
                    "asked candidate carries a gene outside the space: {:?}",
                    c
                );
                prop_assert!(c.tau_c.is_finite());
                // Synthetic but deterministic feedback: selection
                // pressure is irrelevant here, only survival is.
                results.push((*c, point(((i * 37) % 100) as f64 / 100.0, (i % 7 + 1) as f64)));
            }
            nsga.tell(&results, &objectives);
        }
    }
}
