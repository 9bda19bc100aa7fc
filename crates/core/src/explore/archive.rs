//! Incremental Pareto archive over a configurable [`ObjectiveSet`].
//!
//! [`pareto::pareto_front`](crate::pareto::pareto_front) recomputes the
//! front from scratch — fine once per study, wasteful inside a search
//! loop that adds designs one at a time. [`ParetoArchive`] maintains the
//! front under insertion: each insert either bounces off a dominating
//! incumbent or enters and evicts everything it dominates. Two-axis
//! sets keep the original sorted representation (`O(log n + k)` per
//! insert — binary search plus the evicted range); other
//! dimensionalities use a linear dominance scan, which for the front
//! sizes this search produces is equally cheap. The archive always
//! equals the batch front over every point ever inserted (first
//! occurrence kept on exact metric ties), which the `proptest_explore`
//! suite asserts against random point clouds in 2–4 dimensions.
//!
//! The front's quality collapses to one scalar through the dominated
//! [`hypervolume`](ParetoArchive::hypervolume): the exact 2-D sweep is
//! preserved bit-for-bit (golden-pinned by `integration_explore`), and
//! N-D sets use the exact WFG recursive-slicing algorithm. Reference
//! points are given in *raw axis units* in enabled-axis order — see the
//! README's reference-point guidance.

use super::objective::ObjectiveSet;
use crate::DesignPoint;

/// Why a hypervolume could not be computed.
#[derive(Debug, Clone, PartialEq)]
pub enum HypervolumeError {
    /// The reference point's component count does not match the
    /// archive's objective dimensionality.
    DimensionMismatch {
        /// The archive's enabled-axis count.
        expected: usize,
        /// The reference point's component count.
        got: usize,
    },
    /// A front point does not strictly dominate the reference point —
    /// it ties or exceeds it on the named axis, so its dominated box is
    /// empty (the clamping [`ParetoArchive::hypervolume`] silently
    /// drops such points instead).
    PointBeyondReference {
        /// Index of the offending point within [`ParetoArchive::front`].
        index: usize,
        /// Label of the first axis on which the point fails.
        axis: &'static str,
    },
}

impl std::fmt::Display for HypervolumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HypervolumeError::DimensionMismatch { expected, got } => {
                write!(f, "reference point has {got} components, objective set has {expected}")
            }
            HypervolumeError::PointBeyondReference { index, axis } => {
                write!(f, "front point {index} does not dominate the reference point on {axis}")
            }
        }
    }
}

impl std::error::Error for HypervolumeError {}

/// The non-dominated subset of all inserted points under a configurable
/// [`ObjectiveSet`] (accuracy ↑ × area ↓ by default).
///
/// Two-axis fronts are kept sorted by the second axis ascending (for
/// the default set: ascending area, and therefore ascending accuracy);
/// higher-dimensional fronts keep insertion order.
#[derive(Debug, Clone)]
pub struct ParetoArchive {
    objectives: ObjectiveSet,
    points: Vec<DesignPoint>,
    inserted: usize,
}

impl Default for ParetoArchive {
    fn default() -> Self {
        Self::with_objectives(ObjectiveSet::default())
    }
}

impl ParetoArchive {
    /// An empty archive over the default (accuracy, area) objectives.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty archive over an explicit objective space.
    pub fn with_objectives(objectives: ObjectiveSet) -> Self {
        Self { objectives, points: Vec::new(), inserted: 0 }
    }

    /// The objective space this archive ranks by.
    pub fn objectives(&self) -> &ObjectiveSet {
        &self.objectives
    }

    /// Offers a point. Returns `true` if it entered the front (it is
    /// not dominated by, or metric-equal to, any archived point);
    /// dominated incumbents are evicted.
    pub fn insert(&mut self, p: DesignPoint) -> bool {
        self.inserted += 1;
        if self.objectives.dim() == 2 {
            self.insert_2d(p)
        } else {
            self.insert_nd(p)
        }
    }

    /// The first two enabled axes' canonical keys — the 2-D fast path's
    /// coordinates (for the default set: `(-accuracy, area)`).
    fn key2(&self, p: &DesignPoint) -> (f64, f64) {
        let mut axes = self.objectives.enabled();
        let a = axes.next().expect("2-D set has a first axis");
        let b = axes.next().expect("2-D set has a second axis");
        (a.objective.key(p), b.objective.key(p))
    }

    /// The original sorted 2-D insert, expressed over canonical keys
    /// `(k0, k1)` — negation is exact, so for the default set this is
    /// bit-for-bit the historical (accuracy, area) behavior.
    fn insert_2d(&mut self, p: DesignPoint) -> bool {
        let (pk0, pk1) = self.key2(&p);
        // Points left of `pos` have k1 <= p's; the front's k0 is
        // non-increasing in k1, so the strongest potential dominator is
        // the first point at or right of p by k1.
        let pos = self.points.partition_point(|q| {
            let (k0, k1) = self.key2(q);
            (k1, k0) < (pk1, pk0)
        });
        // A dominator-or-equal has k1 <= p's and k0 <= p's: by the sort
        // order it sits at `pos` onwards only if its k1 ties p's, or
        // anywhere left of pos. Left of pos, k0 is minimal just before
        // pos.
        let weakly_dominated = self.points[..pos].last().is_some_and(|q| self.key2(q).0 <= pk0)
            || self.points[pos..].first().is_some_and(|q| {
                let (k0, k1) = self.key2(q);
                k1 <= pk1 && k0 <= pk0
            });
        if weakly_dominated {
            return false;
        }
        // p enters: evict the contiguous run of points it dominates
        // (k1 >= p's, k0 >= p's — they start at pos).
        let evict_end = pos
            + self.points[pos..]
                .iter()
                .take_while(|q| {
                    let (k0, k1) = self.key2(q);
                    k0 >= pk0 && k1 >= pk1
                })
                .count();
        self.points.splice(pos..evict_end, std::iter::once(p));
        true
    }

    /// Linear-scan insert for 1-, 3- and 4-axis sets: reject when any
    /// incumbent weakly dominates `p`, otherwise evict everything `p`
    /// dominates and append (insertion order is preserved). Each
    /// incumbent's key vector is materialized once per insert.
    fn insert_nd(&mut self, p: DesignPoint) -> bool {
        let pk = self.objectives.keys(&p);
        let incumbent_keys: Vec<Vec<f64>> =
            self.points.iter().map(|q| self.objectives.keys(q)).collect();
        if incumbent_keys.iter().any(|qk| qk.iter().zip(&pk).all(|(qk, pk)| qk <= pk)) {
            return false;
        }
        // No incumbent weakly dominates p, so any incumbent p weakly
        // dominates is strictly worse somewhere — evict it.
        let mut keep = incumbent_keys.iter().map(|qk| !pk.iter().zip(qk).all(|(pk, qk)| pk <= qk));
        self.points.retain(|_| keep.next().expect("one keep flag per incumbent"));
        self.points.push(p);
        true
    }

    /// The current front: ascending by the second axis (area, for the
    /// default set) in 2-D, insertion order otherwise.
    pub fn front(&self) -> &[DesignPoint] {
        &self.points
    }

    /// Consumes the archive into its front.
    pub fn into_front(self) -> Vec<DesignPoint> {
        self.points
    }

    /// Number of points currently on the front.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when nothing has entered the front yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total number of points ever offered via [`ParetoArchive::insert`].
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// The exact hypervolume dominated by the front, measured against a
    /// reference point given in *raw axis units*, enabled-axis order
    /// (for the default set: `[ref_accuracy, ref_area]` — an accuracy
    /// lower bound and an area upper bound). Front points that do not
    /// strictly dominate the reference point are **clamped out**: they
    /// contribute nothing, exactly as the historical 2-D sweep skipped
    /// them ([`ParetoArchive::try_hypervolume`] turns them into a typed
    /// error instead). The larger the hypervolume, the better the
    /// front — the standard scalar for comparing fronts from different
    /// search strategies; fronts must share one reference point to be
    /// comparable.
    ///
    /// 2-D sets use the exact sorted sweep; other dimensionalities use
    /// the exact WFG algorithm over the lexicographically sorted front,
    /// so the value depends only on the front *set*, never on insertion
    /// order.
    ///
    /// # Panics
    ///
    /// Panics when `ref_point` does not have one component per enabled
    /// axis.
    pub fn hypervolume(&self, ref_point: &[f64]) -> f64 {
        assert_eq!(
            ref_point.len(),
            self.objectives.dim(),
            "reference point must have one component per enabled axis"
        );
        self.hv_impl(ref_point, true).expect("clamping mode never fails")
    }

    /// [`ParetoArchive::hypervolume`] that surfaces a malformed query as
    /// a typed [`HypervolumeError`] instead of clamping or panicking: a
    /// wrong-dimensional reference point, or a front point outside the
    /// reference box (which the clamping variant silently drops).
    pub fn try_hypervolume(&self, ref_point: &[f64]) -> Result<f64, HypervolumeError> {
        if ref_point.len() != self.objectives.dim() {
            return Err(HypervolumeError::DimensionMismatch {
                expected: self.objectives.dim(),
                got: ref_point.len(),
            });
        }
        self.hv_impl(ref_point, false)
    }

    fn hv_impl(&self, ref_point: &[f64], clamp: bool) -> Result<f64, HypervolumeError> {
        let rk = self.objectives.canonical_ref(ref_point);
        let labels = self.objectives.labels();
        // Keep only points strictly inside the reference box. A point
        // tying or exceeding the reference on any axis dominates an
        // empty sub-box — zero volume — so dropping it IS the clamp.
        let mut keys: Vec<Vec<f64>> = Vec::with_capacity(self.points.len());
        for (index, p) in self.points.iter().enumerate() {
            let k = self.objectives.keys(p);
            if let Some(axis) = (0..k.len()).find(|&j| k[j] >= rk[j]) {
                if clamp {
                    continue;
                }
                return Err(HypervolumeError::PointBeyondReference { index, axis: labels[axis] });
            }
            keys.push(k);
        }
        if self.objectives.dim() == 2 {
            return Ok(sweep_2d(&keys, &rk));
        }
        // Sort lexicographically first so the WFG sum depends only on
        // the front set, not the insertion order.
        keys.sort_by(|a, b| a.partial_cmp(b).expect("finite objective values"));
        Ok(wfg(&keys, &rk))
    }
}

/// The 2-D sorted sweep: one forward sum of the per-point terms
/// `(rk₁ − k₁ᵢ) · (k₀ᵢ₋₁ − k₀ᵢ)`, with `k₀₋₁ = rk₀`.
fn sweep_2d(keys: &[Vec<f64>], rk: &[f64]) -> f64 {
    let mut hv = 0.0;
    for (i, k) in keys.iter().enumerate() {
        let prev_k0 = if i == 0 { rk[0] } else { keys[i - 1][0] };
        hv += (rk[1] - k[1]) * (prev_k0 - k[0]);
    }
    hv
}

/// Exact hypervolume of mutually comparable points in minimization
/// space (WFG: sum of exclusive contributions, each computed as the
/// point's inclusive box minus the hypervolume of the later points
/// limited to that box).
fn wfg(pts: &[Vec<f64>], rk: &[f64]) -> f64 {
    let mut hv = 0.0;
    for (i, p) in pts.iter().enumerate() {
        let inclusive: f64 = p.iter().zip(rk).map(|(k, r)| r - k).product();
        let limited = limit_set(&pts[i + 1..], p);
        hv += inclusive - wfg(&limited, rk);
    }
    hv
}

/// WFG's limit set: every later point clipped into `p`'s box
/// (componentwise max in minimization space), reduced to its
/// non-dominated subset.
fn limit_set(pts: &[Vec<f64>], p: &[f64]) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = Vec::new();
    for q in pts {
        let lifted: Vec<f64> = q.iter().zip(p).map(|(a, b)| a.max(*b)).collect();
        if out.iter().any(|o| o.iter().zip(&lifted).all(|(a, b)| a <= b)) {
            continue;
        }
        out.retain(|o| !lifted.iter().zip(o).all(|(a, b)| a <= b));
        out.push(lifted);
    }
    out
}

impl Extend<DesignPoint> for ParetoArchive {
    fn extend<T: IntoIterator<Item = DesignPoint>>(&mut self, iter: T) {
        for p in iter {
            self.insert(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::ObjectiveSet;
    use crate::Technique;

    fn p(acc: f64, area: f64) -> DesignPoint {
        p4(acc, area, 0.0, 0.0)
    }

    fn p4(acc: f64, area: f64, power: f64, delay: f64) -> DesignPoint {
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

    fn front_pairs(a: &ParetoArchive) -> Vec<(f64, f64)> {
        a.front().iter().map(|p| (p.accuracy, p.area_mm2)).collect()
    }

    #[test]
    fn matches_batch_front_on_fixed_set() {
        let pts = vec![p(0.9, 100.0), p(0.85, 60.0), p(0.8, 80.0), p(0.95, 120.0)];
        let mut arch = ParetoArchive::new();
        arch.extend(pts.iter().cloned());
        let batch: Vec<(f64, f64)> = crate::pareto::pareto_front(&pts)
            .into_iter()
            .map(|i| (pts[i].accuracy, pts[i].area_mm2))
            .collect();
        assert_eq!(front_pairs(&arch), batch);
        assert_eq!(arch.inserted(), 4);
    }

    #[test]
    fn dominated_insert_bounces_and_dominating_insert_evicts() {
        let mut arch = ParetoArchive::new();
        assert!(arch.insert(p(0.9, 100.0)));
        assert!(!arch.insert(p(0.85, 110.0)), "dominated");
        assert!(!arch.insert(p(0.9, 100.0)), "metric-equal tie keeps the incumbent");
        assert!(arch.insert(p(0.95, 90.0)), "dominates the incumbent");
        assert_eq!(arch.len(), 1);
        assert!((arch.front()[0].area_mm2 - 90.0).abs() < 1e-12);
    }

    #[test]
    fn equal_area_keeps_only_the_more_accurate() {
        let mut arch = ParetoArchive::new();
        arch.insert(p(0.5, 10.0));
        arch.insert(p(0.6, 10.0));
        assert_eq!(front_pairs(&arch), vec![(0.6, 10.0)]);
        // And in the other insertion order.
        let mut arch = ParetoArchive::new();
        arch.insert(p(0.6, 10.0));
        arch.insert(p(0.5, 10.0));
        assert_eq!(front_pairs(&arch), vec![(0.6, 10.0)]);
    }

    #[test]
    fn hypervolume_rewards_better_fronts() {
        let mut a = ParetoArchive::new();
        a.extend([p(0.8, 50.0), p(0.9, 80.0)]);
        let mut b = ParetoArchive::new();
        b.extend([p(0.8, 40.0), p(0.95, 80.0)]);
        let r = [0.0, 100.0]; // accuracy lower bound, area upper bound
        assert!(b.hypervolume(&r) > a.hypervolume(&r));
        assert_eq!(ParetoArchive::new().hypervolume(&r), 0.0);
    }

    #[test]
    fn nd_insert_tracks_dominance_per_axis() {
        let mut arch = ParetoArchive::with_objectives(ObjectiveSet::accuracy_area_power());
        assert!(arch.insert(p4(0.9, 100.0, 10.0, 0.0)));
        // Dominated in 2-D, saved by the power axis in 3-D.
        assert!(arch.insert(p4(0.9, 110.0, 8.0, 0.0)));
        assert_eq!(arch.len(), 2);
        // Strictly better power evicts the first point only.
        assert!(arch.insert(p4(0.9, 100.0, 9.0, 0.0)));
        assert_eq!(arch.len(), 2);
        assert!(!arch.insert(p4(0.9, 100.0, 9.0, 0.0)), "metric-equal tie");
        assert!(!arch.insert(p4(0.89, 100.0, 9.5, 0.0)), "dominated in 3-D");
        assert_eq!(arch.inserted(), 5);
    }

    #[test]
    fn nd_hypervolume_reduces_to_2d_when_an_axis_is_constant() {
        // Every point shares power 3.0, so the 3-D volume is exactly
        // the 2-D volume times the power slab (ref_power - 3.0). Exact
        // integer-valued coordinates make the comparison bitwise.
        let pts = [p4(8.0, 5.0, 3.0, 0.0), p4(6.0, 2.0, 3.0, 0.0), p4(3.0, 1.0, 3.0, 0.0)];
        let mut two = ParetoArchive::new();
        two.extend(pts.iter().cloned());
        let mut three = ParetoArchive::with_objectives(ObjectiveSet::accuracy_area_power());
        three.extend(pts.iter().cloned());
        let hv2 = two.hypervolume(&[0.0, 10.0]);
        let hv3 = three.hypervolume(&[0.0, 10.0, 7.0]);
        assert_eq!(hv3, hv2 * 4.0);
    }

    #[test]
    fn wfg_handles_overlapping_boxes_exactly() {
        // Two overlapping 3-D boxes: union = a + b - intersection.
        let a = p4(4.0, 2.0, 2.0, 0.0);
        let b = p4(2.0, 1.0, 1.0, 0.0);
        let mut arch = ParetoArchive::with_objectives(ObjectiveSet::accuracy_area_power());
        arch.extend([a, b]);
        let hv = arch.hypervolume(&[0.0, 4.0, 4.0]);
        // a: 4*2*2 = 16; b: 2*3*3 = 18; intersection: 2*2*2 = 8.
        assert_eq!(hv, 16.0 + 18.0 - 8.0);
    }

    #[test]
    fn try_hypervolume_types_the_failure_modes() {
        let mut arch = ParetoArchive::new();
        arch.extend([p(0.9, 50.0), p(0.5, 10.0)]);
        assert_eq!(
            arch.try_hypervolume(&[0.0, 100.0, 1.0]),
            Err(HypervolumeError::DimensionMismatch { expected: 2, got: 3 })
        );
        // Area 50 exceeds a reference area of 40: index 1 in the
        // area-sorted front, failing on the area axis.
        let err = arch.try_hypervolume(&[0.0, 40.0]).unwrap_err();
        assert_eq!(err, HypervolumeError::PointBeyondReference { index: 1, axis: "area_mm2" });
        assert!(err.to_string().contains("area_mm2"));
        // The clamping variant drops the offender and keeps the rest.
        assert_eq!(arch.hypervolume(&[0.0, 40.0]), (40.0 - 10.0) * 0.5);
        // Both agree when everything is inside the box.
        assert_eq!(arch.try_hypervolume(&[0.0, 100.0]), Ok(arch.hypervolume(&[0.0, 100.0])));
    }

    #[test]
    #[should_panic(expected = "one component per enabled axis")]
    fn clamping_hypervolume_still_rejects_bad_dimensions() {
        ParetoArchive::new().hypervolume(&[0.0]);
    }

    #[test]
    fn fast_2d_sweep_matches_generic_wfg() {
        // Drive both code paths over the same geometry: a 2-D archive
        // (sorted sweep) versus a 4-D archive whose power/delay axes
        // are constant zero (WFG). With ref 1.0 on the constant axes
        // the slab factor is exactly 1, so the volumes must be
        // bit-identical. A hand-rolled LCG generates a dense cloud with
        // plenty of ties.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % 50
        };
        for _ in 0..20 {
            let mut two = ParetoArchive::new();
            let mut four = ParetoArchive::with_objectives(ObjectiveSet::all());
            for _ in 0..40 {
                let (acc, area) = (next() as f64, next() as f64);
                two.insert(p(acc, area));
                four.insert(p4(acc, area, 0.0, 0.0));
            }
            let hv2 = two.hypervolume(&[0.0, 50.0]);
            let hv4 = four.hypervolume(&[0.0, 50.0, 1.0, 1.0]);
            assert_eq!(hv2, hv4, "sweep and WFG disagree");
        }
    }
}
