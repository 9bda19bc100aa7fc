//! # pax-core — cross-layer approximation for printed ML circuits
//!
//! The reproduction of the paper's contribution (DATE'22): an automated
//! framework that couples two approximation layers, both tailored to
//! *bespoke* printed circuits whose coefficients are hardwired:
//!
//! 1. **Hardware-driven coefficient approximation** ([`coeff_approx`],
//!    algorithmic level) — every coefficient `w` may move to a
//!    neighbouring value `w̃ ∈ [w−e, w+e]` whose bespoke multiplier is
//!    cheaper (powers of two cost *nothing*); an exact (pruned) search
//!    picks the combination that balances positive and negative errors of each
//!    weighted sum, using the cached per-coefficient multiplier areas
//!    ([`mult_cache`]) as the area proxy the paper validates (r = 0.91).
//! 2. **Netlist pruning** ([`prune`], logic level) — gates whose output
//!    is almost always the same value (τ) and which can only influence
//!    low-significance score bits (φ) are replaced by constants; a full
//!    `(τc, φc)` search re-synthesizes and re-evaluates every distinct
//!    pruned design.
//!
//! The [`framework`] module drives the whole flow for one model —
//! baseline bespoke circuit → coefficient approximation → pruning on
//! both — and returns every evaluated design as a [`DesignPoint`] plus
//! the Pareto front ([`pareto`]) and per-stage wall-clock
//! ([`framework::ExecStats`], the paper's Table III).
//!
//! The pruning exploration itself runs on the pluggable [`explore`]
//! engine: the paper's exhaustive `(τc, φc)` sweep
//! ([`explore::ExhaustiveGrid`], the default) and a seeded evolutionary
//! search ([`explore::Nsga2`]) are interchangeable
//! [`explore::SearchStrategy`] implementations, selected through
//! [`framework::FrameworkConfig::search`]. The objective space itself
//! is configurable ([`explore::ObjectiveSet`]): beyond the paper's
//! accuracy × area trade-off, any subset of accuracy ↑ / area ↓ /
//! power ↓ / delay ↓ can drive dominance, N-D hypervolume and
//! evolutionary selection.
//!
//! # Examples
//!
//! End-to-end on a small synthetic model:
//!
//! ```
//! use pax_core::framework::{Framework, FrameworkConfig};
//! use pax_ml::synth_data::blobs;
//! use pax_ml::train::svm::{train_svm_classifier, SvmParams};
//! use pax_ml::quant::{QuantSpec, QuantizedModel};
//!
//! let data = blobs("demo", 240, 4, 3, 0.08, 7);
//! let (train, test) = data.split(0.7, 1);
//! let (train, test) = pax_ml::normalize(&train, &test);
//! let svc = train_svm_classifier(&train, &SvmParams { epochs: 40, ..Default::default() }, 3);
//! let q = QuantizedModel::from_linear_classifier("demo", &svc, QuantSpec::default());
//!
//! let fw = Framework::new(FrameworkConfig::default());
//! let study = fw.try_run_study(&q, &train, &test)?;
//! assert!(study.coeff.area_mm2 <= study.baseline.area_mm2);
//! assert!(!study.cross.is_empty());
//! # Ok::<(), pax_core::StudyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod coeff_approx;
mod design_point;
mod error;
pub mod explore;
pub mod framework;
pub mod mult_cache;
pub mod par;
pub mod pareto;
pub mod prune;
pub mod report;

pub use design_point::{DesignPoint, Technique};
pub use error::StudyError;
