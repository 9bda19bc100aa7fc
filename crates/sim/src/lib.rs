//! # pax-sim — bit-parallel gate-level simulation for printed circuits
//!
//! This crate stands in for the paper's Questasim + PrimeTime pair. It
//! evaluates combinational netlists 64 samples at a time (one sample per
//! bit lane of a machine word) and collects exactly the statistics the
//! cross-layer flow needs:
//!
//! * functional outputs per sample — model accuracy evaluation;
//! * per-net signal probabilities — the pruning parameter **τ** (how
//!   often a gate output sits at its dominant constant value);
//! * per-net toggle counts — switching activity for power analysis,
//!   exportable as a SAIF-lite file ([`saif`]);
//! * a printed-electronics power model ([`power`]): static cell power
//!   (dominant in EGT logic), switching energy × toggle density × clock,
//!   plus a constant I/O floor.
//!
//! # Two evaluation paths: `try_simulate` vs [`CompiledNetlist`]
//!
//! [`try_simulate`] interprets the netlist node list directly — zero
//! setup cost, always collects activity. [`CompiledNetlist`] compiles
//! the netlist once into a levelized, kind-grouped instruction tape and
//! executes it word by word on the calling thread, with activity
//! accounting opt-in. The
//! kernel is generic over the lane width ([`Word`]): 64 lanes (`u64`)
//! or 256 lanes ([`W256`]), picked automatically by stimulus size.
//!
//! * Evaluating a netlist **once** (debugging, a single measurement):
//!   use [`try_simulate`].
//! * Evaluating the same netlist **many times** (serving batches, the
//!   pruning search, accuracy sweeps): compile once, call
//!   [`CompiledNetlist::run`] per batch — or
//!   [`CompiledNetlist::run_with_activity`] when τ/power statistics are
//!   needed.
//! * Evaluating **masked variants** of one netlist (the pruning
//!   search's candidates): record one [`CompiledNetlist::trace`], then
//!   one [`CompiledNetlist::run_cone`] per mask re-executes only the
//!   masked gates' fanout, one instruction over all its words at a
//!   time, and returns the outputs plus a [`ConeToggles`] view of
//!   every net's toggles.
//!
//! All paths are bit-for-bit equivalent (outputs, ones, toggles; the
//! cone pass returns outputs and toggles only) — pinned against the
//! scalar `eval_ports` reference by the differential property suite in
//! `tests/proptest_engine.rs`. Malformed stimuli surface as
//! [`SimError`].
//!
//! # Examples
//!
//! ```
//! use pax_netlist::NetlistBuilder;
//! use pax_sim::{try_simulate, Stimulus};
//!
//! let mut b = NetlistBuilder::new("xor");
//! let x = b.input_port("x", 1);
//! let y = b.input_port("y", 1);
//! let g = b.xor2(x[0], y[0]);
//! b.output_port("z", vec![g].into());
//! let nl = b.finish();
//!
//! let mut stim = Stimulus::new();
//! stim.port("x", vec![0, 0, 1, 1]);
//! stim.port("y", vec![0, 1, 0, 1]);
//! let result = try_simulate(&nl, &stim).expect("the stimulus drives both ports");
//! assert_eq!(result.port_values("z"), vec![0, 1, 1, 0]);
//! // z transitions 0→1 and 1→0 across the four samples.
//! assert_eq!(result.activity.toggles(g), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
pub mod compare;
mod compiled;
mod engine;
mod error;
pub mod power;
pub mod saif;
mod stimulus;
pub mod vcd;
mod word;

pub use activity::Activity;
pub use compiled::{BaseTrace, CompiledNetlist, ConeScratch, ConeToggles, PackedStimulus};
pub use engine::{try_simulate, SimOutputs, SimResult};
pub use error::SimError;
pub use stimulus::Stimulus;
pub use word::{Word, W256};
