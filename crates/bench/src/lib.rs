//! # pax-bench — regenerating every table and figure of the paper
//!
//! This crate holds the evaluation harness:
//!
//! * [`catalog`] — the 16 trained models of Table I (4 datasets × 4
//!   families; the two Pendigits regressors are trained but, as in the
//!   paper, not implemented in hardware because their accuracy is
//!   useless), with fixed seeds and per-model hyper-parameters;
//! * [`table1`], [`table2`], [`table3`] — the paper's tables;
//! * [`fig1`], [`fig2`], [`fig3`] — the paper's figures as CSV series
//!   plus terminal summaries;
//! * [`proxy`] — the §III-B area-proxy validation (Pearson correlation
//!   between `Σ AREA(BM)` and synthesized weighted-sum area over 1000
//!   random weighted sums);
//! * [`ablations`] — three ablations of the flow's design choices: CSD
//!   vs. binary multiplier recoding, re-synthesis after pruning, and
//!   exhaustive vs. greedy error balancing;
//! * [`studies`] — shared runner executing the cross-layer framework on
//!   every hardware-feasible model;
//! * [`explore`] — exhaustive-grid versus evolutionary search at
//!   matched evaluation budgets (the `BENCH_explore.json` study);
//! * [`obs`] — a journalled NSGA-II study plus read-back verification
//!   of the `pax_obs` search journal and evaluation-phase spans;
//! * [`eval_ab`] — the three A/B candidate-evaluation studies in one
//!   harness (`BENCH_{prune,coeff,fabric}_eval.json`): rebuild
//!   pipeline versus overlay, the same on the joint coefficient ×
//!   pruning grid, and in-process versus serve-fabric evaluation —
//!   each with one row schema,
//!   best-of-3 timing, a bit-identity check per row and its acceptance
//!   bar.
//!
//! The `paper` binary exposes all of it:
//!
//! ```text
//! cargo run -p pax-bench --release --bin paper -- table1
//! cargo run -p pax-bench --release --bin paper -- fabric_eval --quick
//! cargo run -p pax-bench --release --bin paper -- ablations --quick
//! cargo run -p pax-bench --release --bin paper -- all --out results/
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod catalog;
pub mod eval_ab;
pub mod explore;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod obs;
pub mod proxy;
pub mod quantsweep;
pub mod studies;
pub mod table1;
pub mod table2;
pub mod table3;
