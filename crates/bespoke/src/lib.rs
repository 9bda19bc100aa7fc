//! # pax-bespoke — bespoke printed ML circuits
//!
//! Generates the paper's baseline hardware: **fully-parallel bespoke
//! circuits** in which every trained coefficient is hardwired into the
//! logic (Mubarik et al., MICRO'20 — the paper's reference \[1\]). One
//! circuit computes one inference per clock at the relaxed printed
//! clock:
//!
//! * each weighted sum (MLP neuron, SVM class row) becomes a fused
//!   CSD/carry-save cone sized by exact static bounds — no saturation
//!   logic, overflow is impossible by construction;
//! * MLP hidden layers apply ReLU (one inverter + AND per bit) and a
//!   hardwired right shift (wiring);
//! * classifiers finish with a comparator-tree argmax over the class
//!   score buses; the paper's SVM-C 1-vs-1 voting reduces to the same
//!   argmax (the pairwise winner is the maximum score);
//! * regressors expose the raw score bus; the test harness dequantizes
//!   and rounds it, as the paper does.
//!
//! Every circuit exposes its class-score buses as `score<i>` output
//! ports. These are the paper's **φ observation points**: netlist
//! pruning bounds a gate's error magnitude by the most significant
//! *score* bit it can reach, because the argmax breaks the correlation
//! between numerical error and classification output (paper §III-C).
//!
//! [`evaluate`] runs a circuit over a quantized dataset with the
//! bit-parallel simulator and scores its predictions; the result is
//! bit-exact against the integer golden model in `pax_ml::quant`
//! (property-tested in this crate and asserted end-to-end in the
//! integration suite).
//!
//! # Examples
//!
//! ```
//! use pax_ml::model::LinearClassifier;
//! use pax_ml::quant::{QuantizedModel, QuantSpec};
//! use pax_bespoke::BespokeCircuit;
//!
//! // A hand-made 2-feature, 3-class linear model.
//! let svc = LinearClassifier::new(
//!     vec![vec![0.9, -0.3], vec![-0.5, 0.8], vec![0.1, 0.1]],
//!     vec![0.0, 0.1, -0.05],
//! );
//! let q = QuantizedModel::from_linear_classifier("demo", &svc, QuantSpec::default());
//! let circuit = BespokeCircuit::generate(&q);
//! assert_eq!(circuit.netlist.input_ports().len(), 2);
//! // Hardware and golden model agree on every input.
//! for a in 0..16 {
//!     for b in 0..16 {
//!         assert_eq!(circuit.predict_one(&[a, b]), q.predict_q(&[a, b]));
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod harness;

pub use build::BespokeCircuit;
pub use harness::{
    evaluate, score_outputs, stimulus_for, stimulus_for_rows, try_evaluate_compiled, EvalOutcome,
};
