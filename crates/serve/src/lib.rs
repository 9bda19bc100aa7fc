//! `pax-serve` — a batched, sharded inference-serving engine for
//! approximate printed-ML circuit artifacts.
//!
//! The cross-layer flow (`pax-core`) studies hundreds of approximate
//! designs and selects a few; this crate is what *deploys* a selection.
//! A servable [`Artifact`](pax_core::artifact::Artifact) — approximate
//! netlist + golden quantized model + recorded metrics — registers into
//! a sharded model registry, and classification requests stream through
//! a request batcher that packs up to [`LANES`] samples into one
//! bit-parallel simulator word: one netlist pass answers 64 requests.
//!
//! # Architecture
//!
//! * **Backends** ([`Backend`]): [`NetlistBackend`] simulates the
//!   deployed approximate circuit (cycle-exact, what the printed
//!   hardware answers); [`QuantBackend`] evaluates the golden integer
//!   model directly. Either can serve; the other audits.
//! * **Registry**: models are sharded by name hash; each entry owns a
//!   bounded request queue (backpressure surfaces to submitters as
//!   [`ServeError::QueueFull`]).
//! * **Workers**: a pool of threads, each with a *home* shard it drains
//!   first, stealing from other shards when idle.
//! * **Auditor**: a configurable fraction of batches is re-answered by
//!   the non-serving backend; disagreements are metered as
//!   [`MetricsSnapshot::divergence`] — the live, in-production measure
//!   of the accuracy the approximation actually costs.
//! * **Metrics** ([`MetricsSnapshot`]): windowed throughput, latency
//!   mean and tail quantiles (p50/p99 from a shared [`pax_obs`]
//!   histogram), batch occupancy, backpressure rejections and audit
//!   divergence per model. [`ServeEngine::telemetry`] rolls everything
//!   (plus per-shard queue-depth gauges) into a [`pax_obs::Snapshot`]
//!   renderable as a table or Prometheus-style exposition.
//! * **Evaluation fabric**: the same worker pool doubles as the
//!   execution substrate for design-space search. A study registers as
//!   a *tenant* ([`ServeEngine::register_tenant`]) with a bounded job
//!   queue, optional job budget and its own metrics; the returned
//!   [`TenantHandle`] implements `pax_core::explore::EvalFabric`, so a
//!   `pax_core` evaluator in fabric mode ships candidate evaluations
//!   ([`Job`]s) to the serve workers, where they share the pool with
//!   live classification traffic — which keeps scan priority, since
//!   requests are latency-bound and evaluations are throughput-bound.
//!
//! # Example
//!
//! ```
//! use pax_core::artifact::Artifact;
//! use pax_core::framework::{Framework, FrameworkConfig};
//! use pax_core::Technique;
//! use pax_ml::quant::{QuantSpec, QuantizedModel};
//! use pax_ml::synth_data::blobs;
//! use pax_ml::train::svm::{train_svm_classifier, SvmParams};
//! use pax_serve::{EngineConfig, ServeEngine};
//!
//! // Train, study, select, export — the offline half.
//! let data = blobs("doc", 200, 3, 3, 0.08, 7);
//! let (train, test) = data.split(0.7, 1);
//! let (train, test) = pax_ml::normalize(&train, &test);
//! let svm = train_svm_classifier(&train, &SvmParams::default(), 3);
//! let model = QuantizedModel::from_linear_classifier("doc", &svm, QuantSpec::default());
//! let fw = Framework::new(FrameworkConfig::default());
//! let study = fw.try_run_study(&model, &train, &test)?;
//! let pick = study.best_within_loss(Technique::Cross, 0.02);
//! let artifact = fw.export_artifact(&model, &train, &pick);
//!
//! // Serve — the online half.
//! let engine = ServeEngine::new(EngineConfig::default());
//! engine.register(artifact).unwrap();
//! let row = model.quantize_input(&test.features[0]);
//! let class = engine.submit("doc", row).unwrap().wait().class().unwrap();
//! assert!(class < model.n_classes);
//! # Ok::<(), pax_core::StudyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod batch;
mod engine;
mod job;
mod metrics;
mod registry;

pub use backend::{Backend, NetlistBackend, QuantBackend};
pub use batch::{CancelReason, Outcome, Ticket, LANES};
pub use engine::{
    EngineConfig, ModelOptions, RegisterError, ServeEngine, ServeError, TenantHandle,
};
pub use job::{Job, JobOutcome, JobTicket, TenantOptions, TenantSnapshot};
pub use metrics::{MetricsSnapshot, ModelMetrics};
pub use registry::Primary;
