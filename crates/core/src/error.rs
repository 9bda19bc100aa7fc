//! Typed framework errors.
//!
//! The measurement path used to `expect("library covers cells")` its
//! way through area, power and timing: fine when the built-in EGT
//! library backs every circuit, but a custom [`Library`] missing a cell
//! would abort the whole study. The `try_*` entry points
//! ([`Framework::try_measure`], [`Framework::try_run_study`], the
//! [`explore`](crate::explore) engine) surface these conditions as
//! [`StudyError`] instead — mirroring how `pax-sim` replaced its
//! stimulus-packing panics with `SimError`. The panicking wrappers
//! remain for study code that treats an incomplete library as a bug.
//!
//! [`Library`]: egt_pdk::Library
//! [`Framework::try_measure`]: crate::framework::Framework::try_measure
//! [`Framework::try_run_study`]: crate::framework::Framework::try_run_study

use egt_pdk::PdkError;
use pax_netlist::NetlistError;
use pax_sim::SimError;

/// Why a study (or a single measurement inside one) could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum StudyError {
    /// The cell library does not cover the netlist (area, power or
    /// timing lookup failed).
    Library(PdkError),
    /// A simulation request was malformed (dataset does not match the
    /// model's ports).
    Sim(SimError),
    /// The dataset's feature count differs from the model's input count.
    FeatureMismatch {
        /// The model's input count.
        model: usize,
        /// The dataset's feature count.
        dataset: usize,
    },
    /// The base circuit is not canonical — replaying it through the
    /// fold rules does not reproduce it, so candidate folds cannot
    /// index it. Optimize it first (`pax_synth::opt::optimize`).
    NonCanonicalBase(NetlistError),
    /// A search candidate referenced a base circuit the evaluator was
    /// not given (e.g. a coefficient-approximated candidate against an
    /// evaluator holding only the exact baseline).
    MissingContext {
        /// The per-layer coefficient-approximation gene the candidate
        /// asked for.
        gene: crate::explore::CoeffGene,
    },
    /// The evaluation fabric refused or dropped a shipped job: the pool
    /// is shutting down, the study's tenant was unregistered mid-batch,
    /// or its job budget is spent. See
    /// [`FabricError`](crate::explore::FabricError).
    Fabric(crate::explore::FabricError),
    /// The structured search journal could not be opened or written
    /// (the underlying I/O error, stringified — `StudyError` is
    /// `Clone + PartialEq`, `std::io::Error` is neither). A journal is
    /// opt-in, so this only fires when one was requested.
    Journal(String),
}

impl std::fmt::Display for StudyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StudyError::Library(e) => write!(f, "library does not cover the netlist: {e}"),
            StudyError::Sim(e) => write!(f, "simulation rejected the dataset: {e}"),
            StudyError::FeatureMismatch { model, dataset } => {
                write!(f, "dataset has {dataset} features but the model takes {model} inputs")
            }
            StudyError::NonCanonicalBase(e) => write!(f, "base circuit is not canonical: {e}"),
            StudyError::MissingContext { gene } => {
                if gene.is_exact() {
                    write!(f, "no evaluation context for baseline candidates")
                } else {
                    write!(
                        f,
                        "no evaluation context for coefficient-approximated candidates \
                         (gene {gene})"
                    )
                }
            }
            StudyError::Fabric(e) => write!(f, "evaluation fabric failed the batch: {e}"),
            StudyError::Journal(e) => write!(f, "search journal I/O failed: {e}"),
        }
    }
}

impl std::error::Error for StudyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StudyError::Library(e) => Some(e),
            StudyError::Sim(e) => Some(e),
            StudyError::Fabric(e) => Some(e),
            StudyError::NonCanonicalBase(e) => Some(e),
            StudyError::FeatureMismatch { .. }
            | StudyError::MissingContext { .. }
            | StudyError::Journal(_) => None,
        }
    }
}

impl From<PdkError> for StudyError {
    fn from(e: PdkError) -> Self {
        StudyError::Library(e)
    }
}

impl From<SimError> for StudyError {
    fn from(e: SimError) -> Self {
        StudyError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failing_layer() {
        let e = StudyError::Sim(SimError::EmptyStimulus);
        assert!(e.to_string().contains("empty stimulus"));
        let m = StudyError::MissingContext { gene: crate::explore::CoeffGene::per_layer(&[2, 1]) };
        assert!(m.to_string().contains("coefficient-approximated"));
        assert!(m.to_string().contains("2/1"), "{m}");
        let b = StudyError::MissingContext { gene: crate::explore::CoeffGene::exact() };
        assert!(b.to_string().contains("baseline"));
    }

    #[test]
    fn conversions_wrap_the_layer_error() {
        let s: StudyError = SimError::EmptyStimulus.into();
        assert_eq!(s, StudyError::Sim(SimError::EmptyStimulus));
    }
}
