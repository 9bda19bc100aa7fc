//! Typed simulation errors.
//!
//! A malformed testbench must not poison a serving worker, so both
//! evaluation paths ([`try_simulate`] and [`CompiledNetlist::run`]) and
//! the stimulus-taking helpers (`compare`, `vcd`) surface these errors
//! instead of panicking; study code that treats a malformed testbench
//! as a bug calls `.expect(..)` on them.
//!
//! [`try_simulate`]: crate::try_simulate
//! [`CompiledNetlist::run`]: crate::CompiledNetlist::run

/// Why a simulation request could not be executed.
///
/// `Display` messages keep the phrasing of the historical panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The stimulus provides no samples at all.
    EmptyStimulus,
    /// The stimulus lacks samples for an input port of the netlist.
    MissingPort {
        /// The uncovered input port.
        port: String,
    },
    /// Ports disagree on the number of samples.
    SampleCountMismatch {
        /// The offending port.
        port: String,
        /// Its sample count.
        got: usize,
        /// The count established by the other ports.
        expected: usize,
    },
    /// A sample value does not fit its port's width.
    OversizedSample {
        /// The port being driven.
        port: String,
        /// The offending value.
        value: u64,
        /// The port width in bits.
        width: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EmptyStimulus => write!(f, "empty stimulus"),
            SimError::MissingPort { port } => {
                write!(f, "stimulus misses input port `{port}`")
            }
            SimError::SampleCountMismatch { port, got, expected } => {
                write!(f, "port `{port}` has {got} samples, others have {expected}")
            }
            SimError::OversizedSample { port, value, width } => {
                write!(f, "sample {value} does not fit port `{port}` of width {width}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_historical_panic_phrasing() {
        assert_eq!(SimError::EmptyStimulus.to_string(), "empty stimulus");
        assert!(SimError::MissingPort { port: "x".into() }
            .to_string()
            .contains("misses input port `x`"));
        assert!(SimError::SampleCountMismatch { port: "x".into(), got: 2, expected: 3 }
            .to_string()
            .contains("has 2 samples, others have 3"));
        assert!(SimError::OversizedSample { port: "x".into(), value: 16, width: 4 }
            .to_string()
            .contains("does not fit port `x` of width 4"));
    }
}
