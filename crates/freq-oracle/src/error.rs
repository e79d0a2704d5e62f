//! Error type for oracle construction and use.

use std::fmt;

/// Errors raised when configuring or feeding a frequency oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// The domain must contain at least one item.
    EmptyDomain,
    /// HRR requires a power-of-two domain (the Hadamard matrix is only
    /// defined for `D = 2^k`).
    DomainNotPowerOfTwo(usize),
    /// A reported or encoded value lies outside the configured domain.
    ValueOutOfDomain {
        /// The offending value.
        value: usize,
        /// The configured domain size.
        domain: usize,
    },
    /// A report was built for a different domain size than the server's.
    ReportDomainMismatch {
        /// Domain the report was encoded for.
        report: usize,
        /// Domain the server expects.
        server: usize,
    },
    /// A subtraction or retraction would drive an accumulator negative —
    /// the subtrahend state (or retracted report) was never merged into
    /// this state, so removing it is meaningless.
    SubtractUnderflow,
    /// Persisted accumulator state failed validation on load: wrong
    /// statistic length, or counts no sequence of absorbed reports could
    /// have produced (a per-item count above the report total).
    InvalidState(&'static str),
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyDomain => write!(f, "domain must contain at least one item"),
            Self::DomainNotPowerOfTwo(d) => {
                write!(f, "HRR requires a power-of-two domain, got {d}")
            }
            Self::ValueOutOfDomain { value, domain } => {
                write!(f, "value {value} outside domain of size {domain}")
            }
            Self::ReportDomainMismatch { report, server } => {
                write!(
                    f,
                    "report encoded for domain {report}, server expects {server}"
                )
            }
            Self::SubtractUnderflow => {
                write!(f, "subtrahend state was never merged into this accumulator")
            }
            Self::InvalidState(what) => write!(f, "invalid persisted state: {what}"),
        }
    }
}

impl std::error::Error for OracleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(OracleError::EmptyDomain
            .to_string()
            .contains("at least one"));
        assert!(OracleError::DomainNotPowerOfTwo(6)
            .to_string()
            .contains('6'));
        let e = OracleError::ValueOutOfDomain {
            value: 9,
            domain: 8,
        };
        assert!(e.to_string().contains("9"));
        let e = OracleError::ReportDomainMismatch {
            report: 4,
            server: 8,
        };
        assert!(e.to_string().contains("4"));
        assert!(OracleError::SubtractUnderflow
            .to_string()
            .contains("never merged"));
        assert!(OracleError::InvalidState("count above report total")
            .to_string()
            .contains("persisted state"));
    }
}
