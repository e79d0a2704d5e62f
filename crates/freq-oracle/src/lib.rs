//! Locally differentially private frequency oracles (paper §3).
//!
//! A *frequency oracle* lets an untrusted aggregator estimate the frequency
//! of every item in a public domain `[D]` from one ε-LDP report per user.
//! This crate implements the three state-of-the-art primitives the paper
//! builds its range-query mechanisms on, behind the common
//! [`PointOracle`] trait:
//!
//! | Mechanism | Module | Communication | Aggregation | Variance |
//! |-----------|--------|---------------|-------------|----------|
//! | Optimized Unary Encoding | [`oue`] | `D` bits | `O(N·D)` bits, trivially parallel | `4e^ε/(N(e^ε−1)²)` |
//! | Optimal Local Hashing | [`olh`]| `O(log D)` bits | `O(N·D)` hash evals (slow) | same |
//! | Hadamard Randomized Response | [`hrr`] | `log2 D + 1` bits | `O(N + D log D)` | same |
//!
//! Supporting modules: [`grr`] (k-ary randomized response, used inside
//! OLH), [`hash`] (a universal hash family), [`binomial`] (population-scale
//! samplers powering the paper's statistically-equivalent simulations) and
//! [`variance`] (the shared theoretical `VF`).
//!
//! # Example
//!
//! ```
//! use ldp_freq_oracle::{Epsilon, Hrr, PointOracle};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let eps = Epsilon::from_exp(3.0);
//! let mut oracle = Hrr::new(16, eps).unwrap();
//! // 10k users, 80% holding item 3 and 20% holding item 12.
//! for i in 0..10_000 {
//!     let value = if i % 5 == 0 { 12 } else { 3 };
//!     let report = oracle.encode(value, &mut rng).unwrap();
//!     oracle.absorb(&report).unwrap();
//! }
//! let est = oracle.estimate();
//! assert!((est[3] - 0.8).abs() < 0.1);
//! ```

pub mod binomial;
pub mod error;
pub mod grr;
pub mod hash;
pub mod hrr;
pub mod olh;
pub mod oracle;
pub mod oue;
pub mod params;
pub mod sue;
pub mod variance;

pub use error::OracleError;
pub use grr::Grr;
pub use hash::UniversalHash;
pub use hrr::{Hrr, HrrReport};
pub use olh::{Olh, OlhReport};
pub use oracle::{FrequencyOracle, PointOracle};
pub use oue::{Oue, OueReport};
pub use params::{binary_rr_keep_prob, grr_keep_prob, olh_hash_range, oue_probs, Epsilon};
pub use sue::{sue_probs, sue_variance, Sue};
pub use variance::{frequency_oracle_variance, hrr_exact_variance, psi};

/// A frequency oracle of any of the three kinds, behind one concrete type.
///
/// The hierarchical-histogram framework is "agnostic to the choice of the
/// histogram estimation primitive F" (paper §5); this enum is how that
/// plug-in point is expressed without generics leaking into every
/// mechanism signature.
#[derive(Debug, Clone)]
pub enum AnyOracle {
    /// Optimized Unary Encoding.
    Oue(Oue),
    /// Optimal Local Hashing.
    Olh(Olh),
    /// Hadamard Randomized Response.
    Hrr(Hrr),
    /// Symmetric Unary Encoding (basic RAPPOR baseline).
    Sue(Sue),
}

/// A report from any oracle kind.
#[derive(Debug, Clone)]
pub enum AnyReport {
    /// An OUE bit vector.
    Oue(OueReport),
    /// An OLH (hash, value) pair.
    Olh(OlhReport),
    /// An HRR (index, bit) pair.
    Hrr(HrrReport),
    /// A SUE bit vector (same wire format as OUE).
    Sue(OueReport),
}

impl AnyOracle {
    /// Instantiates the requested primitive over `[domain]`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying constructor errors (empty domain; HRR on
    /// a non-power-of-two domain).
    pub fn new(kind: FrequencyOracle, domain: usize, eps: Epsilon) -> Result<Self, OracleError> {
        Ok(match kind {
            FrequencyOracle::Oue => Self::Oue(Oue::new(domain, eps)?),
            FrequencyOracle::Olh => Self::Olh(Olh::new(domain, eps)?),
            FrequencyOracle::Hrr => Self::Hrr(Hrr::new(domain, eps)?),
            FrequencyOracle::Sue => Self::Sue(Sue::new(domain, eps)?),
        })
    }

    /// Merges another shard of the same kind and shape into this one.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] when kinds or shapes
    /// differ.
    pub fn merge(&mut self, other: &Self) -> Result<(), OracleError> {
        match (self, other) {
            (Self::Oue(a), Self::Oue(b)) => a.merge(b),
            (Self::Olh(a), Self::Olh(b)) => a.merge(b),
            (Self::Hrr(a), Self::Hrr(b)) => a.merge(b),
            (Self::Sue(a), Self::Sue(b)) => a.merge(b),
            (s, o) => Err(OracleError::ReportDomainMismatch {
                report: o.domain(),
                server: s.domain(),
            }),
        }
    }

    /// Removes a previously merged shard of the same kind and shape — the
    /// exact inverse of [`AnyOracle::merge`], enabling sliding-window
    /// aggregation (retire the oldest epoch by subtraction instead of
    /// recomputing the surviving epochs from scratch).
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] when kinds or shapes
    /// differ and [`OracleError::SubtractUnderflow`] when `other` was
    /// never merged into this state.
    pub fn subtract(&mut self, other: &Self) -> Result<(), OracleError> {
        match (self, other) {
            (Self::Oue(a), Self::Oue(b)) => a.subtract(b),
            (Self::Olh(a), Self::Olh(b)) => a.subtract(b),
            (Self::Hrr(a), Self::Hrr(b)) => a.subtract(b),
            (Self::Sue(a), Self::Sue(b)) => a.subtract(b),
            (s, o) => Err(OracleError::ReportDomainMismatch {
                report: o.domain(),
                server: s.domain(),
            }),
        }
    }

    /// Checks — without mutating any state — that `report` has the kind
    /// and shape this oracle's `absorb` would accept. Lets multi-oracle
    /// aggregators (e.g. the budget-split server, which absorbs one layer
    /// per level) validate an entire report *before* touching any
    /// accumulator, so a mid-report rejection can never leave partially
    /// absorbed state behind.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] exactly when `absorb`
    /// would.
    pub fn validate(&self, report: &AnyReport) -> Result<(), OracleError> {
        let (report_shape, server_shape) = match (self, report) {
            (Self::Oue(o), AnyReport::Oue(r)) => (r.domain(), o.domain()),
            (Self::Sue(o), AnyReport::Sue(r)) => (r.domain(), o.domain()),
            (Self::Hrr(o), AnyReport::Hrr(r)) => (r.domain(), o.domain()),
            (Self::Olh(o), AnyReport::Olh(r)) => (r.hash().range(), o.hash_range()),
            (s, _) => (0, s.domain()),
        };
        if report_shape == server_shape {
            Ok(())
        } else {
            Err(OracleError::ReportDomainMismatch {
                report: report_shape,
                server: server_shape,
            })
        }
    }

    /// Removes one previously absorbed report — the exact inverse of
    /// [`PointOracle::absorb`], dispatched like it.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] exactly when `absorb`
    /// would and [`OracleError::SubtractUnderflow`] when the report cannot
    /// have been absorbed. The accumulator is unchanged on error.
    pub fn retract(&mut self, report: &AnyReport) -> Result<(), OracleError> {
        match (self, report) {
            (Self::Oue(o), AnyReport::Oue(r)) => o.retract(r),
            (Self::Olh(o), AnyReport::Olh(r)) => o.retract(r),
            (Self::Hrr(o), AnyReport::Hrr(r)) => o.retract(r),
            (Self::Sue(o), AnyReport::Sue(r)) => o.retract(r),
            (s, _) => Err(OracleError::ReportDomainMismatch {
                report: 0,
                server: s.domain(),
            }),
        }
    }

    /// Which primitive this is.
    #[must_use]
    pub fn kind(&self) -> FrequencyOracle {
        match self {
            Self::Oue(_) => FrequencyOracle::Oue,
            Self::Olh(_) => FrequencyOracle::Olh,
            Self::Hrr(_) => FrequencyOracle::Hrr,
            Self::Sue(_) => FrequencyOracle::Sue,
        }
    }
}

impl PointOracle for AnyOracle {
    type Report = AnyReport;

    fn domain(&self) -> usize {
        match self {
            Self::Oue(o) => o.domain(),
            Self::Olh(o) => o.domain(),
            Self::Hrr(o) => o.domain(),
            Self::Sue(o) => o.domain(),
        }
    }

    fn epsilon(&self) -> Epsilon {
        match self {
            Self::Oue(o) => o.epsilon(),
            Self::Olh(o) => o.epsilon(),
            Self::Hrr(o) => o.epsilon(),
            Self::Sue(o) => o.epsilon(),
        }
    }

    fn encode(&self, value: usize, rng: &mut dyn rand::RngCore) -> Result<AnyReport, OracleError> {
        Ok(match self {
            Self::Oue(o) => AnyReport::Oue(o.encode(value, rng)?),
            Self::Olh(o) => AnyReport::Olh(o.encode(value, rng)?),
            Self::Hrr(o) => AnyReport::Hrr(o.encode(value, rng)?),
            Self::Sue(o) => AnyReport::Sue(o.encode(value, rng)?),
        })
    }

    fn absorb(&mut self, report: &AnyReport) -> Result<(), OracleError> {
        match (self, report) {
            (Self::Oue(o), AnyReport::Oue(r)) => o.absorb(r),
            (Self::Olh(o), AnyReport::Olh(r)) => o.absorb(r),
            (Self::Hrr(o), AnyReport::Hrr(r)) => o.absorb(r),
            (Self::Sue(o), AnyReport::Sue(r)) => o.absorb(r),
            (s, _) => Err(OracleError::ReportDomainMismatch {
                report: 0,
                server: s.domain(),
            }),
        }
    }

    fn absorb_population(
        &mut self,
        true_counts: &[u64],
        rng: &mut dyn rand::RngCore,
    ) -> Result<(), OracleError> {
        match self {
            Self::Oue(o) => o.absorb_population(true_counts, rng),
            Self::Olh(o) => o.absorb_population(true_counts, rng),
            Self::Hrr(o) => o.absorb_population(true_counts, rng),
            Self::Sue(o) => o.absorb_population(true_counts, rng),
        }
    }

    fn num_reports(&self) -> u64 {
        match self {
            Self::Oue(o) => o.num_reports(),
            Self::Olh(o) => o.num_reports(),
            Self::Hrr(o) => o.num_reports(),
            Self::Sue(o) => o.num_reports(),
        }
    }

    fn estimate(&self) -> Vec<f64> {
        match self {
            Self::Oue(o) => o.estimate(),
            Self::Olh(o) => o.estimate(),
            Self::Hrr(o) => o.estimate(),
            Self::Sue(o) => o.estimate(),
        }
    }

    fn theoretical_variance(&self) -> f64 {
        match self {
            Self::Oue(o) => o.theoretical_variance(),
            Self::Olh(o) => o.theoretical_variance(),
            Self::Hrr(o) => o.theoretical_variance(),
            Self::Sue(o) => o.theoretical_variance(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn any_oracle_dispatches_all_kinds() {
        let mut rng = StdRng::seed_from_u64(51);
        let eps = Epsilon::new(1.1);
        for kind in [
            FrequencyOracle::Oue,
            FrequencyOracle::Olh,
            FrequencyOracle::Hrr,
            FrequencyOracle::Sue,
        ] {
            let mut oracle = AnyOracle::new(kind, 8, eps).unwrap();
            assert_eq!(oracle.kind(), kind);
            assert_eq!(oracle.domain(), 8);
            for _ in 0..500 {
                let r = oracle.encode(3, &mut rng).unwrap();
                oracle.absorb(&r).unwrap();
            }
            let est = oracle.estimate();
            assert!((est[3] - 1.0).abs() < 0.35, "{kind}: est[3] = {}", est[3]);
        }
    }

    #[test]
    fn any_oracle_rejects_mismatched_reports() {
        let mut rng = StdRng::seed_from_u64(52);
        let eps = Epsilon::new(1.1);
        let oue = AnyOracle::new(FrequencyOracle::Oue, 8, eps).unwrap();
        let mut hrr = AnyOracle::new(FrequencyOracle::Hrr, 8, eps).unwrap();
        let r = oue.encode(0, &mut rng).unwrap();
        assert!(hrr.absorb(&r).is_err());
    }

    #[test]
    fn hrr_through_enum_requires_power_of_two() {
        let eps = Epsilon::new(1.1);
        assert!(AnyOracle::new(FrequencyOracle::Hrr, 12, eps).is_err());
        assert!(AnyOracle::new(FrequencyOracle::Oue, 12, eps).is_ok());
    }
}
