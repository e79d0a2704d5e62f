//! Mergeable aggregator state — the substrate for sharded, distributed
//! aggregation.
//!
//! Every mechanism's server accumulates *sufficient statistics* that are
//! plain integer sums over user reports (noisy bit counts for OUE/SUE,
//! support counts for OLH, signed coefficient sums for HRR). Sums are
//! associative and commutative, so a population can be split across any
//! number of independent shards — each absorbing its own cohort — and the
//! shard states added together afterwards. The merged state is *identical*
//! (bit-for-bit, not just statistically) to what a single server absorbing
//! every report in sequence would hold, which is what makes the sharded
//! service in `ldp-service` a pure performance change with no accuracy
//! semantics of its own.
//!
//! [`MergeableServer`] captures that contract behind one trait so generic
//! infrastructure (shard pools, load generators, snapshot builders) can be
//! written once for all six mechanisms.

use crate::error::RangeError;
use crate::flat::FlatServer;
use crate::haar::calibration::{HaarOueReport, HaarOueServer};
use crate::haar::{HaarHrrReport, HaarHrrServer};
use crate::hh::split::{HhSplitReport, HhSplitServer};
use crate::hh::{HhReport, HhServer};
use crate::multidim::{Hh2dReport, Hh2dServer};
use ldp_freq_oracle::AnyReport;

/// An aggregator whose state from disjoint user cohorts can be combined
/// exactly.
///
/// # Contract
///
/// For any partition of a report sequence into shards, absorbing each
/// shard into its own fresh server and merging the results must leave the
/// same state as absorbing the full sequence into one server:
///
/// ```text
/// merge(absorb_all(s₁, A), absorb_all(s₂, B))  ==  absorb_all(s, A ++ B)
/// ```
///
/// In particular `merge` is associative and commutative, and the order in
/// which reports are absorbed never matters. Implementations uphold this
/// by keeping only integer sufficient statistics; the service crate's
/// property tests check it for every mechanism.
pub trait MergeableServer: Clone + Send {
    /// The per-user report type this server absorbs.
    type Report: Clone + Send + Sync;

    /// Accumulates one user report.
    ///
    /// # Errors
    ///
    /// Rejects reports whose shape does not match this server.
    fn absorb(&mut self, report: &Self::Report) -> Result<(), RangeError>;

    /// Removes one report previously accumulated by
    /// [`MergeableServer::absorb`] — its exact inverse on the integer
    /// sufficient statistics:
    ///
    /// ```text
    /// absorb(s, r).retract(r)  ==  s        (bit-for-bit)
    /// ```
    ///
    /// This is what lets a service absorb an all-or-nothing batch straight
    /// into live state: `absorb` fails before it mutates anything, so when
    /// frame `i` is refused, retracting frames `0..i` restores the state
    /// the batch found, with no staged copy of the accumulator.
    ///
    /// # Errors
    ///
    /// Rejects reports `absorb` would reject, and reports that were
    /// detectably never absorbed (a count would go negative). State is
    /// unchanged on error.
    fn retract(&mut self, report: &Self::Report) -> Result<(), RangeError>;

    /// Adds another shard's accumulated state into this one.
    ///
    /// # Errors
    ///
    /// Rejects shards built from a different configuration.
    fn merge(&mut self, other: &Self) -> Result<(), RangeError>;

    /// Total number of reports reflected in this state.
    fn num_reports(&self) -> u64;
}

/// A mergeable aggregator whose merges can also be *undone* exactly.
///
/// # Contract
///
/// `subtract` is the bit-identical inverse of [`MergeableServer::merge`]:
/// for any states `a` and `b` of the same shape,
///
/// ```text
/// merge(a, b).subtract(b)  ==  a        (bit-for-bit)
/// ```
///
/// This holds because every mechanism's state is a vector of integer
/// sufficient statistics — integer addition is exactly invertible, with
/// none of the rounding drift a float accumulator would pick up. The
/// capability is what makes sliding-window aggregation cheap: a window of
/// `K` epochs retires its oldest epoch with one `subtract` (`O(state)`)
/// instead of re-merging the surviving `K − 1` epochs from scratch.
///
/// Subtracting state that was never merged in is a contract violation;
/// implementations detect it where the integers can witness it (a count
/// would go negative, a report total would underflow) and reject with an
/// error, leaving the accumulator unchanged.
pub trait SubtractableServer: MergeableServer {
    /// Removes another accumulator's state from this one — the exact
    /// inverse of [`MergeableServer::merge`].
    ///
    /// # Errors
    ///
    /// Rejects accumulators built from a different configuration, and
    /// state that was detectably never merged into this one.
    fn subtract(&mut self, other: &Self) -> Result<(), RangeError>;
}

impl MergeableServer for FlatServer {
    type Report = AnyReport;

    fn absorb(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        FlatServer::absorb(self, report)
    }

    fn retract(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        FlatServer::retract(self, report)
    }

    fn merge(&mut self, other: &Self) -> Result<(), RangeError> {
        FlatServer::merge(self, other)
    }

    fn num_reports(&self) -> u64 {
        FlatServer::num_reports(self)
    }
}

impl MergeableServer for HhServer {
    type Report = HhReport;

    fn absorb(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        HhServer::absorb(self, report)
    }

    fn retract(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        HhServer::retract(self, report)
    }

    fn merge(&mut self, other: &Self) -> Result<(), RangeError> {
        HhServer::merge(self, other)
    }

    fn num_reports(&self) -> u64 {
        HhServer::num_reports(self)
    }
}

impl MergeableServer for HhSplitServer {
    type Report = HhSplitReport;

    fn absorb(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        HhSplitServer::absorb(self, report)
    }

    fn retract(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        HhSplitServer::retract(self, report)
    }

    fn merge(&mut self, other: &Self) -> Result<(), RangeError> {
        HhSplitServer::merge(self, other)
    }

    fn num_reports(&self) -> u64 {
        HhSplitServer::num_reports(self)
    }
}

impl MergeableServer for HaarHrrServer {
    type Report = HaarHrrReport;

    fn absorb(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        HaarHrrServer::absorb(self, report)
    }

    fn retract(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        HaarHrrServer::retract(self, report)
    }

    fn merge(&mut self, other: &Self) -> Result<(), RangeError> {
        HaarHrrServer::merge(self, other)
    }

    fn num_reports(&self) -> u64 {
        HaarHrrServer::num_reports(self)
    }
}

impl MergeableServer for HaarOueServer {
    type Report = HaarOueReport;

    fn absorb(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        HaarOueServer::absorb(self, report)
    }

    fn retract(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        HaarOueServer::retract(self, report)
    }

    fn merge(&mut self, other: &Self) -> Result<(), RangeError> {
        HaarOueServer::merge(self, other)
    }

    fn num_reports(&self) -> u64 {
        HaarOueServer::num_reports(self)
    }
}

impl MergeableServer for Hh2dServer {
    type Report = Hh2dReport;

    fn absorb(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        Hh2dServer::absorb(self, report)
    }

    fn retract(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        Hh2dServer::retract(self, report)
    }

    fn merge(&mut self, other: &Self) -> Result<(), RangeError> {
        Hh2dServer::merge(self, other)
    }

    fn num_reports(&self) -> u64 {
        Hh2dServer::num_reports(self)
    }
}

impl SubtractableServer for FlatServer {
    fn subtract(&mut self, other: &Self) -> Result<(), RangeError> {
        FlatServer::subtract(self, other)
    }
}

impl SubtractableServer for HhServer {
    fn subtract(&mut self, other: &Self) -> Result<(), RangeError> {
        HhServer::subtract(self, other)
    }
}

impl SubtractableServer for HhSplitServer {
    fn subtract(&mut self, other: &Self) -> Result<(), RangeError> {
        HhSplitServer::subtract(self, other)
    }
}

impl SubtractableServer for HaarHrrServer {
    fn subtract(&mut self, other: &Self) -> Result<(), RangeError> {
        HaarHrrServer::subtract(self, other)
    }
}

impl SubtractableServer for HaarOueServer {
    fn subtract(&mut self, other: &Self) -> Result<(), RangeError> {
        HaarOueServer::subtract(self, other)
    }
}

impl SubtractableServer for Hh2dServer {
    fn subtract(&mut self, other: &Self) -> Result<(), RangeError> {
        Hh2dServer::subtract(self, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FlatConfig, HaarConfig, HhConfig};
    use crate::estimate::RangeEstimate;
    use crate::flat::FlatClient;
    use crate::haar::HaarHrrClient;
    use crate::hh::HhClient;
    use ldp_freq_oracle::Epsilon;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Generic helper exercising the trait contract through a `dyn`-free
    /// generic path: shard-merge equals sequential absorb exactly.
    fn assert_sharded_equals_sequential<S, F, R>(
        make: F,
        reports: &[S::Report],
        shards: usize,
        estimate: R,
    ) where
        S: MergeableServer,
        F: Fn() -> S,
        R: Fn(&S) -> Vec<f64>,
    {
        let mut sequential = make();
        for r in reports {
            sequential.absorb(r).unwrap();
        }

        let mut pool: Vec<S> = (0..shards).map(|_| make()).collect();
        for (i, r) in reports.iter().enumerate() {
            pool[i % shards].absorb(r).unwrap();
        }
        let mut merged = pool.remove(0);
        for shard in &pool {
            merged.merge(shard).unwrap();
        }

        assert_eq!(sequential.num_reports(), merged.num_reports());
        let a = estimate(&sequential);
        let b = estimate(&merged);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!(
                x.to_bits() == y.to_bits(),
                "merged estimate differs: {x} vs {y}"
            );
        }
    }

    #[test]
    fn flat_sharding_is_exact() {
        let eps = Epsilon::new(1.1);
        let config = FlatConfig::new(32, eps).unwrap();
        let client = FlatClient::new(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(301);
        let reports: Vec<_> = (0..500)
            .map(|i| client.report(i % 32, &mut rng).unwrap())
            .collect();
        assert_sharded_equals_sequential(
            || FlatServer::new(&config).unwrap(),
            &reports,
            4,
            |s: &FlatServer| s.estimate().frequencies().to_vec(),
        );
    }

    #[test]
    fn hh_sharding_is_exact() {
        let eps = Epsilon::new(1.1);
        let config = HhConfig::new(64, 4, eps).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(302);
        let reports: Vec<_> = (0..500)
            .map(|i| client.report(i % 64, &mut rng).unwrap())
            .collect();
        assert_sharded_equals_sequential(
            || HhServer::new(config.clone()).unwrap(),
            &reports,
            3,
            |s: &HhServer| s.estimate_consistent().to_frequency_estimate().cdf(),
        );
    }

    /// `merge(a, b).subtract(b) ≡ a` bit-for-bit, and subtracting the
    /// same state twice underflows rather than corrupting.
    fn assert_subtract_inverts_merge<S, F, R>(make: F, reports: &[S::Report], estimate: R)
    where
        S: SubtractableServer,
        F: Fn() -> S,
        R: Fn(&S) -> Vec<f64>,
    {
        let split = reports.len() / 2;
        let mut a = make();
        for r in &reports[..split] {
            a.absorb(r).unwrap();
        }
        let mut b = make();
        for r in &reports[split..] {
            b.absorb(r).unwrap();
        }
        let before = estimate(&a);
        let mut merged = a.clone();
        merged.merge(&b).unwrap();
        merged.subtract(&b).unwrap();
        assert_eq!(a.num_reports(), merged.num_reports());
        for (x, y) in before.iter().zip(&estimate(&merged)) {
            assert!(
                x.to_bits() == y.to_bits(),
                "subtract did not invert merge: {x} vs {y}"
            );
        }
        // `b` is gone from `merged`; removing it again must be rejected
        // (unless b is empty, in which case it is a no-op).
        if b.num_reports() > 0 {
            assert!(merged.subtract(&b).is_err(), "double subtraction allowed");
        }
    }

    #[test]
    fn flat_subtract_inverts_merge() {
        let eps = Epsilon::new(1.1);
        let config = FlatConfig::new(32, eps).unwrap();
        let client = FlatClient::new(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(311);
        let reports: Vec<_> = (0..400)
            .map(|i| client.report(i % 32, &mut rng).unwrap())
            .collect();
        assert_subtract_inverts_merge(
            || FlatServer::new(&config).unwrap(),
            &reports,
            |s: &FlatServer| s.estimate().frequencies().to_vec(),
        );
    }

    #[test]
    fn hh_subtract_inverts_merge() {
        let eps = Epsilon::new(1.1);
        let config = HhConfig::new(64, 4, eps).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(312);
        let reports: Vec<_> = (0..400)
            .map(|i| client.report(i % 64, &mut rng).unwrap())
            .collect();
        assert_subtract_inverts_merge(
            || HhServer::new(config.clone()).unwrap(),
            &reports,
            |s: &HhServer| s.estimate_consistent().to_frequency_estimate().cdf(),
        );
    }

    #[test]
    fn haar_subtract_inverts_merge() {
        let eps = Epsilon::new(1.1);
        let config = HaarConfig::new(64, eps).unwrap();
        let client = HaarHrrClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(313);
        let reports: Vec<_> = (0..400)
            .map(|i| client.report(i % 64, &mut rng).unwrap())
            .collect();
        assert_subtract_inverts_merge(
            || HaarHrrServer::new(config.clone()).unwrap(),
            &reports,
            |s: &HaarHrrServer| s.estimate().to_frequency_estimate().cdf(),
        );
    }

    #[test]
    fn subtract_rejects_mismatched_shapes() {
        let eps = Epsilon::new(1.0);
        let mut a = HhServer::new(HhConfig::new(64, 2, eps).unwrap()).unwrap();
        let b = HhServer::new(HhConfig::new(64, 4, eps).unwrap()).unwrap();
        assert!(SubtractableServer::subtract(&mut a, &b).is_err());
    }

    #[test]
    fn haar_sharding_is_exact() {
        let eps = Epsilon::new(1.1);
        let config = HaarConfig::new(64, eps).unwrap();
        let client = HaarHrrClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(303);
        let reports: Vec<_> = (0..500)
            .map(|i| client.report(i % 64, &mut rng).unwrap())
            .collect();
        assert_sharded_equals_sequential(
            || HaarHrrServer::new(config.clone()).unwrap(),
            &reports,
            5,
            |s: &HaarHrrServer| s.estimate().to_frequency_estimate().cdf(),
        );
    }
}
