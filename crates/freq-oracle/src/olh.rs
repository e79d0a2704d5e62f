//! Optimal Local Hashing (OLH) — Wang et al., adopted by paper §3.2.
//!
//! Each user samples a universal hash `H : [D] → [g]` with `g = ⌊e^ε⌋ + 1`,
//! hashes her value, perturbs the hash with k-ary randomized response over
//! `[g]`, and transmits `(H, y)`. The aggregator counts, for every original
//! item `j`, how many reports *support* it (`H(j) = y`) and corrects the
//! bias: `θ̂[j] = (S[j]/N − 1/g)/(p − 1/g)`.
//!
//! OLH matches OUE's variance with far less communication, but decoding
//! costs `O(N·D)` — the paper drops it for large domains for exactly this
//! reason, and so do our benchmarks.

use rand::RngCore;

use crate::grr::Grr;
use crate::hash::UniversalHash;
use crate::oracle::PointOracle;
use crate::params::olh_hash_range;
use crate::variance::frequency_oracle_variance;
use crate::{Epsilon, OracleError};

/// One user's OLH report: her sampled hash function and perturbed hash
/// value — `O(log D)` bits in practice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OlhReport {
    hash: UniversalHash,
    value: usize,
}

impl OlhReport {
    /// The transmitted hash function.
    #[must_use]
    pub fn hash(&self) -> UniversalHash {
        self.hash
    }

    /// The perturbed hash value in `[g]`.
    #[must_use]
    pub fn value(&self) -> usize {
        self.value
    }

    /// Rebuilds a report from its transmitted parts (wire decoding).
    ///
    /// # Panics
    ///
    /// Panics unless `value` lies in the hash's range.
    #[must_use]
    pub fn from_parts(hash: UniversalHash, value: usize) -> Self {
        assert!(
            value < hash.range(),
            "hash value {value} outside range {}",
            hash.range()
        );
        Self { hash, value }
    }
}

/// The OLH frequency oracle.
#[derive(Debug, Clone)]
pub struct Olh {
    domain: usize,
    eps: Epsilon,
    g: usize,
    grr: Grr,
    /// Support counts per original item.
    support: Vec<u64>,
    reports: u64,
}

impl Olh {
    /// Creates an OLH oracle over `domain` items with the variance-optimal
    /// hash range `g = ⌊e^ε⌋ + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::EmptyDomain`] for a zero-size domain.
    pub fn new(domain: usize, eps: Epsilon) -> Result<Self, OracleError> {
        if domain == 0 {
            return Err(OracleError::EmptyDomain);
        }
        let g = olh_hash_range(eps);
        Ok(Self {
            domain,
            eps,
            g,
            grr: Grr::new(g, eps),
            support: vec![0; domain],
            reports: 0,
        })
    }

    /// The hash range `g`.
    #[must_use]
    pub fn hash_range(&self) -> usize {
        self.g
    }

    /// The accumulated support counts per item — the oracle's complete
    /// mutable state (see [`crate::Oue::counts`]).
    #[must_use]
    pub fn support(&self) -> &[u64] {
        &self.support
    }

    /// Replaces the accumulator state with previously persisted support
    /// counts — the restore dual of [`Olh::support`] (see
    /// [`crate::Oue::load_state`]).
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::InvalidState`] on a length mismatch or a
    /// per-item support above `reports` (each report supports an item at
    /// most once). State is unchanged on error.
    pub fn load_state(&mut self, support: Vec<u64>, reports: u64) -> Result<(), OracleError> {
        if support.len() != self.domain {
            return Err(OracleError::InvalidState("support vector length != domain"));
        }
        if support.iter().any(|&s| s > reports) {
            return Err(OracleError::InvalidState("item support above report total"));
        }
        self.support = support;
        self.reports = reports;
        Ok(())
    }

    /// Merges another shard's support counts into this one.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] on shape mismatch.
    pub fn merge(&mut self, other: &Self) -> Result<(), OracleError> {
        if other.domain != self.domain || other.eps != self.eps {
            return Err(OracleError::ReportDomainMismatch {
                report: other.domain,
                server: self.domain,
            });
        }
        for (a, b) in self.support.iter_mut().zip(&other.support) {
            *a += b;
        }
        self.reports += other.reports;
        Ok(())
    }

    /// Removes a previously merged shard's support counts — the exact
    /// inverse of [`Olh::merge`] (see [`crate::Oue::subtract`]).
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] on shape mismatch and
    /// [`OracleError::SubtractUnderflow`] if `other` was never merged into
    /// this state. The accumulator is unchanged on error.
    pub fn subtract(&mut self, other: &Self) -> Result<(), OracleError> {
        if other.domain != self.domain || other.eps != self.eps {
            return Err(OracleError::ReportDomainMismatch {
                report: other.domain,
                server: self.domain,
            });
        }
        if self.reports < other.reports
            || self.support.iter().zip(&other.support).any(|(a, b)| a < b)
        {
            return Err(OracleError::SubtractUnderflow);
        }
        for (a, b) in self.support.iter_mut().zip(&other.support) {
            *a -= b;
        }
        self.reports -= other.reports;
        Ok(())
    }

    /// Removes one previously absorbed report — the exact inverse of
    /// [`PointOracle::absorb`] (see [`crate::Oue::retract`]): every item
    /// the report supports loses one support count.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] exactly when `absorb`
    /// would, and [`OracleError::SubtractUnderflow`] if the report cannot
    /// have been absorbed (no reports, or a supported item whose count is
    /// zero). The accumulator is unchanged on error.
    pub fn retract(&mut self, report: &OlhReport) -> Result<(), OracleError> {
        if report.hash.range() != self.g {
            return Err(OracleError::ReportDomainMismatch {
                report: report.hash.range(),
                server: self.g,
            });
        }
        let supports = |j: usize| report.hash.eval(j) == report.value;
        if self.reports == 0
            || self
                .support
                .iter()
                .enumerate()
                .any(|(j, &s)| s == 0 && supports(j))
        {
            return Err(OracleError::SubtractUnderflow);
        }
        for (j, s) in self.support.iter_mut().enumerate() {
            if supports(j) {
                *s -= 1;
            }
        }
        self.reports -= 1;
        Ok(())
    }
}

impl PointOracle for Olh {
    type Report = OlhReport;

    fn domain(&self) -> usize {
        self.domain
    }

    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn encode(&self, value: usize, rng: &mut dyn RngCore) -> Result<OlhReport, OracleError> {
        if value >= self.domain {
            return Err(OracleError::ValueOutOfDomain {
                value,
                domain: self.domain,
            });
        }
        let hash = UniversalHash::sample(self.g, rng);
        let h = hash.eval(value);
        Ok(OlhReport {
            hash,
            value: self.grr.perturb(h, rng),
        })
    }

    fn absorb(&mut self, report: &OlhReport) -> Result<(), OracleError> {
        if report.hash.range() != self.g {
            return Err(OracleError::ReportDomainMismatch {
                report: report.hash.range(),
                server: self.g,
            });
        }
        // The O(D) support scan per report: this is the decode cost the
        // paper highlights as OLH's drawback.
        for (j, s) in self.support.iter_mut().enumerate() {
            if report.hash.eval(j) == report.value {
                *s += 1;
            }
        }
        self.reports += 1;
        Ok(())
    }

    fn absorb_population(
        &mut self,
        true_counts: &[u64],
        rng: &mut dyn RngCore,
    ) -> Result<(), OracleError> {
        if true_counts.len() != self.domain {
            return Err(OracleError::ReportDomainMismatch {
                report: true_counts.len(),
                server: self.domain,
            });
        }
        // Supports of different items are correlated through the shared
        // hash function of each user, so unlike OUE there is no
        // per-item-independent shortcut: we simulate users honestly. This
        // costs O(N·D) and is only intended for modest N/D (the paper also
        // restricts OLH to its smallest domain).
        for (value, &count) in true_counts.iter().enumerate() {
            for _ in 0..count {
                let report = self.encode(value, rng)?;
                self.absorb(&report)?;
            }
        }
        Ok(())
    }

    fn num_reports(&self) -> u64 {
        self.reports
    }

    fn estimate(&self) -> Vec<f64> {
        if self.reports == 0 {
            return vec![0.0; self.domain];
        }
        let n = self.reports as f64;
        let inv_g = 1.0 / self.g as f64;
        let denom = self.grr.keep_prob() - inv_g;
        self.support
            .iter()
            .map(|&s| (s as f64 / n - inv_g) / denom)
            .collect()
    }

    fn theoretical_variance(&self) -> f64 {
        frequency_oracle_variance(self.eps, self.reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hash_range_follows_epsilon() {
        let olh = Olh::new(10, Epsilon::from_exp(3.0)).unwrap();
        assert_eq!(olh.hash_range(), 4);
    }

    #[test]
    fn rejects_empty_domain() {
        assert_eq!(
            Olh::new(0, Epsilon::new(1.0)).unwrap_err(),
            OracleError::EmptyDomain
        );
    }

    #[test]
    fn rejects_out_of_domain() {
        let olh = Olh::new(4, Epsilon::new(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        assert!(olh.encode(4, &mut rng).is_err());
    }

    #[test]
    fn estimates_are_unbiased() {
        let eps = Epsilon::new(1.1);
        let mut olh = Olh::new(12, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(32);
        let n = 40_000usize;
        for i in 0..n {
            let v = if i % 4 == 0 { 2 } else { 7 }; // 25% item 2, 75% item 7
            let r = olh.encode(v, &mut rng).unwrap();
            olh.absorb(&r).unwrap();
        }
        let est = olh.estimate();
        assert!((est[2] - 0.25).abs() < 0.04, "est[2]={}", est[2]);
        assert!((est[7] - 0.75).abs() < 0.04, "est[7]={}", est[7]);
        assert!(est[0].abs() < 0.04, "est[0]={}", est[0]);
    }

    #[test]
    fn population_path_equivalent_to_user_path() {
        let eps = Epsilon::new(1.0);
        let counts = vec![600u64, 0, 0, 400, 0, 0, 0, 0];
        let mut rng = StdRng::seed_from_u64(33);
        let mut mean_est = [0.0; 8];
        let reps = 30;
        for _ in 0..reps {
            let mut olh = Olh::new(8, eps).unwrap();
            olh.absorb_population(&counts, &mut rng).unwrap();
            assert_eq!(olh.num_reports(), 1_000);
            for (m, e) in mean_est.iter_mut().zip(olh.estimate()) {
                *m += e / f64::from(reps);
            }
        }
        assert!((mean_est[0] - 0.6).abs() < 0.03, "{}", mean_est[0]);
        assert!((mean_est[3] - 0.4).abs() < 0.03, "{}", mean_est[3]);
    }

    #[test]
    fn empirical_variance_matches_theory() {
        let eps = Epsilon::new(1.0);
        let counts = vec![500u64; 4];
        let n: u64 = counts.iter().sum();
        let mut rng = StdRng::seed_from_u64(34);
        let reps = 400;
        let mut sq = 0.0;
        for _ in 0..reps {
            let mut olh = Olh::new(4, eps).unwrap();
            olh.absorb_population(&counts, &mut rng).unwrap();
            sq += (olh.estimate()[1] - 0.25_f64).powi(2);
        }
        let empirical = sq / f64::from(reps);
        let theory = frequency_oracle_variance(eps, n);
        let ratio = empirical / theory;
        assert!((0.7..1.35).contains(&ratio), "ratio {ratio}");
    }
}
