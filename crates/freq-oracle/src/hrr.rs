//! Hadamard Randomized Response (HRR) — paper §3.2.
//!
//! Each user samples one Hadamard index `j ∈ [D]` uniformly, computes the
//! single ±1 coefficient `φ[v][j] = (−1)^{⟨v, j⟩}` of her (scaled) one-hot
//! input, and reports it through binary randomized response with keep
//! probability `p = e^ε/(1 + e^ε)`. The whole report is `⌈log2 D⌉ + 1`
//! bits. The aggregator averages reports per index into unbiased Hadamard
//! coefficient estimates and inverts the transform in `O(N + D log D)`.
//!
//! HRR natively supports *signed* one-hot inputs (`±e_v`): negating the
//! input negates every coefficient but keeps it in {−1, +1}. That is
//! exactly what the Haar mechanism needs to release wavelet levels
//! (paper §4.6), exposed here as [`Hrr::encode_signed`]. With `D = 1` the
//! mechanism degenerates to plain one-bit randomized response, which the
//! Haar mechanism uses at its root level.

use rand::{Rng, RngCore};

use ldp_transforms::{fwht, hadamard_entry};

use crate::binomial::{sample_binomial, sample_uniform_multinomial};
use crate::oracle::PointOracle;
use crate::params::binary_rr_keep_prob;
use crate::variance::frequency_oracle_variance;
use crate::{Epsilon, OracleError};

/// One user's HRR report: the sampled coefficient index and the perturbed
/// ±1 coefficient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HrrReport {
    domain: usize,
    index: usize,
    bit: i8,
}

impl HrrReport {
    /// The sampled Hadamard index `j`.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The perturbed coefficient, −1 or +1.
    #[must_use]
    pub fn bit(&self) -> i8 {
        self.bit
    }

    /// The domain size this report was encoded against.
    #[must_use]
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Rebuilds a report from its transmitted parts (wire decoding).
    ///
    /// # Panics
    ///
    /// Panics unless `index < domain` and `bit` is ±1.
    #[must_use]
    pub fn from_parts(domain: usize, index: usize, bit: i8) -> Self {
        assert!(index < domain, "index {index} outside domain {domain}");
        assert!(bit == 1 || bit == -1, "bit must be ±1, got {bit}");
        Self { domain, index, bit }
    }
}

/// The HRR frequency oracle.
#[derive(Debug, Clone)]
pub struct Hrr {
    domain: usize,
    eps: Epsilon,
    p: f64,
    /// Per-index sums of reported ±1 bits.
    sums: Vec<i64>,
    reports: u64,
}

impl Hrr {
    /// Creates an HRR oracle; the domain must be a power of two.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::EmptyDomain`] or
    /// [`OracleError::DomainNotPowerOfTwo`].
    pub fn new(domain: usize, eps: Epsilon) -> Result<Self, OracleError> {
        if domain == 0 {
            return Err(OracleError::EmptyDomain);
        }
        if !domain.is_power_of_two() {
            return Err(OracleError::DomainNotPowerOfTwo(domain));
        }
        Ok(Self {
            domain,
            eps,
            p: binary_rr_keep_prob(eps),
            sums: vec![0; domain],
            reports: 0,
        })
    }

    /// Keep probability of the embedded binary randomized response.
    #[must_use]
    pub fn keep_prob(&self) -> f64 {
        self.p
    }

    /// The accumulated per-index ±1 coefficient sums — the oracle's
    /// complete mutable state (see [`crate::Oue::counts`]).
    #[must_use]
    pub fn sums(&self) -> &[i64] {
        &self.sums
    }

    /// Replaces the accumulator state with previously persisted
    /// coefficient sums — the restore dual of [`Hrr::sums`] (see
    /// [`crate::Oue::load_state`]).
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::InvalidState`] on a length mismatch or a
    /// sum whose magnitude exceeds `reports` (each report moves exactly
    /// one index by ±1). State is unchanged on error.
    pub fn load_state(&mut self, sums: Vec<i64>, reports: u64) -> Result<(), OracleError> {
        if sums.len() != self.domain {
            return Err(OracleError::InvalidState("sum vector length != domain"));
        }
        if sums.iter().any(|&s| s.unsigned_abs() > reports) {
            return Err(OracleError::InvalidState(
                "coefficient sum magnitude above report total",
            ));
        }
        self.sums = sums;
        self.reports = reports;
        Ok(())
    }

    /// Merges another shard's accumulator into this one.
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
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
        self.reports += other.reports;
        Ok(())
    }

    /// Removes a previously merged shard's coefficient sums — the exact
    /// inverse of [`Hrr::merge`] (see [`crate::Oue::subtract`]). The ±1
    /// sums are signed, so only the report count can witness that `other`
    /// was never merged in.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] on shape mismatch and
    /// [`OracleError::SubtractUnderflow`] when `other` reflects more
    /// reports than this state. The accumulator is unchanged on error.
    pub fn subtract(&mut self, other: &Self) -> Result<(), OracleError> {
        if other.domain != self.domain || other.eps != self.eps {
            return Err(OracleError::ReportDomainMismatch {
                report: other.domain,
                server: self.domain,
            });
        }
        if self.reports < other.reports {
            return Err(OracleError::SubtractUnderflow);
        }
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a -= b;
        }
        self.reports -= other.reports;
        Ok(())
    }

    /// Encodes a *signed* one-hot input `sign·e_value` (`sign ∈ {−1, +1}`).
    ///
    /// This is the primitive the Haar mechanism perturbs its wavelet levels
    /// with; [`PointOracle::encode`] is the `sign = +1` special case.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ValueOutOfDomain`] when `value ≥ D`.
    pub fn encode_signed(
        &self,
        value: usize,
        sign: i8,
        rng: &mut dyn RngCore,
    ) -> Result<HrrReport, OracleError> {
        debug_assert!(sign == 1 || sign == -1);
        if value >= self.domain {
            return Err(OracleError::ValueOutOfDomain {
                value,
                domain: self.domain,
            });
        }
        let index = rng.random_range(0..self.domain);
        let coeff = hadamard_entry(value, index) * sign;
        let bit = if rng.random::<f64>() < self.p {
            coeff
        } else {
            -coeff
        };
        Ok(HrrReport {
            domain: self.domain,
            index,
            bit,
        })
    }

    /// Absorbs an aggregate cohort with *signed* one-hot inputs:
    /// `plus[z]` users hold `+e_z` and `minus[z]` users hold `−e_z`.
    ///
    /// Statistically equivalent to per-user encoding up to two documented
    /// approximations that are negligible at population scale: the split of
    /// each index's users into +1/−1 coefficient holders uses a binomial in
    /// place of a hypergeometric (relative error `O(N_j/N)`), and large
    /// binomials use a Gaussian tail (see [`crate::binomial`]).
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] on length mismatch.
    pub fn absorb_population_signed(
        &mut self,
        plus: &[u64],
        minus: &[u64],
        rng: &mut dyn RngCore,
    ) -> Result<(), OracleError> {
        if plus.len() != self.domain || minus.len() != self.domain {
            return Err(OracleError::ReportDomainMismatch {
                report: plus.len().max(minus.len()),
                server: self.domain,
            });
        }
        let total: u64 = plus.iter().sum::<u64>() + minus.iter().sum::<u64>();
        if total == 0 {
            return Ok(());
        }
        // m_j = Σ_z (plus_z − minus_z)·(−1)^{⟨z,j⟩}: one FWHT over the
        // signed counts gives, for every index, how many users hold a +1
        // coefficient: A_j = (total + m_j)/2.
        let mut m: Vec<f64> = plus
            .iter()
            .zip(minus.iter())
            .map(|(&a, &b)| a as f64 - b as f64)
            .collect();
        fwht(&mut m);
        // Scatter users over indices (exact multinomial), then simulate the
        // binary randomized response of each index's cohort in aggregate.
        let per_index = sample_uniform_multinomial(rng, total, self.domain);
        for (j, &nj) in per_index.iter().enumerate() {
            if nj == 0 {
                continue;
            }
            let frac_plus = ((total as f64 + m[j]) / (2.0 * total as f64)).clamp(0.0, 1.0);
            let n_plus = sample_binomial(rng, nj, frac_plus);
            let n_minus = nj - n_plus;
            // +1 reports: truthful plus-holders and lying minus-holders.
            let t =
                sample_binomial(rng, n_plus, self.p) + sample_binomial(rng, n_minus, 1.0 - self.p);
            self.sums[j] += 2 * t as i64 - nj as i64;
        }
        self.reports += total;
        Ok(())
    }

    /// Estimated Hadamard coefficients `m̂_j ≈ Σ_z θ_z (−1)^{⟨z,j⟩}` of the
    /// (possibly signed) frequency vector, before inversion.
    #[must_use]
    pub fn coefficient_estimates(&self) -> Vec<f64> {
        if self.reports == 0 {
            return vec![0.0; self.domain];
        }
        let scale = self.domain as f64 / (self.reports as f64 * (2.0 * self.p - 1.0));
        self.sums.iter().map(|&s| s as f64 * scale).collect()
    }

    /// Removes one previously absorbed report — the exact inverse of
    /// [`PointOracle::absorb`] (see [`crate::Oue::retract`]). The ±1 sums
    /// are signed, so only the report count can witness a report that was
    /// never absorbed.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] exactly when `absorb`
    /// would, and [`OracleError::SubtractUnderflow`] when no report has
    /// been absorbed. The accumulator is unchanged on error.
    pub fn retract(&mut self, report: &HrrReport) -> Result<(), OracleError> {
        if report.domain != self.domain {
            return Err(OracleError::ReportDomainMismatch {
                report: report.domain,
                server: self.domain,
            });
        }
        if self.reports == 0 {
            return Err(OracleError::SubtractUnderflow);
        }
        self.sums[report.index] -= i64::from(report.bit);
        self.reports -= 1;
        Ok(())
    }
}

impl PointOracle for Hrr {
    type Report = HrrReport;

    fn domain(&self) -> usize {
        self.domain
    }

    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn encode(&self, value: usize, rng: &mut dyn RngCore) -> Result<HrrReport, OracleError> {
        self.encode_signed(value, 1, rng)
    }

    fn absorb(&mut self, report: &HrrReport) -> Result<(), OracleError> {
        if report.domain != self.domain {
            return Err(OracleError::ReportDomainMismatch {
                report: report.domain,
                server: self.domain,
            });
        }
        debug_assert!(report.index < self.domain);
        self.sums[report.index] += i64::from(report.bit);
        self.reports += 1;
        Ok(())
    }

    fn absorb_population(
        &mut self,
        true_counts: &[u64],
        rng: &mut dyn RngCore,
    ) -> Result<(), OracleError> {
        let minus = vec![0u64; true_counts.len()];
        self.absorb_population_signed(true_counts, &minus, rng)
    }

    fn num_reports(&self) -> u64 {
        self.reports
    }

    fn estimate(&self) -> Vec<f64> {
        let mut m = self.coefficient_estimates();
        // θ = (1/D)·φ·m : invert the (unnormalized) Hadamard transform.
        ldp_transforms::fwht_inverse(&mut m);
        m
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
    fn rejects_bad_domains() {
        assert_eq!(
            Hrr::new(0, Epsilon::new(1.0)).unwrap_err(),
            OracleError::EmptyDomain
        );
        assert_eq!(
            Hrr::new(12, Epsilon::new(1.0)).unwrap_err(),
            OracleError::DomainNotPowerOfTwo(12)
        );
        assert!(Hrr::new(1, Epsilon::new(1.0)).is_ok());
    }

    #[test]
    fn report_is_log_d_plus_one_bits() {
        // The report content is just (index, ±1): check the index range.
        let oracle = Hrr::new(16, Epsilon::new(1.1)).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..100 {
            let r = oracle.encode(7, &mut rng).unwrap();
            assert!(r.index() < 16);
            assert!(r.bit() == 1 || r.bit() == -1);
        }
    }

    #[test]
    fn estimates_are_unbiased_per_user_path() {
        let eps = Epsilon::new(1.1);
        let mut oracle = Hrr::new(8, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 60_000;
        for i in 0..n {
            let v = if i % 2 == 0 { 1 } else { 6 };
            let r = oracle.encode(v, &mut rng).unwrap();
            oracle.absorb(&r).unwrap();
        }
        let est = oracle.estimate();
        assert!((est[1] - 0.5).abs() < 0.04, "est[1]={}", est[1]);
        assert!((est[6] - 0.5).abs() < 0.04, "est[6]={}", est[6]);
        assert!(est[0].abs() < 0.04, "est[0]={}", est[0]);
        // Estimates always sum to ~the total mass picked up by index 0.
        let sum: f64 = est.iter().sum();
        assert!((sum - 1.0).abs() < 0.1, "sum {sum}");
    }

    #[test]
    fn signed_encoding_estimates_signed_mass() {
        let eps = Epsilon::new(2.0);
        let mut oracle = Hrr::new(4, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let n = 60_000;
        // Half the users hold +e_2, half hold −e_3.
        for i in 0..n {
            let r = if i % 2 == 0 {
                oracle.encode_signed(2, 1, &mut rng).unwrap()
            } else {
                oracle.encode_signed(3, -1, &mut rng).unwrap()
            };
            oracle.absorb(&r).unwrap();
        }
        let est = oracle.estimate();
        assert!((est[2] - 0.5).abs() < 0.04, "est[2]={}", est[2]);
        assert!((est[3] + 0.5).abs() < 0.04, "est[3]={}", est[3]);
        assert!(est[0].abs() < 0.04);
    }

    #[test]
    fn population_path_matches_user_path_mean() {
        let eps = Epsilon::new(1.0);
        let plus = vec![3_000u64, 0, 1_000, 0];
        let minus = vec![0u64, 0, 0, 1_000];
        let mut rng = StdRng::seed_from_u64(44);
        let mut mean = [0.0; 4];
        let reps = 60;
        for _ in 0..reps {
            let mut oracle = Hrr::new(4, eps).unwrap();
            oracle
                .absorb_population_signed(&plus, &minus, &mut rng)
                .unwrap();
            assert_eq!(oracle.num_reports(), 5_000);
            for (m, e) in mean.iter_mut().zip(oracle.estimate()) {
                *m += e / f64::from(reps);
            }
        }
        assert!((mean[0] - 0.6).abs() < 0.02, "{}", mean[0]);
        assert!((mean[2] - 0.2).abs() < 0.02, "{}", mean[2]);
        assert!((mean[3] + 0.2).abs() < 0.02, "{}", mean[3]);
    }

    #[test]
    fn empirical_variance_matches_theory() {
        let eps = Epsilon::new(1.0);
        let counts = vec![1_000u64; 8];
        let n: u64 = counts.iter().sum();
        let mut rng = StdRng::seed_from_u64(45);
        let reps = 500;
        let mut sq = 0.0;
        for _ in 0..reps {
            let mut oracle = Hrr::new(8, eps).unwrap();
            oracle.absorb_population(&counts, &mut rng).unwrap();
            sq += (oracle.estimate()[2] - 0.125_f64).powi(2);
        }
        let empirical = sq / f64::from(reps);
        // HRR's exact variance includes the coefficient-sampling term 1/N
        // on top of the common bound VF (see `variance::hrr_exact_variance`).
        let theory = crate::variance::hrr_exact_variance(eps, n);
        let ratio = empirical / theory;
        assert!((0.7..1.3).contains(&ratio), "ratio {ratio}");
        assert!(empirical > frequency_oracle_variance(eps, n) * 0.7);
    }

    #[test]
    fn domain_one_acts_as_binary_rr() {
        let eps = Epsilon::from_exp(3.0); // keep prob 0.75
        let mut oracle = Hrr::new(1, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(46);
        // 70% of users hold +1, 30% hold −1 (a signed mean of 0.4).
        let n = 40_000;
        for i in 0..n {
            let sign = if i % 10 < 7 { 1 } else { -1 };
            let r = oracle.encode_signed(0, sign, &mut rng).unwrap();
            oracle.absorb(&r).unwrap();
        }
        let est = oracle.estimate();
        assert_eq!(est.len(), 1);
        assert!((est[0] - 0.4).abs() < 0.03, "est {}", est[0]);
    }
}
