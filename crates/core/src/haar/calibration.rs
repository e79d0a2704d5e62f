//! `HaarOUE`: the alternative Haar level perturbation the paper calibrated
//! against and omitted.
//!
//! §4.6: "There are various straightforward ways to adapt the methods that
//! we have already … We have confirmed this choice \[HRR\] empirically in
//! calibration experiments (omitted for brevity): HRR is consistent with
//! other choices in terms of accuracy, and so is preferred for its
//! convenience and compactness." This module regenerates that omitted
//! calibration: OUE does not handle ±1 weights natively, so the signed
//! one-hot level vector over `M = 2^d` nodes is re-encoded as an
//! *unsigned* one-hot vector over `2M` cells — cell `2t` for `+e_t`, cell
//! `2t + 1` for `−e_t` — released through standard OUE, and decoded as
//! `d̂_t = θ̂[2t] − θ̂[2t+1]`.
//!
//! Accuracy is expected to match `HaarHRR` (both carry `VF` per cell);
//! the trade-off is communication: `2M` bits per user instead of
//! `log2 M + 1`. The `haar_calibration` integration test checks the
//! accuracy claim.

use rand::{Rng, RngCore};

use ldp_freq_oracle::{Oue, OueReport, PointOracle};
use ldp_transforms::HaarPyramid;

use crate::binomial_support::scatter_item_over_levels;
use crate::config::HaarConfig;
use crate::error::RangeError;
use crate::haar::{coefficient_of, HaarEstimate};

/// One user's `HaarOUE` report: sampled depth plus the perturbed unsigned
/// `2M`-cell vector.
#[derive(Debug, Clone)]
pub struct HaarOueReport {
    depth: u32,
    inner: OueReport,
}

impl HaarOueReport {
    /// Depth of the internal node whose coefficient was released.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The perturbed `2M`-cell vector (wire encoding).
    #[must_use]
    pub fn inner(&self) -> &OueReport {
        &self.inner
    }

    /// Rebuilds a report from its transmitted parts (wire decoding).
    #[must_use]
    pub fn from_parts(depth: u32, inner: OueReport) -> Self {
        Self { depth, inner }
    }
}

fn build_level_oracles(config: &HaarConfig) -> Result<Vec<Oue>, RangeError> {
    (0..config.height)
        .map(|d| Oue::new(2 * (1usize << d), config.epsilon).map_err(RangeError::from))
        .collect()
}

/// Client side of `HaarOUE`.
#[derive(Debug, Clone)]
pub struct HaarOueClient {
    config: HaarConfig,
    encoders: Vec<Oue>,
}

impl HaarOueClient {
    /// Builds the client.
    ///
    /// # Errors
    ///
    /// Propagates OUE construction failures.
    pub fn new(config: HaarConfig) -> Result<Self, RangeError> {
        let encoders = build_level_oracles(&config)?;
        Ok(Self { config, encoders })
    }

    /// Perturbs one user's value through the signed-to-unsigned cell
    /// encoding.
    ///
    /// # Errors
    ///
    /// Returns an error if `value` is outside the domain.
    pub fn report(&self, value: usize, rng: &mut dyn RngCore) -> Result<HaarOueReport, RangeError> {
        if value >= self.config.domain {
            return Err(RangeError::Oracle(
                ldp_freq_oracle::OracleError::ValueOutOfDomain {
                    value,
                    domain: self.config.domain,
                },
            ));
        }
        let depth = rng.random_range(0..self.config.height);
        let (node, sign) = coefficient_of(value, depth, self.config.height);
        let cell = 2 * node + usize::from(sign < 0);
        let inner = self.encoders[depth as usize].encode(cell, rng)?;
        Ok(HaarOueReport { depth, inner })
    }
}

/// Aggregator side of `HaarOUE`.
#[derive(Debug, Clone)]
pub struct HaarOueServer {
    config: HaarConfig,
    levels: Vec<Oue>,
}

impl HaarOueServer {
    /// Builds the server.
    ///
    /// # Errors
    ///
    /// Propagates OUE construction failures.
    pub fn new(config: HaarConfig) -> Result<Self, RangeError> {
        let levels = build_level_oracles(&config)?;
        Ok(Self { config, levels })
    }

    /// The per-level OUE accumulators (persistence codec access).
    pub(crate) fn oracles(&self) -> &[Oue] {
        &self.levels
    }

    /// Mutable per-level accumulators (persistence codec access).
    pub(crate) fn oracles_mut(&mut self) -> &mut [Oue] {
        &mut self.levels
    }

    /// Merges another shard's per-level accumulators into this one.
    ///
    /// # Errors
    ///
    /// Rejects shards over a different domain.
    pub fn merge(&mut self, other: &Self) -> Result<(), RangeError> {
        if other.config.domain != self.config.domain {
            return Err(RangeError::ReportShapeMismatch);
        }
        for (a, b) in self.levels.iter_mut().zip(&other.levels) {
            a.merge(b)?;
        }
        Ok(())
    }

    /// Removes a previously merged shard's per-level accumulators — the
    /// exact inverse of [`HaarOueServer::merge`]. Staged against a copy so
    /// an underflow at any level leaves this server untouched.
    ///
    /// # Errors
    ///
    /// Rejects shards over a different domain, or state that was never
    /// merged into this one.
    pub fn subtract(&mut self, other: &Self) -> Result<(), RangeError> {
        if other.config.domain != self.config.domain {
            return Err(RangeError::ReportShapeMismatch);
        }
        let mut staged = self.levels.clone();
        for (a, b) in staged.iter_mut().zip(&other.levels) {
            a.subtract(b)?;
        }
        self.levels = staged;
        Ok(())
    }

    /// Accumulates one user report.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range depths.
    pub fn absorb(&mut self, report: &HaarOueReport) -> Result<(), RangeError> {
        if report.depth >= self.config.height {
            return Err(RangeError::ReportShapeMismatch);
        }
        Ok(self.levels[report.depth as usize].absorb(&report.inner)?)
    }

    /// Removes one previously absorbed report from its level — the exact
    /// inverse of [`HaarOueServer::absorb`].
    ///
    /// # Errors
    ///
    /// Rejects reports `absorb` would reject, and reports that were
    /// detectably never absorbed; state is unchanged on error.
    pub fn retract(&mut self, report: &HaarOueReport) -> Result<(), RangeError> {
        if report.depth >= self.config.height {
            return Err(RangeError::ReportShapeMismatch);
        }
        Ok(self.levels[report.depth as usize].retract(&report.inner)?)
    }

    /// Absorbs a whole cohort (population-scale simulation; OUE noise is
    /// independent per cell, so the interleaved ± cell histogram feeds the
    /// exact binomial aggregate directly).
    ///
    /// # Errors
    ///
    /// Rejects histograms whose length differs from the domain.
    pub fn absorb_population(
        &mut self,
        true_counts: &[u64],
        rng: &mut dyn RngCore,
    ) -> Result<(), RangeError> {
        if true_counts.len() != self.config.domain {
            return Err(RangeError::ReportShapeMismatch);
        }
        let h = self.config.height;
        let mut cells: Vec<Vec<u64>> = (0..h).map(|d| vec![0; 2 * (1usize << d)]).collect();
        scatter_item_over_levels(true_counts, h as usize, rng, |z, level_idx, count| {
            let (node, sign) = coefficient_of(z, level_idx as u32, h);
            cells[level_idx][2 * node + usize::from(sign < 0)] += count;
        });
        for (oracle, counts) in self.levels.iter_mut().zip(&cells) {
            oracle.absorb_population(counts, rng)?;
        }
        Ok(())
    }

    /// Total reports across all levels.
    #[must_use]
    pub fn num_reports(&self) -> u64 {
        self.levels.iter().map(PointOracle::num_reports).sum()
    }

    /// Reconstructs the estimate as a Haar pyramid:
    /// `d̂_t = θ̂[2t] − θ̂[2t+1]` per node, scaling coefficient pinned to 1.
    #[must_use]
    pub fn estimate(&self) -> HaarEstimate {
        let diffs: Vec<Vec<f64>> = self
            .levels
            .iter()
            .map(|oracle| {
                let cells = oracle.estimate();
                cells
                    .chunks_exact(2)
                    .map(|pair| pair[0] - pair[1])
                    .collect()
            })
            .collect();
        HaarEstimate::from_pyramid(HaarPyramid::from_parts(self.config.height, 1.0, diffs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::RangeEstimate;
    use ldp_freq_oracle::Epsilon;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn per_user_end_to_end() {
        let eps = Epsilon::from_exp(3.0);
        let config = HaarConfig::new(64, eps).unwrap();
        let client = HaarOueClient::new(config.clone()).unwrap();
        let mut server = HaarOueServer::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(201);
        for i in 0..60_000usize {
            let v = 16 + (i % 32);
            let r = client.report(v, &mut rng).unwrap();
            server.absorb(&r).unwrap();
        }
        let est = server.estimate();
        assert!(
            (est.range(16, 47) - 1.0).abs() < 0.1,
            "got {}",
            est.range(16, 47)
        );
        assert!((est.range(0, 63) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn population_path_is_unbiased() {
        let eps = Epsilon::new(1.1);
        let config = HaarConfig::new(128, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(202);
        let counts = vec![1_000u64; 128];
        let mut mean = 0.0;
        let reps = 20;
        for _ in 0..reps {
            let mut server = HaarOueServer::new(config.clone()).unwrap();
            server.absorb_population(&counts, &mut rng).unwrap();
            mean += server.estimate().range(32, 95) / f64::from(reps);
        }
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn rejects_shape_mismatches() {
        let mut rng = StdRng::seed_from_u64(203);
        let client = HaarOueClient::new(HaarConfig::new(64, Epsilon::new(1.0)).unwrap()).unwrap();
        let mut server =
            HaarOueServer::new(HaarConfig::new(4, Epsilon::new(1.0)).unwrap()).unwrap();
        loop {
            let r = client.report(9, &mut rng).unwrap();
            if r.depth() >= 2 {
                assert!(server.absorb(&r).is_err());
                break;
            }
        }
        assert!(server.absorb_population(&[1, 2, 3], &mut rng).is_err());
        assert!(client.report(64, &mut rng).is_err());
    }
}
