//! Budget-splitting ablation: the centralized-style alternative to level
//! sampling.
//!
//! §4.4's "key difference from the centralized case": centrally, "the norm
//! is to split the 'error budget' ε into h pieces, and report the count of
//! users in each node; in contrast, we have each user sample a single
//! level … splitting would lead to an error proportional to h², whereas
//! sampling gives an error which is at most proportional to h."
//!
//! This module implements the splitting strategy *locally* — each user
//! releases her node vector at **every** level, each perturbed with budget
//! `ε/h` (ε-LDP overall by sequential composition) — so the claim can be
//! measured head-to-head (see the `ablations` bench and the integration
//! tests): with `VF(ε) ≈ 4/ε²` for small ε, each split level carries
//! variance `≈ 4h²/(Nε²)`, an `h²` total versus sampling's
//! `h·VF(ε) ≈ 4h/(Nε²)`.

use rand::RngCore;

use ldp_freq_oracle::{AnyOracle, AnyReport, PointOracle};
use ldp_transforms::{CompleteTree, FlatTree};

use crate::config::HhConfig;
use crate::error::RangeError;
use crate::hh::{consistency, HhEstimate};

/// One user's split-budget report: a perturbed node vector for *every*
/// level of the tree.
#[derive(Debug, Clone)]
pub struct HhSplitReport {
    layers: Vec<AnyReport>,
}

impl HhSplitReport {
    /// Number of levels reported (always `h`).
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.layers.len()
    }

    /// The per-level perturbed node vectors, shallowest level first.
    #[must_use]
    pub fn layers(&self) -> &[AnyReport] {
        &self.layers
    }

    /// Rebuilds a report from transmitted per-level layers (wire decoding).
    #[must_use]
    pub fn from_layers(layers: Vec<AnyReport>) -> Self {
        Self { layers }
    }
}

fn build_split_oracles(config: &HhConfig) -> Result<Vec<AnyOracle>, RangeError> {
    let shape = config.shape();
    let eps_per_level = config.epsilon.split(config.height);
    (1..=config.height)
        .map(|d| {
            AnyOracle::new(config.oracle, shape.nodes_at_depth(d), eps_per_level)
                .map_err(RangeError::from)
        })
        .collect()
}

/// Client side of the splitting ablation.
#[derive(Debug, Clone)]
pub struct HhSplitClient {
    config: HhConfig,
    shape: CompleteTree,
    encoders: Vec<AnyOracle>,
}

impl HhSplitClient {
    /// Builds the client; each level encoder carries `ε/h`.
    ///
    /// # Errors
    ///
    /// Propagates per-level oracle construction failures.
    pub fn new(config: HhConfig) -> Result<Self, RangeError> {
        let encoders = build_split_oracles(&config)?;
        let shape = config.shape();
        Ok(Self {
            config,
            shape,
            encoders,
        })
    }

    /// Perturbs one user's value at every level.
    ///
    /// # Errors
    ///
    /// Returns an error if `value` is outside the domain.
    pub fn report(&self, value: usize, rng: &mut dyn RngCore) -> Result<HhSplitReport, RangeError> {
        if value >= self.config.domain {
            return Err(RangeError::Oracle(
                ldp_freq_oracle::OracleError::ValueOutOfDomain {
                    value,
                    domain: self.config.domain,
                },
            ));
        }
        let layers = (1..=self.config.height)
            .map(|d| {
                let node = self.shape.ancestor_at_depth(value, d);
                self.encoders[d as usize - 1]
                    .encode(node, rng)
                    .map_err(RangeError::from)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(HhSplitReport { layers })
    }
}

/// Aggregator side of the splitting ablation.
#[derive(Debug, Clone)]
pub struct HhSplitServer {
    config: HhConfig,
    shape: CompleteTree,
    levels: Vec<AnyOracle>,
}

impl HhSplitServer {
    /// Builds the server.
    ///
    /// # Errors
    ///
    /// Propagates per-level oracle construction failures.
    pub fn new(config: HhConfig) -> Result<Self, RangeError> {
        let levels = build_split_oracles(&config)?;
        let shape = config.shape();
        Ok(Self {
            config,
            shape,
            levels,
        })
    }

    /// The per-level oracle accumulators (persistence codec access).
    pub(crate) fn oracles(&self) -> &[AnyOracle] {
        &self.levels
    }

    /// Mutable per-level accumulators (persistence codec access).
    pub(crate) fn oracles_mut(&mut self) -> &mut [AnyOracle] {
        &mut self.levels
    }

    /// Merges another shard's per-level accumulators into this one
    /// (distributed aggregation over disjoint user cohorts).
    ///
    /// # Errors
    ///
    /// Rejects shards with a different tree shape or oracle.
    pub fn merge(&mut self, other: &Self) -> Result<(), RangeError> {
        if other.config.domain != self.config.domain || other.config.fanout != self.config.fanout {
            return Err(RangeError::ReportShapeMismatch);
        }
        for (a, b) in self.levels.iter_mut().zip(&other.levels) {
            a.merge(b)?;
        }
        Ok(())
    }

    /// Removes a previously merged shard's per-level accumulators — the
    /// exact inverse of [`HhSplitServer::merge`]. Staged against a copy so
    /// an underflow at any level leaves this server untouched.
    ///
    /// # Errors
    ///
    /// Rejects shards of mismatched shape, or state that was never merged
    /// into this one.
    pub fn subtract(&mut self, other: &Self) -> Result<(), RangeError> {
        if other.config.domain != self.config.domain || other.config.fanout != self.config.fanout {
            return Err(RangeError::ReportShapeMismatch);
        }
        let mut staged = self.levels.clone();
        for (a, b) in staged.iter_mut().zip(&other.levels) {
            a.subtract(b)?;
        }
        self.levels = staged;
        Ok(())
    }

    /// Accumulates one user's multi-level report.
    ///
    /// # Errors
    ///
    /// Rejects reports with the wrong number of layers or any layer of the
    /// wrong shape — validated up front, before any level accumulator is
    /// touched, so a rejected report never leaves partially absorbed state
    /// (a report counted at some levels but not others would corrupt the
    /// per-level normalization and break exact shard merging).
    pub fn absorb(&mut self, report: &HhSplitReport) -> Result<(), RangeError> {
        if report.layers.len() != self.config.height as usize {
            return Err(RangeError::ReportShapeMismatch);
        }
        for (oracle, layer) in self.levels.iter().zip(&report.layers) {
            oracle.validate(layer)?;
        }
        for (oracle, layer) in self.levels.iter_mut().zip(&report.layers) {
            oracle.absorb(layer)?;
        }
        Ok(())
    }

    /// Removes one previously absorbed multi-level report — the exact
    /// inverse of [`HhSplitServer::absorb`]. Validated up front like
    /// `absorb`; should a level detect that the report was never absorbed,
    /// the levels already retracted are restored, so state is unchanged
    /// on every error.
    ///
    /// # Errors
    ///
    /// Rejects reports `absorb` would reject, and reports that were
    /// detectably never absorbed.
    pub fn retract(&mut self, report: &HhSplitReport) -> Result<(), RangeError> {
        if report.layers.len() != self.config.height as usize {
            return Err(RangeError::ReportShapeMismatch);
        }
        for (oracle, layer) in self.levels.iter().zip(&report.layers) {
            oracle.validate(layer)?;
        }
        for (k, layer) in report.layers.iter().enumerate() {
            if let Err(e) = self.levels[k].retract(layer) {
                // Validated above, so re-absorbing the retracted levels
                // cannot fail; it restores them exactly.
                for (oracle, layer) in self.levels.iter_mut().zip(&report.layers).take(k) {
                    oracle.absorb(layer)?;
                }
                return Err(e.into());
            }
        }
        Ok(())
    }

    /// Absorbs a cohort: every user contributes to every level, so each
    /// level oracle sees the *exact* node histogram (no level scatter).
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
        for d in 1..=self.config.height {
            let mut node_counts = vec![0u64; self.shape.nodes_at_depth(d)];
            for (z, &c) in true_counts.iter().enumerate() {
                node_counts[self.shape.ancestor_at_depth(z, d)] += c;
            }
            self.levels[d as usize - 1].absorb_population(&node_counts, rng)?;
        }
        Ok(())
    }

    /// Reports absorbed (each report spans all levels, so this equals the
    /// user count).
    #[must_use]
    pub fn num_reports(&self) -> u64 {
        self.levels.first().map_or(0, PointOracle::num_reports)
    }

    /// Reconstructs the (inconsistent) estimate tree.
    #[must_use]
    pub fn estimate(&self) -> HhEstimate {
        let mut tree = FlatTree::new(self.shape);
        *tree.get_mut(0, 0) = 1.0;
        for (i, oracle) in self.levels.iter().enumerate() {
            tree.level_mut(i as u32 + 1)
                .copy_from_slice(&oracle.estimate());
        }
        HhEstimate {
            tree,
            consistent: false,
        }
    }

    /// Reconstructs the estimate tree with constrained inference.
    #[must_use]
    pub fn estimate_consistent(&self) -> HhEstimate {
        let mut est = self.estimate();
        consistency::enforce_consistency(&mut est.tree);
        est.consistent = true;
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::RangeEstimate;
    use crate::hh::HhServer;
    use ldp_freq_oracle::Epsilon;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn per_user_report_covers_all_levels() {
        let config = HhConfig::new(64, 2, Epsilon::new(1.1)).unwrap();
        let client = HhSplitClient::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(171);
        let r = client.report(10, &mut rng).unwrap();
        assert_eq!(r.num_levels(), 6);
    }

    #[test]
    fn split_estimates_are_unbiased() {
        let config = HhConfig::new(64, 4, Epsilon::new(1.1)).unwrap();
        let mut rng = StdRng::seed_from_u64(172);
        let counts = vec![500u64; 64];
        let mut mean = 0.0;
        let reps = 20;
        for _ in 0..reps {
            let mut server = HhSplitServer::new(config.clone()).unwrap();
            server.absorb_population(&counts, &mut rng).unwrap();
            mean += server.estimate().range(16, 47) / f64::from(reps);
        }
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn sampling_beats_splitting() {
        // The quantitative heart of §4.4: h² vs h error growth. At
        // D = 2^8, B = 2 (h = 8) the gap is pronounced.
        let eps = Epsilon::new(1.0);
        let config = HhConfig::new(256, 2, eps).unwrap();
        let counts = vec![400u64; 256];
        let ds_total: u64 = counts.iter().sum();
        assert!(ds_total > 0);
        let mut rng = StdRng::seed_from_u64(173);
        let reps = 12;
        let probe: Vec<(usize, usize)> = vec![(10, 100), (64, 191), (0, 255), (200, 230)];
        let truth: Vec<f64> = probe
            .iter()
            .map(|&(a, b)| (b - a + 1) as f64 / 256.0)
            .collect();

        let mse_of = |est: &dyn RangeEstimate| -> f64 {
            probe
                .iter()
                .zip(&truth)
                .map(|(&(a, b), &t)| (est.range(a, b) - t).powi(2))
                .sum::<f64>()
                / probe.len() as f64
        };

        let mut sampling_mse = 0.0;
        let mut splitting_mse = 0.0;
        for _ in 0..reps {
            let mut s = HhServer::new(config.clone()).unwrap();
            s.absorb_population(&counts, &mut rng).unwrap();
            sampling_mse += mse_of(&s.estimate_consistent());

            let mut p = HhSplitServer::new(config.clone()).unwrap();
            p.absorb_population(&counts, &mut rng).unwrap();
            splitting_mse += mse_of(&p.estimate_consistent());
        }
        assert!(
            splitting_mse > 2.0 * sampling_mse,
            "splitting {splitting_mse:.3e} should be well above sampling {sampling_mse:.3e}"
        );
    }

    #[test]
    fn poisoned_layer_leaves_no_partial_state() {
        // A report whose first layer is valid but whose second is not must
        // be rejected atomically: absorbing it cannot bump any level.
        let mut rng = StdRng::seed_from_u64(175);
        let config = HhConfig::new(16, 2, Epsilon::new(1.0)).unwrap();
        let client = HhSplitClient::new(config.clone()).unwrap();
        let mut server = HhSplitServer::new(config.clone()).unwrap();
        let good = client.report(3, &mut rng).unwrap();
        server.absorb(&good).unwrap();
        let before = server
            .estimate()
            .to_frequency_estimate()
            .frequencies()
            .to_vec();

        let mut layers = client.report(5, &mut rng).unwrap().layers().to_vec();
        // Replace the depth-2 layer with one from a mismatched (wider)
        // oracle — exactly what a hostile wire frame could carry.
        let alien = HhSplitClient::new(HhConfig::new(64, 2, Epsilon::new(1.0)).unwrap())
            .unwrap()
            .report(0, &mut rng)
            .unwrap();
        layers[1] = alien.layers()[3].clone();
        let poison = HhSplitReport::from_layers(layers);

        assert!(server.absorb(&poison).is_err());
        assert_eq!(server.num_reports(), 1, "poison report must not be counted");
        let after = server
            .estimate()
            .to_frequency_estimate()
            .frequencies()
            .to_vec();
        for (a, b) in before.iter().zip(&after) {
            assert!(
                a.to_bits() == b.to_bits(),
                "state changed by rejected report"
            );
        }
    }

    #[test]
    fn rejects_shape_mismatches() {
        let mut rng = StdRng::seed_from_u64(174);
        let c64 = HhConfig::new(64, 2, Epsilon::new(1.0)).unwrap();
        let c16 = HhConfig::new(16, 2, Epsilon::new(1.0)).unwrap();
        let client = HhSplitClient::new(c64).unwrap();
        let mut server = HhSplitServer::new(c16).unwrap();
        let r = client.report(3, &mut rng).unwrap();
        assert!(server.absorb(&r).is_err());
        assert!(server.absorb_population(&[1, 2], &mut rng).is_err());
    }
}
