//! Two-dimensional range queries (paper §6, "Multidimensional range
//! queries").
//!
//! The hierarchical decomposition extends to `[D]²` by crossing two B-adic
//! decompositions: any axis-aligned rectangle splits into at most
//! `O(log_B² D)` B-adic rectangles, each identified by a pair of tree nodes
//! `(node_x, node_y)`. Users therefore sample a *pair of depths*
//! `(d_x, d_y)` uniformly from `{0..h}² \ {(0,0)}` (depth 0 on an axis
//! means "whole axis", so pairs with one zero release the other axis's
//! marginal; `(0,0)` would be the constant 1 and carries no information)
//! and release the one-hot cell vector of the corresponding
//! `B^{d_x} × B^{d_y}` grid through a frequency oracle.
//!
//! The variance of a rectangle query scales with `log⁴_B D` (`log_B² D`
//! rectangles, each `1/p` level-sampling inflation with `p = 1/((h+1)²−1)`),
//! matching the `log^{2d} D` rate the paper states for `d` dimensions.

use rand::{Rng, RngCore};

use ldp_freq_oracle::{AnyOracle, AnyReport, Epsilon, FrequencyOracle, PointOracle};
use ldp_transforms::{decompose_range, CompleteTree};

use crate::binomial_support::scatter_item_over_levels;
use crate::error::RangeError;

/// Configuration of the 2-D hierarchical mechanism over `[side]²`.
#[derive(Debug, Clone)]
pub struct Hh2dConfig {
    /// Domain side length `D = B^h` (total domain `D²`).
    pub side: usize,
    /// Branching factor per axis.
    pub fanout: usize,
    /// Per-axis tree height `h`.
    pub height: u32,
    /// Privacy budget per user.
    pub epsilon: Epsilon,
    /// Frequency oracle releasing each sampled grid.
    pub oracle: FrequencyOracle,
}

impl Hh2dConfig {
    /// Builds a 2-D configuration (OUE grids by default).
    ///
    /// # Errors
    ///
    /// Same validation as the 1-D `HhConfig`.
    pub fn new(side: usize, fanout: usize, epsilon: Epsilon) -> Result<Self, RangeError> {
        Self::with_oracle(side, fanout, epsilon, FrequencyOracle::Oue)
    }

    /// Builds a 2-D configuration with an explicit oracle.
    ///
    /// # Errors
    ///
    /// Same validation as the 1-D `HhConfig`.
    pub fn with_oracle(
        side: usize,
        fanout: usize,
        epsilon: Epsilon,
        oracle: FrequencyOracle,
    ) -> Result<Self, RangeError> {
        if fanout < 2 {
            return Err(RangeError::FanoutTooSmall(fanout));
        }
        let height =
            ldp_transforms::exact_log(side, fanout).ok_or(RangeError::DomainNotPowerOfFanout {
                domain: side,
                fanout,
            })?;
        if height == 0 {
            return Err(RangeError::DomainTooSmall(side));
        }
        if oracle.requires_power_of_two() && !fanout.is_power_of_two() {
            return Err(RangeError::DomainNotPowerOfTwo(fanout));
        }
        Ok(Self {
            side,
            fanout,
            height,
            epsilon,
            oracle,
        })
    }

    /// Number of sampled depth pairs: `(h+1)² − 1`.
    #[must_use]
    pub fn num_grids(&self) -> usize {
        let levels = self.height as usize + 1;
        levels * levels - 1
    }

    fn shape(&self) -> CompleteTree {
        CompleteTree::with_height(self.fanout, self.height)
    }

    /// Enumerates depth pairs in a fixed order (skipping `(0,0)`).
    fn pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let h = self.height;
        (0..=h)
            .flat_map(move |dx| (0..=h).map(move |dy| (dx, dy)))
            .filter(|&p| p != (0, 0))
    }

    fn pair_index(&self, dx: u32, dy: u32) -> usize {
        (dx * (self.height + 1) + dy) as usize - 1
    }
}

/// One user's 2-D report: the sampled depth pair and the perturbed one-hot
/// grid-cell vector.
#[derive(Debug, Clone)]
pub struct Hh2dReport {
    dx: u32,
    dy: u32,
    inner: AnyReport,
}

impl Hh2dReport {
    /// The sampled depth pair `(d_x, d_y)`.
    #[must_use]
    pub fn depths(&self) -> (u32, u32) {
        (self.dx, self.dy)
    }

    /// The perturbed grid-cell vector (wire encoding).
    #[must_use]
    pub fn inner(&self) -> &AnyReport {
        &self.inner
    }

    /// Rebuilds a report from its transmitted parts (wire decoding).
    #[must_use]
    pub fn from_parts(dx: u32, dy: u32, inner: AnyReport) -> Self {
        Self { dx, dy, inner }
    }
}

fn build_grid_oracles(config: &Hh2dConfig) -> Result<Vec<AnyOracle>, RangeError> {
    let shape = config.shape();
    config
        .pairs()
        .map(|(dx, dy)| {
            let cells = shape.nodes_at_depth(dx) * shape.nodes_at_depth(dy);
            AnyOracle::new(config.oracle, cells, config.epsilon).map_err(RangeError::from)
        })
        .collect()
}

/// Client side of the 2-D mechanism.
#[derive(Debug, Clone)]
pub struct Hh2dClient {
    config: Hh2dConfig,
    shape: CompleteTree,
    encoders: Vec<AnyOracle>,
}

impl Hh2dClient {
    /// Builds the client.
    ///
    /// # Errors
    ///
    /// Propagates grid-oracle construction failures.
    pub fn new(config: Hh2dConfig) -> Result<Self, RangeError> {
        let encoders = build_grid_oracles(&config)?;
        let shape = config.shape();
        Ok(Self {
            config,
            shape,
            encoders,
        })
    }

    /// Perturbs one user's point `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the point is outside the domain.
    pub fn report(
        &self,
        x: usize,
        y: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Hh2dReport, RangeError> {
        if x >= self.config.side || y >= self.config.side {
            return Err(RangeError::Oracle(
                ldp_freq_oracle::OracleError::ValueOutOfDomain {
                    value: x.max(y),
                    domain: self.config.side,
                },
            ));
        }
        let k = rng.random_range(0..self.config.num_grids());
        let (dx, dy) = self.config.pairs().nth(k).expect("pair index in range");
        let nx = self.shape.ancestor_at_depth(x, dx);
        let ny = self.shape.ancestor_at_depth(y, dy);
        let cell = nx * self.shape.nodes_at_depth(dy) + ny;
        let inner = self.encoders[self.config.pair_index(dx, dy)].encode(cell, rng)?;
        Ok(Hh2dReport { dx, dy, inner })
    }
}

/// Aggregator side of the 2-D mechanism.
#[derive(Debug, Clone)]
pub struct Hh2dServer {
    config: Hh2dConfig,
    shape: CompleteTree,
    grids: Vec<AnyOracle>,
}

impl Hh2dServer {
    /// Builds the server.
    ///
    /// # Errors
    ///
    /// Propagates grid-oracle construction failures.
    pub fn new(config: Hh2dConfig) -> Result<Self, RangeError> {
        let grids = build_grid_oracles(&config)?;
        let shape = config.shape();
        Ok(Self {
            config,
            shape,
            grids,
        })
    }

    /// The per-grid oracle accumulators (persistence codec access).
    pub(crate) fn oracles(&self) -> &[AnyOracle] {
        &self.grids
    }

    /// Mutable per-grid accumulators (persistence codec access).
    pub(crate) fn oracles_mut(&mut self) -> &mut [AnyOracle] {
        &mut self.grids
    }

    /// Merges another shard's per-grid accumulators into this one.
    ///
    /// # Errors
    ///
    /// Rejects shards with a different side length or fanout.
    pub fn merge(&mut self, other: &Self) -> Result<(), RangeError> {
        if other.config.side != self.config.side || other.config.fanout != self.config.fanout {
            return Err(RangeError::ReportShapeMismatch);
        }
        for (a, b) in self.grids.iter_mut().zip(&other.grids) {
            a.merge(b)?;
        }
        Ok(())
    }

    /// Removes a previously merged shard's per-grid accumulators — the
    /// exact inverse of [`Hh2dServer::merge`]. Staged against a copy so an
    /// underflow at any grid leaves this server untouched.
    ///
    /// # Errors
    ///
    /// Rejects shards of mismatched shape, or state that was never merged
    /// into this one.
    pub fn subtract(&mut self, other: &Self) -> Result<(), RangeError> {
        if other.config.side != self.config.side || other.config.fanout != self.config.fanout {
            return Err(RangeError::ReportShapeMismatch);
        }
        let mut staged = self.grids.clone();
        for (a, b) in staged.iter_mut().zip(&other.grids) {
            a.subtract(b)?;
        }
        self.grids = staged;
        Ok(())
    }

    /// Accumulates one report.
    ///
    /// # Errors
    ///
    /// Rejects mismatched depth pairs.
    pub fn absorb(&mut self, report: &Hh2dReport) -> Result<(), RangeError> {
        if report.dx > self.config.height
            || report.dy > self.config.height
            || (report.dx, report.dy) == (0, 0)
        {
            return Err(RangeError::ReportShapeMismatch);
        }
        let idx = self.config.pair_index(report.dx, report.dy);
        Ok(self.grids[idx].absorb(&report.inner)?)
    }

    /// Removes one previously absorbed report from its grid — the exact
    /// inverse of [`Hh2dServer::absorb`].
    ///
    /// # Errors
    ///
    /// Rejects reports `absorb` would reject, and reports that were
    /// detectably never absorbed; state is unchanged on error.
    pub fn retract(&mut self, report: &Hh2dReport) -> Result<(), RangeError> {
        if report.dx > self.config.height
            || report.dy > self.config.height
            || (report.dx, report.dy) == (0, 0)
        {
            return Err(RangeError::ReportShapeMismatch);
        }
        let idx = self.config.pair_index(report.dx, report.dy);
        Ok(self.grids[idx].retract(&report.inner)?)
    }

    /// Absorbs a cohort from its true 2-D histogram, flattened row-major
    /// (`counts[x·side + y]`).
    ///
    /// # Errors
    ///
    /// Rejects histograms whose length is not `side²`.
    pub fn absorb_population(
        &mut self,
        true_counts: &[u64],
        rng: &mut dyn RngCore,
    ) -> Result<(), RangeError> {
        let side = self.config.side;
        if true_counts.len() != side * side {
            return Err(RangeError::ReportShapeMismatch);
        }
        let pairs: Vec<(u32, u32)> = self.config.pairs().collect();
        let mut grid_counts: Vec<Vec<u64>> = pairs
            .iter()
            .map(|&(dx, dy)| {
                vec![0u64; self.shape.nodes_at_depth(dx) * self.shape.nodes_at_depth(dy)]
            })
            .collect();
        scatter_item_over_levels(true_counts, pairs.len(), rng, |z, level_idx, count| {
            let (x, y) = (z / side, z % side);
            let (dx, dy) = pairs[level_idx];
            let cell = self.shape.ancestor_at_depth(x, dx) * self.shape.nodes_at_depth(dy)
                + self.shape.ancestor_at_depth(y, dy);
            grid_counts[level_idx][cell] += count;
        });
        for (oracle, counts) in self.grids.iter_mut().zip(grid_counts.iter()) {
            oracle.absorb_population(counts, rng)?;
        }
        Ok(())
    }

    /// Total reports across all grids.
    #[must_use]
    pub fn num_reports(&self) -> u64 {
        self.grids.iter().map(PointOracle::num_reports).sum()
    }

    /// Reconstructs the per-grid estimates for rectangle evaluation.
    #[must_use]
    pub fn estimate(&self) -> Hh2dEstimate {
        Hh2dEstimate {
            config: self.config.clone(),
            shape: self.shape,
            grids: self.grids.iter().map(PointOracle::estimate).collect(),
        }
    }
}

/// Reconstructed 2-D estimates: one fraction histogram per sampled grid.
#[derive(Debug, Clone)]
pub struct Hh2dEstimate {
    config: Hh2dConfig,
    shape: CompleteTree,
    grids: Vec<Vec<f64>>,
}

impl Hh2dEstimate {
    /// Domain side length.
    #[must_use]
    pub fn side(&self) -> usize {
        self.config.side
    }

    /// Estimated fraction of users in the rectangle
    /// `[x_lo, x_hi] × [y_lo, y_hi]` (inclusive), assembled from the
    /// crossed B-adic decompositions.
    ///
    /// # Panics
    ///
    /// Panics on invalid rectangle bounds.
    pub fn rectangle(&self, x_lo: usize, x_hi: usize, y_lo: usize, y_hi: usize) -> f64 {
        if (x_lo, x_hi) == (0, self.config.side - 1) && (y_lo, y_hi) == (0, self.config.side - 1) {
            return 1.0; // the (0,0) grid: the whole domain, known exactly
        }
        let xs = decompose_range(&self.shape, x_lo, x_hi);
        let ys = decompose_range(&self.shape, y_lo, y_hi);
        let mut total = 0.0;
        for nx in &xs {
            for ny in &ys {
                let cols = self.shape.nodes_at_depth(ny.depth);
                let grid = &self.grids[self.config.pair_index(nx.depth, ny.depth)];
                total += grid[nx.index * cols + ny.index];
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn config_counts_grids() {
        let c = Hh2dConfig::new(16, 2, Epsilon::new(1.1)).unwrap();
        assert_eq!(c.height, 4);
        assert_eq!(c.num_grids(), 24);
        assert_eq!(c.pairs().count(), 24);
        // pair_index is a bijection onto 0..24.
        let mut seen = [false; 24];
        for (dx, dy) in c.pairs() {
            let i = c.pair_index(dx, dy);
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn per_user_rectangle_estimation() {
        let eps = Epsilon::from_exp(3.0);
        let config = Hh2dConfig::new(16, 2, eps).unwrap();
        let client = Hh2dClient::new(config.clone()).unwrap();
        let mut server = Hh2dServer::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(101);
        // All users in the quadrant [0,7] × [8,15].
        let n = 60_000;
        for i in 0..n {
            let r = client.report(i % 8, 8 + (i % 8), &mut rng).unwrap();
            server.absorb(&r).unwrap();
        }
        assert_eq!(server.num_reports(), n as u64);
        let est = server.estimate();
        let q = est.rectangle(0, 7, 8, 15);
        assert!((q - 1.0).abs() < 0.15, "quadrant estimate {q}");
        let empty = est.rectangle(8, 15, 0, 7);
        assert!(empty.abs() < 0.15, "empty quadrant {empty}");
        assert!((est.rectangle(0, 15, 0, 15) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn population_path_is_unbiased() {
        let eps = Epsilon::new(1.1);
        let config = Hh2dConfig::new(16, 4, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(102);
        let counts = vec![100u64; 256];
        let mut mean = 0.0;
        let reps = 20;
        for _ in 0..reps {
            let mut server = Hh2dServer::new(config.clone()).unwrap();
            server.absorb_population(&counts, &mut rng).unwrap();
            // Rectangle covering 1/4 of x and 1/2 of y: mass 1/8.
            mean += server.estimate().rectangle(0, 3, 0, 7) / f64::from(reps);
        }
        assert!((mean - 0.125).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn marginal_queries_use_single_axis_grids() {
        let eps = Epsilon::new(1.1);
        let config = Hh2dConfig::new(16, 2, eps).unwrap();
        let mut server = Hh2dServer::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(103);
        let mut counts = vec![0u64; 256];
        // Mass only where x < 8.
        for x in 0..8usize {
            for y in 0..16usize {
                counts[x * 16 + y] = 500;
            }
        }
        server.absorb_population(&counts, &mut rng).unwrap();
        let est = server.estimate();
        // x-marginal query: full y-range → y decomposes to the root (depth
        // 0) and the answer comes from the (d_x, 0) grids.
        let m = est.rectangle(0, 7, 0, 15);
        assert!((m - 1.0).abs() < 0.1, "marginal {m}");
    }

    #[test]
    fn rejects_bad_inputs() {
        let eps = Epsilon::new(1.1);
        let config = Hh2dConfig::new(16, 2, eps).unwrap();
        let client = Hh2dClient::new(config.clone()).unwrap();
        let mut server = Hh2dServer::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(104);
        assert!(client.report(16, 0, &mut rng).is_err());
        assert!(server.absorb_population(&[0; 10], &mut rng).is_err());
    }
}
