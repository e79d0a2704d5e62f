//! Order statistics over latency samples and small helpers for timing.

use std::time::Instant;

/// Nanoseconds elapsed since `t`.
#[must_use]
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank quantile of `samples` (sorted in place). Returns 0 for an
/// empty sample.
#[must_use]
pub fn quantile(samples: &mut [u64], phi: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (phi * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of floating-point values (mean of the middle pair for an even
/// count). Returns 0 for an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The quantiles a [`Latencies`] keeps of each finished slice.
pub const PHIS: [f64; 2] = [0.5, 0.99];

/// A latency sample set, grouped into slices by a tag each sample carries
/// (ns since the phase began, or a round number), reported as quantiles
/// in microseconds.
///
/// Samples arrive in tag order. Only the open slice keeps its samples; a
/// finished slice keeps its sample count and its [`PHIS`] quantiles. So a
/// long run holds one slice's samples, and the benchmark's own memory
/// does not grow with the throughput it measures.
#[derive(Debug, Clone)]
pub struct Latencies {
    /// Slice length in the unit of the tags.
    slice: u64,
    /// Index of the open slice.
    open_id: u64,
    /// Samples of the open slice.
    open: Vec<u64>,
    /// Sample count and [`PHIS`] quantiles of each finished slice.
    done: Vec<(usize, [u64; 2])>,
    len: usize,
    total_ns: u64,
}

impl Default for Latencies {
    /// One slice that keeps every sample.
    fn default() -> Self {
        Self::sliced(u64::MAX)
    }
}

impl Latencies {
    /// An empty set whose slice `i` holds the samples tagged in
    /// `[i·slice, (i+1)·slice)`.
    #[must_use]
    pub fn sliced(slice: u64) -> Self {
        Self {
            slice: slice.max(1),
            open_id: 0,
            open: Vec::new(),
            done: Vec::new(),
            len: 0,
            total_ns: 0,
        }
    }

    /// Records one latency with no time tag.
    pub fn push(&mut self, ns: u64) {
        self.push_at(0, ns);
    }

    /// Records one latency tagged `at`, which is at least every earlier
    /// tag.
    pub fn push_at(&mut self, at: u64, ns: u64) {
        let id = at / self.slice;
        if id != self.open_id {
            self.fold();
            self.open_id = id;
        }
        self.open.push(ns);
        self.len += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }

    /// Closes the open slice, keeping only its count and quantiles.
    fn fold(&mut self) {
        if !self.open.is_empty() {
            let q = PHIS.map(|phi| quantile(&mut self.open, phi));
            self.done.push((self.open.len(), q));
            self.open.clear();
        }
    }

    /// Adds every sample of `other`, a set of one slice, tagged `at`.
    ///
    /// # Panics
    ///
    /// When `other` has finished slices: their samples are gone.
    pub fn extend_at(&mut self, at: u64, other: &Self) {
        assert!(other.done.is_empty(), "extend_at takes a one-slice set");
        for &ns in &other.open {
            self.push_at(at, ns);
        }
    }

    /// Sample count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no sample was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of all samples in nanoseconds.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// The `phi` quantile of a one-slice set, in microseconds.
    ///
    /// # Panics
    ///
    /// When the set has finished slices.
    #[must_use]
    pub fn quantile_us(&self, phi: f64) -> f64 {
        assert!(self.done.is_empty(), "quantile_us takes a one-slice set");
        quantile(&mut self.open.clone(), phi) as f64 / 1e3
    }

    /// The median over slices of the `phi` quantile within each slice, in
    /// microseconds. Slices with fewer than `min` samples are left out,
    /// unless fewer than three slices have `min`; then every slice counts.
    /// A burst of interference from outside the process moves this only
    /// once it covers half the slices.
    ///
    /// # Panics
    ///
    /// When `phi` is not one of [`PHIS`].
    #[must_use]
    pub fn sliced_us(&self, phi: f64, min: usize) -> f64 {
        let k = PHIS
            .iter()
            .position(|&p| p == phi)
            .expect("a quantile the slices keep");
        let mut per: Vec<(usize, u64)> = self.done.iter().map(|&(n, q)| (n, q[k])).collect();
        if !self.open.is_empty() {
            per.push((self.open.len(), quantile(&mut self.open.clone(), phi)));
        }
        let full: Vec<f64> = per
            .iter()
            .filter(|&&(n, _)| n >= min)
            .map(|&(_, q)| q as f64 / 1e3)
            .collect();
        if full.len() >= 3 {
            return median(&full);
        }
        let all: Vec<f64> = per.iter().map(|&(_, q)| q as f64 / 1e3).collect();
        median(&all)
    }
}

/// Completions counted per whole second since a session started.
#[derive(Debug, Default, Clone)]
pub struct PerSecond(Vec<u64>);

impl PerSecond {
    /// Counts `n` completions at `at_ns` since the start.
    pub fn add(&mut self, at_ns: u64, n: u64) {
        let s = (at_ns / 1_000_000_000) as usize;
        if self.0.len() <= s {
            self.0.resize(s + 1, 0);
        }
        self.0[s] += n;
    }

    /// Median over the whole seconds of `elapsed` of the completions in
    /// each; the plain average when the run is shorter than two seconds.
    #[must_use]
    pub fn rate(&self, elapsed: std::time::Duration) -> f64 {
        let secs = elapsed.as_secs() as usize;
        if secs < 2 {
            let total: u64 = self.0.iter().sum();
            return total as f64 / elapsed.as_secs_f64().max(1e-9);
        }
        let per: Vec<f64> = (0..secs)
            .map(|s| self.0.get(s).copied().unwrap_or(0) as f64)
            .collect();
        median(&per)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(quantile(&mut [], 0.5), 0);
    }

    #[test]
    fn sliced_quantile_ignores_a_minority_burst() {
        let mut lat = Latencies::sliced(10);
        let mut pooled = Latencies::default();
        for slice in 0..5u64 {
            let slow = slice == 2;
            for i in 0..100 {
                let ns = if slow { 1_000_000 } else { 1_000 + i };
                lat.push_at(slice * 10 + i % 10, ns);
                pooled.push(ns);
            }
        }
        assert_eq!(lat.len(), 500);
        assert_eq!(lat.total_ns(), pooled.total_ns());
        assert!(lat.sliced_us(0.99, 50) < 1.2);
        assert!(pooled.quantile_us(0.99) > 900.0);
        // Too few full slices: every slice counts.
        assert!(lat.sliced_us(0.5, 1_000) < 1.2);
    }

    #[test]
    fn finished_slices_keep_only_their_quantiles() {
        let mut lat = Latencies::sliced(1);
        for at in 0..1_000u64 {
            for i in 0..100 {
                lat.push_at(at, 1_000 + i);
            }
        }
        assert_eq!(lat.open.len(), 100);
        assert_eq!(lat.done.len(), 999);
        assert_eq!(lat.sliced_us(0.5, 100), 1.049);
        assert_eq!(lat.sliced_us(0.99, 100), 1.098);
        // Round-tagged pooling of one-slice sets.
        let mut rounds = Latencies::sliced(1);
        rounds.extend_at(0, &lat_of(&[5_000, 7_000]));
        rounds.extend_at(0, &lat_of(&[6_000]));
        rounds.extend_at(1, &lat_of(&[1_000]));
        assert_eq!(rounds.done, vec![(3, [6_000, 7_000])]);
    }

    fn lat_of(ns: &[u64]) -> Latencies {
        let mut lat = Latencies::default();
        ns.iter().for_each(|&n| lat.push(n));
        lat
    }

    #[test]
    fn per_second_rate_is_a_median_over_whole_seconds() {
        let mut rate = PerSecond::default();
        for s in 0..5u64 {
            rate.add(s * 1_000_000_000 + 5, if s == 2 { 1 } else { 100 });
        }
        rate.add(5_500_000_000, 1_000_000);
        assert_eq!(rate.rate(std::time::Duration::from_millis(5_900)), 100.0);
        assert_eq!(
            rate.rate(std::time::Duration::from_millis(1_000)),
            1_000_401.0
        );
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
