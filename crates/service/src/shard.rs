//! Parallel shard-local aggregation.
//!
//! A [`ShardedAggregator`] owns a pool of per-shard accumulators (any
//! [`MergeableServer`]) and feeds them from worker threads: each ingest
//! call splits its batch into one contiguous chunk per shard and absorbs
//! the chunks concurrently with `std::thread::scope`. Because every
//! mechanism's state is a plain sum ([`MergeableServer`]'s contract),
//! [`ShardedAggregator::merged`] returns *exactly* the state a
//! single-threaded server would hold after absorbing the same reports in
//! any order — sharding is a pure throughput change.
//!
//! The expensive step for encoded traffic is wire decoding plus absorb;
//! [`ShardedAggregator::ingest_encoded`] runs both on the workers, which
//! is where multi-core scaling shows up in the `service_throughput`
//! benchmark.

use ldp_ranges::MergeableServer;

use crate::error::ServiceError;
use crate::loadgen::EncodedStream;
use crate::obs::instruments::ShardInstruments;
use crate::obs::MetricsRegistry;
use crate::wire::{decode_frame, WireReport};

/// A pool of independently fed, mergeable shard accumulators.
#[derive(Debug, Clone)]
pub struct ShardedAggregator<S: MergeableServer> {
    shards: Vec<S>,
    obs: Option<ShardInstruments>,
}

impl<S: MergeableServer> ShardedAggregator<S> {
    /// Builds a pool of `num_shards` shards, each a clone of the (empty)
    /// `prototype`.
    ///
    /// # Errors
    ///
    /// Rejects `num_shards == 0`.
    pub fn new(prototype: &S, num_shards: usize) -> Result<Self, ServiceError> {
        if num_shards == 0 {
            return Err(ServiceError::NoShards);
        }
        Ok(Self {
            shards: vec![prototype.clone(); num_shards],
            obs: None,
        })
    }

    /// Attaches shard-tier telemetry from the shared `registry`: batch
    /// absorb wall time and accepted/rejected frame counts. Unattached,
    /// the ingest paths carry zero instrumentation cost.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.obs = Some(ShardInstruments::register(registry));
    }

    /// Number of shards in the pool.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to the shard states (used by tests and the snapshot
    /// layer).
    #[must_use]
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// Total reports across all shards.
    #[must_use]
    pub fn num_reports(&self) -> u64 {
        self.shards.iter().map(MergeableServer::num_reports).sum()
    }

    /// Absorbs a batch of decoded reports, one contiguous chunk per shard,
    /// in parallel. **All-or-nothing**: on error, no report from the batch
    /// is kept (workers absorb into shard clones that are committed only
    /// when every chunk succeeds), so a failed batch can be retried or
    /// discarded without double-counting or losing reports.
    ///
    /// # Errors
    ///
    /// A rejected report surfaces as [`ServiceError::BadFrame`] carrying
    /// its batch index and report type (the lowest-indexed offender when
    /// several shards reject); a panicking worker surfaces as
    /// [`ServiceError::WorkerPanicked`]. The aggregator state is
    /// unchanged on error.
    pub fn ingest(&mut self, reports: &[S::Report]) -> Result<(), ServiceError> {
        self.run_sharded(reports.len(), |shard, lo, hi| {
            for (i, report) in reports[lo..hi].iter().enumerate() {
                shard.absorb(report).map_err(|e| (lo + i, e.into()))?;
            }
            Ok(())
        })
    }

    /// Decodes and absorbs a stream of encoded frames in parallel; both
    /// the codec work and the absorb work land on the shard workers.
    /// **All-or-nothing**, like [`ShardedAggregator::ingest`]: a malformed
    /// frame anywhere in the stream leaves the aggregator untouched.
    ///
    /// # Errors
    ///
    /// A malformed or rejected frame surfaces as
    /// [`ServiceError::BadFrame`] carrying its frame index and report
    /// type, so the producer can locate the offender in its own buffer
    /// without bisecting the batch; state is unchanged on error.
    pub fn ingest_encoded(&mut self, stream: &EncodedStream) -> Result<(), ServiceError>
    where
        S::Report: WireReport,
    {
        self.run_sharded(stream.len(), |shard, lo, hi| {
            for i in lo..hi {
                let frame = stream.frame(i);
                let (report, used) = decode_frame::<S::Report>(frame).map_err(|e| (i, e.into()))?;
                if used != frame.len() {
                    // A frame slot holding more than one frame's bytes
                    // (e.g. a sloppy push_raw) would silently drop the
                    // excess — surface it instead.
                    let e = crate::error::WireError::Malformed("trailing bytes after frame");
                    return Err((i, e.into()));
                }
                shard.absorb(&report).map_err(|e| (i, e.into()))?;
            }
            Ok(())
        })
    }

    /// Splits `0..n` into one contiguous slice per shard and runs `work`
    /// on each (shard, range) pair concurrently — against *clones* of the
    /// shards, swapped in only if every chunk succeeds. The clone is one
    /// accumulator state per shard (O(domain), independent of batch size),
    /// the price of batch atomicity.
    ///
    /// Workers report failures as `(item index, error)`; when several
    /// shards fail, the lowest-indexed offender wins, so the surfaced
    /// [`ServiceError::BadFrame`] is deterministic regardless of thread
    /// timing.
    fn run_sharded<F>(&mut self, n: usize, work: F) -> Result<(), ServiceError>
    where
        F: Fn(&mut S, usize, usize) -> Result<(), (usize, ServiceError)> + Sync,
    {
        // Handles are cheap Arc clones; unattached pools skip even the
        // Instant read.
        let obs = self.obs.clone();
        let started = obs.as_ref().map(|_| std::time::Instant::now());
        let result = self.run_sharded_inner(n, work);
        if let (Some(obs), Some(started)) = (obs, started) {
            obs.absorb_ns.record_elapsed(started);
            match &result {
                Ok(()) => obs.frames_accepted.add(n as u64),
                Err(_) => obs.frames_rejected.add(n as u64),
            }
        }
        result
    }

    fn run_sharded_inner<F>(&mut self, n: usize, work: F) -> Result<(), ServiceError>
    where
        F: Fn(&mut S, usize, usize) -> Result<(), (usize, ServiceError)> + Sync,
    {
        let num_shards = self.shards.len();
        let per_shard = n.div_ceil(num_shards.max(1));
        if num_shards == 1 || per_shard == 0 {
            let mut staged = self.shards[0].clone();
            work(&mut staged, 0, n).map_err(Self::bad_frame)?;
            self.shards[0] = staged;
            return Ok(());
        }
        let mut staged: Vec<S> = self.shards.clone();
        let work = &work;
        let mut panicked = false;
        let mut failures: Vec<(usize, ServiceError)> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = staged
                .iter_mut()
                .enumerate()
                .map(|(k, shard)| {
                    let lo = (k * per_shard).min(n);
                    let hi = ((k + 1) * per_shard).min(n);
                    scope.spawn(move || work(shard, lo, hi))
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(failure)) => failures.push(failure),
                    Err(_) => panicked = true,
                }
            }
        });
        if panicked {
            return Err(ServiceError::WorkerPanicked);
        }
        if let Some(first) = failures.into_iter().min_by_key(|(i, _)| *i) {
            return Err(Self::bad_frame(first));
        }
        self.shards = staged;
        Ok(())
    }

    fn bad_frame((index, error): (usize, ServiceError)) -> ServiceError {
        crate::error::bad_frame::<S::Report>(index, error)
    }

    /// Folds every shard into one server — exactly the state of a
    /// sequential server that absorbed all ingested reports.
    ///
    /// # Errors
    ///
    /// Cannot fail for shards built by [`ShardedAggregator::new`] (all
    /// clones of one prototype); an error indicates corrupted state.
    pub fn merged(&self) -> Result<S, ServiceError> {
        let mut merged = self.shards[0].clone();
        for shard in &self.shards[1..] {
            merged.merge(shard)?;
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_freq_oracle::Epsilon;
    use ldp_ranges::{HhClient, HhConfig, HhServer, MergeableServer, RangeEstimate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reports(n: usize, seed: u64, config: &HhConfig) -> Vec<ldp_ranges::HhReport> {
        let client = HhClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| client.report(i % config.domain, &mut rng).unwrap())
            .collect()
    }

    #[test]
    fn parallel_ingest_equals_sequential_absorb() {
        let config = HhConfig::new(64, 4, Epsilon::new(1.1)).unwrap();
        let prototype = HhServer::new(config.clone()).unwrap();
        let batch = reports(1_000, 501, &config);

        let mut sequential = prototype.clone();
        for r in &batch {
            MergeableServer::absorb(&mut sequential, r).unwrap();
        }

        for shards in [1usize, 2, 4, 7] {
            let mut agg = ShardedAggregator::new(&prototype, shards).unwrap();
            agg.ingest(&batch).unwrap();
            assert_eq!(agg.num_shards(), shards);
            assert_eq!(agg.num_reports(), batch.len() as u64);
            let merged = agg.merged().unwrap();
            let a = sequential.estimate_consistent().to_frequency_estimate();
            let b = merged.estimate_consistent().to_frequency_estimate();
            for z in 0..64 {
                assert!(
                    a.point(z).to_bits() == b.point(z).to_bits(),
                    "{shards} shards: leaf {z} differs"
                );
            }
        }
    }

    #[test]
    fn failed_batches_leave_state_untouched() {
        let config = HhConfig::new(64, 4, Epsilon::new(1.1)).unwrap();
        let prototype = HhServer::new(config.clone()).unwrap();
        let mut agg = ShardedAggregator::new(&prototype, 4).unwrap();
        agg.ingest(&reports(100, 503, &config)).unwrap();
        let baseline = agg.merged().unwrap().estimate().to_frequency_estimate();

        // Typed path: a report with an impossible depth fails absorb
        // mid-batch; nothing from the batch may stick, and the error
        // names the offending index and report type.
        let mut bad_batch = reports(50, 504, &config);
        let alien = bad_batch[0].inner().clone();
        bad_batch[25] = ldp_ranges::HhReport::from_parts(99, alien);
        match agg.ingest(&bad_batch).unwrap_err() {
            ServiceError::BadFrame {
                index,
                report_type,
                source,
            } => {
                assert_eq!(index, 25, "wrong offender index");
                assert_eq!(report_type, "HhReport");
                assert!(matches!(*source, ServiceError::Range(_)));
            }
            other => panic!("expected BadFrame, got {other}"),
        }
        assert_eq!(agg.num_reports(), 100, "failed batch leaked reports");

        // Encoded path: one malformed frame poisons the whole stream,
        // and its frame index is surfaced.
        let client = HhClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(505);
        let mut stream = crate::loadgen::EncodedStream::new();
        for i in 0..50 {
            stream.push(&client.report(i % 64, &mut rng).unwrap());
        }
        stream.push_raw(&[0xDE, 0xAD, 0xBE, 0xEF]);
        match agg.ingest_encoded(&stream).unwrap_err() {
            ServiceError::BadFrame {
                index,
                report_type,
                source,
            } => {
                assert_eq!(index, 50, "wrong offending frame index");
                assert_eq!(report_type, "HhReport");
                assert!(matches!(*source, ServiceError::Wire(_)));
            }
            other => panic!("expected BadFrame, got {other}"),
        }
        assert_eq!(
            agg.num_reports(),
            100,
            "failed encoded batch leaked reports"
        );

        // A frame slot carrying two concatenated frames (sloppy push_raw)
        // must error, not silently drop the second report.
        use crate::wire::WireReport;
        let mut doubled = crate::loadgen::EncodedStream::new();
        let mut two = client.report(1, &mut rng).unwrap().to_frame();
        two.extend_from_slice(&client.report(2, &mut rng).unwrap().to_frame());
        doubled.push_raw(&two);
        assert!(agg.ingest_encoded(&doubled).is_err());
        assert_eq!(agg.num_reports(), 100, "doubled frame leaked reports");

        let after = agg.merged().unwrap().estimate().to_frequency_estimate();
        for z in 0..64 {
            assert!(
                baseline.point(z).to_bits() == after.point(z).to_bits(),
                "estimate changed at leaf {z} after rejected batches"
            );
        }
    }

    #[test]
    fn lowest_failing_index_wins_across_shards() {
        let config = HhConfig::new(64, 4, Epsilon::new(1.1)).unwrap();
        let prototype = HhServer::new(config.clone()).unwrap();
        let mut agg = ShardedAggregator::new(&prototype, 4).unwrap();
        // 100 items over 4 shards → chunks of 25. Poison shard 0 (index
        // 10) and shard 2 (index 60): the surfaced error must name index
        // 10 no matter which worker finishes first.
        let mut batch = reports(100, 506, &config);
        let alien = batch[0].inner().clone();
        batch[10] = ldp_ranges::HhReport::from_parts(99, alien.clone());
        batch[60] = ldp_ranges::HhReport::from_parts(99, alien);
        match agg.ingest(&batch).unwrap_err() {
            ServiceError::BadFrame { index, .. } => assert_eq!(index, 10),
            other => panic!("expected BadFrame, got {other}"),
        }
        assert_eq!(agg.num_reports(), 0);
    }

    #[test]
    fn zero_shards_is_rejected() {
        let config = HhConfig::new(16, 4, Epsilon::new(1.0)).unwrap();
        let prototype = HhServer::new(config).unwrap();
        assert!(matches!(
            ShardedAggregator::new(&prototype, 0),
            Err(ServiceError::NoShards)
        ));
    }

    #[test]
    fn small_batches_and_empty_batches_work() {
        let config = HhConfig::new(16, 4, Epsilon::new(1.0)).unwrap();
        let prototype = HhServer::new(config.clone()).unwrap();
        let mut agg = ShardedAggregator::new(&prototype, 8).unwrap();
        agg.ingest(&[]).unwrap();
        assert_eq!(agg.num_reports(), 0);
        // Fewer reports than shards.
        agg.ingest(&reports(3, 502, &config)).unwrap();
        assert_eq!(agg.num_reports(), 3);
        agg.merged().unwrap();
    }
}
