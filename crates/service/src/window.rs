//! Time-windowed streaming aggregation: the epoch ring.
//!
//! The one-shot snapshot path answers "what does the whole population
//! look like" over everything ever absorbed. A long-running service needs
//! the *continuous* variant: "what happened in the last K epochs" while
//! reports keep arriving. [`EpochRing`] provides it on top of two exact
//! algebraic facts about the mechanisms' integer sufficient statistics:
//!
//! * merging per-epoch accumulators is bit-identical to absorbing their
//!   reports into one server ([`MergeableServer`]), and
//! * a previously merged epoch can be removed again, bit-identically
//!   ([`SubtractableServer`]).
//!
//! So the ring keeps one accumulator per epoch plus a *running* merge of
//! every retained epoch. Sealing an epoch merges it into the running
//! state in `O(state)`; once the ring exceeds its window length, the
//! oldest epoch is retired by **subtraction** — also `O(state)` — instead
//! of re-merging the surviving `K − 1` epochs from scratch. Windowed
//! answers are therefore exactly what a from-scratch merge of the same
//! epochs would produce (the `window.rs` integration tests check this
//! bit-for-bit for all six mechanisms), at a per-rotation cost that does
//! not grow with the window length.
//!
//! ```text
//!        absorb                    seal_epoch            rotation
//!   ─────────────────► current ──────────────► ring ─────────────► retired
//!                        │                      │ merge              │
//!                        ▼                      ▼                    ▼
//!                      (open)              running += epoch   running −= epoch
//! ```
//!
//! Epoch boundaries are *logical*: the owner calls [`EpochRing::seal_epoch`]
//! on whatever cadence defines an epoch (wall-clock ticks, report counts
//! via [`EpochRing::with_epoch_width`], upstream watermarks). The ring
//! itself never consults a clock, which keeps every test deterministic.
//!
//! [`WindowedSnapshot`] freezes any trailing window of sealed epochs into
//! an immutable query handle ([`RangeSnapshot`] plus the epoch interval it
//! covers), so range/prefix/point/quantile queries keep answering while
//! ingestion continues — the continuous-query contract of industry stream
//! aggregation systems.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use ldp_ranges::persist::put_varint;
use ldp_ranges::{MergeableServer, PersistableServer, RangeError, StateReader, SubtractableServer};

use crate::error::ServiceError;
use crate::obs::instruments::WindowInstruments;
use crate::snapshot::{RangeSnapshot, SnapshotSource};

/// One sealed epoch: its id and the accumulator of every report absorbed
/// while it was open.
#[derive(Debug, Clone)]
pub struct SealedEpoch<S> {
    id: u64,
    server: S,
}

impl<S: MergeableServer> SealedEpoch<S> {
    /// The epoch's id (epoch 0 is the first epoch ever opened).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Reports absorbed during this epoch.
    #[must_use]
    pub fn num_reports(&self) -> u64 {
        self.server.num_reports()
    }

    /// The epoch's frozen accumulator.
    #[must_use]
    pub fn server(&self) -> &S {
        &self.server
    }
}

/// A ring of per-epoch accumulators answering sliding-window queries
/// while ingestion continues.
///
/// See the [module docs](self) for the design. The ring retains the last
/// `window_len` *sealed* epochs plus the currently open one; rotation
/// retires the oldest epoch by exact subtraction.
#[derive(Debug, Clone)]
pub struct EpochRing<S: SubtractableServer> {
    /// Empty-state template every new epoch starts from.
    prototype: S,
    /// Sealed epochs still inside the retention window, oldest first.
    ring: VecDeque<SealedEpoch<S>>,
    /// Running merge of every epoch in `ring`, maintained incrementally:
    /// sealing merges the new epoch in, rotation subtracts the retired
    /// epoch out.
    running: S,
    /// The open epoch, absorbing new reports.
    current: S,
    /// Id of the open epoch.
    current_id: u64,
    /// Maximum number of sealed epochs retained.
    window_len: usize,
    /// Auto-seal threshold in reports per epoch; 0 = manual sealing only.
    epoch_width: u64,
    /// Window-tier telemetry, shared across shard rings (cloned rings
    /// keep recording into the same instruments). Not part of the ring's
    /// *state*: excluded from persistence and from merge alignment.
    obs: Option<Arc<WindowInstruments>>,
}

impl<S: SubtractableServer> EpochRing<S> {
    /// Builds a ring retaining up to `window_len` sealed epochs, sealed
    /// manually via [`EpochRing::seal_epoch`].
    ///
    /// # Errors
    ///
    /// Rejects `window_len == 0` (nothing could ever be queried).
    pub fn new(prototype: &S, window_len: usize) -> Result<Self, ServiceError> {
        if window_len == 0 {
            return Err(ServiceError::EmptyWindow);
        }
        Ok(Self {
            prototype: prototype.clone(),
            ring: VecDeque::with_capacity(window_len + 1),
            running: prototype.clone(),
            current: prototype.clone(),
            current_id: 0,
            window_len,
            epoch_width: 0,
            obs: None,
        })
    }

    /// Attaches window-tier telemetry (rotation subtract latency and
    /// retired-epoch count are recorded by the ring itself; the seal
    /// sweep is timed by the owner). Shared instruments: clones of this
    /// ring keep recording into the same counters.
    pub fn set_instruments(&mut self, instruments: Arc<WindowInstruments>) {
        self.obs = Some(instruments);
    }

    /// Builds a ring that additionally self-seals: absorbing the
    /// `epoch_width`-th report of an epoch closes it. Meant for
    /// single-ring streaming use — sharded deployments should seal
    /// centrally (see [`crate::LdpService::seal_epoch`]) so shard rings
    /// stay epoch-aligned.
    ///
    /// # Errors
    ///
    /// Rejects `window_len == 0` and `epoch_width == 0`.
    pub fn with_epoch_width(
        prototype: &S,
        window_len: usize,
        epoch_width: u64,
    ) -> Result<Self, ServiceError> {
        if epoch_width == 0 {
            return Err(ServiceError::EmptyWindow);
        }
        let mut ring = Self::new(prototype, window_len)?;
        ring.epoch_width = epoch_width;
        Ok(ring)
    }

    /// Id of the epoch currently open for ingestion.
    #[must_use]
    pub fn current_epoch(&self) -> u64 {
        self.current_id
    }

    /// Number of sealed epochs currently retained (≤ `window_len`).
    #[must_use]
    pub fn epochs_retained(&self) -> usize {
        self.ring.len()
    }

    /// Maximum number of sealed epochs retained.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Auto-seal threshold (0 = manual sealing).
    #[must_use]
    pub fn epoch_width(&self) -> u64 {
        self.epoch_width
    }

    /// The sealed epochs still retained, oldest first.
    pub fn sealed(&self) -> impl Iterator<Item = &SealedEpoch<S>> {
        self.ring.iter()
    }

    /// Reports in the open epoch so far.
    #[must_use]
    pub fn current_reports(&self) -> u64 {
        self.current.num_reports()
    }

    /// Absorbs one report into the open epoch, auto-sealing afterwards if
    /// an epoch width is configured and now reached.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the mechanism.
    pub fn absorb(&mut self, report: &S::Report) -> Result<(), ServiceError> {
        self.current.absorb(report)?;
        if self.epoch_width > 0 && self.current.num_reports() >= self.epoch_width {
            self.seal_epoch()?;
        }
        Ok(())
    }

    /// Absorbs one epoch-tagged report: the tag must name the open epoch.
    /// Untagged reports (`None`, from v1 wire frames) are accepted into
    /// the open epoch unconditionally.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::EpochMismatch`] for a stale or future tag;
    /// otherwise as [`EpochRing::absorb`].
    pub fn absorb_tagged(
        &mut self,
        epoch: Option<u64>,
        report: &S::Report,
    ) -> Result<(), ServiceError> {
        self.check_epoch(epoch)?;
        self.absorb(report)
    }

    /// The tag rule of [`EpochRing::absorb_tagged`]: `None` or the open
    /// epoch's id passes; any other tag is a stale or future frame.
    pub(crate) fn check_epoch(&self, epoch: Option<u64>) -> Result<(), ServiceError> {
        match epoch {
            Some(tag) if tag != self.current_id => Err(ServiceError::EpochMismatch {
                frame: tag,
                current: self.current_id,
            }),
            _ => Ok(()),
        }
    }

    /// Closes the open epoch (even an empty one — idle periods are real
    /// epochs), returning its id. The sealed epoch joins the ring and the
    /// running merge; if the ring now exceeds the window length, the
    /// oldest epoch is retired by exact subtraction.
    ///
    /// # Errors
    ///
    /// Merge/subtract failures are impossible for epochs this ring built
    /// itself (all clones of one prototype); an error indicates corrupted
    /// state.
    pub fn seal_epoch(&mut self) -> Result<u64, ServiceError> {
        let sealed = std::mem::replace(&mut self.current, self.prototype.clone());
        self.running.merge(&sealed)?;
        self.ring.push_back(SealedEpoch {
            id: self.current_id,
            server: sealed,
        });
        if self.ring.len() > self.window_len {
            let retired = self.ring.pop_front().expect("ring just grew");
            // The rotation that makes sliding windows O(state): remove
            // the retired epoch from the running merge instead of
            // re-merging the survivors.
            let started = self.obs.as_ref().map(|_| Instant::now());
            self.running.subtract(&retired.server)?;
            if let (Some(obs), Some(started)) = (&self.obs, started) {
                obs.rotate_ns.record_elapsed(started);
                obs.rotations.incr();
            }
        }
        let id = self.current_id;
        self.current_id += 1;
        Ok(id)
    }

    /// The merged accumulator of the trailing `epochs` sealed epochs
    /// (clamped to what the ring retains) — bit-identical to merging
    /// those epochs from scratch.
    ///
    /// Picks the cheaper of two exact routes: re-merge the `k` youngest
    /// epochs, or clone the running merge and subtract the `len − k`
    /// oldest. For the common full-window query the subtract route makes
    /// this a plain clone.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::EmptyWindow`] when `epochs == 0` or no
    /// epoch has been sealed yet.
    pub fn window_server(&self, epochs: usize) -> Result<S, ServiceError> {
        let k = epochs.min(self.ring.len());
        if k == 0 {
            return Err(ServiceError::EmptyWindow);
        }
        let drop = self.ring.len() - k;
        if drop <= k {
            let mut merged = self.running.clone();
            for epoch in self.ring.iter().take(drop) {
                merged.subtract(&epoch.server)?;
            }
            Ok(merged)
        } else {
            let mut survivors = self.ring.iter().skip(drop);
            let mut merged = survivors.next().expect("k >= 1").server.clone();
            for epoch in survivors {
                merged.merge(&epoch.server)?;
            }
            Ok(merged)
        }
    }

    /// The inclusive epoch-id interval a trailing window of `epochs`
    /// sealed epochs would cover, or `None` while nothing is sealed.
    #[must_use]
    pub fn window_bounds(&self, epochs: usize) -> Option<(u64, u64)> {
        let k = epochs.min(self.ring.len());
        if k == 0 {
            return None;
        }
        Some((
            self.ring[self.ring.len() - k].id,
            self.ring.back().expect("k >= 1").id,
        ))
    }

    /// An empty ring *epoch-aligned* with this one: same window
    /// configuration, same open epoch id, and one empty accumulator per
    /// retained sealed epoch (matching ids). This is what the remaining
    /// shards of a recovered windowed service start from, so shard rings
    /// merge and seal in lockstep with the shard holding the recovered
    /// state (see [`crate::LdpService::with_recovered`]).
    #[must_use]
    pub fn aligned_empty(&self) -> Self {
        Self {
            prototype: self.prototype.clone(),
            ring: self
                .ring
                .iter()
                .map(|e| SealedEpoch {
                    id: e.id,
                    server: self.prototype.clone(),
                })
                .collect(),
            running: self.prototype.clone(),
            current: self.prototype.clone(),
            current_id: self.current_id,
            window_len: self.window_len,
            epoch_width: self.epoch_width,
            obs: self.obs.clone(),
        }
    }

    /// Freezes the trailing `epochs` sealed epochs into an immutable
    /// query handle; ingestion into the open epoch continues undisturbed.
    ///
    /// # Errors
    ///
    /// As [`EpochRing::window_server`].
    pub fn window_snapshot(&self, epochs: usize) -> Result<WindowedSnapshot, ServiceError>
    where
        S: SnapshotSource,
    {
        let server = self.window_server(epochs)?;
        let (first, last) = self
            .window_bounds(epochs)
            .ok_or(ServiceError::EmptyWindow)?;
        Ok(WindowedSnapshot {
            snapshot: RangeSnapshot::freeze(&server, last),
            first_epoch: first,
            last_epoch: last,
        })
    }
}

// The ring is itself a mergeable accumulator, so the whole sharding and
// service stack (`ShardedAggregator<EpochRing<S>>`,
// `LdpService<EpochRing<S>>`) applies to windowed state unchanged.
// Merging requires epoch-aligned rings — same window configuration, same
// open epoch, same retained ids — which shard pools cloned from one
// prototype and sealed in lockstep satisfy by construction.
impl<S: SubtractableServer> MergeableServer for EpochRing<S> {
    type Report = S::Report;

    fn absorb(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        self.current.absorb(report)?;
        // Auto-sealing is deliberately *not* applied on this path: shards
        // absorb through this trait, and shard-local report counts would
        // seal shards at different moments, breaking epoch alignment.
        Ok(())
    }

    /// Retracts from the open epoch. A report absorbed before the last
    /// seal lives in a sealed epoch and cannot be retracted: the service
    /// batch paths retract only within one shard-lock hold, during which
    /// no seal can run (their rings seal manually, never on width).
    fn retract(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        self.current.retract(report)
    }

    fn merge(&mut self, other: &Self) -> Result<(), RangeError> {
        let aligned = other.window_len == self.window_len
            && other.epoch_width == self.epoch_width
            && other.current_id == self.current_id
            && other.ring.len() == self.ring.len()
            && other.ring.iter().zip(&self.ring).all(|(a, b)| a.id == b.id);
        if !aligned {
            return Err(RangeError::ReportShapeMismatch);
        }
        self.running.merge(&other.running)?;
        self.current.merge(&other.current)?;
        for (mine, theirs) in self.ring.iter_mut().zip(&other.ring) {
            mine.server.merge(&theirs.server)?;
        }
        Ok(())
    }

    fn num_reports(&self) -> u64 {
        // Reports inside the retention window: every sealed epoch still
        // ringed (the running merge) plus the open epoch.
        self.running.num_reports() + self.current.num_reports()
    }
}

/// Subtraction mirrors [`MergeableServer::merge`] slot by slot — running
/// merge, open epoch, and each retained sealed epoch — with the same
/// alignment requirements. This is the exact inverse the service's delta
/// snapshot refresh needs to swap a shard ring's previous contribution
/// out of a retained running merge
/// ([`crate::LdpService::refresh_snapshot`]). A misaligned subtrahend —
/// including a clone taken before this ring sealed another epoch — is
/// rejected up front, exactly like a misaligned merge.
impl<S: SubtractableServer> SubtractableServer for EpochRing<S> {
    fn subtract(&mut self, other: &Self) -> Result<(), RangeError> {
        let aligned = other.window_len == self.window_len
            && other.epoch_width == self.epoch_width
            && other.current_id == self.current_id
            && other.ring.len() == self.ring.len()
            && other.ring.iter().zip(&self.ring).all(|(a, b)| a.id == b.id);
        if !aligned {
            return Err(RangeError::ReportShapeMismatch);
        }
        self.running.subtract(&other.running)?;
        self.current.subtract(&other.current)?;
        for (mine, theirs) in self.ring.iter_mut().zip(&other.ring) {
            mine.server.subtract(&theirs.server)?;
        }
        Ok(())
    }
}

/// The ring's complete mutable state: the open epoch id, every retained
/// sealed epoch (id + accumulator), and the open accumulator. The window
/// configuration is written for validation only — the restoring side must
/// already hold a ring of the same shape — and the running merge is *not*
/// written: it is recomputed from the sealed epochs on restore, which
/// reproduces it bit-identically (integer sums) while guaranteeing the
/// restored ring is internally consistent.
impl<S> PersistableServer for EpochRing<S>
where
    S: SubtractableServer + PersistableServer,
{
    fn persist_state(&self, out: &mut Vec<u8>) {
        put_varint(out, self.window_len as u64);
        put_varint(out, self.epoch_width);
        put_varint(out, self.current_id);
        put_varint(out, self.ring.len() as u64);
        for epoch in &self.ring {
            put_varint(out, epoch.id);
            epoch.server.persist_state(out);
        }
        self.current.persist_state(out);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RangeError> {
        if r.varint()? != self.window_len as u64 {
            return Err(RangeError::CorruptState("window length mismatch"));
        }
        if r.varint()? != self.epoch_width {
            return Err(RangeError::CorruptState("epoch width mismatch"));
        }
        let current_id = r.varint()?;
        let ring_len = r.varint()?;
        if ring_len > self.window_len as u64 || ring_len > current_id {
            return Err(RangeError::CorruptState("retained epochs exceed window"));
        }
        let mut ring = VecDeque::with_capacity(self.window_len + 1);
        let mut running = self.prototype.clone();
        for k in 0..ring_len {
            let id = r.varint()?;
            // Retained epochs are always the consecutive run ending just
            // below the open epoch — anything else never came from
            // `persist_state`.
            if id != current_id - (ring_len - k) {
                return Err(RangeError::CorruptState("sealed epoch ids not consecutive"));
            }
            let mut server = self.prototype.clone();
            server.restore_state(r)?;
            running.merge(&server)?;
            ring.push_back(SealedEpoch { id, server });
        }
        let mut current = self.prototype.clone();
        current.restore_state(r)?;
        self.ring = ring;
        self.running = running;
        self.current = current;
        self.current_id = current_id;
        Ok(())
    }
}

impl<S: SubtractableServer + SnapshotSource> SnapshotSource for EpochRing<S> {
    /// The live windowed estimate: every retained sealed epoch plus the
    /// open epoch. This is what `LdpService::refresh_snapshot` publishes
    /// for a windowed service — the trailing-window view, not the
    /// all-time population.
    fn frequency_estimate(&self) -> ldp_ranges::FrequencyEstimate {
        let mut merged = self.running.clone();
        merged
            .merge(&self.current)
            .expect("ring epochs share one prototype");
        merged.frequency_estimate()
    }
}

/// An immutable freeze of a trailing window of sealed epochs.
///
/// Wraps a [`RangeSnapshot`] (whose version is the newest epoch id
/// covered) plus the inclusive epoch interval it reflects, so readers can
/// reason about *which* slice of time they are querying.
#[derive(Debug, Clone)]
pub struct WindowedSnapshot {
    snapshot: RangeSnapshot,
    first_epoch: u64,
    last_epoch: u64,
}

impl WindowedSnapshot {
    /// Assembles a windowed handle from a frozen snapshot and the epoch
    /// interval it covers (the sharded service builds one from per-shard
    /// window servers).
    pub(crate) fn from_parts(snapshot: RangeSnapshot, first_epoch: u64, last_epoch: u64) -> Self {
        Self {
            snapshot,
            first_epoch,
            last_epoch,
        }
    }

    /// Oldest epoch id covered (inclusive).
    #[must_use]
    pub fn first_epoch(&self) -> u64 {
        self.first_epoch
    }

    /// Newest epoch id covered (inclusive).
    #[must_use]
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Number of epochs covered.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.last_epoch - self.first_epoch + 1
    }

    /// Reports reflected in this window.
    #[must_use]
    pub fn num_reports(&self) -> u64 {
        self.snapshot.num_reports()
    }

    /// Estimated fraction of window reports with value in `[a, b]`.
    ///
    /// # Panics
    ///
    /// Panics on invalid bounds.
    #[must_use]
    pub fn range(&self, a: usize, b: usize) -> f64 {
        self.snapshot.range(a, b)
    }

    /// Estimated prefix fraction `R[0, b]` within the window.
    #[must_use]
    pub fn prefix(&self, b: usize) -> f64 {
        self.snapshot.prefix(b)
    }

    /// Estimated frequency of one item within the window.
    #[must_use]
    pub fn point(&self, z: usize) -> f64 {
        self.snapshot.point(z)
    }

    /// Estimated φ-quantile of the window distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ phi ≤ 1`.
    #[must_use]
    pub fn quantile(&self, phi: f64) -> usize {
        self.snapshot.quantile(phi)
    }

    /// The underlying frozen snapshot.
    #[must_use]
    pub fn snapshot(&self) -> &RangeSnapshot {
        &self.snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_freq_oracle::Epsilon;
    use ldp_ranges::{HhClient, HhConfig, HhServer, RangeEstimate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(domain: usize) -> (HhClient, HhServer) {
        let config = HhConfig::new(domain, 4, Epsilon::from_exp(3.0)).unwrap();
        (
            HhClient::new(config.clone()).unwrap(),
            HhServer::new(config).unwrap(),
        )
    }

    #[test]
    fn ring_rotates_and_matches_scratch_merge() {
        let (client, prototype) = setup(64);
        let mut ring = EpochRing::new(&prototype, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(901);
        let mut epochs: Vec<Vec<ldp_ranges::HhReport>> = Vec::new();
        for e in 0..6u64 {
            assert_eq!(ring.current_epoch(), e);
            let batch: Vec<_> = (0..200)
                .map(|i| client.report((e as usize * 7 + i) % 64, &mut rng).unwrap())
                .collect();
            for r in &batch {
                ring.absorb(r).unwrap();
            }
            epochs.push(batch);
            assert_eq!(ring.seal_epoch().unwrap(), e);
        }
        assert_eq!(ring.epochs_retained(), 3);
        assert_eq!(
            ring.sealed().map(SealedEpoch::id).collect::<Vec<_>>(),
            [3, 4, 5]
        );

        // Windowed state after rotation ≡ absorbing the covered epochs
        // into a fresh server, bit-for-bit.
        for k in 1..=3usize {
            let snap = ring.window_snapshot(k).unwrap();
            assert_eq!(snap.epochs(), k as u64);
            assert_eq!(snap.last_epoch(), 5);
            let mut scratch = prototype.clone();
            for batch in &epochs[6 - k..] {
                for r in batch {
                    MergeableServer::absorb(&mut scratch, r).unwrap();
                }
            }
            assert_eq!(snap.num_reports(), scratch.num_reports());
            let direct = scratch.estimate_consistent().to_frequency_estimate();
            for z in 0..64 {
                assert!(
                    snap.point(z).to_bits() == direct.point(z).to_bits(),
                    "k={k}: leaf {z} differs after rotation"
                );
            }
        }
    }

    #[test]
    fn auto_seal_by_epoch_width() {
        let (client, prototype) = setup(64);
        let mut ring = EpochRing::with_epoch_width(&prototype, 4, 50).unwrap();
        let mut rng = StdRng::seed_from_u64(902);
        for i in 0..175usize {
            ring.absorb(&client.report(i % 64, &mut rng).unwrap())
                .unwrap();
        }
        // 175 reports / width 50 → three sealed epochs, 25 in flight.
        assert_eq!(ring.current_epoch(), 3);
        assert_eq!(ring.epochs_retained(), 3);
        assert_eq!(ring.current_reports(), 25);
        let snap = ring.window_snapshot(usize::MAX).unwrap();
        assert_eq!(snap.num_reports(), 150);
    }

    #[test]
    fn epoch_tags_are_enforced() {
        let (client, prototype) = setup(64);
        let mut ring = EpochRing::new(&prototype, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(903);
        let r = client.report(5, &mut rng).unwrap();
        ring.absorb_tagged(Some(0), &r).unwrap();
        ring.absorb_tagged(None, &r).unwrap();
        assert!(matches!(
            ring.absorb_tagged(Some(1), &r),
            Err(ServiceError::EpochMismatch {
                frame: 1,
                current: 0
            })
        ));
        ring.seal_epoch().unwrap();
        assert!(matches!(
            ring.absorb_tagged(Some(0), &r),
            Err(ServiceError::EpochMismatch {
                frame: 0,
                current: 1
            })
        ));
        ring.absorb_tagged(Some(1), &r).unwrap();
    }

    #[test]
    fn empty_windows_are_rejected() {
        let (_, prototype) = setup(64);
        assert!(matches!(
            EpochRing::new(&prototype, 0),
            Err(ServiceError::EmptyWindow)
        ));
        assert!(matches!(
            EpochRing::with_epoch_width(&prototype, 2, 0),
            Err(ServiceError::EmptyWindow)
        ));
        let ring = EpochRing::new(&prototype, 2).unwrap();
        assert!(matches!(
            ring.window_snapshot(1),
            Err(ServiceError::EmptyWindow)
        ));
        let mut ring = ring;
        ring.seal_epoch().unwrap(); // an empty epoch is still an epoch
        assert!(matches!(
            ring.window_snapshot(0),
            Err(ServiceError::EmptyWindow)
        ));
        assert_eq!(ring.window_snapshot(1).unwrap().num_reports(), 0);
    }

    #[test]
    fn ring_merge_requires_alignment() {
        let (client, prototype) = setup(64);
        let mut rng = StdRng::seed_from_u64(904);
        let mut a = EpochRing::new(&prototype, 2).unwrap();
        let mut b = EpochRing::new(&prototype, 2).unwrap();
        let r = client.report(9, &mut rng).unwrap();
        a.absorb(&r).unwrap();
        b.absorb(&r).unwrap();
        a.seal_epoch().unwrap();
        b.seal_epoch().unwrap();
        // Aligned rings merge; total covers both shards' reports.
        let mut merged = a.clone();
        MergeableServer::merge(&mut merged, &b).unwrap();
        assert_eq!(merged.num_reports(), 2);
        // Misaligned rings (one sealed further) must refuse.
        b.seal_epoch().unwrap();
        assert!(MergeableServer::merge(&mut a, &b).is_err());
    }
}
