//! The live service front: concurrent ingestion with snapshot-isolated
//! query serving.
//!
//! [`LdpService`] wires the pieces together for long-running use:
//!
//! * **Ingestion** — each shard sits behind its own mutex; submitters
//!   pick a shard round-robin, so writers contend only `1/num_shards` of
//!   the time and the service can absorb traffic from many threads at
//!   once.
//! * **Query serving** — readers never touch shard state. They clone an
//!   `Arc` to the latest published [`RangeSnapshot`] and answer queries
//!   lock-free against that immutable freeze.
//! * **Publication** — [`LdpService::refresh_snapshot`] locks shards one
//!   at a time (briefly, to clone), merges the clones, runs the expensive
//!   estimation *outside* any shard lock, and atomically swaps the
//!   published snapshot with a bumped version. Refreshes are *delta*
//!   refreshes: the service retains the merged accumulator between
//!   refreshes and re-clones only shards that absorbed since the last
//!   freeze, swapping each one's previous contribution out by exact
//!   subtraction — bit-identical to the from-scratch clone-and-merge
//!   (integer sufficient statistics), at a cost proportional to the
//!   shards that actually changed.
//!
//! Queries therefore keep answering — at a bounded staleness — while
//! ingestion continues, which is the contract industry aggregation
//! pipelines provide.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::time::Instant;

use ldp_ranges::{MergeableServer, SubtractableServer};

use crate::error::{bad_frame, ServiceError};
use crate::obs::instruments::{ServiceInstruments, ShardInstruments, WindowInstruments};
use crate::obs::MetricsRegistry;
use crate::snapshot::{RangeSnapshot, SnapshotSource};
use crate::window::{EpochRing, WindowedSnapshot};
use crate::wire::{decode_frame, WireReport};

// The service's resolved instrument handles (shard tier: the per-shard
// absorb paths run inside this type; service tier: snapshot publication).
struct ServiceObs {
    shard: ShardInstruments,
    service: ServiceInstruments,
}

/// State carried from one snapshot refresh to the next so a refresh can
/// merge *deltas* instead of re-merging every shard from scratch:
/// `merged` always equals the merge of `retained`, and `seen[k]` is the
/// value shard `k`'s dirty counter had when `retained[k]` was cloned.
struct RefreshState<S> {
    merged: S,
    retained: Vec<S>,
    seen: Vec<u64>,
}

/// A sharded LDP aggregation service with snapshot-isolated reads.
pub struct LdpService<S: SnapshotSource> {
    shards: Vec<Mutex<S>>,
    /// Per-shard mutation counters, bumped under the shard lock on every
    /// committed state change; a delta refresh skips any shard whose
    /// counter has not moved since its retained clone was taken.
    dirty: Vec<AtomicU64>,
    next_shard: AtomicUsize,
    published: RwLock<Arc<RangeSnapshot>>,
    version: AtomicU64,
    /// Serializes refreshes end to end (clone → estimate → publish) so a
    /// slow refresher can never overwrite a newer snapshot with staler
    /// data, and holds the retained delta-refresh state (`None` until the
    /// first refresh, and reset by structural changes like epoch seals);
    /// readers stay lock-free on `published`.
    refresh: Mutex<Option<RefreshState<S>>>,
    /// Kill switch for the delta refresh path; disabled, every refresh
    /// falls back to the from-scratch clone-and-merge. Snapshots are
    /// bit-identical either way — the switch exists so CI can prove that
    /// equivalence (see [`LdpService::set_delta_refresh`]).
    delta_refresh: AtomicBool,
    /// Telemetry handles, attached at most once
    /// ([`LdpService::attach_metrics`]); unattached, every hot path pays
    /// one `OnceLock` load and nothing else.
    obs: OnceLock<ServiceObs>,
    /// Window-tier handles for the lockstep seal sweep
    /// (`attach_window_metrics`; meaningful only for windowed backends).
    window_obs: OnceLock<Arc<WindowInstruments>>,
}

/// Environment override for the delta refresh path: set
/// `LDP_DELTA_REFRESH` to `0`, `off`, `false`, or `no` to force every
/// refresh through the from-scratch clone-and-merge. CI uses this as a
/// negative control proving delta and full refreshes publish identical
/// snapshots.
pub const DELTA_REFRESH_ENV: &str = "LDP_DELTA_REFRESH";

fn delta_refresh_from_env() -> bool {
    match std::env::var(DELTA_REFRESH_ENV) {
        Ok(v) => !matches!(
            v.to_ascii_lowercase().as_str(),
            "0" | "off" | "false" | "no"
        ),
        Err(_) => true,
    }
}

/// Locks a mutex, surfacing poisoning as a typed error instead of a
/// panic: one panicked writer must degrade the service, not cascade.
fn lock<'a, T>(mutex: &'a Mutex<T>, what: &'static str) -> Result<MutexGuard<'a, T>, ServiceError> {
    mutex.lock().map_err(|_| ServiceError::LockPoisoned(what))
}

/// Locks a mutex for a read-only peek, recovering from poisoning. Sound
/// here because batches absorb in place under the shard guard and a
/// refused batch is fully retracted before that guard drops
/// ([`absorb_in_place`]), so a shard is only ever observed between whole
/// batches. Only a panic inside `absorb` (or `retract`) can leave part of
/// a batch behind, and that poisons the shard lock: every writer and
/// every snapshot refresh then fails with [`ServiceError::LockPoisoned`],
/// and only these racy, read-only peeks still see the shard.
fn lock_infallible<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A batch [`absorb_in_place`] can walk twice: once to absorb every
/// report and, if one is refused, once more over the absorbed prefix to
/// retract it.
pub(crate) trait Batch<R> {
    /// Feeds the reports, in order and with their epoch tags (`None` when
    /// untagged), to `sink`: every report, validating the batch as a
    /// whole, when `prefix` is `None`; only the first `n` — which an
    /// earlier full walk already fed — when it is `Some(n)`.
    ///
    /// Returns the number of reports fed.
    ///
    /// # Errors
    ///
    /// A refusal, by the batch's own validation or by `sink`, surfaces as
    /// [`ServiceError::BadFrame`] whose index is the number of reports fed
    /// before it.
    fn walk<F>(&self, prefix: Option<usize>, sink: F) -> Result<u64, ServiceError>
    where
        F: FnMut(Option<u64>, &R) -> Result<(), ServiceError>;
}

impl<R> Batch<R> for [R] {
    fn walk<F>(&self, prefix: Option<usize>, mut sink: F) -> Result<u64, ServiceError>
    where
        F: FnMut(Option<u64>, &R) -> Result<(), ServiceError>,
    {
        let reports = &self[..prefix.unwrap_or(self.len())];
        for (i, report) in reports.iter().enumerate() {
            sink(None, report).map_err(|e| bad_frame::<R>(i, e))?;
        }
        Ok(reports.len() as u64)
    }
}

impl<R> Batch<R> for [(Option<u64>, R)] {
    fn walk<F>(&self, prefix: Option<usize>, mut sink: F) -> Result<u64, ServiceError>
    where
        F: FnMut(Option<u64>, &R) -> Result<(), ServiceError>,
    {
        let reports = &self[..prefix.unwrap_or(self.len())];
        for (i, (epoch, report)) in reports.iter().enumerate() {
            sink(*epoch, report).map_err(|e| bad_frame::<R>(i, e))?;
        }
        Ok(reports.len() as u64)
    }
}

/// A REPORT batch still in its raw wire form: back-to-back frames of one
/// wire version, decoded one at a time from borrowed bytes (and decoded
/// again, from the same bytes, to retract a refused batch's prefix).
pub(crate) struct WireFrames<'a> {
    /// Negotiated wire version (v2 frames carry epoch tags).
    pub wire_version: u8,
    /// Declared frame count.
    pub count: u64,
    /// The raw frames.
    pub frames: &'a [u8],
}

impl<R: WireReport> Batch<R> for WireFrames<'_> {
    fn walk<F>(&self, prefix: Option<usize>, mut sink: F) -> Result<u64, ServiceError>
    where
        F: FnMut(Option<u64>, &R) -> Result<(), ServiceError>,
    {
        let sink = |epoch, report: R| sink(epoch, &report);
        match prefix {
            None => crate::wire::for_each_frame(self.wire_version, self.count, self.frames, sink),
            Some(n) => {
                crate::wire::walk_frames(self.wire_version, n as u64, &mut &*self.frames, sink)
            }
        }
    }
}

/// Absorbs one all-or-nothing batch straight into `state`: the single
/// ingest primitive under every batch path (the `LdpService` batch
/// methods, durable ingest and follower apply through them, and recovery
/// replay). No copy of `state` is taken. `absorb` fails before it mutates
/// anything, so when report `i` is refused `state` holds exactly reports
/// `0..i` on top of what it held before; those are retracted — re-walked
/// from the same slice or the same borrowed bytes — before the error
/// returns, leaving `state` bit-identical to before the call.
///
/// # Panics
///
/// If retracting an absorbed report fails, which cannot happen: `retract`
/// inverts a successful `absorb` of the same report. Live callers hold
/// `state` under a shard lock, so such a panic would poison it rather
/// than let a half-absorbed batch be served.
pub(crate) fn absorb_in_place<S, B>(
    state: &mut S,
    batch: &B,
    mut absorb: impl FnMut(&mut S, Option<u64>, &S::Report) -> Result<(), ServiceError>,
) -> Result<u64, ServiceError>
where
    S: MergeableServer,
    B: Batch<S::Report> + ?Sized,
{
    let result = batch.walk(None, |epoch, report| absorb(state, epoch, report));
    if let Err(ServiceError::BadFrame { index, .. }) = &result {
        batch
            .walk(Some(*index), |_, report| {
                state.retract(report).map_err(Into::into)
            })
            .expect("retracting an absorbed batch prefix cannot fail");
    }
    result
}

/// Per-report absorb for unwindowed state: epoch tags are ignored.
pub(crate) fn absorb_untagged<S: MergeableServer>(
    state: &mut S,
    _epoch: Option<u64>,
    report: &S::Report,
) -> Result<(), ServiceError> {
    state.absorb(report).map_err(Into::into)
}

/// Per-report absorb for an epoch ring: the tag must name the open epoch
/// ([`EpochRing::absorb_tagged`]'s rule), and the report lands in the open
/// epoch without ever auto-sealing, so a refused batch can be retracted
/// from the epoch it went into.
pub(crate) fn absorb_in_open_epoch<S: SubtractableServer>(
    ring: &mut EpochRing<S>,
    epoch: Option<u64>,
    report: &S::Report,
) -> Result<(), ServiceError> {
    ring.check_epoch(epoch)?;
    MergeableServer::absorb(ring, report).map_err(Into::into)
}

/// What a refused wire batch adds to `frames_rejected`: the declared
/// count, bounded by what the payload could physically hold (the smallest
/// frame is 5 bytes) so a lying count cannot inflate an operator-visible
/// counter.
fn plausible_frames(count: u64, payload_len: usize) -> u64 {
    count.min(payload_len as u64 / 5)
}

impl<S: SnapshotSource> LdpService<S> {
    /// Builds the service with `num_shards` shards cloned from the empty
    /// `prototype`; the initial published snapshot (version 0) is the
    /// prototype's empty-state estimate. Note that for the tree and Haar
    /// mechanisms an *empty* server estimates the uniform distribution
    /// with total mass pinned to 1 (their root/scaling coefficient is
    /// exact by construction), not all zeros — readers that must
    /// distinguish "no data yet" from real results should check
    /// [`RangeSnapshot::num_reports`] (0) or
    /// [`RangeSnapshot::version`] (0).
    ///
    /// # Errors
    ///
    /// Rejects `num_shards == 0`.
    pub fn new(prototype: &S, num_shards: usize) -> Result<Self, ServiceError> {
        Self::with_recovered(prototype.clone(), prototype, num_shards)
    }

    /// Builds the service with shard 0 seeded from `recovered` state and
    /// the remaining `num_shards - 1` shards cloned from `empty` — how
    /// the durable storage layer ([`crate::storage::DurableService`])
    /// reopens a service after crash recovery. Because merging is exact,
    /// concentrating the recovered state in one shard leaves every merged
    /// view (snapshots, `num_reports`) bit-identical to the pre-crash
    /// distribution across shards. The initial published snapshot
    /// (version 0) freezes the recovered state.
    ///
    /// For windowed backends `empty` must be epoch-aligned with
    /// `recovered` (see [`EpochRing::aligned_empty`]), or shard merging
    /// will reject the misalignment.
    ///
    /// # Errors
    ///
    /// Rejects `num_shards == 0`.
    pub fn with_recovered(
        recovered: S,
        empty: &S,
        num_shards: usize,
    ) -> Result<Self, ServiceError> {
        if num_shards == 0 {
            return Err(ServiceError::NoShards);
        }
        let initial = Arc::new(RangeSnapshot::freeze(&recovered, 0));
        let mut shards = Vec::with_capacity(num_shards);
        shards.push(Mutex::new(recovered));
        shards.extend((1..num_shards).map(|_| Mutex::new(empty.clone())));
        Ok(Self {
            shards,
            dirty: (0..num_shards).map(|_| AtomicU64::new(0)).collect(),
            next_shard: AtomicUsize::new(0),
            published: RwLock::new(initial),
            version: AtomicU64::new(0),
            refresh: Mutex::new(None),
            delta_refresh: AtomicBool::new(delta_refresh_from_env()),
            obs: OnceLock::new(),
            window_obs: OnceLock::new(),
        })
    }

    /// Whether snapshot refreshes may take the delta path (re-clone and
    /// re-merge only shards that absorbed since the last freeze).
    #[must_use]
    pub fn delta_refresh_enabled(&self) -> bool {
        self.delta_refresh.load(Ordering::Relaxed)
    }

    /// Enables or disables the delta refresh path. The initial value
    /// comes from the [`DELTA_REFRESH_ENV`] environment variable
    /// (enabled unless set to `0`/`off`/`false`/`no`). Published
    /// snapshots are bit-identical on either path; disabling only costs
    /// refresh latency, which is why the negative control in CI can flip
    /// it without touching correctness.
    pub fn set_delta_refresh(&self, enabled: bool) {
        self.delta_refresh.store(enabled, Ordering::Relaxed);
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Attaches shard- and service-tier telemetry from the shared
    /// `registry`: batch absorb wall time, accepted/rejected frame
    /// counts, snapshot refresh latency, and the published version gauge.
    /// First attachment wins (returns `false` if already attached);
    /// unattached services carry zero instrumentation cost.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) -> bool {
        self.obs
            .set(ServiceObs {
                shard: ShardInstruments::register(registry),
                service: ServiceInstruments::register(registry),
            })
            .is_ok()
    }

    /// Absorbs one decoded report into the next shard (round-robin).
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the mechanism.
    pub fn submit(&self, report: &S::Report) -> Result<(), ServiceError> {
        let k = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let mut shard = lock(&self.shards[k], "shard")?;
        let result = shard.absorb(report);
        if result.is_ok() {
            self.dirty[k].fetch_add(1, Ordering::Relaxed);
        }
        if let Some(obs) = self.obs.get() {
            match &result {
                Ok(()) => obs.shard.frames_accepted.incr(),
                Err(_) => obs.shard.frames_rejected.incr(),
            }
        }
        result.map_err(Into::into)
    }

    /// Decodes one wire frame and absorbs it. The buffer must hold
    /// exactly one frame — trailing bytes (a second concatenated frame, a
    /// partial next report) are an error, never silently dropped.
    ///
    /// # Errors
    ///
    /// Propagates wire and mechanism errors.
    pub fn submit_frame(&self, frame: &[u8]) -> Result<(), ServiceError>
    where
        S::Report: WireReport,
    {
        let (report, used) = decode_frame::<S::Report>(frame)?;
        if used != frame.len() {
            return Err(crate::error::WireError::Malformed("trailing bytes after frame").into());
        }
        self.submit(&report)
    }

    /// Absorbs a batch of decoded reports into one round-robin shard,
    /// **all-or-nothing**: the reports absorb straight into the locked
    /// shard, and a refused report has every earlier one retracted before
    /// the lock drops, so a rejected batch can be retried or discarded
    /// without double-counting. This is the transactional unit the
    /// network front end ([`crate::net::LdpServer`]) acks per REPORT
    /// message.
    ///
    /// Because every mechanism's state is an integer sum, the result is
    /// bit-identical to absorbing the same reports through
    /// [`LdpService::submit`] one at a time.
    ///
    /// # Errors
    ///
    /// A rejected report surfaces as [`ServiceError::BadFrame`] carrying
    /// its batch index and report type; state is unchanged on error.
    pub fn submit_batch(&self, reports: &[S::Report]) -> Result<(), ServiceError> {
        if reports.is_empty() {
            return Ok(());
        }
        self.submit_in_place(reports, reports.len() as u64, absorb_untagged)
            .map(drop)
    }

    /// [`LdpService::submit_batch`] over decoded `(epoch tag, report)`
    /// pairs, ignoring the tags exactly as
    /// [`LdpService::submit_wire_batch`] does — how the durable tier
    /// absorbs a batch it decoded outside its WAL lock into a plain
    /// backend.
    pub(crate) fn submit_batch_ignoring_tags(
        &self,
        reports: &[(Option<u64>, S::Report)],
    ) -> Result<(), ServiceError> {
        if reports.is_empty() {
            return Ok(());
        }
        self.submit_in_place(reports, reports.len() as u64, absorb_untagged)
            .map(drop)
    }

    /// Absorbs a REPORT batch straight from its raw wire bytes into one
    /// round-robin shard, **all-or-nothing** like
    /// [`LdpService::submit_batch`], without materializing the decoded
    /// batch: each frame is decoded from its borrowed subslice of
    /// `frames` and absorbed into the locked shard immediately (a refused
    /// frame's predecessors are decoded again from the same bytes and
    /// retracted), so the batch machinery does O(1) allocations however
    /// many frames the message carries. Epoch tags (v2 frames) are
    /// ignored, exactly as the collecting network path ignored them for
    /// unwindowed backends.
    ///
    /// Returns the number of frames absorbed (always `count` on success).
    ///
    /// # Errors
    ///
    /// A malformed or rejected frame surfaces as
    /// [`ServiceError::BadFrame`] with its batch index; state is
    /// unchanged on error.
    pub fn submit_wire_batch(
        &self,
        wire_version: u8,
        count: u64,
        frames: &[u8],
    ) -> Result<u64, ServiceError>
    where
        S::Report: WireReport,
    {
        if count == 0 && frames.is_empty() {
            return Ok(0);
        }
        let batch = WireFrames {
            wire_version,
            count,
            frames,
        };
        self.submit_in_place(
            &batch,
            plausible_frames(count, frames.len()),
            absorb_untagged,
        )
    }

    /// Counts a wire batch refused before it reached a shard (the durable
    /// tier decodes ahead of its WAL lock) into `frames_rejected`, as
    /// [`LdpService::submit_wire_batch`] would have counted it.
    pub(crate) fn count_refused_wire_batch(&self, count: u64, payload_len: usize) {
        if let Some(obs) = self.obs.get() {
            obs.shard
                .frames_rejected
                .add(plausible_frames(count, payload_len));
        }
    }

    /// The body of every batch method: [`absorb_in_place`] into the next
    /// round-robin shard under its lock, a dirty-counter bump if the batch
    /// committed, and shard-tier accounting (`rejected` frames on error).
    fn submit_in_place<B>(
        &self,
        batch: &B,
        rejected: u64,
        absorb: impl FnMut(&mut S, Option<u64>, &S::Report) -> Result<(), ServiceError>,
    ) -> Result<u64, ServiceError>
    where
        B: Batch<S::Report> + ?Sized,
    {
        let started = self.obs.get().map(|_| Instant::now());
        let k = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let result = lock(&self.shards[k], "shard").and_then(|mut shard| {
            let absorbed = absorb_in_place(&mut *shard, batch, absorb)?;
            self.dirty[k].fetch_add(1, Ordering::Relaxed);
            Ok(absorbed)
        });
        if let (Some(obs), Some(started)) = (self.obs.get(), started) {
            obs.shard.absorb_ns.record_elapsed(started);
            match &result {
                Ok(absorbed) => obs.shard.frames_accepted.add(*absorbed),
                Err(_) => obs.shard.frames_rejected.add(rejected),
            }
        }
        result
    }

    /// Total reports across all shards right now (racy by nature while
    /// writers are active; exact when quiesced).
    #[must_use]
    pub fn num_reports(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| lock_infallible(s).num_reports())
            .sum()
    }

    /// The most recently published snapshot (lock-free once cloned).
    /// Poisoning is recovered from: the published slot only ever holds a
    /// whole `Arc`, so it is consistent even if a publisher panicked.
    #[must_use]
    pub fn snapshot(&self) -> Arc<RangeSnapshot> {
        Arc::clone(
            &self
                .published
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Merges current shard state and publishes a fresh snapshot,
    /// returning it. Shards are locked one at a time only long enough to
    /// clone (or, on the delta path, to read one counter); estimation
    /// runs with no shard lock held.
    ///
    /// Refreshes after the first take the **delta path** whenever
    /// enabled (see [`LdpService::set_delta_refresh`]): the previous
    /// refresh's merged accumulator is retained, and only shards whose
    /// dirty counter moved since their last clone are re-cloned — each
    /// one's previous contribution is subtracted out and the fresh clone
    /// merged in. Integer sufficient statistics make subtract the exact
    /// inverse of merge and both order-insensitive, so the published
    /// snapshot is bit-identical to a from-scratch clone-and-merge (the
    /// `delta_refresh` proptest pins this for all six mechanisms).
    /// Structural changes (epoch seals) reset the retained state, forcing
    /// the next refresh through the full rebuild.
    ///
    /// # Errors
    ///
    /// Propagates merge failures (impossible for shards built by
    /// [`LdpService::new`]).
    pub fn refresh_snapshot(&self) -> Result<Arc<RangeSnapshot>, ServiceError> {
        // Serialize the whole clone → merge → estimate → publish sequence;
        // without this, a refresher that cloned earlier (staler data)
        // could publish after — and overwrite — a fresher snapshot.
        let mut guard = lock(&self.refresh, "refresh")?;
        let started = self.obs.get().map(|_| Instant::now());
        let reused = self.refresh_merged(&mut guard)?;
        let Some(state) = guard.as_ref() else {
            return Err(ServiceError::NoShards);
        };
        let version = self.version.fetch_add(1, Ordering::Relaxed) + 1;
        let snap = Arc::new(RangeSnapshot::freeze(&state.merged, version));
        *self
            .published
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Arc::clone(&snap);
        if let Some(obs) = self.obs.get() {
            if let Some(started) = started {
                obs.service.refresh_ns.record_elapsed(started);
            }
            obs.service.refreshes.incr();
            obs.service.snapshot_version.set(version);
            match reused {
                Some(n) => {
                    obs.service.refreshes_delta.incr();
                    obs.service.refresh_shards_reused.add(n as u64);
                }
                None => obs.service.refreshes_full.incr(),
            }
        }
        Ok(snap)
    }

    /// Brings the retained refresh state up to date with current shard
    /// contents: the delta path when state is retained and the switch is
    /// on, the from-scratch rebuild otherwise. On `Ok` the guard always
    /// holds a state whose `merged` equals a from-scratch clone-and-merge
    /// of every shard, bit for bit. Returns the number of unchanged
    /// shards the delta path reused (`None` when the full rebuild ran).
    fn refresh_merged(
        &self,
        state: &mut Option<RefreshState<S>>,
    ) -> Result<Option<usize>, ServiceError> {
        if self.delta_refresh.load(Ordering::Relaxed) {
            let applied = match state.as_mut() {
                // An error mid-delta (impossible for shards built by the
                // constructors) may leave `merged` half-updated: drop the
                // state below and rebuild instead of propagating.
                Some(s) => self.apply_shard_deltas(s).ok(),
                None => None,
            };
            if let Some(reused) = applied {
                return Ok(Some(reused));
            }
            *state = None;
        } else {
            // While the switch is off the retained clones go stale; drop
            // them so a later re-enable cannot delta against them.
            *state = None;
        }
        let mut retained = Vec::with_capacity(self.shards.len());
        let mut seen = Vec::with_capacity(self.shards.len());
        for (shard, dirty) in self.shards.iter().zip(&self.dirty) {
            let locked = lock(shard, "shard")?;
            // Read under the shard lock: the counter is bumped under this
            // same lock, so it exactly matches the cloned contents.
            seen.push(dirty.load(Ordering::Relaxed));
            retained.push(locked.clone());
        }
        let mut merged = retained.first().cloned().ok_or(ServiceError::NoShards)?;
        for shard in &retained[1..] {
            merged.merge(shard)?;
        }
        *state = Some(RefreshState {
            merged,
            retained,
            seen,
        });
        Ok(None)
    }

    /// The delta step: every shard whose dirty counter moved has its
    /// previous contribution subtracted out of the running merge and a
    /// fresh clone merged in (and retained). Unchanged shards cost one
    /// counter load — no clone, no merge. Returns how many were reused.
    fn apply_shard_deltas(&self, state: &mut RefreshState<S>) -> Result<usize, ServiceError> {
        debug_assert_eq!(state.retained.len(), self.shards.len());
        let mut reused = 0;
        for (k, (shard, dirty)) in self.shards.iter().zip(&self.dirty).enumerate() {
            let fresh = {
                let locked = lock(shard, "shard")?;
                let counter = dirty.load(Ordering::Relaxed);
                if counter == state.seen[k] {
                    reused += 1;
                    continue;
                }
                state.seen[k] = counter;
                locked.clone()
            };
            state.merged.subtract(&state.retained[k])?;
            state.merged.merge(&fresh)?;
            state.retained[k] = fresh;
        }
        Ok(reused)
    }

    /// Clones and merges every shard into one server — exactly the state
    /// a single sequential server absorbing the same reports would hold.
    /// Serialized with snapshot refreshes and epoch seals (the refresh
    /// guard), so the returned state never straddles an epoch boundary.
    /// This is what durable checkpoints serialize.
    ///
    /// # Errors
    ///
    /// Merge failures are impossible for shards built by
    /// [`LdpService::new`]; lock poisoning surfaces as
    /// [`ServiceError::LockPoisoned`].
    pub fn merged_state(&self) -> Result<S, ServiceError> {
        let _guard = lock(&self.refresh, "refresh")?;
        self.merge_shards()
    }

    /// Clone + merge of all shards; callers must hold the refresh guard.
    fn merge_shards(&self) -> Result<S, ServiceError> {
        let mut merged: Option<S> = None;
        for shard in &self.shards {
            let copy = lock(shard, "shard")?.clone();
            match &mut merged {
                None => merged = Some(copy),
                Some(m) => m.merge(&copy)?,
            }
        }
        merged.ok_or(ServiceError::NoShards)
    }
}

/// The windowed streaming front: every shard holds an [`EpochRing`], so
/// the service ingests into the open epoch, seals epochs in lockstep
/// across shards, and answers sliding-window queries while reports keep
/// arriving. [`LdpService::refresh_snapshot`] on a windowed service
/// publishes the *trailing-window* estimate (retained sealed epochs plus
/// the open one), not the all-time population.
impl<S> LdpService<EpochRing<S>>
where
    S: SnapshotSource + SubtractableServer,
{
    /// Builds a windowed service: `num_shards` shards, each an epoch ring
    /// retaining `window_len` sealed epochs. Shard rings use manual
    /// sealing only (driven by [`LdpService::seal_epoch`]) so they stay
    /// epoch-aligned.
    ///
    /// # Errors
    ///
    /// Rejects `num_shards == 0` and `window_len == 0`.
    pub fn windowed(
        prototype: &S,
        num_shards: usize,
        window_len: usize,
    ) -> Result<Self, ServiceError> {
        let ring = EpochRing::new(prototype, window_len)?;
        Self::new(&ring, num_shards)
    }

    /// Id of the epoch currently open for ingestion.
    #[must_use]
    pub fn current_epoch(&self) -> u64 {
        lock_infallible(&self.shards[0]).current_epoch()
    }

    /// Attaches window-tier telemetry from the shared `registry`: the
    /// lockstep seal sweep's latency and count are recorded here, the
    /// per-ring rotation subtract inside each shard's [`EpochRing`]. One
    /// instrument set is shared by every shard ring — rotation counts
    /// from all shards fan into the same counters, exactly like shard
    /// state fans into one merge. First attachment wins.
    pub fn attach_window_metrics(&self, registry: &MetricsRegistry) -> bool {
        let instruments = Arc::new(WindowInstruments::register(registry));
        for shard in &self.shards {
            lock_infallible(shard).set_instruments(Arc::clone(&instruments));
        }
        self.window_obs.set(instruments).is_ok()
    }

    /// Seals the open epoch on every shard and returns its id. Holds the
    /// refresh lock for the whole sweep so a concurrent
    /// [`LdpService::refresh_snapshot`] or [`LdpService::window_snapshot`]
    /// never observes half-sealed (epoch-misaligned) shards.
    ///
    /// Boundary semantics for concurrent submitters: an *untagged* (v1)
    /// report racing the seal lands on one side of the boundary or the
    /// other; a *tagged* (v2) report racing the seal may be routed to a
    /// shard that has already advanced and be rejected with
    /// [`ServiceError::EpochMismatch`] — rejection, not misplacement, is
    /// the designed failure mode, and the producer resubmits under the
    /// new epoch id (or untagged).
    ///
    /// # Errors
    ///
    /// Impossible for shards built by [`LdpService::windowed`]; an error
    /// indicates corrupted state.
    pub fn seal_epoch(&self) -> Result<u64, ServiceError> {
        let mut guard = lock(&self.refresh, "refresh")?;
        let started = self.window_obs.get().map(|_| Instant::now());
        let mut sealed = None;
        for shard in &self.shards {
            let id = lock(shard, "shard")?.seal_epoch()?;
            debug_assert!(sealed.is_none_or(|s| s == id), "shards sealed out of step");
            sealed = Some(id);
        }
        // Sealing restructures every shard ring (new open epoch, rotated
        // retention), so the retained delta-refresh clones no longer
        // align; drop them and let the next refresh rebuild from scratch.
        *guard = None;
        if let (Some(obs), Some(started)) = (self.window_obs.get(), started) {
            obs.seal_ns.record_elapsed(started);
            obs.epochs_sealed.incr();
        }
        sealed.ok_or(ServiceError::NoShards)
    }

    /// Decodes one wire frame — v1 (epoch-less) or v2 (epoch-tagged) —
    /// and absorbs it into the open epoch. A v2 tag naming any epoch
    /// other than the open one is rejected: a stale straggler must not be
    /// silently folded into the wrong window. This includes tagged frames
    /// racing a concurrent [`LdpService::seal_epoch`] (see its boundary
    /// semantics) — resubmit under the fresh epoch id.
    ///
    /// # Errors
    ///
    /// Propagates wire and mechanism errors;
    /// [`ServiceError::EpochMismatch`] for stale or future tags.
    pub fn submit_epoch_frame(&self, frame: &[u8]) -> Result<(), ServiceError>
    where
        S::Report: WireReport,
    {
        let (epoch, report, used) = crate::wire::decode_epoch_frame::<S::Report>(frame)?;
        if used != frame.len() {
            return Err(crate::error::WireError::Malformed("trailing bytes after frame").into());
        }
        let k = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let mut shard = lock(&self.shards[k], "shard")?;
        let result = shard.absorb_tagged(epoch, &report);
        if result.is_ok() {
            self.dirty[k].fetch_add(1, Ordering::Relaxed);
        }
        if let Some(obs) = self.obs.get() {
            match &result {
                Ok(()) => obs.shard.frames_accepted.incr(),
                Err(_) => obs.shard.frames_rejected.incr(),
            }
        }
        result
    }

    /// Absorbs a batch of epoch-tagged reports (`None` = untagged v1
    /// frame) into one round-robin shard, **all-or-nothing** like
    /// [`LdpService::submit_batch`]: tags are checked against the open
    /// epoch as each report absorbs into the locked shard's open epoch,
    /// so a stale straggler anywhere in the batch rejects it, with every
    /// earlier report retracted before the shard lock drops.
    ///
    /// # Errors
    ///
    /// A rejected report surfaces as [`ServiceError::BadFrame`] carrying
    /// its batch index (with [`ServiceError::EpochMismatch`] as the
    /// source for stale or future tags); state is unchanged on error.
    pub fn submit_epoch_batch(
        &self,
        reports: &[(Option<u64>, S::Report)],
    ) -> Result<(), ServiceError> {
        if reports.is_empty() {
            return Ok(());
        }
        self.submit_in_place(reports, reports.len() as u64, absorb_in_open_epoch)
            .map(drop)
    }

    /// Absorbs a REPORT batch straight from its raw wire bytes into one
    /// round-robin shard, **all-or-nothing** like
    /// [`LdpService::submit_epoch_batch`], without materializing the
    /// decoded batch — the windowed twin of
    /// [`LdpService::submit_wire_batch`]. Epoch tags are checked against
    /// the open epoch as each frame is decoded from its borrowed subslice
    /// of `frames` and absorbed into the locked shard.
    ///
    /// Returns the number of frames absorbed (always `count` on success).
    ///
    /// # Errors
    ///
    /// A malformed or rejected frame surfaces as
    /// [`ServiceError::BadFrame`] with its batch index (with
    /// [`ServiceError::EpochMismatch`] as the source for stale or future
    /// tags); state is unchanged on error.
    pub fn submit_epoch_wire_batch(
        &self,
        wire_version: u8,
        count: u64,
        frames: &[u8],
    ) -> Result<u64, ServiceError>
    where
        S::Report: WireReport,
    {
        if count == 0 && frames.is_empty() {
            return Ok(0);
        }
        let batch = WireFrames {
            wire_version,
            count,
            frames,
        };
        self.submit_in_place(
            &batch,
            plausible_frames(count, frames.len()),
            absorb_in_open_epoch,
        )
    }

    /// Merges the shard rings and freezes the trailing `epochs` sealed
    /// epochs into an immutable windowed query handle. Serialized with
    /// sealing (see [`LdpService::seal_epoch`]); queries on the returned
    /// snapshot are lock-free.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::EmptyWindow`] when `epochs == 0` or no
    /// epoch has been sealed yet.
    pub fn window_snapshot(&self, epochs: usize) -> Result<WindowedSnapshot, ServiceError> {
        // Extract each shard's trailing-window server (for the common
        // full-window query that is a clone of the shard's running merge)
        // under the refresh guard, so a concurrent seal cannot leave the
        // extraction straddling an epoch boundary. Merging and the
        // expensive estimation run after the guard drops — sealing and
        // snapshot refreshes never wait on estimation.
        let (servers, bounds) = {
            let _guard = lock(&self.refresh, "refresh")?;
            let mut servers = Vec::with_capacity(self.shards.len());
            let mut bounds = None;
            for shard in &self.shards {
                let ring = lock(shard, "shard")?;
                servers.push(ring.window_server(epochs)?);
                if bounds.is_none() {
                    // Shards seal in lockstep (under this same guard), so
                    // every shard reports identical bounds.
                    bounds = ring.window_bounds(epochs);
                }
            }
            (servers, bounds)
        };
        let (first, last) = bounds.ok_or(ServiceError::EmptyWindow)?;
        let mut servers = servers.into_iter();
        let mut merged = servers.next().ok_or(ServiceError::NoShards)?;
        for server in servers {
            merged.merge(&server)?;
        }
        Ok(WindowedSnapshot::from_parts(
            RangeSnapshot::freeze(&merged, last),
            first,
            last,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_freq_oracle::Epsilon;
    use ldp_ranges::{HaarConfig, HaarHrrClient, HaarHrrServer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn concurrent_ingest_and_query() {
        let config = HaarConfig::new(64, Epsilon::from_exp(3.0)).unwrap();
        let client = HaarHrrClient::new(config.clone()).unwrap();
        let prototype = HaarHrrServer::new(config).unwrap();
        let service = LdpService::new(&prototype, 4).unwrap();
        assert_eq!(service.num_shards(), 4);
        assert_eq!(service.snapshot().version(), 0);

        let writers = 4u64;
        let per_writer = 2_000u64;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let service = &service;
                let client = &client;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(800 + w);
                    for i in 0..per_writer {
                        let v = 16 + (i as usize % 32);
                        let r = client.report(v, &mut rng).unwrap();
                        service.submit(&r).unwrap();
                    }
                });
            }
            // A reader refreshing and querying while writers run: the
            // snapshot must always be internally consistent.
            let service = &service;
            scope.spawn(move || {
                for _ in 0..20 {
                    let snap = service.refresh_snapshot().unwrap();
                    let total = snap.range(0, 63);
                    assert!((total - 1.0).abs() < 1e-9 || snap.num_reports() == 0);
                    let _ = snap.quantile(0.5);
                }
            });
        });

        assert_eq!(service.num_reports(), writers * per_writer);
        let final_snap = service.refresh_snapshot().unwrap();
        assert_eq!(final_snap.num_reports(), writers * per_writer);
        assert!(final_snap.version() >= 20);
        assert!((final_snap.range(16, 47) - 1.0).abs() < 0.1);
        // Old handles keep answering after newer publications.
        let old = service.snapshot();
        service.refresh_snapshot().unwrap();
        assert!(old.version() < service.snapshot().version());
        let _ = old.range(0, 63);
    }
}
