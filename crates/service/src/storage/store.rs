//! [`DurableService`] — the durable front over [`LdpService`].
//!
//! Wraps a plain or windowed service with a write-ahead log and periodic
//! checkpoints. Every ingest batch is absorbed all-or-nothing and then
//! logged as **one** WAL record (group commit: the batch is the commit
//! unit, so a thousand-frame batch costs one record and at most one
//! fsync). The [`FsyncPolicy`] decides how often acknowledged bytes are
//! forced to disk; [`DurableService::checkpoint`] serializes the merged
//! state, rotates the log, and truncates segments the checkpoint covers.
//!
//! One mutex serializes absorb + append (and seal + append): WAL order
//! therefore *is* an absorption order, which is what makes replay exact —
//! in particular a frame absorbed into epoch `N` always precedes the
//! `SEAL N` record. Ingestion through the wrapped service directly would
//! bypass the log; a durable deployment ingests only through this type.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ldp_ranges::{PersistableServer, SubtractableServer};

use crate::error::ServiceError;
use crate::obs::instruments::{ReplInstruments, StorageInstruments};
use crate::obs::trace::{current_span, set_current_span};
use crate::obs::{MetricsRegistry, TraceEvent, TraceOutcome, TraceRing, TraceStage};
use crate::repl::hub::ReplHub;
use crate::service::LdpService;
use crate::snapshot::{RangeSnapshot, SnapshotSource};
use crate::storage::recovery::{self, RecoveryReport, ResumePoint};
use crate::storage::wal::{FsyncPolicy, WalRecord, WalWriter};
use crate::storage::{checkpoint, wal};
use crate::window::{EpochRing, WindowedSnapshot};
use crate::wire::{WireReport, VERSION_EPOCH};

/// Reports decoded ahead of the WAL lock from one replicated FRAMES
/// record, each paired with its optional epoch tag (empty for SEAL and
/// CHECKPOINT records, which decode nothing).
type DecodedFrames<R> = Vec<(Option<u64>, R)>;

/// Sentinel for "no checkpoint taken yet" in the atomic id cell.
const NO_CHECKPOINT: u64 = u64::MAX;

/// Tuning knobs of a [`DurableService`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Shards of the wrapped [`LdpService`].
    pub num_shards: usize,
    /// Segment size threshold; the log rotates after crossing it.
    pub segment_bytes: u64,
    /// When acknowledged WAL bytes are forced to disk.
    pub fsync: FsyncPolicy,
    /// Take a checkpoint automatically after this many appended records
    /// (0 = only explicit [`DurableService::checkpoint`] /
    /// [`DurableService::finalize`] calls).
    pub checkpoint_every_records: u64,
    /// Keep segments and checkpoints a newer checkpoint supersedes
    /// (default `false`: they are deleted, bounding disk use). The
    /// recovery differential tests enable this to compare checkpoint +
    /// tail replay against a full-log replay.
    pub retain_history: bool,
    /// Metrics registry the storage tier (and the wrapped service)
    /// instruments itself into. `None` (the default) creates a private
    /// registry, reachable via [`DurableService::registry`].
    pub registry: Option<Arc<MetricsRegistry>>,
    /// Trace ring the storage tier records its WAL-append span events
    /// into. `None` (the default) disables storage-tier tracing;
    /// `bind_durable` adopts this ring for the session tier when
    /// [`crate::net::NetConfig::trace`] is unset, the same way it adopts
    /// the registry — so one ring holds a message's whole
    /// decode→execute→append timeline.
    pub trace: Option<Arc<TraceRing>>,
}

impl Default for DurableConfig {
    fn default() -> Self {
        Self {
            num_shards: 4,
            segment_bytes: 8 << 20,
            fsync: FsyncPolicy::Always,
            checkpoint_every_records: 0,
            retain_history: false,
            registry: None,
            trace: None,
        }
    }
}

/// Durability progress counters (served over the socket as STATUS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableStatus {
    /// Id of the newest completed checkpoint, if any.
    pub last_checkpoint: Option<u64>,
    /// Segment currently being appended to.
    pub wal_segment_seq: u64,
    /// Records appended since open (not counting recovered history).
    pub wal_records: u64,
    /// Frames appended since open (not counting recovered history).
    pub wal_frames: u64,
    /// Automatic checkpoints that failed (and will be retried on the
    /// next append); explicit [`DurableService::checkpoint`] failures
    /// surface to their caller instead.
    pub checkpoint_failures: u64,
    /// Whether the service has fail-stopped after a WAL append failure
    /// (see [`DurableService::ingest_batch`]); a wedged service rejects
    /// all further ingest, seals, and checkpoints until restarted.
    pub wedged: bool,
}

enum DurableBackend<S>
where
    S: SnapshotSource + SubtractableServer,
{
    Plain(Arc<LdpService<S>>),
    Windowed(Arc<LdpService<EpochRing<S>>>),
}

/// A durable LDP aggregation service: [`LdpService`] + WAL + checkpoints.
pub struct DurableService<S>
where
    S: SnapshotSource + SubtractableServer + PersistableServer,
    S::Report: WireReport,
{
    backend: DurableBackend<S>,
    /// Serializes absorb + append, seal + append, and checkpointing. The
    /// WAL is inherently serial; holding one lock across the state change
    /// and its log record is what makes log order an absorption order.
    wal: Mutex<WalInner>,
    dir: PathBuf,
    config: DurableConfig,
    /// Newest completed checkpoint id ([`NO_CHECKPOINT`] = none).
    last_checkpoint: AtomicU64,
    /// The registry every tier below this store reports into.
    registry: Arc<MetricsRegistry>,
    /// Storage-tier instruments. These *are* the accounting state: the
    /// fail-stop wedge flag lives in `obs.wedged` (a `SeqCst` gauge —
    /// set when a WAL append fails after its batch was already absorbed,
    /// leaving in-memory state ahead of the log; every mutating path
    /// refuses while it reads 1, queries keep answering) and the
    /// auto-checkpoint failure count in `obs.checkpoint_failures`, with
    /// no shadow copies — [`DurableService::status`] and the METRICS
    /// exposition cannot disagree.
    obs: StorageInstruments,
    /// Trace ring for WAL-append span events ([`DurableConfig::trace`]).
    trace: Option<Arc<TraceRing>>,
    /// The replication hub, once this store serves as a leader (created
    /// lazily by [`DurableService::ensure_repl_hub`]). Append paths
    /// publish each logged record through it; `None` costs nothing.
    repl: OnceLock<Arc<ReplHub>>,
}

impl<S> Drop for DurableService<S>
where
    S: SnapshotSource + SubtractableServer + PersistableServer,
    S::Report: WireReport,
{
    fn drop(&mut self) {
        // Release the single-writer lock. After a real crash the stale
        // lock file remains; the next open reclaims it once the owning
        // pid is gone.
        let _ = std::fs::remove_file(lock_path(&self.dir));
    }
}

/// The single-writer lock file guarding a WAL directory.
fn lock_path(dir: &Path) -> PathBuf {
    dir.join("LOCK")
}

/// Creates the storage directory and makes its own directory entry
/// durable: a first-boot WAL directory whose entry never hit disk would
/// vanish wholesale on power loss — every acked record with it, misread
/// by the next open as a fresh, empty log — the same failure the
/// per-segment directory sync prevents, one level up. Only the immediate
/// parent is synced; provisioning a deeper ancestor chain durably is the
/// operator's concern.
fn create_dir_durable(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    if let Some(parent) = dir.parent().filter(|p| !p.as_os_str().is_empty()) {
        crate::storage::sync_dir(parent)?;
    }
    Ok(())
}

/// Takes the directory's single-writer lock: creates `LOCK` holding this
/// process id. Two writers appending to one log interleave record bytes
/// into CRC garbage, so a second open must fail instead. A stale lock
/// (the recorded pid no longer runs — a crashed previous owner) is
/// reclaimed; a live owner is an error.
fn acquire_lock(dir: &Path) -> Result<(), ServiceError> {
    let path = lock_path(dir);
    for _ in 0..2 {
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => {
                use std::io::Write;
                f.write_all(std::process::id().to_string().as_bytes())?;
                f.sync_all()?;
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                let stale = match holder {
                    // Linux: the pid is gone from /proc ⇒ the owner died
                    // without cleanup.
                    #[cfg(target_os = "linux")]
                    Some(pid) => !std::path::Path::new(&format!("/proc/{pid}")).exists(),
                    // Elsewhere there is no /proc to probe liveness with,
                    // so the lock is conservatively treated as held and
                    // the operator removes it by hand — wrongly reclaiming
                    // a live owner's lock would put two writers on one log.
                    #[cfg(not(target_os = "linux"))]
                    Some(_) => false,
                    None => false,
                };
                if !stale {
                    return Err(ServiceError::Io(std::io::Error::other(format!(
                        "WAL directory already locked by pid {holder:?} ({}); \
                         a second writer would corrupt the log",
                        path.display()
                    ))));
                }
                std::fs::remove_file(&path)?;
                // Loop once more to race-safely retake via create_new.
            }
            Err(e) => return Err(e.into()),
        }
    }
    Err(ServiceError::Io(std::io::Error::other(
        "could not acquire WAL directory lock",
    )))
}

struct WalInner {
    writer: WalWriter,
    records_since_checkpoint: u64,
}

/// Decodes a REPORT-style batch (back-to-back raw wire frames) under a
/// negotiated wire version, validating the declared count — on the same
/// frame walker as the in-place socket path, so both reject hostile
/// batches identically. Durable ingest and follower apply decode here,
/// before they take the WAL lock, and absorb the decoded slice under it.
///
/// # Errors
///
/// A malformed frame or a count/payload mismatch surfaces as
/// [`ServiceError::BadFrame`] with the offending index.
pub(crate) fn decode_batch<R: WireReport>(
    wire_version: u8,
    count: u64,
    frames: &[u8],
) -> Result<Vec<(Option<u64>, R)>, ServiceError> {
    // Capacity is bounded by what the payload can physically hold (the
    // smallest well-formed frame is 5 bytes), never by the declared count
    // alone — a lying count must not buy a huge allocation before the
    // first decode failure rejects the batch.
    let plausible = (frames.len() / 5).min(count as usize);
    let mut reports: Vec<(Option<u64>, R)> = Vec::with_capacity(plausible);
    crate::wire::for_each_frame(wire_version, count, frames, |epoch, report| {
        reports.push((epoch, report));
        Ok(())
    })?;
    Ok(reports)
}

impl<S> DurableService<S>
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    /// Opens (or creates) a durable *plain* service in `dir`: runs
    /// recovery, seeds the wrapped [`LdpService`] with the recovered
    /// state, truncates any torn WAL tail, and resumes the log.
    ///
    /// # Errors
    ///
    /// I/O failures, a zero shard count, or a checkpoint that does not
    /// match `prototype`'s configuration.
    pub fn open(
        dir: impl AsRef<Path>,
        prototype: &S,
        config: DurableConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        let dir = dir.as_ref().to_path_buf();
        create_dir_durable(&dir)?;
        acquire_lock(&dir)?;
        let result = (|| {
            let (state, report) = recovery::recover_plain(&dir, prototype)?;
            let service = LdpService::with_recovered(state, prototype, config.num_shards)?;
            Self::finish_open(
                dir.clone(),
                DurableBackend::Plain(Arc::new(service)),
                config,
                report,
            )
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(lock_path(&dir));
        }
        result
    }

    /// Opens (or creates) a durable *windowed* service in `dir`; the ring
    /// retains `window_len` sealed epochs (which must match any existing
    /// checkpoint).
    ///
    /// # Errors
    ///
    /// As [`DurableService::open`], plus `window_len == 0`.
    pub fn open_windowed(
        dir: impl AsRef<Path>,
        prototype: &S,
        window_len: usize,
        config: DurableConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        let dir = dir.as_ref().to_path_buf();
        create_dir_durable(&dir)?;
        acquire_lock(&dir)?;
        let result = (|| {
            let (ring, report) = recovery::recover_windowed(&dir, prototype, window_len)?;
            let empty = ring.aligned_empty();
            let service = LdpService::with_recovered(ring, &empty, config.num_shards)?;
            Self::finish_open(
                dir.clone(),
                DurableBackend::Windowed(Arc::new(service)),
                config,
                report,
            )
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(lock_path(&dir));
        }
        result
    }

    fn finish_open(
        dir: PathBuf,
        backend: DurableBackend<S>,
        config: DurableConfig,
        report: RecoveryReport,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        // Resuming after a torn tail truncates the damage — destructive,
        // so it is allowed only for a genuine crash artifact at the
        // physical end of the log. Mid-log corruption, a segment gap, or
        // a CRC-valid record the state machine rejected (a mismatched
        // prototype, most likely) must not cost acknowledged records:
        // refuse to open for writing and leave the directory untouched.
        if !report.safe_to_resume {
            return Err(ServiceError::Range(ldp_ranges::RangeError::CorruptState(
                "WAL damaged before its physical tail (or its records do not match this \
                 prototype); refusing to truncate acknowledged records — inspect the log \
                 or reopen with the original configuration",
            )));
        }
        // Segments beyond the resume point (after a torn record) can
        // never be replayed again — delete them so a future recovery
        // cannot resurrect them after new appends.
        let resume_seq = match report.resume {
            ResumePoint::Fresh { seq } | ResumePoint::Continue { seq, .. } => seq,
        };
        for (seq, path) in wal::list_segments(&dir)? {
            if seq > resume_seq {
                std::fs::remove_file(path)?;
            }
        }
        let writer = match report.resume {
            ResumePoint::Fresh { seq } => {
                // A "fresh" resume can still find a file under this seq —
                // a segment whose header never reached disk, or arrived
                // corrupt. Nothing in it was replayable; clear it.
                let stale = wal::segment_path(&dir, seq);
                if stale.exists() {
                    std::fs::remove_file(&stale)?;
                }
                WalWriter::create(&dir, seq, config.segment_bytes, config.fsync)?
            }
            ResumePoint::Continue { seq, valid_len } => {
                WalWriter::resume(&dir, seq, valid_len, config.segment_bytes, config.fsync)?
            }
        };
        let last = report.checkpoint_id.unwrap_or(NO_CHECKPOINT);
        // One registry for the whole stack: the storage instruments, the
        // wrapped service's shard/refresh instruments, and (windowed)
        // the ring's rotation instruments all register here, so a single
        // snapshot sees every tier.
        let registry = config
            .registry
            .clone()
            .unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
        let obs = StorageInstruments::register(&registry);
        obs.replay_records.add(report.records_replayed);
        obs.replay_frames.add(report.frames_replayed);
        match &backend {
            DurableBackend::Plain(s) => {
                s.attach_metrics(&registry);
            }
            DurableBackend::Windowed(s) => {
                s.attach_metrics(&registry);
                s.attach_window_metrics(&registry);
            }
        }
        let trace = config.trace.clone();
        Ok((
            Self {
                backend,
                wal: Mutex::new(WalInner {
                    writer,
                    records_since_checkpoint: 0,
                }),
                dir,
                config,
                last_checkpoint: AtomicU64::new(last),
                registry,
                obs,
                trace,
                repl: OnceLock::new(),
            },
            report,
        ))
    }

    /// The metrics registry this store (and the service it wraps)
    /// reports into — share it with [`crate::net::NetConfig::registry`]
    /// (done automatically by `bind_durable` when that is `None`) so one
    /// METRICS probe covers every tier.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The trace ring this store records WAL-append span events into
    /// ([`DurableConfig::trace`]) — `bind_durable` adopts it for the
    /// session tier when [`crate::net::NetConfig::trace`] is unset, like
    /// the registry.
    #[must_use]
    pub fn trace(&self) -> Option<&Arc<TraceRing>> {
        self.trace.as_ref()
    }

    /// Records one WAL-append span event: the span the worker's
    /// thread-local carries (a live REPORT/SEAL span on the leader, the
    /// leader-assigned record position on a follower re-apply), session
    /// 0 — the storage tier serves every session.
    fn trace_append(&self, started: Instant) {
        if let Some(trace) = &self.trace {
            trace.record(TraceEvent {
                span: current_span().unwrap_or(0),
                session: 0,
                stage: TraceStage::WalAppend,
                msg_type: 0,
                outcome: TraceOutcome::Ok,
                ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            });
        }
    }

    /// Whether the backend is windowed.
    #[must_use]
    pub fn is_windowed(&self) -> bool {
        matches!(self.backend, DurableBackend::Windowed(_))
    }

    /// The storage directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The wrapped plain service, for queries (`None` when windowed).
    /// Ingest through the service directly bypasses the log — durable
    /// writers use [`DurableService::ingest_batch`].
    #[must_use]
    pub fn plain(&self) -> Option<&Arc<LdpService<S>>> {
        match &self.backend {
            DurableBackend::Plain(s) => Some(s),
            DurableBackend::Windowed(_) => None,
        }
    }

    /// The wrapped windowed service, for queries (`None` when plain).
    #[must_use]
    pub fn windowed(&self) -> Option<&Arc<LdpService<EpochRing<S>>>> {
        match &self.backend {
            DurableBackend::Windowed(s) => Some(s),
            DurableBackend::Plain(_) => None,
        }
    }

    /// Decodes one batch of raw wire frames, absorbs it all-or-nothing,
    /// logs it as one WAL record, applies the fsync policy, and returns
    /// the number of frames absorbed — the durable analogue of one
    /// REPORT message. Nothing is logged for a rejected batch, so replay
    /// never faces a frame the live service refused.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadFrame`] (with index) for malformed or rejected
    /// frames — state and log unchanged. [`ServiceError::Io`] when the
    /// append fails: the batch was absorbed in memory but is **not
    /// durable**, so the service fail-stops (*wedges*) — every further
    /// ingest/seal/checkpoint is refused until a restart re-establishes
    /// `log == state` via recovery. Without the wedge a retry would
    /// double-count and a later checkpoint would silently persist the
    /// unlogged batch.
    pub fn ingest_batch(
        &self,
        wire_version: u8,
        count: u64,
        frames: &[u8],
    ) -> Result<u64, ServiceError> {
        let reports = self.decode_frames(wire_version, count, frames)?;
        let n = reports.len() as u64;
        let mut wal = self.lock_wal()?;
        self.check_wedged()?;
        match &self.backend {
            DurableBackend::Plain(s) => s.submit_batch_ignoring_tags(&reports)?,
            DurableBackend::Windowed(s) => s.submit_epoch_batch(&reports)?,
        }
        // Zero-copy append: the raw frame bytes go straight from the
        // request buffer to the log.
        let started = Instant::now();
        if let Err(e) = wal.writer.append_frames(wire_version, n, frames) {
            self.obs.wedged.set(1);
            return Err(e.into());
        }
        self.obs.append_ns.record_elapsed(started);
        self.trace_append(started);
        self.obs.batch_frames.record(n);
        self.obs.wal_records.incr();
        self.obs.wal_frames.add(n);
        wal.records_since_checkpoint += 1;
        self.notify_repl(&mut wal);
        self.maybe_auto_checkpoint(&mut wal);
        Ok(n)
    }

    /// Seals the open epoch on a windowed backend and logs the SEAL
    /// record, returning the sealed epoch id.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NotWindowed`] on a plain backend; otherwise as
    /// [`DurableService::ingest_batch`] (an append failure wedges the
    /// service).
    pub fn seal_epoch(&self) -> Result<u64, ServiceError> {
        let DurableBackend::Windowed(s) = &self.backend else {
            return Err(ServiceError::NotWindowed);
        };
        let mut wal = self.lock_wal()?;
        self.check_wedged()?;
        let epoch = s.seal_epoch()?;
        let started = Instant::now();
        if let Err(e) = wal.writer.append(&WalRecord::Seal { epoch }) {
            self.obs.wedged.set(1);
            return Err(e.into());
        }
        self.obs.append_ns.record_elapsed(started);
        self.trace_append(started);
        self.obs.wal_records.incr();
        wal.records_since_checkpoint += 1;
        self.notify_repl(&mut wal);
        self.maybe_auto_checkpoint(&mut wal);
        Ok(epoch)
    }

    /// Takes a checkpoint now: serializes the merged state, appends a
    /// CHECKPOINT marker, rotates the log (so the checkpoint boundary is
    /// a segment boundary), writes the checkpoint file atomically, and —
    /// unless [`DurableConfig::retain_history`] — deletes the segments
    /// and older checkpoints it supersedes. Returns the checkpoint id.
    ///
    /// # Errors
    ///
    /// I/O and lock failures; on error the previous checkpoint and the
    /// full log remain intact.
    pub fn checkpoint(&self) -> Result<u64, ServiceError> {
        let mut wal = self.lock_wal()?;
        self.check_wedged()?;
        self.checkpoint_locked(&mut wal)
    }

    /// Graceful shutdown epilogue: checkpoint and force everything to
    /// disk, so the next open restores from the checkpoint without any
    /// replay. Returns the final checkpoint id.
    ///
    /// # Errors
    ///
    /// As [`DurableService::checkpoint`].
    pub fn finalize(&self) -> Result<u64, ServiceError> {
        let mut wal = self.lock_wal()?;
        self.check_wedged()?;
        let id = self.checkpoint_locked(&mut wal)?;
        wal.writer.sync()?;
        Ok(id)
    }

    /// Forces all appended-but-buffered WAL bytes to disk (a durability
    /// barrier under relaxed fsync policies).
    ///
    /// # Errors
    ///
    /// I/O and lock failures.
    pub fn sync(&self) -> Result<(), ServiceError> {
        let mut wal = self.lock_wal()?;
        if let Err(e) = wal.writer.sync() {
            // A failed flush can leave a partial record on disk; writing
            // anything after it would bury acked records behind garbage.
            self.obs.wedged.set(1);
            return Err(e.into());
        }
        Ok(())
    }

    /// Durability progress counters.
    ///
    /// # Errors
    ///
    /// Lock poisoning.
    pub fn status(&self) -> Result<DurableStatus, ServiceError> {
        let wal = self.lock_wal()?;
        let last = self.last_checkpoint.load(Ordering::Relaxed);
        Ok(DurableStatus {
            last_checkpoint: (last != NO_CHECKPOINT).then_some(last),
            wal_segment_seq: wal.writer.seq(),
            wal_records: wal.writer.appended_records(),
            wal_frames: wal.writer.appended_frames(),
            // Read from the registry instruments — the only copy.
            checkpoint_failures: self.obs.checkpoint_failures.get(),
            wedged: self.obs.wedged.get() != 0,
        })
    }

    /// Total reports currently reflected in the backend (retained window
    /// for windowed backends).
    #[must_use]
    pub fn num_reports(&self) -> u64 {
        match &self.backend {
            DurableBackend::Plain(s) => s.num_reports(),
            DurableBackend::Windowed(s) => s.num_reports(),
        }
    }

    /// The most recently published snapshot of the backend.
    #[must_use]
    pub fn snapshot(&self) -> Arc<RangeSnapshot> {
        match &self.backend {
            DurableBackend::Plain(s) => s.snapshot(),
            DurableBackend::Windowed(s) => s.snapshot(),
        }
    }

    /// Merges current state and publishes a fresh snapshot.
    ///
    /// # Errors
    ///
    /// As [`LdpService::refresh_snapshot`].
    pub fn refresh_snapshot(&self) -> Result<Arc<RangeSnapshot>, ServiceError> {
        match &self.backend {
            DurableBackend::Plain(s) => s.refresh_snapshot(),
            DurableBackend::Windowed(s) => s.refresh_snapshot(),
        }
    }

    /// Freezes the trailing `epochs` sealed epochs (windowed backends).
    ///
    /// # Errors
    ///
    /// [`ServiceError::NotWindowed`] on a plain backend; otherwise as
    /// [`LdpService::window_snapshot`].
    pub fn window_snapshot(&self, epochs: usize) -> Result<WindowedSnapshot, ServiceError> {
        match &self.backend {
            DurableBackend::Windowed(s) => s.window_snapshot(epochs),
            DurableBackend::Plain(_) => Err(ServiceError::NotWindowed),
        }
    }

    /// The attached replication hub, if this store has ever served as a
    /// replication leader.
    pub(crate) fn repl_hub(&self) -> Option<&Arc<ReplHub>> {
        self.repl.get()
    }

    /// Attaches (or returns) the replication hub: scans the retained log
    /// once — under the WAL lock, so the count cannot race an append —
    /// to seed the absolute record count and decide availability (the
    /// log must still start at segment 0 for positions to be exact from
    /// the origin).
    ///
    /// # Errors
    ///
    /// I/O and lock failures during the seeding scan.
    pub(crate) fn ensure_repl_hub(&self) -> Result<Arc<ReplHub>, ServiceError> {
        let mut wal = self.lock_wal()?;
        if let Some(hub) = self.repl.get() {
            return Ok(Arc::clone(hub));
        }
        let (records, origin) = self.scan_log_locked(&mut wal)?;
        let hub = Arc::new(ReplHub::new(
            records,
            origin,
            ReplInstruments::register(&self.registry),
        ));
        let _ = self.repl.set(Arc::clone(&hub));
        Ok(hub)
    }

    /// Counts every record in the retained log (FRAMES, SEAL, and
    /// CHECKPOINT markers alike) and reports whether the log still
    /// starts at segment 0. Used to seed the leader's replication hub
    /// and to position a follower at its local tail.
    ///
    /// # Errors
    ///
    /// I/O and lock failures; corruption inside a sealed segment.
    pub(crate) fn scan_log(&self) -> Result<(u64, bool), ServiceError> {
        let mut wal = self.lock_wal()?;
        self.scan_log_locked(&mut wal)
    }

    fn scan_log_locked(&self, wal: &mut WalInner) -> Result<(u64, bool), ServiceError> {
        if let Err(e) = wal.writer.flush_buffer() {
            // A failed flush can leave a partial record on disk; writing
            // past it would bury acked records behind garbage.
            self.obs.wedged.set(1);
            return Err(e.into());
        }
        let origin = wal::list_segments(&self.dir)?
            .first()
            .is_some_and(|(seq, _)| *seq == 0);
        let mut reader = wal::WalReader::open_start(&self.dir)?;
        while !reader.next_batch(usize::MAX)?.is_empty() {}
        Ok((reader.records_read(), origin))
    }

    /// Publishes one appended record to the replication hub: flushes the
    /// writer's buffer so tail-following cursors see the record even
    /// under lazy fsync policies, then bumps the hub's absolute count
    /// and wakes streaming sessions. Called with the WAL lock held, so
    /// hub count order is log order.
    fn notify_repl(&self, wal: &mut WalInner) {
        let Some(hub) = self.repl.get() else {
            return;
        };
        if hub.has_followers() && wal.writer.flush_buffer().is_err() {
            // Same hazard as a failed sync: a partial record may now be
            // on disk, and appending past it would corrupt the log.
            self.obs.wedged.set(1);
        }
        hub.record_appended();
    }

    /// Applies a *run* of replicated WAL records under **one** WAL lock —
    /// the follower's group-commit path. Each FRAMES record absorbs
    /// all-or-nothing in place (decoded before the lock is taken) and is
    /// then appended with its original framing, so the follower's log
    /// mirrors the leader's record for record; SEAL records seal and log
    /// at their original positions, and a CHECKPOINT record is appended
    /// as a marker only (the follower checkpoints on its own schedule,
    /// which for a live follower is never). Each element pairs the
    /// leader-assigned record position with the record so per-record
    /// `WalAppend` trace spans stay correct.
    ///
    /// All-or-nothing per record: a rejected record (refused by the
    /// decoder or by the state machine) reached neither state nor log, and
    /// every record *before* it in `records` is applied and appended.
    ///
    /// # Errors
    ///
    /// As [`DurableService::ingest_batch`] / [`DurableService::seal_epoch`];
    /// a SEAL naming a different epoch than the follower's ring sealed
    /// surfaces as corrupt state (the logs have diverged). The error comes
    /// with the number of records applied and appended before it, so the
    /// caller's position (its own log length) stays truthful.
    pub(crate) fn apply_replicated_batch(
        &self,
        records: &[(u64, WalRecord)],
    ) -> Result<(), (usize, ServiceError)> {
        // Decode every FRAMES payload before taking the lock. A record
        // that fails to decode ends the run: the records before it are
        // still applied below, then its error is returned.
        let mut decoded: Vec<DecodedFrames<S::Report>> = Vec::with_capacity(records.len());
        let mut refused = None;
        for (_, record) in records {
            let reports = match record {
                WalRecord::Frames {
                    wire_version,
                    count,
                    frames,
                } => self.decode_frames(*wire_version, *count, frames),
                _ => Ok(Vec::new()),
            };
            match reports {
                Ok(reports) => decoded.push(reports),
                Err(e) => {
                    refused = Some(e);
                    break;
                }
            }
        }
        let mut wal = self.lock_wal().map_err(|e| (0, e))?;
        self.check_wedged().map_err(|e| (0, e))?;
        for (applied, ((position, record), reports)) in records.iter().zip(&decoded).enumerate() {
            set_current_span(Some(*position));
            self.apply_replicated_record(&mut wal, record, reports)
                .map_err(|e| (applied, e))?;
        }
        self.maybe_auto_checkpoint(&mut wal);
        refused.map_or(Ok(()), |e| Err((decoded.len(), e)))
    }

    /// Applies and logs one replicated record under the WAL lock (see
    /// [`DurableService::apply_replicated_batch`]); `reports` holds a
    /// FRAMES record's decoded frames.
    fn apply_replicated_record(
        &self,
        wal: &mut WalInner,
        record: &WalRecord,
        reports: &DecodedFrames<S::Report>,
    ) -> Result<(), ServiceError> {
        match record {
            WalRecord::Frames {
                wire_version,
                count,
                frames,
            } => {
                match &self.backend {
                    DurableBackend::Plain(s) => s.submit_batch_ignoring_tags(reports)?,
                    DurableBackend::Windowed(s) => s.submit_epoch_batch(reports)?,
                }
                let started = Instant::now();
                if let Err(e) = wal.writer.append_frames(*wire_version, *count, frames) {
                    self.obs.wedged.set(1);
                    return Err(e.into());
                }
                self.obs.append_ns.record_elapsed(started);
                self.trace_append(started);
                self.obs.batch_frames.record(*count);
                self.obs.wal_records.incr();
                self.obs.wal_frames.add(*count);
                wal.records_since_checkpoint += 1;
                self.notify_repl(wal);
            }
            WalRecord::Seal { epoch } => {
                let DurableBackend::Windowed(s) = &self.backend else {
                    return Err(ServiceError::NotWindowed);
                };
                let sealed = s.seal_epoch()?;
                if sealed != *epoch {
                    return Err(ServiceError::Range(ldp_ranges::RangeError::CorruptState(
                        "replicated SEAL names a different epoch than the follower sealed \
                         — the logs have diverged",
                    )));
                }
                let started = Instant::now();
                if let Err(e) = wal.writer.append(&WalRecord::Seal { epoch: *epoch }) {
                    self.obs.wedged.set(1);
                    return Err(e.into());
                }
                self.obs.append_ns.record_elapsed(started);
                self.trace_append(started);
                self.obs.wal_records.incr();
                wal.records_since_checkpoint += 1;
                self.notify_repl(wal);
            }
            WalRecord::Checkpoint { id } => {
                if let Err(e) = wal.writer.append(&WalRecord::Checkpoint { id: *id }) {
                    self.obs.wedged.set(1);
                    return Err(e.into());
                }
                self.obs.wal_records.incr();
                self.notify_repl(wal);
            }
        }
        Ok(())
    }

    /// Decodes one batch of raw wire frames ahead of the WAL lock. A
    /// refused frame is counted in the shard tier's `frames_rejected`,
    /// exactly as an in-memory wire batch refused inside the shard would
    /// be.
    fn decode_frames(
        &self,
        wire_version: u8,
        count: u64,
        frames: &[u8],
    ) -> Result<DecodedFrames<S::Report>, ServiceError> {
        if wire_version == VERSION_EPOCH && !self.is_windowed() {
            return Err(crate::error::WireError::UnsupportedVersion(wire_version).into());
        }
        decode_batch::<S::Report>(wire_version, count, frames).inspect_err(|_| {
            match &self.backend {
                DurableBackend::Plain(s) => s.count_refused_wire_batch(count, frames.len()),
                DurableBackend::Windowed(s) => s.count_refused_wire_batch(count, frames.len()),
            }
        })
    }

    fn lock_wal(&self) -> Result<std::sync::MutexGuard<'_, WalInner>, ServiceError> {
        self.wal
            .lock()
            .map_err(|_| ServiceError::LockPoisoned("wal"))
    }

    /// Refuses mutating operations after a WAL append failure left
    /// in-memory state ahead of the log.
    fn check_wedged(&self) -> Result<(), ServiceError> {
        if self.obs.wedged.get() != 0 {
            return Err(ServiceError::Io(std::io::Error::other(
                "durable service wedged by an earlier WAL append failure; \
                 restart to recover the logged prefix",
            )));
        }
        Ok(())
    }

    /// Runs an automatic checkpoint when the record threshold is
    /// reached. A failure here must *not* be attributed to the batch
    /// that triggered it — that batch is already absorbed and durably
    /// logged — so it is counted (visible in [`DurableService::status`])
    /// and retried on the next append; the previous checkpoint and the
    /// full log stay intact either way.
    fn maybe_auto_checkpoint(&self, wal: &mut WalInner) {
        if self.config.checkpoint_every_records > 0
            && wal.records_since_checkpoint >= self.config.checkpoint_every_records
            && self.checkpoint_locked(wal).is_err()
        {
            self.obs.checkpoint_failures.incr();
        }
    }

    fn checkpoint_locked(&self, wal: &mut WalInner) -> Result<u64, ServiceError> {
        let started = Instant::now();
        let last = self.last_checkpoint.load(Ordering::Relaxed);
        let id = if last == NO_CHECKPOINT { 0 } else { last + 1 };
        let state = match &self.backend {
            DurableBackend::Plain(s) => {
                let merged = s.merged_state()?;
                let mut bytes = Vec::new();
                merged.persist_state(&mut bytes);
                bytes
            }
            DurableBackend::Windowed(s) => {
                let merged = s.merged_state()?;
                let mut bytes = Vec::new();
                merged.persist_state(&mut bytes);
                bytes
            }
        };
        // Log failures here wedge like any other append failure — a
        // partial marker or unflushed rotation must not be written past.
        // A failure *after* rotation (checkpoint file, truncation) does
        // not wedge: the log itself is intact and the previous
        // checkpoint still covers it.
        if let Err(e) = wal.writer.append(&WalRecord::Checkpoint { id }) {
            self.obs.wedged.set(1);
            return Err(e.into());
        }
        self.obs.wal_records.incr();
        self.notify_repl(wal);
        let replay_from_seq = match wal.writer.rotate() {
            Ok(seq) => seq,
            Err(e) => {
                self.obs.wedged.set(1);
                return Err(e.into());
            }
        };
        checkpoint::write_checkpoint(
            &self.dir,
            &checkpoint::Checkpoint {
                id,
                replay_from_seq,
                state,
            },
        )?;
        if !self.config.retain_history {
            let mut pruned = false;
            for (seq, path) in wal::list_segments(&self.dir)? {
                if seq < replay_from_seq {
                    std::fs::remove_file(path)?;
                    pruned = true;
                }
            }
            for (old_id, path) in checkpoint::list_checkpoints(&self.dir)? {
                if old_id < id {
                    std::fs::remove_file(path)?;
                }
            }
            if pruned {
                // Records before the checkpoint no longer exist on disk:
                // positions can no longer be served from the origin, so
                // new replication subscriptions are refused (in-flight
                // cursors past the pruned point keep streaming).
                if let Some(hub) = self.repl.get() {
                    hub.mark_pruned();
                }
            }
        }
        self.last_checkpoint.store(id, Ordering::Relaxed);
        wal.records_since_checkpoint = 0;
        self.obs.checkpoint_ns.record_elapsed(started);
        self.obs.checkpoints.incr();
        Ok(id)
    }
}
