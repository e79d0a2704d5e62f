//! Durable storage: write-ahead log + checkpoint/recovery with
//! bit-identical restore.
//!
//! Everything above this module is volatile — a process restart loses
//! every report ever absorbed. This module adds the persistence tier, and
//! because every mechanism's state is an exact integer sufficient
//! statistic ([`ldp_ranges::PersistableServer`]), durability is held to
//! the same standard as the socket path: recovery after a crash at *any*
//! byte offset must reproduce a snapshot bit-identical to an in-process
//! server fed exactly the durably-logged prefix, and the
//! `recovery_differential.rs` tests enforce it for all six mechanisms,
//! windowed and unwindowed.
//!
//! ```text
//!   ingest batch ──► decode ──► absorb (in place, all-or-nothing)
//!                                  │ ok
//!                                  ▼
//!                     WAL append (CRC-framed record,      wal-00000000.log
//!                     raw v1/v2 wire frames + SEAL)       wal-00000001.log …
//!                                  │ fsync policy
//!                                  ▼ ack
//!        periodic checkpoint: merged state → ckpt-00000007.ckpt
//!                     (then older segments truncated)
//!
//!   recovery: newest valid checkpoint ──► replay WAL tail ──► stop at
//!             first torn/corrupt record ──► bit-identical state
//! ```
//!
//! * [`wal`] — the segmented write-ahead log. Each record is CRC-framed
//!   (`len + crc32 + body`) with total, allocation-capped decoding like
//!   the session protocol; FRAMES records carry the *raw* v1/v2 wire
//!   frames exactly as they arrived (the wire format is the log format —
//!   nothing is re-encoded), SEAL and CHECKPOINT are control records.
//! * [`checkpoint`] — full-state snapshots serialized via
//!   [`ldp_ranges::PersistableServer`], written atomically
//!   (temp + fsync + rename) and CRC-validated on read, so a crash
//!   mid-checkpoint can never destroy the previous one.
//! * [`recovery`] — load the newest valid checkpoint, replay the WAL
//!   tail, stop cleanly at the first torn or corrupt record (the
//!   torn-tail rule). Checkpoint + tail replay is bit-identical to
//!   replaying the full log from scratch.
//! * [`store`] — [`DurableService`]: the durable front over
//!   [`crate::LdpService`] (plain or windowed). Batches absorb
//!   all-or-nothing and are logged as one record each (group commit);
//!   the [`FsyncPolicy`] decides how often acknowledged bytes are forced
//!   to disk, so ingest throughput survives durability.
//!
//! ## Write order and what an ack means
//!
//! A batch is absorbed *before* it is logged, and acked only after the
//! log append succeeds. The WAL therefore always holds a prefix of the
//! absorbed batches: a crash between absorb and append loses an
//! *unacknowledged* batch (the producer retries), never an acknowledged
//! one — under [`FsyncPolicy::Always`] an ack means the bytes were
//! fsynced. Rejected batches are never logged, so replay never faces a
//! frame the live service refused.

pub mod checkpoint;
pub mod recovery;
pub mod store;
pub mod wal;

pub use checkpoint::Checkpoint;
pub use recovery::{RecoveryReport, TailStatus};
pub use store::{DurableConfig, DurableService, DurableStatus};
pub use wal::{FsyncPolicy, WalRecord};

use std::path::PathBuf;

/// Fsyncs a directory so just-created or just-renamed entries in it
/// survive power loss. A POSIX-only mechanism: on Windows `File::open`
/// on a directory fails (std does not pass `FILE_FLAG_BACKUP_SEMANTICS`)
/// and directory-entry durability is the filesystem's job, so this is a
/// no-op there.
#[cfg(unix)]
pub(crate) fn sync_dir(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
pub(crate) fn sync_dir(_dir: &std::path::Path) -> std::io::Result<()> {
    Ok(())
}

/// A fresh scratch directory under the system temp dir, unique per call —
/// the no-external-deps stand-in for `tempfile`, shared by the storage
/// tests, benchmarks, and examples. The caller owns cleanup.
///
/// # Errors
///
/// Propagates directory-creation failures (an unwritable temp dir).
pub fn scratch_dir(tag: &str) -> std::io::Result<PathBuf> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos() as u64);
    let dir = std::env::temp_dir().join(format!(
        "ldp-{tag}-{}-{}-{nanos}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
