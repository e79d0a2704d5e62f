//! Crash recovery: newest valid checkpoint + WAL tail replay.
//!
//! Recovery rebuilds the exact pre-crash state in three steps:
//!
//! 1. **Checkpoint** — load the newest checkpoint that CRC-validates
//!    ([`crate::storage::checkpoint::latest_valid_checkpoint`]) and
//!    restore its serialized state into a prototype-built server. No
//!    restorable checkpoint means an empty starting state and a
//!    full-log replay — but only when the WAL verifiably starts at
//!    segment 0 (or is empty), so the replay covers the complete
//!    history. A WAL whose first segment is `> 0` was pruned by a
//!    checkpoint that is now corrupt or deleted; its records exist
//!    nowhere else, and replaying the surviving tail onto an empty
//!    state would silently drop them, so recovery refuses the open.
//! 2. **Replay** — scan WAL segments from the checkpoint's
//!    `replay_from_seq` in order, re-absorbing every FRAMES record and
//!    re-sealing every SEAL record through the *same* code paths live
//!    ingestion uses.
//! 3. **Torn-tail rule** — the first record that fails to parse, fails
//!    its CRC, or is rejected by the state machine ends replay *cleanly*:
//!    everything before it is kept, everything from it on is ignored. A
//!    crash can only tear the last record being written, so under
//!    [`crate::storage::FsyncPolicy::Always`] every acknowledged batch
//!    survives. Only that genuine crash shape — an unparseable record at
//!    the physical end of the log — is truncated when the log reopens
//!    for appending; mid-log damage or a record the state machine
//!    rejects (a mismatched prototype) refuses the reopen instead, so a
//!    misconfigured restart can never destroy acknowledged records.
//!
//! Because absorption is exact integer arithmetic, the recovered state is
//! bit-identical to an in-process server fed the same record prefix —
//! and checkpoint + tail replay is bit-identical to replaying the full
//! log, which the differential tests check mechanism by mechanism.

use std::path::Path;

use ldp_ranges::{MergeableServer, PersistableServer, StateReader, SubtractableServer};

use crate::error::ServiceError;
use crate::service::{absorb_in_open_epoch, absorb_in_place, absorb_untagged, WireFrames};
use crate::snapshot::SnapshotSource;
use crate::storage::{checkpoint, wal};
use crate::window::EpochRing;
use crate::wire::WireReport;

/// How the scanned WAL ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailStatus {
    /// Every record up to the physical end of the log parsed and applied.
    Clean,
    /// Replay stopped at the first invalid record (torn write, CRC
    /// mismatch, or a record the state machine rejected). Everything
    /// before the offset was applied; everything from it on is ignored.
    /// A tear at the physical end of the log (the crash artifact) is
    /// truncated when the log reopens for appending; damage anywhere
    /// else refuses the reopen instead of destroying acked records.
    Torn {
        /// Segment the offending record sits in.
        segment: u64,
        /// Byte offset of the offending record within that segment.
        offset: u64,
        /// Why the record was rejected.
        reason: String,
    },
}

/// Where the WAL writer resumes after recovery.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ResumePoint {
    /// No usable segment exists: create segment `seq` fresh.
    Fresh {
        /// Sequence number for the new segment.
        seq: u64,
    },
    /// Continue appending to segment `seq`, truncated to `valid_len`
    /// first (discarding any torn tail).
    Continue {
        /// Sequence number of the segment to reopen.
        seq: u64,
        /// Length of its valid prefix.
        valid_len: u64,
    },
}

/// What recovery did — the observability record the durable service
/// keeps and the recovery tests assert on.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Id of the checkpoint restored, if any was valid.
    pub checkpoint_id: Option<u64>,
    /// WAL segments scanned during replay.
    pub segments_scanned: u64,
    /// Records applied (FRAMES + SEAL; CHECKPOINT markers are skipped).
    pub records_replayed: u64,
    /// Report frames re-absorbed from FRAMES records.
    pub frames_replayed: u64,
    /// How the log ended.
    pub tail: TailStatus,
    pub(crate) resume: ResumePoint,
    /// Whether a torn tail is a genuine crash artifact (an unparseable
    /// record at the physical end of the log) that is safe to truncate
    /// on reopen. `false` means the damage is *mid-log* (bit rot with
    /// valid segments after it, a sequence gap, or a CRC-valid record
    /// the state machine rejected — e.g. a mismatched prototype):
    /// truncating there would destroy acknowledged records, so opening
    /// for writing must refuse instead.
    pub(crate) safe_to_resume: bool,
}

/// Outcome of one record application: frames absorbed, or the reason
/// replay must stop here (the record is logically corrupt).
type ApplyResult = Result<u64, String>;

struct ReplayOutcome {
    segments_scanned: u64,
    records_replayed: u64,
    frames_replayed: u64,
    tail: TailStatus,
    resume: ResumePoint,
    safe_to_resume: bool,
}

/// Scans segments `>= from_seq` in order, applying each record. Stops at
/// the first torn/corrupt/rejected record or the first gap in the
/// segment sequence (segments after a gap are unreachable history).
fn replay_segments<F>(
    dir: &Path,
    from_seq: u64,
    mut apply: F,
) -> Result<ReplayOutcome, ServiceError>
where
    F: FnMut(&wal::WalRecord) -> ApplyResult,
{
    let segments: Vec<_> = wal::list_segments(dir)?
        .into_iter()
        .filter(|(seq, _)| *seq >= from_seq)
        .collect();
    // Only the physically last segment can hold a crash artifact: a
    // crash tears the record being written, and nothing is ever written
    // after it. Damage anywhere earlier is corruption, not a tear, and
    // truncating there would destroy acknowledged records.
    let last_seq = segments.last().map(|(seq, _)| *seq);
    let mut outcome = ReplayOutcome {
        segments_scanned: 0,
        records_replayed: 0,
        frames_replayed: 0,
        tail: TailStatus::Clean,
        resume: ResumePoint::Fresh { seq: from_seq },
        safe_to_resume: true,
    };
    let mut expected_seq = from_seq;
    for (seq, path) in &segments {
        let is_last = Some(*seq) == last_seq;
        if *seq != expected_seq {
            // A hole in the numbering: whatever lies beyond it cannot be
            // ordered after the applied prefix. A gap is never a crash
            // artifact (rotation is sequential), so resuming is refused.
            outcome.tail = TailStatus::Torn {
                segment: *seq,
                offset: 0,
                reason: format!("segment gap: expected seq {expected_seq}, found {seq}"),
            };
            outcome.safe_to_resume = false;
            return Ok(outcome);
        }
        let bytes = std::fs::read(path)?;
        outcome.segments_scanned += 1;
        let mut pos = match wal::check_segment_header(&bytes, *seq) {
            Ok(header) => header as usize,
            Err(e) => {
                outcome.tail = TailStatus::Torn {
                    segment: *seq,
                    offset: 0,
                    reason: format!("segment header: {e}"),
                };
                // A headerless *final* segment is the classic crash shape
                // (rotation created the file, the header never flushed).
                outcome.resume = ResumePoint::Fresh { seq: *seq };
                outcome.safe_to_resume = is_last;
                return Ok(outcome);
            }
        };
        while pos < bytes.len() {
            let (record, used) = match wal::decode_framed(&bytes[pos..]) {
                Ok(ok) => ok,
                Err(e) => {
                    outcome.tail = TailStatus::Torn {
                        segment: *seq,
                        offset: pos as u64,
                        reason: e.to_string(),
                    };
                    outcome.resume = ResumePoint::Continue {
                        seq: *seq,
                        valid_len: pos as u64,
                    };
                    outcome.safe_to_resume = is_last;
                    return Ok(outcome);
                }
            };
            match apply(&record) {
                Ok(frames) => {
                    if !matches!(record, wal::WalRecord::Checkpoint { .. }) {
                        outcome.records_replayed += 1;
                    }
                    outcome.frames_replayed += frames;
                }
                Err(reason) => {
                    // A CRC-valid record the state machine rejects was
                    // fully written and accepted live before it was
                    // logged — rejection here means a mismatched
                    // prototype or logic corruption, never a crash.
                    // Refuse to resume (truncating would destroy it).
                    outcome.tail = TailStatus::Torn {
                        segment: *seq,
                        offset: pos as u64,
                        reason,
                    };
                    outcome.resume = ResumePoint::Continue {
                        seq: *seq,
                        valid_len: pos as u64,
                    };
                    outcome.safe_to_resume = false;
                    return Ok(outcome);
                }
            }
            pos += used;
        }
        outcome.resume = ResumePoint::Continue {
            seq: *seq,
            valid_len: bytes.len() as u64,
        };
        expected_seq = seq + 1;
    }
    Ok(outcome)
}

/// Restores checkpoint state bytes into a prototype clone, requiring full
/// consumption — trailing bytes mean the prototype does not match the
/// configuration the checkpoint was taken under.
fn restore_checkpoint_state<S: PersistableServer>(
    state: &mut S,
    bytes: &[u8],
) -> Result<(), ServiceError> {
    let mut r = StateReader::new(bytes);
    state.restore_state(&mut r).map_err(ServiceError::Range)?;
    if r.remaining() != 0 {
        return Err(ServiceError::Range(ldp_ranges::RangeError::CorruptState(
            "checkpoint state has trailing bytes — prototype configuration mismatch",
        )));
    }
    Ok(())
}

/// Loads the newest valid checkpoint. When none is restorable (`None`:
/// start empty, replay everything), a from-scratch replay is exact only
/// if the complete history survives — the WAL starts at segment 0, or is
/// empty (a genuinely fresh directory). A first segment `> 0` means a
/// checkpoint once pruned the earlier segments, so the records it
/// covered exist nowhere else; whether its file is now corrupt
/// ([`checkpoint::CheckpointScan::AllCorrupt`]) or was deleted outright
/// (scanning as `NoFiles`), recovery must refuse rather than silently
/// resurrect a truncated state.
fn load_checkpoint(dir: &Path) -> Result<Option<checkpoint::Checkpoint>, ServiceError> {
    if let checkpoint::CheckpointScan::Valid(c) = checkpoint::latest_valid_checkpoint(dir)? {
        return Ok(Some(c));
    }
    let full_history = wal::list_segments(dir)?
        .first()
        .is_none_or(|(seq, _)| *seq == 0);
    if full_history {
        Ok(None)
    } else {
        Err(ServiceError::Range(ldp_ranges::RangeError::CorruptState(
            "no usable checkpoint (corrupt or deleted) and the WAL does not start \
             at segment 0; replaying the surviving tail would silently drop the \
             checkpointed records — restore a checkpoint from backup or inspect \
             the log",
        )))
    }
}

/// Re-absorbs one FRAMES payload through the *same* in-place batch
/// primitive live ingestion uses ([`crate::service::absorb_in_place`]),
/// decoding each frame from the record's borrowed bytes: replay accepts
/// and rejects exactly what the live service would, with the same
/// all-or-nothing record semantics — a rejected record has its absorbed
/// frames retracted, so `state` is left exactly as the prefix before it.
fn replay_frames<S: MergeableServer>(
    state: &mut S,
    wire_version: u8,
    count: u64,
    frames: &[u8],
    absorb: impl FnMut(&mut S, Option<u64>, &S::Report) -> Result<(), ServiceError>,
) -> ApplyResult
where
    S::Report: WireReport,
{
    let batch = WireFrames {
        wire_version,
        count,
        frames,
    };
    absorb_in_place(state, &batch, absorb).map_err(|e| e.to_string())
}

/// Recovers a *plain* (all-time) server from `dir`: newest valid
/// checkpoint, then WAL tail replay, stopping cleanly at the first torn
/// or corrupt record.
///
/// The returned state is bit-identical to a fresh server that absorbed
/// exactly the logged prefix in order.
///
/// # Errors
///
/// I/O failures, or a checkpoint whose state does not match the
/// prototype's configuration. A torn *log* is not an error — it is the
/// expected crash artifact, reported in [`RecoveryReport::tail`].
pub fn recover_plain<S>(dir: &Path, prototype: &S) -> Result<(S, RecoveryReport), ServiceError>
where
    S: SnapshotSource + PersistableServer,
    S::Report: WireReport,
{
    let ckpt = load_checkpoint(dir)?;
    let mut state = prototype.clone();
    let (from_seq, checkpoint_id) = match &ckpt {
        Some(c) => {
            restore_checkpoint_state(&mut state, &c.state)?;
            (c.replay_from_seq, Some(c.id))
        }
        None => (
            wal::list_segments(dir)?.first().map_or(0, |(seq, _)| *seq),
            None,
        ),
    };
    let outcome = replay_segments(dir, from_seq, |record| match record {
        wal::WalRecord::Frames {
            wire_version,
            count,
            frames,
        } => {
            if *wire_version != crate::wire::VERSION {
                return Err("epoch-tagged FRAMES record in an unwindowed log".to_string());
            }
            replay_frames(&mut state, *wire_version, *count, frames, absorb_untagged)
        }
        wal::WalRecord::Seal { .. } => Err("SEAL record in an unwindowed log".to_string()),
        wal::WalRecord::Checkpoint { .. } => Ok(0),
    })?;
    Ok((
        state,
        RecoveryReport {
            checkpoint_id,
            segments_scanned: outcome.segments_scanned,
            records_replayed: outcome.records_replayed,
            frames_replayed: outcome.frames_replayed,
            tail: outcome.tail,
            resume: outcome.resume,
            safe_to_resume: outcome.safe_to_resume,
        },
    ))
}

/// Recovers a *windowed* (epoch-ring) server from `dir`. The ring is
/// rebuilt with `window_len` retained epochs (which must match the
/// checkpointed configuration), FRAMES records re-absorb into the open
/// epoch under the same tag rules live ingestion enforces, and SEAL
/// records re-run the rotation — so the recovered window, including
/// which epochs have been retired by subtraction, is bit-identical to
/// the pre-crash ring.
///
/// # Errors
///
/// As [`recover_plain`].
pub fn recover_windowed<S>(
    dir: &Path,
    prototype: &S,
    window_len: usize,
) -> Result<(EpochRing<S>, RecoveryReport), ServiceError>
where
    S: SnapshotSource + SubtractableServer + PersistableServer,
    S::Report: WireReport,
{
    let ckpt = load_checkpoint(dir)?;
    let mut ring = EpochRing::new(prototype, window_len)?;
    let (from_seq, checkpoint_id) = match &ckpt {
        Some(c) => {
            restore_checkpoint_state(&mut ring, &c.state)?;
            (c.replay_from_seq, Some(c.id))
        }
        None => (
            wal::list_segments(dir)?.first().map_or(0, |(seq, _)| *seq),
            None,
        ),
    };
    let outcome = replay_segments(dir, from_seq, |record| match record {
        wal::WalRecord::Frames {
            wire_version,
            count,
            frames,
        } => replay_frames(
            &mut ring,
            *wire_version,
            *count,
            frames,
            absorb_in_open_epoch,
        ),
        wal::WalRecord::Seal { epoch } => {
            let sealed = ring.seal_epoch().map_err(|e| e.to_string())?;
            if sealed != *epoch {
                return Err(format!(
                    "SEAL record names epoch {epoch}, ring sealed {sealed}"
                ));
            }
            Ok(0)
        }
        wal::WalRecord::Checkpoint { .. } => Ok(0),
    })?;
    Ok((
        ring,
        RecoveryReport {
            checkpoint_id,
            segments_scanned: outcome.segments_scanned,
            records_replayed: outcome.records_replayed,
            frames_replayed: outcome.frames_replayed,
            tail: outcome.tail,
            resume: outcome.resume,
            safe_to_resume: outcome.safe_to_resume,
        },
    ))
}

#[cfg(test)]
mod tests {
    use std::io::Write;

    use ldp_freq_oracle::{Epsilon, FrequencyOracle};
    use ldp_ranges::{HhClient, HhConfig, HhReport, HhServer, MergeableServer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;
    use crate::loadgen::EncodedStream;
    use crate::storage::{scratch_dir, DurableConfig, DurableService};
    use crate::wire::{VERSION, VERSION_EPOCH};

    /// What frame `k` of the rejected record is.
    #[derive(Debug, Clone, Copy)]
    enum Refusal {
        /// A report from a configuration with another level oracle.
        Foreign,
        /// Bytes no decoder accepts.
        Malformed,
        /// An honest report tagged with a sealed epoch (windowed only).
        StaleEpoch,
    }

    fn bytes<S: PersistableServer>(state: &S) -> Vec<u8> {
        let mut out = Vec::new();
        state.persist_state(&mut out);
        out
    }

    fn wal_bytes(dir: &Path) -> Vec<u8> {
        wal::list_segments(dir)
            .unwrap()
            .iter()
            .flat_map(|(_, path)| std::fs::read(path).unwrap())
            .collect()
    }

    /// Appends one CRC-valid record to the newest segment, exactly as the
    /// live service would have framed it.
    fn append_raw(dir: &Path, record: &wal::WalRecord) {
        let (_, path) = wal::list_segments(dir).unwrap().pop().unwrap();
        std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .unwrap()
            .write_all(&record.encode_framed())
            .unwrap();
    }

    fn frames(reports: &[HhReport], epoch: Option<u64>) -> EncodedStream {
        let mut stream = EncodedStream::new();
        for r in reports {
            match epoch {
                Some(e) => stream.push_epoch(r, e),
                None => stream.push(r),
            }
        }
        stream
    }

    fn record(stream: &EncodedStream, windowed: bool) -> wal::WalRecord {
        wal::WalRecord::Frames {
            wire_version: if windowed { VERSION_EPOCH } else { VERSION },
            count: stream.len() as u64,
            frames: stream.as_bytes().to_vec(),
        }
    }

    /// Logs good batches through a durable service, crashes it, then
    /// appends a CRC-valid FRAMES record whose frame `k > 0` the state
    /// machine refuses (and a good record after it). Recovery must stop
    /// at that record with the state of the prefix before it, bit for
    /// bit — the frames it absorbed before `k` retracted — and refuse to
    /// resume, leaving the log untouched.
    fn check_rejected_record(windowed: bool, refusal: Refusal, seed: u64) {
        const WINDOW: usize = 2;
        let eps = Epsilon::new(1.1);
        let config = HhConfig::new(64, 4, eps).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let foreign =
            HhClient::new(HhConfig::with_oracle(64, 4, eps, FrequencyOracle::Hrr).unwrap())
                .unwrap();
        let prototype = HhServer::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut honest = |n: usize| -> Vec<HhReport> {
            (0..n)
                .map(|i| client.report((i * 7) % 64, &mut rng).unwrap())
                .collect()
        };
        let durable_config = DurableConfig {
            num_shards: 2,
            ..DurableConfig::default()
        };
        let what = format!("windowed={windowed} {refusal:?}");

        let dir = scratch_dir("recovery-rejected").unwrap();
        let mut expected_plain = prototype.clone();
        let mut expected_ring = EpochRing::new(&prototype, WINDOW).unwrap();
        let mut open = None;
        {
            let durable = if windowed {
                DurableService::open_windowed(&dir, &prototype, WINDOW, durable_config.clone())
            } else {
                DurableService::open(&dir, &prototype, durable_config.clone())
            }
            .unwrap()
            .0;
            for _ in 0..3 {
                if windowed {
                    let sealed = expected_ring.seal_epoch().unwrap();
                    assert_eq!(durable.seal_epoch().unwrap(), sealed);
                    open = Some(sealed + 1);
                }
                let good = honest(30);
                let stream = frames(&good, open);
                durable
                    .ingest_batch(record_version(windowed), 30, stream.as_bytes())
                    .unwrap();
                for r in &good {
                    expected_plain.absorb(r).unwrap();
                    MergeableServer::absorb(&mut expected_ring, r).unwrap();
                }
            }
        } // crash: no finalize, no checkpoint

        let k = 17;
        let mut stream = frames(&honest(k), open);
        match refusal {
            Refusal::Foreign => {
                let r = foreign.report(5, &mut StdRng::seed_from_u64(seed)).unwrap();
                match open {
                    Some(e) => stream.push_epoch(&r, e),
                    None => stream.push(&r),
                }
            }
            Refusal::Malformed => stream.push_raw(b"XX\x01\x00\x00\x00"),
            Refusal::StaleEpoch => {
                let stale = open.expect("stale tags need a windowed log") - 1;
                stream.push_epoch(&honest(1)[0], stale);
            }
        }
        for r in &honest(8) {
            match open {
                Some(e) => stream.push_epoch(r, e),
                None => stream.push(r),
            }
        }
        append_raw(&dir, &record(&stream, windowed));
        append_raw(&dir, &record(&frames(&honest(5), open), windowed));
        let log = wal_bytes(&dir);

        let (state, expected, report) = if windowed {
            let (ring, report) = recover_windowed(&dir, &prototype, WINDOW).unwrap();
            (bytes(&ring), bytes(&expected_ring), report)
        } else {
            let (server, report) = recover_plain(&dir, &prototype).unwrap();
            (bytes(&server), bytes(&expected_plain), report)
        };
        assert_eq!(state, expected, "{what}: recovered state ≠ prefix");
        assert_eq!(report.frames_replayed, 90, "{what}: frames replayed");
        assert!(
            matches!(&report.tail, TailStatus::Torn { reason, .. } if reason.contains(&format!("frame {k} of"))),
            "{what}: tail {:?}",
            report.tail
        );
        assert!(
            !report.safe_to_resume,
            "{what}: a rejected record must not be truncated"
        );
        let reopened = if windowed {
            DurableService::open_windowed(&dir, &prototype, WINDOW, durable_config)
        } else {
            DurableService::open(&dir, &prototype, durable_config)
        };
        assert!(
            reopened.is_err(),
            "{what}: open must refuse a rejected record"
        );
        assert_eq!(
            wal_bytes(&dir),
            log,
            "{what}: the refused open touched the log"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn record_version(windowed: bool) -> u8 {
        if windowed {
            VERSION_EPOCH
        } else {
            VERSION
        }
    }

    #[test]
    fn a_rejected_record_recovers_the_prefix_and_refuses_to_resume() {
        for (seed, refusal) in [(1, Refusal::Foreign), (2, Refusal::Malformed)] {
            check_rejected_record(false, refusal, seed);
        }
        for (seed, refusal) in [
            (3, Refusal::Foreign),
            (4, Refusal::Malformed),
            (5, Refusal::StaleEpoch),
        ] {
            check_rejected_record(true, refusal, seed);
        }
    }
}
