//! Error types of the aggregation service.

use std::fmt;

use ldp_ranges::RangeError;

/// Errors surfaced by the wire codec.
///
/// Decoding never panics on attacker-controlled bytes: every malformed
/// input maps to one of these variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the frame did.
    Truncated,
    /// The frame does not start with the `LQ` magic bytes.
    BadMagic([u8; 2]),
    /// The frame's format version is not one this build understands.
    UnsupportedVersion(u8),
    /// Unknown top-level report kind tag.
    UnknownKind(u8),
    /// Unknown frequency-oracle subtype tag.
    UnknownOracleTag(u8),
    /// A varint ran past 10 bytes or overflowed 64 bits.
    BadVarint,
    /// A declared size exceeds the codec's sanity cap
    /// ([`crate::wire::MAX_WIRE_DOMAIN`]).
    SizeOverCap(u64),
    /// Structurally valid frame whose fields violate report invariants
    /// (index out of domain, sign byte not 0/1, stray bits past the
    /// domain, hash value out of range...).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "frame truncated"),
            Self::BadMagic(m) => write!(f, "bad magic bytes {m:02x?}"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            Self::UnknownKind(k) => write!(f, "unknown report kind {k}"),
            Self::UnknownOracleTag(t) => write!(f, "unknown oracle tag {t}"),
            Self::BadVarint => write!(f, "malformed varint"),
            Self::SizeOverCap(n) => write!(f, "declared size {n} exceeds codec cap"),
            Self::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Errors surfaced by the sharded aggregation service.
#[derive(Debug)]
pub enum ServiceError {
    /// A report failed to decode.
    Wire(WireError),
    /// A report or shard was rejected by the underlying mechanism.
    Range(RangeError),
    /// The service was configured with zero shards.
    NoShards,
    /// A worker thread panicked while ingesting.
    WorkerPanicked,
    /// One frame of an all-or-nothing batch was rejected. Carries the
    /// offending frame's position in the batch and the report type being
    /// ingested, so a producer can locate the bad frame in its own buffer
    /// instead of bisecting the batch.
    BadFrame {
        /// Zero-based position of the rejected frame within the batch.
        index: usize,
        /// The report type the batch was being decoded/absorbed as.
        report_type: &'static str,
        /// Why the frame was rejected.
        source: Box<ServiceError>,
    },
    /// An epoch-tagged report named an epoch other than the one currently
    /// open for ingestion (a stale straggler or a clock-skewed producer).
    EpochMismatch {
        /// Epoch id carried by the frame.
        frame: u64,
        /// Epoch currently open for ingestion.
        current: u64,
    },
    /// The window cannot hold or produce anything: a ring was configured
    /// with a zero window length or epoch width, or a windowed query
    /// asked for zero epochs / ran before any epoch was sealed.
    EmptyWindow,
    /// An epoch operation (seal, windowed query) reached a service whose
    /// backend is not windowed.
    NotWindowed,
    /// A filesystem operation of the durable storage layer failed.
    Io(std::io::Error),
    /// A lock was poisoned by a panicking holder. Surfaced as a typed
    /// error on fallible paths so one panicked writer degrades the
    /// service instead of cascading panics through every caller.
    LockPoisoned(&'static str),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::Range(e) => write!(f, "mechanism error: {e}"),
            Self::NoShards => write!(f, "aggregator needs at least one shard"),
            Self::WorkerPanicked => write!(f, "ingestion worker panicked"),
            Self::BadFrame {
                index,
                report_type,
                source,
            } => write!(f, "frame {index} of {report_type} batch rejected: {source}"),
            Self::EpochMismatch { frame, current } => write!(
                f,
                "frame tagged for epoch {frame}, but epoch {current} is open for ingestion"
            ),
            Self::EmptyWindow => write!(
                f,
                "window is empty: zero window length/epoch width, or no epoch sealed yet"
            ),
            Self::NotWindowed => write!(f, "epoch operation against an unwindowed service"),
            Self::Io(e) => write!(f, "storage I/O error: {e}"),
            Self::LockPoisoned(what) => write!(f, "{what} lock poisoned by a panicked holder"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Wire(e) => Some(e),
            Self::Range(e) => Some(e),
            Self::BadFrame { source, .. } => Some(source.as_ref()),
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

impl From<RangeError> for ServiceError {
    fn from(e: RangeError) -> Self {
        Self::Range(e)
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// The unqualified report type name ("HhReport", not the full path) —
/// what a [`ServiceError::BadFrame`] log line wants.
pub(crate) fn report_type_name<R>() -> &'static str {
    let full = std::any::type_name::<R>();
    full.rsplit("::").next().unwrap_or(full)
}

/// Wraps why frame `index` of an all-or-nothing batch of `R` reports was
/// refused into the [`ServiceError::BadFrame`] a producer sees.
pub(crate) fn bad_frame<R>(index: usize, source: ServiceError) -> ServiceError {
    ServiceError::BadFrame {
        index,
        report_type: report_type_name::<R>(),
        source: Box::new(source),
    }
}
