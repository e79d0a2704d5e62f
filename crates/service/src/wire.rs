//! The versioned binary wire format for client reports.
//!
//! Every report a client can produce — flat one-hots through any oracle,
//! hierarchical-histogram level reports, budget-split multi-level reports,
//! both Haar variants, and 2-D grid reports — encodes into one
//! self-delimiting *frame*:
//!
//! ```text
//! frame   := magic(2B = "LQ")  version(1B)  kind(1B)  payload        (v1)
//!          | magic(2B = "LQ")  version(1B = 2)  kind(1B)
//!            epoch:varint  payload                                   (v2)
//! varint  := LEB128, at most 10 bytes, no 64-bit overflow
//!
//! kind 0  Flat      payload := oracle_report
//! kind 1  Hh        payload := depth:varint  oracle_report
//! kind 2  HhSplit   payload := layers:varint  oracle_report × layers
//! kind 3  HaarHrr   payload := depth:varint  hrr_report
//! kind 4  HaarOue   payload := depth:varint  unary_report
//! kind 5  Hh2d      payload := dx:varint  dy:varint  oracle_report
//!
//! oracle_report := tag(1B) body
//!   tag 0 OUE   body := unary_report
//!   tag 1 OLH   body := a:varint b:varint range:varint value:varint
//!   tag 2 HRR   body := hrr_report
//!   tag 3 SUE   body := unary_report
//!
//! unary_report := domain:varint  word:8B-LE × ⌈domain/64⌉
//! hrr_report   := domain:varint  index:varint  sign(1B: 0 ⇒ −1, 1 ⇒ +1)
//! ```
//!
//! Frames are concatenable: [`decode_frame`] reports how many bytes it
//! consumed, so a batch is just frames back to back (see
//! [`crate::loadgen::EncodedStream`]). Decoding is total — malformed or
//! truncated input yields a [`WireError`], never a panic, and declared
//! sizes are capped by [`MAX_WIRE_DOMAIN`] before any allocation so a
//! hostile header cannot balloon memory.
//!
//! Version negotiation: the version byte is bumped on any incompatible
//! change; decoders reject versions they do not know
//! ([`WireError::UnsupportedVersion`]) rather than guessing. Version 2
//! extends the header with an epoch id for the windowed streaming path
//! ([`crate::EpochRing`]): [`decode_epoch_frame`] accepts both versions
//! (v1 frames carry no epoch), while the strict v1 [`decode_frame`]
//! rejects v2 frames outright.

use ldp_freq_oracle::{AnyReport, HrrReport, OlhReport, OueReport, UniversalHash};
use ldp_ranges::{HaarHrrReport, HaarOueReport, Hh2dReport, HhReport, HhSplitReport};

use crate::error::{bad_frame, ServiceError, WireError};

/// First magic byte (`'L'`).
pub const MAGIC: [u8; 2] = *b"LQ";
/// The original (epoch-less) wire version.
pub const VERSION: u8 = 1;
/// The epoch-extended wire version: identical to v1 except that one
/// varint epoch id sits between the kind byte and the payload. Decoders
/// that only know v1 reject these frames
/// ([`WireError::UnsupportedVersion`]) instead of misparsing the epoch id
/// as payload.
pub const VERSION_EPOCH: u8 = 2;
/// Upper bound on any declared domain/size field — the paper's largest
/// experiments use `D = 2^22`; we leave headroom to `2^26` (the paper's
/// *population* scale) before calling a header hostile.
pub const MAX_WIRE_DOMAIN: u64 = 1 << 26;

const KIND_FLAT: u8 = 0;
const KIND_HH: u8 = 1;
const KIND_HH_SPLIT: u8 = 2;
const KIND_HAAR_HRR: u8 = 3;
const KIND_HAAR_OUE: u8 = 4;
const KIND_HH2D: u8 = 5;

const TAG_OUE: u8 = 0;
const TAG_OLH: u8 = 1;
const TAG_HRR: u8 = 2;
const TAG_SUE: u8 = 3;

// --- primitive writers -------------------------------------------------

/// Appends one LEB128 varint — the writer dual of [`Reader::varint`],
/// exposed so the session-protocol codecs ([`crate::net`]) share the
/// frame format's primitives instead of reimplementing them.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

// --- primitive readers -------------------------------------------------

/// Cursor over a frame buffer, exposed so downstream report types can
/// implement [`WireReport`] too.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a buffer, starting at offset 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Fails at end of buffer.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Fails if fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Reads one LEB128 varint.
    ///
    /// # Errors
    ///
    /// Fails on truncation or 64-bit overflow.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(WireError::BadVarint);
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::BadVarint)
    }

    /// Bytes left to read — bound any size-driven allocation by this
    /// before reserving memory, so a tiny frame with a huge declared size
    /// cannot balloon allocations.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// A varint validated against [`MAX_WIRE_DOMAIN`] and narrowed.
    ///
    /// # Errors
    ///
    /// Fails on a bad varint or a value above the cap.
    pub fn size(&mut self) -> Result<usize, WireError> {
        let v = self.varint()?;
        if v > MAX_WIRE_DOMAIN {
            return Err(WireError::SizeOverCap(v));
        }
        Ok(v as usize)
    }
}

// --- sub-codecs --------------------------------------------------------

fn put_unary(out: &mut Vec<u8>, report: &OueReport) {
    put_varint(out, report.domain() as u64);
    for w in report.words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn get_unary(r: &mut Reader<'_>) -> Result<OueReport, WireError> {
    let domain = r.size()?;
    if domain == 0 {
        return Err(WireError::Malformed("unary report over empty domain"));
    }
    let n_words = domain.div_ceil(64);
    // The declared domain implies n_words*8 payload bytes; reject frames
    // too short to hold them *before* allocating, so a ~15-byte hostile
    // header cannot cost an up-to-8-MiB allocation.
    if r.remaining() < n_words * 8 {
        return Err(WireError::Truncated);
    }
    // One bulk read for the whole bit vector: the per-word bounds checks
    // collapse into a single range check and the conversion loop below
    // auto-vectorizes over exact 8-byte chunks.
    let raw = r.bytes(n_words * 8)?;
    let words: Vec<u64> = raw
        .chunks_exact(8)
        .map(|chunk| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")))
        .collect();
    OueReport::try_from_words(domain, words)
        .ok_or(WireError::Malformed("bits set past unary domain"))
}

fn put_hrr(out: &mut Vec<u8>, report: &HrrReport) {
    put_varint(out, report.domain() as u64);
    put_varint(out, report.index() as u64);
    out.push(u8::from(report.bit() > 0));
}

fn get_hrr(r: &mut Reader<'_>) -> Result<HrrReport, WireError> {
    let domain = r.size()?;
    let index = r.size()?;
    if domain == 0 || index >= domain {
        return Err(WireError::Malformed("HRR index outside domain"));
    }
    let sign = match r.u8()? {
        0 => -1i8,
        1 => 1i8,
        _ => return Err(WireError::Malformed("HRR sign byte not 0/1")),
    };
    Ok(HrrReport::from_parts(domain, index, sign))
}

fn put_olh(out: &mut Vec<u8>, report: &OlhReport) {
    let (a, b) = report.hash().parts();
    put_varint(out, a);
    put_varint(out, b);
    put_varint(out, report.hash().range() as u64);
    put_varint(out, report.value() as u64);
}

fn get_olh(r: &mut Reader<'_>) -> Result<OlhReport, WireError> {
    let a = r.varint()?;
    let b = r.varint()?;
    let range = r.size()?;
    let value = r.size()?;
    if range < 2 {
        return Err(WireError::Malformed("OLH hash range below 2"));
    }
    if !(1..ldp_freq_oracle::hash::MERSENNE_P).contains(&a)
        || b >= ldp_freq_oracle::hash::MERSENNE_P
    {
        return Err(WireError::Malformed("OLH hash coefficients out of field"));
    }
    if value >= range {
        return Err(WireError::Malformed("OLH value outside hash range"));
    }
    Ok(OlhReport::from_parts(
        UniversalHash::from_parts(a, b, range),
        value,
    ))
}

fn put_any(out: &mut Vec<u8>, report: &AnyReport) {
    match report {
        AnyReport::Oue(r) => {
            out.push(TAG_OUE);
            put_unary(out, r);
        }
        AnyReport::Olh(r) => {
            out.push(TAG_OLH);
            put_olh(out, r);
        }
        AnyReport::Hrr(r) => {
            out.push(TAG_HRR);
            put_hrr(out, r);
        }
        AnyReport::Sue(r) => {
            out.push(TAG_SUE);
            put_unary(out, r);
        }
    }
}

fn get_any(r: &mut Reader<'_>) -> Result<AnyReport, WireError> {
    match r.u8()? {
        TAG_OUE => Ok(AnyReport::Oue(get_unary(r)?)),
        TAG_OLH => Ok(AnyReport::Olh(get_olh(r)?)),
        TAG_HRR => Ok(AnyReport::Hrr(get_hrr(r)?)),
        TAG_SUE => Ok(AnyReport::Sue(get_unary(r)?)),
        t => Err(WireError::UnknownOracleTag(t)),
    }
}

// --- public trait ------------------------------------------------------

/// A report type with a wire representation.
///
/// `encode_frame` appends one self-delimiting frame; [`decode_frame`]
/// parses one frame from the front of a buffer and returns the bytes it
/// consumed, so concatenated frames stream naturally.
pub trait WireReport: Sized {
    /// The frame's kind byte.
    const KIND: u8;

    /// Appends this report's payload (everything after the kind byte).
    fn encode_payload(&self, out: &mut Vec<u8>);

    /// Parses the payload.
    ///
    /// # Errors
    ///
    /// Any malformed payload yields a [`WireError`].
    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Appends one full frame (header + payload) to `out`.
    fn encode_frame(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(Self::KIND);
        self.encode_payload(out);
    }

    /// Encodes one full frame into a fresh buffer.
    fn to_frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_frame(&mut out);
        out
    }
}

impl WireReport for AnyReport {
    const KIND: u8 = KIND_FLAT;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_any(out, self);
    }

    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, WireError> {
        get_any(r)
    }
}

impl WireReport for HhReport {
    const KIND: u8 = KIND_HH;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(self.depth()));
        put_any(out, self.inner());
    }

    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let depth = r.size()? as u32;
        Ok(Self::from_parts(depth, get_any(r)?))
    }
}

impl WireReport for HhSplitReport {
    const KIND: u8 = KIND_HH_SPLIT;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_varint(out, self.layers().len() as u64);
        for layer in self.layers() {
            put_any(out, layer);
        }
    }

    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.size()?;
        if n == 0 || n > 64 {
            return Err(WireError::Malformed(
                "split report layer count out of range",
            ));
        }
        let layers = (0..n).map(|_| get_any(r)).collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_layers(layers))
    }
}

impl WireReport for HaarHrrReport {
    const KIND: u8 = KIND_HAAR_HRR;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(self.depth()));
        put_hrr(out, &self.inner());
    }

    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let depth = r.size()? as u32;
        Ok(Self::from_parts(depth, get_hrr(r)?))
    }
}

impl WireReport for HaarOueReport {
    const KIND: u8 = KIND_HAAR_OUE;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(self.depth()));
        put_unary(out, self.inner());
    }

    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let depth = r.size()? as u32;
        Ok(Self::from_parts(depth, get_unary(r)?))
    }
}

impl WireReport for Hh2dReport {
    const KIND: u8 = KIND_HH2D;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        let (dx, dy) = self.depths();
        put_varint(out, u64::from(dx));
        put_varint(out, u64::from(dy));
        put_any(out, self.inner());
    }

    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let dx = r.size()? as u32;
        let dy = r.size()? as u32;
        Ok(Self::from_parts(dx, dy, get_any(r)?))
    }
}

/// Decodes one frame of type `T` from the front of `buf`, returning the
/// report and the number of bytes consumed.
///
/// # Errors
///
/// Fails on truncated input, bad magic/version, a kind byte that does not
/// match `T`, or a malformed payload.
pub fn decode_frame<T: WireReport>(buf: &[u8]) -> Result<(T, usize), WireError> {
    let mut r = Reader::new(buf);
    let magic = [r.u8()?, r.u8()?];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = r.u8()?;
    if kind != T::KIND {
        return Err(WireError::UnknownKind(kind));
    }
    let report = T::decode_payload(&mut r)?;
    Ok((report, r.pos))
}

/// Appends one epoch-tagged (version 2) frame to `out`: the v1 header
/// with the version byte bumped and `epoch` spliced in before the
/// payload.
pub fn encode_epoch_frame<T: WireReport>(report: &T, epoch: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION_EPOCH);
    out.push(T::KIND);
    put_varint(out, epoch);
    report.encode_payload(out);
}

/// Decodes one frame of type `T` accepting both wire versions, returning
/// the epoch id (`None` for an epoch-less v1 frame), the report, and the
/// number of bytes consumed.
///
/// Decoding stays total: the epoch id is an ordinary varint (truncation
/// and overflow are errors, any 64-bit value is structurally valid — its
/// freshness is the *service's* policy question, not the codec's), and
/// every v1 rejection path applies unchanged.
///
/// # Errors
///
/// Fails on truncated input, bad magic, a version other than 1 or 2, a
/// kind byte that does not match `T`, a malformed epoch varint, or a
/// malformed payload.
pub fn decode_epoch_frame<T: WireReport>(buf: &[u8]) -> Result<(Option<u64>, T, usize), WireError> {
    let mut r = Reader::new(buf);
    let magic = [r.u8()?, r.u8()?];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != VERSION && version != VERSION_EPOCH {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = r.u8()?;
    if kind != T::KIND {
        return Err(WireError::UnknownKind(kind));
    }
    let epoch = if version == VERSION_EPOCH {
        Some(r.varint()?)
    } else {
        None
    };
    let report = T::decode_payload(&mut r)?;
    Ok((epoch, report, r.pos))
}

/// Decodes a buffer of back-to-back frames into reports.
///
/// # Errors
///
/// Fails on the first malformed frame; trailing garbage is an error, not
/// silently ignored.
pub fn decode_all<T: WireReport>(mut buf: &[u8]) -> Result<Vec<T>, WireError> {
    let mut reports = Vec::new();
    while !buf.is_empty() {
        let (report, used) = decode_frame::<T>(buf)?;
        reports.push(report);
        buf = &buf[used..];
    }
    Ok(reports)
}

/// Walks a REPORT-style batch (back-to-back raw wire frames, declared
/// `count`) under a negotiated wire version, handing each decoded report
/// — with its optional epoch tag — to `sink` as it is produced. Every
/// frame is decoded straight from its borrowed subslice of `frames`, so
/// a consumer that absorbs in place never materializes the batch: this
/// is the zero-copy spine under both the network REPORT path and the
/// collecting [`crate::storage`] decoder, which therefore reject hostile
/// batches identically.
///
/// Returns the number of frames decoded (equal to `count` on success).
///
/// # Errors
///
/// A malformed frame, a count/payload mismatch, or a `sink` rejection
/// surfaces as [`ServiceError::BadFrame`] whose index is the number of
/// frames `sink` accepted before it.
pub(crate) fn for_each_frame<R: WireReport>(
    wire_version: u8,
    count: u64,
    frames: &[u8],
    sink: impl FnMut(Option<u64>, R) -> Result<(), ServiceError>,
) -> Result<u64, ServiceError> {
    let mut rest = frames;
    let decoded = walk_frames(wire_version, count, &mut rest, sink)?;
    if !rest.is_empty() {
        return Err(bad_frame::<R>(
            decoded as usize,
            WireError::Malformed("batch holds more frames than declared").into(),
        ));
    }
    if decoded < count {
        return Err(bad_frame::<R>(
            decoded as usize,
            WireError::Malformed("batch declared more frames than it holds").into(),
        ));
    }
    Ok(decoded)
}

/// Decodes up to `limit` frames from the front of `buf`, advancing it
/// past each one and handing each report to `sink`; stops early at the
/// end of `buf`. Returns the number of frames decoded. This is also how
/// an in-place absorb re-walks the prefix of a refused batch to retract
/// it: the same bytes decode to the same reports.
///
/// # Errors
///
/// As [`for_each_frame`], minus the count/payload checks.
pub(crate) fn walk_frames<R: WireReport>(
    wire_version: u8,
    limit: u64,
    buf: &mut &[u8],
    mut sink: impl FnMut(Option<u64>, R) -> Result<(), ServiceError>,
) -> Result<u64, ServiceError> {
    let mut decoded = 0u64;
    while decoded < limit && !buf.is_empty() {
        let index = decoded as usize;
        let (epoch, report, used) = if wire_version == VERSION_EPOCH {
            decode_epoch_frame::<R>(buf).map_err(|e| bad_frame::<R>(index, e.into()))?
        } else {
            let (report, used) =
                decode_frame::<R>(buf).map_err(|e| bad_frame::<R>(index, e.into()))?;
            (None, report, used)
        };
        sink(epoch, report).map_err(|e| bad_frame::<R>(index, e))?;
        decoded += 1;
        *buf = &buf[used..];
    }
    Ok(decoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_freq_oracle::{AnyOracle, Epsilon, FrequencyOracle, PointOracle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn roundtrip<T: WireReport>(report: &T) -> T {
        let frame = report.to_frame();
        let (decoded, used) = decode_frame::<T>(&frame).expect("roundtrip decode");
        assert_eq!(used, frame.len(), "frame not fully consumed");
        // Re-encoding the decoded report must reproduce the bytes exactly.
        assert_eq!(decoded.to_frame(), frame, "re-encode mismatch");
        decoded
    }

    #[test]
    fn any_report_roundtrips_every_oracle() {
        let mut rng = StdRng::seed_from_u64(401);
        let eps = Epsilon::new(1.1);
        for kind in [
            FrequencyOracle::Oue,
            FrequencyOracle::Olh,
            FrequencyOracle::Hrr,
            FrequencyOracle::Sue,
        ] {
            let oracle = AnyOracle::new(kind, 64, eps).unwrap();
            for v in [0usize, 31, 63] {
                let report = oracle.encode(v, &mut rng).unwrap();
                let decoded = roundtrip(&report);
                // Absorbing original and decoded must agree exactly.
                let mut a = oracle.clone();
                let mut b = oracle.clone();
                a.absorb(&report).unwrap();
                b.absorb(&decoded).unwrap();
                assert_eq!(a.estimate(), b.estimate(), "{kind}");
            }
        }
    }

    #[test]
    fn unary_domain_not_multiple_of_64_roundtrips() {
        let mut rng = StdRng::seed_from_u64(402);
        let oracle = AnyOracle::new(FrequencyOracle::Oue, 37, Epsilon::new(0.9)).unwrap();
        let report = oracle.encode(36, &mut rng).unwrap();
        roundtrip(&report);
    }

    #[test]
    fn truncation_is_an_error_everywhere() {
        let mut rng = StdRng::seed_from_u64(403);
        let oracle = AnyOracle::new(FrequencyOracle::Oue, 128, Epsilon::new(1.1)).unwrap();
        let frame = oracle.encode(5, &mut rng).unwrap().to_frame();
        for cut in 0..frame.len() {
            assert!(
                decode_frame::<AnyReport>(&frame[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn bad_headers_are_rejected() {
        let mut rng = StdRng::seed_from_u64(404);
        let oracle = AnyOracle::new(FrequencyOracle::Hrr, 16, Epsilon::new(1.1)).unwrap();
        let frame = oracle.encode(3, &mut rng).unwrap().to_frame();

        let mut bad_magic = frame.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_frame::<AnyReport>(&bad_magic),
            Err(WireError::BadMagic(_))
        ));

        let mut bad_version = frame.clone();
        bad_version[2] = 99;
        assert!(matches!(
            decode_frame::<AnyReport>(&bad_version),
            Err(WireError::UnsupportedVersion(99))
        ));

        let mut bad_kind = frame.clone();
        bad_kind[3] = 42;
        assert!(matches!(
            decode_frame::<AnyReport>(&bad_kind),
            Err(WireError::UnknownKind(42))
        ));
    }

    #[test]
    fn hostile_sizes_do_not_allocate() {
        // kind=Flat, tag=OUE, domain = 2^40 — must be rejected by the cap,
        // not attempted.
        let mut frame = vec![MAGIC[0], MAGIC[1], VERSION, KIND_FLAT, TAG_OUE];
        put_varint(&mut frame, 1 << 40);
        assert!(matches!(
            decode_frame::<AnyReport>(&frame),
            Err(WireError::SizeOverCap(_))
        ));

        // A domain *under* the cap but far larger than the frame must be
        // rejected as truncated before the word buffer is allocated (the
        // allocation-amplification guard).
        let mut tiny = vec![MAGIC[0], MAGIC[1], VERSION, KIND_FLAT, TAG_OUE];
        put_varint(&mut tiny, MAX_WIRE_DOMAIN);
        assert!(tiny.len() < 16);
        assert!(matches!(
            decode_frame::<AnyReport>(&tiny),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn hrr_sign_and_index_are_validated() {
        let mut frame = vec![MAGIC[0], MAGIC[1], VERSION, KIND_FLAT, TAG_HRR];
        put_varint(&mut frame, 8); // domain
        put_varint(&mut frame, 9); // index out of domain
        frame.push(1);
        assert!(matches!(
            decode_frame::<AnyReport>(&frame),
            Err(WireError::Malformed(_))
        ));

        let mut frame = vec![MAGIC[0], MAGIC[1], VERSION, KIND_FLAT, TAG_HRR];
        put_varint(&mut frame, 8);
        put_varint(&mut frame, 3);
        frame.push(7); // sign byte must be 0/1
        assert!(matches!(
            decode_frame::<AnyReport>(&frame),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn epoch_frames_roundtrip_and_v1_stays_epochless() {
        let mut rng = StdRng::seed_from_u64(406);
        let oracle = AnyOracle::new(FrequencyOracle::Hrr, 32, Epsilon::new(1.1)).unwrap();
        let report = oracle.encode(7, &mut rng).unwrap();

        for epoch in [0u64, 1, 41, u64::MAX] {
            let mut frame = Vec::new();
            encode_epoch_frame(&report, epoch, &mut frame);
            let (got_epoch, decoded, used) = decode_epoch_frame::<AnyReport>(&frame).unwrap();
            assert_eq!(got_epoch, Some(epoch));
            assert_eq!(used, frame.len());
            assert_eq!(decoded.to_frame(), report.to_frame());
            // The strict v1 decoder must refuse the v2 frame, not
            // misparse the epoch varint as payload.
            assert!(matches!(
                decode_frame::<AnyReport>(&frame),
                Err(WireError::UnsupportedVersion(2))
            ));
        }

        // A v1 frame decodes through the epoch-aware entry point with no
        // epoch attached, consuming the same bytes either way.
        let v1 = report.to_frame();
        let (epoch, _, used) = decode_epoch_frame::<AnyReport>(&v1).unwrap();
        assert_eq!(epoch, None);
        assert_eq!(used, v1.len());
    }

    #[test]
    fn hostile_epoch_headers_are_rejected() {
        let mut rng = StdRng::seed_from_u64(407);
        let oracle = AnyOracle::new(FrequencyOracle::Hrr, 16, Epsilon::new(1.1)).unwrap();
        let report = oracle.encode(3, &mut rng).unwrap();
        let mut frame = Vec::new();
        encode_epoch_frame(&report, 99, &mut frame);

        // Every truncation prefix errors — including cuts inside the
        // epoch varint.
        for cut in 0..frame.len() {
            assert!(
                decode_epoch_frame::<AnyReport>(&frame[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }

        // An epoch varint overflowing 64 bits is rejected.
        let mut overflow = vec![MAGIC[0], MAGIC[1], VERSION_EPOCH, KIND_FLAT];
        overflow.extend_from_slice(&[0xFF; 10]);
        assert!(matches!(
            decode_epoch_frame::<AnyReport>(&overflow),
            Err(WireError::BadVarint)
        ));

        // An unknown version is rejected by the epoch-aware decoder too.
        let mut v3 = frame.clone();
        v3[2] = 3;
        assert!(matches!(
            decode_epoch_frame::<AnyReport>(&v3),
            Err(WireError::UnsupportedVersion(3))
        ));

        // Hostile payload sizes stay capped behind the epoch header.
        let mut huge = vec![MAGIC[0], MAGIC[1], VERSION_EPOCH, KIND_FLAT];
        put_varint(&mut huge, 17); // epoch
        huge.push(TAG_OUE);
        put_varint(&mut huge, 1 << 40); // domain over the cap
        assert!(matches!(
            decode_epoch_frame::<AnyReport>(&huge),
            Err(WireError::SizeOverCap(_))
        ));
    }

    #[test]
    fn concatenated_frames_stream() {
        let mut rng = StdRng::seed_from_u64(405);
        let oracle = AnyOracle::new(FrequencyOracle::Sue, 20, Epsilon::new(1.3)).unwrap();
        let mut buf = Vec::new();
        let originals: Vec<AnyReport> = (0..10)
            .map(|i| oracle.encode(i % 20, &mut rng).unwrap())
            .collect();
        for r in &originals {
            r.encode_frame(&mut buf);
        }
        let decoded = decode_all::<AnyReport>(&buf).unwrap();
        assert_eq!(decoded.len(), originals.len());
        for (a, b) in originals.iter().zip(&decoded) {
            assert_eq!(a.to_frame(), b.to_frame());
        }
        // Trailing garbage is an error.
        buf.push(0xFF);
        assert!(decode_all::<AnyReport>(&buf).is_err());
    }
}
