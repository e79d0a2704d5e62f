//! The benchmark's client sessions: closed-loop and open-loop REPORT
//! senders and a closed-loop analyst, each timing every round trip and
//! wrapping it in a span.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ldp_service::net::{Hello, Query, QueryOp};
use ldp_service::{EncodedStream, LdpClient, NetError};

use crate::common::Ask;
use crate::stats::{ns_since, Latencies, PerSecond};
use crate::trace::SpanBuf;

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After one pass over the input.
    OnePass,
    /// At the first operation boundary past this instant.
    Deadline(Instant),
}

impl Until {
    fn done(self, pass_complete: bool) -> bool {
        match self {
            Self::OnePass => pass_complete,
            Self::Deadline(t) => Instant::now() >= t,
        }
    }
}

/// Frames `[b * size, (b + 1) * size)` of `stream` (the last batch may be
/// short), as `(count, frames)`.
#[must_use]
pub fn batch(stream: &EncodedStream, b: usize, size: usize) -> (u64, &[u8]) {
    let (lo, hi) = (b * size, ((b + 1) * size).min(stream.len()));
    ((hi - lo) as u64, stream.frame_span(lo, hi))
}

/// Whether the server refused an operation with a typed error reply, as
/// opposed to the session failing in transport.
fn refused(e: &NetError) -> bool {
    matches!(e, NetError::Remote(_))
}

/// What one REPORT session did.
#[derive(Debug)]
pub struct IngestLog {
    /// Ack latency per acked batch.
    pub acks: Latencies,
    /// Batches of the stream sent, acked or refused. Batch `i` of the run
    /// is batch `i mod batches` of the stream.
    pub sent: u64,
    /// Run indices of the stream batches the server refused.
    pub refused: Vec<u64>,
    /// Reports acked.
    pub reports: u64,
    /// Operations attempted: REPORT batches, fault batches included, and
    /// any SEALs the session sends.
    pub attempted: u64,
    /// Operations the server refused.
    pub failed: u64,
    /// Reports acked per second.
    pub per_second: PerSecond,
    /// Wall time of the session's sending loop.
    pub elapsed: Duration,
    /// Spans of the session.
    pub spans: SpanBuf,
}

impl IngestLog {
    /// An empty log for a session started at `started`, whose ack
    /// latencies are sliced by `slice_ns` of the session's time.
    #[must_use]
    pub fn new(started: Instant, slice_ns: u64) -> Self {
        Self {
            acks: Latencies::sliced(slice_ns),
            sent: 0,
            refused: Vec::new(),
            reports: 0,
            attempted: 0,
            failed: 0,
            per_second: PerSecond::default(),
            elapsed: Duration::ZERO,
            spans: SpanBuf::new(false, started, 0),
        }
    }

    /// Counts one operation's outcome: `Some(value)` when it succeeded,
    /// `None` when the server refused it (counted in `failed`).
    ///
    /// # Errors
    ///
    /// Transport failures, which end the session, named by `what`.
    pub fn count<T>(
        &mut self,
        what: impl FnOnce() -> String,
        result: Result<T, NetError>,
    ) -> Result<Option<T>, String> {
        self.attempted += 1;
        match result {
            Ok(v) => Ok(Some(v)),
            Err(e) if refused(&e) => {
                self.failed += 1;
                Ok(None)
            }
            Err(e) => Err(format!("{}: {e}", what())),
        }
    }

    /// Sends one batch of the stream (run index `self.sent`) and logs its
    /// ack, timed from `since`, or its refusal. Returns the reports acked.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn send(
        &mut self,
        client: &mut LdpClient,
        (count, frames): (u64, &[u8]),
        since: Instant,
        started: Instant,
        spans: &mut SpanBuf,
        parent: u64,
    ) -> Result<u64, String> {
        let index = self.sent;
        let open = spans.begin("net.report", parent, index);
        let result = client.send_batch(count, frames);
        let (took, at) = (ns_since(since), ns_since(started));
        spans.end(open);
        self.sent += 1;
        match self.count(|| format!("REPORT batch {index}"), result)? {
            Some(acked) => {
                self.acks.push_at(at, took);
                self.reports += acked;
                self.per_second.add(at, acked);
                Ok(acked)
            }
            None => {
                self.refused.push(index);
                Ok(0)
            }
        }
    }

    /// Sends `faults`, batches the server must refuse. They count in
    /// `attempted`, and in `failed` when refused, but are not stream
    /// batches.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn send_faults(
        &mut self,
        client: &mut LdpClient,
        faults: &[(u64, &[u8])],
    ) -> Result<(), String> {
        for &(count, frames) in faults {
            let result = client.send_batch(count, frames);
            if self.count(|| "fault batch".into(), result)?.is_some() {
                self.reports += count;
            }
        }
        Ok(())
    }

    /// Whether stream batch `index` of the run was acked.
    #[must_use]
    pub fn acked(&self, index: u64) -> bool {
        index < self.sent && self.refused.binary_search(&index).is_err()
    }
}

/// Connects a session, mapping errors to text.
///
/// # Errors
///
/// Connect or handshake failures.
pub fn connect(addr: SocketAddr, hello: Hello) -> Result<LdpClient, String> {
    LdpClient::connect(addr, hello).map_err(|e| format!("connect {addr}: {e}"))
}

/// A malformed REPORT batch: the negative control's fault.
pub const MALFORMED_BATCH: (u64, &[u8]) = (1, &[0xFF, 0xFF, 0xFF]);

/// Sends `faults` (see [`IngestLog::send_faults`]) and then `stream` in
/// batches of `batch_size` frames, each after the previous ack, cycling
/// over the stream until `until`. Ack latencies are sliced by `slice_ns`.
///
/// # Errors
///
/// Transport failures.
pub fn closed_loop_ingest(
    client: &mut LdpClient,
    stream: &EncodedStream,
    batch_size: usize,
    faults: &[(u64, &[u8])],
    until: Until,
    slice_ns: u64,
    mut spans: SpanBuf,
) -> Result<IngestLog, String> {
    let batches = stream.len().div_ceil(batch_size) as u64;
    let root = spans.begin("bench.ingest_session", 0, 0);
    let started = Instant::now();
    let mut log = IngestLog::new(started, slice_ns);
    log.send_faults(client, faults)?;
    loop {
        let b = (log.sent % batches) as usize;
        log.send(
            client,
            batch(stream, b, batch_size),
            Instant::now(),
            started,
            &mut spans,
            root.id(),
        )?;
        if until.done(log.sent.is_multiple_of(batches)) {
            break;
        }
    }
    log.elapsed = started.elapsed();
    spans.end(root);
    log.spans = spans;
    Ok(log)
}

/// Runs two sessions on scoped threads and returns both results, or the
/// first error once both have ended.
///
/// # Errors
///
/// Either session's error, or a panic in one.
pub fn run_pair<A: Send, B: Send>(
    a: impl FnOnce() -> Result<A, String> + Send,
    b: impl FnOnce() -> Result<B, String> + Send,
) -> Result<(A, B), String> {
    std::thread::scope(|scope| {
        let a = scope.spawn(a);
        let b = scope.spawn(b);
        let (a, b) = (a.join(), b.join());
        let a = a.map_err(|_| "a session panicked".to_string())??;
        let b = b.map_err(|_| "a session panicked".to_string())??;
        Ok((a, b))
    })
}

/// Builds the wire query for an ask over an optional window.
#[must_use]
pub fn to_query(ask: Ask, window: Option<u64>) -> Query {
    let op = match ask {
        Ask::Range(a, b) => QueryOp::Range { a, b },
        Ask::Quantile(phi) => QueryOp::Quantile { phi },
    };
    Query { op, window }
}

/// What one analyst session did.
#[derive(Debug)]
pub struct QueryLog {
    /// Latency of unwindowed queries.
    pub plain: Latencies,
    /// Latency of windowed queries.
    pub windowed: Latencies,
    /// Queries answered.
    pub answered: u64,
    /// Queries answered per second.
    pub per_second: PerSecond,
    /// QUERY operations attempted, fault queries included.
    pub attempted: u64,
    /// Queries the server refused.
    pub failed: u64,
    /// Wall time of the query loop.
    pub elapsed: Duration,
    /// Spans of the session.
    pub spans: SpanBuf,
}

/// Sends `faults` (queries the server must refuse), then runs `queries`
/// in order, each after the previous reply, cycling until `until`. A
/// refused query counts in `failed` and the loop goes on. Latencies are
/// sliced by `slice_ns` of the session's time.
///
/// # Errors
///
/// Transport failures.
pub fn closed_loop_queries(
    client: &mut LdpClient,
    faults: &[Query],
    queries: &[Query],
    until: Until,
    slice_ns: u64,
    mut spans: SpanBuf,
) -> Result<QueryLog, String> {
    let root = spans.begin("bench.query_session", 0, 0);
    let started = Instant::now();
    let mut log = QueryLog {
        plain: Latencies::sliced(slice_ns),
        windowed: Latencies::sliced(slice_ns),
        answered: 0,
        per_second: PerSecond::default(),
        attempted: 0,
        failed: 0,
        elapsed: Duration::ZERO,
        spans: SpanBuf::new(false, started, 0),
    };
    let count = |log: &mut QueryLog, q: Query, result: Result<_, NetError>| match result {
        Ok(_) => {
            log.answered += 1;
            Ok(true)
        }
        Err(e) if refused(&e) => {
            log.failed += 1;
            Ok(false)
        }
        Err(e) => Err(format!("QUERY {} ({q:?}): {e}", log.attempted)),
    };
    for &q in faults {
        let result = client.query(q);
        count(&mut log, q, result)?;
        log.attempted += 1;
    }
    let mut sent = 0u64;
    loop {
        let q = queries[(sent % queries.len() as u64) as usize];
        let name = if q.window.is_some() {
            "net.window_query"
        } else {
            "net.query"
        };
        let t = Instant::now();
        let open = spans.begin(name, root.id(), sent);
        let result = client.query(q);
        spans.end(open);
        if count(&mut log, q, result)? {
            let (took, at) = (ns_since(t), ns_since(started));
            log.per_second.add(at, 1);
            if q.window.is_some() {
                log.windowed.push_at(at, took);
            } else {
                log.plain.push_at(at, took);
            }
        }
        log.attempted += 1;
        sent += 1;
        if until.done(sent.is_multiple_of(queries.len() as u64)) {
            break;
        }
    }
    log.elapsed = started.elapsed();
    spans.end(root);
    log.spans = spans;
    Ok(log)
}

/// A query outside every workload's domain: the negative control's fault.
#[must_use]
pub fn out_of_domain_query() -> Query {
    to_query(Ask::Range(0, u64::MAX), None)
}
