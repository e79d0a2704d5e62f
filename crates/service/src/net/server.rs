//! [`LdpServer`] — the reactor-driven TCP front end serving the session
//! protocol against a shared [`LdpService`].
//!
//! One reactor thread (the `net::reactor` module) owns every socket:
//! non-blocking accept, per-session partial-read/partial-write buffers
//! over the length-prefixed framing, and vectored reply writes. Complete
//! message bodies are executed by a small worker pool against the shared
//! backend — the worker count bounds CPU concurrency, not the session
//! count, so a node holds as many sessions as it has file descriptors.
//! Report batches land through the service's all-or-nothing batch paths
//! (absorbed in place, retracted whole on a refused frame), so a session
//! is a pure transport: the state it leaves behind is bit-identical to
//! calling [`LdpService::submit_frame`] in-process with the same frames.
//!
//! Shutdown is graceful and total: accepting stops, in-flight messages
//! are executed and their replies flushed, half-received messages get
//! bounded patience (a stalled peer cannot hold the drain hostage),
//! every thread is joined (nothing leaks), the open epoch of a windowed
//! backend is sealed, and a final snapshot is published. On a plain
//! backend `num_reports` after shutdown equals exactly the number of
//! frames the server acked — the drain contract the concurrency tests
//! pin down. A windowed backend keeps its *retention* semantics through
//! the drain: the final seal can rotate the oldest epoch out of the
//! window, so `num_reports` counts the retained window (every acked
//! frame is still accounted for in [`ServerStats::frames_absorbed`]).

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ldp_ranges::{PersistableServer, SubtractableServer};

use crate::error::ServiceError;
use crate::net::ops::OpsListener;
use crate::net::poll::Poller;
use crate::net::proto::{
    decode_report_frames, ClientMsg, DurableProgress, ErrorCode, Hello, HelloOk, Query, QueryOp,
    QueryReply, QueryResult, RemoteError, ReportFrames, ServerMsg, StatusReply, MSG_HEALTH,
    MSG_METRICS, MSG_METRICS_RANGE, MSG_QUERY, MSG_REPLICATE, MSG_REPORT, MSG_SEAL, MSG_STATUS,
    WIRE_EPOCH, WIRE_V1,
};
use crate::net::reactor::{
    Job, JobDone, JobQueue, PushSource, Reactor, ReactorKnobs, ReactorShared,
};
use crate::net::{NetConfig, NetError};
use crate::obs::health::evaluate;
use crate::obs::instruments::{NetInstruments, OpsInstruments};
use crate::obs::trace::set_current_span;
use crate::obs::{
    HealthThresholds, MetricsRegistry, Sampler, TimeSeriesRing, TraceEvent, TraceOutcome,
    TraceRing, TraceStage,
};
use crate::repl::cursor::ReplCursor;
use crate::service::LdpService;
use crate::snapshot::{RangeSnapshot, SnapshotSource};
use crate::storage::DurableService;
use crate::window::EpochRing;
use crate::wire::WireReport;

/// The aggregation backend a server fronts: a plain all-time service, a
/// windowed (epoch-ring) one, or a durable service wrapping either with
/// a write-ahead log. All are `Arc`-shared, so the owner keeps querying
/// (and, for durable backends, checkpointing) while the server ingests.
enum Backend<S>
where
    S: SnapshotSource + SubtractableServer + PersistableServer,
    S::Report: WireReport,
{
    Plain(Arc<LdpService<S>>),
    Windowed(Arc<LdpService<EpochRing<S>>>),
    Durable(Arc<DurableService<S>>),
}

impl<S> Backend<S>
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    fn windowed(&self) -> bool {
        match self {
            Self::Plain(_) => false,
            Self::Windowed(_) => true,
            Self::Durable(d) => d.is_windowed(),
        }
    }

    fn domain(&self) -> u64 {
        match self {
            Self::Plain(s) => s.snapshot().domain() as u64,
            Self::Windowed(s) => s.snapshot().domain() as u64,
            Self::Durable(d) => d.snapshot().domain() as u64,
        }
    }

    fn num_reports(&self) -> u64 {
        match self {
            Self::Plain(s) => s.num_reports(),
            Self::Windowed(s) => s.num_reports(),
            Self::Durable(d) => d.num_reports(),
        }
    }

    /// Absorbs a REPORT batch straight from borrowed envelope bytes under
    /// the negotiated wire version, all-or-nothing (through the WAL on
    /// durable backends), returning the number of frames absorbed. Frames
    /// are decoded one at a time from subslices of `frames` and absorbed
    /// in place into the locked shard, so a 256-frame batch costs no
    /// intermediate `Vec` of reports, no copy of the frame bytes and no
    /// copy of shard state.
    fn absorb_frames(
        &self,
        wire_version: u8,
        count: u64,
        frames: &[u8],
    ) -> Result<u64, RemoteError> {
        match self {
            Self::Durable(d) => d
                .ingest_batch(wire_version, count, frames)
                .map_err(service_error),
            Self::Plain(s) => s
                .submit_wire_batch(wire_version, count, frames)
                .map_err(service_error),
            Self::Windowed(s) => s
                .submit_epoch_wire_batch(wire_version, count, frames)
                .map_err(service_error),
        }
    }

    /// Answers one query from a snapshot — never from live shard state,
    /// so ingestion is never blocked on estimation.
    fn query(&self, q: &Query) -> Result<QueryReply, RemoteError> {
        let windowed_err = || {
            RemoteError::new(
                ErrorCode::BadState,
                None,
                "windowed query against an unwindowed service",
            )
        };
        let (snap, window) = match (self, q.window) {
            (Self::Plain(_), Some(_)) => return Err(windowed_err()),
            (Self::Durable(d), Some(_)) if !d.is_windowed() => return Err(windowed_err()),
            (Self::Plain(s), None) => (s.refresh_snapshot().map_err(service_error)?, None),
            (Self::Windowed(s), None) => (s.refresh_snapshot().map_err(service_error)?, None),
            (Self::Durable(d), None) => (d.refresh_snapshot().map_err(service_error)?, None),
            (Self::Windowed(s), Some(k)) => {
                let w = s
                    .window_snapshot(usize::try_from(k).unwrap_or(usize::MAX))
                    .map_err(service_error)?;
                let bounds = (w.first_epoch(), w.last_epoch());
                (Arc::new(w.snapshot().clone()), Some(bounds))
            }
            (Self::Durable(d), Some(k)) => {
                let w = d
                    .window_snapshot(usize::try_from(k).unwrap_or(usize::MAX))
                    .map_err(service_error)?;
                let bounds = (w.first_epoch(), w.last_epoch());
                (Arc::new(w.snapshot().clone()), Some(bounds))
            }
        };
        let result = answer(&snap, q.op)?;
        Ok(QueryReply {
            result,
            version: snap.version(),
            num_reports: snap.num_reports(),
            window,
        })
    }

    fn seal(&self) -> Result<u64, RemoteError> {
        match self {
            Self::Plain(_) => Err(RemoteError::new(
                ErrorCode::BadState,
                None,
                "seal against an unwindowed service",
            )),
            Self::Windowed(s) => s.seal_epoch().map_err(service_error),
            Self::Durable(d) => d.seal_epoch().map_err(service_error),
        }
    }

    /// The open epoch id (windowed backends only).
    fn current_epoch(&self) -> Option<u64> {
        match self {
            Self::Plain(_) => None,
            Self::Windowed(s) => Some(s.current_epoch()),
            Self::Durable(d) => d.windowed().map(|s| s.current_epoch()),
        }
    }

    /// Durability progress (durable backends only). A fault in the
    /// durable layer (poisoned WAL lock) is surfaced as an error — a
    /// durable server must never masquerade as a non-durable one to the
    /// very probe built to watch its durability.
    fn durable_progress(&self) -> Result<Option<DurableProgress>, RemoteError> {
        let Self::Durable(d) = self else {
            return Ok(None);
        };
        let status = d.status().map_err(service_error)?;
        Ok(Some(DurableProgress {
            last_checkpoint: status.last_checkpoint,
            wal_segment_seq: status.wal_segment_seq,
            wal_records: status.wal_records,
            wal_frames: status.wal_frames,
            checkpoint_failures: status.checkpoint_failures,
            wedged: status.wedged,
        }))
    }

    /// The shutdown epilogue: seal the open epoch (windowed backends),
    /// checkpoint (durable backends — the drained state is durable on
    /// disk before the server reports itself stopped), and publish one
    /// final snapshot. On a plain backend the snapshot covers everything
    /// absorbed; on a windowed backend it covers the trailing retention
    /// window after the final seal (the window semantics the backend was
    /// built for — the seal can rotate the oldest epoch out).
    fn finalize(&self) -> (Option<u64>, Option<u64>, Arc<RangeSnapshot>) {
        let sealed = match self {
            Self::Plain(_) => None,
            Self::Windowed(s) => s.seal_epoch().ok(),
            Self::Durable(d) if d.is_windowed() => d.seal_epoch().ok(),
            Self::Durable(_) => None,
        };
        let checkpoint = match self {
            Self::Durable(d) => d.finalize().ok(),
            _ => None,
        };
        let snap = match self {
            Self::Plain(s) => s.refresh_snapshot(),
            Self::Windowed(s) => s.refresh_snapshot(),
            Self::Durable(d) => d.refresh_snapshot(),
        };
        let snap = snap.unwrap_or_else(|_| match self {
            Self::Plain(s) => s.snapshot(),
            Self::Windowed(s) => s.snapshot(),
            Self::Durable(d) => d.snapshot(),
        });
        (sealed, checkpoint, snap)
    }
}

fn answer(snap: &RangeSnapshot, op: QueryOp) -> Result<QueryResult, RemoteError> {
    let domain = snap.domain() as u64;
    let check = |bound: u64| {
        if bound >= domain {
            Err(RemoteError::new(
                ErrorCode::BadQuery,
                None,
                format!("bound {bound} outside domain {domain}"),
            ))
        } else {
            Ok(bound as usize)
        }
    };
    Ok(match op {
        QueryOp::Range { a, b } => QueryResult::Fraction(snap.range(check(a)?, check(b)?)),
        QueryOp::Prefix { b } => QueryResult::Fraction(snap.prefix(check(b)?)),
        QueryOp::Point { z } => QueryResult::Fraction(snap.point(check(z)?)),
        QueryOp::Quantile { phi } => QueryResult::Index(snap.quantile(phi) as u64),
    })
}

/// Maps a service-layer rejection to its typed protocol error.
fn service_error(e: ServiceError) -> RemoteError {
    match &e {
        ServiceError::BadFrame { index, source, .. } => {
            let code = if matches!(**source, ServiceError::EpochMismatch { .. }) {
                ErrorCode::EpochMismatch
            } else {
                ErrorCode::BadFrame
            };
            RemoteError::new(code, Some(*index as u64), e.to_string())
        }
        ServiceError::EpochMismatch { .. } => {
            RemoteError::new(ErrorCode::EpochMismatch, None, e.to_string())
        }
        ServiceError::EmptyWindow => RemoteError::new(ErrorCode::EmptyWindow, None, e.to_string()),
        ServiceError::Wire(_) => RemoteError::new(ErrorCode::BadFrame, None, e.to_string()),
        ServiceError::Io(_) | ServiceError::LockPoisoned(_) => {
            RemoteError::new(ErrorCode::Internal, None, e.to_string())
        }
        _ => RemoteError::new(ErrorCode::BadState, None, e.to_string()),
    }
}

// --- the server --------------------------------------------------------

struct Shared<S>
where
    S: SnapshotSource + SubtractableServer + PersistableServer,
    S::Report: WireReport,
{
    backend: Backend<S>,
    /// The server fronts a replication follower: QUERY/STATUS/METRICS
    /// only — REPORT and SEAL are refused, because the follower's log
    /// must stay a pure copy of its leader's.
    replica: bool,
    /// The one registry every tier behind this server reports into.
    registry: Arc<MetricsRegistry>,
    /// Net-tier instruments: the *single* accounting path — drain totals
    /// ([`ServerStats`]) and STATUS replies both read these counters.
    obs: NetInstruments,
    trace: Option<Arc<TraceRing>>,
    /// The metrics time-series ring the background sampler fills —
    /// served by METRICS_RANGE and `GET /metrics/range`.
    ring: Arc<TimeSeriesRing>,
    /// Thresholds the health model judges registry signals against.
    health: HealthThresholds,
}

/// What a drained server reports back from [`LdpServer::shutdown`].
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Sessions served to completion.
    pub sessions: u64,
    /// Frames absorbed *and acked*. On a plain backend this equals the
    /// backend's `num_reports` after the drain exactly.
    pub frames_absorbed: u64,
    /// Frames arriving in rejected batches (nothing from those batches
    /// was absorbed).
    pub frames_rejected: u64,
    /// `num_reports` of the backend after the drain. For a windowed
    /// backend this counts the *retained* window only — the drain's
    /// final seal can rotate the oldest epoch out, so it may be smaller
    /// than [`ServerStats::frames_absorbed`].
    pub num_reports: u64,
    /// For windowed backends: the id of the epoch sealed by the drain.
    pub sealed_epoch: Option<u64>,
    /// For durable backends: the id of the checkpoint the drain took —
    /// the drained state is on disk before shutdown returns.
    pub final_checkpoint: Option<u64>,
    /// The final snapshot published after the drain.
    pub final_snapshot: Arc<RangeSnapshot>,
}

/// A socket front end serving ingestion and queries for one report type.
///
/// Built over a shared [`LdpService`] (the caller keeps its own `Arc`
/// and can query in-process at any time). Dropped without
/// [`LdpServer::shutdown`], threads are detached — call `shutdown` to
/// drain and join.
pub struct LdpServer<S>
where
    S: SnapshotSource + SubtractableServer + PersistableServer,
    S::Report: WireReport,
{
    shared: Arc<Shared<S>>,
    rshared: Arc<ReactorShared>,
    addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// The background snapshot sampler feeding the time-series ring.
    sampler: Option<Sampler>,
    /// The plain-HTTP ops endpoint, when `ops_addr` asked for one.
    ops: Option<OpsListener>,
}

impl<S> LdpServer<S>
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    /// Binds a server over a plain (all-time) service.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<LdpService<S>>,
        config: NetConfig,
    ) -> Result<Self, NetError> {
        Self::start(addr, Backend::Plain(service), config, false)
    }

    /// Binds a server over a windowed (epoch-ring) service.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_windowed(
        addr: impl ToSocketAddrs,
        service: Arc<LdpService<EpochRing<S>>>,
        config: NetConfig,
    ) -> Result<Self, NetError> {
        Self::start(addr, Backend::Windowed(service), config, false)
    }

    /// Binds a server in durable mode over a [`DurableService`] (plain
    /// or windowed): every acked REPORT batch is logged through the
    /// write-ahead log before the ack, SEALs are logged, and graceful
    /// shutdown checkpoints, so a restart recovers the drained state
    /// bit-identically.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_durable(
        addr: impl ToSocketAddrs,
        service: Arc<DurableService<S>>,
        config: NetConfig,
    ) -> Result<Self, NetError> {
        Self::start(addr, Backend::Durable(service), config, false)
    }

    /// Binds a *read replica* server over a replication follower's
    /// durable service (see [`crate::repl::FollowerService::service`]):
    /// QUERY, STATUS, and METRICS are served from the follower's own
    /// snapshots, but REPORT and SEAL are refused — the follower's log
    /// must stay a pure copy of its leader's. The replica also serves
    /// REPLICATE, so followers can chain.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_replica(
        addr: impl ToSocketAddrs,
        service: Arc<DurableService<S>>,
        config: NetConfig,
    ) -> Result<Self, NetError> {
        Self::start(addr, Backend::Durable(service), config, true)
    }

    fn start(
        addr: impl ToSocketAddrs,
        backend: Backend<S>,
        config: NetConfig,
        replica: bool,
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // The reactor owns the listener non-blocking; readiness comes
        // from the poller, not accept timeouts.
        listener.set_nonblocking(true)?;
        // One registry for every tier behind this server. A durable
        // backend already carries the registry its storage layer (and
        // the wrapped service) registered into, so sharing it is what
        // makes a single METRICS probe see WAL, shard, and session
        // metrics together; an explicit `config.registry` wins.
        let registry = match (&config.registry, &backend) {
            (Some(r), _) => Arc::clone(r),
            (None, Backend::Durable(d)) => Arc::clone(d.registry()),
            (None, _) => Arc::new(MetricsRegistry::new()),
        };
        match &backend {
            Backend::Plain(s) => {
                s.attach_metrics(&registry);
            }
            Backend::Windowed(s) => {
                s.attach_metrics(&registry);
                s.attach_window_metrics(&registry);
            }
            // Durable backends attach at open; re-attaching here would
            // be a no-op (first attach wins).
            Backend::Durable(_) => {}
        }
        let obs = NetInstruments::register(&registry);
        // Trace adoption mirrors registry adoption: an explicit
        // `config.trace` wins; otherwise a durable backend's own ring
        // (from [`crate::storage::DurableConfig::trace`]) is shared, so
        // session-tier span events land in the same ring the storage
        // tier's WAL-append events do.
        let trace = match (&config.trace, &backend) {
            (Some(t), _) => Some(Arc::clone(t)),
            (None, Backend::Durable(d)) => d.trace().cloned(),
            (None, _) => None,
        };
        let ring = Arc::new(TimeSeriesRing::new(
            config.ring_capacity,
            config.sample_interval,
        ));
        let ops_obs = OpsInstruments::register(&registry);
        let shared = Arc::new(Shared {
            backend,
            replica,
            registry,
            obs: obs.clone(),
            trace: trace.clone(),
            ring: Arc::clone(&ring),
            health: config.health.clone(),
        });
        let sampler = Sampler::start(
            Arc::clone(&shared.registry),
            Arc::clone(&ring),
            ops_obs.clone(),
        )
        .map_err(NetError::Io)?;
        let ops = match &config.ops_addr {
            Some(ops_addr) => Some(
                OpsListener::start(
                    ops_addr,
                    Arc::clone(&shared.registry),
                    ring,
                    config.health.clone(),
                    ops_obs,
                )
                .map_err(NetError::Io)?,
            ),
            None => None,
        };
        // The portable poller has no kernel readiness and sweeps on a
        // tick instead; keep that tick well under the idle poll so
        // request latency stays in the low milliseconds.
        let tick = config.idle_poll.min(Duration::from_millis(1));
        let rshared = Arc::new(ReactorShared {
            jobs: JobQueue::new(),
            completions: Mutex::new(Vec::new()),
            poller: Poller::new(config.portable_poller, tick),
            shutdown: AtomicBool::new(false),
        });
        // A durable backend serves REPLICATE: seed the hub (counting the
        // retained log once) and ring the reactor's doorbell on every
        // appended record so push streams pump promptly. A store that
        // cannot state its log (wedged) simply leaves the hub unset and
        // REPLICATE answered with REPL_UNAVAILABLE.
        if let Backend::Durable(d) = &shared.backend {
            if let Ok(hub) = d.ensure_repl_hub() {
                let doorbell = Arc::clone(&rshared);
                hub.add_waker(Box::new(move || doorbell.poller.wake()));
            }
        }
        let knobs = ReactorKnobs {
            idle_poll: config.idle_poll,
            drain_patience: config.drain_patience,
            idle_timeout: config.idle_timeout,
            inflight_cap: config.queue_depth.max(1),
        };
        let reactor = Reactor::new(listener, Arc::clone(&rshared), knobs, obs, trace)
            .map_err(NetError::Io)?;
        let reactor_handle = std::thread::Builder::new()
            .name("ldp-net-reactor".into())
            .spawn(move || reactor.run())
            .map_err(NetError::Io)?;
        let mut workers = Vec::with_capacity(config.workers.max(1));
        for k in 0..config.workers.max(1) {
            let worker = {
                let shared = Arc::clone(&shared);
                let rshared = Arc::clone(&rshared);
                std::thread::Builder::new()
                    .name(format!("ldp-net-worker-{k}"))
                    .spawn(move || {
                        while let Some(job) = rshared.jobs.pop() {
                            let done = execute_job(&shared, job);
                            rshared.complete(done);
                        }
                    })
            };
            match worker {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // A partial pool must not outlive the failed bind:
                    // stop the reactor (it closes the job queue on
                    // exit), then join everything already running before
                    // reporting the error — otherwise orphaned threads
                    // keep serving a port the caller believes never
                    // opened.
                    rshared.shutdown.store(true, Ordering::SeqCst);
                    rshared.poller.wake();
                    let _ = reactor_handle.join();
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(NetError::Io(e));
                }
            }
        }
        Ok(Self {
            shared,
            rshared,
            addr,
            reactor: Some(reactor_handle),
            workers,
            sampler: Some(sampler),
            ops,
        })
    }

    /// The bound address (port 0 in `bind` resolves to a real port here).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics registry this server (and every tier behind it)
    /// reports into — the same snapshot the METRICS session message
    /// serves, for in-process scraping and rendering.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.shared.registry
    }

    /// The bound address of the plain-HTTP ops endpoint, when
    /// [`NetConfig::ops_addr`] asked for one (`:0` resolves to a real
    /// port here).
    #[must_use]
    pub fn ops_local_addr(&self) -> Option<SocketAddr> {
        self.ops.as_ref().map(OpsListener::local_addr)
    }

    /// The metrics time-series ring the background sampler fills — the
    /// same samples the METRICS_RANGE message and `GET /metrics/range`
    /// serve, for in-process dumps.
    #[must_use]
    pub fn timeseries(&self) -> &Arc<TimeSeriesRing> {
        &self.shared.ring
    }

    /// Drains and stops the server: no new connections are accepted,
    /// in-flight messages are executed and their replies flushed (with
    /// bounded patience for stalled peers), every thread is joined, a
    /// windowed backend's open epoch is sealed, and a final snapshot is
    /// published.
    #[must_use]
    pub fn shutdown(mut self) -> ServerStats {
        self.rshared.shutdown.store(true, Ordering::SeqCst);
        self.rshared.poller.wake();
        // Scraping stops first: the ops endpoint must not observe a
        // half-finalized backend.
        if let Some(mut ops) = self.ops.take() {
            ops.stop();
        }
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        // The reactor closed the job queue on exit, so the workers fall
        // through their pop loops.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(mut sampler) = self.sampler.take() {
            sampler.stop();
        }
        let (sealed_epoch, final_checkpoint, final_snapshot) = self.shared.backend.finalize();
        // Drain totals read straight from the registry counters — the
        // registry *is* the accounting path, so an operator scraping
        // METRICS and a caller holding these stats can never disagree.
        ServerStats {
            sessions: self.shared.obs.sessions_closed.get(),
            frames_absorbed: self.shared.obs.frames_absorbed.get(),
            frames_rejected: self.shared.obs.frames_rejected.get(),
            num_reports: self.shared.backend.num_reports(),
            sealed_epoch,
            final_checkpoint,
            final_snapshot,
        }
    }
}

/// Records one handled request into the per-message-type latency
/// histogram and — when tracing is on — the trace ring, as the span's
/// Execute-stage event.
fn observe<S>(shared: &Shared<S>, span: u64, session: u64, msg_type: u8, ok: bool, started: Instant)
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let histo = match msg_type {
        MSG_REPORT => &shared.obs.report_ns,
        MSG_QUERY => &shared.obs.query_ns,
        MSG_SEAL => &shared.obs.seal_ns,
        // STATUS and METRICS share one introspection-latency histogram.
        _ => &shared.obs.status_ns,
    };
    histo.record(ns);
    if let Some(trace) = &shared.trace {
        trace.record(TraceEvent {
            span,
            session,
            stage: TraceStage::Execute,
            msg_type,
            outcome: if ok {
                TraceOutcome::Ok
            } else {
                TraceOutcome::Error
            },
            ns,
        });
    }
}

fn error_body(code: ErrorCode, detail: impl Into<String>) -> Vec<u8> {
    ServerMsg::Error(RemoteError::new(code, None, detail)).encode()
}

/// Executes one session's queued messages against the backend and
/// returns the encoded replies. This is the session state machine the
/// blocking engine ran inline — every hostile input (garbage bytes,
/// absurd lengths, mismatched handshakes, malformed batches) lands in a
/// typed error reply or a close decision, nothing panics the worker, and
/// rejected batches leave the backend untouched. Messages after a
/// close-triggering one are dropped unprocessed, exactly as a blocking
/// loop that returned would have left them unread.
fn execute_job<S>(shared: &Shared<S>, job: Job) -> JobDone
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let obs = &shared.obs;
    let mut hello: Option<Hello> = job.hello;
    let mut replies: Vec<Vec<u8>> = Vec::with_capacity(job.bodies.len());
    let mut close = false;
    let mut repl = job.repl;
    let mut push: Option<Box<dyn PushSource>> = None;
    for (span, body) in &job.bodies {
        let span = *span;
        // The decode-assigned span follows the message into the storage
        // tiers through the worker's thread-local, so a WAL group-commit
        // can stamp its event with the span that caused it.
        set_current_span(Some(span));
        if body.is_empty() {
            // Hostile envelope length (zero or over the cap): typed
            // error, then close — resync is impossible.
            replies.push(error_body(
                ErrorCode::Protocol,
                "message length outside (0, cap]",
            ));
            close = true;
            break;
        }
        let started = Instant::now();
        // Zero-copy fast path: REPORT bodies on ingest sessions decode as
        // borrowed frames straight out of the envelope buffer instead of
        // through `ClientMsg::decode`'s owning `ReportBatch`, so the frame
        // bytes are never copied between the socket and the shard absorb.
        // Replication sessions fall through to the generic decode so the
        // stream state machine below still rejects them identically.
        if !repl && body[0] == MSG_REPORT {
            let ReportFrames { count, frames } = match decode_report_frames(body) {
                Ok(rf) => rf,
                Err(e) => {
                    replies.push(error_body(ErrorCode::Protocol, e.to_string()));
                    if hello.is_none() {
                        close = true;
                        break;
                    }
                    continue;
                }
            };
            let Some(h) = hello else {
                replies.push(error_body(ErrorCode::BadState, "REPORT before HELLO"));
                close = true;
                break;
            };
            if shared.replica {
                replies.push(error_body(
                    ErrorCode::BadState,
                    "replica is read-only: its log is a copy of its leader's",
                ));
                observe(shared, span, job.session, MSG_REPORT, false, started);
                continue;
            }
            match shared.backend.absorb_frames(h.wire_version, count, frames) {
                Ok(accepted) => {
                    obs.frames_absorbed.add(accepted);
                    replies.push(ServerMsg::ReportOk { accepted }.encode());
                    observe(shared, span, job.session, MSG_REPORT, true, started);
                }
                Err(e) => {
                    // Count what the payload could physically hold (the
                    // smallest frame is 5 bytes), never the attacker-
                    // declared count — a lying count must not corrupt an
                    // operator-visible counter.
                    let plausible = count.min(frames.len() as u64 / 5);
                    obs.frames_rejected.add(plausible);
                    replies.push(ServerMsg::Error(e).encode());
                    observe(shared, span, job.session, MSG_REPORT, false, started);
                }
            }
            continue;
        }
        let msg = match ClientMsg::decode(body) {
            Ok(msg) => msg,
            Err(e) => {
                replies.push(error_body(ErrorCode::Protocol, e.to_string()));
                // Before the handshake nothing about the peer is
                // trusted; after it, the envelope kept us in sync, so
                // the session may continue.
                if hello.is_none() {
                    close = true;
                    break;
                }
                continue;
            }
        };
        // A replication stream is one-way after the subscription: the
        // follower may only acknowledge progress or say goodbye.
        if repl {
            match msg {
                ClientMsg::ReplAck { acked } => {
                    // Lag accounting only — a hostile position is clamped
                    // by the hub and can never corrupt leader state.
                    if let Backend::Durable(d) = &shared.backend {
                        if let Some(hub) = d.repl_hub() {
                            hub.ack(job.session, acked);
                        }
                    }
                    continue; // acks carry no reply
                }
                ClientMsg::Bye => {
                    replies.push(ServerMsg::ByeOk.encode());
                    close = true;
                    break;
                }
                _ => {
                    replies.push(error_body(
                        ErrorCode::BadState,
                        "session is a replication stream: only REPL_ACK and BYE are accepted",
                    ));
                    close = true;
                    break;
                }
            }
        }
        match msg {
            ClientMsg::Hello(h) => {
                if hello.is_some() {
                    replies.push(error_body(ErrorCode::Protocol, "duplicate HELLO"));
                    continue;
                }
                if let Err((code, detail)) = validate_hello::<S>(&h, &shared.backend) {
                    replies.push(error_body(code, detail));
                    close = true;
                    break;
                }
                replies.push(
                    ServerMsg::HelloOk(HelloOk {
                        kind: h.kind,
                        wire_version: h.wire_version,
                        windowed: h.windowed,
                        domain: shared.backend.domain(),
                    })
                    .encode(),
                );
                hello = Some(h);
            }
            ClientMsg::Report(batch) => {
                let Some(h) = hello else {
                    replies.push(error_body(ErrorCode::BadState, "REPORT before HELLO"));
                    close = true;
                    break;
                };
                if shared.replica {
                    replies.push(error_body(
                        ErrorCode::BadState,
                        "replica is read-only: its log is a copy of its leader's",
                    ));
                    observe(shared, span, job.session, MSG_REPORT, false, started);
                    continue;
                }
                match shared
                    .backend
                    .absorb_frames(h.wire_version, batch.count, &batch.frames)
                {
                    Ok(accepted) => {
                        obs.frames_absorbed.add(accepted);
                        replies.push(ServerMsg::ReportOk { accepted }.encode());
                        observe(shared, span, job.session, MSG_REPORT, true, started);
                    }
                    Err(e) => {
                        // Count what the payload could physically hold
                        // (the smallest frame is 5 bytes), never the
                        // attacker-declared count — a lying count must
                        // not corrupt an operator-visible counter.
                        let plausible = batch.count.min(batch.frames.len() as u64 / 5);
                        obs.frames_rejected.add(plausible);
                        replies.push(ServerMsg::Error(e).encode());
                        observe(shared, span, job.session, MSG_REPORT, false, started);
                    }
                }
            }
            ClientMsg::Query(query) => {
                if hello.is_none() {
                    replies.push(error_body(ErrorCode::BadState, "QUERY before HELLO"));
                    close = true;
                    break;
                }
                let (reply, ok) = match shared.backend.query(&query) {
                    Ok(reply) => (ServerMsg::QueryOk(reply), true),
                    Err(e) => (ServerMsg::Error(e), false),
                };
                replies.push(reply.encode());
                observe(shared, span, job.session, MSG_QUERY, ok, started);
            }
            ClientMsg::Seal => {
                if hello.is_none() {
                    replies.push(error_body(ErrorCode::BadState, "SEAL before HELLO"));
                    close = true;
                    break;
                }
                if shared.replica {
                    replies.push(error_body(
                        ErrorCode::BadState,
                        "replica is read-only: its log is a copy of its leader's",
                    ));
                    observe(shared, span, job.session, MSG_SEAL, false, started);
                    continue;
                }
                let (reply, ok) = match shared.backend.seal() {
                    Ok(epoch) => (ServerMsg::SealOk { epoch }, true),
                    Err(e) => (ServerMsg::Error(e), false),
                };
                replies.push(reply.encode());
                observe(shared, span, job.session, MSG_SEAL, ok, started);
            }
            ClientMsg::Status { verbose } => {
                // No handshake required: STATUS names no report kind, so
                // an operator tool can probe any server blind.
                let (reply, ok) = match build_status(shared, verbose) {
                    Ok(status) => (ServerMsg::StatusOk(status), true),
                    Err(e) => (ServerMsg::Error(e), false),
                };
                replies.push(reply.encode());
                observe(shared, span, job.session, MSG_STATUS, ok, started);
            }
            ClientMsg::Metrics => {
                // Also allowed before HELLO: introspection names no
                // report kind either.
                replies.push(ServerMsg::MetricsOk(shared.registry.snapshot()).encode());
                observe(shared, span, job.session, MSG_METRICS, true, started);
            }
            ClientMsg::MetricsRange { max } => {
                // Also allowed before HELLO, like METRICS.
                let range = shared
                    .ring
                    .range(usize::try_from(max).unwrap_or(usize::MAX));
                replies.push(ServerMsg::MetricsRangeOk(range).encode());
                observe(shared, span, job.session, MSG_METRICS_RANGE, true, started);
            }
            ClientMsg::Health => {
                // Also allowed before HELLO: an operator probing a sick
                // node must not need a handshake.
                let report = evaluate(&shared.registry.snapshot(), &shared.health);
                replies.push(ServerMsg::HealthOk(report).encode());
                observe(shared, span, job.session, MSG_HEALTH, true, started);
            }
            ClientMsg::Replicate { start } => {
                // Allowed before HELLO only (like STATUS it names no
                // report kind) — and *instead of* it: a stream session
                // never negotiates a report session.
                if hello.is_some() {
                    replies.push(error_body(
                        ErrorCode::BadState,
                        "REPLICATE on a negotiated report session",
                    ));
                    close = true;
                    break;
                }
                match setup_replication(shared, job.session, start) {
                    Ok((reply, source)) => {
                        replies.push(reply);
                        repl = true;
                        push = Some(source);
                        observe(shared, span, job.session, MSG_REPLICATE, true, started);
                        // Anything pipelined after this body hits the
                        // stream-session guard above.
                    }
                    Err((code, detail)) => {
                        replies.push(error_body(code, detail));
                        observe(shared, span, job.session, MSG_REPLICATE, false, started);
                        close = true;
                        break;
                    }
                }
            }
            ClientMsg::ReplAck { .. } => {
                replies.push(error_body(
                    ErrorCode::BadState,
                    "REPL_ACK outside a replication stream",
                ));
                close = true;
                break;
            }
            ClientMsg::Bye => {
                replies.push(ServerMsg::ByeOk.encode());
                close = true;
                break;
            }
        }
    }
    // Worker threads are reused across sessions; never leak a span into
    // the next job.
    set_current_span(None);
    JobDone {
        token: job.token,
        hello,
        replies,
        repl,
        push,
        close,
    }
}

/// A granted replication stream: the encoded `REPL_OK` reply plus the
/// push source feeding the session, or the typed refusal to send back.
type ReplGrant = Result<(Vec<u8>, Box<dyn PushSource>), (ErrorCode, String)>;

/// Subscribes a session to the leader's log and builds its push stream:
/// the hub admits the position, the cursor opens the log, and the
/// `REPL_OK` reply carries the leader's record count. Any failure after
/// the subscription unsubscribes before reporting, so a refused stream
/// leaks nothing.
fn setup_replication<S>(shared: &Shared<S>, session: u64, start: u64) -> ReplGrant
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let Backend::Durable(d) = &shared.backend else {
        return Err((
            ErrorCode::ReplUnavailable,
            "replication requires a durable backend (no write-ahead log to stream)".to_string(),
        ));
    };
    let Some(hub) = d.repl_hub() else {
        return Err((
            ErrorCode::ReplUnavailable,
            "replication hub unavailable: the store could not state its log".to_string(),
        ));
    };
    hub.subscribe(session, start)
        .map_err(|detail| (ErrorCode::ReplUnavailable, detail))?;
    match ReplCursor::new(Arc::clone(hub), session, d.dir(), start) {
        Ok(cursor) => {
            let reply = ServerMsg::ReplOk {
                start,
                leader_records: hub.records(),
            }
            .encode();
            Ok((reply, Box::new(cursor)))
        }
        Err(e) => {
            hub.unsubscribe(session);
            Err((
                ErrorCode::Internal,
                format!("opening a log cursor for the stream failed: {e}"),
            ))
        }
    }
}

/// Assembles the STATUS reply from the server counters, the backend's
/// published snapshot (no refresh — probing must stay cheap), and the
/// durable layer's progress.
fn build_status<S>(shared: &Shared<S>, verbose: bool) -> Result<StatusReply, RemoteError>
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let (metrics, health) = if verbose {
        let snap = shared.registry.snapshot();
        let report = evaluate(&snap, &shared.health);
        (Some(snap), Some(report))
    } else {
        (None, None)
    };
    Ok(StatusReply {
        sessions: shared.obs.sessions_closed.get(),
        frames_absorbed: shared.obs.frames_absorbed.get(),
        frames_rejected: shared.obs.frames_rejected.get(),
        num_reports: shared.backend.num_reports(),
        snapshot_version: match &shared.backend {
            Backend::Plain(s) => s.snapshot().version(),
            Backend::Windowed(s) => s.snapshot().version(),
            Backend::Durable(d) => d.snapshot().version(),
        },
        current_epoch: shared.backend.current_epoch(),
        durable: shared.backend.durable_progress()?,
        // The metrics and health sections ride along only on request, so
        // the plain probe's bytes stay identical to the legacy protocol.
        // Health is judged on the same frozen snapshot that is shipped,
        // so the verdict and its evidence can never disagree.
        metrics,
        health,
    })
}

fn validate_hello<S>(hello: &Hello, backend: &Backend<S>) -> Result<(), (ErrorCode, String)>
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    if hello.kind != S::Report::KIND {
        return Err((
            ErrorCode::KindMismatch,
            format!(
                "server aggregates kind {}, client proposed kind {}",
                S::Report::KIND,
                hello.kind
            ),
        ));
    }
    if hello.windowed != backend.windowed() {
        return Err((
            ErrorCode::EpochModeMismatch,
            format!(
                "server is {}, client proposed {}",
                if backend.windowed() {
                    "windowed"
                } else {
                    "unwindowed"
                },
                if hello.windowed {
                    "windowed"
                } else {
                    "unwindowed"
                },
            ),
        ));
    }
    if hello.wire_version == WIRE_EPOCH && !backend.windowed() {
        return Err((
            ErrorCode::WireVersionMismatch,
            "epoch-tagged frames (wire v2) against an unwindowed service".to_string(),
        ));
    }
    debug_assert!(hello.wire_version == WIRE_V1 || hello.wire_version == WIRE_EPOCH);
    Ok(())
}
