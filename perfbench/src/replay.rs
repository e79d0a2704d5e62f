//! The stage replay of a traced run: the workload's own inputs pushed
//! through each layer's public functions in-process, one layer at a time,
//! each call wrapped in a span and timed.

use std::time::{Duration, Instant};

use ldp_ranges::PersistableServer;
use ldp_service::net::WIRE_V1;
use ldp_service::obs::instruments::names;
use ldp_service::wire::WireReport;
use ldp_service::{
    decode_epoch_frame, LdpService, RangeSnapshot, RegistrySnapshot, SnapshotSource,
};

use crate::common::Ask;
use crate::metrics::Outcome;
use crate::stats::{median, ns_since, Latencies};
use crate::trace::SpanBuf;

/// Per-measurement time budget of the replay's repeated calls.
pub const BUDGET: Duration = Duration::from_millis(300);

/// Runs `f` repeatedly (at least 3 and at most `max_reps` times, stopping
/// once `BUDGET` is spent) inside spans named `name`; returns the median
/// call time in nanoseconds.
pub fn repeat(
    spans: &mut SpanBuf,
    parent: u64,
    name: &'static str,
    max_reps: usize,
    mut f: impl FnMut(),
) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || (times.len() < max_reps && started.elapsed() < BUDGET) {
        let open = spans.begin(name, parent, times.len() as u64);
        let t = Instant::now();
        f();
        times.push(ns_since(t) as f64);
        spans.end(open);
    }
    median(&times)
}

/// Decodes back-to-back frames of either wire version.
///
/// # Errors
///
/// A malformed frame.
pub fn decode_frames<R: WireReport>(version: u8, mut bytes: &[u8]) -> Result<Vec<R>, String> {
    if version == WIRE_V1 {
        return ldp_service::decode_all::<R>(bytes).map_err(|e| format!("decode: {e}"));
    }
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let (_, report, used) =
            decode_epoch_frame::<R>(bytes).map_err(|e| format!("decode: {e}"))?;
        out.push(report);
        bytes = &bytes[used..];
    }
    Ok(out)
}

/// Times encode, decode, absorb, merge, subtract, estimate, freeze and
/// answer over one stream of the workload and records the `core.*`,
/// `wire.*` and `snapshot.*` metrics. Returns the filled state.
///
/// `encode(i)` must run the mechanism's client on the i-th input value.
///
/// # Errors
///
/// Decode or absorb failures.
#[allow(clippy::too_many_arguments)]
pub fn core_layers<S>(
    spans: &mut SpanBuf,
    out: &mut Outcome,
    prototype: &S,
    version: u8,
    frames: &[u8],
    count: usize,
    asks: &[Ask],
    mut encode: impl FnMut(usize),
) -> Result<S, String>
where
    S: SnapshotSource + PersistableServer,
    S::Report: WireReport,
{
    let root = spans.begin("bench.replay_core", 0, 0);
    let encode_n = count.min(1 << 16);
    let t = Instant::now();
    spans.span("core.encode", root.id(), 0, || {
        (0..encode_n).for_each(&mut encode)
    });
    out.set(
        "core.encode_ns_per_report",
        ns_since(t) as f64 / encode_n as f64,
    );

    let t = Instant::now();
    let reports = spans.span("wire.decode", root.id(), 0, || {
        decode_frames::<S::Report>(version, frames)
    })?;
    out.set(
        "wire.decode_ns_per_report",
        ns_since(t) as f64 / count as f64,
    );
    out.set("wire.bytes_per_report", frames.len() as f64 / count as f64);

    let mut state = prototype.clone();
    let t = Instant::now();
    spans.span("core.absorb", root.id(), 0, || {
        reports
            .iter()
            .try_for_each(|r| state.absorb(r).map_err(|e| format!("absorb: {e}")))
    })?;
    out.set(
        "core.absorb_ns_per_report",
        ns_since(t) as f64 / count as f64,
    );

    let mut scratch = state.clone();
    let (mut merges, mut subtracts) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while merges.len() < 3 || (merges.len() < 200 && started.elapsed() < BUDGET) {
        let t = Instant::now();
        spans
            .span("core.merge", root.id(), merges.len() as u64, || {
                scratch.merge(&state)
            })
            .map_err(|e| format!("merge: {e}"))?;
        merges.push(ns_since(t) as f64);
        let t = Instant::now();
        spans
            .span("core.subtract", root.id(), subtracts.len() as u64, || {
                scratch.subtract(&state)
            })
            .map_err(|e| format!("subtract: {e}"))?;
        subtracts.push(ns_since(t) as f64);
    }
    out.set("core.merge_us", median(&merges) / 1e3);
    out.set("core.subtract_us", median(&subtracts) / 1e3);

    let est = repeat(spans, root.id(), "core.estimate", 200, || {
        std::hint::black_box(state.frequency_estimate());
    });
    out.set("core.estimate_us", est / 1e3);
    let freeze = repeat(spans, root.id(), "snapshot.freeze", 200, || {
        std::hint::black_box(RangeSnapshot::freeze(&state, 1));
    });
    out.set("snapshot.freeze_us", freeze / 1e3);
    let snap = RangeSnapshot::freeze(&state, 1);
    let answer = repeat(spans, root.id(), "snapshot.answer", 500, || {
        for ask in asks {
            match *ask {
                Ask::Range(a, b) => std::hint::black_box(snap.range(a as usize, b as usize)),
                Ask::Quantile(phi) => std::hint::black_box(snap.quantile(phi) as f64),
            };
        }
    });
    out.set("snapshot.answer_ns", answer / asks.len().max(1) as f64);
    spans.end(root);
    Ok(state)
}

/// Refreshes after every `per_refresh` submitted batches, `refreshes`
/// times, and records `service.refresh_p50_us` / `service.refresh_p99_us`.
///
/// # Errors
///
/// Submit or refresh failures.
pub fn refresh_pattern(
    spans: &mut SpanBuf,
    out: &mut Outcome,
    per_refresh: usize,
    refreshes: usize,
    mut submit: impl FnMut(usize) -> Result<(), String>,
    mut refresh: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let root = spans.begin("bench.replay_refresh", 0, 0);
    let mut lat = Latencies::default();
    let mut batch = 0;
    for i in 0..refreshes {
        for _ in 0..per_refresh {
            spans.span("service.submit", root.id(), batch as u64, || submit(batch))?;
            batch += 1;
        }
        let t = Instant::now();
        spans.span("service.refresh", root.id(), i as u64, &mut refresh)?;
        lat.push(ns_since(t));
    }
    out.set("service.refresh_p50_us", lat.quantile_us(0.5));
    out.set("service.refresh_p99_us", lat.quantile_us(0.99));
    spans.end(root);
    Ok(())
}

/// Records the per-layer values the server's own registry counted during
/// the socket run, and the failure ratio.
pub fn registry_metrics(out: &mut Outcome, telemetry: &RegistrySnapshot) {
    let counter = |name| telemetry.counter(name).unwrap_or(0) as f64;
    let gauge = |name| telemetry.gauge(name).unwrap_or(0) as f64;
    out.set(
        "service.refreshes_delta",
        counter(names::SERVICE_REFRESHES_DELTA),
    );
    out.set(
        "service.refreshes_full",
        counter(names::SERVICE_REFRESHES_FULL),
    );
    out.set("net.frames_rejected", counter(names::NET_FRAMES_REJECTED));
    out.set("net.queue_depth_hw", gauge(names::NET_QUEUE_DEPTH_HW));
    out.set("storage.wedged", gauge(names::STORAGE_WEDGED));
    let report_p99 = telemetry
        .histo(names::NET_REPORT_NS)
        .map_or(0, |h| h.quantile_bound(0.99));
    out.set("net.report_ns_p99", report_p99 as f64);
    out.set("op_failure_ratio", out.failure_ratio());
}

/// Times `LdpService::submit_wire_batch` over `batches` on a fresh plain
/// service (`service.submit_ns_per_report`), then refreshes a second
/// fresh service after every `per_refresh` batches.
///
/// # Errors
///
/// Submit or refresh failures.
pub fn plain_service<S>(
    spans: &mut SpanBuf,
    out: &mut Outcome,
    prototype: &S,
    shards: usize,
    batches: &[(u64, &[u8])],
    per_refresh: usize,
) -> Result<(), String>
where
    S: SnapshotSource,
    S::Report: WireReport,
{
    let root = spans.begin("bench.replay_service", 0, 0);
    let service = LdpService::new(prototype, shards).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for (i, (count, frames)) in batches.iter().enumerate() {
        spans
            .span("service.submit", root.id(), i as u64, || {
                service.submit_wire_batch(WIRE_V1, *count, frames)
            })
            .map_err(|e| e.to_string())?;
    }
    let reports: u64 = batches.iter().map(|b| b.0).sum();
    out.set(
        "service.submit_ns_per_report",
        ns_since(t) as f64 / reports as f64,
    );
    spans.end(root);

    let fresh = LdpService::new(prototype, shards).map_err(|e| e.to_string())?;
    refresh_pattern(
        spans,
        out,
        per_refresh,
        (batches.len() / per_refresh).clamp(20, 400),
        |b| {
            let (count, frames) = batches[b % batches.len()];
            fresh
                .submit_wire_batch(WIRE_V1, count, frames)
                .map(|_| ())
                .map_err(|e| e.to_string())
        },
        || {
            fresh
                .refresh_snapshot()
                .map(|_| ())
                .map_err(|e| e.to_string())
        },
    )
}

/// Splits a stream into batches of `batch` frames: `(count, frames)`.
#[must_use]
pub fn batches(stream: &ldp_service::EncodedStream, batch: usize) -> Vec<(u64, &[u8])> {
    (0..stream.len().div_ceil(batch))
        .map(|b| crate::socket::batch(stream, b, batch))
        .collect()
}

/// Sets every per-layer metric a workload leaves unexercised to 0.
pub fn zero_unset(out: &mut Outcome) {
    for (name, _, _) in crate::metrics::PER_LAYER {
        out.values.entry(name).or_insert(0.0);
    }
}

/// Records the trace summary: self time per layer, the tracing overhead
/// (span cost over the socket time the spans wrap) and the residual (the
/// share of socket time that no in-process layer call accounts for).
pub fn trace_summary(out: &mut Outcome, socket_ns: f64, covered_ns: f64, socket_spans: usize) {
    let by_layer = crate::trace::self_time_by_layer(&out.spans);
    for layer in crate::metrics::TRACED_LAYERS {
        let key = format!("trace.self_ms.{layer}");
        let Some((name, _, _)) = crate::metrics::PER_LAYER.iter().find(|(n, _, _)| *n == key)
        else {
            continue;
        };
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        out.set(name, ns as f64 / 1e6);
    }
    let cost = crate::trace::span_cost_ns();
    out.set(
        "trace.overhead_share",
        cost * socket_spans as f64 / socket_ns.max(1.0),
    );
    out.set(
        "trace.residual_share",
        (1.0 - covered_ns / socket_ns.max(1.0)).max(0.0),
    );
}
