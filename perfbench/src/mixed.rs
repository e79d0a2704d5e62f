//! `hh_mixed_inmem`: `HH_4`/OUE on a plain in-memory server (2 shards, 2
//! workers). One closed-loop session ingests at full speed while one
//! closed-loop analyst runs range and quantile queries, each of which
//! refreshes a snapshot with every shard dirty.

use std::sync::Arc;
use std::time::Instant;

use ldp_ranges::HhReport;
use ldp_ranges::HhServer;
use ldp_service::net::{Hello, NetConfig};
use ldp_service::{LdpServer, LdpService, MetricsRegistry};

use crate::common::{self, check_identical, state_bytes, RunConfig, Scale, Truth};
use crate::hh::{self, HhInputs};
use crate::metrics::Outcome;
use crate::replay;
use crate::socket::{self, Until};
use crate::trace::SpanBuf;

/// Frames per REPORT batch.
pub const BATCH: usize = 256;
/// Latency quantiles are medians over slices of this length.
const SLICE_NS: u64 = 1_000_000_000;
/// Shards and session workers.
pub const SHARDS: usize = 2;

struct Ready {
    inputs: HhInputs,
    service: Arc<LdpService<HhServer>>,
    server: LdpServer<HhServer>,
}

fn setup(seed: u64, reports: u64) -> Result<Ready, String> {
    let inputs = hh::inputs(seed, 1, reports);
    let service = Arc::new(LdpService::new(&inputs.prototype, SHARDS).map_err(|e| e.to_string())?);
    let server = LdpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            workers: SHARDS,
            registry: Some(Arc::new(MetricsRegistry::new())),
            ..NetConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    Ok(Ready {
        inputs,
        service,
        server,
    })
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up and transport failures, and every failed correctness check.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let (reports, num_queries) = match cfg.scale {
        Scale::Full => (1u64 << 19, 400),
        Scale::Tiny => (1 << 12, 40),
    };
    let mut out = Outcome::default();
    cfg.stamp(&mut out);
    out.stamp("mechanism", "HH_4/OUE, eps=ln3, Cauchy population");
    out.stamp("backend", "plain in-memory LdpServer::bind");
    out.stamp("sizes", format!(
        "domain={} shards={SHARDS} workers={SHARDS} batch={BATCH} stream={reports} reports (replayed cyclically) queries={num_queries} (1 quantile in 4)",
        hh::DOMAIN
    ));
    out.stamp("sessions", "1 closed-loop ingest + 1 closed-loop analyst");
    out.stamp("fsync", "none (in-memory)");

    let Ready {
        inputs,
        service,
        server,
    } = common::timed_setups(
        &mut out,
        || setup(cfg.seed, reports),
        |r| {
            let _ = r.server.shutdown();
        },
    )?;
    let asks = common::query_set(hh::DOMAIN, num_queries, 4, cfg.seed);
    let queries: Vec<_> = asks.iter().map(|a| socket::to_query(*a, None)).collect();

    let origin = Instant::now();
    let spans = SpanBuf::new(cfg.trace, origin, 0);
    let addr = server.local_addr();
    let stream = &inputs.streams[0];
    let deadline = Instant::now() + cfg.seconds;
    let report_faults = if cfg.inject_faults {
        vec![socket::MALFORMED_BATCH]
    } else {
        Vec::new()
    };
    let query_faults = if cfg.inject_faults {
        vec![socket::out_of_domain_query()]
    } else {
        Vec::new()
    };
    out.stamp(
        "rss_timed_start_mib",
        format!("{:.1}", common::reset_rss_peak()),
    );
    let (ingest, analyst) = socket::run_pair(
        || {
            let mut client = socket::connect(addr, Hello::plain::<HhReport>())?;
            let log = socket::closed_loop_ingest(
                &mut client,
                stream,
                BATCH,
                &report_faults,
                Until::Deadline(deadline),
                SLICE_NS,
                spans.fork(1),
            )?;
            client.bye().map_err(|e| format!("bye: {e}"))?;
            Ok(log)
        },
        || {
            let mut client = socket::connect(addr, Hello::plain::<HhReport>())?;
            let log = socket::closed_loop_queries(
                &mut client,
                &query_faults,
                &queries,
                Until::Deadline(deadline),
                SLICE_NS,
                spans.fork(2),
            )?;
            client.bye().map_err(|e| format!("bye: {e}"))?;
            Ok(log)
        },
    )?;
    out.set("rss_peak_mib", common::rss_peak_mib());
    out.attempted = ingest.attempted + analyst.attempted;
    out.failed = ingest.failed + analyst.failed;

    // Correctness: the server state must equal an in-process replay of the
    // acked frames, and its answers must meet Theorem 4.3. The replay is
    // whole cycles of the stream plus the sent prefix, less the refused
    // batches.
    let per_cycle = stream.len().div_ceil(BATCH) as u64;
    let (cycles, rest) = (ingest.sent / per_cycle, ingest.sent % per_cycle);
    let prefix = (rest as usize * BATCH).min(stream.len());
    let mut one_cycle = inputs.prototype.clone();
    hh::absorb_frames(&mut one_cycle, stream.as_bytes())?;
    let mut reference = inputs.prototype.clone();
    for _ in 0..cycles {
        reference.merge(&one_cycle).map_err(|e| e.to_string())?;
    }
    hh::absorb_frames(&mut reference, stream.frame_span(0, prefix))?;
    let mut refused_counts = vec![0u64; hh::DOMAIN];
    for &i in &ingest.refused {
        let b = (i % per_cycle) as usize;
        let mut lost = inputs.prototype.clone();
        hh::absorb_frames(&mut lost, socket::batch(stream, b, BATCH).1)?;
        reference.subtract(&lost).map_err(|e| e.to_string())?;
        let hi = ((b + 1) * BATCH).min(stream.len());
        for &v in &inputs.values[0][b * BATCH..hi] {
            refused_counts[usize::from(v)] += 1;
        }
    }
    let served = service.merged_state().map_err(|e| e.to_string())?;
    check_identical(
        "server state vs in-process replay",
        &state_bytes(&served),
        &state_bytes(&reference),
    )?;
    let cycle_counts = Truth::count(hh::DOMAIN, &inputs.values[0]);
    let prefix_counts = Truth::count(hh::DOMAIN, &inputs.values[0][..prefix]);
    let truth = Truth::new(
        cycle_counts
            .iter()
            .zip(&prefix_counts)
            .zip(&refused_counts)
            .map(|((c, p), r)| c * cycles + p - r)
            .collect(),
    );
    let snap = service.refresh_snapshot().map_err(|e| e.to_string())?;
    // Cycles repeat the same reports, so their noise does not average
    // out: the error is that of the distinct reports.
    let n = snap.num_reports().min(stream.len() as u64);
    let ratio = common::check_accuracy("final snapshot", &snap, &truth, &asks, |r| {
        hh::range_bound(n, r)
    })?;
    out.stamp("accuracy_error_over_bound", format!("{ratio:.4}"));

    out.set(
        "ingest_reports_per_s",
        ingest.per_second.rate(ingest.elapsed),
    );
    out.set("ingest_ack_p50_us", ingest.acks.sliced_us(0.5, 100));
    out.set("ingest_ack_p99_us", ingest.acks.sliced_us(0.99, 100));
    out.set("query_p50_us", analyst.plain.sliced_us(0.5, 100));
    out.set("query_p99_us", analyst.plain.sliced_us(0.99, 100));
    out.set("queries_per_s", analyst.per_second.rate(analyst.elapsed));
    out.stamp(
        "samples",
        format!("acks={} queries={}", ingest.acks.len(), analyst.plain.len()),
    );

    if cfg.trace {
        replay::registry_metrics(&mut out, &server.registry().snapshot());
        let mut spans = spans;
        spans.absorb(ingest.spans);
        spans.absorb(analyst.spans);
        let socket_spans = spans.spans().len();
        let socket_ns = (ingest.acks.total_ns() + analyst.plain.total_ns()) as f64;
        let ack_p50_ns = out.values["ingest_ack_p50_us"] * 1e3;
        let query_p50_us = out.values["query_p50_us"];
        let per_refresh = (ingest.sent / analyst.plain.len().max(1) as u64).max(1) as usize;
        stage_replay(&mut spans, &mut out, &inputs, &asks, per_refresh)?;
        let submit = out.values["service.submit_ns_per_report"];
        let refresh_us = out.values["service.refresh_p50_us"];
        let answer_us = out.values["snapshot.answer_ns"] / 1e3;
        out.set(
            "net.report_residual_ns_per_report",
            ack_p50_ns / BATCH as f64 - submit,
        );
        out.set(
            "net.query_residual_us",
            query_p50_us - refresh_us - answer_us,
        );
        let covered = ingest.reports as f64 * submit
            + analyst.plain.len() as f64 * (refresh_us + answer_us) * 1e3;
        out.spans = spans.spans().to_vec();
        replay::trace_summary(&mut out, socket_ns, covered, socket_spans);
        replay::zero_unset(&mut out);
    }
    let stats = server.shutdown();
    if stats.frames_absorbed != ingest.reports {
        return Err(format!(
            "server absorbed {} frames, clients saw {} acked",
            stats.frames_absorbed, ingest.reports
        ));
    }
    Ok(out)
}

fn stage_replay(
    spans: &mut SpanBuf,
    out: &mut Outcome,
    inputs: &HhInputs,
    asks: &[common::Ask],
    per_refresh: usize,
) -> Result<(), String> {
    hh::replay_core(spans, out, inputs, asks)?;
    let batches = replay::batches(&inputs.streams[0], BATCH);
    replay::plain_service(spans, out, &inputs.prototype, SHARDS, &batches, per_refresh)
}
