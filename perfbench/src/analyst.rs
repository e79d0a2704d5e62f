//! `haar_window_analyst`: `HaarHRR` over D = 2^16 at ε = 0.5 on a
//! windowed in-memory server (2 shards, 2 workers, window of 8 epochs)
//! fed by a drifting population.
//!
//! Set-up fills the window over the socket. Then one open-loop session
//! sends 256-frame batches on a fixed schedule and SEALs after every
//! epoch's last batch, while one closed-loop analyst cycles through an
//! unwindowed range query, a windowed (k = 8) range query, a windowed
//! (k = 1) quantile query and another windowed (k = 8) range query.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ldp_freq_oracle::{frequency_oracle_variance, Epsilon, Hrr, PointOracle};
use ldp_ranges::{theory, HaarConfig, HaarHrrClient, HaarHrrReport, HaarHrrServer};
use ldp_service::net::{Hello, NetConfig, Query, WIRE_EPOCH};
use ldp_service::{
    generate_drifting_epochs, EncodedStream, EpochRing, LdpClient, LdpServer, LdpService,
    MetricsRegistry, RangeSnapshot,
};
use ldp_workloads::{CauchyParams, Dataset, DistributionKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{
    self, check_identical, check_same_estimate, state_bytes, Ask, RunConfig, Scale, Truth,
};
use crate::metrics::Outcome;
use crate::replay;
use crate::socket::{self, Until};
use crate::stats::{median, ns_since, Latencies};
use crate::trace::SpanBuf;

/// Frames per REPORT batch.
pub const BATCH: usize = 256;
/// Shards and session workers.
pub const SHARDS: usize = 2;
/// Sealed epochs the window retains.
pub const WINDOW: usize = 8;
/// log2 of the domain.
pub const HEIGHT: u32 = 16;
/// Privacy budget.
pub const EPSILON: f64 = 0.5;
/// Latency quantiles are medians over slices of this length.
const SLICE_NS: u64 = 2_000_000_000;
/// Most epochs encoded for the timed phase, whatever `--seconds` asks.
const MAX_TIMED_EPOCHS: usize = 128;

/// Sizes that depend on the scale.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Reports per epoch (a whole number of batches).
    epoch: u64,
    /// Open-loop ingest rate in reports per second.
    rate: f64,
    /// Domain size.
    domain: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            epoch: 100 * BATCH as u64,
            rate: 51_200.0,
            domain: 1 << HEIGHT,
        },
        Scale::Tiny => Sizes {
            epoch: 4 * BATCH as u64,
            rate: 8_192.0,
            domain: 1 << 10,
        },
    }
}

struct Inputs {
    client: HaarHrrClient,
    prototype: HaarHrrServer,
    /// One stream per epoch, frames tagged with the epoch id.
    epochs: Vec<EncodedStream>,
    /// The value behind each frame, per epoch.
    values: Vec<Vec<u16>>,
}

fn inputs(seed: u64, sizes: Sizes, epochs: usize) -> Inputs {
    let config = HaarConfig::new(sizes.domain, Epsilon::new(EPSILON)).expect("valid Haar config");
    let client = HaarHrrClient::new(config.clone()).expect("client");
    let prototype = HaarHrrServer::new(config).expect("server");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut population = |center| {
        Dataset::sample(
            DistributionKind::Cauchy(CauchyParams::centered_at(center)),
            sizes.domain,
            1 << 22,
            &mut rng,
        )
    };
    let (from, to) = (population(0.3), population(0.7));
    let mut values: Vec<Vec<u16>> = vec![Vec::with_capacity(sizes.epoch as usize); epochs];
    let mut n = 0u64;
    let streams = generate_drifting_epochs(
        &from,
        &to,
        epochs,
        sizes.epoch,
        seed.wrapping_mul(17),
        |v, rng| {
            values[(n / sizes.epoch) as usize].push(v as u16);
            n += 1;
            client.report(v, rng).expect("in-domain value")
        },
    );
    Inputs {
        client,
        prototype,
        epochs: streams,
        values,
    }
}

struct Ready {
    inputs: Inputs,
    service: Arc<LdpService<EpochRing<HaarHrrServer>>>,
    server: LdpServer<HaarHrrServer>,
    state_mib: f64,
}

/// Encodes the inputs, binds the windowed server and fills the window over
/// the socket.
fn setup(seed: u64, sizes: Sizes, epochs: usize) -> Result<Ready, String> {
    let inputs = inputs(seed, sizes, epochs);
    let rss_before = common::rss_mib();
    let service = Arc::new(
        LdpService::windowed(&inputs.prototype, SHARDS, WINDOW).map_err(|e| e.to_string())?,
    );
    let server = LdpServer::bind_windowed(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            workers: SHARDS,
            registry: Some(Arc::new(MetricsRegistry::new())),
            ..NetConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let mut client = LdpClient::connect(server.local_addr(), Hello::windowed::<HaarHrrReport>())
        .map_err(|e| format!("connect: {e}"))?;
    for stream in &inputs.epochs[..WINDOW] {
        for b in 0..stream.len().div_ceil(BATCH) {
            let (count, frames) = socket::batch(stream, b, BATCH);
            client
                .send_batch(count, frames)
                .map_err(|e| format!("fill: {e}"))?;
        }
        client.seal_epoch().map_err(|e| format!("fill seal: {e}"))?;
    }
    client.bye().map_err(|e| format!("bye: {e}"))?;
    service.refresh_snapshot().map_err(|e| e.to_string())?;
    let state_mib = common::rss_mib() - rss_before;
    Ok(Ready {
        inputs,
        service,
        server,
        state_mib,
    })
}

/// What the open-loop session did.
struct OpenLoopLog {
    /// The REPORT batches, acks timed from when each was due. Timed batch
    /// `i` of the run is batch `i mod batches_per_epoch` of timed epoch
    /// `WINDOW + i / batches_per_epoch`.
    ingest: socket::IngestLog,
    late: Latencies,
    seals: Latencies,
    /// Whether each timed epoch's SEAL was accepted (index 0 is epoch
    /// `WINDOW`).
    sealed: Vec<bool>,
}

/// Sends `faults` (see [`socket::IngestLog::send_faults`]), then every
/// timed epoch's batches on schedule, SEALing after each epoch, until
/// `deadline`. Each ack is timed from when its batch was due.
fn open_loop(
    client: &mut LdpClient,
    inputs: &Inputs,
    sizes: Sizes,
    faults: &[(u64, &[u8])],
    deadline: Instant,
    mut spans: SpanBuf,
) -> Result<OpenLoopLog, String> {
    let interval = Duration::from_secs_f64(BATCH as f64 / sizes.rate);
    let root = spans.begin("bench.open_loop", 0, 0);
    let start = Instant::now();
    let mut log = OpenLoopLog {
        ingest: socket::IngestLog::new(start, SLICE_NS),
        late: Latencies::default(),
        seals: Latencies::default(),
        sealed: Vec::new(),
    };
    log.ingest.send_faults(client, faults)?;
    // The id the next accepted SEAL must return.
    let mut next_seal = WINDOW as u64;
    'epochs: for (e, stream) in inputs.epochs.iter().enumerate().skip(WINDOW) {
        for b in 0..stream.len().div_ceil(BATCH) {
            let due = start + interval * log.ingest.sent as u32;
            if due >= deadline {
                break 'epochs;
            }
            let now = Instant::now();
            if now < due {
                spans.span("loadgen.wait", root.id(), log.ingest.sent, || {
                    std::thread::sleep(due - now)
                });
            }
            log.late.push_at(ns_since(start), ns_since(due));
            log.ingest.send(
                client,
                socket::batch(stream, b, BATCH),
                due,
                start,
                &mut spans,
                root.id(),
            )?;
        }
        let t = Instant::now();
        let open = spans.begin("net.seal", root.id(), e as u64);
        let result = client.seal_epoch();
        spans.end(open);
        let took = ns_since(t);
        let accepted = log.ingest.count(|| format!("SEAL epoch {e}"), result)?;
        if let Some(id) = accepted {
            if id != next_seal {
                return Err(format!("SEAL returned epoch {id}, expected {next_seal}"));
            }
            next_seal += 1;
            log.seals.push(took);
        }
        log.sealed.push(accepted.is_some());
    }
    log.ingest.elapsed = start.elapsed();
    spans.end(root);
    log.ingest.spans = spans;
    Ok(log)
}

/// The analyst's fixed cycle over a pre-drawn query set: an unwindowed
/// range, a windowed (k = 8) range, a windowed (k = 1) quantile and
/// another windowed (k = 8) range.
fn analyst_queries(domain: usize, n: usize, seed: u64) -> Vec<Query> {
    let asks = common::query_set(domain, n, 0, seed);
    let phis = [0.1, 0.25, 0.5, 0.75, 0.9];
    asks.chunks_exact(3)
        .enumerate()
        .flat_map(|(i, c)| {
            [
                socket::to_query(c[0], None),
                socket::to_query(c[1], Some(WINDOW as u64)),
                socket::to_query(Ask::Quantile(phis[i % phis.len()]), Some(1)),
                socket::to_query(c[2], Some(WINDOW as u64)),
            ]
        })
        .collect()
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up and transport failures, and every failed correctness check.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let sizes = sizes(cfg.scale);
    let timed_epochs =
        ((cfg.seconds.as_secs_f64() * sizes.rate / sizes.epoch as f64).ceil() as usize + 1)
            .min(MAX_TIMED_EPOCHS);
    let epochs = WINDOW + timed_epochs;
    let mut out = Outcome::default();
    cfg.stamp(&mut out);
    out.stamp(
        "mechanism",
        format!("HaarHRR, eps={EPSILON}, drifting Cauchy population (0.3 -> 0.7)"),
    );
    out.stamp("backend", "windowed in-memory LdpServer::bind_windowed");
    out.stamp("sizes", format!(
        "domain={} shards={SHARDS} workers={SHARDS} window={WINDOW} batch={BATCH} epoch={} reports ingest_rate={} reports/s epochs_encoded={epochs}",
        sizes.domain, sizes.epoch, sizes.rate
    ));
    out.stamp(
        "sessions",
        "1 open-loop ingest (SEAL after each epoch) + 1 closed-loop analyst",
    );
    out.stamp("fsync", "none (in-memory)");

    let Ready {
        inputs,
        service,
        server,
        state_mib,
    } = common::timed_setups(
        &mut out,
        || setup(cfg.seed, sizes, epochs),
        |r| {
            let _ = r.server.shutdown();
        },
    )?;
    let queries = analyst_queries(sizes.domain, 300, cfg.seed);

    let origin = Instant::now();
    let spans = SpanBuf::new(cfg.trace, origin, 0);
    let addr = server.local_addr();
    let deadline = Instant::now() + cfg.seconds;
    let (report_faults, query_faults) = if cfg.inject_faults {
        // Epoch 0 is sealed: its frames are stale now.
        let stale = socket::batch(&inputs.epochs[0], 0, 1);
        (
            vec![socket::MALFORMED_BATCH, stale],
            vec![socket::out_of_domain_query()],
        )
    } else {
        (Vec::new(), Vec::new())
    };
    out.stamp(
        "rss_timed_start_mib",
        format!("{:.1}", common::reset_rss_peak()),
    );
    let (mut ingest, analyst) = socket::run_pair(
        || {
            let mut client = socket::connect(addr, Hello::windowed::<HaarHrrReport>())?;
            let log = open_loop(
                &mut client,
                &inputs,
                sizes,
                &report_faults,
                deadline,
                spans.fork(1),
            )?;
            client.bye().map_err(|e| format!("bye: {e}"))?;
            Ok(log)
        },
        || {
            let mut client = socket::connect(addr, Hello::windowed::<HaarHrrReport>())?;
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
    out.attempted = ingest.ingest.attempted + analyst.attempted;
    out.failed = ingest.ingest.failed + analyst.failed;

    verify(&mut out, &inputs, &service, &ingest, sizes, cfg.seed)?;

    out.set(
        "ingest_reports_per_s",
        ingest.ingest.reports as f64 / ingest.ingest.elapsed.as_secs_f64(),
    );
    out.set("ingest_ack_p50_us", ingest.ingest.acks.sliced_us(0.5, 100));
    out.set("ingest_ack_p99_us", ingest.ingest.acks.sliced_us(0.99, 100));
    out.set("query_p50_us", analyst.plain.sliced_us(0.5, 50));
    out.set("query_p99_us", analyst.plain.sliced_us(0.99, 50));
    out.set("queries_per_s", analyst.per_second.rate(analyst.elapsed));
    out.set("window.query_p50_us", analyst.windowed.sliced_us(0.5, 50));
    out.set("window.query_p99_us", analyst.windowed.sliced_us(0.99, 50));
    out.set("window.seal_p50_us", ingest.seals.quantile_us(0.5));
    out.set("window.state_mib", state_mib);
    out.set("loadgen.late_p99_us", ingest.late.quantile_us(0.99));
    out.stamp(
        "samples",
        format!(
            "acks={} queries={} window_queries={} seals={}",
            ingest.ingest.acks.len(),
            analyst.plain.len(),
            analyst.windowed.len(),
            ingest.seals.len()
        ),
    );

    if cfg.trace {
        replay::registry_metrics(&mut out, &server.registry().snapshot());
        let mut spans = spans;
        spans.absorb(std::mem::replace(
            &mut ingest.ingest.spans,
            SpanBuf::new(false, origin, 0),
        ));
        spans.absorb(analyst.spans);
        let socket_spans = spans.spans().len();
        let socket_ns = (ingest.ingest.acks.total_ns()
            + ingest.seals.total_ns()
            + analyst.plain.total_ns()
            + analyst.windowed.total_ns()) as f64;
        let per_refresh = (ingest.ingest.sent as usize / analyst.plain.len().max(1)).max(1);
        stage_replay(&mut spans, &mut out, &inputs, sizes, per_refresh)?;
        let submit = out.values["service.submit_ns_per_report"];
        let refresh_us = out.values["service.refresh_p50_us"];
        let answer_us = out.values["snapshot.answer_ns"] / 1e3;
        let window_us =
            (out.values["window.snapshot_k8_us"] + out.values["window.snapshot_k1_us"]) / 2.0;
        out.set(
            "net.report_residual_ns_per_report",
            out.values["ingest_ack_p50_us"] * 1e3 / BATCH as f64 - submit,
        );
        out.set(
            "net.query_residual_us",
            out.values["query_p50_us"] - refresh_us - answer_us,
        );
        let covered = ingest.ingest.reports as f64 * submit
            + (analyst.plain.len() as f64 * (refresh_us + answer_us)
                + analyst.windowed.len() as f64 * (window_us + answer_us)
                + ingest.seals.len() as f64 * out.values["window.seal_us"])
                * 1e3;
        out.spans = spans.spans().to_vec();
        replay::trace_summary(&mut out, socket_ns, covered, socket_spans);
        replay::zero_unset(&mut out);
    }
    let _ = server.shutdown();
    Ok(out)
}

/// Batch indices of epoch `e` the server acked.
fn acked_batches(inputs: &Inputs, log: &OpenLoopLog, e: usize) -> Vec<usize> {
    let batches = inputs.epochs[e].len().div_ceil(BATCH);
    if e < WINDOW {
        return (0..batches).collect();
    }
    let first = ((e - WINDOW) * batches) as u64;
    (0..batches)
        .filter(|&b| log.ingest.acked(first + b as u64))
        .collect()
}

/// The correctness gate: server state ≡ an in-process replay of the acked
/// frames and seals; the final window ≡ a scratch merge of the epochs it
/// covers; and the window's range error within Eq. 3.
fn verify(
    out: &mut Outcome,
    inputs: &Inputs,
    service: &LdpService<EpochRing<HaarHrrServer>>,
    log: &OpenLoopLog,
    sizes: Sizes,
    seed: u64,
) -> Result<(), String> {
    let batches_per_epoch = sizes.epoch as usize / BATCH;
    let touched = WINDOW + (log.ingest.sent as usize).div_ceil(batches_per_epoch);
    // Epoch ids the ring seals: every fill epoch, then one per accepted
    // SEAL. A frame reaches the ring only while its tagged epoch is open.
    let sealed = WINDOW + log.sealed.iter().filter(|&&s| s).count();
    let first = sealed - WINDOW;
    let mut ring = EpochRing::new(&inputs.prototype, WINDOW).map_err(|e| e.to_string())?;
    let mut merged = inputs.prototype.clone();
    let mut counts = vec![0u64; sizes.domain];
    for e in 0..touched {
        let stream = &inputs.epochs[e];
        let in_window = (first..sealed).contains(&e);
        for b in acked_batches(inputs, log, e) {
            let frames = socket::batch(stream, b, BATCH).1;
            for r in replay::decode_frames::<HaarHrrReport>(WIRE_EPOCH, frames)? {
                ring.absorb_tagged(Some(e as u64), &r)
                    .map_err(|err| err.to_string())?;
                if in_window {
                    merged.absorb(&r).map_err(|err| err.to_string())?;
                }
            }
            if in_window {
                let hi = ((b + 1) * BATCH).min(stream.len());
                for &v in &inputs.values[e][b * BATCH..hi] {
                    counts[usize::from(v)] += 1;
                }
            }
        }
        if e < WINDOW || log.sealed.get(e - WINDOW) == Some(&true) {
            ring.seal_epoch().map_err(|err| err.to_string())?;
        }
    }
    let served = service.merged_state().map_err(|e| e.to_string())?;
    check_identical(
        "server ring vs in-process replay",
        &state_bytes(&served),
        &state_bytes(&ring),
    )?;

    let window = service.window_snapshot(WINDOW).map_err(|e| e.to_string())?;
    if (window.first_epoch(), window.last_epoch()) != (first as u64, sealed as u64 - 1) {
        return Err(format!(
            "window covers epochs {}..={}, expected {first}..={}",
            window.first_epoch(),
            window.last_epoch(),
            sealed - 1
        ));
    }
    let scratch = RangeSnapshot::freeze(&merged, 0);
    check_same_estimate("final window vs scratch merge", window.snapshot(), &scratch)?;

    let n = window.num_reports();
    let bound = theory::haar_range_variance_bound(
        frequency_oracle_variance(Epsilon::new(EPSILON), n),
        sizes.domain,
    );
    let asks = common::query_set(sizes.domain, 300, 0, seed);
    let ratio = common::check_accuracy(
        "final window",
        window.snapshot(),
        &Truth::new(counts),
        &asks,
        |_| bound,
    )?;
    out.stamp("accuracy_error_over_bound", format!("{ratio:.4}"));
    Ok(())
}

fn stage_replay(
    spans: &mut SpanBuf,
    out: &mut Outcome,
    inputs: &Inputs,
    sizes: Sizes,
    per_refresh: usize,
) -> Result<(), String> {
    let stream = &inputs.epochs[0];
    let values = &inputs.values[0];
    let asks = common::query_set(sizes.domain, 300, 4, 7);
    let mut rng = StdRng::seed_from_u64(1);
    replay::core_layers(
        spans,
        out,
        &inputs.prototype,
        WIRE_EPOCH,
        stream.as_bytes(),
        stream.len(),
        &asks,
        |i| {
            std::hint::black_box(inputs.client.report(usize::from(values[i]), &mut rng).ok());
        },
    )?;

    // Transforms and the frequency oracle at the workload's domain.
    let root = spans.begin("bench.replay_kernels", 0, 0);
    let height = sizes.domain.trailing_zeros();
    let mut levels: Vec<Vec<f64>> = (0..height).map(|d| vec![1.0; 1 << d]).collect();
    let fwht = replay::repeat(spans, root.id(), "transforms.fwht_inverse", 200, || {
        for level in &mut levels {
            ldp_transforms::fwht_inverse(level);
        }
    });
    out.set("transforms.fwht_inverse_us", fwht / 1e3);
    let coeffs = vec![0.5; sizes.domain];
    let haar = replay::repeat(spans, root.id(), "transforms.haar_inverse", 200, || {
        std::hint::black_box(ldp_transforms::haar_inverse(&coeffs));
    });
    out.set("transforms.haar_inverse_us", haar / 1e3);
    let eps = Epsilon::new(EPSILON);
    let mut oracles: Vec<Hrr> = (0..height)
        .map(|d| Hrr::new(1 << d, eps).expect("oracle"))
        .collect();
    for r in replay::decode_frames::<HaarHrrReport>(WIRE_EPOCH, stream.as_bytes())? {
        oracles[r.depth() as usize]
            .absorb(&r.inner())
            .map_err(|e| e.to_string())?;
    }
    let hrr = replay::repeat(spans, root.id(), "freq_oracle.hrr_estimate", 200, || {
        for o in &oracles {
            std::hint::black_box(o.estimate());
        }
    });
    out.set("freq_oracle.hrr_estimate_us", hrr / 1e3);
    spans.end(root);

    // Service ingest, refresh, seal and window snapshots over the fill
    // epochs.
    let root = spans.begin("bench.replay_service", 0, 0);
    let service =
        LdpService::windowed(&inputs.prototype, SHARDS, WINDOW).map_err(|e| e.to_string())?;
    let mut seals = Vec::new();
    let mut submit_ns = 0u64;
    let mut submitted = 0u64;
    for (e, stream) in inputs.epochs[..WINDOW].iter().enumerate() {
        let t = Instant::now();
        for b in 0..stream.len().div_ceil(BATCH) {
            let (count, frames) = socket::batch(stream, b, BATCH);
            spans
                .span("service.submit", root.id(), b as u64, || {
                    service.submit_epoch_wire_batch(WIRE_EPOCH, count, frames)
                })
                .map_err(|err| err.to_string())?;
        }
        submit_ns += ns_since(t);
        submitted += stream.len() as u64;
        let t = Instant::now();
        spans
            .span("window.seal", root.id(), e as u64, || service.seal_epoch())
            .map_err(|err| err.to_string())?;
        seals.push(ns_since(t) as f64);
    }
    out.set(
        "service.submit_ns_per_report",
        submit_ns as f64 / submitted as f64,
    );
    out.set("window.seal_us", median(&seals) / 1e3);
    for (k, name, key) in [
        (WINDOW, "window.snapshot_k8", "window.snapshot_k8_us"),
        (1, "window.snapshot_k1", "window.snapshot_k1_us"),
    ] {
        let ns = replay::repeat(spans, root.id(), name, 100, || {
            std::hint::black_box(service.window_snapshot(k).ok());
        });
        out.set(key, ns / 1e3);
    }
    spans.end(root);

    // Refresh under the workload's submit/refresh pattern, over the open
    // epoch that follows the fill.
    let next = &inputs.epochs[WINDOW];
    let batches = next.len().div_ceil(BATCH);
    let refreshes = (batches / per_refresh).clamp(10, 100);
    replay::refresh_pattern(
        spans,
        out,
        per_refresh,
        refreshes,
        |b| {
            // Frames tagged with the open epoch stay valid while it is open.
            let (count, frames) = socket::batch(next, b % batches, BATCH);
            service
                .submit_epoch_wire_batch(WIRE_EPOCH, count, frames)
                .map(|_| ())
                .map_err(|e| e.to_string())
        },
        || {
            service
                .refresh_snapshot()
                .map(|_| ())
                .map_err(|e| e.to_string())
        },
    )
}
