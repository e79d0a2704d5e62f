//! `hh_durable_ingest`: `HH_4`/OUE on a durable plain leader (2 shards,
//! 2 workers, `FsyncPolicy::EveryBytes(1 MiB)`, no automatic checkpoint).
//!
//! The timed phase repeats fixed-size rounds until `--seconds` is spent.
//! In each round two closed-loop sessions send their streams once in
//! 256-frame batches, one session runs the query set, a cold follower
//! catches up to the leader over loopback, and the synced log the leader
//! would leave behind in a crash is reopened. Rates and times are medians
//! over rounds; latencies are pooled over rounds.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldp_ranges::{HhReport, HhServer};
use ldp_service::net::{Hello, NetConfig, WIRE_V1};
use ldp_service::storage::{DurableConfig, DurableService, FsyncPolicy};
use ldp_service::{FollowerService, LdpClient, LdpServer};

use crate::common::{self, check_identical, remove_dir, state_bytes, RunConfig, Scale};
use crate::hh::{self, HhInputs};
use crate::metrics::Outcome;
use crate::replay;
use crate::socket::{self, Until};
use crate::stats::{median, ns_since, Latencies};
use crate::trace::SpanBuf;

/// Frames per REPORT batch.
pub const BATCH: usize = 256;
/// Shards of the leader and session workers.
pub const SHARDS: usize = 2;
/// Ingest sessions.
pub const SESSIONS: usize = 2;
/// The leader's fsync policy.
pub const FSYNC: FsyncPolicy = FsyncPolicy::EveryBytes(1 << 20);
/// Longest a follower may take to catch up before the run fails.
const CATCHUP_LIMIT: Duration = Duration::from_secs(120);

fn durable_config(fsync: FsyncPolicy) -> DurableConfig {
    DurableConfig {
        num_shards: SHARDS,
        fsync,
        checkpoint_every_records: 0,
        ..DurableConfig::default()
    }
}

fn open_leader(cfg: &RunConfig, prototype: &HhServer) -> Result<Leader, String> {
    let dir = cfg.work_dir("leader")?;
    let (service, _) = DurableService::open(&dir, prototype, durable_config(FSYNC))
        .map_err(|e| format!("open leader: {e}"))?;
    let service = Arc::new(service);
    let server = LdpServer::bind_durable(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            workers: SHARDS,
            ..NetConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    Ok(Leader {
        dir,
        service,
        server,
    })
}

struct Leader {
    dir: std::path::PathBuf,
    service: Arc<DurableService<HhServer>>,
    server: LdpServer<HhServer>,
}

impl Leader {
    fn state(&self) -> Result<Vec<u8>, String> {
        plain_state(&self.service)
    }

    fn close(self) {
        let _ = self.server.shutdown();
        drop(self.service);
        remove_dir(&self.dir);
    }
}

fn plain_state(service: &DurableService<HhServer>) -> Result<Vec<u8>, String> {
    let plain = service.plain().ok_or("durable service is not plain")?;
    Ok(state_bytes(
        &plain.merged_state().map_err(|e| e.to_string())?,
    ))
}

/// What the rounds measured.
#[derive(Default)]
struct Rounds {
    ingest_rate: Vec<f64>,
    /// Ack and query latencies, tagged with their round.
    acks: Latencies,
    queries: Latencies,
    query_rate: Vec<f64>,
    catchup_rate: Vec<f64>,
    recovery_s: Vec<f64>,
    reports: u64,
    batches: u64,
    attempted: u64,
    failed: u64,
    socket_spans: usize,
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up and transport failures, and every failed correctness check.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let (per_session, num_queries) = match cfg.scale {
        Scale::Full => (1u64 << 18, 400),
        Scale::Tiny => (1 << 11, 40),
    };
    let mut out = Outcome::default();
    cfg.stamp(&mut out);
    out.stamp("mechanism", "HH_4/OUE, eps=ln3, Cauchy population");
    out.stamp(
        "backend",
        "durable plain leader LdpServer::bind_durable, cold FollowerService, crash-image reopen",
    );
    out.stamp("sizes", format!(
        "domain={} shards={SHARDS} workers={SHARDS} batch={BATCH} sessions={SESSIONS} reports_per_session_per_round={per_session} queries_per_round={num_queries}",
        hh::DOMAIN
    ));
    out.stamp(
        "sessions",
        "2 closed-loop ingest, then 1 closed-loop analyst, per round",
    );
    out.stamp(
        "fsync",
        "EveryBytes(1 MiB), no auto-checkpoint; follower and reopen use the same policy",
    );

    let (inputs, mut leader) = common::timed_setups(
        &mut out,
        || {
            let inputs = hh::inputs(cfg.seed, SESSIONS, per_session);
            let leader = open_leader(cfg, &inputs.prototype)?;
            Ok((inputs, leader))
        },
        |(_, leader)| leader.close(),
    )?;
    let asks = common::query_set(hh::DOMAIN, num_queries, 4, cfg.seed);
    let queries: Vec<_> = asks.iter().map(|a| socket::to_query(*a, None)).collect();

    // The reference every round must reproduce: both streams absorbed
    // in-process.
    let mut reference = inputs.prototype.clone();
    for s in &inputs.streams {
        hh::absorb_frames(&mut reference, s.as_bytes())?;
    }

    let origin = Instant::now();
    let mut spans = SpanBuf::new(cfg.trace, origin, 0);
    let mut rounds = Rounds {
        acks: Latencies::sliced(1),
        queries: Latencies::sliced(1),
        ..Rounds::default()
    };
    out.stamp(
        "rss_timed_start_mib",
        format!("{:.1}", common::reset_rss_peak()),
    );
    let deadline = Instant::now() + cfg.seconds;
    let mut round = 0u64;
    loop {
        run_round(
            cfg,
            &inputs,
            &leader,
            &queries,
            &reference,
            round,
            &mut rounds,
            &mut spans,
        )?;
        if round == 0 {
            // Accuracy over the query set against Theorem 4.3.
            let snap = leader
                .service
                .refresh_snapshot()
                .map_err(|e| e.to_string())?;
            let truth = hh::truth_of(&inputs.values);
            let n = snap.num_reports();
            let ratio = common::check_accuracy("leader snapshot", &snap, &truth, &asks, |r| {
                hh::range_bound(n, r)
            })?;
            out.stamp("accuracy_error_over_bound", format!("{ratio:.4}"));
        }
        round += 1;
        if Instant::now() >= deadline {
            break;
        }
        leader.close();
        leader = open_leader(cfg, &inputs.prototype)?;
    }
    out.stamp("rounds", round);
    out.attempted = rounds.attempted;
    out.failed = rounds.failed;

    out.set("ingest_reports_per_s", median(&rounds.ingest_rate));
    // Latency quantiles are medians over rounds of each round's quantile.
    out.set("ingest_ack_p50_us", rounds.acks.sliced_us(0.5, 100));
    out.set("ingest_ack_p99_us", rounds.acks.sliced_us(0.99, 100));
    out.set("query_p50_us", rounds.queries.sliced_us(0.5, 100));
    out.set("query_p99_us", rounds.queries.sliced_us(0.99, 100));
    out.set("queries_per_s", median(&rounds.query_rate));
    out.set("rss_peak_mib", common::rss_peak_mib());
    out.set("repl.catchup_reports_per_s", median(&rounds.catchup_rate));
    out.set("storage.recovery_s", median(&rounds.recovery_s));
    out.stamp(
        "samples",
        format!(
            "acks={} queries={} rounds={round}",
            rounds.acks.len(),
            rounds.queries.len()
        ),
    );

    if cfg.trace {
        replay::registry_metrics(&mut out, &leader.server.registry().snapshot());
        let socket_ns = (rounds.acks.total_ns() + rounds.queries.total_ns()) as f64;
        let per_refresh = (rounds.batches / rounds.queries.len().max(1) as u64).max(1) as usize;
        stage_replay(cfg, &mut spans, &mut out, &inputs, &asks, per_refresh)?;
        let ingest_ns = out.values["storage.ingest_ns_per_report"];
        let refresh_us = out.values["service.refresh_p50_us"];
        let answer_us = out.values["snapshot.answer_ns"] / 1e3;
        let ack_p50_ns = out.values["ingest_ack_p50_us"] * 1e3;
        out.set(
            "net.report_residual_ns_per_report",
            ack_p50_ns / BATCH as f64 - ingest_ns,
        );
        out.set(
            "net.query_residual_us",
            out.values["query_p50_us"] - refresh_us - answer_us,
        );
        let catchup_ns = 1e9 / out.values["repl.catchup_reports_per_s"];
        let feed_ns = out.values["repl.feed_ns_per_record"] / BATCH as f64;
        out.set("repl.apply_ns_per_report", catchup_ns - feed_ns);
        let covered = rounds.reports as f64 * ingest_ns
            + rounds.queries.len() as f64 * (refresh_us + answer_us) * 1e3;
        out.spans = spans.spans().to_vec();
        replay::trace_summary(&mut out, socket_ns, covered, rounds.socket_spans);
        replay::zero_unset(&mut out);
    }
    leader.close();
    Ok(out)
}

/// One round against a fresh leader: ingest, query, catch up, recover.
#[allow(clippy::too_many_arguments)]
fn run_round(
    cfg: &RunConfig,
    inputs: &HhInputs,
    leader: &Leader,
    queries: &[ldp_service::net::Query],
    reference: &HhServer,
    round: u64,
    rounds: &mut Rounds,
    spans: &mut SpanBuf,
) -> Result<(), String> {
    let addr = leader.server.local_addr();
    let started = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .streams
            .iter()
            .enumerate()
            .map(|(i, stream)| {
                let buf = spans.fork(1 + (round * 4) as u16 + i as u16);
                scope.spawn(move || {
                    let mut client = socket::connect(addr, Hello::plain::<HhReport>())?;
                    let faults: &[_] = if cfg.inject_faults && i == 0 && round == 0 {
                        &[socket::MALFORMED_BATCH]
                    } else {
                        &[]
                    };
                    let log = socket::closed_loop_ingest(
                        &mut client,
                        stream,
                        BATCH,
                        faults,
                        Until::OnePass,
                        u64::MAX,
                        buf,
                    )?;
                    client.bye().map_err(|e| format!("bye: {e}"))?;
                    Ok::<_, String>(log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "ingest session panicked".to_string())?
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let ingest_s = started.elapsed().as_secs_f64();
    // The leader must hold exactly the acked frames: both streams, less
    // any batch the server refused.
    let mut want = reference.clone();
    let mut reports = 0;
    for (log, stream) in logs.into_iter().zip(&inputs.streams) {
        for &i in &log.refused {
            let mut lost = inputs.prototype.clone();
            hh::absorb_frames(&mut lost, socket::batch(stream, i as usize, BATCH).1)?;
            want.subtract(&lost).map_err(|e| e.to_string())?;
        }
        rounds.attempted += log.attempted;
        rounds.failed += log.failed;
        reports += log.reports;
        rounds.batches += log.sent;
        rounds.acks.extend_at(round, &log.acks);
        rounds.socket_spans += log.spans.spans().len();
        spans.absorb(log.spans);
    }
    let want = state_bytes(&want);
    rounds.ingest_rate.push(reports as f64 / ingest_s);
    rounds.reports += reports;

    let mut client = socket::connect(addr, Hello::plain::<HhReport>())?;
    let faults: &[_] = if cfg.inject_faults && round == 0 {
        &[socket::out_of_domain_query()]
    } else {
        &[]
    };
    let qlog = socket::closed_loop_queries(
        &mut client,
        faults,
        queries,
        Until::OnePass,
        u64::MAX,
        spans.fork(2 + (round * 4) as u16),
    )?;
    client.bye().map_err(|e| format!("bye: {e}"))?;
    rounds.attempted += qlog.attempted;
    rounds.failed += qlog.failed;
    rounds.queries.extend_at(round, &qlog.plain);
    rounds
        .query_rate
        .push(qlog.answered as f64 / qlog.elapsed.as_secs_f64());
    rounds.socket_spans += qlog.spans.spans().len();
    spans.absorb(qlog.spans);

    check_identical("leader state vs in-process replay", &leader.state()?, &want)?;

    // The crash image: what the synced log leaves on disk.
    leader.service.sync().map_err(|e| format!("sync: {e}"))?;
    let crash = cfg.work_dir("crash")?;
    common::crash_image(&leader.dir, &crash)?;
    let records = leader
        .service
        .status()
        .map_err(|e| e.to_string())?
        .wal_records;

    // A cold follower catches up over loopback.
    let follower_dir = cfg.work_dir("follower")?;
    let open = spans.begin("repl.catchup", 0, round);
    let t = Instant::now();
    let (follower, _) = FollowerService::open(
        &follower_dir,
        &inputs.prototype,
        &addr.to_string(),
        durable_config(FSYNC),
    )
    .map_err(|e| format!("follower: {e}"))?;
    while follower.position() < records {
        if t.elapsed() > CATCHUP_LIMIT {
            return Err(format!(
                "follower stalled at {} of {records} records: {:?}",
                follower.position(),
                follower.last_error()
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let catchup_s = t.elapsed().as_secs_f64();
    spans.end(open);
    rounds.catchup_rate.push(reports as f64 / catchup_s);
    let promoted = follower.promote().map_err(|e| format!("promote: {e}"))?;
    check_identical(
        "caught-up follower vs leader",
        &plain_state(&promoted)?,
        &want,
    )?;
    drop(promoted);
    remove_dir(&follower_dir);

    // Reopen the crash image: full WAL replay.
    let open = spans.begin("storage.recover", 0, round);
    let t = Instant::now();
    let (reopened, _) = DurableService::open(&crash, &inputs.prototype, durable_config(FSYNC))
        .map_err(|e| format!("reopen: {e}"))?;
    rounds.recovery_s.push(t.elapsed().as_secs_f64());
    spans.end(open);
    check_identical(
        "reopened leader vs state before the crash",
        &plain_state(&reopened)?,
        &want,
    )?;
    drop(reopened);
    remove_dir(&crash);
    Ok(())
}

fn stage_replay(
    cfg: &RunConfig,
    spans: &mut SpanBuf,
    out: &mut Outcome,
    inputs: &HhInputs,
    asks: &[common::Ask],
    per_refresh: usize,
) -> Result<(), String> {
    hh::replay_core(spans, out, inputs, asks)?;
    let batches: Vec<(u64, &[u8])> = inputs
        .streams
        .iter()
        .flat_map(|s| replay::batches(s, BATCH))
        .collect();
    let reports: u64 = batches.iter().map(|b| b.0).sum();
    // In-memory submit and refresh, for the residual of the durable path.
    replay::plain_service(spans, out, &inputs.prototype, SHARDS, &batches, per_refresh)?;

    // Storage: durable ingest under the workload's policy and with no
    // fsync, explicit syncs per MiB, log size, and replay.
    let root = spans.begin("bench.replay_storage", 0, 0);
    let ingest_into = |dir: &Path,
                       fsync: FsyncPolicy,
                       name: &'static str,
                       spans: &mut SpanBuf|
     -> Result<f64, String> {
        let (store, _) = DurableService::open(dir, &inputs.prototype, durable_config(fsync))
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        for (i, (count, frames)) in batches.iter().enumerate() {
            spans
                .span(name, root.id(), i as u64, || {
                    store.ingest_batch(WIRE_V1, *count, frames)
                })
                .map_err(|e| e.to_string())?;
        }
        store.sync().map_err(|e| e.to_string())?;
        Ok(ns_since(t) as f64 / reports as f64)
    };
    let synced_dir = cfg.work_dir("replay-synced")?;
    out.set(
        "storage.ingest_ns_per_report",
        ingest_into(&synced_dir, FSYNC, "storage.ingest", spans)?,
    );
    let nofsync_dir = cfg.work_dir("replay-nofsync")?;
    out.set(
        "storage.ingest_nofsync_ns_per_report",
        ingest_into(
            &nofsync_dir,
            FsyncPolicy::Never,
            "storage.ingest_nofsync",
            spans,
        )?,
    );
    remove_dir(&nofsync_dir);
    out.set(
        "storage.wal_bytes_per_report",
        common::dir_bytes(&synced_dir) as f64 / reports as f64,
    );

    let sync_dir = cfg.work_dir("replay-sync")?;
    {
        let (store, _) = DurableService::open(
            &sync_dir,
            &inputs.prototype,
            durable_config(FsyncPolicy::Never),
        )
        .map_err(|e| e.to_string())?;
        let mut syncs = Latencies::default();
        let mut pending = 0usize;
        for (count, frames) in &batches {
            store
                .ingest_batch(WIRE_V1, *count, frames)
                .map_err(|e| e.to_string())?;
            pending += frames.len();
            if pending >= 1 << 20 {
                let t = Instant::now();
                spans
                    .span("storage.sync", root.id(), syncs.len() as u64, || {
                        store.sync()
                    })
                    .map_err(|e| e.to_string())?;
                syncs.push(ns_since(t));
                pending = 0;
            }
        }
        out.set("storage.sync_us", syncs.quantile_us(0.5));
    }
    remove_dir(&sync_dir);

    let t = Instant::now();
    let (store, _) = spans
        .span("storage.replay", root.id(), 0, || {
            DurableService::open(&synced_dir, &inputs.prototype, durable_config(FSYNC))
        })
        .map_err(|e| e.to_string())?;
    out.set(
        "storage.replay_ns_per_report",
        ns_since(t) as f64 / reports as f64,
    );
    spans.end(root);

    // Replication feed: drain the log over loopback without applying it.
    let store = Arc::new(store);
    let server = LdpServer::bind_durable("127.0.0.1:0", Arc::clone(&store), NetConfig::default())
        .map_err(|e| e.to_string())?;
    let records = batches.len() as u64;
    let root = spans.begin("bench.replay_repl", 0, 0);
    let t = Instant::now();
    let result = (|| {
        let mut feed = LdpClient::replicate(server.local_addr(), 0).map_err(|e| e.to_string())?;
        let mut got = 0u64;
        while got < records {
            let batch = spans
                .span("repl.feed", root.id(), got, || feed.next_records(256))
                .map_err(|e| e.to_string())?;
            got += batch.len() as u64;
        }
        Ok::<_, String>(())
    })();
    let feed_ns = ns_since(t) as f64 / records as f64;
    spans.end(root);
    let _ = server.shutdown();
    drop(store);
    remove_dir(&synced_dir);
    result?;
    out.set("repl.feed_ns_per_record", feed_ns);
    Ok(())
}
