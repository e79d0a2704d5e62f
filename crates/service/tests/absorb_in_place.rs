//! In-place batch absorption: every batch path absorbs straight into live
//! shard state, and a refused batch is rolled back by exact retraction
//! rather than by discarding a staged copy of the shard.
//!
//! * `retract` is the bit-identical inverse of `absorb` for every
//!   mechanism × oracle (and for the epoch ring's open epoch), checked on
//!   the persisted sufficient statistics.
//! * A poison frame at a random index — malformed bytes, a report from a
//!   foreign configuration, or a stale epoch tag — sent through each
//!   `LdpService` batch method, `DurableService::ingest_batch` and
//!   follower apply, plain and windowed, is refused with
//!   `BadFrame { index }`; the merged state stays bit-identical, the
//!   refusal is counted in `shard.frames_rejected`, and the next good
//!   batch absorbs normally (checked against a twin that never saw the
//!   poison).

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use ldp_freq_oracle::{Epsilon, FrequencyOracle};
use ldp_ranges::{
    FlatClient, FlatConfig, FlatServer, HaarConfig, HaarHrrClient, HaarHrrServer, HaarOueClient,
    HaarOueServer, Hh2dClient, Hh2dConfig, Hh2dServer, HhClient, HhConfig, HhServer, HhSplitClient,
    HhSplitServer, MergeableServer, PersistableServer,
};
use ldp_service::net::proto::{read_message, write_message, ClientMsg, ServerMsg};
use ldp_service::net::{WIRE_EPOCH, WIRE_V1};
use ldp_service::obs::instruments::names;
use ldp_service::storage::{scratch_dir, DurableConfig, DurableService, FsyncPolicy, WalRecord};
use ldp_service::{
    EncodedStream, EpochRing, FollowerService, LdpService, MetricsRegistry, ServiceError,
    SnapshotSource, WireReport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ORACLES: [FrequencyOracle; 4] = [
    FrequencyOracle::Oue,
    FrequencyOracle::Olh,
    FrequencyOracle::Hrr,
    FrequencyOracle::Sue,
];

const WINDOW: usize = 3;

/// The persisted sufficient statistics: a state's bit-for-bit identity.
fn bytes<S: PersistableServer>(state: &S) -> Vec<u8> {
    let mut out = Vec::new();
    state.persist_state(&mut out);
    out
}

// ---------------------------------------------------------------------
// (a) retract inverts absorb
// ---------------------------------------------------------------------

/// Absorbs `reports[..split]`, then the rest, retracts the rest, and
/// requires the persisted bytes to match the prefix state; retracting
/// into an empty server is refused without touching it.
fn check_retract_inverts_absorb<S>(prototype: &S, reports: &[S::Report], split: usize)
where
    S: MergeableServer + PersistableServer,
{
    let mut state = prototype.clone();
    for r in &reports[..split] {
        state.absorb(r).unwrap();
    }
    let before = bytes(&state);
    for r in &reports[split..] {
        state.absorb(r).unwrap();
    }
    for r in reports[split..].iter().rev() {
        state.retract(r).unwrap();
    }
    assert_eq!(bytes(&state), before, "absorb → retract changed the state");

    let mut empty = prototype.clone();
    let pristine = bytes(&empty);
    assert!(
        empty.retract(&reports[0]).is_err(),
        "retracting a report that was never absorbed must be refused"
    );
    assert_eq!(bytes(&empty), pristine, "a refused retract mutated state");
}

fn draw<R>(n: usize, rng: &mut StdRng, mut report: impl FnMut(&mut StdRng) -> R) -> Vec<R> {
    (0..n).map(|_| report(rng)).collect()
}

proptest! {
    #[test]
    fn retract_inverts_absorb_for_every_mechanism_and_oracle(
        seed in 0u64..10_000,
        n in 1usize..60,
        split_at in 0usize..60,
        oracle_idx in 0usize..4,
    ) {
        let eps = Epsilon::new(1.1);
        let oracle = ORACLES[oracle_idx];
        let split = split_at.min(n - 1);
        let mut rng = StdRng::seed_from_u64(seed);

        let config = FlatConfig::with_oracle(32, eps, oracle).unwrap();
        let client = FlatClient::new(&config).unwrap();
        let reports = draw(n, &mut rng, |rng| client.report(rng.random_range(0..32), rng).unwrap());
        check_retract_inverts_absorb(&FlatServer::new(&config).unwrap(), &reports, split);

        let config = HhConfig::with_oracle(64, 4, eps, oracle).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let reports = draw(n, &mut rng, |rng| client.report(rng.random_range(0..64), rng).unwrap());
        check_retract_inverts_absorb(&HhServer::new(config.clone()).unwrap(), &reports, split);

        let config = HhConfig::with_oracle(16, 2, eps, oracle).unwrap();
        let client = HhSplitClient::new(config.clone()).unwrap();
        let reports = draw(n, &mut rng, |rng| client.report(rng.random_range(0..16), rng).unwrap());
        check_retract_inverts_absorb(&HhSplitServer::new(config).unwrap(), &reports, split);

        let config = Hh2dConfig::with_oracle(8, 2, eps, oracle).unwrap();
        let client = Hh2dClient::new(config.clone()).unwrap();
        let reports = draw(n, &mut rng, |rng| {
            client.report(rng.random_range(0..8), rng.random_range(0..8), rng).unwrap()
        });
        check_retract_inverts_absorb(&Hh2dServer::new(config).unwrap(), &reports, split);

        // The Haar mechanisms fix their primitive (HRR resp. OUE).
        let config = HaarConfig::new(64, eps).unwrap();
        let client = HaarHrrClient::new(config.clone()).unwrap();
        let reports = draw(n, &mut rng, |rng| client.report(rng.random_range(0..64), rng).unwrap());
        check_retract_inverts_absorb(&HaarHrrServer::new(config.clone()).unwrap(), &reports, split);
        let client = HaarOueClient::new(config.clone()).unwrap();
        let reports = draw(n, &mut rng, |rng| client.report(rng.random_range(0..64), rng).unwrap());
        check_retract_inverts_absorb(&HaarOueServer::new(config).unwrap(), &reports, split);

        // The epoch ring retracts from its open epoch, sealed epochs intact.
        let config = HhConfig::with_oracle(64, 4, eps, oracle).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let mut ring = EpochRing::new(&HhServer::new(config).unwrap(), 2).unwrap();
        for _ in 0..3 {
            for r in draw(n, &mut rng, |rng| client.report(rng.random_range(0..64), rng).unwrap()) {
                MergeableServer::absorb(&mut ring, &r).unwrap();
            }
            ring.seal_epoch().unwrap();
        }
        let reports = draw(n, &mut rng, |rng| client.report(rng.random_range(0..64), rng).unwrap());
        check_retract_inverts_absorb(&ring, &reports, split);
    }
}

// ---------------------------------------------------------------------
// (b) poison frames through every batch path
// ---------------------------------------------------------------------

/// A report source.
type Draw<R> = Box<dyn Fn(&mut StdRng) -> R>;

/// One mechanism under test: its empty server, an honest client, and a
/// client whose reports (from a foreign configuration) this server
/// refuses.
struct Mech<S: MergeableServer> {
    name: &'static str,
    prototype: S,
    honest: Draw<S::Report>,
    foreign: Draw<S::Report>,
}

impl<S: MergeableServer + 'static> Mech<S> {
    /// `foreign` draws from another configuration; only draws this
    /// server refuses are kept, so every poison is a real refusal.
    fn new(
        name: &'static str,
        prototype: S,
        honest: impl Fn(&mut StdRng) -> S::Report + 'static,
        foreign: impl Fn(&mut StdRng) -> S::Report + 'static,
    ) -> Self {
        let probe = prototype.clone();
        Self {
            name,
            prototype,
            honest: Box::new(honest),
            foreign: Box::new(move |rng| loop {
                let r = foreign(rng);
                if probe.clone().absorb(&r).is_err() {
                    return r;
                }
            }),
        }
    }

    fn good(&self, n: usize, rng: &mut StdRng) -> Vec<S::Report> {
        (0..n).map(|_| (self.honest)(rng)).collect()
    }
}

fn flat_mech(oracle: FrequencyOracle) -> Mech<FlatServer> {
    let eps = Epsilon::new(1.1);
    let config = FlatConfig::with_oracle(32, eps, oracle).unwrap();
    let client = FlatClient::new(&config).unwrap();
    let other = ORACLES[(ORACLES.iter().position(|&o| o == oracle).unwrap() + 1) % 4];
    let foreign = FlatClient::new(&FlatConfig::with_oracle(64, eps, other).unwrap()).unwrap();
    Mech::new(
        "flat",
        FlatServer::new(&config).unwrap(),
        move |rng| client.report(rng.random_range(0..32), rng).unwrap(),
        move |rng| foreign.report(rng.random_range(0..64), rng).unwrap(),
    )
}

fn hh_mech() -> Mech<HhServer> {
    let eps = Epsilon::new(1.1);
    let config = HhConfig::new(64, 4, eps).unwrap();
    let client = HhClient::new(config.clone()).unwrap();
    let foreign = HhClient::new(HhConfig::new(1024, 4, eps).unwrap()).unwrap();
    Mech::new(
        "hh",
        HhServer::new(config).unwrap(),
        move |rng| client.report(rng.random_range(0..64), rng).unwrap(),
        move |rng| foreign.report(rng.random_range(0..1024), rng).unwrap(),
    )
}

fn hh_split_mech() -> Mech<HhSplitServer> {
    let eps = Epsilon::new(1.4);
    let config = HhConfig::new(64, 2, eps).unwrap();
    let client = HhSplitClient::new(config.clone()).unwrap();
    let foreign = HhSplitClient::new(HhConfig::new(64, 4, eps).unwrap()).unwrap();
    Mech::new(
        "hh_split",
        HhSplitServer::new(config).unwrap(),
        move |rng| client.report(rng.random_range(0..64), rng).unwrap(),
        move |rng| foreign.report(rng.random_range(0..64), rng).unwrap(),
    )
}

fn haar_hrr_mech() -> Mech<HaarHrrServer> {
    let eps = Epsilon::new(1.1);
    let config = HaarConfig::new(64, eps).unwrap();
    let client = HaarHrrClient::new(config.clone()).unwrap();
    let foreign = HaarHrrClient::new(HaarConfig::new(1024, eps).unwrap()).unwrap();
    Mech::new(
        "haar_hrr",
        HaarHrrServer::new(config).unwrap(),
        move |rng| client.report(rng.random_range(0..64), rng).unwrap(),
        move |rng| foreign.report(rng.random_range(0..1024), rng).unwrap(),
    )
}

fn haar_oue_mech() -> Mech<HaarOueServer> {
    let eps = Epsilon::new(0.8);
    let config = HaarConfig::new(64, eps).unwrap();
    let client = HaarOueClient::new(config.clone()).unwrap();
    let foreign = HaarOueClient::new(HaarConfig::new(1024, eps).unwrap()).unwrap();
    Mech::new(
        "haar_oue",
        HaarOueServer::new(config).unwrap(),
        move |rng| client.report(rng.random_range(0..64), rng).unwrap(),
        move |rng| foreign.report(rng.random_range(0..1024), rng).unwrap(),
    )
}

fn hh2d_mech() -> Mech<Hh2dServer> {
    let eps = Epsilon::new(1.1);
    let config = Hh2dConfig::new(16, 2, eps).unwrap();
    let client = Hh2dClient::new(config.clone()).unwrap();
    let foreign = Hh2dClient::new(Hh2dConfig::new(64, 2, eps).unwrap()).unwrap();
    Mech::new(
        "hh2d",
        Hh2dServer::new(config).unwrap(),
        move |rng| {
            client
                .report(rng.random_range(0..16), rng.random_range(0..16), rng)
                .unwrap()
        },
        move |rng| {
            foreign
                .report(rng.random_range(0..64), rng.random_range(0..64), rng)
                .unwrap()
        },
    )
}

/// What the frame at the poison index is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Poison {
    /// Bytes no decoder accepts (bad magic).
    Malformed,
    /// A well-formed report from a foreign configuration.
    Foreign,
    /// An honest report tagged with an already-sealed epoch.
    StaleEpoch,
}

const MALFORMED: &[u8] = b"XX\x01\x00\x00\x00";

/// A batch of `good` with a poison frame inserted at `at`, in every form
/// a batch path takes. `open` is the windowed open epoch (`None` builds
/// untagged/v1 forms).
struct Poisoned<R> {
    decoded: Vec<R>,
    tagged: Vec<(Option<u64>, R)>,
    wire: EncodedStream,
}

fn poisoned<S: MergeableServer>(
    mech: &Mech<S>,
    good: &[S::Report],
    at: usize,
    kind: Poison,
    open: Option<u64>,
    rng: &mut StdRng,
) -> Poisoned<S::Report>
where
    S::Report: WireReport,
{
    let poison = match kind {
        Poison::Foreign => (mech.foreign)(rng),
        Poison::Malformed | Poison::StaleEpoch => (mech.honest)(rng),
    };
    let mut out = Poisoned {
        decoded: Vec::new(),
        tagged: Vec::new(),
        wire: EncodedStream::new(),
    };
    for k in 0..=good.len() {
        let (report, tag, raw) = match k.cmp(&at) {
            std::cmp::Ordering::Less => (&good[k], open, None),
            std::cmp::Ordering::Equal => match kind {
                Poison::Malformed => (&poison, open, Some(MALFORMED)),
                Poison::Foreign => (&poison, open, None),
                Poison::StaleEpoch => (&poison, open.map(|e| e - 1), None),
            },
            std::cmp::Ordering::Greater => (&good[k - 1], open, None),
        };
        out.decoded.push(report.clone());
        out.tagged.push((tag, report.clone()));
        match (raw, tag) {
            (Some(bytes), _) => out.wire.push_raw(bytes),
            (None, Some(epoch)) => out.wire.push_epoch(report, epoch),
            (None, None) => out.wire.push(report),
        }
    }
    out
}

fn wire_of<R: WireReport>(good: &[R], open: Option<u64>) -> EncodedStream {
    let mut wire = EncodedStream::new();
    for r in good {
        match open {
            Some(epoch) => wire.push_epoch(r, epoch),
            None => wire.push(r),
        }
    }
    wire
}

fn assert_bad_frame<T: std::fmt::Debug>(result: Result<T, ServiceError>, index: usize, what: &str) {
    match result {
        Err(ServiceError::BadFrame { index: got, .. }) => {
            assert_eq!(got, index, "{what}: refused at the wrong index");
        }
        other => panic!("{what}: expected BadFrame {{ index: {index} }}, got {other:?}"),
    }
}

/// Which `LdpService` batch method a case goes through.
#[derive(Debug, Clone, Copy)]
enum Method {
    Batch,
    WireBatch,
    EpochBatch,
    EpochWireBatch,
}

/// Poison kinds a method can carry: decoded slices cannot hold malformed
/// bytes, and only epoch-checking paths can see a stale tag.
fn kinds(wire: bool, tagged: bool) -> Vec<Poison> {
    let mut kinds = vec![Poison::Foreign];
    if wire {
        kinds.push(Poison::Malformed);
    }
    if tagged {
        kinds.push(Poison::StaleEpoch);
    }
    kinds
}

/// Plain service: `submit_batch` and `submit_wire_batch`.
fn check_plain_service<S>(mech: &Mech<S>, seed: u64)
where
    S: SnapshotSource + PersistableServer + 'static,
    S::Report: WireReport,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let registry = MetricsRegistry::new();
    let service = LdpService::new(&mech.prototype, 3).unwrap();
    service.attach_metrics(&registry);
    let rejected = registry.counter(names::SHARD_FRAMES_REJECTED);
    let twin = LdpService::new(&mech.prototype, 1).unwrap();
    for method in [Method::Batch, Method::WireBatch, Method::Batch] {
        let n = rng.random_range(1..20);
        let good = mech.good(n, &mut rng);
        let wire = matches!(method, Method::WireBatch);
        for kind in kinds(wire, false) {
            let at = rng.random_range(0..=n);
            let bad = poisoned(mech, &good, at, kind, None, &mut rng);
            let what = format!("{} plain {method:?} {kind:?} at {at}", mech.name);
            let before = bytes(&service.merged_state().unwrap());
            let refused_before = rejected.get();
            let result = match method {
                Method::Batch => service.submit_batch(&bad.decoded).map(|()| 0),
                _ => service.submit_wire_batch(WIRE_V1, bad.wire.len() as u64, bad.wire.as_bytes()),
            };
            assert_bad_frame(result, at, &what);
            assert_eq!(
                bytes(&service.merged_state().unwrap()),
                before,
                "{what}: state moved"
            );
            assert!(
                rejected.get() > refused_before,
                "{what}: frames_rejected did not move"
            );
        }
        match method {
            Method::Batch => service.submit_batch(&good).unwrap(),
            _ => {
                let w = wire_of(&good, None);
                assert_eq!(
                    service
                        .submit_wire_batch(WIRE_V1, n as u64, w.as_bytes())
                        .unwrap(),
                    n as u64
                );
            }
        }
        twin.submit_batch(&good).unwrap();
        assert_eq!(
            bytes(&service.merged_state().unwrap()),
            bytes(&twin.merged_state().unwrap()),
            "{} plain {method:?}: next good batch",
            mech.name
        );
    }
}

/// Windowed service: all four batch methods, with seals between rounds so
/// a stale tag names a sealed epoch.
fn check_windowed_service<S>(mech: &Mech<S>, seed: u64)
where
    S: SnapshotSource + PersistableServer + 'static,
    S::Report: WireReport,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let registry = MetricsRegistry::new();
    let service = LdpService::<EpochRing<S>>::windowed(&mech.prototype, 3, WINDOW).unwrap();
    service.attach_metrics(&registry);
    let rejected = registry.counter(names::SHARD_FRAMES_REJECTED);
    let twin = LdpService::<EpochRing<S>>::windowed(&mech.prototype, 1, WINDOW).unwrap();
    for method in [
        Method::EpochBatch,
        Method::EpochWireBatch,
        Method::Batch,
        Method::WireBatch,
        Method::EpochWireBatch,
    ] {
        assert_eq!(service.seal_epoch().unwrap(), twin.seal_epoch().unwrap());
        let open = service.current_epoch();
        let n = rng.random_range(1..20);
        let good = mech.good(n, &mut rng);
        let (wire, tagged) = match method {
            Method::Batch => (false, false),
            Method::WireBatch => (true, false),
            Method::EpochBatch => (false, true),
            Method::EpochWireBatch => (true, true),
        };
        let tag = tagged.then_some(open);
        for kind in kinds(wire, tagged) {
            let at = rng.random_range(0..=n);
            let bad = poisoned(mech, &good, at, kind, tag, &mut rng);
            let what = format!("{} windowed {method:?} {kind:?} at {at}", mech.name);
            let before = bytes(&service.merged_state().unwrap());
            let refused_before = rejected.get();
            let count = bad.wire.len() as u64;
            let result = match method {
                Method::Batch => service.submit_batch(&bad.decoded).map(|()| 0),
                Method::WireBatch => service.submit_wire_batch(WIRE_V1, count, bad.wire.as_bytes()),
                Method::EpochBatch => service.submit_epoch_batch(&bad.tagged).map(|()| 0),
                Method::EpochWireBatch => {
                    service.submit_epoch_wire_batch(WIRE_EPOCH, count, bad.wire.as_bytes())
                }
            };
            assert_bad_frame(result, at, &what);
            assert_eq!(
                bytes(&service.merged_state().unwrap()),
                before,
                "{what}: state moved"
            );
            assert!(
                rejected.get() > refused_before,
                "{what}: frames_rejected did not move"
            );
        }
        let w = wire_of(&good, tag);
        let tagged_good: Vec<_> = good.iter().map(|r| (tag, r.clone())).collect();
        match method {
            Method::Batch => service.submit_batch(&good).unwrap(),
            Method::WireBatch => {
                service
                    .submit_wire_batch(WIRE_V1, n as u64, w.as_bytes())
                    .unwrap();
            }
            Method::EpochBatch => service.submit_epoch_batch(&tagged_good).unwrap(),
            Method::EpochWireBatch => {
                service
                    .submit_epoch_wire_batch(WIRE_EPOCH, n as u64, w.as_bytes())
                    .unwrap();
            }
        }
        twin.submit_batch(&good).unwrap();
        assert_eq!(
            bytes(&service.merged_state().unwrap()),
            bytes(&twin.merged_state().unwrap()),
            "{} windowed {method:?}: next good batch",
            mech.name
        );
    }
}

fn check_service_paths<S>(mech: &Mech<S>, seed: u64)
where
    S: SnapshotSource + PersistableServer + 'static,
    S::Report: WireReport,
{
    check_plain_service(mech, seed);
    check_windowed_service(mech, seed ^ 0x5eed);
}

proptest! {
    #[test]
    fn poisoned_service_batches_leave_state_bit_identical(
        seed in 0u64..100_000,
        mech_idx in 0usize..9,
    ) {
        match mech_idx {
            0..=3 => check_service_paths(&flat_mech(ORACLES[mech_idx]), seed),
            4 => check_service_paths(&hh_mech(), seed),
            5 => check_service_paths(&hh_split_mech(), seed),
            6 => check_service_paths(&haar_hrr_mech(), seed),
            7 => check_service_paths(&haar_oue_mech(), seed),
            _ => check_service_paths(&hh2d_mech(), seed),
        }
    }
}

// ---------------------------------------------------------------------
// Durable ingest and follower apply
// ---------------------------------------------------------------------

fn durable_config() -> DurableConfig {
    DurableConfig {
        num_shards: 2,
        fsync: FsyncPolicy::Always,
        checkpoint_every_records: 0,
        retain_history: false,
        ..DurableConfig::default()
    }
}

/// The merged state's bytes of a durable service, plain or windowed.
fn durable_bytes<S>(durable: &DurableService<S>) -> Vec<u8>
where
    S: SnapshotSource + PersistableServer + 'static,
    S::Report: WireReport,
{
    match (durable.plain(), durable.windowed()) {
        (Some(s), _) => bytes(&s.merged_state().unwrap()),
        (_, Some(s)) => bytes(&s.merged_state().unwrap()),
        _ => unreachable!("a durable service is plain or windowed"),
    }
}

/// An in-memory twin that never sees a poisoned batch.
enum Twin<S: SnapshotSource> {
    Plain(LdpService<S>),
    Windowed(LdpService<EpochRing<S>>),
}

impl<S> Twin<S>
where
    S: SnapshotSource + PersistableServer + 'static,
{
    fn new(prototype: &S, windowed: bool) -> Self {
        if windowed {
            Self::Windowed(LdpService::windowed(prototype, 1, WINDOW).unwrap())
        } else {
            Self::Plain(LdpService::new(prototype, 1).unwrap())
        }
    }

    fn submit(&self, reports: &[S::Report]) {
        match self {
            Self::Plain(s) => s.submit_batch(reports).unwrap(),
            Self::Windowed(s) => s.submit_batch(reports).unwrap(),
        }
    }

    fn seal(&self) -> Option<u64> {
        match self {
            Self::Plain(_) => None,
            Self::Windowed(s) => Some(s.seal_epoch().unwrap()),
        }
    }

    fn bytes(&self) -> Vec<u8> {
        match self {
            Self::Plain(s) => bytes(&s.merged_state().unwrap()),
            Self::Windowed(s) => bytes(&s.merged_state().unwrap()),
        }
    }
}

fn wire_version(open: Option<u64>) -> u8 {
    if open.is_some() {
        WIRE_EPOCH
    } else {
        WIRE_V1
    }
}

/// `DurableService::ingest_batch`: poisoned batches are refused with the
/// state and the log untouched (a reopen replays only the good batches).
fn check_durable<S>(mech: &Mech<S>, seed: u64, windowed: bool)
where
    S: SnapshotSource + PersistableServer + 'static,
    S::Report: WireReport,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let dir = scratch_dir(&format!("inplace-durable-{}", mech.name)).unwrap();
    let open = |dir: &Path| {
        if windowed {
            DurableService::open_windowed(dir, &mech.prototype, WINDOW, durable_config())
        } else {
            DurableService::open(dir, &mech.prototype, durable_config())
        }
        .unwrap()
        .0
    };
    let durable = open(&dir);
    let rejected = durable.registry().counter(names::SHARD_FRAMES_REJECTED);
    let twin = Twin::new(&mech.prototype, windowed);
    for round in 0..3 {
        let open_epoch = twin.seal().map(|sealed| {
            assert_eq!(durable.seal_epoch().unwrap(), sealed);
            sealed + 1
        });
        let n = rng.random_range(1..20);
        let good = mech.good(n, &mut rng);
        for kind in kinds(true, windowed) {
            let at = rng.random_range(0..=n);
            let bad = poisoned(mech, &good, at, kind, open_epoch, &mut rng);
            let what = format!("{} durable windowed={windowed} {kind:?} at {at}", mech.name);
            let before = durable_bytes(&durable);
            let refused_before = rejected.get();
            let result = durable.ingest_batch(
                wire_version(open_epoch),
                bad.wire.len() as u64,
                bad.wire.as_bytes(),
            );
            assert_bad_frame(result, at, &what);
            assert_eq!(durable_bytes(&durable), before, "{what}: state moved");
            assert!(
                rejected.get() > refused_before,
                "{what}: frames_rejected did not move"
            );
        }
        let w = wire_of(&good, open_epoch);
        assert_eq!(
            durable
                .ingest_batch(wire_version(open_epoch), n as u64, w.as_bytes())
                .unwrap(),
            n as u64
        );
        twin.submit(&good);
        assert_eq!(
            durable_bytes(&durable),
            twin.bytes(),
            "{} durable windowed={windowed} round {round}: next good batch",
            mech.name
        );
    }
    drop(durable);
    let reopened = open(&dir);
    assert_eq!(
        durable_bytes(&reopened),
        twin.bytes(),
        "{} durable windowed={windowed}: the log holds a refused batch",
        mech.name
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A stand-in leader: for each scripted session it accepts one follower,
/// answers its REPLICATE, pushes the session's records from the
/// requested position on, and waits for the follower to hang up.
fn fake_leader(sessions: Vec<Vec<WalRecord>>) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        for records in sessions {
            let (mut stream, _) = listener.accept().unwrap();
            let start = match ClientMsg::decode(&read_message(&mut stream).unwrap()).unwrap() {
                ClientMsg::Replicate { start } => start,
                other => panic!("follower opened with {other:?}"),
            };
            let reply = ServerMsg::ReplOk {
                start,
                leader_records: start + records.len() as u64,
            };
            write_message(&mut stream, &reply.encode()).unwrap();
            for (k, record) in records.iter().enumerate() {
                let push = ServerMsg::ReplRecord {
                    position: start + k as u64,
                    body: record.encode_body(),
                };
                write_message(&mut stream, &push.encode()).unwrap();
            }
            drain_until_closed(stream);
        }
    });
    (addr, handle)
}

/// Reads (and ignores) the follower's acks until it disconnects.
fn drain_until_closed(mut stream: TcpStream) {
    loop {
        match read_message(&mut stream) {
            Ok(_) => {}
            Err(ldp_service::NetError::Io(e)) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn frames_record<R: WireReport>(reports: &[R], open: Option<u64>) -> WalRecord {
    let wire = wire_of(reports, open);
    WalRecord::Frames {
        wire_version: wire_version(open),
        count: reports.len() as u64,
        frames: wire.as_bytes().to_vec(),
    }
}

/// Follower apply: the leader pushes good records, then a poisoned FRAMES
/// record. The follower refuses it with `BadFrame { index }` and stops,
/// holding exactly the good prefix; reopened, it applies the next good
/// record normally.
fn check_follower<S>(mech: &Mech<S>, seed: u64, windowed: bool, kind: Poison)
where
    S: SnapshotSource + PersistableServer + 'static,
    S::Report: WireReport,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let twin = Twin::new(&mech.prototype, windowed);
    let mut first = Vec::new();
    for _ in 0..2 {
        let open_epoch = twin.seal().map(|sealed| {
            first.push(WalRecord::Seal { epoch: sealed });
            sealed + 1
        });
        let good = mech.good(rng.random_range(1..20), &mut rng);
        first.push(frames_record(&good, open_epoch));
        twin.submit(&good);
    }
    let open_epoch = windowed.then(|| twin.seal().unwrap() + 1);
    if let Some(epoch) = open_epoch {
        first.push(WalRecord::Seal { epoch: epoch - 1 });
    }
    let n = rng.random_range(1..20);
    let good = mech.good(n, &mut rng);
    let at = rng.random_range(0..=n);
    let bad = poisoned(mech, &good, at, kind, open_epoch, &mut rng);
    first.push(WalRecord::Frames {
        wire_version: wire_version(open_epoch),
        count: bad.wire.len() as u64,
        frames: bad.wire.as_bytes().to_vec(),
    });
    let applied = first.len() as u64 - 1;
    let (addr, leader) = fake_leader(vec![first, vec![frames_record(&good, open_epoch)]]);

    let what = format!(
        "{} follower windowed={windowed} {kind:?} at {at}",
        mech.name
    );
    let dir = scratch_dir(&format!("inplace-follower-{}", mech.name)).unwrap();
    let open = || {
        if windowed {
            FollowerService::open_windowed(&dir, &mech.prototype, WINDOW, &addr, durable_config())
        } else {
            FollowerService::open(&dir, &mech.prototype, &addr, durable_config())
        }
        .unwrap()
        .0
    };
    let follower = open();
    wait_for(&what, || !follower.running());
    let error = follower.last_error().unwrap_or_default();
    assert!(
        error.contains(&format!("frame {at} of")),
        "{what}: expected a BadFrame at {at}, got {error:?}"
    );
    assert_eq!(
        follower.position(),
        applied,
        "{what}: position after the refusal"
    );
    let service = follower.service();
    assert_eq!(
        durable_bytes(service.as_ref()),
        twin.bytes(),
        "{what}: state moved"
    );
    assert!(
        service
            .registry()
            .counter(names::SHARD_FRAMES_REJECTED)
            .get()
            > 0,
        "{what}: frames_rejected did not move"
    );
    drop(follower);

    // Reopened from its own log, the follower resumes right after the
    // good prefix and applies the next good record normally.
    let follower = open();
    assert_eq!(follower.position(), applied, "{what}: resume position");
    wait_for(&what, || follower.position() == applied + 1);
    twin.submit(&good);
    assert_eq!(
        durable_bytes(follower.service().as_ref()),
        twin.bytes(),
        "{what}: next good batch"
    );
    drop(follower);
    leader.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

fn check_durable_paths<S>(mech: &Mech<S>, seed: u64)
where
    S: SnapshotSource + PersistableServer + 'static,
    S::Report: WireReport,
{
    for windowed in [false, true] {
        check_durable(mech, seed, windowed);
        for (k, kind) in kinds(true, windowed).into_iter().enumerate() {
            check_follower(mech, seed + k as u64, windowed, kind);
        }
    }
}

#[test]
fn poisoned_durable_and_follower_batches_leave_state_bit_identical() {
    check_durable_paths(&flat_mech(FrequencyOracle::Oue), 11);
    check_durable_paths(&flat_mech(FrequencyOracle::Olh), 12);
    check_durable_paths(&hh_mech(), 13);
    check_durable_paths(&hh_split_mech(), 14);
    check_durable_paths(&haar_hrr_mech(), 15);
    check_durable_paths(&haar_oue_mech(), 16);
    check_durable_paths(&hh2d_mech(), 17);
}
