//! Inputs of the two `HH_4` workloads: the mechanism, a Cauchy population
//! and pre-encoded report streams, with the value behind every frame kept
//! for the accuracy check.

use ldp_freq_oracle::{frequency_oracle_variance, Epsilon};
use ldp_ranges::{theory, HhClient, HhConfig, HhServer};
use ldp_service::{generate_stream, EncodedStream};
use ldp_workloads::{CauchyParams, Dataset, DistributionKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{Ask, Truth};
use crate::metrics::Outcome;
use crate::trace::SpanBuf;

/// Domain size of the `HH_4` workloads.
pub const DOMAIN: usize = 1024;
/// Fanout `B` of the hierarchy.
pub const FANOUT: usize = 4;

/// The privacy budget, ε = ln 3.
#[must_use]
pub fn epsilon() -> Epsilon {
    Epsilon::from_exp(3.0)
}

/// Mechanism plus encoded streams.
pub struct HhInputs {
    /// Client-side encoder.
    pub client: HhClient,
    /// Empty server every state starts from.
    pub prototype: HhServer,
    /// One stream per session.
    pub streams: Vec<EncodedStream>,
    /// The value behind each frame of each stream.
    pub values: Vec<Vec<u16>>,
}

/// Samples the population and encodes `sessions` streams of `per_session`
/// reports, all from `seed`.
///
/// # Panics
///
/// Never for the fixed configuration above.
#[must_use]
pub fn inputs(seed: u64, sessions: usize, per_session: u64) -> HhInputs {
    let config = HhConfig::new(DOMAIN, FANOUT, epsilon()).expect("valid HH_4 config");
    let client = HhClient::new(config.clone()).expect("client");
    let prototype = HhServer::new(config).expect("server");
    let mut rng = StdRng::seed_from_u64(seed);
    let population = Dataset::sample(
        DistributionKind::Cauchy(CauchyParams::paper_default()),
        DOMAIN,
        1 << 20,
        &mut rng,
    );
    let mut values = Vec::with_capacity(sessions);
    let streams = (0..sessions)
        .map(|s| {
            let mut vals = Vec::with_capacity(per_session as usize);
            let stream = generate_stream(
                &population,
                per_session,
                seed.wrapping_mul(31) + s as u64,
                |v, rng| {
                    vals.push(v as u16);
                    client.report(v, rng).expect("in-domain value")
                },
            );
            values.push(vals);
            stream
        })
        .collect();
    HhInputs {
        client,
        prototype,
        streams,
        values,
    }
}

/// Theorem 4.3 (uniform level sampling): the variance bound of a range of
/// length `r` over `n` reports.
#[must_use]
pub fn range_bound(n: u64, r: usize) -> f64 {
    theory::hh_range_variance_bound(frequency_oracle_variance(epsilon(), n), FANOUT, DOMAIN, r)
}

/// Absorbs back-to-back `frames` into `state` in-process.
///
/// # Errors
///
/// A frame the mechanism refuses.
pub fn absorb_frames(state: &mut HhServer, frames: &[u8]) -> Result<(), String> {
    let reports = ldp_service::decode_all::<ldp_ranges::HhReport>(frames)
        .map_err(|e| format!("decode: {e}"))?;
    for r in &reports {
        state.absorb(r).map_err(|e| format!("absorb: {e}"))?;
    }
    Ok(())
}

/// Truth of every value of every stream.
#[must_use]
pub fn truth_of(values: &[Vec<u16>]) -> Truth {
    let mut counts = vec![0u64; DOMAIN];
    for vals in values {
        for (c, add) in counts.iter_mut().zip(Truth::count(DOMAIN, vals)) {
            *c += add;
        }
    }
    Truth::new(counts)
}

/// The stage replay of the `core`, `wire` and `snapshot` layers over the
/// first stream (see [`crate::replay::core_layers`]).
///
/// # Errors
///
/// Decode or absorb failures.
pub fn replay_core(
    spans: &mut SpanBuf,
    out: &mut Outcome,
    inputs: &HhInputs,
    asks: &[Ask],
) -> Result<(), String> {
    let stream = &inputs.streams[0];
    let values = &inputs.values[0];
    let mut rng = StdRng::seed_from_u64(1);
    crate::replay::core_layers(
        spans,
        out,
        &inputs.prototype,
        ldp_service::net::WIRE_V1,
        stream.as_bytes(),
        stream.len(),
        asks,
        |i| {
            std::hint::black_box(inputs.client.report(usize::from(values[i]), &mut rng).ok());
        },
    )?;
    Ok(())
}
