//! The repository benchmark: three socket workloads against the real
//! `LdpServer` over loopback, each checked for correctness before any
//! number is reported, plus a traced run that replays the same inputs
//! through every layer's public functions in-process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hh_mixed_inmem --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end list ([`metrics::END_TO_END`]); with
//! `--trace 1` they are the per-layer list ([`metrics::PER_LAYER`]).

pub mod analyst;
pub mod common;
pub mod durable;
pub mod hh;
pub mod metrics;
pub mod mixed;
pub mod replay;
pub mod socket;
pub mod stats;
pub mod trace;

pub use common::{RunConfig, Scale};
pub use metrics::Outcome;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["hh_durable_ingest", "haar_window_analyst", "hh_mixed_inmem"];

/// Runs one workload and returns its checked outcome.
///
/// # Errors
///
/// Set-up or transport failures, and every failed correctness check.
pub fn run_workload(name: &str, config: &RunConfig) -> Result<Outcome, String> {
    match name {
        "hh_durable_ingest" => durable::run(config),
        "haar_window_analyst" => analyst::run(config),
        "hh_mixed_inmem" => mixed::run(config),
        other => Err(format!("unknown workload `{other}`")),
    }
}
