//! Pieces every workload shares: run configuration, scratch directories,
//! memory readings, the bit-identity and accuracy checks, and the query
//! set.

use std::path::{Path, PathBuf};
use std::time::Duration;

use ldp_ranges::PersistableServer;
use ldp_service::RangeSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::Outcome;

/// Input sizes: the benchmark's own, or a tiny set for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// Small enough for a unit test to run every workload in seconds.
    Tiny,
}

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Record spans and run the per-layer stage replay.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Send one malformed REPORT batch (and, on windowed sessions, one
    /// stale-epoch frame) at the start of the timed phase — the negative
    /// control that proves refused operations are counted.
    pub inject_faults: bool,
    /// Scratch directory for logs and span files, inside the working
    /// directory.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// A scratch directory for this run, unique within the process.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn work_dir(&self, tag: &str) -> Result<PathBuf, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = self.out_dir.join(format!(
            "work-{}-{}-{tag}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Common stamp entries: seed, hardware threads, commit.
    pub fn stamp(&self, out: &mut Outcome) {
        out.stamp("seed", self.seed);
        out.stamp("hw_threads", hw_threads());
        out.stamp("commit", commit());
        out.stamp("seconds", self.seconds.as_secs_f64());
        out.stamp("trace", self.trace);
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Runs `setup` [`SETUPS`] times, tearing down all but the last result,
/// and records the median set-up time as `setup_s`.
///
/// # Errors
///
/// The first failed set-up.
pub fn timed_setups<T>(
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<T, String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        if let Some(previous) = ready.take() {
            teardown(previous);
        }
        let t = std::time::Instant::now();
        ready = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", crate::stats::median(&times));
    ready.ok_or_else(|| "no set-up ran".to_string())
}

/// Hardware threads available to the process.
#[must_use]
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The code being measured: a digest of the sources in the working
/// directory (`source-<fnv64>` over `Cargo.toml`, `Cargo.lock`, `src/`,
/// `crates/` and `perfbench/src/`). The benchmark runs from a checkout
/// that need not be a git repository, and reads nothing outside it.
#[must_use]
pub fn commit() -> String {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench/src"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("source-{hash:016x}")
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect_files(&entry.path(), out);
        }
    }
}

fn proc_status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set size (VmHWM) in MiB.
#[must_use]
pub fn rss_peak_mib() -> f64 {
    proc_status_kib("VmHWM:") / 1024.0
}

/// Resets the peak resident set size to the current one, so that a
/// later [`rss_peak_mib`] covers only what ran in between, and returns
/// the current one in MiB. Where the kernel does not offer the reset, the
/// peak keeps covering the whole process.
pub fn reset_rss_peak() -> f64 {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    rss_mib()
}

/// Current resident set size (VmRSS) in MiB.
#[must_use]
pub fn rss_mib() -> f64 {
    proc_status_kib("VmRSS:") / 1024.0
}

/// Serialized sufficient statistics of a mechanism state — what the
/// identity checks compare, bit for bit.
#[must_use]
pub fn state_bytes<S: PersistableServer>(state: &S) -> Vec<u8> {
    let mut out = Vec::new();
    state.persist_state(&mut out);
    out
}

/// Fails unless `got` equals `want` byte for byte.
///
/// # Errors
///
/// Names the first differing byte.
pub fn check_identical(what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: state is {} bytes, reference {} bytes",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        Some(i) => Err(format!(
            "{what}: state differs from the reference at byte {i}"
        )),
        None => Ok(()),
    }
}

/// Fails unless two snapshots hold the same estimate, bit for bit.
///
/// # Errors
///
/// Names the first differing item.
pub fn check_same_estimate(
    what: &str,
    got: &RangeSnapshot,
    want: &RangeSnapshot,
) -> Result<(), String> {
    if got.num_reports() != want.num_reports() {
        return Err(format!(
            "{what}: {} reports, reference {}",
            got.num_reports(),
            want.num_reports()
        ));
    }
    let (a, b) = (got.estimate().frequencies(), want.estimate().frequencies());
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        Some(z) => Err(format!("{what}: estimate differs at item {z}")),
        None if a.len() == b.len() => Ok(()),
        None => Err(format!("{what}: domain {} vs {}", a.len(), b.len())),
    }
}

/// An analyst's query: a range `[a, b]` or a φ-quantile.
#[derive(Debug, Clone, Copy)]
pub enum Ask {
    /// Range `[a, b]`.
    Range(u64, u64),
    /// φ-quantile.
    Quantile(f64),
}

/// `n` ranges with log-uniform lengths over `[1, domain]`, each followed
/// every `quantile_every`-th slot by a quantile — deterministic in `seed`.
#[must_use]
pub fn query_set(domain: usize, n: usize, quantile_every: usize, seed: u64) -> Vec<Ask> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5157_4552_5953);
    let log_d = (domain as f64).log2();
    (0..n)
        .map(|i| {
            if quantile_every > 0 && i % quantile_every == quantile_every - 1 {
                Ask::Quantile(f64::from(rng.random_range(1u32..10)) / 10.0)
            } else {
                let len = (2f64.powf(rng.random::<f64>() * log_d) as usize).clamp(1, domain);
                let a = rng.random_range(0..=(domain - len));
                Ask::Range(a as u64, (a + len - 1) as u64)
            }
        })
        .collect()
}

/// Exact counts per item of the values a state has absorbed.
#[derive(Debug, Clone)]
pub struct Truth {
    counts: Vec<u64>,
    prefix: Vec<u64>,
}

impl Truth {
    /// Builds from per-item counts.
    #[must_use]
    pub fn new(counts: Vec<u64>) -> Self {
        let mut prefix = Vec::with_capacity(counts.len() + 1);
        prefix.push(0);
        let mut acc = 0;
        for c in &counts {
            acc += c;
            prefix.push(acc);
        }
        Self { counts, prefix }
    }

    /// Per-item counts of `values` over `domain`.
    #[must_use]
    pub fn count(domain: usize, values: &[u16]) -> Vec<u64> {
        let mut counts = vec![0u64; domain];
        for &v in values {
            counts[usize::from(v)] += 1;
        }
        counts
    }

    /// Total population.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.prefix[self.counts.len()]
    }

    /// True fraction of the population in `[a, b]`.
    #[must_use]
    pub fn range(&self, a: usize, b: usize) -> f64 {
        (self.prefix[b + 1] - self.prefix[a]) as f64 / self.total().max(1) as f64
    }
}

/// Checks range-query accuracy over `asks` against the paper's variance
/// bound: the summed squared error must stay below the summed bound
/// `bound(r)` for a range of length `r`. Returns the ratio of the two.
///
/// # Errors
///
/// When the measured error exceeds the bound.
pub fn check_accuracy(
    what: &str,
    snap: &RangeSnapshot,
    truth: &Truth,
    asks: &[Ask],
    bound: impl Fn(usize) -> f64,
) -> Result<f64, String> {
    if snap.num_reports() != truth.total() {
        return Err(format!(
            "{what}: snapshot holds {} reports, truth {}",
            snap.num_reports(),
            truth.total()
        ));
    }
    let (mut err, mut allowed) = (0.0, 0.0);
    for ask in asks {
        if let Ask::Range(a, b) = *ask {
            let (a, b) = (a as usize, b as usize);
            let e = snap.range(a, b) - truth.range(a, b);
            err += e * e;
            allowed += bound(b - a + 1);
        }
    }
    let ratio = err / allowed;
    if ratio.is_finite() && ratio <= 1.0 {
        Ok(ratio)
    } else {
        Err(format!(
            "{what}: squared range error is {ratio:.3} of the paper's variance bound"
        ))
    }
}

/// Total size in bytes of the regular files in `dir`.
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Copies the log files of `from` into a fresh `to` (leaving out the
/// single-writer lock) — the on-disk image a crash would leave once the
/// log has been synced.
///
/// # Errors
///
/// I/O failures.
pub fn crash_image(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("list {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name();
        if name == "LOCK" || !entry.path().is_file() {
            continue;
        }
        std::fs::copy(entry.path(), to.join(&name)).map_err(|e| format!("copy {name:?}: {e}"))?;
    }
    Ok(())
}

/// Removes a scratch directory, ignoring a missing one.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_check_catches_one_flipped_bit() {
        let want: Vec<u8> = (0..=255u8).collect();
        assert!(check_identical("same", &want, &want).is_ok());
        for byte in [0usize, 17, 255] {
            for bit in 0..8 {
                let mut got = want.clone();
                got[byte] ^= 1 << bit;
                let err = check_identical("flipped", &got, &want).unwrap_err();
                assert!(err.contains(&format!("byte {byte}")), "{err}");
            }
        }
        assert!(check_identical("short", &want[1..], &want).is_err());
    }

    #[test]
    fn query_set_is_deterministic_and_in_domain() {
        let a = query_set(1024, 200, 4, 9);
        let b = query_set(1024, 200, 4, 9);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        for ask in &a {
            if let Ask::Range(lo, hi) = ask {
                assert!(lo <= hi && *hi < 1024);
            }
        }
        assert!(a.iter().any(|q| matches!(q, Ask::Quantile(_))));
    }

    #[test]
    fn truth_ranges() {
        let t = Truth::new(Truth::count(4, &[0, 1, 1, 3]));
        assert_eq!(t.total(), 4);
        assert_eq!(t.range(1, 2), 0.5);
        assert_eq!(t.range(0, 3), 1.0);
    }
}
