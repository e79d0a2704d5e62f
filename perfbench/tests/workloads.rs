//! The benchmark's own tests: every workload at tiny sizes prints every
//! named metric with its unit, the negative controls fail where they
//! must, and `BENCHMARK.json` lists exactly the metrics the code prints.

use std::path::PathBuf;
use std::time::Duration;

use ldp_perfbench::common::{check_identical, state_bytes};
use ldp_perfbench::metrics::{END_TO_END, PER_LAYER};
use ldp_perfbench::{run_workload, RunConfig, Scale, WORKLOADS};

fn tiny(trace: bool, inject_faults: bool) -> RunConfig {
    RunConfig {
        seed: 5,
        seconds: Duration::from_millis(1500),
        trace,
        scale: Scale::Tiny,
        inject_faults,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests"),
    }
}

fn metric_names(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("\"value\"")
        .zip(metrics.split("\"unit\": \"").skip(1))
        .map(|(before, unit)| {
            let name = before
                .rsplit("\": {")
                .nth(1)
                .expect("name")
                .rsplit('"')
                .next()
                .expect("name");
            (
                name.to_string(),
                unit.split('"').next().expect("unit").to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let outcome = run_workload(workload, &tiny(trace, false))
                .unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"));
            let line = outcome
                .result_line(trace)
                .unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"));
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
            let want: Vec<(String, String)> = (if trace { PER_LAYER } else { END_TO_END })
                .iter()
                .map(|(n, u, _)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(metric_names(&line), want, "{workload} (trace {trace})");
            if trace {
                assert!(
                    !outcome.spans.is_empty(),
                    "{workload}: a traced run records spans"
                );
            }
            for key in ["seed", "hw_threads", "commit", "sizes", "fsync"] {
                assert!(
                    outcome.stamp.iter().any(|(k, _)| *k == key),
                    "{workload}: stamp lacks {key}"
                );
            }
        }
    }
}

#[test]
fn refused_operations_show_in_the_failure_ratio() {
    // A malformed REPORT batch and an out-of-domain query on every
    // workload, plus a stale-epoch frame on the windowed one. They go
    // through the sessions' own counting path, and the correctness gate
    // still passes: a refused operation leaves no trace in the state.
    for (workload, refused) in [
        ("haar_window_analyst", 3),
        ("hh_mixed_inmem", 2),
        ("hh_durable_ingest", 2),
    ] {
        let outcome = run_workload(workload, &tiny(false, true))
            .unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert_eq!(outcome.failed, refused, "{workload}");
        assert!(outcome.failure_ratio() > 0.0, "{workload}");
        let line = outcome.result_line(false).expect("result line");
        assert!(line.contains(&format!("\"failed\": {refused},")), "{line}");
    }
}

#[test]
fn identity_check_fails_on_one_flipped_bit_of_a_real_state() {
    let inputs = ldp_perfbench::hh::inputs(3, 1, 2_000);
    let mut state = inputs.prototype.clone();
    ldp_perfbench::hh::absorb_frames(&mut state, inputs.streams[0].frame_span(0, 2_000))
        .expect("absorb");
    let want = state_bytes(&state);
    check_identical("same state", &state_bytes(&state.clone()), &want).expect("identical");
    for byte in [0, want.len() / 2, want.len() - 1] {
        let mut flipped = want.clone();
        flipped[byte] ^= 0x10;
        assert!(check_identical("flipped reference", &state_bytes(&state), &flipped).is_err());
    }
    // One more absorbed report is also caught.
    let mut more = state.clone();
    ldp_perfbench::hh::absorb_frames(&mut more, inputs.streams[0].frame_span(0, 1))
        .expect("absorb");
    assert!(check_identical("one extra report", &state_bytes(&more), &want).is_err());
}

fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"));
    let rest = &json[start..];
    let end = rest.find(']').expect("list end");
    &rest[..end]
}

#[test]
fn benchmark_json_lists_what_the_code_prints() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json =
        std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark directory");
    for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let body = section(&json, key);
        assert_eq!(body.matches("\"name\"").count(), list.len(), "{key} length");
        for (name, unit, better) in list {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(body.contains(&entry), "{key} lacks {entry}");
        }
    }
    let workloads = section(&json, "workloads");
    assert_eq!(workloads.matches("\"name\"").count(), WORKLOADS.len());
    for w in WORKLOADS {
        assert!(
            workloads.contains(&format!("\"name\": \"{w}\"")),
            "workloads lack {w}"
        );
    }
}
