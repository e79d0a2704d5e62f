//! Command-line entry of the benchmark:
//!
//! ```text
//! ldp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's parameters as a `# stamp` line, then the result line
//! (one JSON object) last. Bad arguments exit 2 with no result line; a
//! failed run, a failed correctness check included, prints
//! `"correct": false` and exits 1.

use std::process::ExitCode;
use std::time::Duration;

use ldp_perfbench::{run_workload, RunConfig, Scale, WORKLOADS};

fn parse() -> Result<(String, RunConfig), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok((
        workload,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            scale: Scale::Full,
            inject_faults: false,
            // Scratch logs and span files stay inside the working directory.
            out_dir: ".perfbench_out".into(),
        },
    ))
}

fn main() -> ExitCode {
    let (workload, config) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run_workload(&workload, &config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return ExitCode::from(1);
        }
    };
    println!("# stamp {}", outcome.stamp_json());
    if config.trace {
        let path = config
            .out_dir
            .join(format!("spans-{workload}-seed{}.jsonl", config.seed));
        if let Err(e) = ldp_perfbench::trace::write_spans(&path, &outcome.spans) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!(
            "# spans {} written to {}",
            outcome.spans.len(),
            path.display()
        );
    }
    match outcome.result_line(config.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::from(1)
        }
    }
}
