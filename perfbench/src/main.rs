//! End-to-end benchmark of the pkgrec front door.
//!
//! ```text
//! perfbench --workload <elicit|storefront|spill> --seed <n> --seconds <s>
//!           --trace <0|1> [--workdir <dir>]
//! ```
//!
//! `--trace 0` serves the workload through a `pkgrec-server` over a durable
//! store, checks every output after the timed phase and prints the
//! end-to-end metrics; `--trace 1` runs the same operation sequence three
//! ways (wire, in-process store, recommenders driven directly), checks that
//! all three agree and prints the per-layer metrics.  The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.  Stores live under `--workdir` and are removed at exit; the
//! traced run leaves its spans there.  See README.md.

mod backends;
mod checks;
mod drive;
mod e2e;
mod layers;
mod oracle;
mod procfs;
mod serving;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use drive::{OpCounts, Verb};

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut workdir = PathBuf::from("perfbench/work");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::Workload::named(&value).ok_or_else(|| {
                    format!(
                        "unknown workload {value:?}; choose one of {:?}",
                        workload::NAMES
                    )
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            "--workdir" => workdir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
        workdir,
    })
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// What a run prints.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub counts: OpCounts,
    /// The first failed output check, naming its session.
    pub failure: Option<String>,
}

fn print(outcome: &Outcome) {
    println!("{:<8} {:>9} {:>6}", "verb", "attempted", "failed");
    for verb in Verb::ALL {
        let (attempted, failed) = outcome.counts.of(verb);
        println!("{:<8} {attempted:>9} {failed:>6}", verb.name());
    }
    for m in &outcome.metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failure.is_none(),
        outcome.counts.attempted(),
        outcome.counts.failed(),
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let run_dir = args
        .workdir
        .join(format!("run-{}-{}", args.workload.name, std::process::id()));
    let result = if args.trace {
        layers::run(&args, &run_dir)
    } else {
        e2e::run(&args, &run_dir)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(outcome) => {
            print(&outcome);
            match &outcome.failure {
                None => ExitCode::SUCCESS,
                Some(failure) => {
                    eprintln!("perfbench: check failed: {failure}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}
