//! End-to-end benchmark of the HyFlexPIM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `accuracy_pipeline`, `overload_fleet`, `decode_kv`,
//! `cluster_poisson` (see `NOTES.md` for why each exists and what every
//! metric means). All inputs derive from `--seed`. A run sets up several
//! times, then repeats whole passes of the workload for `--seconds` and
//! reports medians. With `--trace 0` it prints the end-to-end metrics,
//! measured with tracing off; with `--trace 1` it spends half the budget
//! untraced and half traced, and prints the per-layer metrics. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

#![forbid(unsafe_code)]

mod accuracy;
mod report;
mod serving;
mod timed;

use report::{Rows, Tally};
use std::process::ExitCode;
use std::time::Duration;

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const USAGE: &str = "usage: e2ebench --workload <accuracy_pipeline|overload_fleet|decode_kv|\
                     cluster_poisson> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be a positive number of seconds"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let mut rows = Rows::default();
    match args.workload.as_str() {
        "accuracy_pipeline" => accuracy::run(&args, &mut tally, &mut rows),
        "overload_fleet" => serving::run(serving::Kind::Overload, &args, &mut tally, &mut rows),
        "decode_kv" => serving::run(serving::Kind::Decode, &args, &mut tally, &mut rows),
        "cluster_poisson" => serving::run(serving::Kind::Cluster, &args, &mut tally, &mut rows),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    tally.print(args.trace, &rows);
    ExitCode::SUCCESS
}
