//! The DynaStar benchmark: one seeded, single-threaded, closed-loop
//! simulation per named workload, reported on two clocks.
//!
//! ```text
//! perfbench --workload <tpcc|social|churn> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` reruns the same
//! window with the counting allocator and spans on and prints the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`, and any
//! failed correctness or validity check exits with status 1. See
//! `perfbench/README.md` for the workloads, metrics and checks.

mod alloc;
mod checks;
mod layers;
mod metrics;
mod probe;
mod run;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::Report;
use workloads::Kind;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <tpcc|social|churn> --seed N --seconds S \
                     --trace <0|1> [--out-dir DIR]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(Kind::parse(value)?),
            "--seed" => seed = Some(number()?),
            "--seconds" if number()? > 0 => seconds = Some(number()?),
            "--seconds" => return Err("--seconds must be positive".into()),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report: Report =
        run::run(args.workload, args.seed, args.seconds, args.trace, &args.out_dir);
    report.finish(args.trace);
    for line in &report.notes {
        eprintln!("{line}");
    }
    for failure in &report.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    println!("{}", report.to_json());
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv("--workload churn --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Kind::Churn);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload tpcc --seed 1 --seconds 0 --trace 0",
            "--workload tpcc --seed 1 --seconds 1 --trace 2",
            "--workload tpcc --seed 1 --seconds 1",
            "--workload tpcc --seed x --seconds 1 --trace 0",
            "--workload tpcc --seed 1 --seconds 1 --trace 0 --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted: {bad}");
        }
    }
}
