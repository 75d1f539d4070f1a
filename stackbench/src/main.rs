//! Whole-stack benchmark of the RiF reproduction.
//!
//! ```text
//! stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`), it runs one workload for about `--seconds`
//! and prints the end-to-end metrics; traced (`--trace 1`), it runs every
//! layer, the live service included, once untraced and once with spans
//! and prints the per-layer metrics. The last line of standard output is the JSON result; the exit
//! code is 0 only when every self-check passed. See README.md.

mod common;
mod mc;
mod serve;
mod sim;
mod traced;

use std::process::ExitCode;
use std::time::Duration;

use common::{peak_rss_mb, Checks, Metrics, Tally};
use sim::SimKind;

/// The workloads, in the order BENCHMARK.json lists them.
const WORKLOADS: [&str; 3] = ["sim-ali124", "sim-hybrid-mixed", "ldpc-mc"];

/// The end-to-end metrics every untraced run prints, in this order.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_per_s",
    "read_mean_us",
    "read_p90_us",
    "write_mean_us",
    "peak_rss_mb",
];

/// A run still going after this long exits without a result.
const RUN_LIMIT: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: stackbench --workload <sim-ali124|sim-hybrid-mixed|ldpc-mc> \
--seed <n> --seconds <1-60> --trace <0|1>";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(bad)?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds {s} outside 1-60"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
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

fn run(a: &Args, m: &mut Metrics, checks: &mut Checks) -> std::io::Result<Tally> {
    if a.trace {
        return traced::run(a.seed, a.seconds, m, checks);
    }
    let tally = match a.workload {
        "sim-ali124" => sim::run(SimKind::Ali124, a.seed, a.seconds, m, checks),
        "sim-hybrid-mixed" => sim::run(SimKind::HybridMixed, a.seed, a.seconds, m, checks),
        "ldpc-mc" => mc::run(a.seed, a.seconds, m, checks),
        other => unreachable!("parse_args accepted {other}"),
    };
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    let names: Vec<&str> = m.names().collect();
    let mut expected = END_TO_END.to_vec();
    let mut got = names.clone();
    expected.sort_unstable();
    got.sort_unstable();
    checks.require(got == expected, format!("metric names {names:?}"));
    Ok(tally)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Nothing may hang the benchmark: past the limit the process exits
    // with an error and prints no result.
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        eprintln!("stackbench: run exceeded {RUN_LIMIT:?}; giving up");
        std::process::exit(3);
    });

    let mut m = Metrics::default();
    let mut checks = Checks::default();
    let tally = match run(&args, &mut m, &mut checks) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("stackbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    checks.require(m.all_finite(), "a metric is not a finite number");
    checks.require(tally.attempted > 0, "nothing was attempted");
    let correct = checks.passed();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        m.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
