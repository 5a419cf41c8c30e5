//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one benchmark workload for about `--seconds` of measurement and
//! prints its metadata, every metric with its unit, the output checks, and
//! as the last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones. Exit status: 0 with a result, 1 when the run could
//! not produce one, 2 for bad arguments.

use perfbench::{run, Workload, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <srv_footprint|crypto_hot|quick_suite> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = Workload::named(&name, seed).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (one of {})",
            WORKLOADS.join(", ")
        )
    })?;
    Ok(Args {
        workload,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args.workload, args.seconds, args.trace) {
        Ok(report) => print!("{}", report.render()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
