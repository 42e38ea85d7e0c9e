//! Benchmark entry point.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload (`fit`, `stream` or `serve`) from the root of a
//! checkout and prints, as the last line of standard output, one JSON
//! object: `correct`, `attempted`, `failed` and the `metrics` of the run
//! (end-to-end with `--trace 0`, per-layer with `--trace 1`). Scratch files
//! live in `.perfbench_tmp/run-<pid>` and are removed on exit. Exits
//! non-zero if any output of the program was wrong.

use perfbench::fit::FitParams;
use perfbench::report::Outcome;
use perfbench::rundir::RunDir;
use perfbench::serve::ServeParams;
use perfbench::stream::StreamParams;
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let result = match args.workload.as_str() {
        "fit" => perfbench::fit::run(&FitParams::standard(seconds), seed, trace, dir),
        "stream" => perfbench::stream::run(&StreamParams::standard(seconds), seed, trace, dir),
        "serve" => perfbench::serve::run(&ServeParams::standard(seconds), seed, trace, dir),
        other => return Err(format!("unknown workload {other} (fit, stream or serve)")),
    };
    result.map_err(|e| format!("{} workload failed: {e}", args.workload))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = RunDir::create(Path::new(".perfbench_tmp"))
        .map_err(|e| format!("cannot create the run directory: {e}"))
        .and_then(|dir| run(&args, dir.path()));
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in outcome.errors() {
        eprintln!("perfbench: FAILED: {e}");
    }
    match outcome.to_json(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
