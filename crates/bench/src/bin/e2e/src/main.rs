//! `e2e` — the repository's benchmark: end-to-end and per-layer numbers
//! over five named workloads. README.md in this directory defines every
//! metric and says why each workload exists; `BENCHMARK.json` at the
//! repository root declares them.
//!
//! ```text
//! e2e --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! e2e --quick [--seed <u64>]
//! e2e --declarations > BENCHMARK.json
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Any operation whose
//! output differs from the oracle's makes the exit code non-zero.

mod device;
mod harness;
mod host;
mod ingest;
mod layers;
mod metrics;
mod serve;
mod stats;
mod streams;
mod sut;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::Harness;

/// The seed runs use when none is given (README.md also names the seed
/// held out from development).
const DEFAULT_SEED: u64 = 20_260_927;

/// What the command line asks for.
enum Mode {
    /// `--workload <name>`: one measured run.
    Run { workload: String, trace: bool },
    /// `--quick`: the self-check.
    Quick,
    /// `--declarations`: print the text of `BENCHMARK.json`.
    Declarations,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut trace, mut quick, mut declarations) = (None, false, false, false);
    let mut seed = DEFAULT_SEED;
    let mut seconds = f64::from(metrics::RUN_SECONDS);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--declarations" => declarations = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let value = args.next().ok_or(format!("{flag} needs a value"))?;
                let bad = |what: &str| format!("{flag} {value}: expected {what}");
                match flag.as_str() {
                    "--workload" => workload = Some(value),
                    "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
                    "--seconds" => {
                        seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                        if !(seconds > 0.0 && seconds <= 60.0) {
                            return Err(bad("more than 0 and at most 60 seconds"));
                        }
                    }
                    _ => {
                        trace = match value.as_str() {
                            "0" => false,
                            "1" => true,
                            _ => return Err(bad("0 or 1")),
                        }
                    }
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let mode = match (workload, quick, declarations) {
        (Some(workload), false, false) => Mode::Run { workload, trace },
        (None, true, false) => Mode::Quick,
        (None, false, true) => Mode::Declarations,
        _ => return Err("give one of --workload <name>, --quick, --declarations".into()),
    };
    Ok(Args {
        mode,
        seed,
        seconds,
    })
}

/// Where a traced run writes its spans: the cargo target directory.
fn trace_path(workload: &str) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(dir).join(format!("e2e-trace-{workload}.jsonl"))
}

/// Runs one workload.
fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<harness::Outcome, String> {
    let mut h = Harness::new(seed, seconds, trace, quick);
    match workload {
        "host_scan" => host::run(&mut h, &host::SCAN),
        "host_join" => host::run(&mut h, &host::JOIN),
        "device_sim" => device::run(&mut h),
        "serve_mixed" => serve::run(&mut h),
        "ingest" => ingest::run(&mut h),
        _ => {
            let known: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("unknown workload {workload}; one of {known:?}"));
        }
    }
    let path = trace_path(workload);
    h.finish(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn end_to_end_line(o: &harness::Outcome) -> Result<String, String> {
    let decls = metrics::end_to_end();
    metrics::render_result(o.attempted, o.failed, &decls, &o.end_to_end, false)
}

fn per_layer_line(o: &harness::Outcome) -> Result<String, String> {
    let decls = metrics::per_layer();
    metrics::render_result(o.attempted, o.failed, &decls, &o.layers, true)
}

/// `--quick`: every workload once, traced, at a tenth of the rows with one
/// untraced and one traced pass — checks the harness, the comparison with
/// the oracle and the printed names against the declarations (and the
/// declarations against `BENCHMARK.json` when run from the repository
/// root). It measures nothing.
fn quick(seed: u64) -> Result<bool, String> {
    metrics::check_declarations(&metrics::end_to_end(), &metrics::per_layer())?;
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) if text != metrics::render_benchmark_json() => {
            return Err("BENCHMARK.json differs from the harness's declarations".into());
        }
        Ok(_) => println!("BENCHMARK.json matches the declarations"),
        Err(_) => println!("no BENCHMARK.json in the working directory; not compared"),
    }
    let mut all_passed = true;
    for (workload, _) in metrics::WORKLOADS {
        let outcome = run_workload(workload, seed, 1.0, true, true)?;
        println!("{workload} end_to_end {}", end_to_end_line(&outcome)?);
        println!("{workload} per_layer {}", per_layer_line(&outcome)?);
        all_passed &= outcome.passed();
    }
    Ok(all_passed)
}

fn main() -> ExitCode {
    let passed = parse_args(std::env::args().skip(1)).and_then(|args| match args.mode {
        Mode::Declarations => {
            print!("{}", metrics::render_benchmark_json());
            Ok(true)
        }
        Mode::Quick => quick(args.seed).inspect(|&passed| {
            println!("quick: {}", if passed { "ok" } else { "FAILED" });
        }),
        Mode::Run { workload, trace } => {
            let outcome = run_workload(&workload, args.seed, args.seconds, trace, false)?;
            let line = if trace {
                per_layer_line(&outcome)
            } else {
                end_to_end_line(&outcome)
            }?;
            println!("{line}");
            Ok(outcome.passed())
        }
    });
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}
