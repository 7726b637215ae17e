//! `reproduce` — regenerates every table and figure of the paper's
//! evaluation.
//!
//! ```text
//! reproduce [experiment...] [--smoke]
//!
//!   <name>      one entry of `EXPERIMENTS` below (an unknown name
//!               prints them all)
//!   all         every experiment, in paper order (default)
//!   --smoke     the gated experiments at their CI size (any other
//!               `--` flag is an error)
//!
//! environment (unset keeps the default; a value that does not parse, or
//! that no experiment can run with, is an error, never the default):
//!   CRYSTAL_MICRO_LOG2N (22)  CRYSTAL_FACT_SCALE (0.02)
//!   CRYSTAL_THREADS (cores)   CRYSTAL_REPS (3)
//! ```
//!
//! Every experiment returns the checks it pins (results are asserted
//! byte-identical to the oracle as they run); `verdict` prints them against
//! their bands and a miss makes the exit code non-zero. `--smoke` shrinks
//! the gated experiments to their CI size. `EXPERIMENTS` is the one list:
//! an experiment is runnable, listed and part of `all` by being in it.

use crystal_bench::check::{verdict, Check};
use crystal_bench::util::Config;
use crystal_bench::{
    ablation, calibration, contention, fusion, kernels, micro, overlap, scorecard, sharded,
    ssb_exp, stream, tables,
};

/// An experiment's name, whether it pins bands (CI's `gates` matrix runs
/// exactly those, with `--smoke`), and its entry point: `(cfg, smoke) ->
/// the checks the experiment pins`.
type Experiment = (&'static str, bool, fn(&Config, bool) -> Vec<Check>);

/// Every experiment, in paper order — the order `all` runs them in.
const EXPERIMENTS: &[Experiment] = &[
    ("table2", false, tables::table2), // hardware specifications (Table 2)
    ("fig9", false, micro::fig9),      // selection tile-size sweep (Figure 9)
    ("tile-model", false, micro::tile_model), // Crystal vs independent threads (Section 3.3)
    ("fig10", false, micro::fig10),    // projection microbenchmark (Figure 10)
    ("fig12", false, micro::fig12),    // selection microbenchmark (Figure 12)
    ("fig13", false, micro::fig13),    // hash-join microbenchmark (Figure 13)
    ("fig14", false, micro::fig14),    // radix partitioning passes (Figure 14)
    ("sort", false, micro::sort_exp),  // full radix sorts (Section 4.4)
    ("fig3", false, ssb_exp::fig3),    // coprocessor vs MonetDB vs Hyper (Figure 3)
    ("fig16", false, ssb_exp::fig16),  // SSB, four engines (Figure 16)
    ("case-study", false, ssb_exp::case_study), // SSB q2.1 model breakdown (Section 5.3)
    ("table3", false, tables::table3), // cost comparison (Table 3, Section 5.4)
    ("ablation-compression", false, ablation::compression), // packed columns (Section 5.5)
    ("query-stream", false, stream::query_stream), // cold vs warm DeviceSession residency
    ("contention", true, contention::contention), // multi-tenant serving vs a serial replay
    ("fusion", true, fusion::fusion),  // fused megakernel vs per-operator kernels
    ("sharded", true, sharded::sharded), // zone-map pruning, eviction-heavy replay
    ("overlap", true, overlap::overlap), // copy/compute stream pipelining
    ("calibration", true, calibration::calibration), // calibrated vs static placement
    ("microbench", true, kernels::microbench), // wall-clock kernels; BENCH_kernels.json
    ("scorecard", true, scorecard::scorecard), // every headline number vs its band
];

/// The experiments `args` name, in the order named (`all`, or no name, is
/// every one), and whether `--smoke` is among them — or, for an argument
/// that names no experiment or flag, the message listing those that exist.
/// Everything resolves before anything runs: a typo in the last argument
/// costs none before it.
fn resolve(args: &[String]) -> Result<(Vec<&'static Experiment>, bool), String> {
    let (flags, mut wants): (Vec<&str>, Vec<&str>) = args
        .iter()
        .map(String::as_str)
        .partition(|a| a.starts_with("--"));
    if let Some(flag) = flags.iter().find(|&&f| f != "--smoke") {
        return Err(format!("unknown flag: {flag}\nknown: --smoke"));
    }
    if wants.is_empty() {
        wants.push("all");
    }
    let mut runs = Vec::new();
    for want in wants {
        let before = runs.len();
        runs.extend(EXPERIMENTS.iter().filter(|e| want == "all" || e.0 == want));
        if runs.len() == before {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
            let known = known.join(" ");
            return Err(format!("unknown experiment: {want}\nknown: {known} all"));
        }
    }
    Ok((runs, flags.contains(&"--smoke")))
}

fn main() {
    let cfg = Config::from_env().unwrap_or_else(|e| {
        eprintln!("reproduce: {e}");
        std::process::exit(2);
    });
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (runs, smoke) = resolve(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    println!("crystal-rs experiment harness");
    println!(
        "host config: micro N = 2^{}, SSB SF 20 fact sample = {}, threads = {}, reps = {}",
        cfg.micro_log2n, cfg.fact_scale, cfg.threads, cfg.reps
    );
    println!("paper-scale columns use Table 2 hardware and paper workload sizes.");

    let mut held = true;
    for &(name, _, run) in runs {
        held &= verdict(name, &run(&cfg, smoke));
    }
    if !held {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::{resolve, EXPERIMENTS};

    fn names(args: &[&str]) -> Result<(Vec<&'static str>, bool), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        resolve(&args).map(|(runs, smoke)| (runs.iter().map(|r| r.0).collect(), smoke))
    }

    /// A known flag is taken, a bare name selects its experiment, and a
    /// misspelt flag is an error that lists the flags, never a full-size
    /// run without it.
    #[test]
    fn arguments_resolve_to_experiments_and_flags() {
        assert_eq!(
            names(&["microbench", "--smoke"]),
            Ok((vec!["microbench"], true))
        );
        assert_eq!(names(&["table2"]), Ok((vec!["table2"], false)));
        let all: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert_eq!(names(&[]), Ok((all.clone(), false)));
        assert_eq!(names(&["all", "--smoke"]), Ok((all, true)));
        let err = names(&["microbench", "--smok"]).unwrap_err();
        assert!(
            err.contains("unknown flag: --smok\n") && err.contains("--smoke"),
            "{err}"
        );
        let err = names(&["ablations"]).unwrap_err();
        assert!(err.starts_with("unknown experiment: ablations"), "{err}");
    }

    /// CI's `gates` matrix runs `reproduce <experiment> --smoke` for exactly
    /// the experiments this table marks as gated.
    #[test]
    fn ci_gates_are_the_gated_experiments() {
        let ci = include_str!("../../../../.github/workflows/ci.yml");
        let mut in_ci: Vec<&str> = ci
            .lines()
            .filter_map(|l| l.trim().strip_prefix("- experiment: "))
            .collect();
        let mut gated: Vec<&str> = EXPERIMENTS.iter().filter(|e| e.1).map(|e| e.0).collect();
        in_ci.sort_unstable();
        gated.sort_unstable();
        assert_eq!(in_ci, gated);
    }

    /// EXPERIMENTS.md's subcommand table lists exactly the experiments
    /// `EXPERIMENTS` runs (its first column, one backticked name a row),
    /// and marks gated exactly those this table marks.
    #[test]
    fn experiments_md_lists_every_subcommand() {
        let md = include_str!("../../../../EXPERIMENTS.md");
        let table = md
            .split("\n## ")
            .find(|s| s.starts_with("Subcommands"))
            .expect("EXPERIMENTS.md has a `## Subcommands` section");
        let rows: Vec<Vec<&str>> = table
            .lines()
            .filter_map(|l| l.strip_prefix("| `"))
            .map(|l| l.split('|').map(str::trim).collect())
            .collect();
        let mut listed: Vec<(&str, bool)> = rows
            .iter()
            .map(|r| (r[0].trim_end_matches('`'), r[2] == "yes"))
            .collect();
        let mut known: Vec<(&str, bool)> = EXPERIMENTS.iter().map(|e| (e.0, e.1)).collect();
        listed.sort_unstable();
        known.sort_unstable();
        assert_eq!(listed, known);
    }
}
