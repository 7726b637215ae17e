//! `reproduce` — regenerates every table and figure of the paper's
//! evaluation.
//!
//! ```text
//! reproduce [experiment...] [--smoke]
//!
//!   <name>      one entry of `EXPERIMENTS` below (an unknown name
//!               prints them all)
//!   ablations   every ablation-* experiment
//!   all         every experiment, in paper order (default)
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

/// `(cfg, smoke) -> the checks the experiment pins`.
type Run = fn(&Config, bool) -> Vec<Check>;

/// Every experiment, in paper order — the order `all` runs them in: its
/// name, whether it pins bands (CI's `gates` matrix runs exactly those,
/// with `--smoke`), and its entry point.
const EXPERIMENTS: &[(&str, bool, Run)] = &[
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
    ("ablation-radix-join", false, ablation::radix_join),
    ("ablation-join-order", false, ablation::join_order),
    ("ablation-multi-gpu", false, ablation::multi_gpu),
    ("ablation-agg", false, ablation::agg_groups), // group-by fan-out
    ("ablation-compression", false, ablation::compression),
    ("ablation-hybrid", false, ablation::hybrid),
    ("ablation-skew", false, ablation::skew),
    ("query-stream", false, stream::query_stream), // cold vs warm DeviceSession residency
    ("contention", true, contention::contention),  // multi-tenant serving vs a serial replay
    ("fusion", true, fusion::fusion),              // fused megakernel vs per-operator kernels
    ("sharded", true, sharded::sharded),           // zone-map pruning, eviction-heavy replay
    ("overlap", true, overlap::overlap),           // copy/compute stream pipelining
    ("calibration", true, calibration::calibration), // calibrated vs static placement
    ("microbench", true, kernels::microbench),     // wall-clock kernels; BENCH_kernels.json
    ("whatif", false, tables::whatif),             // gains on a newer CPU/GPU pairing (Section 5.4)
    ("scorecard", true, scorecard::scorecard),     // every headline number vs its band
];

fn main() {
    let cfg = Config::from_env().unwrap_or_else(|e| {
        eprintln!("reproduce: {e}");
        std::process::exit(2);
    });
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut wants: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if wants.is_empty() {
        wants.push("all");
    }
    // Resolve every name before running anything: a typo in the last
    // argument should not cost the experiments before it.
    let mut runs: Vec<(&str, Run)> = Vec::new();
    for want in wants {
        let before = runs.len();
        runs.extend(EXPERIMENTS.iter().filter_map(|&(name, _, run)| {
            let selected = match want {
                "all" => true,
                "ablations" => name.starts_with("ablation-"),
                _ => name == want,
            };
            selected.then_some((name, run))
        }));
        if runs.len() == before {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
            eprintln!("unknown experiment: {want}");
            eprintln!("known: {} ablations all", known.join(" "));
            std::process::exit(2);
        }
    }

    println!("crystal-rs experiment harness");
    println!(
        "host config: micro N = 2^{}, SSB SF 20 fact sample = {}, threads = {}, reps = {}",
        cfg.micro_log2n, cfg.fact_scale, cfg.threads, cfg.reps
    );
    println!("paper-scale columns use Table 2 hardware and paper workload sizes.");

    let mut held = true;
    for (name, run) in runs {
        held &= verdict(name, &run(&cfg, smoke));
    }
    if !held {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

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
}
