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
//! environment (unset keeps the default; a value that does not parse is
//! an error, never the default):
//!   CRYSTAL_MICRO_LOG2N (22)  CRYSTAL_SF (1)  CRYSTAL_FACT_SCALE (0.02)
//!   CRYSTAL_THREADS (cores)   CRYSTAL_REPS (3)
//! ```
//!
//! Experiments marked `[gate]` pin bands (results asserted byte-identical
//! to the oracle as they run) and make the exit code non-zero when one is
//! missed; `--smoke` shrinks them to their CI size. `EXPERIMENTS` is the
//! one list: an experiment is runnable, listed and part of `all` by being
//! in it.

use crystal_bench::util::Config;
use crystal_bench::{
    ablation, calibration, contention, fusion, kernels, micro, overlap, scorecard, sharded,
    ssb_exp, stream, tables,
};

/// `(cfg, smoke) -> every pinned band held`.
type Run = fn(&Config, bool) -> bool;

/// Adapts an experiment that pins nothing.
macro_rules! ungated {
    ($run:expr) => {
        |cfg, _| {
            $run(cfg);
            true
        }
    };
}

/// Every experiment, in paper order — the order `all` runs them in.
/// `[gate]` marks the ones that pin bands.
const EXPERIMENTS: &[(&str, Run)] = &[
    ("table2", ungated!(|_| tables::table2())), // hardware specifications (Table 2)
    ("fig9", ungated!(micro::fig9)),            // selection tile-size sweep (Figure 9)
    ("tile-model", ungated!(micro::tile_model)), // Crystal vs independent threads (Section 3.3)
    ("fig10", ungated!(micro::fig10)),          // projection microbenchmark (Figure 10)
    ("fig12", ungated!(micro::fig12)),          // selection microbenchmark (Figure 12)
    ("fig13", ungated!(micro::fig13)),          // hash-join microbenchmark (Figure 13)
    ("fig14", ungated!(micro::fig14)),          // radix partitioning passes (Figure 14)
    ("sort", ungated!(micro::sort_exp)),        // full radix sorts (Section 4.4)
    ("fig3", ungated!(ssb_exp::fig3)),          // coprocessor vs MonetDB vs Hyper (Figure 3)
    ("fig16", ungated!(ssb_exp::fig16)),        // SSB, four engines (Figure 16)
    ("case-study", ungated!(ssb_exp::case_study)), // SSB q2.1 model breakdown (Section 5.3)
    // Cost comparison (Table 3, Section 5.4). The Figure 16 mean feeds it;
    // standalone it uses the paper's 25x headline.
    ("table3", ungated!(|_| tables::table3(25.0))),
    ("ablation-radix-join", ungated!(ablation::radix_join)),
    ("ablation-join-order", ungated!(ablation::join_order)),
    ("ablation-multi-gpu", ungated!(ablation::multi_gpu)),
    ("ablation-agg", ungated!(ablation::agg_groups)), // group-by fan-out
    ("ablation-compression", ungated!(ablation::compression)),
    ("ablation-hybrid", ungated!(ablation::hybrid)),
    ("ablation-skew", ungated!(ablation::skew)),
    ("query-stream", ungated!(stream::query_stream)), // cold vs warm DeviceSession residency
    ("contention", contention::contention), // [gate] multi-tenant serving vs a serial replay
    ("fusion", fusion::fusion),             // [gate] fused megakernel vs per-operator kernels
    ("sharded", sharded::sharded),          // [gate] zone-map pruning, eviction-heavy replay
    ("overlap", overlap::overlap),          // [gate] copy/compute stream pipelining
    ("calibration", calibration::calibration), // [gate] calibrated vs static placement
    ("microbench", kernels::microbench),    // [gate] wall-clock kernels; BENCH_kernels.json
    ("whatif", ungated!(|_| tables::whatif())), // gains on a newer CPU/GPU pairing (Section 5.4)
    ("scorecard", |cfg, _| scorecard::scorecard(cfg)), // [gate] every headline number vs its band
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
    let mut runs: Vec<Run> = Vec::new();
    for want in wants {
        let before = runs.len();
        runs.extend(EXPERIMENTS.iter().filter_map(|&(name, run)| {
            let selected = match want {
                "all" => true,
                "ablations" => name.starts_with("ablation-"),
                _ => name == want,
            };
            selected.then_some(run)
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
    for run in runs {
        held &= run(&cfg, smoke);
    }
    if !held {
        std::process::exit(1);
    }
}
