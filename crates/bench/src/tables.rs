//! Table 2 (hardware specifications) and Table 3 (cost comparison).

use crystal_hardware::bytes::{fmt_bw, fmt_bytes};
use crystal_hardware::{bandwidth_ratio, intel_i7_6900, nvidia_v100};
use crystal_models::cost::{cost_effectiveness, table3_purchase, table3_renting};

use crate::check::Check;
use crate::util::{ratio, Config, Report};

/// Table 2: the modeled hardware.
pub fn table2(_cfg: &Config, _smoke: bool) -> Vec<Check> {
    let c = intel_i7_6900();
    let g = nvidia_v100();
    let mut report = Report::new("table2_hardware", &["spec", "cpu", "gpu"]);
    report.row(vec!["model".into(), c.name.clone(), g.name.clone()]);
    report.row(vec![
        "cores".into(),
        format!("{} ({} with SMT)", c.cores, c.threads()),
        g.total_cores().to_string(),
    ]);
    report.row(vec![
        "memory_capacity".into(),
        fmt_bytes(c.mem_capacity),
        fmt_bytes(g.mem_capacity),
    ]);
    report.row(vec![
        "l1_size".into(),
        format!("{}/core", fmt_bytes(c.l1_size)),
        "16KB/SM".into(),
    ]);
    report.row(vec![
        "l2_size".into(),
        format!("{}/core", fmt_bytes(c.l2_size)),
        format!("{} total", fmt_bytes(g.l2_size)),
    ]);
    report.row(vec![
        "l3_size".into(),
        format!("{} total", fmt_bytes(c.l3_size)),
        "-".into(),
    ]);
    report.row(vec!["read_bw".into(), fmt_bw(c.read_bw), fmt_bw(g.read_bw)]);
    report.row(vec![
        "write_bw".into(),
        fmt_bw(c.write_bw),
        fmt_bw(g.write_bw),
    ]);
    report.row(vec!["l2_bw".into(), "-".into(), fmt_bw(g.l2_bw)]);
    report.row(vec!["l3_bw".into(), fmt_bw(c.l3_bw), "-".into()]);
    report.row(vec!["l1/smem_bw".into(), "-".into(), fmt_bw(g.l1_smem_bw)]);
    report.finish();
    println!("bandwidth ratio: {}", ratio(bandwidth_ratio(&c, &g)));
    Vec::new()
}

/// Table 3 + Section 5.4: purchase/renting costs and cost effectiveness
/// at the paper's 25x headline mean speedup (Figure 16 reproduces its own).
pub fn table3(_cfg: &Config, _smoke: bool) -> Vec<Check> {
    let mean_speedup = 25.0;
    let rent = table3_renting();
    let buy = table3_purchase();
    let mut report = Report::new("table3_cost", &["metric", "cpu", "gpu"]);
    report.row(vec![
        "purchase_cost".into(),
        format!("${:.0}-{:.0}K", buy.cpu_low / 1e3, buy.cpu_high / 1e3),
        format!("$CPU + {:.1}K", buy.gpu_addon / 1e3),
    ]);
    report.row(vec![
        "renting_cost".into(),
        format!("${}/hour", rent.cpu_per_hour),
        format!("${}/hour", rent.gpu_per_hour),
    ]);
    report.finish();
    println!("renting cost ratio:   {}", ratio(rent.cost_ratio()));
    println!(
        "purchase ratio (high-end): {}",
        ratio(buy.cost_ratio_high_end())
    );
    println!(
        "cost effectiveness at {} speedup: {} (paper: ~4x)",
        ratio(mean_speedup),
        ratio(cost_effectiveness(mean_speedup, rent.cost_ratio()))
    );
    Vec::new()
}
