//! Selection model (Section 4.2) and the empirical CPU variants behind
//! Figure 12.
//!
//! Ideal: "the entire input array is read and only the matched entries are
//! written ... `runtime = 4*N/Br + 4*sigma*N/Bw`."
//!
//! Empirical additions (the measured curves):
//! * **Branching** pays one misprediction per unpredictable branch. A taken
//!   probability of `sigma` mispredicts at rate `2*sigma*(1-sigma)` (the
//!   classic two-state predictor bound), costing
//!   [`CpuSpec::branch_miss_penalty_cycles`] each, amortized over the cores.
//! * **Predication / SIMD predication** stay at the ideal model — exactly
//!   the paper's observation that they track the bandwidth bound.

use crystal_hardware::CpuSpec;

use crate::ENTRY_BYTES;

/// Ideal selection runtime in seconds at selectivity `sigma`.
pub fn select_secs(n: usize, sigma: f64, read_bw: f64, write_bw: f64) -> f64 {
    assert!((0.0..=1.0).contains(&sigma));
    ENTRY_BYTES * n as f64 / read_bw + ENTRY_BYTES * sigma * n as f64 / write_bw
}

/// Expected branch misprediction rate of `if (y < v)` at selectivity
/// `sigma`: mispredictions are maximal at `sigma = 0.5` and vanish at the
/// extremes.
pub(crate) fn mispredict_rate(sigma: f64) -> f64 {
    2.0 * sigma * (1.0 - sigma)
}

/// Empirical runtime of the *branching* CPU selection: the bandwidth model
/// plus the serialized misprediction penalty across cores.
pub fn select_branching_cpu_secs(n: usize, sigma: f64, cpu: &CpuSpec) -> f64 {
    let ideal = select_secs(n, sigma, cpu.read_bw, cpu.write_bw);
    let stalls = n as f64 * mispredict_rate(sigma) * cpu.branch_miss_penalty_cycles
        / (cpu.clock_ghz * 1e9 * cpu.cores as f64);
    ideal + stalls
}

/// Empirical runtime of the predicated CPU selection (tracks the model;
/// scalar predication executes a few more instructions than SIMD but both
/// saturate bandwidth).
pub fn select_predicated_cpu_secs(n: usize, sigma: f64, cpu: &CpuSpec) -> f64 {
    select_secs(n, sigma, cpu.read_bw, cpu.write_bw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystal_hardware::{intel_i7_6900, nvidia_v100};

    const N: usize = 1 << 28;

    #[test]
    fn ideal_model_endpoints_match_figure12() {
        let c = intel_i7_6900();
        // sigma = 0: read only, ~20 ms; sigma = 1: read + write, ~40 ms.
        let t0 = select_secs(N, 0.0, c.read_bw, c.write_bw) * 1e3;
        let t1 = select_secs(N, 1.0, c.read_bw, c.write_bw) * 1e3;
        assert!((t0 - 20.3).abs() < 2.0, "t0 {t0}");
        assert!((t1 - 39.8).abs() < 3.0, "t1 {t1}");
        // GPU: ~1.2 to ~2.4 ms across the sweep (the Section 3.3 Crystal
        // selection at sigma = 0.5 lands at ~1.8 ms vs the paper's 2.1 ms).
        let g = nvidia_v100();
        let g1 = select_secs(N, 1.0, g.read_bw, g.write_bw) * 1e3;
        assert!((g1 - 2.4).abs() < 0.3, "gpu {g1}");
        let mid = select_secs(N, 0.5, g.read_bw, g.write_bw) * 1e3;
        assert!((mid - 1.8).abs() < 0.3, "gpu mid {mid}");
    }

    #[test]
    fn cpu_to_gpu_ratio_is_bandwidth_ratio() {
        // The paper's average runtime ratio across the sweep is 15.8.
        let c = intel_i7_6900();
        let g = nvidia_v100();
        let mut ratios = Vec::new();
        for i in 0..=10 {
            let s = i as f64 / 10.0;
            ratios.push(
                select_secs(N, s, c.read_bw, c.write_bw) / select_secs(N, s, g.read_bw, g.write_bw),
            );
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!((15.0..17.0).contains(&mean), "mean ratio {mean}");
    }

    #[test]
    fn branching_hump_peaks_mid_selectivity() {
        let c = intel_i7_6900();
        let t01 = select_branching_cpu_secs(N, 0.1, &c);
        let t05 = select_branching_cpu_secs(N, 0.5, &c);
        let t09 = select_branching_cpu_secs(N, 0.9, &c);
        assert!(t05 > t01 && t05 > t09, "hump: {t01} {t05} {t09}");
        // At sigma = 0.5 the paper's measured branching curve is roughly
        // double the predicated one.
        let pred = select_predicated_cpu_secs(N, 0.5, &c);
        let ratio = t05 / pred;
        assert!((1.6..2.6).contains(&ratio), "If/Pred at 0.5 = {ratio}");
    }

    #[test]
    fn mispredict_rate_shape() {
        assert_eq!(mispredict_rate(0.0), 0.0);
        assert_eq!(mispredict_rate(1.0), 0.0);
        assert!((mispredict_rate(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_invalid_selectivity() {
        select_secs(10, 1.5, 1.0, 1.0);
    }
}
