//! The timing model: converts [`KernelStats`] into simulated runtimes.
//!
//! The model follows the paper's methodology (Sections 3.3, 4 and 5.3):
//!
//! * A kernel's runtime is the **maximum** of its resource components —
//!   HBM traffic, L2 traffic, shared-memory traffic, ALU/SFU work and
//!   serialized atomics. GPUs overlap these almost perfectly because each SM
//!   keeps up to 64 warps in flight and swaps a warp out on every memory
//!   access ("this key feature allows GPUs to avoid the memory stalls
//!   associated with irregular accesses", Section 5.3).
//! * Achievable bandwidth is modulated by three multiplicative efficiency
//!   factors, each reproducing one regime of Figure 9:
//!   - **vector-load efficiency** (items per thread): a full 4-item tile
//!     loads with `int4` vector instructions; fewer items per thread waste
//!     load slots ("with 1 item per thread there is no benefit");
//!   - **occupancy efficiency**: small blocks cap resident threads (32
//!     blocks/SM max — at block size 32 only 50% occupancy is reachable);
//!   - **synchronization efficiency**: very large blocks make barriers
//!     expensive and reduce the number of independent blocks per SM
//!     ("having large thread blocks ... affects utilization particularly
//!     when thread blocks are using synchronization heavily").
//! * Atomics to a single contended address serialize in the L2 at
//!   [`GpuSpec::atomic_same_addr_ns`] per operation — the effect that makes
//!   the naive (non-tiled) selection 9x slower (Section 3.3). Atomics to
//!   scattered addresses are throughput-bound at roughly one per SM-cycle.

use crystal_hardware::GpuSpec;

use crate::stats::KernelStats;

/// Per-component simulated times for one kernel, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTime {
    /// Global (HBM) traffic time.
    pub hbm: f64,
    /// L2 traffic time.
    pub l2: f64,
    /// Shared-memory traffic time.
    pub shared: f64,
    /// ALU + SFU time.
    pub compute: f64,
    /// Serialized/contended atomic time.
    pub atomic: f64,
    /// Fixed kernel-launch overhead.
    pub launch: f64,
}

impl SimTime {
    /// Total kernel time: latency-hiding max over components plus launch
    /// overhead.
    pub fn total_secs(&self) -> f64 {
        self.bottleneck_secs() + self.launch
    }

    /// The dominating component (without launch overhead).
    pub fn bottleneck_secs(&self) -> f64 {
        self.hbm
            .max(self.l2)
            .max(self.shared)
            .max(self.compute)
            .max(self.atomic)
    }
}

/// Efficiency model inputs for one launch.
#[derive(Debug, Clone, Copy)]
pub struct LaunchShape {
    pub block_dim: usize,
    pub items_per_thread: usize,
    pub shared_mem_per_block: usize,
    /// Whether the kernel uses block-wide synchronization (tile kernels do).
    pub uses_barriers: bool,
}

/// Vector-load efficiency as a function of items per thread (Figure 9:
/// 4 items load as one `int4`; 2 leave half the vector lanes empty; 1 gains
/// nothing).
pub(crate) fn load_efficiency(items_per_thread: usize) -> f64 {
    match items_per_thread {
        0 | 1 => 0.55,
        2 => 0.80,
        3 => 0.90,
        _ => 1.0,
    }
}

/// Occupancy-driven bandwidth efficiency: below full occupancy there are not
/// enough warps in flight to cover DRAM latency.
pub(crate) fn occupancy_efficiency(occupancy: f64) -> f64 {
    0.6 + 0.4 * occupancy.clamp(0.0, 1.0)
}

/// Synchronization efficiency: barriers across `block_dim` threads stall
/// longer for bigger blocks, and fewer independent blocks fit per SM.
pub(crate) fn sync_efficiency(block_dim: usize, uses_barriers: bool) -> f64 {
    if !uses_barriers {
        return 1.0;
    }
    1.0 / (1.0 + 0.25 * block_dim as f64 / 2048.0)
}

/// Computes the simulated time for a kernel given its resource counters and
/// launch shape.
pub fn kernel_time(spec: &GpuSpec, shape: &LaunchShape, stats: &KernelStats) -> SimTime {
    let occ = spec.occupancy(shape.block_dim, shape.shared_mem_per_block);
    let eff = load_efficiency(shape.items_per_thread)
        * occupancy_efficiency(occ)
        * sync_efficiency(shape.block_dim, shape.uses_barriers);

    let hbm = stats.hbm_read_bytes() as f64 / (spec.read_bw * eff)
        + stats.hbm_write_bytes() as f64 / (spec.write_bw * eff);
    let l2 = stats.l2_bytes as f64 / spec.l2_bw;
    let shared = stats.shared_bytes as f64 / spec.l1_smem_bw;

    // One ALU op per core per clock; SFU ops (exp, rsqrt, ...) at 1/4 rate.
    let flops = spec.flops();
    let compute = stats.compute_ops as f64 / flops + stats.sfu_ops as f64 / (flops / 4.0);

    // Same-address atomics serialize; scattered atomics are bound by
    // roughly one resolved atomic per SM-cycle device-wide.
    let scattered_atomic_rate = spec.num_sms as f64 * spec.clock_ghz * 1e9;
    let atomic = stats.same_addr_atomics as f64 * spec.atomic_same_addr_ns * 1e-9
        + stats.scattered_atomics as f64 / scattered_atomic_rate;

    SimTime {
        hbm,
        l2,
        shared,
        compute,
        atomic,
        launch: spec.kernel_launch_us * 1e-6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystal_hardware::nvidia_v100;

    fn shape(block_dim: usize, ipt: usize) -> LaunchShape {
        LaunchShape {
            block_dim,
            items_per_thread: ipt,
            shared_mem_per_block: 0,
            uses_barriers: true,
        }
    }

    /// A streaming kernel at the best configuration should run at close to
    /// full memory bandwidth (Section 4.2's saturation result).
    #[test]
    fn streaming_kernel_saturates_bandwidth() {
        let spec = nvidia_v100();
        let n: u64 = 1 << 28;
        let stats = KernelStats {
            global_read_bytes: 4 * n,
            global_write_bytes: 2 * n,
            blocks: n / 512,
            same_addr_atomics: n / 512,
            barriers: 2 * (n / 512),
            ..Default::default()
        };
        let t = kernel_time(&spec, &shape(128, 4), &stats);
        let ideal = (6 * n) as f64 / 880.0e9;
        assert!(
            t.total_secs() < ideal * 1.1,
            "{} vs ideal {}",
            t.total_secs(),
            ideal
        );
        assert_eq!(t.bottleneck_secs(), t.hbm);
    }

    /// Figure 9: one item per thread is markedly slower than four.
    #[test]
    fn ipt_ordering_matches_figure9() {
        let spec = nvidia_v100();
        let stats = KernelStats {
            global_read_bytes: 1 << 31,
            ..Default::default()
        };
        let t1 = kernel_time(&spec, &shape(128, 1), &stats).total_secs();
        let t2 = kernel_time(&spec, &shape(128, 2), &stats).total_secs();
        let t4 = kernel_time(&spec, &shape(128, 4), &stats).total_secs();
        assert!(t1 > t2 && t2 > t4);
        assert!(t1 / t4 > 1.5, "IPT=1 should be >1.5x slower than IPT=4");
    }

    /// Figure 9: tiny blocks lose on atomics + occupancy; huge blocks lose
    /// on synchronization. Block sizes of 128-256 are the sweet spot.
    #[test]
    fn block_size_sweet_spot_matches_figure9() {
        let spec = nvidia_v100();
        let n: u64 = 1 << 29;
        let time_for = |bs: usize| {
            let tile = (bs * 4) as u64;
            let blocks = n / tile;
            let stats = KernelStats {
                global_read_bytes: 4 * n,
                global_write_bytes: 2 * n,
                same_addr_atomics: blocks,
                barriers: 2 * blocks,
                blocks,
                ..Default::default()
            };
            let sh = LaunchShape {
                block_dim: bs,
                items_per_thread: 4,
                shared_mem_per_block: (tile as usize) * 8,
                uses_barriers: true,
            };
            kernel_time(&spec, &sh, &stats).total_secs()
        };
        let t32 = time_for(32);
        let t128 = time_for(128);
        let t256 = time_for(256);
        let t1024 = time_for(1024);
        assert!(t128 < t32, "128 should beat 32 ({t128} vs {t32})");
        assert!(t256 < t32);
        assert!(t128 < t1024, "128 should beat 1024 ({t128} vs {t1024})");
    }

    /// Section 3.3: millions of same-address atomics dominate runtime — the
    /// independent-threads selection pathology.
    #[test]
    fn contended_atomics_dominate() {
        let spec = nvidia_v100();
        let stats = KernelStats {
            global_read_bytes: 1 << 31, // ~2.4ms of traffic
            same_addr_atomics: 1 << 28, // ~188ms serialized
            ..Default::default()
        };
        let t = kernel_time(&spec, &shape(256, 1), &stats);
        assert_eq!(t.bottleneck_secs(), t.atomic);
        assert!(t.total_secs() > 0.1);
    }

    #[test]
    fn efficiency_factors_bounded() {
        for ipt in 0..16 {
            let e = load_efficiency(ipt);
            assert!((0.0..=1.0).contains(&e));
        }
        for occ in [0.0, 0.3, 0.5, 1.0] {
            let e = occupancy_efficiency(occ);
            assert!((0.0..=1.0).contains(&e));
        }
        assert_eq!(sync_efficiency(4096, false), 1.0);
        assert!(sync_efficiency(1024, true) < sync_efficiency(128, true));
    }
}
