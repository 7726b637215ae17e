//! Hardware specifications for the CPU/GPU analytics study.
//!
//! This crate encodes Table 2 of the paper (the Intel i7-6900 CPU and the
//! Nvidia V100 GPU used throughout the evaluation) plus the measured PCIe
//! characteristics, and exposes the handful of derived quantities the paper's
//! models rely on (bandwidth ratio, cache-line granularities, occupancy
//! limits).
//!
//! Everything downstream — the GPU simulator (`crystal-gpu-sim`), the CPU
//! cost accounting and the analytical models (`crystal-models`) — is
//! parameterized by these structs, so alternative hardware can be modeled by
//! constructing different values.

pub mod bytes;
pub mod cache;
pub mod cpu;
pub mod gpu;
pub mod pcie;

pub use bytes::{GIB, KIB, MIB};
pub use cache::CacheLevel;
pub use cpu::CpuSpec;
pub use gpu::GpuSpec;
pub use pcie::{PcieSpec, UPLOAD_CHUNK_BYTES};

/// The Skylake-class Intel i7-6900 from Table 2 of the paper.
///
/// 8 cores (16 with SMT), AVX2 (8 × 32-bit SIMD lanes), 64 GB of DDR4 with
/// 53 GBps read / 55 GBps write bandwidth, 157 GBps L3 bandwidth.
pub fn intel_i7_6900() -> CpuSpec {
    CpuSpec {
        name: "Intel i7-6900".to_string(),
        cores: 8,
        smt: 2,
        clock_ghz: 3.2,
        simd_lanes_32: 8,
        l1_size: 32 * KIB,
        l2_size: 256 * KIB,
        l3_size: 20 * MIB,
        cache_line: 64,
        mem_capacity: 64 * GIB,
        read_bw: 53.0e9,
        write_bw: 55.0e9,
        l2_bw: 400.0e9,
        l3_bw: 157.0e9,
        // Effective penalty of one branch misprediction amortized across the
        // out-of-order window, in cycles. Calibrated against the Figure 12
        // branching-select hump (~2x slowdown at 50% selectivity).
        branch_miss_penalty_cycles: 7.0,
        // Fraction of peak bandwidth achievable under dependent random
        // accesses (no prefetching possible). Calibrated so the out-of-cache
        // join ratio lands at the paper's measured 10.5x instead of the
        // ideal 8.1x (Figure 13 / Section 4.3 discussion).
        random_access_efficiency: 0.8,
    }
}

/// The Nvidia V100 from Table 2 of the paper.
///
/// 80 SMs x 64 cores, 32 GB HBM2 at 880 GBps (measured), 6 MB L2 at
/// 2.2 TBps, 10.7 TBps aggregate L1/shared-memory bandwidth.
pub fn nvidia_v100() -> GpuSpec {
    GpuSpec {
        name: "Nvidia V100".to_string(),
        num_sms: 80,
        cores_per_sm: 64,
        warp_size: 32,
        max_threads_per_sm: 2048,
        max_blocks_per_sm: 32,
        shared_mem_per_sm: 96 * KIB,
        registers_per_sm: 65_536,
        clock_ghz: 1.53,
        mem_capacity: 32 * GIB,
        read_bw: 880.0e9,
        write_bw: 880.0e9,
        l2_size: 6 * MIB,
        l2_bw: 2.2e12,
        l1_smem_bw: 10.7e12,
        cache_line: 128,
        sector: 32,
        // Effective bytes crossing the L2->SM path per random probe: two
        // 32-byte sectors (slot + linear-probe neighbor). Calibrated against
        // the in-cache segments of Figure 13 (5.5x and 14.5x CPU/GPU
        // ratios).
        l2_transfer_bytes: 64,
        // Throughput-reciprocal of serialized atomics to the *same* address
        // (they are resolved in L2, one at a time). Calibrated against the
        // small-thread-block regime of Figure 9 and the 19 ms
        // independent-threads select of Section 3.3.
        atomic_same_addr_ns: 0.7,
        kernel_launch_us: 5.0,
    }
}

/// An Ampere-class successor GPU (A100 40GB SXM): the "other hardware"
/// data point for Section 5.4's claim that the analysis generalizes —
/// ~1.8x the V100's HBM bandwidth, 40 MB of L2.
pub fn nvidia_a100() -> GpuSpec {
    GpuSpec {
        name: "Nvidia A100".to_string(),
        num_sms: 108,
        cores_per_sm: 64,
        warp_size: 32,
        max_threads_per_sm: 2048,
        max_blocks_per_sm: 32,
        shared_mem_per_sm: 164 * KIB,
        registers_per_sm: 65_536,
        clock_ghz: 1.41,
        mem_capacity: 40 * GIB,
        read_bw: 1555.0e9,
        write_bw: 1555.0e9,
        l2_size: 40 * MIB,
        l2_bw: 4.5e12,
        l1_smem_bw: 19.4e12,
        cache_line: 128,
        sector: 32,
        l2_transfer_bytes: 64,
        atomic_same_addr_ns: 0.6,
        kernel_launch_us: 5.0,
    }
}

/// A DDR5 dual-socket server-class CPU (for the same what-if): ~4x the
/// paper CPU's bandwidth and cores.
pub fn server_cpu_2023() -> CpuSpec {
    CpuSpec {
        name: "32-core DDR5 server".to_string(),
        cores: 32,
        smt: 2,
        clock_ghz: 2.8,
        simd_lanes_32: 16,
        l1_size: 48 * KIB,
        l2_size: 2 * MIB,
        l3_size: 64 * MIB,
        cache_line: 64,
        mem_capacity: 512 * GIB,
        read_bw: 220.0e9,
        write_bw: 200.0e9,
        l2_bw: 1.6e12,
        l3_bw: 600.0e9,
        branch_miss_penalty_cycles: 7.0,
        random_access_efficiency: 0.8,
    }
}

/// The PCIe 3.0 x16 link between host and device, as measured in the paper
/// (Section 5: "We measured the bidirectional PCIe transfer bandwidth to be
/// 12.8 GBps").
pub fn pcie_gen3() -> PcieSpec {
    PcieSpec {
        bandwidth: 12.8e9,
        latency_us: 10.0,
    }
}

/// One machine's full spec triple — the CPU, the GPU, and the PCIe link
/// between them. Bundles what a placement model needs to price both
/// sides of a query, so a *believed* (spec-sheet) profile and the
/// *actual* (possibly deviating) machine can be passed around as single
/// values — the distinction the online calibration layer exists to
/// close.
#[derive(Debug, Clone)]
pub struct HardwareProfile {
    /// The host CPU.
    pub cpu: CpuSpec,
    /// The device GPU.
    pub gpu: GpuSpec,
    /// The host↔device interconnect.
    pub pcie: PcieSpec,
}

/// The paper's Table-2 machine as one [`HardwareProfile`]:
/// [`intel_i7_6900`] + [`nvidia_v100`] + [`pcie_gen3`].
pub fn table2_profile() -> HardwareProfile {
    HardwareProfile {
        cpu: intel_i7_6900(),
        gpu: nvidia_v100(),
        pcie: pcie_gen3(),
    }
}

/// Ratio of GPU to CPU read memory bandwidth — the paper's headline ~16.2x.
pub fn bandwidth_ratio(cpu: &CpuSpec, gpu: &GpuSpec) -> f64 {
    gpu.read_bw / cpu.read_bw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_ratio_matches_paper() {
        let r = bandwidth_ratio(&intel_i7_6900(), &nvidia_v100());
        assert!((r - 16.2).abs() < 0.5, "ratio {r} should be ~16.2");
    }

    #[test]
    fn v100_table2_values() {
        let g = nvidia_v100();
        assert_eq!(g.l2_size, 6 * MIB);
        assert_eq!(g.cache_line, 128);
        assert_eq!(g.mem_capacity, 32 * GIB);
        assert!((g.read_bw - 880.0e9).abs() < 1.0);
    }

    #[test]
    fn cpu_table2_values() {
        let c = intel_i7_6900();
        assert_eq!(c.l3_size, 20 * MIB);
        assert_eq!(c.cache_line, 64);
        assert_eq!(c.cores, 8);
        assert_eq!(c.threads(), 16);
    }

    #[test]
    fn pcie_slower_than_both_memories() {
        let (c, g, p) = (intel_i7_6900(), nvidia_v100(), pcie_gen3());
        assert!(p.bandwidth < c.read_bw);
        assert!(p.bandwidth < g.read_bw);
    }

    #[test]
    fn newer_hardware_pairing_keeps_the_bandwidth_gap() {
        // Section 5.4's generalization claim: the GPU/CPU bandwidth ratio
        // of a 2023-class pairing is still ~7x, so the qualitative
        // conclusions carry over.
        let r = bandwidth_ratio(&server_cpu_2023(), &nvidia_a100());
        assert!((5.0..10.0).contains(&r), "ratio {r}");
        assert!(nvidia_a100().read_bw > nvidia_v100().read_bw);
    }
}
