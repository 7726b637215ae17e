//! GPU hardware description (paper Table 2, right column).

use crate::cache::CacheLevel;

/// Characteristics of a discrete GPU relevant to in-memory analytics.
///
/// Mirrors Table 2 of the paper plus the execution-geometry limits (occupancy
/// inputs, Section 3.3) and two calibration constants documented at
/// [`crate::nvidia_v100`].
#[derive(Debug, Clone)]
pub struct GpuSpec {
    pub name: String,
    /// Streaming multiprocessors.
    pub num_sms: usize,
    /// CUDA cores per SM.
    pub cores_per_sm: usize,
    /// Threads per warp (SIMT width).
    pub warp_size: usize,
    /// Occupancy limit: resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Occupancy limit: resident thread blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Shared memory (scratchpad) per SM, bytes.
    pub shared_mem_per_sm: usize,
    /// 32-bit registers per SM.
    pub registers_per_sm: usize,
    pub clock_ghz: f64,
    /// Global (HBM) memory capacity, bytes.
    pub mem_capacity: usize,
    /// Global memory read bandwidth, bytes/sec.
    pub read_bw: f64,
    /// Global memory write bandwidth, bytes/sec.
    pub write_bw: f64,
    /// Device-wide L2 capacity, bytes.
    pub l2_size: usize,
    /// L2 bandwidth, bytes/sec.
    pub l2_bw: f64,
    /// Aggregate L1/shared-memory bandwidth, bytes/sec.
    pub l1_smem_bw: f64,
    /// Global-memory cache line, bytes (random-access granularity; the paper
    /// notes 128 B on GPU vs 64 B on CPU in Section 4.3).
    pub cache_line: usize,
    /// Memory sector size, bytes (finest coalescing granule).
    pub sector: usize,
    /// Effective bytes moved across the L2->SM path per random probe
    /// (calibration constant, see [`crate::nvidia_v100`]).
    pub l2_transfer_bytes: usize,
    /// Serialized cost of an atomic to one contended address, nanoseconds
    /// (calibration constant).
    pub atomic_same_addr_ns: f64,
    /// Fixed kernel-launch overhead, microseconds.
    pub kernel_launch_us: f64,
}

impl GpuSpec {
    /// Total cores across the device.
    pub fn total_cores(&self) -> usize {
        self.num_sms * self.cores_per_sm
    }

    /// Aggregate flops (1 op per core per clock).
    pub fn flops(&self) -> f64 {
        self.total_cores() as f64 * self.clock_ghz * 1e9
    }

    /// The L2 as a [`CacheLevel`] for the shared cache simulator.
    pub fn l2_level(&self) -> CacheLevel {
        CacheLevel {
            name: "L2",
            size: self.l2_size,
            bandwidth: self.l2_bw,
            line: self.cache_line,
            assoc: 16,
        }
    }

    /// Resident blocks per SM for a given block size and per-block shared
    /// memory usage — the occupancy calculation of Section 3.3 ("each
    /// streaming multiprocessor holds a maximum of 2048 threads, hence large
    /// thread blocks reduce the number of independent thread blocks").
    pub fn resident_blocks_per_sm(
        &self,
        block_threads: usize,
        shared_mem_per_block: usize,
    ) -> usize {
        if block_threads == 0 {
            return 0;
        }
        let by_threads = self.max_threads_per_sm / block_threads;
        let by_smem = self
            .shared_mem_per_sm
            .checked_div(shared_mem_per_block)
            .unwrap_or(self.max_blocks_per_sm);
        by_threads.min(by_smem).min(self.max_blocks_per_sm)
    }

    /// Fraction of maximum resident threads achieved (0..=1).
    pub fn occupancy(&self, block_threads: usize, shared_mem_per_block: usize) -> f64 {
        let blocks = self.resident_blocks_per_sm(block_threads, shared_mem_per_block);
        (blocks * block_threads) as f64 / self.max_threads_per_sm as f64
    }
}

#[cfg(test)]
mod tests {
    use crate::nvidia_v100;

    #[test]
    fn v100_core_count_matches_paper() {
        // The paper rounds to "5000 cores".
        let g = nvidia_v100();
        assert_eq!(g.total_cores(), 5120);
    }

    #[test]
    fn occupancy_block_128() {
        let g = nvidia_v100();
        // 128-thread blocks, no smem limit: capped by max_blocks (32) =>
        // 32*128 = 4096 > 2048, so capped by threads: 16 blocks.
        assert_eq!(g.resident_blocks_per_sm(128, 0), 16);
        assert!((g.occupancy(128, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_small_blocks_capped_by_block_limit() {
        let g = nvidia_v100();
        // 32-thread blocks: 2048/32 = 64 by threads, but max 32 blocks.
        assert_eq!(g.resident_blocks_per_sm(32, 0), 32);
        assert!((g.occupancy(32, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let g = nvidia_v100();
        // 48KB smem per block: only 2 fit in 96KB.
        assert_eq!(g.resident_blocks_per_sm(128, 48 * 1024), 2);
    }
}
