//! Kernel execution statistics: the trace the timing model consumes.

use crate::stream::StreamSpan;
use crate::timing::SimTime;

/// Raw resource counts accumulated while a kernel executes.
///
/// The counters follow the structure of the paper's models: global-memory
/// bytes (split read/write, and split sequential/random so coalescing
/// efficiency can be reasoned about), L2 traffic from cache-simulated
/// gathers, shared-memory traffic, atomics (contended same-address vs
/// scattered), barriers and compute.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Coalesced (streaming) bytes read from global memory.
    pub global_read_bytes: u64,
    /// Coalesced (streaming) bytes written to global memory.
    pub global_write_bytes: u64,
    /// Bytes read from global memory by gathers that missed L2
    /// (full cache lines).
    pub gather_miss_bytes: u64,
    /// Bytes written to global memory by scatters that missed L2.
    pub scatter_miss_bytes: u64,
    /// Bytes served from (or absorbed by) the L2 for gathers/scatters,
    /// including the lines that missed (they pass through L2 too).
    pub l2_bytes: u64,
    /// Gather/scatter requests issued (one per element accessed).
    pub random_requests: u64,
    /// Shared-memory bytes read or written.
    pub shared_bytes: u64,
    /// Atomic operations targeting one contended address
    /// (e.g. a global output cursor).
    pub same_addr_atomics: u64,
    /// Atomic operations scattered over a structure (e.g. hash-table slots,
    /// group-by cells). These also generate `l2_bytes`/miss traffic via the
    /// cache simulator.
    pub scattered_atomics: u64,
    /// `__syncthreads()` executions (one per block per barrier).
    pub barriers: u64,
    /// Generic ALU operations (adds, compares, hashes).
    pub compute_ops: u64,
    /// Special-function-unit operations (exp, for the sigmoid projection).
    pub sfu_ops: u64,
    /// Thread blocks executed.
    pub blocks: u64,
}

impl KernelStats {
    /// Total bytes that crossed the global-memory (HBM) interface.
    pub fn hbm_read_bytes(&self) -> u64 {
        self.global_read_bytes + self.gather_miss_bytes
    }

    /// Total bytes written through the HBM interface.
    pub fn hbm_write_bytes(&self) -> u64 {
        self.global_write_bytes + self.scatter_miss_bytes
    }

    /// Total HBM traffic.
    pub fn hbm_bytes(&self) -> u64 {
        self.hbm_read_bytes() + self.hbm_write_bytes()
    }

    /// Merges another kernel's counters into this one (used to aggregate
    /// multi-kernel operators such as radix sort).
    pub fn merge(&mut self, other: &KernelStats) {
        self.global_read_bytes += other.global_read_bytes;
        self.global_write_bytes += other.global_write_bytes;
        self.gather_miss_bytes += other.gather_miss_bytes;
        self.scatter_miss_bytes += other.scatter_miss_bytes;
        self.l2_bytes += other.l2_bytes;
        self.random_requests += other.random_requests;
        self.shared_bytes += other.shared_bytes;
        self.same_addr_atomics += other.same_addr_atomics;
        self.scattered_atomics += other.scattered_atomics;
        self.barriers += other.barriers;
        self.compute_ops += other.compute_ops;
        self.sfu_ops += other.sfu_ops;
        self.blocks += other.blocks;
    }
}

/// Cumulative device-level execution counters, sampled before and after a
/// query to attribute launches and HBM traffic to it.
///
/// [`Gpu::launch`](crate::exec::Gpu::launch) bumps the device's counters on
/// every kernel; callers snapshot [`Gpu::exec_stats`](crate::exec::Gpu::exec_stats)
/// around a region and diff with [`ExecStats::since`]. This is how the fused
/// path proves "one launch per query" and how the fusion harness splits HBM
/// reads/writes into before/after deltas without threading reports around.
///
/// Transfer and compute time are accounted *separately* per stream:
/// `dma_secs` is the serialized busy time of the copy engine (each transfer
/// charged its full latency + bandwidth cost, as a serial implementation
/// would pay it) and `kernel_secs` is the serialized busy time of the
/// compute engine. The overlapped makespan — how much wall-clock the two
/// streams actually cost together — lives on the
/// [`StreamEngine`](crate::stream::StreamEngine) clocks; comparing it
/// against `dma_secs + kernel_secs` is how the overlap experiment measures
/// hidden transfer time instead of inferring it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Kernel launches executed (compute-stream launch count).
    pub launches: u64,
    /// Host-to-device transfers recorded (DMA-stream launch count).
    pub dma_transfers: u64,
    /// Bytes read across the HBM interface (streaming + gather misses).
    pub hbm_read_bytes: u64,
    /// Bytes written across the HBM interface (streaming + scatter misses).
    pub hbm_write_bytes: u64,
    /// Serialized copy-engine busy seconds: every recorded transfer's full
    /// cost (per-transfer latency + bytes/bandwidth), summed as if no
    /// transfer overlapped any kernel. The serial baseline.
    pub dma_secs: f64,
    /// Serialized compute-engine busy seconds: every launched kernel's
    /// simulated time, summed.
    pub kernel_secs: f64,
}

impl ExecStats {
    /// The delta accumulated since an earlier snapshot `before`.
    pub fn since(&self, before: &ExecStats) -> ExecStats {
        ExecStats {
            launches: self.launches - before.launches,
            dma_transfers: self.dma_transfers - before.dma_transfers,
            hbm_read_bytes: self.hbm_read_bytes - before.hbm_read_bytes,
            hbm_write_bytes: self.hbm_write_bytes - before.hbm_write_bytes,
            dma_secs: self.dma_secs - before.dma_secs,
            kernel_secs: self.kernel_secs - before.kernel_secs,
        }
    }
}

/// Deltas of one query's stretches of work add up to what it cost.
impl std::ops::AddAssign for ExecStats {
    fn add_assign(&mut self, more: Self) {
        self.launches += more.launches;
        self.dma_transfers += more.dma_transfers;
        self.hbm_read_bytes += more.hbm_read_bytes;
        self.hbm_write_bytes += more.hbm_write_bytes;
        self.dma_secs += more.dma_secs;
        self.kernel_secs += more.kernel_secs;
    }
}

/// A completed kernel launch: its name, launch geometry, raw counters and
/// simulated time.
#[derive(Debug, Clone)]
pub struct KernelReport {
    pub name: String,
    pub grid_dim: usize,
    pub block_dim: usize,
    pub items_per_thread: usize,
    /// Kernel launches this report covers: 1 for a report straight out of
    /// [`Gpu::launch`](crate::exec::Gpu::launch); more when reports are
    /// merged across a multi-kernel operator.
    pub launches: u64,
    pub stats: KernelStats,
    pub time: SimTime,
    /// Occupancy of the simulated compute stream: when the kernel started
    /// (after any copy-event gate) and when it retired (after any
    /// transfer-drain floor). Serial callers that never touch the copy
    /// engine see `end - start == time.total_secs()`.
    pub stream: StreamSpan,
    /// Whether the kernel's work grows linearly with the fact-table row
    /// count. Engines tag their fact scans/probes explicitly so scaled-time
    /// extrapolation (`sim_secs_scaled`) never has to guess from the kernel
    /// name; dimension-sized kernels (hash-table builds) stay `false`.
    pub fact_linear: bool,
}

impl KernelReport {
    /// Marks the kernel as fact-linear (see [`KernelReport::fact_linear`]).
    pub fn tag_fact_linear(mut self) -> Self {
        self.fact_linear = true;
        self
    }
}

impl std::fmt::Display for KernelReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<24} <<<{}, {}>>> x{}  {:>9.3} ms  (hbm {:.2} GB, l2 {:.2} GB, atomics {}/{})",
            self.name,
            self.grid_dim,
            self.block_dim,
            self.items_per_thread,
            self.time.total_secs() * 1e3,
            self.stats.hbm_bytes() as f64 / 1e9,
            self.stats.l2_bytes as f64 / 1e9,
            self.stats.same_addr_atomics,
            self.stats.scattered_atomics,
        )
    }
}

/// Sum of a sequence of kernel reports: total simulated seconds.
pub fn total_time(reports: &[KernelReport]) -> f64 {
    reports.iter().map(|r| r.time.total_secs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm_totals_combine_streaming_and_misses() {
        let s = KernelStats {
            global_read_bytes: 100,
            gather_miss_bytes: 28,
            global_write_bytes: 50,
            scatter_miss_bytes: 2,
            ..Default::default()
        };
        assert_eq!(s.hbm_read_bytes(), 128);
        assert_eq!(s.hbm_write_bytes(), 52);
        assert_eq!(s.hbm_bytes(), 180);
    }

    #[test]
    fn exec_stats_since_diffs_every_counter() {
        let before = ExecStats {
            launches: 2,
            dma_transfers: 1,
            hbm_read_bytes: 1000,
            hbm_write_bytes: 100,
            dma_secs: 2e-5,
            kernel_secs: 1e-5,
        };
        let after = ExecStats {
            launches: 3,
            dma_transfers: 4,
            hbm_read_bytes: 1600,
            hbm_write_bytes: 140,
            dma_secs: 8e-5,
            kernel_secs: 5e-5,
        };
        let d = after.since(&before);
        assert_eq!(d.launches, 1);
        assert_eq!(d.dma_transfers, 3);
        assert_eq!(d.hbm_read_bytes, 600);
        assert_eq!(d.hbm_write_bytes, 40);
        assert!((d.dma_secs - 6e-5).abs() < 1e-18);
        assert!((d.kernel_secs - 4e-5).abs() < 1e-18);
    }

    #[test]
    fn exec_stats_split_streams_start_at_zero() {
        let z = ExecStats::default();
        assert_eq!(z.dma_transfers, 0);
        assert_eq!(z.dma_secs, 0.0);
        assert_eq!(z.kernel_secs, 0.0);
        // A self-diff is the zero delta.
        assert_eq!(z.since(&z), ExecStats::default());
    }

    #[test]
    fn merge_adds_all_counters() {
        let mut a = KernelStats {
            global_read_bytes: 1,
            barriers: 2,
            blocks: 3,
            ..Default::default()
        };
        let b = KernelStats {
            global_read_bytes: 10,
            barriers: 20,
            blocks: 30,
            sfu_ops: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.global_read_bytes, 11);
        assert_eq!(a.barriers, 22);
        assert_eq!(a.blocks, 33);
        assert_eq!(a.sfu_ops, 5);
    }
}
