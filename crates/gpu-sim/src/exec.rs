//! Kernel launch machinery: the [`Gpu`] device handle and the per-block
//! execution context ([`BlockCtx`]) through which kernels perform accounted
//! memory operations.
//!
//! A kernel is a Rust closure invoked once per thread block. This matches
//! the tile-based execution model of the paper (Section 3.2): the thread
//! block is the basic execution unit and processes one tile of items per
//! invocation; the intra-block thread structure is captured by the
//! block-wide functions of `crystal-core`, which perform the per-thread
//! accounting.

use crystal_hardware::GpuSpec;

use crate::cache::Cache;
use crate::mem::{DeviceBuffer, Memory, OutOfDeviceMemory};
use crate::stats::{ExecStats, KernelReport, KernelStats};
use crate::stream::{CopyEvents, StreamEngine};
use crate::timing::{kernel_time, LaunchShape};

/// Kernel launch geometry, mirroring CUDA's `<<<grid, block>>>` plus the
/// Crystal items-per-thread tiling factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub grid_dim: usize,
    /// Threads per block.
    pub block_dim: usize,
    /// Items each thread processes per tile (Crystal's `IPT`).
    pub items_per_thread: usize,
    /// Shared memory bytes statically used per block (occupancy input).
    pub shared_mem_bytes: usize,
}

impl LaunchConfig {
    /// The paper's preferred configuration: 128 threads/block, 4 items per
    /// thread ("we found that using thread block size 128 with items per
    /// thread equal to 4 is indeed the best performing tile configuration").
    pub fn default_for_items(n: usize) -> Self {
        Self::for_items(n, 128, 4)
    }

    /// A grid covering `n` items with one tile per block.
    pub fn for_items(n: usize, block_dim: usize, items_per_thread: usize) -> Self {
        let tile = block_dim * items_per_thread;
        LaunchConfig {
            grid_dim: n.div_ceil(tile.max(1)),
            block_dim,
            items_per_thread,
            // Tile kernels typically stage one tile of 4-byte values plus a
            // reuse buffer; kernels with different needs override this.
            shared_mem_bytes: tile * 8,
        }
    }

    /// Items per tile (`block_dim * items_per_thread`).
    pub fn tile(&self) -> usize {
        self.block_dim * self.items_per_thread
    }

    /// Override the per-block shared-memory estimate.
    pub fn with_shared_mem(mut self, bytes: usize) -> Self {
        self.shared_mem_bytes = bytes;
        self
    }
}

/// Per-block execution context: the device-side API kernels program against.
///
/// Every method that touches memory updates the kernel's [`KernelStats`];
/// random accesses additionally consult the device-wide L2 cache simulator.
pub struct BlockCtx<'a> {
    /// This block's index within the grid.
    pub block_idx: usize,
    /// Grid size.
    pub grid_dim: usize,
    /// Threads in this block.
    pub block_dim: usize,
    /// Items per thread.
    pub items_per_thread: usize,
    stats: &'a mut KernelStats,
    l2: &'a mut Cache,
    line: u64,
    sector: u64,
    l2_transfer: u64,
}

impl<'a> BlockCtx<'a> {
    /// Items per tile.
    #[inline]
    pub fn tile_size(&self) -> usize {
        self.block_dim * self.items_per_thread
    }

    /// Global-memory cache-line size of the device, bytes.
    #[inline]
    pub fn line_size(&self) -> usize {
        self.line as usize
    }

    /// Number of the cache line holding device address `addr`.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        self.l2.line_of(addr)
    }

    /// The `[start, start+len)` range of items this block owns when a grid
    /// is launched with [`LaunchConfig::for_items`] over `n` items.
    #[inline]
    pub fn tile_bounds(&self, n: usize) -> (usize, usize) {
        let tile = self.tile_size();
        let start = self.block_idx * tile;
        let len = tile.min(n.saturating_sub(start));
        (start, len)
    }

    // ---- coalesced (streaming) global memory ----

    /// Accounts a coalesced read of `bytes` from global memory (BlockLoad of
    /// a full tile: consecutive threads read consecutive addresses, so the
    /// hardware coalescer merges them into full-line transactions).
    #[inline]
    pub fn global_read_coalesced(&mut self, bytes: usize) {
        self.stats.global_read_bytes += bytes as u64;
    }

    /// Accounts a coalesced write of `bytes` to global memory.
    #[inline]
    pub fn global_write_coalesced(&mut self, bytes: usize) {
        self.stats.global_write_bytes += bytes as u64;
    }

    // ---- random-access global memory (cache simulated) ----

    /// Accounts a gather of `bytes` at device address `addr` (a hash-table
    /// probe, a dimension lookup...). The access runs through the L2
    /// simulator; a hit moves [`GpuSpec::l2_transfer_bytes`] across the
    /// L2->SM path, while a miss charges a full cache line of HBM traffic —
    /// the paper's "every random access to memory ends up reading an entire
    /// cache line" (Section 4.3).
    #[inline]
    pub fn gather(&mut self, addr: u64, bytes: usize) {
        self.gather_tile(std::iter::once(addr), bytes);
    }

    /// Accounts one gather of `bytes` at each of `addrs`, in order: what a
    /// [`BlockCtx::gather`] per address accounts, with the kernel's counters
    /// updated once for the whole tile.
    #[inline]
    pub fn gather_tile(&mut self, addrs: impl IntoIterator<Item = u64>, bytes: usize) {
        let (mut requests, mut lines, mut misses) = (0u64, 0u64, 0u64);
        for addr in addrs {
            requests += 1;
            lines += self.l2.lines_spanned(addr, bytes as u64);
            misses += self.l2.access_range(addr, bytes as u64);
        }
        self.stats.random_requests += requests;
        self.stats.l2_bytes += lines * self.l2_transfer;
        self.stats.gather_miss_bytes += misses * self.line;
    }

    /// Accounts a scatter (random write) of `bytes` at `addr`.
    #[inline]
    pub fn scatter(&mut self, addr: u64, bytes: usize) {
        self.stats.random_requests += 1;
        let lines = self.l2.lines_spanned(addr, bytes as u64);
        let misses = self.l2.access_range(addr, bytes as u64);
        self.stats.l2_bytes += lines * self.l2_transfer;
        self.stats.scatter_miss_bytes += misses * self.line;
    }

    // ---- shared memory ----

    /// Accounts `bytes` of shared-memory traffic (reads and writes are
    /// symmetric in the model).
    #[inline]
    pub fn shared(&mut self, bytes: usize) {
        self.stats.shared_bytes += bytes as u64;
    }

    // ---- atomics ----

    /// Accounts `n` atomic operations against a single contended address
    /// (e.g. the global output cursor). These serialize.
    #[inline]
    pub fn atomic_same_addr(&mut self, n: usize) {
        self.stats.same_addr_atomics += n as u64;
    }

    /// Accounts an atomic RMW at a scattered address (hash-table slot,
    /// aggregate cell). Resolved in L2 at sector granularity; a miss brings
    /// the line in from HBM.
    #[inline]
    pub fn atomic_scattered(&mut self, addr: u64) {
        self.atomic_scattered_tile(std::iter::once(addr));
    }

    /// Accounts one scattered atomic at each of `addrs`, in order: what a
    /// [`BlockCtx::atomic_scattered`] per address accounts, with the
    /// kernel's counters updated once for the whole tile.
    #[inline]
    pub fn atomic_scattered_tile(&mut self, addrs: impl IntoIterator<Item = u64>) {
        let (mut atomics, mut misses) = (0u64, 0u64);
        for addr in addrs {
            atomics += 1;
            misses += self.l2.access_range(addr, 1);
        }
        self.stats.scattered_atomics += atomics;
        self.stats.l2_bytes += atomics * self.sector;
        self.stats.gather_miss_bytes += misses * self.line;
    }

    // ---- control & compute ----

    /// Accounts one block-wide barrier (`__syncthreads()`).
    #[inline]
    pub fn sync(&mut self) {
        self.stats.barriers += 1;
    }

    /// Accounts `ops` generic ALU operations.
    #[inline]
    pub fn compute(&mut self, ops: usize) {
        self.stats.compute_ops += ops as u64;
    }

    /// Accounts `ops` special-function-unit operations (exp, log, ...).
    #[inline]
    pub fn sfu(&mut self, ops: usize) {
        self.stats.sfu_ops += ops as u64;
    }
}

/// The simulated device: spec, global memory, device-wide L2, the log of
/// executed kernels, and the copy/compute stream pair that tracks how much
/// of the DMA traffic hides behind in-flight kernels.
pub struct Gpu {
    spec: GpuSpec,
    mem: Memory,
    l2: Cache,
    reports: Vec<KernelReport>,
    exec: ExecStats,
    streams: StreamEngine,
    /// One-shot copy-event gate consumed by the next [`Gpu::launch`]: the
    /// kernel may not start on the compute stream before this time.
    pending_gate: Option<f64>,
    /// One-shot drain floor consumed by the next [`Gpu::launch`]: the
    /// kernel may not retire before this time (it cannot consume bytes
    /// faster than the link delivers them).
    pending_floor: Option<f64>,
}

impl Gpu {
    pub fn new(spec: GpuSpec) -> Self {
        let l2 = Cache::new(&spec.l2_level());
        assert!(
            spec.mem_capacity as u128 <= l2.addressable_bytes(),
            "`mem_capacity` {} exceeds the {} bytes the L2 model's tags cover",
            spec.mem_capacity,
            l2.addressable_bytes()
        );
        let mem = Memory::new(spec.mem_capacity);
        Gpu {
            spec,
            mem,
            l2,
            reports: Vec::new(),
            exec: ExecStats::default(),
            streams: StreamEngine::new(),
            pending_gate: None,
            pending_floor: None,
        }
    }

    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Allocates a device buffer initialized from `data`.
    ///
    /// # Panics
    /// Panics if the device is out of memory; use [`Gpu::try_alloc_from`]
    /// for a fallible version.
    pub fn alloc_from<T: Copy + Default>(&mut self, data: &[T]) -> DeviceBuffer<T> {
        self.try_alloc_from(data).expect("device allocation failed")
    }

    /// Fallible allocation from a host slice.
    pub fn try_alloc_from<T: Copy + Default>(
        &mut self,
        data: &[T],
    ) -> Result<DeviceBuffer<T>, OutOfDeviceMemory> {
        self.mem.alloc_from(data)
    }

    /// Allocates a zero-initialized buffer of `len` elements.
    pub fn alloc_zeroed<T: Copy + Default>(&mut self, len: usize) -> DeviceBuffer<T> {
        self.mem
            .alloc_zeroed(len)
            .expect("device allocation failed")
    }

    /// Fallible zeroed allocation.
    pub fn try_alloc_zeroed<T: Copy + Default>(
        &mut self,
        len: usize,
    ) -> Result<DeviceBuffer<T>, OutOfDeviceMemory> {
        self.mem.alloc_zeroed(len)
    }

    /// Fallible reservation of `len` elements of budget and addresses with
    /// no host memory behind them ([`Memory::alloc_unbacked`]).
    pub fn try_alloc_unbacked<T: Copy + Default>(
        &mut self,
        len: usize,
    ) -> Result<DeviceBuffer<T>, OutOfDeviceMemory> {
        self.mem.alloc_unbacked(len)
    }

    /// Frees a buffer.
    pub fn free<T: Copy + Default>(&mut self, buf: DeviceBuffer<T>) {
        self.mem.free(buf);
    }

    /// Bytes currently allocated on the device.
    pub fn mem_used(&self) -> usize {
        self.mem.used()
    }

    /// Peak allocation over the device lifetime.
    pub fn mem_high_water(&self) -> usize {
        self.mem.high_water()
    }

    /// Launches a kernel: `f` is invoked once per thread block, in block
    /// order, with an accounting context. Returns the kernel's report (also
    /// appended to [`Gpu::reports`]).
    pub fn launch<F>(&mut self, name: &str, cfg: LaunchConfig, mut f: F) -> KernelReport
    where
        F: FnMut(&mut BlockCtx<'_>),
    {
        let mut stats = KernelStats {
            blocks: cfg.grid_dim as u64,
            ..Default::default()
        };
        let line = self.spec.cache_line as u64;
        let sector = self.spec.sector as u64;
        let l2_transfer = self.spec.l2_transfer_bytes as u64;
        for block_idx in 0..cfg.grid_dim {
            let mut ctx = BlockCtx {
                block_idx,
                grid_dim: cfg.grid_dim,
                block_dim: cfg.block_dim,
                items_per_thread: cfg.items_per_thread,
                stats: &mut stats,
                l2: &mut self.l2,
                line,
                sector,
                l2_transfer,
            };
            f(&mut ctx);
        }
        let shape = LaunchShape {
            block_dim: cfg.block_dim,
            items_per_thread: cfg.items_per_thread,
            shared_mem_per_block: cfg.shared_mem_bytes,
            uses_barriers: stats.barriers > 0,
        };
        let time = kernel_time(&self.spec, &shape, &stats);
        self.exec.launches += 1;
        self.exec.hbm_read_bytes += stats.hbm_read_bytes();
        self.exec.hbm_write_bytes += stats.hbm_write_bytes();
        self.exec.kernel_secs += time.total_secs();
        let gate = self.pending_gate.take();
        let floor = self.pending_floor.take();
        let span = self.streams.launch(time.total_secs(), gate, floor);
        let report = KernelReport {
            name: name.to_string(),
            grid_dim: cfg.grid_dim,
            block_dim: cfg.block_dim,
            items_per_thread: cfg.items_per_thread,
            launches: 1,
            stats,
            time,
            stream: span,
            fact_linear: false,
        };
        self.reports.push(report.clone());
        report
    }

    /// Records one host-to-device transfer on the simulated copy stream.
    ///
    /// `ramp_secs` is the chunked upload's ramp (latency + first chunk),
    /// `bw_secs` its pure bandwidth term, and `serial_secs` the full serial
    /// cost (latency + bandwidth) a non-overlapping implementation would
    /// pay. The DMA queue charges only `bw_secs` — queued copies stream
    /// back-to-back at line rate — while [`ExecStats::dma_secs`] accrues
    /// `serial_secs`, so the stats stay the honest serial baseline the
    /// overlap experiments compare the stream makespan against.
    pub fn record_dma(&mut self, ramp_secs: f64, bw_secs: f64, serial_secs: f64) -> CopyEvents {
        self.exec.dma_transfers += 1;
        self.exec.dma_secs += serial_secs;
        self.streams.enqueue_copy(ramp_secs, bw_secs)
    }

    /// Gates the *next* [`Gpu::launch`] on a copy event: the kernel will
    /// not start on the compute stream before `t` (one-shot; later
    /// launches are unaffected).
    pub fn stream_wait(&mut self, t: f64) {
        self.pending_gate = Some(self.pending_gate.map_or(t, |g: f64| g.max(t)));
    }

    /// Floors the *next* [`Gpu::launch`]'s retirement at `t` — typically a
    /// copy's drain event, so a kernel racing its own input transfer never
    /// finishes before the link does (one-shot).
    pub fn stream_floor(&mut self, t: f64) {
        self.pending_floor = Some(self.pending_floor.map_or(t, |f: f64| f.max(t)));
    }

    /// The copy/compute stream clocks (read-only).
    pub fn streams(&self) -> &StreamEngine {
        &self.streams
    }

    /// Cumulative device-level execution counters since construction.
    ///
    /// Snapshot before and after a query and diff with [`ExecStats::since`]
    /// to attribute launches and HBM traffic to that query.
    pub fn exec_stats(&self) -> ExecStats {
        self.exec
    }

    /// All kernel reports since construction or the last
    /// [`Gpu::take_reports`].
    pub fn reports(&self) -> &[KernelReport] {
        &self.reports
    }

    /// Drains and returns the accumulated reports.
    pub fn take_reports(&mut self) -> Vec<KernelReport> {
        std::mem::take(&mut self.reports)
    }

    /// Clears the L2 (e.g. between unrelated experiments).
    pub fn reset_l2(&mut self) {
        self.l2.reset();
    }

    /// L2 hit ratio since the last reset (diagnostics).
    pub fn l2_hit_ratio(&self) -> f64 {
        self.l2.hit_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystal_hardware::nvidia_v100;

    #[test]
    fn launch_invokes_every_block_in_order() {
        let mut gpu = Gpu::new(nvidia_v100());
        let cfg = LaunchConfig::for_items(1000, 128, 4); // tile 512 -> 2 blocks
        assert_eq!(cfg.grid_dim, 2);
        let mut seen = Vec::new();
        gpu.launch("t", cfg, |ctx| seen.push(ctx.block_idx));
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn tile_bounds_handles_tail() {
        let mut gpu = Gpu::new(nvidia_v100());
        let cfg = LaunchConfig::for_items(1000, 128, 4);
        let mut bounds = Vec::new();
        gpu.launch("t", cfg, |ctx| bounds.push(ctx.tile_bounds(1000)));
        assert_eq!(bounds, vec![(0, 512), (512, 488)]);
    }

    #[test]
    fn coalesced_traffic_is_accounted() {
        let mut gpu = Gpu::new(nvidia_v100());
        let cfg = LaunchConfig::for_items(1 << 16, 128, 4);
        let r = gpu.launch("t", cfg, |ctx| {
            let (_, len) = ctx.tile_bounds(1 << 16);
            ctx.global_read_coalesced(len * 4);
            ctx.global_write_coalesced(len * 4);
        });
        assert_eq!(r.stats.global_read_bytes, 4 << 16);
        assert_eq!(r.stats.global_write_bytes, 4 << 16);
        assert!(r.time.total_secs() > 0.0);
    }

    #[test]
    fn gathers_hit_l2_after_warmup() {
        let mut gpu = Gpu::new(nvidia_v100());
        let buf = gpu.alloc_zeroed::<i64>(1024); // 8KB, far smaller than L2
        let cfg = LaunchConfig::for_items(1024, 128, 4);
        // Two passes over the same addresses: second pass must be all hits.
        let r1 = gpu.launch("warm", cfg, |ctx| {
            let (start, len) = ctx.tile_bounds(1024);
            for i in start..start + len {
                ctx.gather(buf.addr_of(i), 8);
            }
        });
        let r2 = gpu.launch("hot", cfg, |ctx| {
            let (start, len) = ctx.tile_bounds(1024);
            for i in start..start + len {
                ctx.gather(buf.addr_of(i), 8);
            }
        });
        assert!(r1.stats.gather_miss_bytes > 0);
        assert_eq!(r2.stats.gather_miss_bytes, 0);
        assert!(r2.stats.l2_bytes > 0);
    }

    #[test]
    fn l2_capacity_produces_misses_for_large_working_sets() {
        let mut gpu = Gpu::new(nvidia_v100());
        let n = 1 << 20; // 8MB of i64 > 6MB L2
        let buf = gpu.alloc_zeroed::<i64>(n);
        let cfg = LaunchConfig::for_items(n, 128, 4);
        gpu.launch("warm", cfg, |ctx| {
            let (start, len) = ctx.tile_bounds(n);
            for i in start..start + len {
                ctx.gather(buf.addr_of(i), 8);
            }
        });
        let r2 = gpu.launch("still-missing", cfg, |ctx| {
            let (start, len) = ctx.tile_bounds(n);
            for i in start..start + len {
                ctx.gather(buf.addr_of(i), 8);
            }
        });
        assert!(
            r2.stats.gather_miss_bytes > 0,
            "working set exceeding L2 must keep missing"
        );
    }

    #[test]
    fn reports_accumulate_and_drain() {
        let mut gpu = Gpu::new(nvidia_v100());
        let cfg = LaunchConfig::for_items(128, 128, 1);
        gpu.launch("a", cfg, |_| {});
        gpu.launch("b", cfg, |_| {});
        assert_eq!(gpu.reports().len(), 2);
        let taken = gpu.take_reports();
        assert_eq!(taken.len(), 2);
        assert!(gpu.reports().is_empty());
    }

    #[test]
    fn exec_stats_count_launches_and_hbm_traffic() {
        let mut gpu = Gpu::new(nvidia_v100());
        let cfg = LaunchConfig::for_items(512, 128, 4);
        let before = gpu.exec_stats();
        assert_eq!(before.launches, 0);
        gpu.launch("a", cfg, |ctx| {
            ctx.global_read_coalesced(1024);
            ctx.global_write_coalesced(256);
        });
        gpu.launch("b", cfg, |ctx| ctx.global_read_coalesced(512));
        let d = gpu.exec_stats().since(&before);
        assert_eq!(d.launches, 2);
        assert_eq!(d.hbm_read_bytes, 1536);
        assert_eq!(d.hbm_write_bytes, 256);
        // Each individual report covers exactly one launch.
        assert!(gpu.reports().iter().all(|r| r.launches == 1));
    }

    #[test]
    fn default_config_uses_paper_tile() {
        let cfg = LaunchConfig::default_for_items(1 << 20);
        assert_eq!(cfg.block_dim, 128);
        assert_eq!(cfg.items_per_thread, 4);
        assert_eq!(cfg.tile(), 512);
    }
}
