//! Selection-scan kernels.
//!
//! The Crystal selection (Figure 4(b)) runs as a **single kernel**: each
//! block loads a tile, applies the predicate to build a bitmap, computes a
//! block-wide prefix sum to find local offsets, reserves global output space
//! with *one* atomic per block, shuffles matched entries into a contiguous
//! tile, and stores that tile with a coalesced write. This removes the two
//! extra passes and the scattered writes of the pre-Crystal three-kernel
//! scheme (Figure 4(a)), which is also implemented here
//! ([`independent_select_gt`]) as the Section 3.3 comparison baseline.

use crystal_gpu_sim::exec::LaunchConfig;
use crystal_gpu_sim::mem::DeviceBuffer;
use crystal_gpu_sim::stats::KernelReport;
use crystal_gpu_sim::Gpu;

use crate::primitives::{block_load, block_pred, block_scan, block_shuffle, block_store};
use crate::tile::Tile;

/// `SELECT y FROM r WHERE y > v` with the paper's default tile shape.
pub fn select_gt(
    gpu: &mut Gpu,
    col: &DeviceBuffer<i32>,
    v: i32,
) -> (DeviceBuffer<i32>, KernelReport) {
    select_where(
        gpu,
        col,
        LaunchConfig::default_for_items(col.len()),
        move |y| y > v,
    )
}

/// General selection scan: one Crystal kernel, arbitrary predicate and
/// launch shape (the Figure 9 sweep varies `cfg`).
///
/// The returned buffer is truncated to the matched count; matched entries
/// appear in block order (each block's matches are contiguous and in input
/// order — the global order across blocks follows block index because the
/// simulator executes blocks in sequence; on real hardware inter-block
/// order is nondeterministic, which SQL set semantics permit).
pub fn select_where<F: Fn(i32) -> bool>(
    gpu: &mut Gpu,
    col: &DeviceBuffer<i32>,
    cfg: LaunchConfig,
    pred: F,
) -> (DeviceBuffer<i32>, KernelReport) {
    let n = col.len();
    let mut out = gpu.alloc_zeroed::<i32>(n);
    let mut counter = 0usize;

    let tile = cfg.tile();
    let mut items: Tile<i32> = Tile::new(tile);
    let mut bitmap: Tile<bool> = Tile::new(tile);
    let mut indices: Tile<u32> = Tile::new(tile);
    let mut shuffled: Tile<i32> = Tile::new(tile);

    // Shared memory: the staging buffer for the column tile plus the output
    // tile (Figure 8 declares `col` and `out` buffers of NT*IPT ints each).
    let cfg = cfg.with_shared_mem(tile * 2 * 4);

    let report = gpu.launch("select", cfg, |ctx| {
        let (start, len) = ctx.tile_bounds(n);
        if len == 0 {
            return;
        }
        block_load(ctx, col, start, len, &mut items);
        block_pred(ctx, &items, &pred, &mut bitmap);
        let matched = block_scan(ctx, &bitmap, &mut indices);
        // Thread 0 reserves output space for the whole block: a single
        // contended atomic per tile (the factor-of-tile-size reduction in
        // atomic traffic that Section 3.2 credits for Crystal's win).
        ctx.atomic_same_addr(1);
        let offset = counter;
        counter += matched;
        block_shuffle(ctx, &items, &bitmap, &indices, &mut shuffled);
        block_store(ctx, &shuffled, &mut out, offset);
    });
    out.truncate(counter);
    (out, report)
}

/// The pre-Crystal "independent threads" selection of Figure 4(a): three
/// kernels — per-thread match counting, a prefix sum over the per-thread
/// counts, and a second data pass writing matches at per-thread offsets.
///
/// Compared to the Crystal kernel it reads the input column twice, round-
/// trips the `count`/`pf` arrays through global memory, and its final
/// writes are scattered (each thread owns a disjoint output region, so a
/// warp's stores touch 32 different cache lines).
pub fn independent_select_gt(
    gpu: &mut Gpu,
    col: &DeviceBuffer<i32>,
    v: i32,
) -> (DeviceBuffer<i32>, Vec<KernelReport>) {
    let n = col.len();
    // The operator-at-a-time engines the paper describes launch a fixed
    // large grid of independent threads.
    let grid = 160;
    let block = 256;
    let threads = grid * block;
    let cfg = LaunchConfig {
        grid_dim: grid,
        block_dim: block,
        items_per_thread: 1,
        shared_mem_bytes: 0,
    };

    let mut counts = gpu.alloc_zeroed::<u32>(threads);
    // K1: strided read, count matches per thread.
    let r1 = gpu.launch("indep_count", cfg, |ctx| {
        let base = ctx.block_idx * block;
        ctx.global_read_coalesced(strided_items(n, threads, base, block) * 4);
        for t in 0..block {
            let tid = base + t;
            let mut c = 0u32;
            let mut i = tid;
            while i < n {
                ctx.compute(1);
                if col.as_slice()[i] > v {
                    c += 1;
                }
                i += threads;
            }
            counts.as_mut_slice()[tid] = c;
        }
        ctx.global_write_coalesced(block * 4);
    });

    // K2: prefix sum over the per-thread counts (the paper's systems call
    // an optimized library routine such as Thrust).
    let mut pf = gpu.alloc_zeroed::<u32>(threads);
    let pf_cfg = LaunchConfig::default_for_items(threads);
    let r2 = gpu.launch("indep_prefix_sum", pf_cfg, |ctx| {
        if ctx.block_idx == 0 {
            ctx.global_read_coalesced(threads * 4);
            let mut acc = 0u32;
            for t in 0..threads {
                pf.as_mut_slice()[t] = acc;
                acc += counts.as_slice()[t];
            }
            ctx.global_write_coalesced(threads * 4);
            ctx.compute(threads);
        }
    });
    let total = (pf.as_slice()[threads - 1] + counts.as_slice()[threads - 1]) as usize;

    // K3: second strided pass; each thread writes its matches at pf[tid].
    let mut out = gpu.alloc_zeroed::<i32>(total.max(1));
    let r3 = gpu.launch("indep_scatter", cfg, |ctx| {
        let base = ctx.block_idx * block;
        ctx.global_read_coalesced(strided_items(n, threads, base, block) * 4 + block * 4);
        for t in 0..block {
            let tid = base + t;
            let mut pos = pf.as_slice()[tid] as usize;
            let mut i = tid;
            while i < n {
                ctx.compute(1);
                if col.as_slice()[i] > v {
                    // Scattered store: different threads write far apart.
                    ctx.scatter(out.addr_of(pos), 4);
                    out.as_mut_slice()[pos] = col.as_slice()[i];
                    pos += 1;
                }
                i += threads;
            }
        }
    });

    gpu.free(counts);
    gpu.free(pf);
    out.truncate(total);
    (out, vec![r1, r2, r3])
}

/// Number of items a block's threads touch in a strided pass.
fn strided_items(n: usize, threads: usize, base: usize, block: usize) -> usize {
    let full = n / threads;
    let rem = n % threads;
    let extra = rem.saturating_sub(base).min(block);
    full * block + extra
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystal_hardware::nvidia_v100;

    fn gpu() -> Gpu {
        Gpu::new(nvidia_v100())
    }

    fn pseudo_random(n: usize) -> Vec<i32> {
        let mut x = 12345u64;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as i32
            })
            .collect()
    }

    #[test]
    fn crystal_select_matches_filter() {
        let mut g = gpu();
        let data = pseudo_random(10_000);
        let col = g.alloc_from(&data);
        let v = i32::MAX / 2;
        let (out, _) = select_gt(&mut g, &col, v);
        let expected: Vec<i32> = data.iter().copied().filter(|&y| y > v).collect();
        assert_eq!(out.as_slice(), &expected[..]);
    }

    #[test]
    fn select_handles_empty_and_full_selectivity() {
        let mut g = gpu();
        let data = pseudo_random(4096);
        let col = g.alloc_from(&data);
        let (none, _) = select_gt(&mut g, &col, i32::MAX);
        assert!(none.is_empty());
        let (all, _) = select_gt(&mut g, &col, i32::MIN);
        assert_eq!(all.len(), 4096);
    }

    #[test]
    fn select_handles_partial_tail_tile() {
        let mut g = gpu();
        let data = pseudo_random(1000); // not a multiple of the 512 tile
        let col = g.alloc_from(&data);
        let cfg = LaunchConfig::default_for_items(data.len());
        let (out, _) = select_where(&mut g, &col, cfg, |y| y < 0);
        let expected: Vec<i32> = data.iter().copied().filter(|&y| y < 0).collect();
        assert_eq!(out.as_slice(), &expected[..]);
    }

    #[test]
    fn select_reads_column_exactly_once() {
        let mut g = gpu();
        let n = 1 << 16;
        let data = pseudo_random(n);
        let col = g.alloc_from(&data);
        let (_, report) = select_gt(&mut g, &col, 0);
        assert_eq!(report.stats.global_read_bytes as usize, n * 4);
    }

    #[test]
    fn select_issues_one_atomic_per_block() {
        let mut g = gpu();
        let n = 1 << 16;
        let data = pseudo_random(n);
        let col = g.alloc_from(&data);
        let (_, report) = select_gt(&mut g, &col, 0);
        assert_eq!(report.stats.same_addr_atomics as usize, n / 512);
    }

    #[test]
    fn independent_select_matches_crystal() {
        let mut g = gpu();
        let data = pseudo_random(50_000);
        let col = g.alloc_from(&data);
        let (a, _) = select_gt(&mut g, &col, 0);
        let (b, _) = independent_select_gt(&mut g, &col, 0);
        // The independent-threads output is ordered by (thread, stride) so
        // compare as multisets.
        let mut av = a.to_host();
        let mut bv = b.to_host();
        av.sort_unstable();
        bv.sort_unstable();
        assert_eq!(av, bv);
    }

    #[test]
    fn independent_select_reads_input_twice() {
        let mut g = gpu();
        let n = 1 << 18;
        let data = pseudo_random(n);
        let col = g.alloc_from(&data);
        let (_, reports) = independent_select_gt(&mut g, &col, 0);
        let read: u64 = reports.iter().map(|r| r.stats.global_read_bytes).sum();
        assert!(read as usize >= 2 * n * 4, "must read the column twice");
    }

    /// Section 3.3's comparison: the Crystal selection is several times
    /// faster than the independent-threads approach (19 ms vs 2.1 ms on the
    /// paper's V100).
    #[test]
    fn crystal_beats_independent_threads() {
        let mut g = gpu();
        let n = 1 << 20;
        let data = pseudo_random(n);
        let col = g.alloc_from(&data);
        let (_, crystal) = select_gt(&mut g, &col, 0);
        let (_, indep) = independent_select_gt(&mut g, &col, 0);
        let t_crystal = crystal.time.total_secs();
        let t_indep: f64 = indep.iter().map(|r| r.time.total_secs()).sum();
        assert!(
            t_indep > 2.0 * t_crystal,
            "independent {t_indep} vs crystal {t_crystal}"
        );
    }
}
