//! Column-aggregation kernels.
//!
//! The building block the SSB queries use for their final reductions: each
//! block loads a tile, reduces it with `BlockAggregate`, and commits the
//! block partial with a single contended atomic (one per tile, as in the
//! selection kernel).

use crystal_gpu_sim::exec::LaunchConfig;
use crystal_gpu_sim::mem::DeviceBuffer;
use crystal_gpu_sim::stats::KernelReport;
use crystal_gpu_sim::Gpu;

use crate::primitives::{block_agg_sum, block_load};
use crate::tile::Tile;

/// `SELECT SUM(col) FROM r` with 64-bit accumulation.
pub fn column_sum_i64(gpu: &mut Gpu, col: &DeviceBuffer<i32>) -> (i64, KernelReport) {
    let n = col.len();
    let cfg = LaunchConfig::default_for_items(n);
    let tile = cfg.tile();
    let mut items: Tile<i32> = Tile::new(tile);
    let mut wide: Tile<i64> = Tile::new(tile);
    let mut total = 0i64;
    let report = gpu.launch("column_sum", cfg, |ctx| {
        let (start, len) = ctx.tile_bounds(n);
        if len == 0 {
            return;
        }
        block_load(ctx, col, start, len, &mut items);
        wide.clear();
        for &v in items.as_slice() {
            wide.push(v as i64);
        }
        let s = block_agg_sum(ctx, &wide);
        ctx.atomic_same_addr(1);
        total = total.wrapping_add(s);
    });
    (total, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystal_hardware::nvidia_v100;

    #[test]
    fn sum_matches_reference() {
        let mut g = Gpu::new(nvidia_v100());
        let data: Vec<i32> = (0..10_000).map(|i| i - 5000).collect();
        let col = g.alloc_from(&data);
        let (s, _) = column_sum_i64(&mut g, &col);
        let expected: i64 = data.iter().map(|&v| v as i64).sum();
        assert_eq!(s, expected);
    }

    #[test]
    fn sum_reads_column_once_with_one_atomic_per_block() {
        let mut g = Gpu::new(nvidia_v100());
        let n = 1 << 14;
        let data: Vec<i32> = vec![1; n];
        let col = g.alloc_from(&data);
        let (s, r) = column_sum_i64(&mut g, &col);
        assert_eq!(s, n as i64);
        assert_eq!(r.stats.global_read_bytes as usize, 4 * n);
        assert_eq!(r.stats.same_addr_atomics as usize, n / 512);
    }
}
