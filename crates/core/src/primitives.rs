//! The block-wide functions of the paper's Table 1.
//!
//! Each primitive is a *device function*: it takes tiles as input, performs
//! one block-cooperative task, and produces tiles as output, accounting its
//! memory traffic against the executing block's [`BlockCtx`]. The
//! functional result is computed on the host so that every composed kernel
//! yields real query answers.
//!
//! Accounting conventions (the timing model inputs, see
//! `crystal-gpu-sim::timing`):
//!
//! * `block_load`/`block_store` of full tiles are perfectly coalesced —
//!   consecutive threads touch consecutive addresses, so traffic equals the
//!   payload bytes (Section 2.1's coalescing rule).
//! * `block_load_sel` touches only the cache lines containing matched
//!   entries: `min(column_lines, matched)` lines — exactly the paper's
//!   `min(4|L|/C, |L|*sigma)` term from the Section 5.3 query model.
//! * `block_scan` and `block_shuffle` stage data in shared memory (the
//!   bitmap must be visible across threads; Section 3.3 notes the library
//!   reuses the column staging buffer for this).
//! * `block_pred` and aggregation are register-resident compute.

use crystal_gpu_sim::exec::BlockCtx;
use crystal_gpu_sim::mem::DeviceBuffer;

use crate::tile::Tile;

/// BlockLoad: copies `len` items starting at `offset` from a global column
/// into a tile. Uses vector instructions for full tiles (the items-per-
/// thread efficiency factor in the timing model).
#[inline]
pub fn block_load<T: Copy + Default>(
    ctx: &mut BlockCtx<'_>,
    src: &DeviceBuffer<T>,
    offset: usize,
    len: usize,
    out: &mut Tile<T>,
) {
    debug_assert!(offset + len <= src.len());
    debug_assert!(len <= out.capacity());
    out.storage_mut()[..len].copy_from_slice(&src.as_slice()[offset..offset + len]);
    out.set_len(len);
    ctx.global_read_coalesced(len * std::mem::size_of::<T>());
}

/// BlockLoadSel: selectively loads the items of a tile whose bitmap entry is
/// set. Space for the whole tile is reserved, but only cache lines holding
/// matched entries are read from global memory.
///
/// Unmatched positions of `out` hold `T::default()`; the tile length is the
/// full tile so positions correspond to the bitmap.
#[inline]
pub fn block_load_sel<T: Copy + Default>(
    ctx: &mut BlockCtx<'_>,
    src: &DeviceBuffer<T>,
    offset: usize,
    bitmap: &Tile<bool>,
    out: &mut Tile<T>,
) {
    let len = bitmap.len();
    debug_assert!(offset + len <= src.len());
    debug_assert!(len <= out.capacity());
    let line = ctx.line_size();
    let storage = out.storage_mut();
    let mut lines = 0usize;
    let mut last_line = u64::MAX;
    for (i, &m) in bitmap.as_slice().iter().enumerate() {
        if m {
            storage[i] = src.as_slice()[offset + i];
            let l = ctx.line_of(src.addr_of(offset + i));
            if l != last_line {
                lines += 1;
                last_line = l;
            }
        } else {
            storage[i] = T::default();
        }
    }
    out.set_len(len);
    ctx.global_read_coalesced(lines * line);
}

/// BlockStore: copies a tile to global memory at `offset` (coalesced; the
/// shuffle step guarantees the tile is contiguous).
#[inline]
pub fn block_store<T: Copy + Default>(
    ctx: &mut BlockCtx<'_>,
    tile: &Tile<T>,
    dst: &mut DeviceBuffer<T>,
    offset: usize,
) {
    debug_assert!(offset + tile.len() <= dst.len());
    dst.as_mut_slice()[offset..offset + tile.len()].copy_from_slice(tile.as_slice());
    ctx.global_write_coalesced(tile.bytes());
}

/// BlockPred: applies a predicate to a tile, producing a bitmap.
#[inline]
pub fn block_pred<T: Copy + Default, F: Fn(T) -> bool>(
    ctx: &mut BlockCtx<'_>,
    tile: &Tile<T>,
    pred: F,
    bitmap: &mut Tile<bool>,
) {
    debug_assert!(tile.len() <= bitmap.capacity());
    for (i, &v) in tile.as_slice().iter().enumerate() {
        bitmap.storage_mut()[i] = pred(v);
    }
    bitmap.set_len(tile.len());
    ctx.compute(tile.len());
}

/// AndPred: refines an existing bitmap with another predicate
/// (`bitmap[i] &= pred(tile[i])`) — Figure 7(b)'s chained selection.
#[inline]
pub fn block_pred_and<T: Copy + Default, F: Fn(T) -> bool>(
    ctx: &mut BlockCtx<'_>,
    tile: &Tile<T>,
    pred: F,
    bitmap: &mut Tile<bool>,
) {
    debug_assert_eq!(tile.len(), bitmap.len());
    for (i, &v) in tile.as_slice().iter().enumerate() {
        let b = bitmap.as_slice()[i];
        bitmap.storage_mut()[i] = b && pred(v);
    }
    ctx.compute(tile.len());
}

/// OrPred: widens an existing bitmap (`bitmap[i] |= pred(tile[i])`).
#[inline]
pub fn block_pred_or<T: Copy + Default, F: Fn(T) -> bool>(
    ctx: &mut BlockCtx<'_>,
    tile: &Tile<T>,
    pred: F,
    bitmap: &mut Tile<bool>,
) {
    debug_assert_eq!(tile.len(), bitmap.len());
    for (i, &v) in tile.as_slice().iter().enumerate() {
        let b = bitmap.as_slice()[i];
        bitmap.storage_mut()[i] = b || pred(v);
    }
    ctx.compute(tile.len());
}

/// BlockScan: block-cooperative exclusive prefix sum over the bitmap.
/// `indices[i]` is the number of set entries before `i`; the return value is
/// the total number of set entries ("also returns sum of all entries").
///
/// The hierarchical block-wide scan \[Harris et al.\] stages the bitmap in
/// shared memory (reusing the column staging buffer, Section 3.3).
#[inline]
pub fn block_scan(ctx: &mut BlockCtx<'_>, bitmap: &Tile<bool>, indices: &mut Tile<u32>) -> usize {
    debug_assert!(bitmap.len() <= indices.capacity());
    let mut running = 0u32;
    for (i, &m) in bitmap.as_slice().iter().enumerate() {
        indices.storage_mut()[i] = running;
        running += m as u32;
    }
    indices.set_len(bitmap.len());
    // Bitmap staged to shared memory, scanned (two sweeps), indices read
    // back: ~2 passes of 4-byte traffic over the tile.
    ctx.shared(bitmap.len() * 8);
    ctx.compute(2 * bitmap.len());
    ctx.sync();
    running as usize
}

/// BlockShuffle: compacts matched entries into a contiguous tile using the
/// scan offsets, so the subsequent store is coalesced.
#[inline]
pub fn block_shuffle<T: Copy + Default>(
    ctx: &mut BlockCtx<'_>,
    tile: &Tile<T>,
    bitmap: &Tile<bool>,
    indices: &Tile<u32>,
    out: &mut Tile<T>,
) {
    debug_assert_eq!(tile.len(), bitmap.len());
    debug_assert_eq!(tile.len(), indices.len());
    let mut matched = 0usize;
    for i in 0..tile.len() {
        if bitmap.as_slice()[i] {
            out.storage_mut()[indices.as_slice()[i] as usize] = tile.as_slice()[i];
            matched += 1;
        }
    }
    out.set_len(matched);
    // Matched entries cross shared memory once on write, once on read-out.
    ctx.shared(2 * matched * std::mem::size_of::<T>());
    ctx.sync();
}

/// BlockLookup: probes a hash table for every *live* key of a tile
/// ("returns matching entries from a hash table for a tile of keys",
/// Table 1). For each position with a set bitmap entry, the payload tile
/// receives the match's payload; positions that miss are cleared in the
/// bitmap — which is exactly the semi-join step the SSB pipelines chain.
#[inline]
pub fn block_lookup(
    ctx: &mut BlockCtx<'_>,
    keys: &Tile<i32>,
    ht: &crate::hash::DeviceHashTable,
    bitmap: &mut Tile<bool>,
    payloads: &mut Tile<i32>,
) -> usize {
    debug_assert_eq!(keys.len(), bitmap.len());
    debug_assert!(keys.len() <= payloads.capacity());
    let n = keys.len();
    let hits = ht.probe_tile(
        ctx,
        keys.as_slice(),
        bitmap.as_mut_slice(),
        &mut payloads.storage_mut()[..n],
    );
    payloads.set_len(n);
    hits
}

/// BlockAggregate (SUM): hierarchical block-wide reduction of a tile to one
/// value (per-thread partials in registers, then a shared-memory tree).
#[inline]
pub fn block_agg_sum(ctx: &mut BlockCtx<'_>, tile: &Tile<i64>) -> i64 {
    let s = tile.as_slice().iter().sum();
    account_reduction(ctx, tile.len(), 8);
    s
}

/// BlockAggregate (SUM) over f64 values.
#[inline]
pub fn block_agg_sum_f64(ctx: &mut BlockCtx<'_>, tile: &Tile<f64>) -> f64 {
    let s = tile.as_slice().iter().sum();
    account_reduction(ctx, tile.len(), 8);
    s
}

/// BlockAggregate (MIN).
#[inline]
pub fn block_agg_min(ctx: &mut BlockCtx<'_>, tile: &Tile<i64>) -> Option<i64> {
    account_reduction(ctx, tile.len(), 8);
    tile.as_slice().iter().copied().min()
}

/// BlockAggregate (MAX).
#[inline]
pub fn block_agg_max(ctx: &mut BlockCtx<'_>, tile: &Tile<i64>) -> Option<i64> {
    account_reduction(ctx, tile.len(), 8);
    tile.as_slice().iter().copied().max()
}

/// BlockAggregate (COUNT of set bitmap entries).
#[inline]
pub fn block_agg_count(ctx: &mut BlockCtx<'_>, bitmap: &Tile<bool>) -> usize {
    account_reduction(ctx, bitmap.len(), 1);
    bitmap.as_slice().iter().filter(|&&b| b).count()
}

#[inline]
fn account_reduction(ctx: &mut BlockCtx<'_>, len: usize, elem: usize) {
    ctx.compute(len);
    // Tree reduction across the block: one shared-memory round of one value
    // per thread.
    ctx.shared(ctx.block_dim * elem);
    ctx.sync();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystal_gpu_sim::{Gpu, LaunchConfig};
    use crystal_hardware::nvidia_v100;

    fn with_ctx<R>(
        f: impl FnMut(&mut BlockCtx<'_>) -> R,
    ) -> (Vec<R>, crystal_gpu_sim::KernelReport) {
        let mut gpu = Gpu::new(nvidia_v100());
        let mut results = Vec::new();
        let mut f = f;
        let report = gpu.launch("test", LaunchConfig::for_items(512, 128, 4), |ctx| {
            results.push(f(ctx));
        });
        (results, report)
    }

    #[test]
    fn load_roundtrips_and_accounts_coalesced_bytes() {
        let mut gpu = Gpu::new(nvidia_v100());
        let data: Vec<i32> = (0..512).collect();
        let buf = gpu.alloc_from(&data);
        let mut tile = Tile::new(512);
        let r = gpu.launch("t", LaunchConfig::for_items(512, 128, 4), |ctx| {
            block_load(ctx, &buf, 0, 512, &mut tile);
        });
        assert_eq!(tile.as_slice(), &data[..]);
        assert_eq!(r.stats.global_read_bytes, 512 * 4);
    }

    #[test]
    fn store_roundtrips() {
        let mut gpu = Gpu::new(nvidia_v100());
        let mut out = gpu.alloc_zeroed::<i32>(16);
        let mut tile: Tile<i32> = Tile::new(8);
        for v in [5, 6, 7] {
            tile.push(v);
        }
        let r = gpu.launch("t", LaunchConfig::for_items(8, 8, 1), |ctx| {
            if ctx.block_idx == 0 {
                block_store(ctx, &tile, &mut out, 4);
            }
        });
        assert_eq!(&out.as_slice()[4..7], &[5, 6, 7]);
        assert_eq!(r.stats.global_write_bytes, 12);
    }

    #[test]
    fn pred_and_or_combine() {
        let (_r, _) = with_ctx(|ctx| {
            let mut tile: Tile<i32> = Tile::new(8);
            for v in 0..8 {
                tile.push(v);
            }
            let mut bm = Tile::new(8);
            block_pred(ctx, &tile, |v| v >= 2, &mut bm);
            assert_eq!(bm.as_slice().iter().filter(|&&b| b).count(), 6);
            block_pred_and(ctx, &tile, |v| v < 5, &mut bm);
            assert_eq!(
                bm.as_slice(),
                &[false, false, true, true, true, false, false, false]
            );
            block_pred_or(ctx, &tile, |v| v == 7, &mut bm);
            assert!(bm.as_slice()[7]);
        });
    }

    #[test]
    fn scan_is_exclusive_prefix_sum() {
        let (_r, _) = with_ctx(|ctx| {
            let mut bm: Tile<bool> = Tile::new(6);
            for b in [true, false, true, true, false, true] {
                bm.push(b);
            }
            let mut idx = Tile::new(6);
            let total = block_scan(ctx, &bm, &mut idx);
            assert_eq!(total, 4);
            assert_eq!(idx.as_slice(), &[0, 1, 1, 2, 3, 3]);
        });
    }

    #[test]
    fn shuffle_compacts_in_order() {
        let (_r, _) = with_ctx(|ctx| {
            let mut tile: Tile<i32> = Tile::new(6);
            for v in [10, 20, 30, 40, 50, 60] {
                tile.push(v);
            }
            let mut bm: Tile<bool> = Tile::new(6);
            for b in [false, true, false, true, true, false] {
                bm.push(b);
            }
            let mut idx = Tile::new(6);
            block_scan(ctx, &bm, &mut idx);
            let mut out = Tile::new(6);
            block_shuffle(ctx, &tile, &bm, &idx, &mut out);
            assert_eq!(out.as_slice(), &[20, 40, 50]);
        });
    }

    #[test]
    fn load_sel_reads_only_matched_lines() {
        let mut gpu = Gpu::new(nvidia_v100());
        let data: Vec<i32> = (0..512).collect();
        let buf = gpu.alloc_from(&data);
        // One matched entry: exactly one 128-byte line read.
        let mut bm: Tile<bool> = Tile::new(512);
        for i in 0..512 {
            bm.push(i == 77);
        }
        let mut out = Tile::new(512);
        let r = gpu.launch("t", LaunchConfig::for_items(512, 128, 4), |ctx| {
            block_load_sel(ctx, &buf, 0, &bm, &mut out);
        });
        assert_eq!(out.as_slice()[77], 77);
        assert_eq!(out.as_slice()[78], 0);
        assert_eq!(r.stats.global_read_bytes, 128);
    }

    #[test]
    fn load_sel_full_bitmap_caps_at_column_lines() {
        let mut gpu = Gpu::new(nvidia_v100());
        let data: Vec<i32> = (0..512).collect();
        let buf = gpu.alloc_from(&data);
        let mut bm: Tile<bool> = Tile::new(512);
        for _ in 0..512 {
            bm.push(true);
        }
        let mut out = Tile::new(512);
        let r = gpu.launch("t", LaunchConfig::for_items(512, 128, 4), |ctx| {
            block_load_sel(ctx, &buf, 0, &bm, &mut out);
        });
        // 512 i32 = 2048 bytes = 16 lines (buffer is 256-byte aligned).
        assert_eq!(r.stats.global_read_bytes, 16 * 128);
        assert_eq!(out.as_slice(), &data[..]);
    }

    #[test]
    fn aggregates() {
        let (_r, _) = with_ctx(|ctx| {
            let mut tile: Tile<i64> = Tile::new(5);
            for v in [3, -1, 7, 0, 2] {
                tile.push(v);
            }
            assert_eq!(block_agg_sum(ctx, &tile), 11);
            assert_eq!(block_agg_min(ctx, &tile), Some(-1));
            assert_eq!(block_agg_max(ctx, &tile), Some(7));
            let mut bm: Tile<bool> = Tile::new(3);
            for b in [true, false, true] {
                bm.push(b);
            }
            assert_eq!(block_agg_count(ctx, &bm), 2);
        });
    }

    #[test]
    fn scan_and_shuffle_account_shared_traffic() {
        let (_r, report) = with_ctx(|ctx| {
            let mut tile: Tile<i32> = Tile::new(64);
            for v in 0..64 {
                tile.push(v);
            }
            let mut bm = Tile::new(64);
            block_pred(ctx, &tile, |v| v % 2 == 0, &mut bm);
            let mut idx = Tile::new(64);
            block_scan(ctx, &bm, &mut idx);
            let mut out = Tile::new(64);
            block_shuffle(ctx, &tile, &bm, &idx, &mut out);
        });
        assert!(report.stats.shared_bytes > 0);
        assert!(report.stats.barriers >= 2);
    }
}
