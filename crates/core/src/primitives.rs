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
//! * `block_load_sel` loads the lanes of a lane list ([`crate::tile`]) and
//!   touches only the cache lines containing them: `min(column_lines,
//!   matched)` lines — exactly the paper's `min(4|L|/C, |L|*sigma)` term
//!   from the Section 5.3 query model. `block_pred_and` narrows the same
//!   list; `block_lookup` is the bitmap adapter of the lane-list probe.
//! * `block_scan` and `block_shuffle` stage data in shared memory (the
//!   bitmap must be visible across threads; Section 3.3 notes the library
//!   reuses the column staging buffer for this).
//! * `block_pred` and aggregation are register-resident compute.

use crystal_gpu_sim::exec::BlockCtx;
use crystal_gpu_sim::mem::DeviceBuffer;

use crate::tile::{bitmap_lanes, retain_lanes, Tile};

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

/// BlockLoadSel: selectively loads the listed `lanes` (ascending, see
/// [`crate::tile`]) of the tile `[offset, offset+len)`. Space for the whole
/// tile is reserved, but only cache lines holding listed items are read
/// from global memory.
///
/// The tile length is `len`, so positions are lanes; lanes not listed are
/// neither read nor written.
#[inline]
pub fn block_load_sel<T: Copy + Default>(
    ctx: &mut BlockCtx<'_>,
    src: &DeviceBuffer<T>,
    offset: usize,
    len: usize,
    lanes: &[u16],
    out: &mut Tile<T>,
) {
    debug_assert!(offset + len <= src.len());
    debug_assert!(len <= out.capacity());
    let line = ctx.line_size();
    let storage = out.storage_mut();
    let mut lines = 0usize;
    let mut last_line = u64::MAX;
    for &lane in lanes {
        let i = offset + lane as usize;
        storage[lane as usize] = src.as_slice()[i];
        let l = ctx.line_of(src.addr_of(i));
        if l != last_line {
            lines += 1;
            last_line = l;
        }
    }
    out.set_len(len);
    ctx.global_read_coalesced(lines * line);
}

/// BlockStore: copies a tile to global memory at `offset` (coalesced; the
/// shuffle step guarantees the tile is contiguous). Table 1; the last step
/// of the Figure 4(b) selection kernel.
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

/// AndPred: refines a lane list with another predicate, keeping the listed
/// lanes whose item passes, in order — Figure 7(b)'s chained selection.
/// Charged per tile lane, as the block evaluates it.
#[inline]
pub fn block_pred_and<T: Copy + Default, F: Fn(T) -> bool>(
    ctx: &mut BlockCtx<'_>,
    tile: &Tile<T>,
    pred: F,
    lanes: &mut Vec<u16>,
) {
    let items = tile.as_slice();
    retain_lanes(lanes, |lane| pred(items[lane]));
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
///
/// The bitmap adapter of
/// [`probe_tile`](crate::hash::DeviceHashTable::probe_tile), which walks a
/// lane list: the bitmap is listed, probed and written back.
///
/// # Panics
/// If the tile has more lanes than a `u16` lane list can name.
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
    let mut lanes = Vec::with_capacity(n);
    bitmap_lanes(bitmap, &mut lanes);
    let hits = ht.probe_tile(ctx, keys.as_slice(), &mut lanes, payloads.storage_mut());
    let live = bitmap.as_mut_slice();
    live.fill(false);
    lanes.iter().for_each(|&lane| live[lane as usize] = true);
    payloads.set_len(n);
    hits
}

/// BlockAggregate (SUM): hierarchical block-wide reduction of a tile to one
/// value (per-thread partials in registers, then a shared-memory tree).
/// Table 1; the block partial of the column sum and of the Figure 13 join
/// probe's `SUM`.
#[inline]
pub fn block_agg_sum(ctx: &mut BlockCtx<'_>, tile: &Tile<i64>) -> i64 {
    let s = tile.as_slice().iter().sum();
    ctx.compute(tile.len());
    // Tree reduction across the block: one shared-memory round of one value
    // per thread.
    ctx.shared(ctx.block_dim * 8);
    ctx.sync();
    s
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
    fn pred_and_narrows_the_lane_list() {
        let (_r, _) = with_ctx(|ctx| {
            let mut tile: Tile<i32> = Tile::new(8);
            for v in 0..8 {
                tile.push(v);
            }
            let mut bm = Tile::new(8);
            block_pred(ctx, &tile, |v| v >= 2, &mut bm);
            assert_eq!(bm.as_slice().iter().filter(|&&b| b).count(), 6);
            let mut lanes = Vec::new();
            bitmap_lanes(&bm, &mut lanes);
            block_pred_and(ctx, &tile, |v| v < 5, &mut lanes);
            assert_eq!(lanes, [2, 3, 4]);
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
        // One listed lane: exactly one 128-byte line read.
        let mut out = Tile::new(512);
        let r = gpu.launch("t", LaunchConfig::for_items(512, 128, 4), |ctx| {
            block_load_sel(ctx, &buf, 0, 512, &[77], &mut out);
        });
        assert_eq!(out.as_slice()[77], 77);
        assert_eq!(r.stats.global_read_bytes, 128);
    }

    #[test]
    fn load_sel_full_list_caps_at_column_lines() {
        let mut gpu = Gpu::new(nvidia_v100());
        let data: Vec<i32> = (0..512).collect();
        let buf = gpu.alloc_from(&data);
        let lanes: Vec<u16> = (0..512).collect();
        let mut out = Tile::new(512);
        let r = gpu.launch("t", LaunchConfig::for_items(512, 128, 4), |ctx| {
            block_load_sel(ctx, &buf, 0, 512, &lanes, &mut out);
        });
        // 512 i32 = 2048 bytes = 16 lines (buffer is 256-byte aligned).
        assert_eq!(r.stats.global_read_bytes, 16 * 128);
        assert_eq!(out.as_slice(), &data[..]);
    }

    /// `block_load_sel` against a per-lane reference over every tile of a
    /// column with a short tail: the listed values land in their lanes,
    /// the other lanes keep what they held, and the kernel reads one line
    /// per distinct line of a listed value — and touches nothing else.
    #[test]
    fn load_sel_over_lanes_matches_a_per_lane_reference() {
        let spec = nvidia_v100();
        let line = spec.cache_line as u64;
        let n = 3 * 512 + 77;
        let data: Vec<i32> = (0..n as i32).map(|i| i.wrapping_mul(40503)).collect();
        let mut gpu = Gpu::new(spec);
        let buf = gpu.alloc_from(&data);
        let cfg = LaunchConfig::for_items(n, 128, 4);
        for shape in 0..5 {
            let mut lines = Vec::new();
            let mut out = Tile::new(512);
            let r = gpu.launch("t", cfg, |ctx| {
                let (start, len) = ctx.tile_bounds(n);
                let lanes = &crate::tile::tests::lane_lists(len)[shape];
                out.storage_mut().fill(-1);
                block_load_sel(ctx, &buf, start, len, lanes, &mut out);
                assert_eq!(out.len(), len);
                for (lane, &v) in out.as_slice().iter().enumerate() {
                    let listed = lanes.contains(&(lane as u16));
                    let want = if listed { data[start + lane] } else { -1 };
                    assert_eq!(v, want, "shape {shape}, row {}", start + lane);
                }
                let mut tile_lines: Vec<u64> = (lanes.iter())
                    .map(|&lane| buf.addr_of(start + lane as usize) / line)
                    .collect();
                tile_lines.dedup();
                lines.extend(tile_lines);
            });
            let want = crystal_gpu_sim::stats::KernelStats {
                blocks: 4,
                global_read_bytes: lines.len() as u64 * line,
                ..Default::default()
            };
            assert_eq!(r.stats, want, "shape {shape}");
        }
    }

    /// The bitmap adapter names lanes with `u16`s: a 65 536-lane tile is
    /// the largest it takes, its last lane included.
    #[test]
    fn lookup_takes_a_65536_lane_tile() {
        let (hits, bitmap, payloads) = lookup_every_third_lane_dead(1 << 16);
        assert_eq!(hits, (1 << 16) - (1 << 16) / 3);
        for lane in [0, 1, 65534, 65535] {
            assert_eq!(bitmap[lane], lane % 3 != 1, "lane {lane}");
        }
        assert_eq!(payloads[65535], 2 * 65535);
    }

    #[test]
    #[should_panic(expected = "a 65537-lane tile does not fit a u16 lane list")]
    fn lookup_refuses_a_65537_lane_tile() {
        lookup_every_third_lane_dead((1 << 16) + 1);
    }

    /// `block_lookup` over a `lanes`-lane tile whose lane `i` holds key `i`,
    /// every lane live but one in three, against a perfect table of every
    /// such key with payload `2 * key`.
    fn lookup_every_third_lane_dead(lanes: usize) -> (usize, Vec<bool>, Vec<i32>) {
        let mut gpu = Gpu::new(nvidia_v100());
        let build: Vec<i32> = (0..lanes as i32).collect();
        let vals: Vec<i32> = build.iter().map(|&k| 2 * k).collect();
        let (dk, dv) = (gpu.alloc_from(&build), gpu.alloc_from(&vals));
        let scheme = crate::hash::HashScheme::Perfect { min: 0 };
        let (ht, _) = crate::hash::DeviceHashTable::build(&mut gpu, &dk, &dv, lanes, scheme);
        let (mut keys, mut bitmap, mut payloads) =
            (Tile::new(lanes), Tile::new(lanes), Tile::new(lanes));
        for (lane, &key) in build.iter().enumerate() {
            keys.push(key);
            bitmap.push(lane % 3 != 1);
        }
        let mut hits = 0;
        gpu.launch("t", LaunchConfig::for_items(1, 1, 1), |ctx| {
            hits = block_lookup(ctx, &keys, &ht, &mut bitmap, &mut payloads);
        });
        (
            hits,
            bitmap.as_slice().to_vec(),
            payloads.as_slice().to_vec(),
        )
    }

    #[test]
    fn aggregates() {
        let (_r, _) = with_ctx(|ctx| {
            let mut tile: Tile<i64> = Tile::new(5);
            for v in [3, -1, 7, 0, 2] {
                tile.push(v);
            }
            assert_eq!(block_agg_sum(ctx, &tile), 11);
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
