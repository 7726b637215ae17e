//! Kernels over bit-packed columns (the Section 5.5 compression
//! extension).
//!
//! A packed tile loads `bits/32` of the plain column's bytes — on a
//! bandwidth-bound device that is a direct speedup — at the price of a few
//! shift/mask instructions per value to unpack. The paper's observation is
//! that this trade favors GPUs: their compute-to-bandwidth ratio is far
//! higher than a CPU's, so the unpack work hides under the (reduced)
//! memory traffic. The ablation bench (`reproduce ablation-compression`)
//! quantifies exactly that.

use crystal_gpu_sim::exec::{BlockCtx, LaunchConfig};
use crystal_gpu_sim::mem::DeviceBuffer;
use crystal_gpu_sim::stats::KernelReport;
use crystal_gpu_sim::Gpu;
use crystal_storage::bitpack::{unpack_batch, PackedColumn, PackedView};

use crate::primitives::{block_pred, block_scan, block_shuffle, block_store};
use crate::tile::Tile;

/// A bit-packed column resident in device global memory.
#[derive(Debug)]
pub struct DevicePackedColumn {
    words: DeviceBuffer<u64>,
    bits: u32,
    len: usize,
}

impl DevicePackedColumn {
    /// Uploads a packed column.
    pub fn upload(gpu: &mut Gpu, col: &PackedColumn) -> Self {
        Self::try_upload(gpu, col).expect("device allocation failed")
    }

    /// Fallible upload, for callers (e.g. a caching buffer manager) that
    /// evict and retry on memory pressure instead of panicking.
    pub fn try_upload(
        gpu: &mut Gpu,
        col: &PackedColumn,
    ) -> Result<Self, crystal_gpu_sim::mem::OutOfDeviceMemory> {
        Ok(DevicePackedColumn {
            words: gpu.try_alloc_from(col.words())?,
            bits: col.bits(),
            len: col.len(),
        })
    }

    /// A register-unpack view over the device word stream (the same
    /// shared bit-math the host kernels use).
    #[inline]
    fn view(&self) -> PackedView<'_> {
        PackedView::from_raw(self.words.as_slice(), self.bits, self.len)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Frees the device memory.
    pub fn free(self, gpu: &mut Gpu) {
        gpu.free(self.words);
    }
}

/// BlockLoadPacked: loads and unpacks the tile `[offset, offset+len)` of a
/// packed column with one [`unpack_batch`]. Traffic is the packed bytes;
/// unpacking costs two ALU ops per value.
#[inline]
pub fn block_load_packed(
    ctx: &mut BlockCtx<'_>,
    src: &DevicePackedColumn,
    offset: usize,
    len: usize,
    out: &mut Tile<i32>,
) {
    debug_assert!(offset + len <= src.len);
    let words = src.words.as_slice();
    unpack_batch(words, src.bits, offset, &mut out.storage_mut()[..len]);
    out.set_len(len);
    // The tile's packed footprint, rounded out to whole words.
    let first_bit = offset * src.bits as usize;
    let last_bit = (offset + len) * src.bits as usize;
    let bytes = (last_bit.div_ceil(64) - first_bit / 64) * 8;
    ctx.global_read_coalesced(bytes);
    ctx.compute(2 * len);
}

/// BlockLoadSelPacked: the packed counterpart of `BlockLoadSel` — loads
/// and unpacks only the listed `lanes` (ascending) of the tile
/// `[offset, offset+len)`, touching only the cache lines that hold their
/// packed words. Because a line holds `line*8/bits` packed values (vs
/// `line/4` plain ones), selective loads over packed columns touch
/// proportionally fewer lines at the same selectivity.
///
/// The tile length is `len`, so positions are lanes; lanes not listed are
/// neither read nor written.
#[inline]
pub fn block_load_sel_packed(
    ctx: &mut BlockCtx<'_>,
    src: &DevicePackedColumn,
    offset: usize,
    len: usize,
    lanes: &[u16],
    out: &mut Tile<i32>,
) {
    debug_assert!(offset + len <= src.len);
    debug_assert!(len <= out.capacity());
    let view = src.view();
    let line = ctx.line_size();
    let bits = src.bits as usize;
    let storage = out.storage_mut();
    let mut lines = 0usize;
    let mut last_line = u64::MAX;
    for &lane in lanes {
        let i = offset + lane as usize;
        storage[lane as usize] = view.get(i);
        // The value occupies one word, or two when it straddles a
        // boundary; count the distinct cache lines those words live on
        // (lanes ascend, so tracking the last line suffices).
        for w in i * bits / 64..=((i + 1) * bits - 1) / 64 {
            let l = ctx.line_of(src.words.addr_of(w));
            if l != last_line {
                lines += 1;
                last_line = l;
            }
        }
    }
    out.set_len(len);
    ctx.global_read_coalesced(lines * line);
    ctx.compute(2 * lanes.len());
}

/// Selection over a packed column: `SELECT v FROM r WHERE v > x`, output
/// as plain 4-byte values.
pub fn select_gt_packed(
    gpu: &mut Gpu,
    col: &DevicePackedColumn,
    v: i32,
) -> (DeviceBuffer<i32>, KernelReport) {
    let n = col.len();
    let cfg = LaunchConfig::default_for_items(n);
    let tile = cfg.tile();
    let mut out = gpu.alloc_zeroed::<i32>(n);
    let mut counter = 0usize;
    let mut items: Tile<i32> = Tile::new(tile);
    let mut bitmap: Tile<bool> = Tile::new(tile);
    let mut indices: Tile<u32> = Tile::new(tile);
    let mut shuffled: Tile<i32> = Tile::new(tile);
    let report = gpu.launch("select_packed", cfg, |ctx| {
        let (start, len) = ctx.tile_bounds(n);
        if len == 0 {
            return;
        }
        block_load_packed(ctx, col, start, len, &mut items);
        block_pred(ctx, &items, |y| y > v, &mut bitmap);
        let matched = block_scan(ctx, &bitmap, &mut indices);
        ctx.atomic_same_addr(1);
        let offset = counter;
        counter += matched;
        block_shuffle(ctx, &items, &bitmap, &indices, &mut shuffled);
        block_store(ctx, &shuffled, &mut out, offset);
    });
    out.truncate(counter);
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystal_hardware::nvidia_v100;

    fn packed_column(n: usize, bits: u32) -> (Vec<i32>, PackedColumn) {
        let domain = 1i32 << (bits - 1);
        let values: Vec<i32> = (0..n)
            .map(|i| {
                (i as i32)
                    .wrapping_mul(2654435761u32 as i32)
                    .rem_euclid(domain)
            })
            .collect();
        let packed = PackedColumn::pack(&values, bits).unwrap();
        (values, packed)
    }

    #[test]
    fn packed_select_matches_plain_filter() {
        let mut gpu = Gpu::new(nvidia_v100());
        let (values, packed) = packed_column(20_000, 12);
        let dev = DevicePackedColumn::upload(&mut gpu, &packed);
        let v = 1 << 10;
        let (out, _) = select_gt_packed(&mut gpu, &dev, v);
        let expected: Vec<i32> = values.iter().copied().filter(|&y| y > v).collect();
        assert_eq!(out.as_slice(), &expected[..]);
    }

    #[test]
    fn packed_select_reads_fewer_bytes_than_plain() {
        let mut gpu = Gpu::new(nvidia_v100());
        let n = 1 << 16;
        let (values, packed) = packed_column(n, 8);
        let dev = DevicePackedColumn::upload(&mut gpu, &packed);
        let (_, packed_r) = select_gt_packed(&mut gpu, &dev, 64);
        let plain = gpu.alloc_from(&values);
        let (_, plain_r) = crate::kernels::select_gt(&mut gpu, &plain, 64);
        // 8-bit packing reads ~1/4 of the plain column's bytes.
        let ratio =
            plain_r.stats.global_read_bytes as f64 / packed_r.stats.global_read_bytes as f64;
        assert!((3.5..4.5).contains(&ratio), "read ratio {ratio}");
        // ...and the simulated kernel is faster (bandwidth-bound device).
        assert!(packed_r.time.total_secs() < plain_r.time.total_secs());
    }

    /// Duplicate-heavy packed data: sparse hot values and an all-equal
    /// column produce empty and full tiles, stressing the per-block
    /// offset reservation instead of the uniform mix.
    #[test]
    fn duplicate_heavy_packed_select() {
        let mut gpu = Gpu::new(nvidia_v100());
        let n = 30_000usize;
        let values: Vec<i32> = (0..n).map(|i| i32::from(i % 25 == 0) * 7).collect();
        let packed = PackedColumn::pack(&values, 4).unwrap();
        let dev = DevicePackedColumn::upload(&mut gpu, &packed);
        let (out, _) = select_gt_packed(&mut gpu, &dev, 0);
        let expected: Vec<i32> = values.iter().copied().filter(|&y| y > 0).collect();
        assert_eq!(out.as_slice(), &expected[..]);

        let constant = vec![9i32; n];
        let packed = PackedColumn::pack(&constant, 5).unwrap();
        let dev = DevicePackedColumn::upload(&mut gpu, &packed);
        let (all, _) = select_gt_packed(&mut gpu, &dev, 8);
        assert_eq!(all.len(), n);
        let (none, _) = select_gt_packed(&mut gpu, &dev, 9);
        assert!(none.is_empty());
    }

    /// BlockLoadSelPacked unpacks exactly the selected values and touches
    /// fewer cache lines than the plain selective load at the same
    /// selectivity (a line holds `line*8/bits` packed values).
    #[test]
    fn selective_packed_load_matches_and_reads_fewer_lines() {
        use crate::primitives::block_load_sel;
        use crystal_gpu_sim::exec::LaunchConfig;

        let mut gpu = Gpu::new(nvidia_v100());
        let n = 4096usize;
        let (values, packed) = packed_column(n, 8);
        let dev = DevicePackedColumn::upload(&mut gpu, &packed);
        let plain = gpu.alloc_from(&values);

        // Lanes at stride 16: every plain line is touched, only every
        // fourth packed line is.
        let lanes: Vec<u16> = (0..n as u16).step_by(16).collect();
        let mut out_packed: Tile<i32> = Tile::new(n);
        let mut out_plain: Tile<i32> = Tile::new(n);
        let cfg = LaunchConfig::for_items(n, n, 1);
        let rp = gpu.launch("sel_packed", cfg, |ctx| {
            block_load_sel_packed(ctx, &dev, 0, n, &lanes, &mut out_packed);
        });
        let rq = gpu.launch("sel_plain", cfg, |ctx| {
            block_load_sel(ctx, &plain, 0, n, &lanes, &mut out_plain);
        });
        for &lane in &lanes {
            let i = lane as usize;
            assert_eq!(out_packed.as_slice()[i], values[i], "row {i}");
            assert_eq!(out_plain.as_slice()[i], values[i], "row {i}");
        }
        let ratio = rq.stats.global_read_bytes as f64 / rp.stats.global_read_bytes as f64;
        assert!((3.0..5.0).contains(&ratio), "line ratio {ratio}");
    }

    /// `block_load_sel_packed` and `block_load_packed` against a per-lane
    /// reference at every width, over every tile of a column with a short
    /// tail (so the column's last value, values that straddle a word and,
    /// alone, values that straddle a line are listed): the listed values
    /// land in their lanes,
    /// the other lanes keep what they held, and the kernel reads one line
    /// per distinct line of a listed value's words, unpacks two ops per
    /// value, and touches nothing else.
    #[test]
    fn packed_loads_over_lanes_match_a_per_lane_reference_at_every_width() {
        let spec = nvidia_v100();
        let line = spec.cache_line as u64;
        let n = 3 * 512 + 77;
        let cfg = LaunchConfig::for_items(n, 128, 4);
        for bits in 1..=32u32 {
            let mask = (1u64 << bits.min(31)) - 1;
            let values: Vec<i32> = (0..n as u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17 & mask) as i32)
                .collect();
            let packed = PackedColumn::pack(&values, bits).unwrap();
            let mut gpu = Gpu::new(spec.clone());
            let dev = DevicePackedColumn::upload(&mut gpu, &packed);
            let mut out = Tile::new(512);
            let full = gpu.launch("full", cfg, |ctx| {
                let (start, len) = ctx.tile_bounds(n);
                block_load_packed(ctx, &dev, start, len, &mut out);
                assert_eq!(out.as_slice(), &values[start..start + len], "{bits} bits");
            });
            assert_eq!(full.stats.compute_ops, 2 * n as u64);
            for shape in 0..6 {
                let (mut lines, mut listed) = (Vec::new(), 0);
                let r = gpu.launch("sel", cfg, |ctx| {
                    let (start, len) = ctx.tile_bounds(n);
                    let mut lists = crate::tile::tests::lane_lists(len);
                    // Only the values whose words straddle a cache line.
                    let line_bits = line as usize * 8;
                    let straddles = |lane: &u16| {
                        let bit = (start + *lane as usize) * bits as usize;
                        bit / line_bits != (bit + bits as usize - 1) / line_bits
                    };
                    lists.push((0..len as u16).filter(straddles).collect());
                    let lanes = &lists[shape];
                    out.storage_mut().fill(-1);
                    block_load_sel_packed(ctx, &dev, start, len, lanes, &mut out);
                    assert_eq!(out.len(), len);
                    for (lane, &v) in out.as_slice().iter().enumerate() {
                        let listed = lanes.contains(&(lane as u16));
                        let want = if listed { values[start + lane] } else { -1 };
                        assert_eq!(v, want, "{bits} bits, shape {shape}, row {}", start + lane);
                    }
                    listed += lanes.len();
                    let mut tile_lines = Vec::new();
                    for &lane in lanes {
                        let bit = (start + lane as usize) * bits as usize;
                        for word in bit / 64..=(bit + bits as usize - 1) / 64 {
                            tile_lines.push(dev.words.addr_of(word) / line);
                        }
                    }
                    tile_lines.dedup();
                    lines.extend(tile_lines);
                });
                let want = crystal_gpu_sim::stats::KernelStats {
                    blocks: 4,
                    global_read_bytes: lines.len() as u64 * line,
                    compute_ops: 2 * listed as u64,
                    ..Default::default()
                };
                assert_eq!(r.stats, want, "{bits} bits, shape {shape}");
            }
        }
    }

    #[test]
    fn device_footprint_reflects_compression() {
        let mut gpu = Gpu::new(nvidia_v100());
        let (_, packed) = packed_column(1 << 16, 8);
        let dev = DevicePackedColumn::upload(&mut gpu, &packed);
        assert!(gpu.mem_used() <= (1 << 16) + 16);
        assert_eq!(dev.bits, 8);
        dev.free(&mut gpu);
        assert_eq!(gpu.mem_used(), 0);
    }
}
