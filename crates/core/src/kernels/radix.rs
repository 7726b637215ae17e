//! Radix-partitioning passes (Section 4.4, Figure 14).
//!
//! A radix partition pass splits `(key, value)` pairs into `2^r` contiguous
//! output partitions by `r` bits of the key. Both phases of the paper are
//! implemented:
//!
//! * **Histogram phase** — each thread block counts, per digit, the items of
//!   its tile, writing a `2^r` histogram to global memory.
//! * **Data-shuffling phase** — after a prefix sum over all block
//!   histograms yields per-block write cursors, each block re-reads its
//!   tile and scatters items to their partitions (staged through shared
//!   memory so that per-partition writes coalesce into runs).
//!
//! The **stable** variant (required by LSB radix sort) needs per-*thread*
//! cursor state and is limited to 7 bits per pass on the GPU; the
//! **unstable** variant (MSB sort, Stehle & Jacobsen) needs only per-*block*
//! cursors and manages 8 bits — exactly the asymmetry that makes MSB sort
//! finish 32-bit keys in 4 passes while stable LSB needs 5 (Section 4.4).

use crystal_gpu_sim::exec::LaunchConfig;
use crystal_gpu_sim::mem::DeviceBuffer;
use crystal_gpu_sim::stats::KernelReport;
use crystal_gpu_sim::Gpu;

/// Partitioning contract of a shuffle pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadixOrder {
    /// Equal-digit items keep their input order (needed by LSB sort).
    /// GPU register budget caps this at [`GPU_STABLE_MAX_BITS`] bits.
    Stable,
    /// No intra-digit order guarantee; cheaper state allows
    /// [`GPU_UNSTABLE_MAX_BITS`] bits.
    Unstable,
}

/// Stable partitioning "can only process 7-bits at a time" on the GPU.
pub const GPU_STABLE_MAX_BITS: u32 = 7;
/// Unstable (MSB) partitioning "allows ... up to 8-bits at a time".
pub const GPU_UNSTABLE_MAX_BITS: u32 = 8;

/// Error for a pass that exceeds the device's per-pass radix budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RadixError {
    pub bits: u32,
    pub max_bits: u32,
    pub order: RadixOrder,
}

impl std::fmt::Display for RadixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} radix partitioning supports at most {} bits per pass on the GPU (requested {})",
            self.order, self.max_bits, self.bits
        )
    }
}

impl std::error::Error for RadixError {}

#[inline]
fn digit(key: u32, shift: u32, bits: u32) -> usize {
    ((key >> shift) & ((1u32 << bits) - 1)) as usize
}

/// The launch shape radix passes use: 4096-item tiles (256 threads x 16
/// items), following Merrill & Grimshaw — large tiles amortize the
/// per-block histogram/offset traffic that grows with `2^r`.
pub(crate) fn radix_launch_config(n: usize) -> LaunchConfig {
    let cfg = LaunchConfig::for_items(n, 256, 16);
    let tile = cfg.tile();
    cfg.with_shared_mem(tile * 4)
}

/// Histogram phase: per-block digit counts over `keys`, laid out
/// block-major (`hist[block * 2^bits + digit]`).
pub fn radix_histogram(
    gpu: &mut Gpu,
    keys: &DeviceBuffer<u32>,
    bits: u32,
    shift: u32,
    cfg: LaunchConfig,
) -> (DeviceBuffer<u32>, KernelReport) {
    let n = keys.len();
    let buckets = 1usize << bits;
    let cfg = cfg.with_shared_mem(cfg.tile() * 4 + buckets * 4);
    let mut hist = gpu.alloc_zeroed::<u32>(cfg.grid_dim * buckets);
    let report = gpu.launch("radix_histogram", cfg, |ctx| {
        let (start, len) = ctx.tile_bounds(n);
        ctx.global_read_coalesced(len * 4);
        // Each counted item is one shared-memory counter bump.
        ctx.shared(len * 4);
        ctx.sync();
        let base = ctx.block_idx * buckets;
        for &k in &keys.as_slice()[start..start + len] {
            hist.as_mut_slice()[base + digit(k, shift, bits)] += 1;
        }
        ctx.compute(2 * len);
        ctx.global_write_coalesced(buckets * 4);
    });
    (hist, report)
}

/// Prefix-sum phase over the block histograms (the paper's systems call an
/// optimized library routine such as Thrust): produces per-block,
/// per-digit write cursors such that partitioning is **stable** — digit `d`
/// of block `b` starts at
/// `sum(total of digits < d) + sum(hist[b'][d] for b' < b)`.
pub(crate) fn histogram_prefix_offsets(
    gpu: &mut Gpu,
    hist: &DeviceBuffer<u32>,
    grid_dim: usize,
    bits: u32,
) -> (DeviceBuffer<u32>, KernelReport) {
    let buckets = 1usize << bits;
    debug_assert_eq!(hist.len(), grid_dim * buckets);
    let mut offsets = gpu.alloc_zeroed::<u32>(grid_dim * buckets);
    let cfg = LaunchConfig::default_for_items(hist.len());
    let report = gpu.launch("radix_prefix_sum", cfg, |ctx| {
        if ctx.block_idx != 0 {
            return;
        }
        ctx.global_read_coalesced(hist.len() * 4);
        let mut acc = 0u32;
        // Digit-major sweep implements stability.
        for d in 0..buckets {
            for b in 0..grid_dim {
                offsets.as_mut_slice()[b * buckets + d] = acc;
                acc += hist.as_slice()[b * buckets + d];
            }
        }
        ctx.compute(hist.len());
        ctx.global_write_coalesced(offsets.len() * 4);
    });
    (offsets, report)
}

/// A partitioned `(keys, values)` pair plus the kernels that produced it.
pub(crate) type PartitionedPair = (DeviceBuffer<u32>, DeviceBuffer<u32>, KernelReport);

/// A fully sorted or partitioned `(keys, values)` pair with all pass
/// kernels.
pub(crate) type SortedPair = (DeviceBuffer<u32>, DeviceBuffer<u32>, Vec<KernelReport>);

/// Data-shuffling phase: scatters `(key, value)` pairs to their partitions
/// using the cursors from `histogram_prefix_offsets`, in the tile shape of
/// [`radix_launch_config`] (the one the histogram's offsets were laid out
/// in).
///
/// Fails with [`RadixError`] if `bits` exceeds the per-pass budget of the
/// requested [`RadixOrder`].
pub(crate) fn radix_shuffle(
    gpu: &mut Gpu,
    keys: &DeviceBuffer<u32>,
    vals: &DeviceBuffer<u32>,
    offsets: &DeviceBuffer<u32>,
    bits: u32,
    shift: u32,
    order: RadixOrder,
) -> Result<PartitionedPair, RadixError> {
    let max_bits = match order {
        RadixOrder::Stable => GPU_STABLE_MAX_BITS,
        RadixOrder::Unstable => GPU_UNSTABLE_MAX_BITS,
    };
    if bits > max_bits {
        return Err(RadixError {
            bits,
            max_bits,
            order,
        });
    }
    let n = keys.len();
    assert_eq!(vals.len(), n);
    let buckets = 1usize << bits;
    // Staging both columns plus the cursor array in shared memory; the
    // stable variant additionally burns registers/shared memory on
    // per-thread cursor state.
    let cfg = radix_launch_config(n);
    let per_thread_state = if order == RadixOrder::Stable {
        cfg.block_dim * buckets
    } else {
        0
    };
    let cfg = cfg.with_shared_mem(cfg.tile() * 8 + buckets * 4 + per_thread_state);
    let mut out_keys = gpu.alloc_zeroed::<u32>(n);
    let mut out_vals = gpu.alloc_zeroed::<u32>(n);
    let report = gpu.launch("radix_shuffle", cfg, |ctx| {
        let (start, len) = ctx.tile_bounds(n);
        if len == 0 {
            return;
        }
        let buckets_base = ctx.block_idx * buckets;
        // Read the tile (keys + values) and this block's cursor array.
        ctx.global_read_coalesced(len * 8 + buckets * 4);
        // Stage, reorder locally, then write out: two shared round-trips.
        ctx.shared(2 * len * 8);
        ctx.sync();
        let mut cursors: Vec<u32> =
            offsets.as_slice()[buckets_base..buckets_base + buckets].to_vec();
        for i in start..start + len {
            let k = keys.as_slice()[i];
            let d = digit(k, shift, bits);
            let pos = cursors[d] as usize;
            cursors[d] += 1;
            out_keys.as_mut_slice()[pos] = k;
            out_vals.as_mut_slice()[pos] = vals.as_slice()[i];
        }
        ctx.compute(4 * len);
        // Writes coalesce into one run per non-empty digit, and block b+1's
        // digit-d run continues exactly where block b's stopped (the prefix
        // sum is digit-major then block), so partially written cache lines
        // are completed in L2 before eviction: write traffic is the
        // payload itself.
        ctx.global_write_coalesced(2 * len * 4);
    });
    Ok((out_keys, out_vals, report))
}

/// Convenience: a full radix-partition pass (histogram, prefix sum,
/// shuffle) with the paper's default tile shape. Returns the partitioned
/// pair and the three kernel reports.
pub fn radix_partition_pass(
    gpu: &mut Gpu,
    keys: &DeviceBuffer<u32>,
    vals: &DeviceBuffer<u32>,
    bits: u32,
    shift: u32,
    order: RadixOrder,
) -> Result<SortedPair, RadixError> {
    let cfg = radix_launch_config(keys.len());
    let (hist, r1) = radix_histogram(gpu, keys, bits, shift, cfg);
    let (offsets, r2) = histogram_prefix_offsets(gpu, &hist, cfg.grid_dim, bits);
    let (ok, ov, r3) = radix_shuffle(gpu, keys, vals, &offsets, bits, shift, order)?;
    gpu.free(hist);
    gpu.free(offsets);
    Ok((ok, ov, vec![r1, r2, r3]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystal_hardware::nvidia_v100;

    fn gpu() -> Gpu {
        Gpu::new(nvidia_v100())
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<u32> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 32) as u32
            })
            .collect()
    }

    #[test]
    fn histogram_counts_every_item() {
        let mut g = gpu();
        let keys = pseudo_random(10_000, 7);
        let dk = g.alloc_from(&keys);
        let cfg = LaunchConfig::default_for_items(keys.len());
        let (hist, _) = radix_histogram(&mut g, &dk, 4, 0, cfg);
        let total: u32 = hist.as_slice().iter().sum();
        assert_eq!(total as usize, keys.len());
        // Cross-check one digit's global count.
        let d3: u32 = (0..cfg.grid_dim).map(|b| hist.as_slice()[b * 16 + 3]).sum();
        let expected = keys.iter().filter(|&&k| k & 0xF == 3).count();
        assert_eq!(d3 as usize, expected);
    }

    #[test]
    fn partition_pass_groups_by_digit() {
        let mut g = gpu();
        let keys = pseudo_random(20_000, 11);
        let vals: Vec<u32> = (0..20_000).collect();
        let dk = g.alloc_from(&keys);
        let dv = g.alloc_from(&vals);
        let (ok, _ov, _) =
            radix_partition_pass(&mut g, &dk, &dv, 5, 0, RadixOrder::Stable).unwrap();
        let digits: Vec<usize> = ok.as_slice().iter().map(|&k| (k & 31) as usize).collect();
        assert!(
            digits.windows(2).all(|w| w[0] <= w[1]),
            "digits must be grouped"
        );
    }

    #[test]
    fn partition_is_a_permutation_carrying_values() {
        let mut g = gpu();
        let keys = pseudo_random(8_192, 23);
        let vals: Vec<u32> = (0..8_192).collect();
        let dk = g.alloc_from(&keys);
        let dv = g.alloc_from(&vals);
        let (ok, ov, _) =
            radix_partition_pass(&mut g, &dk, &dv, 6, 8, RadixOrder::Unstable).unwrap();
        // Every (key, val) pair survives.
        let mut orig: Vec<(u32, u32)> = keys.iter().copied().zip(vals.iter().copied()).collect();
        let mut got: Vec<(u32, u32)> = ok
            .as_slice()
            .iter()
            .copied()
            .zip(ov.as_slice().iter().copied())
            .collect();
        orig.sort_unstable();
        got.sort_unstable();
        assert_eq!(orig, got);
    }

    #[test]
    fn stable_partition_preserves_input_order_within_digit() {
        let mut g = gpu();
        let keys = pseudo_random(30_000, 5)
            .iter()
            .map(|k| k & 0xFF)
            .collect::<Vec<_>>();
        let vals: Vec<u32> = (0..30_000).collect(); // input position
        let dk = g.alloc_from(&keys);
        let dv = g.alloc_from(&vals);
        let (ok, ov, _) = radix_partition_pass(&mut g, &dk, &dv, 4, 0, RadixOrder::Stable).unwrap();
        // Within equal digits, the carried input positions must ascend.
        for w in ok
            .as_slice()
            .iter()
            .zip(ov.as_slice())
            .collect::<Vec<_>>()
            .windows(2)
        {
            let ((k0, v0), (k1, v1)) = (w[0], w[1]);
            if (k0 & 0xF) == (k1 & 0xF) {
                assert!(v0 < v1, "stability violated: {v0} !< {v1}");
            }
        }
    }

    #[test]
    fn stable_rejects_more_than_7_bits() {
        let mut g = gpu();
        let keys = pseudo_random(1024, 3);
        let vals = keys.clone();
        let dk = g.alloc_from(&keys);
        let dv = g.alloc_from(&vals);
        let err = radix_partition_pass(&mut g, &dk, &dv, 8, 0, RadixOrder::Stable).unwrap_err();
        assert_eq!(err.max_bits, 7);
        assert!(radix_partition_pass(&mut g, &dk, &dv, 7, 0, RadixOrder::Stable).is_ok());
    }

    #[test]
    fn unstable_rejects_more_than_8_bits() {
        let mut g = gpu();
        let keys = pseudo_random(1024, 3);
        let vals = keys.clone();
        let dk = g.alloc_from(&keys);
        let dv = g.alloc_from(&vals);
        assert!(radix_partition_pass(&mut g, &dk, &dv, 9, 0, RadixOrder::Unstable).is_err());
        assert!(radix_partition_pass(&mut g, &dk, &dv, 8, 0, RadixOrder::Unstable).is_ok());
    }

    #[test]
    fn shuffle_traffic_grows_with_radix_bits() {
        // More partitions => larger per-block offset arrays to read
        // (Figure 14b's gentle rise with r).
        let mut g = gpu();
        let keys = pseudo_random(1 << 16, 9);
        let vals = keys.clone();
        let dk = g.alloc_from(&keys);
        let dv = g.alloc_from(&vals);
        let (_, _, r3) =
            radix_partition_pass(&mut g, &dk, &dv, 3, 0, RadixOrder::Unstable).unwrap();
        let w3 = r3[2].stats.global_read_bytes;
        let (_, _, r8) =
            radix_partition_pass(&mut g, &dk, &dv, 8, 0, RadixOrder::Unstable).unwrap();
        let w8 = r8[2].stats.global_read_bytes;
        assert!(
            w8 > w3,
            "shuffle read traffic should grow with bits: {w8} vs {w3}"
        );
    }

    #[test]
    fn shuffle_write_traffic_is_payload_sized() {
        let mut g = gpu();
        let n = 1 << 16;
        let keys = pseudo_random(n, 9);
        let vals = keys.clone();
        let dk = g.alloc_from(&keys);
        let dv = g.alloc_from(&vals);
        let (_, _, rs) = radix_partition_pass(&mut g, &dk, &dv, 7, 0, RadixOrder::Stable).unwrap();
        assert_eq!(rs[2].stats.global_write_bytes as usize, 2 * 4 * n);
    }
}
