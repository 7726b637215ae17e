//! Full radix sorts of 32-bit key / 32-bit value arrays (Section 4.4).
//!
//! * [`lsb_radix_sort`] — Least-Significant-Bit radix sort (Merrill &
//!   Grimshaw style). Every pass must be **stable**, which caps the GPU at
//!   7 bits per pass, so 32-bit keys need **5** passes (6, 6, 6, 7, 7 bits).
//! * [`msb_radix_sort`] — Most-Significant-Bit radix sort (Stehle &
//!   Jacobsen). MSB recursion does not need stability, so each pass handles
//!   8 bits and 32-bit keys finish in **4** passes — the reason MSB wins on
//!   the GPU ("the MSB radix sort \[sorts\] 32-bit keys with 4 passes each
//!   processing 8-bits at a time").
//!
//! Each pass reads and writes both columns once, so the 5-vs-4 pass count
//! translates directly into the ~25% traffic advantage the paper reports.

use crystal_gpu_sim::mem::DeviceBuffer;
use crystal_gpu_sim::Gpu;

use super::radix::{radix_partition_pass, RadixError, RadixOrder, SortedPair};

/// LSB pass plan for 32-bit keys under the stable 7-bit cap: the paper's
/// "5 radix partitioning passes processing 6,6,6,7,7 bits each".
pub(crate) const LSB_PASS_BITS: [u32; 5] = [6, 6, 6, 7, 7];

/// MSB pass plan: 4 passes of 8 bits, most significant first.
pub(crate) const MSB_PASS_BITS: [u32; 4] = [8, 8, 8, 8];

/// Sorts `(keys, vals)` by key with stable LSB radix sort. Returns the
/// sorted buffers and all kernel reports (3 per pass).
pub fn lsb_radix_sort(
    gpu: &mut Gpu,
    keys: &DeviceBuffer<u32>,
    vals: &DeviceBuffer<u32>,
) -> Result<SortedPair, RadixError> {
    let mut reports = Vec::new();
    let mut cur_k = gpu.alloc_from(keys.as_slice());
    let mut cur_v = gpu.alloc_from(vals.as_slice());
    let mut shift = 0u32;
    for bits in LSB_PASS_BITS {
        let (nk, nv, rs) =
            radix_partition_pass(gpu, &cur_k, &cur_v, bits, shift, RadixOrder::Stable)?;
        reports.extend(rs);
        gpu.free(cur_k);
        gpu.free(cur_v);
        cur_k = nk;
        cur_v = nv;
        shift += bits;
    }
    debug_assert_eq!(shift, 32);
    Ok((cur_k, cur_v, reports))
}

/// Buckets at or below this size are finished with an in-block local sort
/// instead of further partitioning (as Stehle & Jacobsen's implementation
/// hands small buckets to a shared-memory sorting network). Such segments
/// are read and written once, coalesced, and never touched again.
pub(crate) const MSB_LOCAL_SORT_THRESHOLD: usize = 32;

/// Sorts `(keys, vals)` by key with MSB radix sort: each level partitions
/// every *active* segment by the next 8 most-significant bits (one pass over
/// the active data; a single kernel handles all segments of a level), and
/// retires segments small enough for an in-block local sort.
pub fn msb_radix_sort(
    gpu: &mut Gpu,
    keys: &DeviceBuffer<u32>,
    vals: &DeviceBuffer<u32>,
) -> Result<SortedPair, RadixError> {
    let n = keys.len();
    let mut reports = Vec::new();
    let mut cur_k = gpu.alloc_from(keys.as_slice());
    let mut cur_v = gpu.alloc_from(vals.as_slice());
    // Segments of the array still to be refined; level 0 is the whole array.
    let mut segments: Vec<(usize, usize)> = vec![(0, n)];
    let mut shift = 32;
    for (level, bits) in MSB_PASS_BITS.iter().copied().enumerate() {
        if segments.is_empty() {
            break;
        }
        shift -= bits;
        let buckets = 1usize << bits;
        let active: usize = segments.iter().map(|&(s, e)| e - s).sum();
        let mut next_k = gpu.alloc_from(cur_k.as_slice());
        let mut next_v = gpu.alloc_from(cur_v.as_slice());
        let mut next_segments = Vec::with_capacity(segments.len() * 8);
        let cfg = super::radix::radix_launch_config(active.max(1));
        let name = format!("msb_level_{level}");
        let report = gpu.launch(&name, cfg, |ctx| {
            if ctx.block_idx != 0 {
                return;
            }
            // The level reads and writes both columns of every *active*
            // segment exactly once; retired segments are never revisited.
            ctx.global_read_coalesced(2 * active * 4);
            ctx.shared(2 * active * 8);
            ctx.sync();
            ctx.compute(4 * active);
            for &(start, end) in &segments {
                let seg = end - start;
                if seg <= MSB_LOCAL_SORT_THRESHOLD {
                    // In-block local sort by the full remaining key bits;
                    // the write-back is one contiguous coalesced run.
                    let mut pairs: Vec<(u32, u32)> = cur_k.as_slice()[start..end]
                        .iter()
                        .copied()
                        .zip(cur_v.as_slice()[start..end].iter().copied())
                        .collect();
                    pairs.sort_unstable_by_key(|&(k, _)| k);
                    for (i, (k, v)) in pairs.into_iter().enumerate() {
                        next_k.as_mut_slice()[start + i] = k;
                        next_v.as_mut_slice()[start + i] = v;
                    }
                    continue;
                }
                let mut counts = vec![0usize; buckets];
                for i in start..end {
                    counts[((cur_k.as_slice()[i] >> shift) as usize) & (buckets - 1)] += 1;
                }
                let mut cursors = vec![0usize; buckets];
                let mut acc = start;
                for d in 0..buckets {
                    cursors[d] = acc;
                    if counts[d] > 0 {
                        next_segments.push((acc, acc + counts[d]));
                    }
                    acc += counts[d];
                }
                for i in start..end {
                    let d = ((cur_k.as_slice()[i] >> shift) as usize) & (buckets - 1);
                    next_k.as_mut_slice()[cursors[d]] = cur_k.as_slice()[i];
                    next_v.as_mut_slice()[cursors[d]] = cur_v.as_slice()[i];
                    cursors[d] += 1;
                }
            }
            // Per-digit runs continue across blocks (and bucket sorts write
            // contiguously), so write traffic is the payload.
            ctx.global_write_coalesced(2 * active * 4);
        });
        reports.push(report);
        gpu.free(cur_k);
        gpu.free(cur_v);
        cur_k = next_k;
        cur_v = next_v;
        segments = next_segments;
        // Size-1 sub-buckets are trivially done.
        segments.retain(|&(s, e)| e - s > 1);
    }
    // Any segments still active after the last pass share identical keys
    // down to bit 0, so they are sorted.
    Ok((cur_k, cur_v, reports))
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

    fn reference_sorted(keys: &[u32], vals: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let mut pairs: Vec<(u32, u32)> = keys.iter().copied().zip(vals.iter().copied()).collect();
        pairs.sort_by_key(|&(k, _)| k);
        (
            pairs.iter().map(|p| p.0).collect(),
            pairs.iter().map(|p| p.1).collect(),
        )
    }

    #[test]
    fn lsb_sort_matches_std_sort() {
        let mut g = gpu();
        let keys = pseudo_random(40_000, 17);
        let vals: Vec<u32> = (0..40_000).collect();
        let dk = g.alloc_from(&keys);
        let dv = g.alloc_from(&vals);
        let (sk, sv, reports) = lsb_radix_sort(&mut g, &dk, &dv).unwrap();
        let (rk, rv) = reference_sorted(&keys, &vals);
        assert_eq!(sk.as_slice(), &rk[..]);
        assert_eq!(sv.as_slice(), &rv[..]);
        // 5 passes x 3 kernels.
        assert_eq!(reports.len(), 15);
    }

    #[test]
    fn msb_sort_matches_std_sort() {
        let mut g = gpu();
        let keys = pseudo_random(40_000, 29);
        let vals: Vec<u32> = (0..40_000).collect();
        let dk = g.alloc_from(&keys);
        let dv = g.alloc_from(&vals);
        let (sk, sv, reports) = msb_radix_sort(&mut g, &dk, &dv).unwrap();
        let sorted_keys = {
            let mut k = keys.clone();
            k.sort_unstable();
            k
        };
        assert_eq!(sk.as_slice(), &sorted_keys[..]);
        // Key/value pairing preserved (values may reorder within equal keys).
        for (k, v) in sk.as_slice().iter().zip(sv.as_slice()) {
            assert_eq!(keys[*v as usize], *k);
        }
        // At most 4 eight-bit levels; small inputs retire early via the
        // local-sort threshold.
        assert!((1..=4).contains(&reports.len()));
    }

    #[test]
    fn sort_handles_duplicates_and_extremes() {
        let mut g = gpu();
        let keys: Vec<u32> = vec![u32::MAX, 0, 5, 5, 5, u32::MAX, 0, 1];
        let vals: Vec<u32> = (0..8).collect();
        let dk = g.alloc_from(&keys);
        let dv = g.alloc_from(&vals);
        let (sk, _, _) = lsb_radix_sort(&mut g, &dk, &dv).unwrap();
        assert_eq!(sk.as_slice(), &[0, 0, 1, 5, 5, 5, u32::MAX, u32::MAX]);
        let (mk, _, _) = msb_radix_sort(&mut g, &dk, &dv).unwrap();
        assert_eq!(mk.as_slice(), sk.as_slice());
    }

    /// Section 4.4's result: MSB (4 passes) beats stable LSB (5 passes) on
    /// the GPU by roughly the traffic ratio.
    #[test]
    fn msb_is_faster_than_lsb_on_gpu() {
        let mut g = gpu();
        let n = 1 << 18;
        let keys = pseudo_random(n, 31);
        let vals: Vec<u32> = (0..n as u32).collect();
        let dk = g.alloc_from(&keys);
        let dv = g.alloc_from(&vals);
        let (_, _, lsb) = lsb_radix_sort(&mut g, &dk, &dv).unwrap();
        let (_, _, msb) = msb_radix_sort(&mut g, &dk, &dv).unwrap();
        let t_lsb: f64 = lsb.iter().map(|r| r.time.total_secs()).sum();
        let t_msb: f64 = msb.iter().map(|r| r.time.total_secs()).sum();
        assert!(
            t_msb < t_lsb,
            "MSB ({t_msb}) should beat stable LSB ({t_lsb})"
        );
    }
}
