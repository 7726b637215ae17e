//! Radix partitioning and LSB radix sort on the CPU (Section 4.4).
//!
//! Follows Polychroniou & Ross's design: the histogram phase gives each
//! thread a private `2^r` counter array (L1-resident); a prefix sum over
//! the `2^r x threads` histogram matrix (digit-major, then thread) yields
//! per-thread write cursors that make the partition **stable**; the shuffle
//! phase scatters through per-digit software write-combining buffers so
//! that actual stores to the output are cache-line-sized batches.
//!
//! "CPU Stable is able to partition up to 8-bits at a time while remaining
//! bandwidth bound. Beyond 8-bits, the size of the partition buffers needed
//! exceeds the size of L1 cache and the performance starts to deteriorate"
//! — the buffers here are `2^r` x `WC_BUFFER` entries of 8 bytes, i.e.
//! 16 KB at r = 8, which is exactly the L1 boundary of the paper's CPU.

use crate::exec::{partition_ranges, scoped_map, SendPtr};

/// Entries per digit in the software write-combining buffer (8 pairs x 8
/// bytes = one 64-byte cache line).
pub(crate) const WC_BUFFER: usize = 8;

/// CPU LSB radix sort passes for 32-bit keys: 4 passes of 8 bits.
pub(crate) const CPU_LSB_PASS_BITS: [u32; 4] = [8, 8, 8, 8];

#[inline]
fn digit(key: u32, shift: u32, bits: u32) -> usize {
    ((key >> shift) & ((1u32 << bits) - 1)) as usize
}

/// Histogram phase: per-thread digit counts (thread-major result:
/// `hists[thread][digit]`).
pub fn radix_histogram(keys: &[u32], bits: u32, shift: u32, threads: usize) -> Vec<Vec<u32>> {
    let buckets = 1usize << bits;
    scoped_map(keys.len(), threads, |range| {
        let mut hist = vec![0u32; buckets];
        for &k in &keys[range] {
            hist[digit(k, shift, bits)] += 1;
        }
        hist
    })
}

/// One stable radix-partition pass over `(keys, vals)`. Returns the
/// partitioned arrays (digit-ascending, stable within digit).
pub fn radix_partition_stable(
    keys: &[u32],
    vals: &[u32],
    bits: u32,
    shift: u32,
    threads: usize,
) -> (Vec<u32>, Vec<u32>) {
    let n = keys.len();
    assert_eq!(vals.len(), n);
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let buckets = 1usize << bits;
    let ranges = partition_ranges(n, threads);
    let nt = ranges.len();

    // Phase 1: per-thread histograms.
    let hists = radix_histogram(keys, bits, shift, threads);

    // Prefix sum, digit-major then thread — this ordering is what makes the
    // pass stable: thread t's digit-d run lands after every digit < d and
    // after digit-d runs of threads < t.
    let mut cursors = vec![vec![0u32; buckets]; nt];
    let mut acc = 0u32;
    for d in 0..buckets {
        for t in 0..nt {
            cursors[t][d] = acc;
            acc += hists[t][d];
        }
    }
    debug_assert_eq!(acc as usize, n);

    // Phase 2: scatter through write-combining buffers.
    let mut out_keys = vec![0u32; n];
    let mut out_vals = vec![0u32; n];
    let pk = SendPtr(out_keys.as_mut_ptr());
    let pv = SendPtr(out_vals.as_mut_ptr());
    std::thread::scope(|s| {
        for (t, range) in ranges.iter().cloned().enumerate() {
            let mut cursor = cursors[t].clone();
            let keys = &keys[range.clone()];
            let vals = &vals[range];
            s.spawn(move || {
                let mut buf_k = vec![[0u32; WC_BUFFER]; buckets];
                let mut buf_v = vec![[0u32; WC_BUFFER]; buckets];
                let mut buf_len = vec![0u8; buckets];
                for (&k, &v) in keys.iter().zip(vals) {
                    let d = digit(k, shift, bits);
                    let l = buf_len[d] as usize;
                    buf_k[d][l] = k;
                    buf_v[d][l] = v;
                    buf_len[d] = (l + 1) as u8;
                    if l + 1 == WC_BUFFER {
                        // Flush one full cache line of pairs.
                        let base = cursor[d] as usize;
                        for j in 0..WC_BUFFER {
                            // SAFETY: cursor ranges are disjoint across
                            // threads and digits by construction of the
                            // digit-major prefix sum.
                            unsafe {
                                pk.write(base + j, buf_k[d][j]);
                                pv.write(base + j, buf_v[d][j]);
                            }
                        }
                        cursor[d] += WC_BUFFER as u32;
                        buf_len[d] = 0;
                    }
                }
                // Flush tails.
                for d in 0..buckets {
                    let base = cursor[d] as usize;
                    for j in 0..buf_len[d] as usize {
                        // SAFETY: as above.
                        unsafe {
                            pk.write(base + j, buf_k[d][j]);
                            pv.write(base + j, buf_v[d][j]);
                        }
                    }
                }
            });
        }
    });
    (out_keys, out_vals)
}

/// Full LSB radix sort of `(keys, vals)` by key: 4 stable 8-bit passes.
pub fn lsb_radix_sort(keys: &[u32], vals: &[u32], threads: usize) -> (Vec<u32>, Vec<u32>) {
    let mut k = keys.to_vec();
    let mut v = vals.to_vec();
    let mut shift = 0;
    for bits in CPU_LSB_PASS_BITS {
        let (nk, nv) = radix_partition_stable(&k, &v, bits, shift, threads);
        k = nk;
        v = nv;
        shift += bits;
    }
    (k, v)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn histogram_counts_match() {
        let keys = pseudo_random(50_000, 3);
        let hists = radix_histogram(&keys, 6, 4, 4);
        let total: u32 = hists.iter().flatten().sum();
        assert_eq!(total as usize, keys.len());
        let d7: u32 = hists.iter().map(|h| h[7]).sum();
        let expected = keys.iter().filter(|&&k| (k >> 4) & 63 == 7).count();
        assert_eq!(d7 as usize, expected);
    }

    #[test]
    fn partition_groups_digits_stably() {
        let keys: Vec<u32> = pseudo_random(30_000, 5).iter().map(|k| k & 0xFF).collect();
        let vals: Vec<u32> = (0..30_000).collect();
        let (ok, ov) = radix_partition_stable(&keys, &vals, 4, 0, 4);
        // Grouped by digit...
        let digits: Vec<u32> = ok.iter().map(|&k| k & 0xF).collect();
        assert!(digits.windows(2).all(|w| w[0] <= w[1]));
        // ...stable within digit (carried input positions ascend)...
        for w in ok.iter().zip(&ov).collect::<Vec<_>>().windows(2) {
            if (w[0].0 & 0xF) == (w[1].0 & 0xF) {
                assert!(w[0].1 < w[1].1);
            }
        }
        // ...and a permutation.
        let mut orig: Vec<(u32, u32)> = keys.into_iter().zip(vals).collect();
        let mut got: Vec<(u32, u32)> = ok.into_iter().zip(ov).collect();
        orig.sort_unstable();
        got.sort_unstable();
        assert_eq!(orig, got);
    }

    #[test]
    fn lsb_sort_matches_std() {
        let keys = pseudo_random(80_000, 11);
        let vals: Vec<u32> = (0..80_000).collect();
        let (sk, sv) = lsb_radix_sort(&keys, &vals, 4);
        let mut expected: Vec<(u32, u32)> = keys.iter().copied().zip(vals).collect();
        expected.sort_by_key(|&(k, _)| k);
        let got: Vec<(u32, u32)> = sk.into_iter().zip(sv).collect();
        assert_eq!(got, expected, "LSB sort must be stable and ordered");
    }

    #[test]
    fn sort_empty_and_tiny() {
        let (k, v) = lsb_radix_sort(&[], &[], 4);
        assert!(k.is_empty() && v.is_empty());
        let (k, v) = lsb_radix_sort(&[42], &[7], 4);
        assert_eq!((k[0], v[0]), (42, 7));
    }

    #[test]
    fn partition_with_single_thread_matches_parallel() {
        let keys = pseudo_random(10_000, 17);
        let vals: Vec<u32> = (0..10_000).collect();
        let (k1, v1) = radix_partition_stable(&keys, &vals, 8, 8, 1);
        let (k4, v4) = radix_partition_stable(&keys, &vals, 8, 8, 4);
        assert_eq!(k1, k4);
        assert_eq!(v1, v4);
    }

    #[test]
    fn high_radix_partition_still_correct() {
        // r = 11 spills the L1 write-combining buffers; correctness must
        // hold even where the paper notes performance deteriorates.
        let keys = pseudo_random(20_000, 23);
        let vals: Vec<u32> = (0..20_000).collect();
        let (ok, _) = radix_partition_stable(&keys, &vals, 11, 0, 4);
        let digits: Vec<u32> = ok.iter().map(|&k| k & 0x7FF).collect();
        assert!(digits.windows(2).all(|w| w[0] <= w[1]));
    }
}
