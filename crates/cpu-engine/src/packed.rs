//! CPU operators over bit-packed columns (the compression extension's
//! CPU half).
//!
//! On a CPU the unpack shifts compete with the scan loop for the same
//! scalar pipes, so compression buys much less than on a GPU — the
//! asymmetry the paper predicts from the devices' compute-to-bandwidth
//! ratios. `reproduce ablation-compression` measures both sides.
//!
//! There is deliberately **one** scan implementation here: the operators
//! are generic over `crystal_storage::encoding::ColumnRead`, the same
//! trait the selection-vector kernels and the morsel executor read
//! through, so the plain and packed variants are two monomorphizations of
//! the same fused loop rather than hand-maintained copies.
//!
//! The loops are two-phase chunked like `crystal_core::selvec`: each
//! [`VECTOR_SIZE`] chunk is batch-decoded once (SIMD for packed
//! storage, zero-copy for plain), then compared/reduced over a dense
//! `i32` window the compiler can autovectorize — the per-value
//! shift/mask/reload cascade never reaches the compare loop.

use crystal_storage::bitpack::PackedColumn;
use crystal_storage::encoding::ColumnRead;

use crate::exec::{scoped_map, SendPtr, VECTOR_SIZE};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `SELECT v FROM r WHERE v > x` over any readable column, producing plain
/// 4-byte output (vector-at-a-time). Each chunk is batch-decoded into a
/// stack window, then compacted with a predicated store — decode and
/// compare are separate dense loops, so a packed column costs one
/// batch decode pass instead of a shift/mask per comparison.
pub fn select_gt_fused<C>(col: &C, v: i32, threads: usize) -> Vec<i32>
where
    C: ColumnRead + Sync + ?Sized,
{
    let n = col.row_count();
    let mut out: Vec<i32> = Vec::with_capacity(n);
    let cursor = AtomicUsize::new(0);
    let out_ptr = SendPtr(out.as_mut_ptr());
    scoped_map(n, threads, |range| {
        let mut decode = [0i32; VECTOR_SIZE];
        let mut buf = [0i32; VECTOR_SIZE];
        let mut start = range.start;
        while start < range.end {
            let end = (start + VECTOR_SIZE).min(range.end);
            let window = col.stage(start, end, &mut decode);
            let mut c = 0usize;
            for &y in window {
                buf[c] = y;
                c += usize::from(y > v);
            }
            if c > 0 {
                let off = cursor.fetch_add(c, Ordering::Relaxed);
                for (j, &y) in buf[..c].iter().enumerate() {
                    // SAFETY: the range [off, off+c) was exclusively
                    // reserved by fetch_add and total matches never exceed n.
                    unsafe { out_ptr.write(off + j, y) };
                }
            }
            start = end;
        }
    });
    let len = cursor.load(Ordering::Relaxed);
    // SAFETY: exactly `len` slots were initialized via reserved ranges.
    unsafe { out.set_len(len) };
    out
}

/// `SELECT SUM(v) FROM r` over any readable column: batch-decode each
/// chunk, then reduce the dense window (a straight autovectorizable sum).
pub fn sum_fused<C>(col: &C, threads: usize) -> i64
where
    C: ColumnRead + Sync + ?Sized,
{
    let partials = scoped_map(col.row_count(), threads, |range| {
        let mut decode = [0i32; VECTOR_SIZE];
        let mut acc = 0i64;
        let mut start = range.start;
        while start < range.end {
            let end = (start + VECTOR_SIZE).min(range.end);
            let window = col.stage(start, end, &mut decode);
            acc += window.iter().map(|&y| y as i64).sum::<i64>();
            start = end;
        }
        acc
    });
    partials.into_iter().sum()
}

/// [`select_gt_fused`] over a packed column (kept as the named entry point
/// the bench harness calls).
pub fn select_gt_packed(col: &PackedColumn, v: i32, threads: usize) -> Vec<i32> {
    select_gt_fused(&col.view(), v, threads)
}

/// [`sum_fused`] over a packed column.
pub fn sum_packed(col: &PackedColumn, threads: usize) -> i64 {
    sum_fused(&col.view(), threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(n: usize, bits: u32) -> (Vec<i32>, PackedColumn) {
        let domain = 1i32 << (bits - 1);
        let values: Vec<i32> = (0..n)
            .map(|i| {
                (i as i32)
                    .wrapping_mul(2654435761u32 as i32)
                    .rem_euclid(domain)
            })
            .collect();
        (values.clone(), PackedColumn::pack(&values, bits).unwrap())
    }

    #[test]
    fn packed_select_matches_plain() {
        let (values, packed) = column(30_000, 11);
        let v = 512;
        let mut got = select_gt_packed(&packed, v, 4);
        got.sort_unstable();
        // The plain monomorphization of the same fused kernel is the
        // oracle: one implementation, two encodings.
        let mut expected = select_gt_fused(&values[..], v, 4);
        expected.sort_unstable();
        assert_eq!(got, expected);
        let mut filtered: Vec<i32> = values.into_iter().filter(|&y| y > v).collect();
        filtered.sort_unstable();
        assert_eq!(got, filtered);
    }

    #[test]
    fn packed_sum_matches_plain() {
        let (values, packed) = column(10_000, 7);
        assert_eq!(
            sum_packed(&packed, 3),
            values.iter().map(|&v| v as i64).sum::<i64>()
        );
        assert_eq!(sum_fused(&values[..], 3), sum_packed(&packed, 3));
    }

    #[test]
    fn empty_packed_column() {
        let packed = PackedColumn::pack(&[], 8).unwrap();
        assert!(select_gt_packed(&packed, 0, 2).is_empty());
        assert_eq!(sum_packed(&packed, 2), 0);
    }

    /// Width edges: bit-width 1 (booleans, 64 per word) and bit-width 32
    /// (the no-op pack) both run the fused kernels correctly.
    #[test]
    fn width_edge_cases() {
        let ones: Vec<i32> = (0..10_000).map(|i| i32::from(i % 3 == 0)).collect();
        let packed = PackedColumn::pack(&ones, 1).unwrap();
        assert_eq!(
            select_gt_packed(&packed, 0, 4).len(),
            10_000usize.div_ceil(3)
        );
        assert_eq!(sum_packed(&packed, 4), ones.iter().map(|&v| v as i64).sum());

        let (values, packed32) = column(5_000, 31);
        let repacked = PackedColumn::pack(&values, 32).unwrap();
        assert_eq!(packed32.unpack(), repacked.unpack());
        let v = 1 << 28;
        let mut a = select_gt_packed(&repacked, v, 3);
        a.sort_unstable();
        let mut b: Vec<i32> = values.into_iter().filter(|&y| y > v).collect();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    /// Duplicate-heavy data: a two-value column (~95% zeros) and an
    /// all-equal column. Selectivity collapses to all-or-nothing per
    /// vector, which stresses the atomic-cursor reservation with empty
    /// and full vectors rather than the uniform mix.
    #[test]
    fn duplicate_heavy_packed_select() {
        let n = 40_000usize;
        let values: Vec<i32> = (0..n).map(|i| i32::from(i % 20 == 0) * 3).collect();
        let packed = PackedColumn::pack(&values, 3).unwrap();
        let mut got = select_gt_packed(&packed, 0, 4);
        got.sort_unstable();
        let expected = vec![3i32; n.div_ceil(20)];
        assert_eq!(got, expected);
        assert_eq!(
            sum_packed(&packed, 4),
            values.iter().map(|&v| v as i64).sum::<i64>()
        );

        let constant = vec![5i32; n];
        let packed = PackedColumn::pack(&constant, 4).unwrap();
        assert_eq!(select_gt_packed(&packed, 4, 3).len(), n, "all selected");
        assert!(select_gt_packed(&packed, 5, 3).is_empty(), "none selected");
        assert_eq!(sum_packed(&packed, 3), 5 * n as i64);
    }
}
