//! Selection scans on the CPU (Sections 3.2 and 4.2).
//!
//! All variants follow the paper's parallel scheme: the input is range-
//! partitioned across cores; each core processes one [`VECTOR_SIZE`] vector
//! at a time with two passes — count the matches, reserve space in the
//! shared output with one `fetch_add` on a global cursor, then copy the
//! matches into the reserved range (the second pass reads from L1, "the
//! read is essentially free"). The variants differ only in the inner loop:
//!
//! * [`select_branching`] — `if y < v { out[i++] = y }`; suffers branch
//!   mispredictions at mid selectivities (Figure 12's hump).
//! * [`select_predication`] — branch-free `out[i] = y; i += (y < v)`
//!   (Ross-style predication).
//! * [`select_simd_pred`] — 8-lane chunked predication with a selective
//!   store buffer (the shape of Polychroniou et al.'s AVX2 selection).
//!
//! Output order is nondeterministic across threads (vectors are committed
//! in cursor order); SQL set semantics permit this, and tests compare
//! multisets.
//!
//! [`select`] reads any `ColumnRead`: each vector is staged through
//! `ColumnRead::stage` — zero-copy over a plain slice, one batch decode
//! over bit-packed storage — so a packed column runs the same loops over
//! the same dense window.

use std::sync::atomic::{AtomicUsize, Ordering};

use crystal_storage::encoding::ColumnRead;

use crate::exec::{scoped_map, SendPtr, VECTOR_SIZE};

/// Inner-loop strategy for the selection scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectVariant {
    Branching,
    Predication,
    SimdPred,
}

/// `SELECT y FROM r WHERE y < v` with the branching inner loop.
pub fn select_branching(data: &[i32], v: i32, threads: usize) -> Vec<i32> {
    select(data, v, threads, SelectVariant::Branching)
}

/// `SELECT y FROM r WHERE y < v` with predication.
pub fn select_predication(data: &[i32], v: i32, threads: usize) -> Vec<i32> {
    select(data, v, threads, SelectVariant::Predication)
}

/// `SELECT y FROM r WHERE y < v` with 8-lane SIMD-style predication.
pub fn select_simd_pred(data: &[i32], v: i32, threads: usize) -> Vec<i32> {
    select(data, v, threads, SelectVariant::SimdPred)
}

/// Shared driver: vector-at-a-time with a global atomic output cursor,
/// over a plain or a packed column.
pub fn select<C>(col: &C, v: i32, threads: usize, variant: SelectVariant) -> Vec<i32>
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
            let vec = col.stage(start, end, &mut decode);
            let count = match variant {
                SelectVariant::Branching => {
                    let mut c = 0usize;
                    for &y in vec {
                        if y < v {
                            buf[c] = y;
                            c += 1;
                        }
                    }
                    c
                }
                SelectVariant::Predication => {
                    let mut c = 0usize;
                    for &y in vec {
                        buf[c] = y;
                        c += usize::from(y < v);
                    }
                    c
                }
                SelectVariant::SimdPred => {
                    let mut c = 0usize;
                    let mut chunks = vec.chunks_exact(8);
                    for chunk in &mut chunks {
                        // Compare all 8 lanes, then selectively store.
                        let lanes: [i32; 8] = chunk.try_into().unwrap();
                        let mask: [bool; 8] = std::array::from_fn(|l| lanes[l] < v);
                        for l in 0..8 {
                            buf[c] = lanes[l];
                            c += usize::from(mask[l]);
                        }
                    }
                    for &y in chunks.remainder() {
                        buf[c] = y;
                        c += usize::from(y < v);
                    }
                    c
                }
            };
            if count > 0 {
                // Reserve a disjoint output range for this vector's matches.
                let off = cursor.fetch_add(count, Ordering::Relaxed);
                for (i, &y) in buf[..count].iter().enumerate() {
                    // SAFETY: `off..off+count` was exclusively reserved by
                    // fetch_add and `off + count <= n` because at most every
                    // input element matches once.
                    unsafe { out_ptr.write(off + i, y) };
                }
            }
            start = end;
        }
    });

    let len = cursor.load(Ordering::Relaxed);
    // SAFETY: exactly `len` elements were initialized via reserved ranges.
    unsafe { out.set_len(len) };
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<i32> {
        let mut x = 1234u64;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % 1_000_000) as i32
            })
            .collect()
    }

    fn reference(data: &[i32], v: i32) -> Vec<i32> {
        let mut r: Vec<i32> = data.iter().copied().filter(|&y| y < v).collect();
        r.sort_unstable();
        r
    }

    /// Every threshold over the plain column and over the same values
    /// packed at 20 bits.
    fn check(variant: SelectVariant) {
        let d = data(100_000);
        let packed = crystal_storage::PackedColumn::pack(&d, 20).unwrap();
        for v in [0, 100_000, 500_000, 1_000_000] {
            for mut got in [
                select(&d[..], v, 4, variant),
                select(&packed.view(), v, 4, variant),
            ] {
                got.sort_unstable();
                assert_eq!(got, reference(&d, v), "variant {variant:?} v={v}");
            }
        }
    }

    #[test]
    fn branching_matches_reference() {
        check(SelectVariant::Branching);
    }

    #[test]
    fn predication_matches_reference() {
        check(SelectVariant::Predication);
    }

    #[test]
    fn simd_pred_matches_reference() {
        check(SelectVariant::SimdPred);
    }

    #[test]
    fn single_thread_and_tiny_inputs() {
        assert!(select_branching(&[], 5, 4).is_empty());
        assert_eq!(select_predication(&[1], 5, 8), vec![1]);
        assert_eq!(select_simd_pred(&[9], 5, 8), Vec::<i32>::new());
    }

    #[test]
    fn all_variants_agree_on_non_multiple_of_vector_lengths() {
        let d = data(VECTOR_SIZE * 3 + 317);
        let v = 400_000;
        let expected = reference(&d, v);
        for variant in [
            SelectVariant::Branching,
            SelectVariant::Predication,
            SelectVariant::SimdPred,
        ] {
            let mut got = select(&d[..], v, 3, variant);
            got.sort_unstable();
            assert_eq!(got, expected);
        }
    }
}
