//! Parallel-execution helpers: range partitioning and scoped thread fan-out.

use std::ops::Range;

/// Vector size for vector-at-a-time processing: "each core processes its
/// partition by iterating over the entries ... one vector of entries at a
/// time, where a vector is about 1000 entries (small enough to fit in the
/// L1 cache)" (Section 3.2).
pub const VECTOR_SIZE: usize = 1024;

/// Number of worker threads to use by default (one per logical CPU).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Splits `0..n` into at most `threads` near-equal contiguous ranges.
pub fn partition_ranges(n: usize, threads: usize) -> Vec<Range<usize>> {
    let threads = threads.max(1).min(n.max(1));
    let base = n / threads;
    let rem = n % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0;
    for t in 0..threads {
        let len = base + usize::from(t < rem);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Runs `f` over each partition of `0..n` on its own scoped thread and
/// collects the results in partition order.
pub fn scoped_map<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let ranges = partition_ranges(n, threads);
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges.into_iter().map(|r| s.spawn(|| f(r))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Rows per morsel for morsel-driven scheduling: a few L1 vectors — small
/// enough that a skewed query (one thread's morsels all hitting the slow
/// path) rebalances, large enough that the shared-cursor atomic is
/// amortized over thousands of rows.
pub const MORSEL_SIZE: usize = 16 * VECTOR_SIZE;

/// A shared work queue over the row range `0..n`, handing out fixed-size
/// morsels (the last one may be short). Workers *steal* morsels with one
/// `fetch_add` each instead of being assigned a static partition, so a
/// thread stuck on an expensive morsel no longer stalls the whole query —
/// the morsel-driven scheduling of Leis et al. that HyPer-class engines use
/// for multi-core scans.
#[derive(Debug)]
pub struct MorselQueue {
    cursor: std::sync::atomic::AtomicUsize,
    n: usize,
    morsel: usize,
}

impl MorselQueue {
    /// Builds a queue over `0..n` with the given morsel size (clamped to at
    /// least one row so a zero morsel size cannot spin forever).
    pub fn new(n: usize, morsel: usize) -> Self {
        MorselQueue {
            cursor: std::sync::atomic::AtomicUsize::new(0),
            n,
            morsel: morsel.max(1),
        }
    }

    /// Total rows the queue covers.
    pub fn rows(&self) -> usize {
        self.n
    }

    /// Claims the next unprocessed morsel, or `None` when the input is
    /// exhausted. Each row of `0..n` is handed out exactly once across all
    /// claimants.
    pub fn claim(&self) -> Option<Range<usize>> {
        let start = self
            .cursor
            .fetch_add(self.morsel, std::sync::atomic::Ordering::Relaxed);
        if start >= self.n {
            None
        } else {
            Some(start..(start + self.morsel).min(self.n))
        }
    }
}

/// Runs `worker` on up to `threads` scoped threads, each pulling morsels of
/// `morsel` rows from a shared [`MorselQueue`] over `0..n` until it drains;
/// collects one result per worker. Workers that never win a morsel still
/// run (and return their identity state) — merging is the caller's job, as
/// with [`scoped_map`].
pub fn morsel_map<R, F>(n: usize, threads: usize, morsel: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(&MorselQueue) -> R + Sync,
{
    let queue = MorselQueue::new(n, morsel);
    // No point spawning more workers than there are morsels to claim.
    let workers = threads.max(1).min(n.div_ceil(morsel.max(1)).max(1));
    if workers <= 1 {
        return vec![worker(&queue)];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(|| worker(&queue))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// A raw pointer that may cross thread boundaries. Used by operators whose
/// threads write to *provably disjoint* regions of one output buffer (the
/// atomic-cursor selection, radix scatter). Each use site documents why the
/// regions are disjoint.
#[derive(Clone, Copy)]
pub struct SendPtr<T>(pub *mut T);

// SAFETY: the one field is an address; sending it sends no `T`. Writing
// through it moves `T`s to the writing thread, hence `T: Send`; the
// `unsafe` `write` makes callers keep the written indexes disjoint, and
// every use in this crate writes disjoint index ranges.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: a shared `SendPtr` hands out only its address and the `unsafe`
// `write`, so sharing it is sending it (above).
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Writes `v` at `idx`.
    ///
    /// # Safety
    /// `idx` must be in bounds of the allocation and no other thread may
    /// concurrently access the same index.
    #[inline]
    pub unsafe fn write(&self, idx: usize, v: T) {
        // SAFETY: the caller vouches that `idx` is in bounds and that no
        // other thread touches it.
        unsafe { self.0.add(idx).write(v) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_exactly_once() {
        for (n, t) in [(10, 3), (0, 4), (7, 16), (1000, 8)] {
            let rs = partition_ranges(n, t);
            let total: usize = rs.iter().map(|r| r.len()).sum();
            assert_eq!(total, n);
            for w in rs.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn scoped_map_collects_in_order() {
        let sums = scoped_map(100, 4, |r| r.sum::<usize>());
        let total: usize = sums.iter().sum();
        assert_eq!(total, (0..100).sum());
        assert_eq!(sums.len(), 4);
    }

    #[test]
    fn scoped_map_single_thread() {
        let v = scoped_map(5, 1, |r| r.len());
        assert_eq!(v, vec![5]);
    }

    #[test]
    fn partition_edge_cases() {
        // n = 0: nothing to cover, no empty ranges emitted.
        assert!(partition_ranges(0, 4).is_empty());
        assert!(partition_ranges(0, 0).is_empty());
        // threads = 0 is treated as 1.
        assert_eq!(partition_ranges(10, 0), vec![0..10]);
        // n < threads: one range per row, never an empty range.
        let rs = partition_ranges(3, 16);
        assert_eq!(rs, vec![0..1, 1..2, 2..3]);
        // n = 1 with many threads.
        assert_eq!(partition_ranges(1, 8), vec![0..1]);
    }

    #[test]
    fn scoped_map_edge_cases() {
        // n = 0: no partitions, no worker results.
        let v: Vec<usize> = scoped_map(0, 4, |r| r.len());
        assert!(v.is_empty());
        // threads = 0 behaves like 1.
        let v = scoped_map(7, 0, |r| r.len());
        assert_eq!(v, vec![7]);
        // n < threads: one worker per row.
        let v = scoped_map(2, 9, |r| r.len());
        assert_eq!(v, vec![1, 1]);
    }

    /// Every row of `0..n` is claimed exactly once, for adversarial
    /// (n, threads, morsel) combinations including n = 0, n < threads,
    /// threads = 0, morsel = 0 and morsel > n.
    #[test]
    fn morsels_cover_every_row_exactly_once() {
        for (n, threads, morsel) in [
            (0usize, 4usize, 64usize),
            (1, 4, 64),
            (3, 16, 1),
            (7, 0, 0),
            (1000, 3, 64),
            (1000, 8, 4096),
            (12_345, 5, 1024),
        ] {
            let claimed = morsel_map(n, threads, morsel, |q| {
                let mut rows = Vec::new();
                while let Some(r) = q.claim() {
                    assert!(!r.is_empty(), "empty morsel for n={n}");
                    assert!(r.end <= n);
                    rows.extend(r);
                }
                rows
            });
            let mut all: Vec<usize> = claimed.into_iter().flatten().collect();
            all.sort_unstable();
            let expected: Vec<usize> = (0..n).collect();
            assert_eq!(all, expected, "n={n} threads={threads} morsel={morsel}");
        }
    }

    #[test]
    fn morsel_map_bounds_worker_count() {
        // 10 morsels of work, 32 threads requested: at most 10 workers.
        let results = morsel_map(10 * 64, 32, 64, |q| {
            let mut count = 0usize;
            while let Some(r) = q.claim() {
                count += r.len();
            }
            count
        });
        assert!(results.len() <= 10);
        assert_eq!(results.iter().sum::<usize>(), 640);
    }

    #[test]
    fn morsel_queue_claim_sequence_single_thread() {
        let q = MorselQueue::new(10, 4);
        assert_eq!(q.claim(), Some(0..4));
        assert_eq!(q.claim(), Some(4..8));
        assert_eq!(q.claim(), Some(8..10));
        assert_eq!(q.claim(), None);
        assert_eq!(q.claim(), None, "drained queue stays drained");
        assert_eq!(q.rows(), 10);
    }

    #[test]
    fn send_ptr_disjoint_parallel_writes() {
        let mut out = vec![0u32; 64];
        let p = SendPtr(out.as_mut_ptr());
        scoped_map(64, 4, |r| {
            for i in r {
                // SAFETY: ranges from partition_ranges are disjoint.
                unsafe { p.write(i, i as u32 * 2) };
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 * 2));
    }
}
