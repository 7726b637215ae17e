//! Tenant query streams for `serve_mixed`.
//!
//! The harness makes its own streams rather than calling
//! `crystal_bench::stream::tenant_streams`: that module belongs to the
//! experiment harness later PRs will edit, and the benchmark's inputs must
//! not move with it.

/// SplitMix64: a small, well-mixed generator — enough for shuffling a
/// stream, and free of any dependency whose sequence could change.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// How many of `draws` queries go to each popularity rank under
/// Zipf(s = 1.2) over `ranks` ranks: the expected counts, rounded by
/// largest remainder so they sum to `draws`.
fn zipf_counts(ranks: usize, draws: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..ranks).map(|r| ((r + 1) as f64).powf(-1.2)).collect();
    let total: f64 = weights.iter().sum();
    let expected: Vec<f64> = weights.iter().map(|w| w / total * draws as f64).collect();
    let mut counts: Vec<usize> = expected.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..ranks).collect();
    by_remainder.sort_by(|&a, &b| (expected[b].fract()).total_cmp(&expected[a].fract()));
    let missing = draws - counts.iter().sum::<usize>();
    for &rank in &by_remainder[..missing] {
        counts[rank] += 1;
    }
    counts
}

/// Seed of the order within each stream. Pinned: `--seed` varies the data
/// a run generates, never the streams, because the order of a stream
/// decides what the device cache evicts and moved the pass time by 40 %
/// between seeds when it followed `--seed`.
const ORDER_SEED: u64 = 2026;

/// `tenants` streams of `per_tenant` indexes into a catalogue of
/// `catalogue` queries. Every tenant asks for popularity rank `r` exactly
/// as often as Zipf(1.2) expects ([`zipf_counts`]), in an order shuffled
/// once and for all, and tenant `t` maps rank `r` to catalogue entry
/// `(r + 3t) mod catalogue`: hot sets overlap between tenants without
/// collapsing into one global hot query, so a shared device cache has
/// something to win and something to evict.
pub fn tenant_streams(catalogue: usize, tenants: usize, per_tenant: usize) -> Vec<Vec<usize>> {
    let counts = zipf_counts(catalogue, per_tenant);
    (0..tenants)
        .map(|t| {
            let mut stream: Vec<usize> = counts
                .iter()
                .enumerate()
                .flat_map(|(rank, &n)| std::iter::repeat_n((rank + 3 * t) % catalogue, n))
                .collect();
            let mut rng = SplitMix64::new(ORDER_SEED ^ t as u64);
            for i in (1..stream.len()).rev() {
                stream.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            stream
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_counts_sum_to_the_draws_and_fall_with_rank() {
        assert_eq!(
            zipf_counts(13, 6),
            vec![2, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0]
        );
        for draws in [1, 6, 24, 100] {
            let counts = zipf_counts(13, draws);
            assert_eq!(counts.iter().sum::<usize>(), draws);
            assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        }
    }

    #[test]
    fn streams_are_pinned_shuffles_of_the_zipf_counts() {
        let streams = tenant_streams(13, 4, 6);
        assert_eq!(streams, tenant_streams(13, 4, 6));
        assert_eq!(streams[0], [2, 3, 0, 1, 4, 0], "the pinned order moved");
        for (t, stream) in streams.iter().enumerate() {
            let mut ranks: Vec<usize> = stream.iter().map(|&i| (i + 13 - 3 * t) % 13).collect();
            ranks.sort_unstable();
            assert_eq!(ranks, [0, 0, 1, 2, 3, 4]);
        }
        assert_ne!(streams[0], streams[1]);
    }

    #[test]
    fn each_tenants_hottest_query_is_its_rotated_rank_zero() {
        for (t, stream) in tenant_streams(13, 4, 6).iter().enumerate() {
            let hottest = (3 * t) % 13;
            assert_eq!(stream.iter().filter(|&&i| i == hottest).count(), 2);
        }
        let all: std::collections::BTreeSet<usize> =
            tenant_streams(13, 4, 6).into_iter().flatten().collect();
        assert_eq!(all.len(), 13, "four rotated hot sets cover the catalogue");
    }
}
