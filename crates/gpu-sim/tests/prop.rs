//! Property tests for the GPU simulator's cache, allocator and timing
//! model.

use proptest::collection::vec;
use proptest::prelude::*;

use crystal_gpu_sim::cache::{Access, Cache};
use crystal_gpu_sim::exec::{Gpu, LaunchConfig};
use crystal_gpu_sim::stats::KernelStats;
use crystal_gpu_sim::timing::{kernel_time, LaunchShape};
use crystal_hardware::{nvidia_v100, CacheLevel};

fn level(sets: usize, assoc: usize, line: usize) -> CacheLevel {
    CacheLevel {
        name: "t",
        size: sets * assoc * line,
        bandwidth: 1.0,
        line,
        assoc,
    }
}

fn small_cache(assoc: usize) -> Cache {
    Cache::new(&level(4096 / 64 / assoc, assoc, 64))
}

/// The oracle: the simulator's L2 model as it was before `Cache` moved to
/// flat storage — each set a list of line numbers, most recent first.
struct ListLru {
    line: u64,
    assoc: usize,
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl ListLru {
    fn new(level: &CacheLevel) -> Self {
        ListLru {
            line: level.line as u64,
            assoc: level.assoc,
            sets: vec![Vec::new(); level.num_sets()],
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> Access {
        let tag = addr / self.line;
        let index = (tag % self.sets.len() as u64) as usize;
        let set = &mut self.sets[index];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            let t = set.remove(pos);
            set.insert(0, t);
            self.hits += 1;
            Access::Hit
        } else {
            if set.len() == self.assoc {
                set.pop();
            }
            set.insert(0, tag);
            self.misses += 1;
            Access::Miss
        }
    }

    fn access_range(&mut self, addr: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let lines = addr / self.line..=(addr + bytes - 1) / self.line;
        lines
            .filter(|l| self.access(l * self.line) == Access::Miss)
            .count() as u64
    }

    fn hit_ratio(&self) -> f64 {
        match self.hits + self.misses {
            0 => 1.0,
            total => self.hits as f64 / total as f64,
        }
    }

    fn reset_counters(&mut self) {
        (self.hits, self.misses) = (0, 0);
    }

    fn reset(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
        self.reset_counters();
    }
}

/// `(sets, assoc, line)`: the V100 L2 (3 072 sets is not a power of two),
/// a two-way cache of as many sets, direct-mapped, fully associative, odd
/// everything, one full 16-way set, and exactly one pad way per set (`Cache`
/// stores every set as 16 ways).
const GEOMETRIES: [(usize, usize, usize); 8] = [
    (3072, 16, 128),
    (3072, 2, 64),
    (64, 1, 64),
    (1, 8, 32),
    (1, 1, 64),
    (5, 3, 16),
    (1, 16, 64),
    (7, 15, 64),
];

/// The cache and the oracle side by side: every operation goes to both and
/// every return value is compared.
struct Checked {
    cache: Cache,
    oracle: ListLru,
    /// Geometry and seed, for the failure message.
    what: String,
}

impl Checked {
    fn new(geometry: (usize, usize, usize), seed: u64) -> Self {
        let (sets, assoc, line) = geometry;
        let level = level(sets, assoc, line);
        Checked {
            cache: Cache::new(&level),
            oracle: ListLru::new(&level),
            what: format!("{geometry:?} seed {seed}"),
        }
    }

    fn access(&mut self, addr: u64) {
        let (got, want) = (self.cache.access(addr), self.oracle.access(addr));
        assert_eq!(got, want, "{}: access({addr})", self.what);
    }

    fn access_range(&mut self, addr: u64, bytes: u64) {
        let got = self.cache.access_range(addr, bytes);
        let want = self.oracle.access_range(addr, bytes);
        assert_eq!(got, want, "{}: access_range({addr}, {bytes})", self.what);
    }

    fn reset(&mut self) {
        self.cache.reset();
        self.oracle.reset();
    }

    fn reset_counters(&mut self) {
        self.cache.reset_counters();
        self.oracle.reset_counters();
    }

    fn assert_counters_match(&self) {
        assert_eq!(self.cache.hits(), self.oracle.hits, "{}", self.what);
        assert_eq!(self.cache.misses(), self.oracle.misses, "{}", self.what);
        assert_eq!(self.cache.hit_ratio(), self.oracle.hit_ratio());
    }
}

/// Xorshift draws below a bound.
fn draws(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut x = seed | 1;
    move |below: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) % below
    }
}

/// Drives `ops` operations drawn from `seed` through the cache and the
/// oracle, comparing every return value and, at the end, the counters.
fn assert_matches_list_lru(geometry: (usize, usize, usize), seed: u64, ops: usize) {
    let mut both = Checked::new(geometry, seed);
    let (sets, assoc, line) = (geometry.0 as u64, geometry.1 as u64, geometry.2 as u64);
    let mut draw = draws(seed);
    for _ in 0..ops {
        // Three times as many lines as ways over four sets (so that sets
        // evict), a hot region of half the cache, a cold one of eight
        // times the cache.
        let line_number = match draw(4) {
            0 | 1 => draw(4).min(sets - 1) + sets * draw(3 * assoc),
            2 => draw((sets * assoc / 2).max(1)),
            _ => draw(8 * sets * assoc),
        };
        let addr = line_number * line + draw(line);
        match draw(64) {
            0 if draw(16) == 0 => both.reset(),
            1 => both.reset_counters(),
            // Up to three lines; some spans are empty.
            2..=21 => both.access_range(addr, draw(2 * line + 2)),
            _ => both.access(addr),
        }
    }
    both.assert_counters_match();
}

/// Drives `ops` accesses drawn from `seed` past line `u32::MAX` of the V100
/// geometry, where `Cache` splits a line by division instead of its
/// reciprocal, up to the last line its tags cover: just past the reciprocal,
/// at the top, and set conflicts in the last four sets.
fn assert_far_matches_list_lru(seed: u64, ops: usize) {
    let geometry = GEOMETRIES[0];
    let mut both = Checked::new(geometry, seed);
    let (sets, assoc, line) = (geometry.0 as u64, geometry.1 as u64, geometry.2 as u64);
    let top = (both.cache.addressable_bytes() / line as u128) as u64 - 1;
    let (first, span) = (u32::MAX as u64 + 1, 8 * sets * assoc);
    let mut draw = draws(seed);
    both.access((top + 1) * line - 1);
    for _ in 0..ops {
        let line_number = match draw(3) {
            0 => first + draw(span),
            1 => top - draw(span),
            _ => top - draw(4) - sets * draw(3 * assoc),
        };
        let addr = line_number * line + draw(line);
        // A span of up to two lines, never past the top one.
        if line_number < top && draw(8) == 0 {
            both.access_range(addr, draw(line + 1));
        } else {
            both.access(addr);
        }
    }
    both.assert_counters_match();
}

/// The streams a repeat of the line touched last is part of — the case
/// `Cache` answers without looking at the set: runs of one line, two lines
/// of one set taking turns, a repeat on either side of `reset_counters`
/// (still a hit) and of `reset` (a miss again), and a two-line span whose
/// lines are then touched again in either order. Counters are compared
/// after every stream.
fn assert_repeats_match_list_lru(geometry: (usize, usize, usize), seed: u64, rounds: usize) {
    let mut both = Checked::new(geometry, seed);
    let (sets, assoc, line) = (geometry.0 as u64, geometry.1 as u64, geometry.2 as u64);
    let mut draw = draws(seed);
    for round in 0..rounds {
        let base = draw(8 * sets * assoc) * line;
        // Another line of `base`'s set, near enough to share it for a while.
        let rival = base + sets * line * (1 + draw(2 * assoc));
        match round % 5 {
            0 => (0..1 + draw(50)).for_each(|_| both.access(base + draw(line))),
            1 => (0..2 + draw(40)).for_each(|i| both.access([base, rival][i as usize % 2])),
            2 => {
                both.access(base);
                both.reset_counters();
                both.access(base + draw(line));
            }
            3 => {
                both.access(base);
                both.reset();
                both.access(base + draw(line));
            }
            _ => {
                both.access_range(base + line - 1 - draw(line.min(8)), line);
                let order = [[base, base + line], [base + line, base]][draw(2) as usize];
                order.iter().for_each(|&addr| both.access(addr));
            }
        }
        both.assert_counters_match();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The flat cache and the list it replaced agree on every access of
    /// random streams (hot and cold regions, set conflicts, spans of zero
    /// to three lines, resets in between) over every geometry.
    #[test]
    fn cache_matches_the_list_lru(seed in any::<u64>(), geometry in 0usize..GEOMETRIES.len()) {
        assert_matches_list_lru(GEOMETRIES[geometry], seed, 20_000);
    }

    /// They agree past line `u32::MAX` too, up to the last line the tags
    /// cover.
    #[test]
    fn cache_matches_the_list_lru_past_the_reciprocal(seed in any::<u64>()) {
        assert_far_matches_list_lru(seed, 20_000);
    }

    /// Hits + misses always equals accesses, and a cold cache's first
    /// touch of each line is always a miss.
    #[test]
    fn cache_accounting_is_conserved(addrs in vec(0u64..100_000, 1..300), assoc in 1usize..8) {
        let mut c = small_cache(assoc);
        let mut seen = std::collections::HashSet::new();
        for &a in &addrs {
            seen.insert(a / 64);
            c.access(a);
        }
        prop_assert_eq!(c.hits() + c.misses(), addrs.len() as u64);
        // Every distinct line's first touch is a cold miss.
        prop_assert!(c.misses() >= seen.len() as u64);
    }

    /// Immediately re-touching the same address is always a hit.
    #[test]
    fn repeat_access_hits(addrs in vec(0u64..10_000, 1..100)) {
        let mut c = small_cache(4);
        for &a in &addrs {
            c.access(a);
            prop_assert_eq!(c.access(a), crystal_gpu_sim::cache::Access::Hit);
        }
    }

    /// Device allocations never overlap, regardless of sizes.
    #[test]
    fn allocations_are_disjoint(sizes in vec(1usize..10_000, 1..40)) {
        let mut gpu = Gpu::new(nvidia_v100());
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for &s in &sizes {
            let buf = gpu.alloc_zeroed::<u8>(s);
            let start = buf.addr();
            let end = start + buf.size_bytes() as u64;
            for &(a, b) in &ranges {
                prop_assert!(end <= a || start >= b, "overlap: [{start},{end}) vs [{a},{b})");
            }
            ranges.push((start, end));
        }
    }

    /// Kernel time is monotone in traffic: more bytes never makes a kernel
    /// faster.
    #[test]
    fn timing_is_monotone_in_traffic(
        base in 0u64..1_000_000_000,
        extra in 0u64..1_000_000_000,
        atomics in 0u64..1_000_000,
    ) {
        let spec = nvidia_v100();
        let shape = LaunchShape {
            block_dim: 128,
            items_per_thread: 4,
            shared_mem_per_block: 4096,
            uses_barriers: true,
        };
        let s1 = KernelStats { global_read_bytes: base, same_addr_atomics: atomics, ..Default::default() };
        let s2 = KernelStats { global_read_bytes: base + extra, same_addr_atomics: atomics, ..Default::default() };
        let t1 = kernel_time(&spec, &shape, &s1).total_secs();
        let t2 = kernel_time(&spec, &shape, &s2).total_secs();
        prop_assert!(t2 >= t1);
    }

    /// Every block of a launch is invoked exactly once, in order.
    #[test]
    fn launch_covers_grid(n in 1usize..100_000, bs_pow in 5u32..10, ipt in 1usize..5) {
        let mut gpu = Gpu::new(nvidia_v100());
        let bs = 1usize << bs_pow;
        let cfg = LaunchConfig::for_items(n, bs, ipt);
        let mut blocks = Vec::new();
        let mut covered = 0usize;
        gpu.launch("t", cfg, |ctx| {
            blocks.push(ctx.block_idx);
            let (_, len) = ctx.tile_bounds(n);
            covered += len;
        });
        prop_assert_eq!(blocks.len(), cfg.grid_dim);
        prop_assert!(blocks.windows(2).all(|w| w[1] == w[0] + 1));
        prop_assert_eq!(covered, n, "tiles must cover all items exactly once");
    }

    /// Occupancy never exceeds 1 and resident blocks respect all limits.
    #[test]
    fn occupancy_bounds(bs_pow in 5u32..11, smem in 0usize..200_000) {
        let spec = nvidia_v100();
        let bs = 1usize << bs_pow;
        let occ = spec.occupancy(bs, smem);
        prop_assert!((0.0..=1.0).contains(&occ));
        let blocks = spec.resident_blocks_per_sm(bs, smem);
        prop_assert!(blocks <= spec.max_blocks_per_sm);
        prop_assert!(blocks * bs <= spec.max_threads_per_sm);
    }
}

/// A way's recency is one byte. Hammering four sets of the 16-way geometry
/// with far more accesses than a byte counts shows that nothing in it
/// counts accesses: there is no clock to wrap.
#[test]
fn cache_matches_the_list_lru_over_a_long_run() {
    assert_matches_list_lru(GEOMETRIES[0], 0x9e3779b97f4a7c15, 1_000_000);
}

#[test]
fn cache_matches_the_list_lru_on_repeats() {
    for geometry in GEOMETRIES {
        for seed in 0..8u64 {
            assert_repeats_match_list_lru(geometry, 0x9e3779b97f4a7c15 ^ (seed << 32), 500);
        }
    }
}

#[test]
#[should_panic(expected = "`line` must be a power of two, got 96")]
fn cache_rejects_a_line_that_is_not_a_power_of_two() {
    Cache::new(&level(8, 2, 96));
}

#[test]
#[should_panic(expected = "`assoc` must be between 1 and 16, got 0")]
fn cache_rejects_zero_associativity() {
    Cache::new(&CacheLevel {
        name: "t",
        size: 1024,
        bandwidth: 1.0,
        line: 64,
        assoc: 0,
    });
}

#[test]
#[should_panic(expected = "`assoc` must be between 1 and 16, got 17")]
fn cache_rejects_more_ways_than_one_lookup_compares() {
    Cache::new(&level(4, 17, 64));
}

#[test]
fn free_returns_memory_budget() {
    let mut gpu = Gpu::new(nvidia_v100());
    let a = gpu.alloc_zeroed::<u64>(1000);
    let b = gpu.alloc_zeroed::<u64>(2000);
    assert_eq!(gpu.mem_used(), 24_000);
    gpu.free(a);
    gpu.free(b);
    assert_eq!(gpu.mem_used(), 0);
    assert_eq!(gpu.mem_high_water(), 24_000);
}

#[test]
fn oom_is_reported_not_panicked() {
    let mut gpu = Gpu::new(nvidia_v100());
    let cap = gpu.spec().mem_capacity;
    let err = gpu.try_alloc_zeroed::<u8>(cap + 1).unwrap_err();
    assert!(err.requested > err.available);
}

/// The simulator is fully deterministic: the same kernel sequence yields
/// bit-identical statistics and simulated times across runs.
#[test]
fn simulation_is_deterministic() {
    let run = || {
        let mut gpu = Gpu::new(nvidia_v100());
        let buf = gpu.alloc_zeroed::<i64>(1 << 14);
        let cfg = LaunchConfig::for_items(1 << 14, 128, 4);
        let mut acc = 0u64;
        gpu.launch("mix", cfg, |ctx| {
            let (start, len) = ctx.tile_bounds(1 << 14);
            ctx.global_read_coalesced(len * 8);
            for i in start..start + len {
                // Pseudo-random gathers drive the cache simulator.
                let j = (i.wrapping_mul(2654435761)) % (1 << 14);
                ctx.gather(buf.addr_of(j), 8);
                acc = acc.wrapping_add(j as u64);
            }
            ctx.atomic_same_addr(1);
        });
        let r = gpu.take_reports().pop().unwrap();
        (r.stats, format!("{:?}", r.time), acc)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}
