//! Set-associative true-LRU cache simulator.
//!
//! Models the GPU L2 (the paper cites Mei & Chu's microbenchmark finding
//! that the V100 L2 is an LRU set-associative cache, Section 5.3). Its one
//! user is [`crate::exec`]: every gather, scatter and scattered atomic a
//! kernel declares runs through [`Cache::access_range`], which makes this
//! the hottest code the simulator executes. It tracks tags only — data
//! flows through the functional half of the simulator.
//!
//! # Representation
//!
//! Every set is stored as 16 ways, whatever the geometry's associativity
//! (at most 16), in two arrays of one entry per set:
//!
//! * `tags` — a `[u32; 16]`: the 32-bit tag of the line each way holds
//!   (`line_number / num_sets`, the address bits above the set index), or
//!   `EMPTY`. A set's tags are 64 contiguous bytes, but only as aligned as
//!   the allocator makes them (16 bytes with glibc), so they usually
//!   straddle two host cache lines; 64-byte-aligned sets did not measure
//!   faster.
//! * `ranks` — a `[u8; 16]`: each way's recency rank, `0` for the most
//!   recently used up to `assoc - 1` for the least.
//!
//! On x86-64 a lookup is SSE2 (part of the x86-64 baseline, so there is
//! nothing to detect): four packed compares of the tags against the
//! broadcast tag, packed down to a 16-bit mask whose lowest set bit is the
//! way that holds the line — no early exit, so a hit costs the same
//! wherever it lands. On a miss one byte compare of the ranks finds the
//! victim; the move to front is one byte compare and subtract. Other
//! targets run the same steps as scalar loops over the same layout.
//!
//! Line numbers come from a shift (the line size is a power of two) and the
//! set index from a multiply by a precomputed reciprocal instead of a 64-bit
//! division.
//!
//! # Exactness
//!
//! Touching the way of rank `r` raises every rank below `r` by one and sets
//! the touched way to `0` — precisely "move to the front of the LRU list",
//! so the ranks of a set's first `assoc` ways stay a permutation of
//! `0..assoc` and the way of rank `assoc - 1` is the true LRU victim. A new
//! set holds `EMPTY` tags with ranks `0..assoc`: empty ways are touched only
//! by misses, each of which moves one to the front, so they always rank
//! behind every filled way and are consumed first, as an LRU list that
//! fills before it evicts. There is no clock and hence nothing that wraps:
//! the state after any number of accesses is the state of the list.
//!
//! The ways past `assoc` are pads: tag `EMPTY`, which no access produces, so
//! they never match; rank `0x7F`, which is never below a real rank (also as
//! a signed byte, as SSE2 compares them) and never `assoc - 1`, so they
//! never age and are never the victim. A 2-way or fully associative test
//! geometry thus runs the code the V100's 16 ways run. `tests/prop.rs`
//! checks the hit/miss sequence against the list implementation this
//! replaced, access by access, over full and padded geometries.
//!
//! The line touched last is its set's way of rank 0, and touching rank 0
//! moves nothing: a repeat of that line is counted as a hit without looking
//! at the set. Ascending keys make a perfect-hash build hit the same line of
//! slots two times in three.
//!
//! # Cost
//!
//! 16-way, 3 072 sets, uniformly random 8-byte accesses, one core of a
//! 2.1 GHz Xeon: about 6.5 ns per access while the working set fits
//! (4.8 MB), 11–13 ns around capacity (8 MB, where the hit/miss branch
//! mispredicts) and 8.5–9.5 ns when nearly every access misses (64 MB). The
//! scalar loops cost 11, 17 and 16 ns there, the list implementation 40, 37
//! and 19 ns. `reproduce microbench` reports the current figure as
//! `sim_gather_ns` next to a plain random read of the same addresses.

use crystal_hardware::CacheLevel;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Hit,
    Miss,
}

impl Access {
    pub fn is_hit(self) -> bool {
        matches!(self, Access::Hit)
    }
}

/// Tag of a way that holds no line. No access produces it (see
/// [`Cache::locate`]).
const EMPTY: u32 = u32::MAX;

/// Ways every set is stored with: the most a geometry may have, and the
/// width of one lookup. A geometry with fewer pads each set.
const WAYS: usize = 16;

/// Rank of a pad way. It is never below a real rank (`< WAYS`), not even
/// under the signed byte compare of the x86-64 lookup, so a pad never ages;
/// and it is never `assoc - 1`, so a pad is never the victim.
const PAD_RANK: u8 = 0x7F;

/// The line number of no access: its tag is beyond what any tag store that
/// fits a host can hold ([`Cache::addressable_bytes`]).
const NO_LINE: u64 = u64::MAX;

/// A tag-only set-associative cache with true-LRU replacement.
///
/// Addresses are simulated device addresses (see [`crate::mem`]); a line's
/// set is its line number modulo the number of sets, as in real hardware
/// (the bits directly above the line offset when the set count is a power
/// of two).
#[derive(Debug, Clone)]
pub struct Cache {
    line_shift: u32,
    assoc: usize,
    num_sets: u64,
    /// `ceil(2^64 / num_sets)`: `(set_recip * n) >> 64 == n / num_sets`
    /// for every `n <= recip_limit` (Lemire, "Faster remainder by direct
    /// computation", 2019).
    set_recip: u64,
    /// Largest line number the reciprocal divides exactly: `u32::MAX`, or
    /// 0 for a single set, whose reciprocal 2^64 does not fit the field.
    recip_limit: u64,
    /// Per set, the tag each way holds; pad ways hold `EMPTY`.
    tags: Vec<[u32; WAYS]>,
    /// Per set, each way's recency rank; pad ways hold [`PAD_RANK`].
    ranks: Vec<[u8; WAYS]>,
    /// The line touched last, [`NO_LINE`] when nothing has been since the
    /// last [`Cache::reset`].
    last_line: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache from a [`CacheLevel`] description.
    ///
    /// # Panics
    /// Panics if `level.line` is not a power of two or `level.assoc` is not
    /// in `1..=16` (one lookup compares 16 ways).
    pub fn new(level: &CacheLevel) -> Self {
        assert!(
            level.line.is_power_of_two(),
            "cache level {:?}: `line` must be a power of two, got {}",
            level.name,
            level.line
        );
        assert!(
            (1..=WAYS).contains(&level.assoc),
            "cache level {:?}: `assoc` must be between 1 and {WAYS}, got {}",
            level.name,
            level.assoc
        );
        let num_sets = level.num_sets() as u64;
        let mut cache = Cache {
            line_shift: level.line.trailing_zeros(),
            assoc: level.assoc,
            num_sets,
            set_recip: (u64::MAX / num_sets).wrapping_add(1),
            recip_limit: if num_sets == 1 { 0 } else { u32::MAX as u64 },
            tags: vec![[EMPTY; WAYS]; num_sets as usize],
            ranks: vec![[PAD_RANK; WAYS]; num_sets as usize],
            last_line: NO_LINE,
            hits: 0,
            misses: 0,
        };
        cache.reset();
        cache
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        1 << self.line_shift
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        (self.num_sets << self.line_shift) as usize * self.assoc
    }

    /// Bytes of address space, from address 0, whose lines have a tag the
    /// 32-bit tag store can hold; an access beyond it panics.
    pub fn addressable_bytes(&self) -> u128 {
        (EMPTY as u128 * self.num_sets as u128) << self.line_shift
    }

    /// Number of the line holding `addr`.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Number of lines overlapped by `[addr, addr + bytes)`.
    #[inline]
    pub fn lines_spanned(&self, addr: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        self.line_of(addr + bytes - 1) - self.line_of(addr) + 1
    }

    /// Splits a line number into its set and its tag.
    #[inline]
    fn locate(&self, line: u64) -> (usize, u32) {
        let tag = if line <= self.recip_limit {
            ((self.set_recip as u128 * line as u128) >> 64) as u64
        } else {
            self.locate_far(line)
        };
        // On the reciprocal path `tag <= u32::MAX / 2 < EMPTY`.
        ((line - tag * self.num_sets) as usize, tag as u32)
    }

    /// [`Cache::locate`]'s tag for a line number the reciprocal does not
    /// cover: device addresses past 512 GiB (the allocator never reuses
    /// one, so a long-lived device gets there) and single-set caches.
    #[cold]
    fn locate_far(&self, line: u64) -> u64 {
        let tag = line / self.num_sets;
        assert!(
            tag < EMPTY as u64,
            "address {:#x} is beyond the {} bytes the cache model's 32-bit tags cover",
            line << self.line_shift,
            self.addressable_bytes()
        );
        tag
    }

    /// Accesses one line by number; returns whether it missed.
    #[inline]
    fn touch(&mut self, line: u64) -> bool {
        if line == self.last_line {
            self.hits += 1;
            return false;
        }
        self.last_line = line;
        let (set, tag) = self.locate(line);
        let last = (self.assoc - 1) as u8;
        let (tags, ranks) = (&mut self.tags[set], &mut self.ranks[set]);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `lookup` needs SSE2, which every x86-64 CPU has.
        let miss = unsafe { lookup(tags, ranks, tag, last) };
        #[cfg(not(target_arch = "x86_64"))]
        let miss = lookup_portable(tags, ranks, tag, last);
        self.misses += miss as u64;
        self.hits += !miss as u64;
        miss
    }

    /// Accesses the line containing `addr`, updating LRU state.
    #[inline]
    pub fn access(&mut self, addr: u64) -> Access {
        if self.touch(self.line_of(addr)) {
            Access::Miss
        } else {
            Access::Hit
        }
    }

    /// Accesses every line overlapped by `[addr, addr + bytes)`; returns the
    /// number of missing lines.
    #[inline]
    pub fn access_range(&mut self, addr: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let mut line = self.line_of(addr);
        let last = self.line_of(addr + bytes - 1);
        let mut misses = self.touch(line) as u64;
        // Nearly every access is an aligned word inside one line.
        while line != last {
            line += 1;
            misses += self.touch(line) as u64;
        }
        misses
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime hit ratio (1.0 when no accesses have been made).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        self.tags.fill([EMPTY; WAYS]);
        self.last_line = NO_LINE;
        let mut fresh = [PAD_RANK; WAYS];
        for (way, r) in fresh[..self.assoc].iter_mut().enumerate() {
            *r = way as u8;
        }
        self.ranks.fill(fresh);
        self.reset_counters();
    }

    /// Clears hit/miss counters but keeps cache contents (used between
    /// kernels so that, e.g., a hash table built by one kernel is still
    /// resident when the probe kernel starts, as on real hardware).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

/// Looks `tag` up in one set and moves its way to the front, filling the
/// way of rank `last` on a miss; returns whether it missed.
///
/// One packed compare per four tags, packed down to a 16-bit mask whose bit
/// `i` is way `i`; the victim is found the same way in the ranks, and the
/// move to front is one byte-vector compare and subtract. It needs SSE2,
/// which every x86-64 CPU has.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
fn lookup(tags: &mut [u32; WAYS], ranks: &mut [u8; WAYS], tag: u32, last: u8) -> bool {
    use std::arch::x86_64::*;
    const { assert!(WAYS == 16, "one lookup is four 4-way compares") };
    // SAFETY: `tags` is a `[u32; 16]`, 64 readable bytes: four 16-byte
    // loads, which need no alignment.
    let [t0, t1, t2, t3] = unsafe {
        let p = tags.as_ptr().cast::<__m128i>();
        [0, 1, 2, 3].map(|i| _mm_loadu_si128(p.add(i)))
    };
    // SAFETY: `ranks` is a `[u8; 16]`, one 16-byte load.
    let r = unsafe { _mm_loadu_si128(ranks.as_ptr().cast()) };
    let key = _mm_set1_epi32(tag as i32);
    let eq = |t| _mm_cmpeq_epi32(t, key);
    // Every lane is 0 or -1, which the saturating packs keep.
    let lo = _mm_packs_epi32(eq(t0), eq(t1));
    let hi = _mm_packs_epi32(eq(t2), eq(t3));
    let hit = _mm_movemask_epi8(_mm_packs_epi16(lo, hi)) as u32;
    let miss = hit == 0;
    let (way, rank) = if miss {
        // The victim is the one way of the last rank.
        let lru = _mm_movemask_epi8(_mm_cmpeq_epi8(r, _mm_set1_epi8(last as i8))) as u32;
        let way = lru.trailing_zeros() as usize;
        tags[way] = tag;
        (way, last)
    } else {
        let way = hit.trailing_zeros() as usize;
        (way, ranks[way])
    };
    // Move to front: every rank below `rank` ages by one (the compare
    // is -1 there).
    let aged = _mm_sub_epi8(r, _mm_cmplt_epi8(r, _mm_set1_epi8(rank as i8)));
    // SAFETY: `ranks` is a `[u8; 16]`, 16 writable bytes.
    unsafe { _mm_storeu_si128(ranks.as_mut_ptr().cast(), aged) };
    ranks[way] = 0;
    miss
}

/// [`lookup`] as scalar loops over the same padded set, for targets without
/// SSE2; the x86-64 tests compare the two.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn lookup_portable(tags: &mut [u32; WAYS], ranks: &mut [u8; WAYS], tag: u32, last: u8) -> bool {
    // `way + 1` of the way holding the line, 0 if none does: at most one
    // way matches, so OR-ing the candidates selects it.
    let mut found = 0u32;
    for (way, &t) in tags.iter().enumerate() {
        found |= if t == tag { way as u32 + 1 } else { 0 };
    }
    let miss = found == 0;
    let (way, rank) = if miss {
        let mut lru = 0u8;
        for (way, &r) in ranks.iter().enumerate() {
            lru |= if r == last { way as u8 + 1 } else { 0 };
        }
        let way = (lru - 1) as usize;
        tags[way] = tag;
        (way, last)
    } else {
        let way = (found - 1) as usize;
        (way, ranks[way])
    };
    for r in ranks.iter_mut() {
        *r += (*r < rank) as u8;
    }
    ranks[way] = 0;
    miss
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level(size: usize, line: usize, assoc: usize) -> CacheLevel {
        CacheLevel {
            name: "t",
            size,
            bandwidth: 1.0,
            line,
            assoc,
        }
    }

    fn small() -> Cache {
        // 8 sets x 2-way x 64B lines = 1 KiB.
        Cache::new(&level(1024, 64, 2))
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.capacity(), 1024);
        assert_eq!(c.line_size(), 64);
        assert_eq!(c.lines_spanned(60, 100), 3);
        assert_eq!(c.lines_spanned(64, 64), 1);
        assert_eq!(c.lines_spanned(64, 0), 0);
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = small();
        assert_eq!(c.access(0), Access::Miss);
        assert_eq!(c.access(32), Access::Hit); // same 64B line
        assert_eq!(c.access(64), Access::Miss);
        assert_eq!(c.access(0), Access::Hit);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to the same set (stride = sets * line = 512).
        c.access(0);
        c.access(512);
        c.access(0); // refresh line 0 => line 512 is now LRU
        c.access(1024); // evicts 512
        assert_eq!(c.access(0), Access::Hit);
        assert_eq!(c.access(512), Access::Miss);
    }

    #[test]
    fn access_range_spans_lines() {
        let mut c = small();
        // Bytes [60, 160) touch lines 0, 64 and 128.
        assert_eq!(c.access_range(60, 100), 3);
        assert_eq!(c.access_range(60, 100), 0);
    }

    #[test]
    fn working_set_hit_ratio_approximates_capacity_fraction() {
        // Uniform random accesses over a working set 2x the cache converge
        // to ~50% hit rate under LRU.
        let level = level(64 * 1024, 64, 8);
        let mut c = Cache::new(&level);
        let ws = 2 * level.size as u64;
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..200_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = x % ws;
            c.access(addr);
        }
        let r = c.hit_ratio();
        assert!((0.4..0.6).contains(&r), "hit ratio {r} should be ~0.5");
    }

    #[test]
    fn reset_counters_keeps_contents() {
        let mut c = small();
        c.access(0);
        c.reset_counters();
        assert_eq!(c.misses(), 0);
        assert_eq!(c.access(0), Access::Hit);
    }

    /// The reciprocal multiply and the far path both split a line number
    /// exactly as `/` and `%` do, for set counts that are a power of two,
    /// three times one (the V100's 3 072), odd, and 1.
    #[test]
    fn locate_is_division_by_the_set_count() {
        for (size, assoc) in [(6 << 20, 16), (1024, 2), (64 * 7 * 3, 3), (64 * 4, 4)] {
            let c = Cache::new(&level(size, 64, assoc));
            let sets = c.num_sets;
            let mut x = 0x2545f4914f6cdd1du64;
            let mut lines = vec![0, 1, sets - 1, sets, u32::MAX as u64, u32::MAX as u64 + 1];
            lines.push((EMPTY as u64 - 1) * sets + sets - 1); // the last line covered
            for _ in 0..10_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                lines.push(x >> 32);
                lines.push(x % ((EMPTY as u64 - 1) * sets));
            }
            // A single set has no reciprocal: everything past line 0 goes
            // the far way, and fewer lines are covered.
            for line in lines.into_iter().filter(|l| l / sets < EMPTY as u64) {
                let (set, tag) = c.locate(line);
                assert_eq!(set as u64, line % sets, "set of line {line}, {sets} sets");
                assert_eq!(tag as u64, line / sets, "tag of line {line}, {sets} sets");
            }
        }
    }

    #[test]
    #[should_panic(expected = "beyond the")]
    fn an_address_past_the_tag_range_panics() {
        let mut c = small();
        let past = c.addressable_bytes() as u64;
        c.access(past - 1); // the last byte covered
        c.access(past);
    }

    /// The V100 L2's 32-bit tags cover the 1.5 PiB of device addresses the
    /// documentation promises.
    #[test]
    fn the_v100_l2_addresses_a_petabyte() {
        let c = Cache::new(&crystal_hardware::nvidia_v100().l2_level());
        assert!(
            c.addressable_bytes() >= 1 << 50,
            "{}",
            c.addressable_bytes()
        );
    }

    /// The ranks of every set stay a permutation of `0..assoc` in its first
    /// `assoc` ways, and every pad way keeps [`PAD_RANK`], whatever is
    /// accessed — the invariant the exactness argument rests on.
    #[test]
    fn ranks_stay_a_permutation() {
        let mut c = Cache::new(&level(64 * 5 * 3, 64, 5));
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            c.access_range(x % 8192, 1 + x % 130);
            if i % 4096 == 0 {
                c.reset();
            }
            for set in &c.ranks {
                let mut sorted = set[..5].to_vec();
                sorted.sort_unstable();
                assert_eq!(sorted, [0, 1, 2, 3, 4]);
                assert!(set[5..].iter().all(|&r| r == PAD_RANK), "{set:?}");
            }
        }
    }

    /// The SSE2 lookup and the scalar one leave every set the same and
    /// answer every lookup alike, at every associativity: tags drawn from
    /// twice as many lines as ways, so both hits and evictions occur.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_sse2_lookup_is_the_portable_one() {
        let mut x = 0x2545f4914f6cdd1du64;
        for assoc in 1..=WAYS {
            let fresh = Cache::new(&level(64 * assoc, 64, assoc));
            let (mut tags, mut ranks) = (fresh.tags[0], fresh.ranks[0]);
            let (mut want_tags, mut want_ranks) = (tags, ranks);
            let last = (assoc - 1) as u8;
            for _ in 0..2_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let tag = (x % (2 * assoc as u64)) as u32;
                // SAFETY: this target is x86-64, which has SSE2.
                let got = unsafe { lookup(&mut tags, &mut ranks, tag, last) };
                let want = lookup_portable(&mut want_tags, &mut want_ranks, tag, last);
                assert_eq!(got, want, "assoc {assoc}, tag {tag}");
                assert_eq!((tags, ranks), (want_tags, want_ranks), "assoc {assoc}");
            }
        }
    }
}
