//! Selection-vector kernels for vector-at-a-time CPU pipelines.
//!
//! These are the CPU-side single entry points mirroring the Table-1 block
//! primitives: a pipeline keeps one vector-sized array of surviving row
//! ids (the *selection vector*) and each stage rewrites it in place —
//! predicates compact it branch-free (the Section 3.2 Polychroniou style),
//! joins compact it as *semi-joins* against a membership bitmap, and
//! [`sel_group_digit`] gathers the payload codes once, for the rows that
//! survived every join. `crystal-ssb`'s morsel-driven executor composes
//! them into full star queries the same way the GPU engine composes the
//! block-wide primitives.
//!
//! **Chunked two-phase form.** The kernels run in [`CHUNK`]-row chunks,
//! fed either by a contiguous row range (the first stage of a pipeline:
//! `init_on`) or by the rows a selection vector holds (every later stage:
//! `refine_on`):
//!
//! 1. *decode* — the chunk's values are staged into a buffer. A contiguous
//!    window goes through `ColumnRead::stage`: plain slices lend it
//!    zero-copy, a [`crystal_storage::PackedView`] decodes sixteen values
//!    per vector load (`crystal_storage::bitpack::unpack_batch`), and the
//!    next chunk's stored bytes are prefetched meanwhile. A selection's rows
//!    go through `ColumnRead::gather` into the caller's buffer: indexed
//!    loads from a plain column, sixteen rows per pair of `vpgatherqq` from
//!    a packed one under AVX-512. The one exception is a predicate or
//!    semi-join over a plain column's selected rows, which is not staged:
//!    one fused predicated-store pass over the lines the previous stage
//!    prefetched measured faster.
//! 2. *compare + compact* — one `RowTest` per kernel (the predicate's
//!    `lo..=hi`, the semi-join's membership) turns each full 64-row group
//!    into a `u64` match bitmap, branch-free: compares into flag bytes or
//!    vector masks, and for the semi-join under AVX-512 masked gathers of
//!    the membership bitmap's words, 16 keys per `vpgatherdd`. The set bits
//!    are compacted with `vpcompressd` under AVX-512 and a `trailing_zeros`
//!    walk elsewhere, so at low selectivity the emit touches only the
//!    survivors; a gather-fed stage compacts the selection in place, its
//!    write cursor never past the group it reads. A chunk's last partial
//!    group, and an engine without a bitmap for the test, take a
//!    predicated store instead.
//!
//! None of the kernels allocates, and all are usable from any engine (and
//! testable without a device).

use crystal_storage::encoding::ColumnRead;
use crystal_storage::Isa;

/// Rows per decode chunk: one L1-resident stack buffer (4 KiB of `i32`),
/// matching the executor's vector size so a pipeline vector is exactly one
/// chunk, and dividing `MORSEL_SIZE` so morsel boundaries never split a
/// chunk mid-stream.
pub const CHUNK: usize = 1024;

/// Match-bitmap granularity: 64 rows per `u64` word, [`CHUNK`] = 16 words.
const LANES: usize = 64;

/// A monomorphized perfect-hash probe target over the key range starting
/// at `min_key`: the membership bitmap, bit `i` set when key `min_key + i`
/// is a member, and the payload array, slot `i` holding that key's dense
/// code. A probe's speed is set by the cache level its table fits in
/// (Section 4.3), so a join tests one bit per key — a subtract, one
/// bounds-checked word load and a shift, no closure and no `Option`
/// branch; the 2-byte payloads (at most 999 in SSB) are read only where
/// the bit is set — what a slot outside the bitmap holds is never seen —
/// and widen back to `i32` on the way out.
#[derive(Debug, Clone, Copy)]
pub struct PerfectHashProbe<'a> {
    min_key: i32,
    bits: &'a [u64],
    codes: &'a [i16],
}

impl<'a> PerfectHashProbe<'a> {
    /// A probe spec over the membership bitmap `bits` and the payloads
    /// `codes`, which hold a non-negative code wherever a bit is set. A
    /// caller whose members carry no payload hands over no codes at all:
    /// the semi-joins never read them, and [`Self::probe`] answers 0.
    #[inline]
    pub fn new(min_key: i32, bits: &'a [u64], codes: &'a [i16]) -> Self {
        PerfectHashProbe {
            min_key,
            bits,
            codes,
        }
    }

    /// Slot index of `key`. Keys below `min_key` wrap to huge indexes, so
    /// one bounds check (on the bitmap word) covers both ends of the range.
    #[inline(always)]
    fn slot(&self, key: i32) -> u32 {
        key.wrapping_sub(self.min_key) as u32
    }

    /// Probes one key: the non-negative payload on a hit, `-1` on a miss.
    #[inline]
    pub fn probe(&self, key: i32) -> i32 {
        let slot = self.slot(key);
        match member(self.bits, slot) {
            0 => -1,
            _ => self.codes.get(slot as usize).map_or(0, |&c| i32::from(c)),
        }
    }
}

/// Whether bit `slot` of `bits` is set, as 0 or 1 (the cursor advance of a
/// predicated store). A slot past the last word is a miss; the bits of the
/// last word past the key range are never set.
#[inline(always)]
fn member(bits: &[u64], slot: u32) -> usize {
    let word = bits.get((slot >> 6) as usize).copied().unwrap_or(0);
    (word >> (slot & 63)) as usize & 1
}

/// Gathers 64 0/1 flag bytes into one bitmap word, flag `i` at bit `i`:
/// per 8-flag group one multiply whose top byte accumulates flag `i` at
/// bit `i` (the 0/1 flags cannot carry across bytes).
#[inline]
fn flags_to_word(flags: &[u8; LANES]) -> u64 {
    let mut word = 0u64;
    for (g, chunk) in flags.chunks_exact(8).enumerate() {
        let x = u64::from_le_bytes(chunk.try_into().unwrap());
        word |= (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (g * 8);
    }
    word
}

/// The membership bitmap of a perfect-hash payload array: bit `i` set ⇔
/// `slots[i] >= 0`, a last partial word zero-padded. Derived from the
/// finished array, 64 slots per word (compare into flag bytes, gather:
/// both autovectorizable), not bit by bit while it is built — dimension
/// keys arrive in order, a read-modify-write chain on one word.
pub fn slot_bitmap(slots: &[i16]) -> Vec<u64> {
    let word = |group: &[i16]| {
        let mut flags = [0u8; LANES];
        for (f, &slot) in flags.iter_mut().zip(group) {
            *f = (slot >= 0) as u8;
        }
        flags_to_word(&flags)
    };
    slots.chunks(LANES).map(word).collect()
}

/// Emits the rows of one match bitmap into `sel[count..]`, one
/// `trailing_zeros` per survivor; bit `j` of `bm` stands for row
/// `base + j`. Returns the updated count.
#[inline]
fn emit_rows(mut bm: u64, base: u32, sel: &mut [u32], mut count: usize) -> usize {
    while bm != 0 {
        sel[count] = base + bm.trailing_zeros();
        count += 1;
        bm &= bm - 1;
    }
    count
}

/// The compare/compact engines behind the chunked kernels, contiguous- and
/// gather-fed: full 64-row groups of a staged chunk are turned into a
/// `u64` match bitmap and the set bits compacted into the selection
/// vector. The scan's portable form (byte flags + a multiply bit-gather,
/// both autovectorizable) plus x86-64 AVX2/AVX-512 specializations, and
/// the semi-join's AVX-512 gather, picked once per process by
/// [`Isa::best`] — the runtime detection shared with the decode engines of
/// `crystal_storage::bitpack` — so the kernels stay safe,
/// scalar-identical, and compiled for the baseline target.
mod lanes {
    /// The bitmap's length in 32-bit words, the unit the semi-join's
    /// gather loads: on little-endian x86-64 bit `s` of the `u64` bitmap
    /// is bit `s & 31` of `u32` word `s >> 5`. Capped at 2^27, the word
    /// count of the whole `u32` slot range, so it fits an `i32` lane (a
    /// larger bitmap holds every slot's word).
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn words32(bits: &[u64]) -> i32 {
        (bits.len() * 2).min(1 << 27) as i32
    }

    /// Match bitmap of `lo <= v <= hi` over one full 64-value group:
    /// compare into 0/1 bytes (an autovectorizable loop with no carried
    /// state), then gather the flags into bits.
    #[inline]
    pub(super) fn range_bitmap_portable(group: &[i32; 64], lo: i32, hi: i32) -> u64 {
        let mut flags = [0u8; 64];
        for (f, &v) in flags.iter_mut().zip(group) {
            *f = ((lo <= v) & (v <= hi)) as u8;
        }
        super::flags_to_word(&flags)
    }

    /// AVX2 match bitmap: per 8-lane vector, a row is *excluded* when
    /// `lo > v` or `v > hi` (two signed compares — exact at the `i32`
    /// extremes, unlike an off-by-one widened `>`), and the inverted
    /// exclusion sign bits are gathered with `movemask`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn range_bitmap_avx2(group: &[i32; 64], lo: i32, hi: i32) -> u64 {
        use std::arch::x86_64::*;
        let vlo = _mm256_set1_epi32(lo);
        let vhi = _mm256_set1_epi32(hi);
        let mut bm = 0u64;
        for g in 0..8 {
            // SAFETY: the load reads lanes `8g..8g+8` of the 64-element
            // array, in bounds for g < 8 (the caller vouches for AVX2).
            let v = unsafe { _mm256_loadu_si256(group.as_ptr().add(g * 8) as *const __m256i) };
            let below = _mm256_cmpgt_epi32(vlo, v);
            let above = _mm256_cmpgt_epi32(v, vhi);
            let excluded = _mm256_or_si256(below, above);
            let m = !(_mm256_movemask_ps(_mm256_castsi256_ps(excluded)) as u32) & 0xFF;
            bm |= (m as u64) << (g * 8);
        }
        bm
    }

    /// AVX-512 match bitmap: two 16-lane mask compares per vector,
    /// `and`ed directly into bitmap bits (no movemask reassembly).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn range_bitmap_avx512(group: &[i32; 64], lo: i32, hi: i32) -> u64 {
        use std::arch::x86_64::*;
        let vlo = _mm512_set1_epi32(lo);
        let vhi = _mm512_set1_epi32(hi);
        let mut bm = 0u64;
        for g in 0..4 {
            // SAFETY: lanes `16g..16g+16` of the 64-element array, in
            // bounds for g < 4 (the caller vouches for AVX-512F).
            let v = unsafe { _mm512_loadu_si512(group.as_ptr().add(g * 16) as *const __m512i) };
            let ge = _mm512_cmp_epi32_mask::<_MM_CMPINT_NLT>(v, vlo);
            let le = _mm512_cmp_epi32_mask::<_MM_CMPINT_LE>(v, vhi);
            bm |= ((ge & le) as u64) << (g * 16);
        }
        bm
    }

    /// AVX-512 membership bitmap of one full 64-key group against the
    /// bitmap `bits` over slots from `min_key`: per 16 keys, the slot
    /// `key - min_key` (wrapping, as [`super::PerfectHashProbe`]'s), an
    /// unsigned mask compare of its 32-bit word index against the bitmap's
    /// that masks a `vpgatherdd` of the in-range words (masked lanes load
    /// nothing and read as 0, so a key outside the range misses without a
    /// branch), and the key's bit tested in place after a `vpsrlvd` by
    /// `slot & 31`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn member_bitmap_avx512(
        group: &[i32; 64],
        min_key: i32,
        bits: &[u64],
    ) -> u64 {
        use std::arch::x86_64::*;
        let words = words32(bits);
        debug_assert!(words as usize <= 2 * bits.len(), "the gathers' bound");
        let vmin = _mm512_set1_epi32(min_key);
        let vwords = _mm512_set1_epi32(words);
        let low5 = _mm512_set1_epi32(31);
        let one = _mm512_set1_epi32(1);
        let mut bm = 0u64;
        for g in 0..4 {
            // SAFETY: lanes `16g..16g+16` of the 64-element array, in
            // bounds for g < 4 (the caller vouches for AVX-512F).
            let keys = unsafe { _mm512_loadu_si512(group.as_ptr().add(g * 16) as *const __m512i) };
            let slot = _mm512_sub_epi32(keys, vmin);
            let word = _mm512_srli_epi32::<5>(slot);
            let live = _mm512_cmplt_epu32_mask(word, vwords);
            // SAFETY: only the `live` lanes load, each the `u32` at a word
            // index below `words` <= 2 * `bits.len()`: inside `bits`.
            let got = unsafe {
                _mm512_mask_i32gather_epi32::<4>(
                    _mm512_setzero_si512(),
                    live,
                    word,
                    bits.as_ptr().cast(),
                )
            };
            let bit = _mm512_srlv_epi32(got, _mm512_and_si512(slot, low5));
            bm |= (_mm512_test_epi32_mask(bit, one) as u64) << (g * 16);
        }
        bm
    }

    /// AVX-512 survivor emit: materializes the row ids of `bm`'s set bits
    /// at `sel_at` with four masked `vpcompressd` stores (16 candidate
    /// row ids each, exactly `popcount` lanes written). Returns the
    /// number of rows emitted.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn emit_rows_avx512(bm: u64, base: u32, sel_at: *mut u32) -> usize {
        use std::arch::x86_64::*;
        let iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let mut out = 0usize;
        for g in 0..4u32 {
            let mask = ((bm >> (g * 16)) & 0xFFFF) as u16;
            let rows = _mm512_add_epi32(iota, _mm512_set1_epi32((base + g * 16) as i32));
            // SAFETY: the masked compress store writes exactly
            // `mask.count_ones()` contiguous lanes, and the caller vouches
            // for AVX-512F and for room at `sel_at` for every set bit of
            // `bm`.
            unsafe {
                _mm512_mask_compressstoreu_epi32(sel_at.add(out) as *mut i32, mask, rows);
            }
            out += mask.count_ones() as usize;
        }
        out
    }

    /// AVX-512 in-place compaction: the row ids of `sel[base .. base + 64]`
    /// whose bit is set in `bm`, written from the cursor `kept` on with four
    /// masked `vpcompressd` stores. Each 16-row vector is loaded before its
    /// own store, and that store ends at or before the next vector's first
    /// row (`kept <= base`, and a vector adds at most 16 to the cursor).
    /// Returns the updated cursor.
    ///
    /// # Safety
    /// The CPU must support AVX-512F; `base + 64 <= sel.len()` and
    /// `kept <= base`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn compact_rows_avx512(
        bm: u64,
        sel: &mut [u32],
        base: usize,
        kept: usize,
    ) -> usize {
        use std::arch::x86_64::*;
        debug_assert!(kept <= base && base + 64 <= sel.len());
        let at = sel.as_mut_ptr();
        let mut out = kept;
        for g in 0..4 {
            let mask = ((bm >> (g * 16)) & 0xFFFF) as u16;
            debug_assert!(out <= base + 16 * g);
            // SAFETY: row ids `base + 16g ..+ 16`, inside `sel` (the caller
            // vouches for `base + 64 <= sel.len()`).
            let rows = unsafe { _mm512_loadu_si512(at.add(base + 16 * g).cast()) };
            // SAFETY: the masked compress store writes exactly
            // `mask.count_ones()` lanes from `out <= base + 16g`, so inside
            // `sel[..base + 16g + 16]`, whose row ids are all loaded.
            unsafe { _mm512_mask_compressstoreu_epi32(at.add(out).cast(), mask, rows) };
            out += mask.count_ones() as usize;
        }
        out
    }
}

/// Fills `sel` with the identity selection `start..end` via one
/// exact-sized iterator write (no per-element bounds check — this runs at
/// the top of every pipeline). Returns the count (`end - start`).
///
/// Row ids are `u32` here and in every kernel downstream: `end` must not
/// exceed `u32::MAX` (the executor checks each segment's row count once,
/// where it enters; these kernels only debug-assert it).
#[inline]
pub fn sel_init(start: usize, end: usize, sel: &mut [u32]) -> usize {
    debug_assert!(end <= u32::MAX as usize, "row ids are u32");
    let count = end - start;
    for (slot, row) in sel[..count].iter_mut().zip(start as u32..end as u32) {
        *slot = row;
    }
    count
}

/// Prefetches the stored bytes of the [`CHUNK`] rows from `row` on — the
/// chunk after the one a contiguous-fed kernel is working on, in or past
/// its range (callers hand over one chunk at a time): a hint per 16 rows
/// is one per line of plain storage and at least one per line of packed.
#[inline]
fn prefetch_chunk_from<C: ColumnRead + ?Sized>(col: &C, row: usize) {
    for row in (row..(row + CHUNK).min(col.row_count())).step_by(16) {
        col.prefetch_row(row);
    }
}

/// A per-row test the chunked kernels run over staged values: the
/// predicate's `lo..=hi` ([`Between`]) and the semi-join's membership
/// ([`PerfectHashProbe`]).
trait RowTest: Copy {
    /// Whether one value passes.
    fn hit(&self, v: i32) -> bool;

    /// The match bitmap of one full group on engine `isa`, bit `j` for
    /// value `j`; `None` where that engine runs [`Self::hit`] row by row.
    ///
    /// # Safety
    /// The running CPU must support `isa` ([`Isa::supported`]).
    unsafe fn group(&self, isa: Isa, group: &[i32; LANES]) -> Option<u64>;
}

/// The scan's predicate, `lo <= v <= hi`.
#[derive(Clone, Copy)]
struct Between {
    lo: i32,
    hi: i32,
}

impl RowTest for Between {
    #[inline(always)]
    fn hit(&self, v: i32) -> bool {
        (self.lo <= v) & (v <= self.hi)
    }

    #[inline(always)]
    unsafe fn group(&self, isa: Isa, group: &[i32; LANES]) -> Option<u64> {
        let Between { lo, hi } = *self;
        Some(match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512Vbmi | Isa::Avx512 => {
                // SAFETY: the caller vouches for AVX-512.
                unsafe { lanes::range_bitmap_avx512(group, lo, hi) }
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                // SAFETY: the caller vouches for AVX2.
                unsafe { lanes::range_bitmap_avx2(group, lo, hi) }
            }
            Isa::Portable => lanes::range_bitmap_portable(group, lo, hi),
        })
    }
}

impl RowTest for PerfectHashProbe<'_> {
    #[inline(always)]
    fn hit(&self, key: i32) -> bool {
        member(self.bits, self.slot(key)) == 1
    }

    /// Only AVX-512 gathers: an 8-lane AVX2 gather loses to the
    /// predicated store at L2-sized bitmaps (DESIGN.md §14), and a
    /// portable byte-flag bitmap plus `trailing_zeros` walk loses to it at
    /// every size.
    #[inline(always)]
    unsafe fn group(&self, isa: Isa, group: &[i32; LANES]) -> Option<u64> {
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512Vbmi | Isa::Avx512 => {
                // SAFETY: the caller vouches for AVX-512.
                Some(unsafe { lanes::member_bitmap_avx512(group, self.min_key, self.bits) })
            }
            _ => None,
        }
    }
}

/// Initializes `sel` with the rows of `start..end` whose `col` value lies
/// in `lo..=hi`, chunked two-phase: decode [`CHUNK`] rows batch-wise
/// (SIMD byte-window decode over packed storage, zero-copy over plain),
/// compare branch-free into `u64` match bitmaps, then compact the set bits
/// into row ids — `trailing_zeros` iteration portably, `vpcompressd` under
/// AVX-512. While a chunk is compared the stored bytes of the column's
/// next [`CHUNK`] rows are prefetched, so the scan's cache misses and page
/// walks overlap its compute instead of adding to it. Returns the match
/// count. No decompressed column is ever materialized beyond the stack
/// chunk.
#[inline]
pub fn sel_between_init<C: ColumnRead + ?Sized>(
    col: &C,
    lo: i32,
    hi: i32,
    start: usize,
    end: usize,
    sel: &mut [u32],
) -> usize {
    // SAFETY: `Isa::best` only returns an engine the CPU supports.
    unsafe { init_on(Isa::best(), col, &Between { lo, hi }, start, end, sel) }
}

/// The chunked two-phase driver behind [`sel_between_init`] and
/// [`sel_semijoin_init`] on a given engine (tests force each one): stage
/// each [`CHUNK`] of `start..end` with the next chunk prefetched, turn
/// every full 64-row group into a match bitmap with [`RowTest::group`] and
/// compact its set bits (`vpcompressd` under AVX-512, `trailing_zeros`
/// otherwise), and run a predicated store of [`RowTest::hit`] over a
/// chunk's last partial group and over every group the engine has no
/// bitmap for. Returns the match count.
///
/// # Safety
/// The running CPU must support `isa` ([`Isa::supported`]).
#[inline(always)]
unsafe fn init_on<C: ColumnRead + ?Sized>(
    isa: Isa,
    col: &C,
    test: &impl RowTest,
    start: usize,
    end: usize,
    sel: &mut [u32],
) -> usize {
    // A real assert, not a debug one: the AVX-512 emit path writes
    // through a raw pointer and must never be reachable with a selection
    // buffer smaller than the scanned range.
    assert!(end - start <= sel.len());
    debug_assert!(end <= u32::MAX as usize, "row ids are u32 (see `sel_init`)");
    // A local copy: the loop reads registers, not memory the stores below
    // could conservatively alias.
    let test = *test;
    let mut buf = [0i32; CHUNK];
    let mut count = 0usize;
    let mut cs = start;
    while cs < end {
        let ce = (cs + CHUNK).min(end);
        prefetch_chunk_from(col, ce);
        let window = col.stage(cs, ce, &mut buf);
        let mut base = cs as u32;
        let mut groups = window.chunks_exact(LANES);
        for group in &mut groups {
            let group: &[i32; LANES] = group.try_into().unwrap();
            // SAFETY: the caller vouches for `isa`.
            count = match unsafe { test.group(isa, group) } {
                #[cfg(target_arch = "x86_64")]
                Some(bm) if matches!(isa, Isa::Avx512Vbmi | Isa::Avx512) => {
                    debug_assert!(count + bm.count_ones() as usize <= sel.len());
                    // SAFETY: the caller vouches for AVX-512; `sel` has
                    // room for every match (the `assert!` above gives it
                    // `end - start` slots, and `count` + this group's
                    // matches <= rows tested so far).
                    count
                        + unsafe { lanes::emit_rows_avx512(bm, base, sel.as_mut_ptr().add(count)) }
                }
                Some(bm) => emit_rows(bm, base, sel, count),
                None => store_hits(&test, group, base, sel, count),
            };
            base += LANES as u32;
        }
        // Partial trailing group of this chunk (only ever at `end`).
        count = store_hits(&test, groups.remainder(), base, sel, count);
        cs = ce;
    }
    count
}

/// The predicated store of `test` over `values`, whose first is row
/// `base`: store the row, advance the cursor `count` on a hit. Returns the
/// updated cursor.
#[inline(always)]
fn store_hits(
    test: &impl RowTest,
    values: &[i32],
    base: u32,
    sel: &mut [u32],
    mut count: usize,
) -> usize {
    for (row, &v) in (base..).zip(values) {
        sel[count] = row;
        count += usize::from(test.hit(v));
    }
    count
}

/// Refines an existing selection in place, keeping the rows of
/// `sel[..count]` whose `col` value lies in `lo..=hi` — a later fact
/// predicate. A plain column is one fused predicated-store pass; a packed
/// column's values are gathered a [`CHUNK`] at a time into `buf` and tested
/// 64 rows per match bitmap (the module doc's two-phase form). Returns the
/// new count.
#[inline]
pub fn sel_between_refine<C: ColumnRead + ?Sized>(
    col: &C,
    lo: i32,
    hi: i32,
    sel: &mut [u32],
    count: usize,
    buf: &mut [i32; CHUNK],
) -> usize {
    // SAFETY: `Isa::best` only returns an engine the CPU supports.
    unsafe { refine_on(Isa::best(), col, &Between { lo, hi }, sel, count, buf) }
}

/// The gather-fed loop behind [`sel_between_refine`] and
/// [`sel_semijoin_refine`] on a given engine (tests force each one):
/// compacts `sel[..count]` in place to the rows whose value passes `test`.
///
/// A plain column runs one fused predicated-store pass — load the row's
/// value, store the row, advance on a hit — bound by the lines the previous
/// stage prefetched. Staging it like a packed column measured slower on a
/// 2-core AVX-512 host (`host_join` +14.5 %, `host_scan` +3.2 %; DESIGN.md
/// §14). A packed column is gathered a [`CHUNK`] of rows at a time into
/// `buf` through [`ColumnRead::gather`]; each full 64-row group becomes a
/// match bitmap with [`RowTest::group`] and its survivors are compacted in
/// place (`vpcompressd` of the selection's own row ids under AVX-512, a
/// `trailing_zeros` walk otherwise), while a chunk's last partial group and
/// every group the engine has no bitmap for take the predicated store. The
/// write cursor never passes the group being read, so no store reaches a
/// row id not yet loaded. Returns the new count.
///
/// # Safety
/// The running CPU must support `isa` ([`Isa::supported`]).
#[inline(always)]
unsafe fn refine_on<C: ColumnRead + ?Sized>(
    isa: Isa,
    col: &C,
    test: &impl RowTest,
    sel: &mut [u32],
    count: usize,
    buf: &mut [i32; CHUNK],
) -> usize {
    // A real assert, not a debug one: the AVX-512 compaction loads and
    // stores through raw pointers and relies on `sel[..count]` existing.
    assert!(count <= sel.len());
    // A local copy: the loop reads registers, not memory the stores below
    // could conservatively alias.
    let test = *test;
    if let Some(values) = col.plain() {
        let mut kept = 0usize;
        for k in 0..count {
            let row = sel[k];
            sel[kept] = row;
            kept += usize::from(test.hit(values[row as usize]));
        }
        return kept;
    }
    let mut kept = 0usize;
    for cs in (0..count).step_by(CHUNK) {
        let ce = (cs + CHUNK).min(count);
        let values = &mut buf[..ce - cs];
        col.gather(&sel[cs..ce], values);
        let mut base = cs;
        let mut groups = values.chunks_exact(LANES);
        for group in &mut groups {
            let group: &[i32; LANES] = group.try_into().unwrap();
            // SAFETY: the caller vouches for `isa`.
            kept = match unsafe { test.group(isa, group) } {
                #[cfg(target_arch = "x86_64")]
                Some(bm) if matches!(isa, Isa::Avx512Vbmi | Isa::Avx512) => {
                    debug_assert!(kept <= base && base + LANES <= count);
                    // SAFETY: the caller vouches for AVX-512; the group's
                    // rows `base .. base + 64` lie inside `sel[..count]`
                    // (asserted above), and the cursor `kept <= base`: it
                    // gains at most one per row read.
                    unsafe { lanes::compact_rows_avx512(bm, sel, base, kept) }
                }
                Some(bm) => compact_rows(bm, sel, base, kept),
                None => keep_hits(&test, group, sel, base, kept),
            };
            base += LANES;
        }
        kept = keep_hits(&test, groups.remainder(), sel, base, kept);
    }
    kept
}

/// Compacts the rows of one match bitmap in place: bit `j` of `bm` keeps
/// `sel[base + j]`, written at the cursor `kept <= base` with one
/// `trailing_zeros` per survivor. Returns the updated cursor.
#[inline]
fn compact_rows(mut bm: u64, sel: &mut [u32], base: usize, mut kept: usize) -> usize {
    while bm != 0 {
        sel[kept] = sel[base + bm.trailing_zeros() as usize];
        kept += 1;
        bm &= bm - 1;
    }
    kept
}

/// The in-place predicated store of `test` over `values`, the values of
/// `sel[base..]`: store the row at the cursor `kept <= base`, advance it on
/// a hit. Returns the updated cursor.
#[inline(always)]
fn keep_hits(
    test: &impl RowTest,
    values: &[i32],
    sel: &mut [u32],
    base: usize,
    mut kept: usize,
) -> usize {
    for (k, &v) in (base..).zip(values) {
        sel[kept] = sel[k];
        kept += usize::from(test.hit(v));
    }
    kept
}

/// The contiguous-fed semi-join — the first join of a plan with no fact
/// predicate: initializes `sel` with the rows of `start..end` whose `col`
/// value is a member of `spec`. Each [`CHUNK`] of foreign keys is staged
/// like a scan's (zero-copy over plain storage, one SIMD batch decode over
/// packed, the next chunk prefetched); then, under AVX-512, each 16 keys
/// are one masked `vpgatherdd` of their bitmap words, a shift and a mask
/// test, and the hits are compacted with `vpcompressd`; on other engines
/// and for a chunk's last partial group each key is one predicated store.
/// No identity selection is written and read back, no value is unpacked
/// on its own. Returns the hit count.
#[inline]
pub fn sel_semijoin_init<C: ColumnRead + ?Sized>(
    col: &C,
    spec: &PerfectHashProbe<'_>,
    start: usize,
    end: usize,
    sel: &mut [u32],
) -> usize {
    // SAFETY: `Isa::best` only returns an engine the CPU supports.
    unsafe { init_on(Isa::best(), col, spec, start, end, sel) }
}

/// The gather-fed semi-join — every later join, and the first when fact
/// predicates ran: compacts `sel[..count]` in place to the rows whose
/// `col` value is a member of `spec`, staged like
/// [`sel_between_refine`]'s: a packed column's keys go through `buf`, and
/// under AVX-512 each 16 of them are one masked gather of their bitmap
/// words, as in [`sel_semijoin_init`]. Returns the hit count.
#[inline]
pub fn sel_semijoin_refine<C: ColumnRead + ?Sized>(
    col: &C,
    spec: &PerfectHashProbe<'_>,
    sel: &mut [u32],
    count: usize,
    buf: &mut [i32; CHUNK],
) -> usize {
    // SAFETY: `Isa::best` only returns an engine the CPU supports.
    unsafe { refine_on(Isa::best(), col, spec, sel, count, buf) }
}

/// Late payload materialization: appends one mixed-radix digit to the
/// group index of each selected row, `gidx[k] = gidx[k] * radix +
/// code(col[sel[k]])` — independent gathers, no store chain between them.
/// The keys are gathered a [`CHUNK`] at a time into `buf`
/// ([`ColumnRead::gather`]). Every row of `sel` must have survived the
/// semi-join against `spec`.
#[inline]
pub fn sel_group_digit<C: ColumnRead + ?Sized>(
    col: &C,
    spec: &PerfectHashProbe<'_>,
    sel: &[u32],
    radix: u32,
    gidx: &mut [u32],
    buf: &mut [i32; CHUNK],
) {
    debug_assert_eq!(sel.len(), gidx.len());
    for (rows, gidx) in sel.chunks(CHUNK).zip(gidx.chunks_mut(CHUNK)) {
        let keys = &mut buf[..rows.len()];
        col.gather(rows, keys);
        for (g, &key) in gidx.iter_mut().zip(keys.iter()) {
            let code = spec.codes[spec.slot(key) as usize];
            debug_assert!(code >= 0, "key {key} is not a member");
            *g = *g * radix + code as u32;
        }
    }
}

/// The eager probe: [`sel_semijoin_refine`] that also hands back, for the
/// `k`-th surviving row, its payload in `codes[k]` and its *position in
/// the input selection* in `kept[k]`. Nothing in the workspace calls it —
/// the executor materializes codes late — but the benchmark harness pins
/// this signature (`crates/bench/src/bin/e2e/src/sut.rs`) and times it as
/// `core.sel_probe_mrows_s.*`; it goes when ROADMAP item 1's Step 0
/// narrows `sut.rs`.
#[inline]
pub fn sel_probe_tracked<C: ColumnRead + ?Sized>(
    col: &C,
    spec: &PerfectHashProbe<'_>,
    sel: &mut [u32],
    count: usize,
    codes: &mut [i32],
    kept: &mut [u32],
) -> usize {
    debug_assert!(count <= sel.len() && count <= codes.len() && count <= kept.len());
    // A local copy: the loop reads registers, not memory the stores below
    // could conservatively alias.
    let spec = *spec;
    let mut hits = 0usize;
    for k in 0..count {
        let row = sel[k];
        let slot = spec.slot(col.value(row as usize));
        let hit = member(spec.bits, slot);
        sel[hits] = row;
        // A miss reads slot 0 (one hot line) instead of its own: the
        // payload array is left to the hits, with no branch on the bit.
        let at = slot as usize & hit.wrapping_neg();
        codes[hits] = i32::from(spec.codes.get(at).copied().unwrap_or(-1));
        kept[hits] = k as u32;
        hits += hit;
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A payload array with its membership bitmap, and the membership
    /// oracle: computed from the payload array alone, in `i64` (no wrap).
    struct Table {
        min_key: i32,
        codes: Vec<i16>,
        bits: Vec<u64>,
    }

    impl Table {
        fn new(min_key: i32, codes: Vec<i16>) -> Self {
            let bits = slot_bitmap(&codes);
            Table {
                min_key,
                codes,
                bits,
            }
        }

        /// Even keys of `0..=max_key` hit with payload `key / 2`.
        fn even_keys(max_key: i16) -> Self {
            let code = |k| if k % 2 == 0 { k / 2 } else { -1 };
            Table::new(0, (0..=max_key).map(code).collect())
        }

        fn spec(&self) -> PerfectHashProbe<'_> {
            PerfectHashProbe::new(self.min_key, &self.bits, &self.codes)
        }

        fn code(&self, key: i32) -> Option<i32> {
            let slot = usize::try_from(i64::from(key) - i64::from(self.min_key)).ok()?;
            let code = i32::from(*self.codes.get(slot)?);
            (code >= 0).then_some(code)
        }

        /// The rows of `rows` whose `col` value is a member, in order.
        fn survivors(&self, col: &[i32], rows: impl Iterator<Item = u32>) -> Vec<u32> {
            rows.filter(|&r| self.code(col[r as usize]).is_some())
                .collect()
        }
    }

    /// Both semi-join kernels over `col` (whose plain values are
    /// `values`) against the oracle, on every engine the CPU has (detection
    /// reaches only the best one): the contiguous one over `start..end`, the
    /// gather-fed one over every row of the range and over every third.
    fn check_semijoins<C: ColumnRead + ?Sized>(
        col: &C,
        values: &[i32],
        t: &Table,
        (start, end): (usize, usize),
        what: &str,
    ) {
        let spec = t.spec();
        let range = start as u32..end as u32;
        let want = t.survivors(values, range.clone());
        for &isa in Isa::ALL.iter().filter(|isa| isa.supported()) {
            let mut sel = vec![0u32; end - start];
            // SAFETY: `isa` passed the `supported` filter.
            let n = unsafe { init_on(isa, col, &spec, start, end, &mut sel) };
            assert_eq!(
                &sel[..n],
                &want[..],
                "contiguous {isa:?} {what} {start}..{end}"
            );
            for step in [1, 3] {
                let mut sel: Vec<u32> = range.clone().step_by(step).collect();
                let want = t.survivors(values, sel.iter().copied());
                let count = sel.len();
                // SAFETY: `isa` passed the `supported` filter.
                let n = unsafe { refine_on(isa, col, &spec, &mut sel, count, &mut [0; CHUNK]) };
                let case = format!("gather-fed {isa:?} {what} {start}..{end} step {step}");
                assert_eq!(&sel[..n], &want[..], "{case}");
            }
        }
    }

    #[test]
    fn init_is_identity() {
        let mut sel = [0u32; 8];
        let n = sel_init(5, 11, &mut sel);
        assert_eq!(n, 6);
        assert_eq!(&sel[..6], &[5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn between_init_matches_filter() {
        let col: Vec<i32> = vec![3, -1, 7, 5, 5, 0, 9];
        let mut sel = [0u32; 7];
        let n = sel_between_init(&col[..], 0, 5, 0, col.len(), &mut sel);
        assert_eq!(&sel[..n], &[0, 3, 4, 5]);
        // Sub-range start/end respected.
        let n = sel_between_init(&col[..], 0, 5, 2, 6, &mut sel);
        assert_eq!(&sel[..n], &[3, 4, 5]);
        // Empty range.
        assert_eq!(sel_between_init(&col[..], 0, 5, 4, 4, &mut sel), 0);
    }

    #[test]
    fn refine_composes_predicates() {
        let a: Vec<i32> = (0..100).collect();
        let b: Vec<i32> = (0..100).map(|i| i % 10).collect();
        let mut sel = [0u32; 100];
        let n = sel_between_init(&a[..], 20, 59, 0, 100, &mut sel);
        assert_eq!(n, 40);
        let n = sel_between_refine(&b[..], 3, 4, &mut sel, n, &mut [0; CHUNK]);
        let expected: Vec<u32> = (20u32..60)
            .filter(|i| (3..=4).contains(&(i % 10)))
            .collect();
        assert_eq!(&sel[..n], &expected[..]);
        // Degenerate hi < lo keeps nothing.
        let mut sel2 = [0u32; 100];
        let m = sel_between_init(&a[..], 50, 40, 0, 100, &mut sel2);
        assert_eq!(m, 0);
    }

    #[test]
    fn tracked_probe_compacts_and_records_positions() {
        let fk: Vec<i32> = vec![4, 2, 9, 2, 7, 0];
        let table = Table::even_keys(9);
        let mut sel = [0u32, 1, 2, 3, 4, 5];
        let mut codes = [0i32; 6];
        let mut kept = [0u32; 6];
        let n = sel_probe_tracked(&fk[..], &table.spec(), &mut sel, 6, &mut codes, &mut kept);
        assert_eq!(n, 4);
        assert_eq!(&sel[..n], &[0, 1, 3, 5]);
        assert_eq!(&codes[..n], &[2, 1, 1, 0]);
        assert_eq!(&kept[..n], &[0, 1, 3, 5]);
    }

    /// The largest SSB payload (brand code 999) and the `i16` extremes
    /// round-trip or miss as they should through the bit and the 2-byte
    /// slot; entries below -1 are plain misses.
    #[test]
    fn probe_spec_edges() {
        let t = Table::new(10, vec![5, -1, 0, 999, i16::MAX, -7, i16::MIN]);
        let spec = t.spec();
        assert_eq!(spec.probe(10), 5);
        assert_eq!(spec.probe(11), -1, "negative entry is a miss");
        assert_eq!(spec.probe(12), 0);
        assert_eq!(spec.probe(13), 999);
        assert_eq!(spec.probe(14), i32::from(i16::MAX));
        assert_eq!(spec.probe(15), -1, "deep negative entry");
        assert_eq!(spec.probe(16), -1, "deep negative entry");
        assert_eq!(spec.probe(17), -1, "past the table");
        assert_eq!(spec.probe(9), -1, "below min_key");
        assert_eq!(spec.probe(i32::MIN), -1);
        assert_eq!(spec.probe(i32::MAX), -1);
    }

    /// Bit `i` of the bitmap is set exactly when slot `i` holds a payload,
    /// for lengths on every side of the word boundary; a partial last word
    /// exists and is zero past the last slot.
    #[test]
    fn slot_bitmap_mirrors_the_slots() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 1000] {
            for keep in [1usize, 2, 5] {
                let slot = |i: usize| match i % keep {
                    0 => [0, 999, i16::MAX][i % 3],
                    _ => [-1, i16::MIN][i % 2],
                };
                let slots: Vec<i16> = (0..len).map(slot).collect();
                let bits = slot_bitmap(&slots);
                assert_eq!(bits.len(), len.div_ceil(LANES), "len {len}");
                for i in 0..bits.len() * LANES {
                    let set = bits[i / LANES] >> (i % LANES) & 1 == 1;
                    let want = slots.get(i).is_some_and(|&s| s >= 0);
                    assert_eq!(set, want, "len {len} keep {keep} bit {i}");
                }
            }
        }
    }

    /// Key ranges of one key, one word, one word and a bit, and a ragged
    /// tail word, at `min_key`s that are not multiples of 64: the first
    /// and last key hit, their outside neighbours miss, and so do the
    /// keys that fall in the padding of the tail word, a word past it, and
    /// at the `i32` extremes (which wrap around `min_key`) — through
    /// `probe`, both semi-joins and the tracked probe. Against an empty
    /// bitmap every key misses.
    #[test]
    fn semijoins_at_the_edges_of_the_key_range() {
        for len in [1usize, 63, 64, 65, 100, 128, 129, 1000] {
            for min_key in [-5i32, 0, 10, 64, i32::MAX - 1000, i32::MIN] {
                // Every slot hits: a miss can only come from the range.
                let all = Table::new(min_key, vec![7; len]);
                // The first and last slots hit, every third between.
                let hit = |i: usize| i == 0 || i + 1 == len || i.is_multiple_of(3);
                let some = Table::new(min_key, (0..len).map(|i| hit(i) as i16 - 1).collect());
                let max_key = i64::from(min_key) + len as i64 - 1;
                let around = [
                    i64::from(min_key) - 1,
                    i64::from(min_key),
                    i64::from(min_key) + 1,
                    max_key - 1,
                    max_key,
                    max_key + 1,
                    max_key + 62,
                    max_key + 63,
                    max_key + 64,
                    max_key + 65,
                    i64::from(i32::MIN),
                    i64::from(i32::MAX),
                    0,
                    -1,
                ];
                let keys: Vec<i32> = around
                    .iter()
                    .filter_map(|&k| i32::try_from(k).ok())
                    .chain((0..len as i64).map(|i| (i64::from(min_key) + i) as i32))
                    .collect();
                let none = Table::new(min_key, Vec::new());
                for t in [&all, &some, &none] {
                    let what = format!("len {len} min_key {min_key} words {}", t.bits.len());
                    check_semijoins(&keys[..], &keys, t, (0, keys.len()), &what);
                    let spec = t.spec();
                    for &key in &keys {
                        assert_eq!(spec.probe(key), t.code(key).unwrap_or(-1), "{what} {key}");
                    }
                }
                assert!(some.code(min_key).is_some() && some.code(max_key as i32).is_some());
                assert!(keys.iter().all(|&key| none.code(key).is_none()));
            }
        }
    }

    /// Every packed width: both semi-joins over a packed view whose last
    /// value ends in the last byte of the last word agree with the oracle
    /// over the plain values — contiguous windows of 0, 1, around a
    /// 16-key vector and a 64-row group, around `CHUNK` and longer,
    /// starting on a word boundary, mid-word, mid-chunk, and so as to end
    /// on the column's last value; keys below, inside and above the key
    /// range.
    #[test]
    fn semijoins_match_the_oracle_over_every_packed_width() {
        use crystal_storage::PackedColumn;
        const LEN: usize = 2 * CHUNK + LANES; // `LEN * bits` is whole words.
        for bits in 1..=32u32 {
            let domain = 1i64 << bits.min(31);
            let values: Vec<i32> = (0..LEN as i64)
                .map(|i| (i * 2654435761 % domain) as i32)
                .collect();
            let packed = PackedColumn::pack(&values, bits).unwrap();
            // The middle half of the domain, capped to a few tail-worded
            // kilobits; two slots in three hit.
            let min_key = (domain / 4) as i32;
            let slots = (domain / 2).clamp(1, 5000 + i64::from(bits)) as usize;
            let code = |i: usize| if i % 3 == 1 { -1 } else { (i % 1000) as i16 };
            let t = Table::new(min_key, (0..slots).map(code).collect());
            let lens = [
                0,
                1,
                15,
                16,
                17,
                63,
                64,
                65,
                CHUNK - 1,
                CHUNK,
                CHUNK + 1,
                LEN,
            ];
            for len in lens {
                for start in [0, 1, 37, CHUNK + 500, LEN - len] {
                    let window = (start, (start + len).min(LEN));
                    let what = format!("bits {bits}");
                    check_semijoins(&packed.view(), &values, &t, window, &what);
                    check_semijoins(&values[..], &values, &t, window, &what);
                }
            }
        }
    }

    /// The tracked probe hands back what `probe` says row by row — the
    /// hits' codes widened to `i32` exactly, code 999 and `i16::MAX`
    /// included — and the hits' input positions, over plain and packed
    /// keys and counts on every side of a bitmap word.
    #[test]
    fn tracked_probe_matches_probe_row_by_row() {
        use crystal_storage::PackedColumn;
        let t = Table::new(3, vec![999, -1, 0, i16::MIN, 7, -2, i16::MAX]);
        let spec = t.spec();
        // Packed storage holds non-negative values only.
        let packable: Vec<i32> = (0..700).map(|i| (i * 31) % 13).collect();
        let mut plain = packable.clone();
        plain.extend([i32::MIN, -1, i32::MIN + 3, 7, i32::MAX]);
        let packed = PackedColumn::pack(&packable, 4).unwrap();

        fn check<C: ColumnRead + ?Sized>(col: &C, n: usize, spec: &PerfectHashProbe<'_>) {
            // Every other row is selected, so a kept position is half its
            // row id.
            let master: Vec<u32> = (0..n as u32).step_by(2).collect();
            for count in [0usize, 1, 63, 64, 65, master.len()] {
                let expected: Vec<(u32, i32)> = master[..count]
                    .iter()
                    .map(|&r| (r, spec.probe(col.value(r as usize))))
                    .filter(|&(_, code)| code >= 0)
                    .collect();
                let mut sel = master.clone();
                let (mut codes, mut kept) = (vec![0i32; count], vec![0u32; count]);
                let hits = sel_probe_tracked(col, spec, &mut sel, count, &mut codes, &mut kept);
                let got: Vec<(u32, i32)> = sel[..hits].iter().copied().zip(codes).collect();
                assert_eq!(got, expected, "count {count}");
                let rows: Vec<u32> = kept[..hits].iter().map(|&k| master[k as usize]).collect();
                assert_eq!(&rows[..], &sel[..hits], "count {count}");
            }
        }
        check(&plain[..], plain.len(), &spec);
        check(&packed.view(), packable.len(), &spec);
    }

    /// Late materialization: each call appends one mixed-radix digit, the
    /// code `probe` reports for the row's key, over plain and packed keys.
    #[test]
    fn group_digits_accumulate_mixed_radix() {
        use crystal_storage::PackedColumn;
        let a = Table::new(
            5,
            (0..40).map(|i| if i % 4 == 0 { -1 } else { i }).collect(),
        );
        let b = Table::even_keys(60);
        let fk_a: Vec<i32> = (0..300).map(|i| 5 + (i * 7) % 40).collect();
        let fk_b: Vec<i32> = (0..300).map(|i| (i * 11) % 61).collect();
        let packed_b = PackedColumn::pack(&fk_b, 6).unwrap();
        let mut sel: Vec<u32> = (0..300).collect();
        let buf = &mut [0; CHUNK];
        let n = sel_semijoin_init(&fk_a[..], &a.spec(), 0, 300, &mut sel);
        let n = sel_semijoin_refine(&packed_b.view(), &b.spec(), &mut sel, n, buf);
        assert!(n > 20);
        let sel = &sel[..n];
        let mut gidx = vec![0u32; n];
        sel_group_digit(&fk_a[..], &a.spec(), sel, 40, &mut gidx, buf);
        sel_group_digit(&packed_b.view(), &b.spec(), sel, 31, &mut gidx, buf);
        for (&g, &row) in gidx.iter().zip(sel) {
            let (ca, cb) = (a.code(fk_a[row as usize]), b.code(fk_b[row as usize]));
            assert_eq!(g, (ca.unwrap() * 31 + cb.unwrap()) as u32, "row {row}");
        }
    }

    /// The same kernels over a packed view produce identical selections —
    /// the fused unpack-and-compare path, across widths including the two
    /// edges: bit-width 1 and bit-width 32 (the no-op pack).
    #[test]
    fn packed_columns_select_identically_to_plain() {
        use crystal_storage::PackedColumn;
        for bits in [1u32, 5, 13, 32] {
            let domain = if bits >= 31 { i32::MAX } else { 1i32 << bits };
            let col: Vec<i32> = (0..500)
                .map(|i| ((i as i64 * 2654435761i64) % domain as i64) as i32)
                .collect();
            let packed = PackedColumn::pack(&col, bits).unwrap();
            let view = packed.view();
            let (lo, hi) = (domain / 4, domain / 2);
            let mut sel_plain = [0u32; 500];
            let mut sel_packed = [0u32; 500];
            let np = sel_between_init(&col[..], lo, hi, 0, col.len(), &mut sel_plain);
            let nk = sel_between_init(&view, lo, hi, 0, col.len(), &mut sel_packed);
            assert_eq!(np, nk, "bits={bits}");
            assert_eq!(&sel_plain[..np], &sel_packed[..nk], "bits={bits}");
            // The semi-join of the survivors agrees too.
            let table = Table::new(0, (0..1024).map(|k| (k % 3 == 0) as i16 - 1).collect());
            let buf = &mut [0; CHUNK];
            let ha = sel_semijoin_refine(&col[..], &table.spec(), &mut sel_plain, np, buf);
            let hb = sel_semijoin_refine(&view, &table.spec(), &mut sel_packed, nk, buf);
            assert_eq!(&sel_plain[..ha], &sel_packed[..hb], "bits={bits}");
        }
    }

    /// Bit-width 1: a boolean column packs 64 values per word and still
    /// selects correctly through the fused path.
    #[test]
    fn bit_width_one_fused_select() {
        use crystal_storage::PackedColumn;
        let col: Vec<i32> = (0..300).map(|i| i32::from(i % 7 == 0)).collect();
        let packed = PackedColumn::pack(&col, 1).unwrap();
        let mut sel = [0u32; 300];
        let n = sel_between_init(&packed.view(), 1, 1, 0, col.len(), &mut sel);
        let expected: Vec<u32> = (0..300u32).filter(|i| i % 7 == 0).collect();
        assert_eq!(&sel[..n], &expected[..]);
    }

    /// The rows of `start..end` whose value lies in `lo..=hi`: the filter
    /// oracle of the scan, independent of every kernel.
    fn between_oracle(col: &[i32], lo: i32, hi: i32, start: usize, end: usize) -> Vec<u32> {
        let hit = |&r: &u32| (lo..=hi).contains(&col[r as usize]);
        (start as u32..end as u32).filter(hit).collect()
    }

    /// Chunked kernels agree with the filter oracle on windows that
    /// straddle chunk and bitmap-word boundaries from both ends.
    #[test]
    fn chunked_matches_the_oracle_on_straddling_windows() {
        let n = 3 * CHUNK + 321;
        let col: Vec<i32> = (0..n).map(|i| ((i as i64 * 48271) % 997) as i32).collect();
        let (lo, hi) = (100, 600);
        for (start, end) in [
            (0, n),
            (0, CHUNK - 1),
            (1, CHUNK + 1),
            (CHUNK - 1, CHUNK + 1),
            (CHUNK, 2 * CHUNK),
            (63, 65),
            (CHUNK + 63, 3 * CHUNK + 1),
            (n - 1, n),
            (n, n),
        ] {
            let mut a = vec![0u32; n];
            let na = sel_between_init(&col[..], lo, hi, start, end, &mut a);
            let want = between_oracle(&col, lo, hi, start, end);
            assert_eq!(&a[..na], &want[..], "start={start} end={end}");

            // Refine from the same surviving selection, against an
            // independently computed filter oracle.
            let refine_col: Vec<i32> = (0..n).map(|i| (i % 50) as i32).collect();
            let mut a2 = a[..na].to_vec();
            let expected: Vec<u32> = a[..na]
                .iter()
                .copied()
                .filter(|&r| (10..=30).contains(&refine_col[r as usize]))
                .collect();
            let ra = sel_between_refine(&refine_col[..], 10, 30, &mut a2, na, &mut [0; CHUNK]);
            assert_eq!(ra, expected.len());
            assert_eq!(&a2[..ra], &expected[..]);
        }
    }

    /// Every available vector engine produces the exact bitmap of the
    /// portable engine, including at the `i32` extremes — run directly
    /// (detection reaches only the best one).
    #[test]
    fn vector_engines_match_portable_bitmaps() {
        let mut group = [0i32; LANES];
        for (j, g) in group.iter_mut().enumerate() {
            *g = ((j as i64 * 2654435761) % 1000) as i32 - 500;
        }
        group[0] = i32::MIN;
        group[1] = i32::MAX;
        group[63] = i32::MIN + 1;
        let ranges = [
            (-100, 100),
            (i32::MIN, -1),
            (0, i32::MAX),
            (i32::MIN, i32::MAX),
            (5, 5),
            (10, -10),
        ];
        for (lo, hi) in ranges {
            let expected = lanes::range_bitmap_portable(&group, lo, hi);
            for (j, &v) in group.iter().enumerate() {
                let bit = (expected >> j) & 1;
                assert_eq!(bit == 1, lo <= v && v <= hi, "portable lane {j}");
            }
            #[cfg(target_arch = "x86_64")]
            {
                if Isa::Avx2.supported() {
                    // SAFETY: feature checked on the line above.
                    let got = unsafe { lanes::range_bitmap_avx2(&group, lo, hi) };
                    assert_eq!(got, expected, "avx2 ({lo}, {hi})");
                }
                if Isa::Avx512.supported() {
                    // SAFETY: feature checked on the line above.
                    let got = unsafe { lanes::range_bitmap_avx512(&group, lo, hi) };
                    assert_eq!(got, expected, "avx512 ({lo}, {hi})");
                    let mut out = vec![0u32; LANES];
                    // SAFETY: `out` has one slot per possible set bit.
                    let n = unsafe { lanes::emit_rows_avx512(got, 7, out.as_mut_ptr()) };
                    let mut expect_rows = vec![0u32; LANES];
                    let m = emit_rows(got, 7, &mut expect_rows, 0);
                    assert_eq!(n, m);
                    assert_eq!(&out[..n], &expect_rows[..m]);
                }
            }
        }
    }

    /// The forced-engine matrix, one layer up from `bitpack`'s: every
    /// compare/compact engine the CPU has scans a packed view of every
    /// width — whose last value ends in the last byte of the last word —
    /// to the filter oracle's selection, from starts on both sides of the
    /// group and chunk boundaries to ends mid-group, at the chunk edge and
    /// at the end of the stream.
    #[test]
    fn every_engine_selects_every_packed_width_like_the_oracle() {
        use crystal_storage::PackedColumn;
        const LEN: usize = 2 * CHUNK + LANES; // `LEN * bits` is whole words.
        for &isa in Isa::ALL.iter().filter(|isa| isa.supported()) {
            for bits in 1..=32u32 {
                let domain = 1i64 << bits.min(31);
                let col: Vec<i32> = (0..LEN as i64)
                    .map(|i| (i * 2654435761 % domain) as i32)
                    .collect();
                let packed = PackedColumn::pack(&col, bits).unwrap();
                let view = packed.view();
                let (lo, hi) = ((domain / 4) as i32, (domain / 2) as i32);
                for start in [0, 1, 15, 16, 63, 64, 1023, 1024, LEN - 17, LEN - 1] {
                    for end in [start, start + 1, start + 17, start + CHUNK, LEN] {
                        let end = end.min(LEN);
                        let mut got = vec![0u32; LEN];
                        let test = Between { lo, hi };
                        // SAFETY: `isa` passed the `supported` filter.
                        let n = unsafe { init_on(isa, &view, &test, start, end, &mut got) };
                        let want = between_oracle(&col, lo, hi, start, end);
                        assert_eq!(&got[..n], &want[..], "{isa:?} bits={bits} {start}..{end}");
                    }
                }
            }
        }
    }

    /// The gather-fed forced-engine matrix: on every engine the CPU has,
    /// `refine_on` with the predicate (`Between`) and with the semi-join
    /// (`PerfectHashProbe`) keeps exactly the oracle's rows, in order, over
    /// the plain column and over packed views of every width — whose last
    /// value ends in the last byte of the last word — for a selection that
    /// starts with the column's last row (whose window the gather recomputes)
    /// and holds every row id twice, at counts around a 16-lane vector, a
    /// 64-row group, a `CHUNK` and two of them (the executor hands up to two
    /// vectors).
    #[test]
    fn every_engine_refines_like_the_oracle() {
        use crystal_storage::encoding::ColumnSlice;
        use crystal_storage::PackedColumn;
        const LEN: usize = 2 * CHUNK + LANES; // `LEN * bits` is whole words.
        let counts = [
            0,
            1,
            15,
            16,
            17,
            63,
            64,
            65,
            CHUNK - 1,
            CHUNK,
            CHUNK + 1,
            2 * CHUNK,
        ];
        let rows: Vec<u32> = (0..2 * CHUNK)
            .map(|i| (LEN - 1 - i / 2 * 7 % LEN) as u32)
            .collect();
        for bits in 1..=32u32 {
            let domain = 1i64 << bits.min(31);
            let values: Vec<i32> = (0..LEN as i64)
                .map(|i| (i * 2654435761 % domain) as i32)
                .collect();
            let packed = PackedColumn::pack(&values, bits).unwrap();
            let between = Between {
                lo: (domain / 4) as i32,
                hi: (domain / 2) as i32,
            };
            let slots = (domain / 2).clamp(1, 5000 + i64::from(bits)) as usize;
            let code = |i: usize| if i % 3 == 1 { -1 } else { (i % 1000) as i16 };
            let t = Table::new((domain / 4) as i32, (0..slots).map(code).collect());
            for &isa in Isa::ALL.iter().filter(|isa| isa.supported()) {
                for count in counts {
                    let rows = &rows[..count];
                    let hit = |&row: &u32| between.hit(values[row as usize]);
                    let want_between: Vec<u32> = rows.iter().copied().filter(hit).collect();
                    let want_member = t.survivors(&values, rows.iter().copied());
                    let case = format!("{isa:?} bits={bits} count={count}");
                    for (enc, col) in [
                        ("plain", ColumnSlice::Plain(&values)),
                        ("packed", ColumnSlice::Packed(packed.view())),
                    ] {
                        let buf = &mut [0; CHUNK];
                        let mut sel = rows.to_vec();
                        // SAFETY: `isa` passed the `supported` filter.
                        let n = unsafe { refine_on(isa, &col, &between, &mut sel, count, buf) };
                        assert_eq!(&sel[..n], &want_between[..], "between {enc} {case}");
                        let mut sel = rows.to_vec();
                        // SAFETY: as above.
                        let n = unsafe { refine_on(isa, &col, &t.spec(), &mut sel, count, buf) };
                        assert_eq!(&sel[..n], &want_member[..], "semi-join {enc} {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn full_pipeline_mini_query() {
        // SELECT SUM(val) over rows where a in 2..=8, fk present in a
        // lookup of even keys.
        let a: Vec<i32> = vec![1, 2, 3, 9, 8, 4, 0, 6];
        let fk: Vec<i32> = vec![0, 2, 5, 2, 4, 7, 6, 8];
        let val: Vec<i32> = vec![100, 200, 300, 400, 500, 600, 700, 800];
        let table = Table::even_keys(8);
        let mut sel = [0u32; 8];
        let mut n = sel_between_init(&a[..], 2, 8, 0, 8, &mut sel);
        n = sel_semijoin_refine(&fk[..], &table.spec(), &mut sel, n, &mut [0; CHUNK]);
        let got: i64 = sel[..n].iter().map(|&r| val[r as usize] as i64).sum();
        let expected: i64 = (0..8)
            .filter(|&i| (2..=8).contains(&a[i]) && fk[i] % 2 == 0)
            .map(|i| val[i] as i64)
            .sum();
        assert_eq!(got, expected);
    }
}
