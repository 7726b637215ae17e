//! Selection-vector kernels for vector-at-a-time CPU pipelines.
//!
//! These are the CPU-side single entry points mirroring the Table-1 block
//! primitives: a pipeline keeps one vector-sized array of surviving row
//! ids (the *selection vector*) and each stage rewrites it in place —
//! predicates compact it branch-free (the Section 3.2 Polychroniou style),
//! probes compact it through a lookup while emitting per-row payload codes,
//! and [`sel_compact`] re-aligns payload columns carried from earlier
//! stages. `crystal-ssb`'s morsel-driven executor composes them into full
//! star queries the same way the GPU engine composes the block-wide
//! primitives.
//!
//! **Chunked two-phase form.** Every kernel runs in [`CHUNK`]-row chunks:
//!
//! 1. *decode* — the chunk's values are staged into a stack buffer through
//!    `ColumnRead::read_batch`. Plain slices lend their window zero-copy;
//!    a [`crystal_storage::PackedView`] decodes sixteen values per vector
//!    load (`crystal_storage::bitpack::unpack_batch`). The scan kernel
//!    prefetches the next chunk's stored bytes while it works on this one.
//! 2. *compare + compact* — predicates evaluate branch-free into `u64`
//!    match bitmaps (64 rows per word, a plain autovectorizable loop with
//!    no data-dependent store cursor), then surviving rows are emitted by
//!    iterating set bits with `trailing_zeros`. At low selectivity the
//!    emit loop touches only the survivors instead of storing once per
//!    input row.
//!
//! Probes go through a monomorphized [`PerfectHashProbe`] — a plain
//! bounds-checked gather into the perfect-hash payload array — instead of
//! an opaque `Fn(i32) -> Option<i32>` closure, so the probe loop inlines
//! to load/compare/mask with no branch on the lookup internals.
//!
//! The pre-chunking value-at-a-time forms are retained as `*_scalar`
//! reference implementations: they are the property-test oracles and the
//! legacy side of the `reproduce microbench` wall-clock gate. None of the
//! kernels allocates, and all are usable from any engine (and testable
//! without a device).

use crystal_storage::encoding::ColumnRead;
use crystal_storage::Isa;

/// Rows per decode chunk: one L1-resident stack buffer (4 KiB of `i32`),
/// matching the executor's vector size so a pipeline vector is exactly one
/// chunk, and dividing `MORSEL_SIZE` so morsel boundaries never split a
/// chunk mid-stream.
pub const CHUNK: usize = 1024;

/// Match-bitmap granularity: 64 rows per `u64` word, [`CHUNK`] = 16 words.
const LANES: usize = 64;

/// A monomorphized perfect-hash probe target: payload array indexed by
/// `key - min_key`, entry `< 0` meaning *miss* (key absent or its
/// dimension row filtered out). Probing compiles to a subtract, one
/// bounds-checked gather and a sign test — no closure indirection, no
/// `Option` branching in the hot loop.
///
/// Slots are 2 bytes: a payload is a dense dimension-attribute code (at
/// most 999 in SSB), and a probe's speed is set by the cache level its
/// table fits in (Section 4.3), so the slot is as narrow as the payload
/// allows. Probed codes are widened back to `i32` on the way out.
#[derive(Debug, Clone, Copy)]
pub struct PerfectHashProbe<'a> {
    min_key: i32,
    table: &'a [i16],
}

impl<'a> PerfectHashProbe<'a> {
    /// Builds a probe spec over a payload array whose slot `i` holds the
    /// payload of key `min_key + i`, or a negative value for a miss.
    #[inline]
    pub fn new(min_key: i32, table: &'a [i16]) -> Self {
        PerfectHashProbe { min_key, table }
    }

    /// Probes one key: the non-negative payload on a hit, `-1` on a miss.
    /// Keys below `min_key` wrap to huge unsigned indexes, so the single
    /// bounds check covers both ends of the range.
    #[inline]
    pub fn probe(&self, key: i32) -> i32 {
        let idx = key.wrapping_sub(self.min_key) as u32 as usize;
        i32::from(self.table.get(idx).copied().unwrap_or(-1).max(-1))
    }

    /// Number of slots (the perfect-hash key range).
    pub fn slots(&self) -> usize {
        self.table.len()
    }
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

/// The compare/compact engine behind the chunked scan: full 64-row groups
/// of a decoded chunk are turned into a `u64` match bitmap and the set
/// bits compacted into the selection vector. One portable implementation
/// (byte flags + a multiply bit-gather, both autovectorizable) plus
/// x86-64 AVX2/AVX-512 specializations picked once per process by
/// [`Isa::best`] — the runtime detection shared with the decode engines
/// of `crystal_storage::bitpack` — so the kernels stay safe,
/// scalar-identical, and compiled for the baseline target.
mod lanes {
    /// Match bitmap of `lo <= v <= hi` over one full 64-value group:
    /// compare into 0/1 bytes (an autovectorizable loop with no carried
    /// state), then gather each 8-flag byte group into bits with one
    /// multiply — byte `i` of the product's top byte accumulates flag
    /// `i` at bit `i`, and the 0/1 flags cannot carry across bytes.
    #[inline]
    pub(super) fn range_bitmap_portable(group: &[i32; 64], lo: i32, hi: i32) -> u64 {
        let mut flags = [0u8; 64];
        for (f, &v) in flags.iter_mut().zip(group) {
            *f = ((lo <= v) & (v <= hi)) as u8;
        }
        let mut bm = 0u64;
        for (g, chunk) in flags.chunks_exact(8).enumerate() {
            let x = u64::from_le_bytes(chunk.try_into().unwrap());
            bm |= (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (g * 8);
        }
        bm
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
            // SAFETY (caller: AVX2 present): the load reads lanes
            // `8g..8g+8` of the 64-element array, in bounds for g < 8.
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
            // SAFETY (caller: AVX-512F present): lanes `16g..16g+16` of
            // the 64-element array, in bounds for g < 4.
            let v = unsafe { _mm512_loadu_si512(group.as_ptr().add(g * 16) as *const __m512i) };
            let ge = _mm512_cmp_epi32_mask::<_MM_CMPINT_NLT>(v, vlo);
            let le = _mm512_cmp_epi32_mask::<_MM_CMPINT_LE>(v, vhi);
            bm |= ((ge & le) as u64) << (g * 16);
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
            // SAFETY (caller: AVX-512F present, and `sel_at` has capacity
            // for every set bit of `bm`): the masked compress store
            // writes exactly `mask.count_ones()` contiguous lanes.
            unsafe {
                _mm512_mask_compressstoreu_epi32(sel_at.add(out) as *mut i32, mask, rows);
            }
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
    unsafe { between_init_on(Isa::best(), col, lo, hi, start, end, sel) }
}

/// [`sel_between_init`] on a given compare/compact engine (tests force
/// each one).
///
/// # Safety
/// The running CPU must support `isa` ([`Isa::supported`]).
#[inline]
unsafe fn between_init_on<C: ColumnRead + ?Sized>(
    isa: Isa,
    col: &C,
    lo: i32,
    hi: i32,
    start: usize,
    end: usize,
    sel: &mut [u32],
) -> usize {
    // A real assert, not a debug one: the AVX-512 emit path writes
    // through a raw pointer and must never be reachable with a selection
    // buffer smaller than the scanned range.
    assert!(end - start <= sel.len());
    debug_assert!(end <= u32::MAX as usize, "row ids are u32 (see `sel_init`)");
    let mut buf = [0i32; CHUNK];
    let mut count = 0usize;
    let mut cs = start;
    while cs < end {
        let ce = (cs + CHUNK).min(end);
        // The chunk after this one, in or past the range (callers hand
        // over one chunk at a time): a hint per 16 rows is one per line of
        // plain storage and at least one per line of packed.
        for row in (ce..(ce + CHUNK).min(col.row_count())).step_by(16) {
            col.prefetch_row(row);
        }
        let window = col.stage(cs, ce, &mut buf);
        let mut base = cs as u32;
        let mut groups = window.chunks_exact(LANES);
        for group in &mut groups {
            let group: &[i32; LANES] = group.try_into().unwrap();
            match isa {
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512Vbmi | Isa::Avx512 => {
                    // SAFETY: the caller vouches for AVX-512; `sel` has
                    // room for every match (the `assert!` above gives it
                    // `end - start` slots, and `count` + this group's
                    // survivors <= rows scanned so far).
                    count += unsafe {
                        let bm = lanes::range_bitmap_avx512(group, lo, hi);
                        lanes::emit_rows_avx512(bm, base, sel.as_mut_ptr().add(count))
                    };
                }
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => {
                    // SAFETY: the caller vouches for AVX2.
                    let bm = unsafe { lanes::range_bitmap_avx2(group, lo, hi) };
                    count = emit_rows(bm, base, sel, count);
                }
                Isa::Portable => {
                    if cfg!(debug_assertions) {
                        // Unoptimized builds: the bitmap staging is all
                        // outlined calls, so compact straight off the
                        // decoded window with a predicated store (still
                        // branch-free on the data).
                        // The manual counter beats clippy's preferred
                        // `zip`/`enumerate` forms here: this loop exists
                        // for unoptimized builds, where every iterator
                        // adapter layer is an outlined call per element.
                        #[allow(clippy::explicit_counter_loop)]
                        {
                            let mut row = base;
                            for &v in group.iter() {
                                sel[count] = row;
                                count += usize::from((lo <= v) & (v <= hi));
                                row += 1;
                            }
                        }
                    } else {
                        let bm = lanes::range_bitmap_portable(group, lo, hi);
                        count = emit_rows(bm, base, sel, count);
                    }
                }
            }
            base += LANES as u32;
        }
        // Partial trailing group of this chunk (only ever at `end`).
        for (j, &v) in groups.remainder().iter().enumerate() {
            sel[count] = base + j as u32;
            count += usize::from(lo <= v && v <= hi);
        }
        cs = ce;
    }
    count
}

/// Value-at-a-time reference form of [`sel_between_init`] (the Section 3.2
/// predicated store: always write, advance the cursor only on a match).
/// Retained as the property-test oracle and the legacy side of the
/// `reproduce microbench` gate.
#[inline]
pub fn sel_between_init_scalar<C: ColumnRead + ?Sized>(
    col: &C,
    lo: i32,
    hi: i32,
    start: usize,
    end: usize,
    sel: &mut [u32],
) -> usize {
    debug_assert!(end - start <= sel.len());
    let mut count = 0usize;
    for row in start..end {
        sel[count] = row as u32;
        let v = col.value(row);
        count += usize::from(lo <= v && v <= hi);
    }
    count
}

/// Refines an existing selection in place, keeping rows whose `col` value
/// lies in `lo..=hi`. Unlike the scan stage there is no contiguous range
/// to batch-decode — the surviving rows are scattered — so this stays a
/// single predicated-store pass (store always, advance on a match): no
/// branch on the data, and the gathers of consecutive iterations stay
/// independent. Returns the new count. This *is* the retained scalar
/// form — there is deliberately no `_scalar` twin; tests oracle it
/// against an independently computed filter instead.
#[inline]
pub fn sel_between_refine<C: ColumnRead + ?Sized>(
    col: &C,
    lo: i32,
    hi: i32,
    sel: &mut [u32],
    count: usize,
) -> usize {
    debug_assert!(count <= sel.len());
    let mut kept = 0usize;
    for k in 0..count {
        let row = sel[k];
        sel[kept] = row;
        let v = col.value(row as usize);
        kept += usize::from((lo <= v) & (v <= hi));
    }
    kept
}

/// The one shared probe loop behind [`sel_probe`] and
/// [`sel_probe_tracked`]: one predicated-store pass — gather the key,
/// gather the perfect-hash payload (a plain bounds-checked load, no
/// closure and no `Option` branch), store row/code/position
/// unconditionally, advance the cursor on `code >= 0`. Probes are
/// gather-fed like [`sel_between_refine`], so the branch-free single
/// pass beats any bitmap staging; the `TRACK` const folds the extra
/// position store out of the untracked instantiation at compile time.
#[inline]
fn probe_core<C: ColumnRead + ?Sized, const TRACK: bool>(
    col: &C,
    spec: &PerfectHashProbe<'_>,
    sel: &mut [u32],
    count: usize,
    codes: &mut [i32],
    kept: &mut [u32],
) -> usize {
    debug_assert!(count <= sel.len() && count <= codes.len());
    debug_assert!(!TRACK || count <= kept.len());
    // Localize the spec fields so the loop reads registers, not memory
    // the stores below could conservatively alias.
    let (min_key, table) = (spec.min_key, spec.table);
    let mut hits = 0usize;
    for k in 0..count {
        let row = sel[k];
        let idx = col.value(row as usize).wrapping_sub(min_key) as u32 as usize;
        let code = i32::from(table.get(idx).copied().unwrap_or(-1));
        sel[hits] = row;
        codes[hits] = code;
        if TRACK {
            kept[hits] = k as u32;
        }
        hits += usize::from(code >= 0);
    }
    hits
}

/// Probes the perfect-hash `spec` with each selected row's `col` value,
/// compacting `sel` to the hits; `codes[k]` receives the `k`-th surviving
/// row's payload. Returns the hit count. Use [`sel_probe_tracked`] when
/// payload columns from earlier stages must be re-aligned afterwards.
#[inline]
pub fn sel_probe<C: ColumnRead + ?Sized>(
    col: &C,
    spec: &PerfectHashProbe<'_>,
    sel: &mut [u32],
    count: usize,
    codes: &mut [i32],
) -> usize {
    probe_core::<C, false>(col, spec, sel, count, codes, &mut [])
}

/// [`sel_probe`] that additionally records, in `kept[k]`, the `k`-th
/// surviving row's *position in the input selection* — strictly
/// increasing, which is what lets [`sel_compact`] re-align payload
/// columns produced by earlier stages in place. Worth its extra store
/// only when such columns exist; otherwise use [`sel_probe`]. Both
/// variants share one loop (`probe_core`); the tracked store is folded
/// in by a const generic, not a second copy of the kernel.
#[inline]
pub fn sel_probe_tracked<C: ColumnRead + ?Sized>(
    col: &C,
    spec: &PerfectHashProbe<'_>,
    sel: &mut [u32],
    count: usize,
    codes: &mut [i32],
    kept: &mut [u32],
) -> usize {
    probe_core::<C, true>(col, spec, sel, count, codes, kept)
}

/// Closure-based value-at-a-time reference probe (the pre-spec form):
/// property-test oracle and the legacy side of the `reproduce microbench`
/// probe gate. `lookup` returns `Some(payload)` on a hit.
#[inline]
pub fn sel_probe_scalar<C: ColumnRead + ?Sized, F: Fn(i32) -> Option<i32>>(
    col: &C,
    lookup: F,
    sel: &mut [u32],
    count: usize,
    codes: &mut [i32],
) -> usize {
    debug_assert!(count <= sel.len() && count <= codes.len());
    let mut hits = 0usize;
    for k in 0..count {
        let row = sel[k];
        if let Some(code) = lookup(col.value(row as usize)) {
            sel[hits] = row;
            codes[hits] = code;
            hits += 1;
        }
    }
    hits
}

/// Re-aligns a payload column after a probe compacted the selection:
/// `values[k] = values[kept[k]]` for `k < count`. Safe in place because
/// `kept` is strictly increasing (`kept[k] >= k`), so every read happens
/// at or ahead of its write.
#[inline]
pub fn sel_compact(values: &mut [i32], kept: &[u32], count: usize) {
    debug_assert!(count <= kept.len() && count <= values.len());
    for k in 0..count {
        debug_assert!(kept[k] as usize >= k, "kept positions must be increasing");
        values[k] = values[kept[k] as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe spec plus the closure oracle over the same table, for
    /// scalar-vs-chunked comparisons.
    fn even_key_spec(table: &mut Vec<i16>, max_key: i16) -> PerfectHashProbe<'_> {
        *table = (0..=max_key)
            .map(|k| if k % 2 == 0 { k / 2 } else { -1 })
            .collect();
        PerfectHashProbe::new(0, table)
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
        let n = sel_between_refine(&b[..], 3, 4, &mut sel, n);
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
    fn probe_compacts_and_records_positions() {
        let fk: Vec<i32> = vec![4, 2, 9, 2, 7, 0];
        // Probe table: even keys hit with payload key/2, odd keys miss.
        let mut table = Vec::new();
        let spec = even_key_spec(&mut table, 9);
        let mut sel = [0u32, 1, 2, 3, 4, 5];
        let mut codes = [0i32; 6];
        let mut kept = [0u32; 6];
        let n = sel_probe_tracked(&fk[..], &spec, &mut sel, 6, &mut codes, &mut kept);
        assert_eq!(n, 4);
        assert_eq!(&sel[..n], &[0, 1, 3, 5]);
        assert_eq!(&codes[..n], &[2, 1, 1, 0]);
        assert_eq!(&kept[..n], &[0, 1, 3, 5]);
        // kept is strictly increasing by construction.
        assert!(kept[..n].windows(2).all(|w| w[0] < w[1]));
    }

    /// The largest SSB payload (brand code 999) and the `i16` extremes
    /// round-trip or miss as they should through the 2-byte slot.
    #[test]
    fn probe_spec_edges() {
        let table = [5, -1, 0, 999, i16::MAX];
        let spec = PerfectHashProbe::new(10, &table);
        assert_eq!(spec.probe(10), 5);
        assert_eq!(spec.probe(11), -1, "negative entry is a miss");
        assert_eq!(spec.probe(12), 0);
        assert_eq!(spec.probe(13), 999);
        assert_eq!(spec.probe(14), i32::from(i16::MAX));
        assert_eq!(spec.probe(15), -1, "past the table");
        assert_eq!(spec.probe(9), -1, "below min_key");
        assert_eq!(spec.probe(i32::MIN), -1);
        assert_eq!(spec.probe(i32::MAX), -1);
        assert_eq!(spec.slots(), 5);
    }

    /// A probe table holding entries below -1 still reports plain misses
    /// (the spec clamps, so `codes` can never carry a sentinel through).
    #[test]
    fn probe_spec_clamps_deep_negatives() {
        let table = [-7, 3, i16::MIN];
        let spec = PerfectHashProbe::new(0, &table);
        assert_eq!(spec.probe(0), -1);
        assert_eq!(spec.probe(1), 3);
        assert_eq!(spec.probe(2), -1);
    }

    /// The probe kernels agree with [`PerfectHashProbe::probe`] row by
    /// row at every edge of the 2-byte table — keys below `min_key`, past
    /// the last slot and at the `i32` extremes, deep-negative entries,
    /// code 999 — over plain and packed foreign-key columns, tracked and
    /// untracked, and widen the surviving codes back to `i32` exactly.
    #[test]
    fn probe_kernels_at_slot_edges() {
        use crystal_storage::PackedColumn;
        let table = [999i16, -1, 0, i16::MIN, 7, -2, i16::MAX];
        let spec = PerfectHashProbe::new(3, &table);
        // Packed storage holds non-negative values only.
        let packable = vec![3, 4, 5, 6, 7, 8, 9, 10, 2, 0, i32::MAX, 3, 9];
        let mut plain = packable.clone();
        plain.extend([i32::MIN, -1, i32::MIN + 3, 7]);
        let packed = PackedColumn::pack(&packable, 31).unwrap();

        fn check<C: ColumnRead + ?Sized>(col: &C, n: usize, spec: &PerfectHashProbe<'_>) {
            let expected: Vec<(u32, i32)> = (0..n as u32)
                .map(|r| (r, spec.probe(col.value(r as usize))))
                .filter(|&(_, code)| code >= 0)
                .collect();
            let master: Vec<u32> = (0..n as u32).collect();
            let (mut sel, mut codes) = (master.clone(), vec![0i32; n]);
            let hits = sel_probe(col, spec, &mut sel, n, &mut codes);
            let got: Vec<(u32, i32)> = sel[..hits].iter().copied().zip(codes).collect();
            assert_eq!(got, expected);

            let (mut sel, mut codes, mut kept) = (master, vec![0i32; n], vec![0u32; n]);
            let hits = sel_probe_tracked(col, spec, &mut sel, n, &mut codes, &mut kept);
            let got: Vec<(u32, i32)> = sel[..hits].iter().copied().zip(codes).collect();
            assert_eq!(got, expected);
            // Every row is selected, so a kept position is its row id.
            assert_eq!(&kept[..hits], &sel[..hits]);
        }
        check(&plain[..], plain.len(), &spec);
        check(&packed.view(), packable.len(), &spec);
        // Rows 0 (code 999), 2, 4, 6 and their repeats hit; nothing else.
        let hits = (0..plain.len()).filter(|&r| spec.probe(plain[r]) >= 0);
        assert_eq!(hits.collect::<Vec<_>>(), vec![0, 2, 4, 6, 11, 12, 16]);
    }

    #[test]
    fn compact_realigns_earlier_payloads() {
        // A prior stage produced codes for positions 0..5; a probe kept
        // positions [1, 2, 4].
        let mut earlier = [10i32, 11, 12, 13, 14];
        sel_compact(&mut earlier, &[1, 2, 4], 3);
        assert_eq!(&earlier[..3], &[11, 12, 14]);
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
            // Refine + probe agree too (keys clamped into a small table).
            let table: Vec<i16> = (0..1024).map(|k| if k % 3 == 0 { k } else { -1 }).collect();
            let spec = PerfectHashProbe::new(0, &table);
            let mut codes_a = [0i32; 500];
            let mut codes_b = [0i32; 500];
            let ha = sel_probe(&col[..], &spec, &mut sel_plain, np, &mut codes_a);
            let hb = sel_probe(&view, &spec, &mut sel_packed, nk, &mut codes_b);
            assert_eq!(ha, hb, "bits={bits}");
            assert_eq!(&codes_a[..ha], &codes_b[..hb], "bits={bits}");
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

    /// Chunked kernels agree with the retained scalar references on
    /// windows that straddle chunk and bitmap-word boundaries from both
    /// ends.
    #[test]
    fn chunked_matches_scalar_on_straddling_windows() {
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
            let mut b = vec![0u32; n];
            let na = sel_between_init(&col[..], lo, hi, start, end, &mut a);
            let nb = sel_between_init_scalar(&col[..], lo, hi, start, end, &mut b);
            assert_eq!(na, nb, "start={start} end={end}");
            assert_eq!(&a[..na], &b[..nb], "start={start} end={end}");

            // Refine from the same surviving selection, against an
            // independently computed filter oracle.
            let refine_col: Vec<i32> = (0..n).map(|i| (i % 50) as i32).collect();
            let mut a2 = a[..na].to_vec();
            let expected: Vec<u32> = a[..na]
                .iter()
                .copied()
                .filter(|&r| (10..=30).contains(&refine_col[r as usize]))
                .collect();
            let ra = sel_between_refine(&refine_col[..], 10, 30, &mut a2, na);
            assert_eq!(ra, expected.len());
            assert_eq!(&a2[..ra], &expected[..]);
        }
    }

    /// The spec-based chunked probe agrees with the closure-based scalar
    /// probe, tracked and untracked, across count values that straddle
    /// the 64-lane bitmap groups.
    #[test]
    fn chunked_probe_matches_scalar_probe() {
        let n = 700;
        let fk: Vec<i32> = (0..n).map(|i| ((i as i64 * 31) % 911) as i32).collect();
        let table: Vec<i16> = (0..911)
            .map(|k| if k % 5 < 2 { k * 2 } else { -1 })
            .collect();
        let spec = PerfectHashProbe::new(0, &table);
        let lookup = |k: i32| {
            let v = i32::from(table[k as usize]);
            (v >= 0).then_some(v)
        };
        for count in [0usize, 1, 63, 64, 65, 128, 640, 700] {
            let master: Vec<u32> = (0..count as u32).collect();
            let mut sel_a = master.clone();
            let mut sel_b = master.clone();
            let mut codes_a = vec![0i32; count];
            let mut codes_b = vec![0i32; count];
            let ha = sel_probe(&fk[..], &spec, &mut sel_a, count, &mut codes_a);
            let hb = sel_probe_scalar(&fk[..], lookup, &mut sel_b, count, &mut codes_b);
            assert_eq!(ha, hb, "count={count}");
            assert_eq!(&sel_a[..ha], &sel_b[..hb]);
            assert_eq!(&codes_a[..ha], &codes_b[..hb]);

            // Tracked variant: same hits, kept holds the input positions.
            let mut sel_c = master.clone();
            let mut codes_c = vec![0i32; count];
            let mut kept = vec![0u32; count];
            let hc = sel_probe_tracked(&fk[..], &spec, &mut sel_c, count, &mut codes_c, &mut kept);
            assert_eq!(hc, ha);
            assert_eq!(&sel_c[..hc], &sel_a[..ha]);
            assert_eq!(&codes_c[..hc], &codes_a[..ha]);
            for (k, &kp) in kept[..hc].iter().enumerate() {
                assert!(kp as usize >= k);
                assert_eq!(master[kp as usize], sel_c[k]);
            }
        }
    }

    /// Every available vector engine produces the exact bitmap of the
    /// portable engine, including at the `i32` extremes — run directly
    /// (not via `Isa::best`) so debug-profile test runs still cover the
    /// intrinsic code paths.
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
    /// to the same selection as the scalar reference, from starts on both
    /// sides of the group and chunk boundaries to ends mid-group, at the
    /// chunk edge and at the end of the stream.
    #[test]
    fn every_engine_selects_every_packed_width_like_the_scalar_scan() {
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
                        let (mut got, mut want) = (vec![0u32; LEN], vec![0u32; LEN]);
                        // SAFETY: `isa` passed the `supported` filter.
                        let n =
                            unsafe { between_init_on(isa, &view, lo, hi, start, end, &mut got) };
                        let m = sel_between_init_scalar(&col[..], lo, hi, start, end, &mut want);
                        assert_eq!(&got[..n], &want[..m], "{isa:?} bits={bits} {start}..{end}");
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
        let mut table = Vec::new();
        let spec = even_key_spec(&mut table, 8);
        let mut sel = [0u32; 8];
        let mut codes = [0i32; 8];
        let mut n = sel_between_init(&a[..], 2, 8, 0, 8, &mut sel);
        n = sel_probe(&fk[..], &spec, &mut sel, n, &mut codes);
        let got: i64 = sel[..n].iter().map(|&r| val[r as usize] as i64).sum();
        let expected: i64 = (0..8)
            .filter(|&i| (2..=8).contains(&a[i]) && fk[i] % 2 == 0)
            .map(|i| val[i] as i64)
            .sum();
        assert_eq!(got, expected);
    }
}
