//! Bit-packed integer columns — the compression scheme of the paper's
//! Section 5.5 future work.
//!
//! "Data compression could be used to fit more data into GPU's memory.
//! GPUs have higher compute to bandwidth ratio than CPUs which could allow
//! use of non-byte addressable packing schemes."
//!
//! Values are packed at a fixed bit width into a little-endian `u64`
//! bitstream. Non-negative values only (SSB's dictionary codes, keys and
//! measures all qualify after encoding).
//!
//! **Packing is block-wise.** 64 values are exactly `bits` words, so
//! [`PackedColumn::pack`] walks the input 64 values at a time: one OR over
//! the block tested against the bits no valid value has (a failing block,
//! and only that one, is rescanned for the first offender), then
//! `pack64`, whose every word index and shift is a constant of the
//! width — no read-modify-write of the stream, no per-value branch. The
//! values after the last whole block are padded to one. Decoding
//! ([`unpack_batch`]) works on 8- and 16-value groups for the same
//! reason: 8 values are exactly `bits` bytes.

use crate::isa::{prefetch, Isa};

/// Error returned when a value does not fit the requested width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackError {
    /// Row of the offending value.
    pub index: usize,
    /// The value that did not fit.
    pub value: i32,
    /// The requested width.
    pub bits: u32,
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "value {} at row {} does not fit in {} bits",
            self.value, self.index, self.bits
        )
    }
}

impl std::error::Error for PackError {}

/// Packs one block of 64 checked values into the `B` words they fill
/// exactly. Written out value by value, so that each value's word, shift
/// and whether it ends a word are constants of the instantiation: the
/// accumulator stays in a register, every word is stored once, and the
/// optimizer is free to vectorize what is left.
#[allow(unused_assignments)] // the carry out of the block's last word
fn pack64<const B: usize>(block: &[i32; 64], out: &mut [u64]) {
    let out: &mut [u64; B] = out.try_into().expect("64 values fill B words");
    let mut acc = 0u64;
    macro_rules! put {
        ($($i:literal)*) => {$(
            let (v, off) = (block[$i] as u32 as u64, $i * B % 64);
            acc |= v << off;
            if off + B >= 64 {
                out[$i * B / 64] = acc;
                acc = v >> (64 - off);
            }
        )*};
    }
    put!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
        33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63);
}

/// A fixed-width bit-packed column of non-negative integers.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedColumn {
    bits: u32,
    len: usize,
    words: Vec<u64>,
}

impl PackedColumn {
    /// Smallest width able to hold every value of `values`.
    pub fn min_bits(values: &[i32]) -> u32 {
        let max = values.iter().copied().max().unwrap_or(0).max(0) as u32;
        (32 - max.leading_zeros()).max(1)
    }

    /// Packs `values` at `bits` per value (1..=32); the error names the
    /// first value that does not fit.
    pub fn pack(values: &[i32], bits: u32) -> Result<Self, PackError> {
        assert!((1..=32).contains(&bits));
        macro_rules! pack64_at {
            ($($b:literal)*) => {
                match bits {
                    $($b => pack64::<$b>,)*
                    _ => unreachable!("asserted above"),
                }
            };
        }
        let pack_block: fn(&[i32; 64], &mut [u64]) = pack64_at!(1 2 3 4 5 6 7 8 9 10 11 12 13 14
            15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
        // The bits no valid value has: those above the width, and the sign
        // (which `bits == 32` would otherwise let through).
        let bad = !(low_mask(bits) as u32) | 1 << 31;
        let mut words = vec![0u64; (values.len() * bits as usize).div_ceil(64)];
        // 64 values are exactly `bits` words: run `k` of the values fills
        // chunk `k` of the words, the last of each possibly short.
        let runs = values.chunks(64).zip(words.chunks_mut(bits as usize));
        for (k, (run, out)) in runs.enumerate() {
            if run.iter().fold(0, |any, &v| any | v as u32) & bad != 0 {
                let at = run.iter().position(|&v| v as u32 & bad != 0);
                let at = at.expect("a run that failed the check holds a misfit");
                return Err(PackError {
                    index: k * 64 + at,
                    value: run[at],
                    bits,
                });
            }
            match run.try_into() {
                Ok(block) => pack_block(block, out),
                // The short run: padded to a block with zeros, which fit
                // any width; the stream has the words its values reach.
                Err(_) => {
                    let (mut block, mut full) = ([0; 64], [0; 32]);
                    block[..run.len()].copy_from_slice(run);
                    pack_block(&block, &mut full[..bits as usize]);
                    out.copy_from_slice(&full[..out.len()]);
                }
            }
        }
        Ok(PackedColumn {
            bits,
            len: values.len(),
            words,
        })
    }

    /// Reassembles a column from its stored parts (see `crate::io`).
    pub fn from_raw(bits: u32, len: usize, words: Vec<u64>) -> Self {
        assert!((1..=32).contains(&bits));
        assert!(
            words.len() * 64 >= len * bits as usize,
            "word stream too short"
        );
        PackedColumn { bits, len, words }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column has no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Width per value, bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Packed footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// The underlying words (for device upload).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Compression ratio versus 4-byte storage.
    pub fn compression_ratio(&self) -> f64 {
        (self.len * 4) as f64 / self.size_bytes().max(1) as f64
    }

    /// Random access to one value.
    #[inline]
    pub fn get(&self, i: usize) -> i32 {
        debug_assert!(i < self.len);
        unpack_at(&self.words, self.bits, i)
    }

    /// Unpacks the whole column.
    pub fn unpack(&self) -> Vec<i32> {
        let mut out = vec![0; self.len];
        unpack_batch(&self.words, self.bits, 0, &mut out);
        out
    }

    /// A borrowed view over the packed stream — what the fused kernels
    /// (CPU and device) read through.
    #[inline]
    pub fn view(&self) -> PackedView<'_> {
        PackedView {
            words: &self.words,
            bits: self.bits,
            len: self.len,
        }
    }
}

/// A borrowed, copyable view of a packed word stream.
///
/// This is the single unpack implementation in the workspace: host-side
/// fused kernels read it through `crystal_storage::encoding::ColumnRead`,
/// and the device kernels construct one over their uploaded word buffers.
#[derive(Debug, Clone, Copy)]
pub struct PackedView<'a> {
    words: &'a [u64],
    bits: u32,
    len: usize,
}

impl<'a> PackedView<'a> {
    /// Builds a view over raw parts (device buffers expose their words as
    /// a slice).
    #[inline]
    pub fn from_raw(words: &'a [u64], bits: u32, len: usize) -> Self {
        debug_assert!((1..=32).contains(&bits));
        debug_assert!(words.len() * 64 >= len * bits as usize);
        PackedView { words, bits, len }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view covers no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Width per value, bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Unpacks one value in registers (two shifts and a mask; three when
    /// the value straddles a word boundary).
    #[inline]
    pub fn get(&self, i: usize) -> i32 {
        debug_assert!(i < self.len);
        unpack_at(self.words, self.bits, i)
    }

    /// Decodes `out.len()` consecutive values starting at `start` through
    /// [`unpack_batch`], which is what makes the chunked kernels' decode
    /// phase cheap.
    #[inline]
    pub fn get_batch(&self, start: usize, out: &mut [i32]) {
        debug_assert!(start + out.len() <= self.len);
        unpack_batch(self.words, self.bits, start, out);
    }

    /// Decodes the values at `rows` into `out[..rows.len()]` (`out` may be
    /// longer, not shorter): the stage of a gather-fed kernel, sixteen rows
    /// per pair of vector gathers under AVX-512 ([`Isa::best`]) and
    /// [`unpack_at`] per row elsewhere.
    #[inline]
    pub fn get_rows(&self, rows: &[u32], out: &mut [i32]) {
        debug_assert!(rows.iter().all(|&row| (row as usize) < self.len));
        // SAFETY: `Isa::best` only returns a level the CPU supports.
        unsafe { gather_on(Isa::best(), self.words, self.bits, rows, out) }
    }

    /// Hints the line value `i` starts in into cache (`i` may lie past the
    /// view: the address is computed, never dereferenced).
    #[inline]
    pub fn prefetch_value(&self, i: usize) {
        let word = i.wrapping_mul(self.bits as usize) / 64;
        prefetch(self.words.as_ptr().wrapping_add(word));
    }
}

/// Decodes `out.len()` consecutive values starting at `start` from a
/// packed word stream — the one decode entry point, behind
/// `ColumnRead::read_batch`, that the chunked kernels stage through.
///
/// **Byte windows.** The value at bit `p` lies inside the 8 bytes from
/// byte `p / 8` (`p % 8 + 32 <= 64`), and inside the first 4 of them when
/// `bits <= 25`: one unaligned little-endian load, one shift, one mask —
/// no word-boundary branch, no loop-carried state.
///
/// **SIMD engines (`bits <= 25`).** Eight values are exactly `bits` bytes,
/// so every 8- or 16-value group of a batch starts at the same bit phase
/// as the first and its per-lane (window byte, shift) pattern is constant
/// per call: a group is one unaligned vector load, one byte permute
/// placing each lane's 4-byte window, one per-lane shift, one mask, one
/// store. [`Isa::best`] picks the engine. Groups whose vector load would
/// end past `words`, and widths 26..=32, take the scalar window loop; the
/// last values, whose scalar window would, take the word/straddle loop —
/// as does the whole batch on big-endian targets (windows read the words'
/// in-memory byte order).
pub fn unpack_batch(words: &[u64], bits: u32, start: usize, out: &mut [i32]) {
    // SAFETY: `Isa::best` only returns a level the CPU supports.
    unsafe { unpack_on(Isa::best(), words, bits, start, out) }
}

/// [`unpack_batch`] on a given level's engine (tests force each one).
///
/// # Safety
/// The running CPU must support `isa` ([`Isa::supported`]).
unsafe fn unpack_on(isa: Isa, words: &[u64], bits: u32, start: usize, out: &mut [i32]) {
    debug_assert!((1..=32).contains(&bits));
    debug_assert!(words.len() * 64 >= (start + out.len()) * bits as usize);
    let done = match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller vouches for AVX-512 VBMI, the engine's only
        // requirement.
        Isa::Avx512Vbmi if bits <= 25 => unsafe { unpack_avx512(words, bits, start, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller vouches for AVX2, the engine's only
        // requirement.
        Isa::Avx512 | Isa::Avx2 if bits <= 25 => unsafe { unpack_avx2(words, bits, start, out) },
        _ => 0,
    };
    #[cfg(target_endian = "little")]
    let done = done + unpack_windows(words, bits, start + done, &mut out[done..]);
    unpack_straddle(words, bits, start + done, &mut out[done..]);
}

/// How many of `want` equally spaced loads of `load` units — the first at
/// `first`, each `stride` after the last — end inside a buffer of `len`
/// units. Every unchecked decode loop is sized with this.
#[inline]
fn loads_in_bounds(len: usize, first: usize, stride: usize, load: usize, want: usize) -> usize {
    match first.checked_add(load).and_then(|end| len.checked_sub(end)) {
        Some(slack) => want.min(slack / stride + 1),
        None => 0,
    }
}

/// Mask of the low `bits` bits.
#[inline]
fn low_mask(bits: u32) -> u64 {
    (1u64 << bits) - 1
}

/// Lane `i`'s window byte and shift in a group whose first value starts
/// at bit `phase` of the group's first byte.
#[cfg(target_arch = "x86_64")]
#[inline]
fn lane(phase: usize, bits: usize, i: usize) -> (usize, u32) {
    let p = phase + i * bits;
    (p / 8, (p % 8) as u32)
}

/// The AVX-512 decode engine: sixteen values (`2 * bits` bytes) per
/// 64-byte load. Returns how many leading values of `out` it decoded — a
/// multiple of 16, short of `out.len()` by the partial group and by the
/// groups whose load would end past `words`. Correct for `bits <= 25`.
///
/// # Safety
/// The CPU must support AVX-512 F, BW and VBMI.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn unpack_avx512(words: &[u64], bits: u32, start: usize, out: &mut [i32]) -> usize {
    use std::arch::x86_64::*;
    let b = bits as usize;
    let (byte0, phase) = ((start * b) >> 3, (start * b) & 7);
    // Lane 15's window starts `(7 + 15 * 25) / 8 = 47` bytes into the load
    // at most, so all four of its bytes are among the 64 loaded.
    let (mut window, mut shift) = ([0u8; 64], [0u32; 16]);
    for i in 0..16 {
        let (byte, by) = lane(phase, b, i);
        window[4 * i..4 * i + 4].copy_from_slice(&[0, 1, 2, 3].map(|k| (byte + k) as u8));
        shift[i] = by;
    }
    let nbytes = words.len() * 8;
    let groups = loads_in_bounds(nbytes, byte0, 2 * b, 64, out.len() / 16);
    // SAFETY: the constant loads read whole local arrays of their vector's
    // size. Group `g` loads bytes `byte0 + 2bg ..+ 64` of `words`, which
    // `loads_in_bounds` placed at or before `nbytes`, and stores lanes
    // `16g .. 16g + 16` of `out`, inside it as `groups <= out.len() / 16`.
    unsafe {
        let window = _mm512_loadu_si512(window.as_ptr().cast());
        let shift = _mm512_loadu_si512(shift.as_ptr().cast());
        let mask = _mm512_set1_epi32(low_mask(bits) as i32);
        let bytes = words.as_ptr().cast::<u8>();
        for g in 0..groups {
            debug_assert!(byte0 + g * 2 * b + 64 <= nbytes);
            let raw = _mm512_loadu_si512(bytes.add(byte0 + g * 2 * b).cast());
            let lanes = _mm512_srlv_epi32(_mm512_permutexvar_epi8(window, raw), shift);
            let vals = _mm512_and_si512(lanes, mask);
            _mm512_storeu_si512(out.as_mut_ptr().add(g * 16).cast(), vals);
        }
    }
    groups * 16
}

/// The AVX2 decode engine: eight values (`bits` bytes) per iteration, four
/// per 128-bit lane because `pshufb` permutes within a lane — lanes 0..4
/// from the 16 bytes at the group's first byte, lanes 4..8 from the 16
/// bytes at the byte lane 4 starts in. Returns the count decoded, a
/// multiple of 8, as [`unpack_avx512`] does. Correct for `bits <= 25`.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn unpack_avx2(words: &[u64], bits: u32, start: usize, out: &mut [i32]) -> usize {
    use std::arch::x86_64::*;
    let b = bits as usize;
    let (byte0, phase) = ((start * b) >> 3, (start * b) & 7);
    let hi = lane(phase, b, 4).0;
    // Four values span at most `(7 + 3 * 25) / 8 + 4 = 14` bytes from the
    // byte the first starts in, so each half's windows are inside its 16.
    let (mut window, mut shift) = ([0u8; 32], [0u32; 8]);
    for i in 0..8 {
        let (byte, by) = lane(phase, b, i);
        let byte = byte - if i < 4 { 0 } else { hi };
        window[4 * i..4 * i + 4].copy_from_slice(&[0, 1, 2, 3].map(|k| (byte + k) as u8));
        shift[i] = by;
    }
    let nbytes = words.len() * 8;
    let groups = loads_in_bounds(nbytes, byte0 + hi, b, 16, out.len() / 8);
    // SAFETY: the constant loads read whole local arrays of their vector's
    // size. Group `g`'s later load covers bytes `byte0 + hi + bg ..+ 16`
    // of `words`, which `loads_in_bounds` placed at or before `nbytes`,
    // and its earlier load ends `hi` bytes sooner; the store fills lanes
    // `8g .. 8g + 8` of `out`, inside it as `groups <= out.len() / 8`.
    unsafe {
        let window = _mm256_loadu_si256(window.as_ptr().cast());
        let shift = _mm256_loadu_si256(shift.as_ptr().cast());
        let mask = _mm256_set1_epi32(low_mask(bits) as i32);
        let bytes = words.as_ptr().cast::<u8>();
        for g in 0..groups {
            debug_assert!(byte0 + hi + g * b + 16 <= nbytes);
            let lo_half = _mm_loadu_si128(bytes.add(byte0 + g * b).cast());
            let hi_half = _mm_loadu_si128(bytes.add(byte0 + g * b + hi).cast());
            let raw = _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(lo_half), hi_half);
            let lanes = _mm256_srlv_epi32(_mm256_shuffle_epi8(raw, window), shift);
            let vals = _mm256_and_si256(lanes, mask);
            _mm256_storeu_si256(out.as_mut_ptr().add(g * 8).cast(), vals);
        }
    }
    groups * 8
}

/// The portable decode engine, and the other engines' tail and 26..=32-bit
/// path: one unaligned 8-byte window load, shift and mask per value.
/// Returns how many leading values of `out` it decoded — all whose window
/// ends inside `words`.
#[cfg(target_endian = "little")]
fn unpack_windows(words: &[u64], bits: u32, start: usize, out: &mut [i32]) -> usize {
    let b = bits as usize;
    let mask = low_mask(bits);
    let mut bit = start * b;
    let bytes = words.as_ptr().cast::<u8>();
    // In bits: a window that ends inside the stream starts inside it.
    let n = loads_in_bounds(words.len() * 64, bit, b, 64, out.len());
    for slot in &mut out[..n] {
        debug_assert!(bit + 64 <= words.len() * 64);
        // SAFETY: `loads_in_bounds` counted only values with
        // `bit + 64 <= words.len() * 64`, so the 8 bytes from `bit / 8`
        // are inside `words`; `read_unaligned` takes any alignment.
        let v = unsafe { bytes.add(bit >> 3).cast::<u64>().read_unaligned() };
        *slot = ((v >> (bit & 7)) & mask) as i32;
        bit += b;
    }
    n
}

/// The word/straddle loop: bounds-checked, any target — the last few
/// values of a batch, the whole batch on big-endian targets.
fn unpack_straddle(words: &[u64], bits: u32, start: usize, out: &mut [i32]) {
    let b = bits as usize;
    let mask = low_mask(bits);
    let mut bit = start * b;
    for slot in out {
        let w = bit >> 6;
        let off = (bit & 63) as u32;
        let mut v = words[w] >> off;
        if off + bits > 64 {
            v |= words[w + 1] << (64 - off);
        }
        *slot = (v & mask) as i32;
        bit += b;
    }
}

/// [`PackedView::get_rows`] on a given level's engine (tests force each
/// one): the AVX-512 engine decodes every whole sixteen rows, [`unpack_at`]
/// the rest — and every row on the other levels.
///
/// # Safety
/// The running CPU must support `isa` ([`Isa::supported`]).
unsafe fn gather_on(isa: Isa, words: &[u64], bits: u32, rows: &[u32], out: &mut [i32]) {
    debug_assert!((1..=32).contains(&bits));
    let out = &mut out[..rows.len()];
    let done = match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller vouches for AVX-512 F, the engine's only
        // requirement; `out` is exactly as long as `rows`.
        Isa::Avx512Vbmi | Isa::Avx512 => unsafe { gather_avx512(words, bits, rows, out) },
        _ => 0,
    };
    for (slot, &row) in out[done..].iter_mut().zip(&rows[done..]) {
        *slot = unpack_at(words, bits, row as usize);
    }
}

/// The AVX-512 gather engine, per sixteen rows: the row ids widened to
/// `u64` and multiplied by `bits` (`vpmuludq`: a `u32` row id times a
/// width of at most 32 cannot overflow) give each value's bit offset; two
/// masked `vpgatherqq` load the 8-byte window at byte `bit >> 3`, which
/// holds the whole value because `(bit & 7) + bits <= 7 + 32 <= 64`;
/// `vpsrlvq` by `bit & 7`, a mask and `vpmovqd` narrow the values to
/// `i32`. A lane whose window would end past `words` is masked out of the
/// gather and recomputed by [`unpack_at`]. Returns how many leading rows it
/// decoded: every whole sixteen.
///
/// # Safety
/// The CPU must support AVX-512 F, and `out` must be as long as `rows`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gather_avx512(words: &[u64], bits: u32, rows: &[u32], out: &mut [i32]) -> usize {
    use std::arch::x86_64::*;
    debug_assert_eq!(rows.len(), out.len());
    let nbytes = words.len() * 8;
    // The window from byte `b` ends inside the stream when `b + 8 <=
    // nbytes`, that is when `b < nbytes - 7` (no lane, for no words).
    let vend = _mm512_set1_epi64(nbytes.saturating_sub(7) as i64);
    let vbits = _mm512_set1_epi64(i64::from(bits));
    let phase = _mm512_set1_epi64(7);
    let mask = _mm512_set1_epi64(low_mask(bits) as i64);
    let groups = rows.len() / 16;
    for g in 0..groups {
        let at = 16 * g;
        debug_assert!(at + 16 <= rows.len());
        // SAFETY: rows `at .. at + 16`, inside `rows` as `g < rows.len() / 16`.
        let ids = unsafe { _mm512_loadu_si512(rows.as_ptr().add(at).cast()) };
        let mut live = 0u16;
        let mut narrow = [_mm256_setzero_si256(); 2];
        for (h, lanes) in narrow.iter_mut().enumerate() {
            let half = match h {
                0 => _mm512_castsi512_si256(ids),
                _ => _mm512_extracti64x4_epi64::<1>(ids),
            };
            let bit = _mm512_mul_epu32(_mm512_cvtepu32_epi64(half), vbits);
            let byte = _mm512_srli_epi64::<3>(bit);
            let ok = _mm512_cmplt_epi64_mask(byte, vend);
            debug_assert!(
                (0..8).all(|l| ok >> l & 1 == 0
                    || ((rows[at + 8 * h + l] as usize * bits as usize) >> 3) + 8 <= nbytes),
                "a gathered window ends past the stream"
            );
            // SAFETY: only the `ok` lanes load, each the 8 bytes from byte
            // `byte < nbytes - 7` of `words`: inside it.
            let window = unsafe {
                _mm512_mask_i64gather_epi64::<1>(
                    _mm512_setzero_si512(),
                    ok,
                    byte,
                    words.as_ptr().cast(),
                )
            };
            let shifted = _mm512_srlv_epi64(window, _mm512_and_si512(bit, phase));
            *lanes = _mm512_cvtepi64_epi32(_mm512_and_si512(shifted, mask));
            live |= u16::from(ok) << (8 * h);
        }
        debug_assert!(at + 16 <= out.len());
        // SAFETY: values `at .. at + 16` of `out`, which is as long as
        // `rows` (the caller vouches), so inside it.
        unsafe {
            _mm256_storeu_si256(out.as_mut_ptr().add(at).cast(), narrow[0]);
            _mm256_storeu_si256(out.as_mut_ptr().add(at + 8).cast(), narrow[1]);
        }
        let mut dead = !live;
        while dead != 0 {
            let l = at + dead.trailing_zeros() as usize;
            out[l] = unpack_at(words, bits, rows[l] as usize);
            dead &= dead - 1;
        }
    }
    16 * groups
}

/// Extracts value `i` from a packed word stream (shared by the device
/// kernels, which operate on raw words).
#[inline]
pub fn unpack_at(words: &[u64], bits: u32, i: usize) -> i32 {
    let mask = if bits == 32 {
        u32::MAX as u64
    } else {
        (1u64 << bits) - 1
    };
    let bit = i * bits as usize;
    let (word, off) = (bit / 64, (bit % 64) as u32);
    // No branch on whether the value straddles (at 20 bits five values in
    // sixteen do, in no order a gather-fed stage's predictor can learn):
    // the next word's bits always join above this word's, in two shifts so
    // that `off == 0` shifts them all out, and the mask drops them when
    // the value ends here. Only such a value has no next word.
    let next = words.get(word + 1).copied().unwrap_or(0);
    let v = words[word] >> off | (next << 1) << (63 - off);
    (v & mask) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        let values: Vec<i32> = (0..1000).map(|i| (i * 7919) % 4096).collect();
        for bits in [12u32, 13, 17, 32] {
            let p = PackedColumn::pack(&values, bits).unwrap();
            assert_eq!(p.unpack(), values, "bits={bits}");
            assert_eq!(p.len(), 1000);
        }
    }

    #[test]
    fn straddles_word_boundaries() {
        // 13-bit values hit every possible word offset.
        let values: Vec<i32> = (0..500).map(|i| i % 8192).collect();
        let p = PackedColumn::pack(&values, 13).unwrap();
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(p.get(i), v, "row {i}");
        }
    }

    #[test]
    fn min_bits_is_tight() {
        assert_eq!(PackedColumn::min_bits(&[0]), 1);
        assert_eq!(PackedColumn::min_bits(&[1]), 1);
        assert_eq!(PackedColumn::min_bits(&[2]), 2);
        assert_eq!(PackedColumn::min_bits(&[255]), 8);
        assert_eq!(PackedColumn::min_bits(&[256]), 9);
        assert_eq!(PackedColumn::min_bits(&[i32::MAX]), 31);
    }

    #[test]
    fn rejects_out_of_range_values() {
        let err = PackedColumn::pack(&[3, 99], 5).unwrap_err();
        assert_eq!(err.index, 1);
        assert!(PackedColumn::pack(&[-1], 8).is_err());
    }

    #[test]
    fn footprint_and_ratio() {
        let values = vec![1i32; 1600];
        let p = PackedColumn::pack(&values, 8).unwrap();
        assert_eq!(p.size_bytes(), 1600);
        assert!((p.compression_ratio() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_column() {
        let p = PackedColumn::pack(&[], 8).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.unpack(), Vec::<i32>::new());
    }

    /// `len` pseudo-random values that fit `bits`.
    fn values_of_width(bits: u32, len: usize) -> Vec<i32> {
        let domain_mask = low_mask(bits.min(31)) as i32;
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(bits);
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as i32 & domain_mask
            })
            .collect()
    }

    /// The read-modify-write loop `pack` was before it went block-wise,
    /// kept as its oracle: one check, two shifts and up to two `|=` into
    /// the zeroed stream per value.
    fn pack_by_loop(values: &[i32], bits: u32) -> Result<PackedColumn, PackError> {
        let mask = low_mask(bits);
        let mut words = vec![0u64; (values.len() * bits as usize).div_ceil(64)];
        for (index, &value) in values.iter().enumerate() {
            if value < 0 || (value as u64) & !mask != 0 {
                return Err(PackError { index, value, bits });
            }
            let bit = index * bits as usize;
            let (word, off) = (bit / 64, (bit % 64) as u32);
            words[word] |= (value as u64) << off;
            if off + bits > 64 {
                words[word + 1] |= (value as u64) >> (64 - off);
            }
        }
        let len = values.len();
        Ok(PackedColumn { bits, len, words })
    }

    /// Whole blocks only, a lone tail, a tail after blocks, and 229 — a
    /// 37-value tail, which straddles a word at every width above one.
    const PACK_LENGTHS: [usize; 9] = [0, 1, 63, 64, 65, 127, 128, 2112, 229];

    #[test]
    fn pack_matches_the_loop_it_replaced() {
        for bits in 1..=32u32 {
            for len in PACK_LENGTHS {
                let values = values_of_width(bits, len);
                let packed = PackedColumn::pack(&values, bits);
                assert_eq!(packed, pack_by_loop(&values, bits), "bits={bits} len={len}");
                let packed = packed.unwrap();
                assert_eq!((packed.bits(), packed.len()), (bits, len));
            }
        }
    }

    /// A value that does not fit is reported exactly as the loop reported
    /// it — the first offender's row, value and the width — wherever it
    /// sits: first and last value of a block, in the tail, twice in one
    /// block, too wide or negative (the one misfit `bits == 32` has).
    #[test]
    fn pack_reports_the_first_misfit_like_the_loop() {
        for bits in 1..=32u32 {
            let too_wide = (bits < 31).then(|| 1i32 << bits);
            for bad in [Some(-1), Some(i32::MIN), too_wide].into_iter().flatten() {
                for rows in [
                    &[64usize][..],
                    &[127],
                    &[200],
                    &[70, 90],
                    &[90, 70],
                    &[0, 228],
                ] {
                    let mut values = values_of_width(bits, 229);
                    rows.iter().for_each(|&r| values[r] = bad);
                    let err = PackedColumn::pack(&values, bits).unwrap_err();
                    assert_eq!(
                        Err(&err),
                        pack_by_loop(&values, bits).as_ref(),
                        "{bits} {rows:?}"
                    );
                    let first = *rows.iter().min().unwrap();
                    assert_eq!((err.index, err.value, err.bits), (first, bad, bits));
                }
            }
        }
    }

    /// `unpack` (one `unpack_batch` over the column) equals value-at-a-time
    /// `get`, including where the stream ends on its last word's last byte
    /// (2112 values are whole words at every width).
    #[test]
    fn unpack_matches_get_at_every_width() {
        for bits in 1..=32u32 {
            for len in [0, 1, 63, 64, 65, 2112] {
                let values = values_of_width(bits, len);
                let p = PackedColumn::pack(&values, bits).unwrap();
                let by_get: Vec<i32> = (0..len).map(|i| p.get(i)).collect();
                assert_eq!(p.unpack(), by_get, "bits={bits} len={len}");
                assert_eq!(by_get, values);
            }
        }
    }

    /// The forced-engine matrix: every decode engine the CPU has, called
    /// directly (detection reaches only the best one), agrees with
    /// `unpack_at` for every width, from starts at every bit phase and on
    /// both sides of the 16-, 64- and 1024-value boundaries, for lengths
    /// around one SIMD group and up to the end of a stream whose last
    /// value ends in the last byte of the last word — so the final groups'
    /// vector loads would leave the buffer if the engine did not stop
    /// short. Slots past the batch must stay untouched.
    #[test]
    fn every_engine_matches_unpack_at_for_every_width_and_edge() {
        const LEN: usize = 2112; // 33 * 64: `LEN * bits` is whole words.
        const CANARY: i32 = -7;
        for &isa in Isa::ALL.iter().filter(|isa| isa.supported()) {
            for bits in 1..=32u32 {
                let values = values_of_width(bits, LEN);
                let p = PackedColumn::pack(&values, bits).unwrap();
                assert_eq!(p.words().len() * 64, LEN * bits as usize);
                for start in [0, 1, 7, 8, 15, 16, 63, 64, 1023, 1024, LEN - 17, LEN - 1] {
                    for len in [0, 1, 15, 16, 17, 1024, LEN] {
                        let len = len.min(LEN - start);
                        let mut out = vec![CANARY; len + 16];
                        // SAFETY: `isa` passed the `supported` filter.
                        unsafe { unpack_on(isa, p.words(), bits, start, &mut out[..len]) };
                        for (k, &v) in out[..len].iter().enumerate() {
                            let want = unpack_at(p.words(), bits, start + k);
                            assert_eq!(v, want, "{isa:?} bits={bits} start={start} len={len} +{k}");
                        }
                        assert!(
                            out[len..].iter().all(|&v| v == CANARY),
                            "{isa:?} bits={bits} start={start} len={len} wrote past the batch"
                        );
                    }
                }
            }
        }
    }

    /// The gather's forced-engine matrix: every engine the CPU has, called
    /// directly, decodes the values at a set of rows as `unpack_at` does,
    /// for every width over a stream whose last value ends in the last byte
    /// of the last word — so the windows of the last rows pass the end and
    /// take the fix-up path — for ascending dense, every third, descending
    /// and duplicated rows, row 0 alone and the last rows alone, at counts
    /// around one sixteen-row group and whole sets. Slots past the rows
    /// stay untouched. It prints the engines it forced: whether the
    /// AVX-512 engine ran is in the log of a `--nocapture` run.
    #[test]
    fn every_engine_gathers_like_unpack_at_for_every_width_and_edge() {
        const LEN: u32 = 2112; // `LEN * bits` is whole words.
        const CANARY: i32 = -7;
        let engines: Vec<Isa> = Isa::ALL
            .iter()
            .copied()
            .filter(|isa| isa.supported())
            .collect();
        println!(
            "Isa::best() = {:?}; gather engines forced: {engines:?}",
            Isa::best()
        );
        let last = LEN - 1;
        let sets: [(&str, Vec<u32>); 6] = [
            ("ascending", (0..LEN).collect()),
            ("every third", (0..LEN).step_by(3).collect()),
            ("descending", (0..LEN).rev().collect()),
            ("duplicates", (0..LEN).map(|i| i / 3 * 7 % LEN).collect()),
            ("row 0", vec![0; 17]),
            ("last rows", (0..40).map(|i| last - i % 20).collect()),
        ];
        for &isa in &engines {
            for bits in 1..=32u32 {
                let values = values_of_width(bits, LEN as usize);
                let p = PackedColumn::pack(&values, bits).unwrap();
                assert_eq!(p.words().len() * 64, LEN as usize * bits as usize);
                for (what, rows) in &sets {
                    for count in [0, 1, 15, 16, 17, rows.len()] {
                        let rows = &rows[..count.min(rows.len())];
                        let mut out = vec![CANARY; rows.len() + 16];
                        // SAFETY: `isa` passed the `supported` filter.
                        unsafe { gather_on(isa, p.words(), bits, rows, &mut out) };
                        for (k, (&v, &row)) in out.iter().zip(rows).enumerate() {
                            let want = unpack_at(p.words(), bits, row as usize);
                            assert_eq!(v, want, "{isa:?} bits={bits} {what} {} +{k}", rows.len());
                        }
                        assert!(
                            out[rows.len()..].iter().all(|&v| v == CANARY),
                            "{isa:?} bits={bits} {what} {} wrote past the rows",
                            rows.len()
                        );
                    }
                }
            }
        }
    }

    /// The bound every unchecked decode loop is sized with: each counted
    /// load ends inside the buffer, and the next one would not (or `want`
    /// is reached).
    #[test]
    fn loads_in_bounds_is_tight() {
        for len in 0..80 {
            for first in 0..80 {
                for stride in [1, 2, 7, 50] {
                    for load in [4, 16, 64] {
                        for want in [0, 1, 3, 1000] {
                            let n = loads_in_bounds(len, first, stride, load, want);
                            let case = format!("{len} {first} {stride} {load} {want}");
                            assert!(n <= want, "{case}");
                            if n > 0 {
                                assert!(first + (n - 1) * stride + load <= len, "{case}");
                            }
                            if n < want {
                                assert!(first + n * stride + load > len, "{case}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// The batch decoder agrees with per-value `unpack_at`
    /// for every width, at every start offset, including chunk-straddling
    /// and word-straddling windows.
    #[test]
    fn batch_decode_matches_scalar_decode() {
        let values: Vec<i32> = (0..700)
            .map(|i| (i * 2654435761u64 as usize % 8192) as i32)
            .collect();
        for bits in [1u32, 2, 7, 13, 16, 31, 32] {
            let domain_mask = if bits >= 31 {
                i32::MAX
            } else {
                (1 << bits) - 1
            };
            let vals: Vec<i32> = values.iter().map(|&v| v & domain_mask).collect();
            let p = PackedColumn::pack(&vals, bits).unwrap();
            for (start, len) in [
                (0usize, 700usize),
                (0, 1),
                (1, 63),
                (63, 66),
                (699, 1),
                (137, 500),
                (700, 0),
            ] {
                let mut out = vec![0i32; len];
                unpack_batch(p.words(), bits, start, &mut out);
                let expected: Vec<i32> = (start..start + len).map(|i| p.get(i)).collect();
                assert_eq!(out, expected, "bits={bits} start={start} len={len}");
            }
        }
    }

    #[test]
    fn batch_decode_empty_out_is_noop() {
        unpack_batch(&[], 8, 0, &mut []);
        let p = PackedColumn::pack(&[1, 2, 3], 4).unwrap();
        unpack_batch(p.words(), 4, 3, &mut []);
    }
}
