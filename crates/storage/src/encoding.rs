//! Per-column physical encodings and the shared read abstraction the
//! fused kernels execute through.
//!
//! The paper's compression discussion (Section 5.5, elaborated by the
//! follow-up literature) observes that lightweight encodings — bit-packing
//! a column to `ceil(log2(domain))` bits, dictionary-coding strings —
//! change the fundamental bounds of a scan: the bytes a kernel must move
//! drop by the compression ratio while a few shift/mask instructions per
//! value are added. Whether that trade pays depends on the device's
//! compute-to-bandwidth ratio, which is exactly the axis the paper
//! studies.
//!
//! This module makes the encoding a first-class *execution* property
//! rather than a storage detail:
//!
//! * [`Encoding`] — the per-column descriptor the engines thread through
//!   their plans (plain 4-byte values, or bit-packed at a fixed width).
//! * [`EncodedColumn`] — a column materialized under one encoding.
//! * [`ColumnRead`] — the one trait every fused kernel reads through; it
//!   is implemented by plain slices, [`PackedView`]s and [`ColumnSlice`],
//!   so a kernel monomorphized over `ColumnRead` unpacks in registers and
//!   never materializes a decompressed column.
//! * [`ColumnSlice`] — a borrowed either-plain-or-packed column, the type
//!   executors resolve plan columns to before entering their hot loops.

use crate::bitpack::{PackedColumn, PackedView};
use crate::isa;

/// How a logical `i32` column is physically stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// One 4-byte little-endian value per row (the paper's baseline
    /// storage convention, Section 5.2).
    Plain,
    /// Fixed-width bit-packing at `bits` per value into a `u64` word
    /// stream (non-negative values only). `bits == 32` is a valid no-op
    /// pack: same information, 8-byte word granularity.
    BitPacked {
        /// Width per value, `1..=32`.
        bits: u32,
    },
}

impl Encoding {
    /// The tightest packing able to hold every value of `values`.
    pub fn packed_min(values: &[i32]) -> Self {
        Encoding::BitPacked {
            bits: PackedColumn::min_bits(values),
        }
    }

    /// Physical bytes a column of `rows` values occupies under this
    /// encoding (packed streams round up to whole 8-byte words).
    pub fn bytes_for(&self, rows: usize) -> usize {
        match self {
            Encoding::Plain => rows * 4,
            Encoding::BitPacked { bits } => (rows * *bits as usize).div_ceil(64) * 8,
        }
    }

    /// Whether this encoding packs (anything but [`Encoding::Plain`]).
    pub fn is_packed(&self) -> bool {
        !matches!(self, Encoding::Plain)
    }
}

/// Uniform read access to a column regardless of its physical encoding.
///
/// This is the seam the fused kernels share: `crystal_core::selvec`'s
/// selection/probe kernels, the CPU operators and the executors are all
/// generic over `ColumnRead`, so one implementation serves plain and
/// packed columns and the packed instantiation unpacks in registers, a
/// contiguous window or a selection's rows at a time (never a full-column
/// decompress).
pub trait ColumnRead {
    /// The value at `row`.
    fn value(&self, row: usize) -> i32;

    /// Reads the values at `rows` into `out[..rows.len()]` (`out` may be
    /// longer, not shorter) — the stage of a gather-fed kernel, one call
    /// per selection-vector chunk. The default reads
    /// [`ColumnRead::value`] per row (a plain column's scalar indexed
    /// loads); [`PackedView`] gathers sixteen rows' bit windows per pair of
    /// vector gathers where the CPU has AVX-512.
    #[inline]
    fn gather(&self, rows: &[u32], out: &mut [i32]) {
        for (slot, &row) in out[..rows.len()].iter_mut().zip(rows) {
            *slot = self.value(row as usize);
        }
    }

    /// Number of rows.
    fn row_count(&self) -> usize;

    /// Decodes `out.len()` consecutive values starting at `start` into
    /// `out` — the bulk entry point the chunked kernels stage a whole
    /// decode chunk through before their branch-free compare/compact
    /// phase. The default walks [`ColumnRead::value`]; implementations
    /// with a cheaper bulk form override it ([`PackedView`] decodes
    /// sixteen values per vector load instead of an address computation
    /// and reload per value).
    #[inline]
    fn read_batch(&self, start: usize, out: &mut [i32]) {
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.value(start + k);
        }
    }

    /// The underlying plain slice when the column is already decoded
    /// 4-byte storage, letting chunked kernels borrow their decode window
    /// zero-copy instead of staging it through [`ColumnRead::read_batch`].
    /// `None` for packed storage (the decode is real work there).
    #[inline]
    fn plain(&self) -> Option<&[i32]> {
        None
    }

    /// Hints the cache line `row`'s stored value starts in into cache: a
    /// streaming kernel issues it across the chunk after the one it
    /// computes on, a pipeline for the rows it just selected on the column
    /// its next stage gathers from, so the misses (and page walks) overlap
    /// the compute. `row` may lie past the column; the default does nothing.
    #[inline]
    fn prefetch_row(&self, _row: usize) {}

    /// Stages the window `start..end` for a chunked kernel: plain
    /// storage lends it zero-copy, anything else batch-decodes into
    /// `buf` (which must hold at least `end - start` values). This is
    /// the one decode-phase idiom every two-phase kernel shares.
    #[inline]
    fn stage<'a>(&'a self, start: usize, end: usize, buf: &'a mut [i32]) -> &'a [i32] {
        match self.plain() {
            Some(s) => &s[start..end],
            None => {
                let b = &mut buf[..end - start];
                self.read_batch(start, b);
                b
            }
        }
    }
}

impl ColumnRead for [i32] {
    #[inline]
    fn value(&self, row: usize) -> i32 {
        self[row]
    }

    #[inline]
    fn row_count(&self) -> usize {
        self.len()
    }

    #[inline]
    fn read_batch(&self, start: usize, out: &mut [i32]) {
        out.copy_from_slice(&self[start..start + out.len()]);
    }

    #[inline]
    fn plain(&self) -> Option<&[i32]> {
        Some(self)
    }

    #[inline]
    fn prefetch_row(&self, row: usize) {
        isa::prefetch(self.as_ptr().wrapping_add(row));
    }
}

impl ColumnRead for PackedView<'_> {
    #[inline]
    fn value(&self, row: usize) -> i32 {
        self.get(row)
    }

    #[inline]
    fn row_count(&self) -> usize {
        self.len()
    }

    #[inline]
    fn gather(&self, rows: &[u32], out: &mut [i32]) {
        self.get_rows(rows, out);
    }

    #[inline]
    fn read_batch(&self, start: usize, out: &mut [i32]) {
        self.get_batch(start, out);
    }

    #[inline]
    fn prefetch_row(&self, row: usize) {
        self.prefetch_value(row);
    }
}

/// A borrowed column in either physical format.
///
/// Executors resolve each plan column to a `ColumnSlice` once, then
/// dispatch on the variant *per kernel call* (not per value), so the inner
/// loops stay monomorphic and branch-free.
#[derive(Debug, Clone, Copy)]
pub enum ColumnSlice<'a> {
    /// A plain 4-byte column.
    Plain(&'a [i32]),
    /// A bit-packed column view.
    Packed(PackedView<'a>),
}

impl ColumnSlice<'_> {
    /// The encoding this slice reads.
    pub fn encoding(&self) -> Encoding {
        match self {
            ColumnSlice::Plain(_) => Encoding::Plain,
            ColumnSlice::Packed(v) => Encoding::BitPacked { bits: v.bits() },
        }
    }
}

impl ColumnRead for ColumnSlice<'_> {
    #[inline]
    fn value(&self, row: usize) -> i32 {
        match self {
            ColumnSlice::Plain(s) => s[row],
            ColumnSlice::Packed(v) => v.get(row),
        }
    }

    #[inline]
    fn row_count(&self) -> usize {
        match self {
            ColumnSlice::Plain(s) => s.len(),
            ColumnSlice::Packed(v) => v.len(),
        }
    }

    #[inline]
    fn gather(&self, rows: &[u32], out: &mut [i32]) {
        match self {
            ColumnSlice::Plain(s) => s.gather(rows, out),
            ColumnSlice::Packed(v) => v.gather(rows, out),
        }
    }

    #[inline]
    fn read_batch(&self, start: usize, out: &mut [i32]) {
        match self {
            ColumnSlice::Plain(s) => s.read_batch(start, out),
            ColumnSlice::Packed(v) => v.read_batch(start, out),
        }
    }

    #[inline]
    fn plain(&self) -> Option<&[i32]> {
        match self {
            ColumnSlice::Plain(s) => Some(s),
            ColumnSlice::Packed(_) => None,
        }
    }

    #[inline]
    fn prefetch_row(&self, row: usize) {
        match self {
            ColumnSlice::Plain(s) => s.prefetch_row(row),
            ColumnSlice::Packed(v) => v.prefetch_row(row),
        }
    }
}

/// A column materialized under one [`Encoding`].
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedColumn {
    /// Plain 4-byte storage.
    Plain(Vec<i32>),
    /// Bit-packed storage.
    Packed(PackedColumn),
}

impl EncodedColumn {
    /// Materializes `values` under `encoding`.
    ///
    /// # Panics
    /// Panics if a value does not fit the requested packed width (callers
    /// choose widths from the data via [`Encoding::packed_min`], so a
    /// misfit is a programming error).
    pub fn encode(values: &[i32], encoding: Encoding) -> Self {
        match encoding {
            Encoding::Plain => EncodedColumn::Plain(values.to_vec()),
            Encoding::BitPacked { bits } => EncodedColumn::Packed(
                PackedColumn::pack(values, bits).expect("value outside packed width"),
            ),
        }
    }

    /// The encoding this column is stored under.
    pub fn encoding(&self) -> Encoding {
        match self {
            EncodedColumn::Plain(_) => Encoding::Plain,
            EncodedColumn::Packed(p) => Encoding::BitPacked { bits: p.bits() },
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            EncodedColumn::Plain(v) => v.len(),
            EncodedColumn::Packed(p) => p.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical bytes occupied.
    pub fn size_bytes(&self) -> usize {
        match self {
            EncodedColumn::Plain(v) => v.len() * 4,
            EncodedColumn::Packed(p) => p.size_bytes(),
        }
    }

    /// A borrowed view for kernel execution.
    pub fn slice(&self) -> ColumnSlice<'_> {
        match self {
            EncodedColumn::Plain(v) => ColumnSlice::Plain(v),
            EncodedColumn::Packed(p) => ColumnSlice::Packed(p.view()),
        }
    }

    /// The packed representation, when this column is packed (device
    /// engines upload the raw word stream).
    pub fn as_packed(&self) -> Option<&PackedColumn> {
        match self {
            EncodedColumn::Packed(p) => Some(p),
            EncodedColumn::Plain(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_bytes() {
        assert_eq!(Encoding::Plain.bytes_for(100), 400);
        let e = Encoding::BitPacked { bits: 8 };
        assert_eq!(e.bytes_for(1600), 1600);
        assert!(e.is_packed() && !Encoding::Plain.is_packed());
        // bits = 32 is a valid no-op pack: word-rounded bytes.
        let noop = Encoding::BitPacked { bits: 32 };
        assert_eq!(noop.bytes_for(3), 16); // 96 bits -> two 8-byte words
    }

    #[test]
    fn packed_min_matches_domain() {
        assert_eq!(
            Encoding::packed_min(&[0, 1]),
            Encoding::BitPacked { bits: 1 }
        );
        assert_eq!(
            Encoding::packed_min(&[0, 255]),
            Encoding::BitPacked { bits: 8 }
        );
    }

    #[test]
    fn encoded_column_roundtrips_under_every_encoding() {
        let values: Vec<i32> = (0..500).map(|i| (i * 37) % 1000).collect();
        for enc in [
            Encoding::Plain,
            Encoding::packed_min(&values),
            Encoding::BitPacked { bits: 32 },
        ] {
            let col = EncodedColumn::encode(&values, enc);
            assert_eq!(col.encoding(), enc);
            assert_eq!(col.len(), values.len());
            let s = col.slice();
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(s.value(i), v, "{enc:?} row {i}");
            }
            assert_eq!(s.row_count(), values.len());
            assert_eq!(s.encoding(), enc);
        }
    }

    #[test]
    fn bit_width_one_column() {
        let bits: Vec<i32> = (0..200).map(|i| i % 2).collect();
        let col = EncodedColumn::encode(&bits, Encoding::packed_min(&bits));
        assert_eq!(col.encoding(), Encoding::BitPacked { bits: 1 });
        assert_eq!(col.size_bytes(), 200usize.div_ceil(64) * 8);
        let s = col.slice();
        assert!(bits.iter().enumerate().all(|(i, &v)| s.value(i) == v));
    }

    #[test]
    fn packed_uses_fewer_bytes() {
        let values: Vec<i32> = (0..4096).map(|i| i % 128).collect();
        let plain = EncodedColumn::encode(&values, Encoding::Plain);
        let packed = EncodedColumn::encode(&values, Encoding::packed_min(&values));
        assert!(packed.size_bytes() * 4 <= plain.size_bytes());
        assert!(packed.as_packed().is_some() && plain.as_packed().is_none());
    }

    #[test]
    fn column_read_through_trait_objects_and_slices() {
        fn sum<C: ColumnRead + ?Sized>(c: &C) -> i64 {
            (0..c.row_count()).map(|i| c.value(i) as i64).sum()
        }
        let values: Vec<i32> = (0..100).collect();
        let packed = PackedColumn::pack(&values, 7).unwrap();
        assert_eq!(sum(&values[..]), 4950);
        assert_eq!(sum(&packed.view()), 4950);
        assert_eq!(sum(&ColumnSlice::Packed(packed.view())), 4950);
    }
}
