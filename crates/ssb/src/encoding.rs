//! Per-column encodings for the fact table, and the dictionary-predicate
//! rewrite — the compressed-execution layer of the benchmark.
//!
//! Two pieces make compressed columns a first-class *execution* format
//! rather than a storage detail:
//!
//! * [`FactEncodings`] + [`EncodedFact`] — a per-column
//!   [`Encoding`] descriptor for each of the nine `lineorder` columns and
//!   the fact table materialized under it. The executors resolve each
//!   plan column to a `ColumnSlice` from the encoded table and pick the
//!   packed or plain monomorphization of the fused kernels per column;
//!   nothing ever materializes a decompressed column. Dimension tables
//!   stay plain — they are thousands of rows against the fact table's
//!   millions, so compressing them moves no interesting bytes.
//! * [`rewrite_eq`] / [`rewrite_between`] / [`rewrite_in`] — the paper's
//!   Section 5.2 literal rewrite, formalized: a string filter such as
//!   `s_region = 'ASIA'` becomes a range check over the dictionary's
//!   packed code domain, which is exactly what the fused
//!   unpack-and-compare kernels execute.
//!
//! [`random_encodings`] draws a per-column encoding mix from a seed so the
//! randomized differential suite can hold results byte-identical with
//! compression toggled on, off, and anywhere in between.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crystal_storage::bitpack::PackedColumn;
use crystal_storage::dict::Dictionary;
use crystal_storage::encoding::{ColumnSlice, EncodedColumn, Encoding};

use crate::data::{SsbData, SsbDicts};
use crate::plan::{DimAttr, DimPred, FactCol};

/// Per-column [`Encoding`] descriptors for the nine fact columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactEncodings {
    enc: [Encoding; 9],
}

impl FactEncodings {
    /// Every column plain (the paper's baseline storage).
    pub fn plain() -> Self {
        FactEncodings {
            enc: [Encoding::Plain; 9],
        }
    }

    /// Every column bit-packed at `ceil(log2(domain))` bits — the
    /// tightest lossless width the generated data admits.
    pub fn packed_min(d: &SsbData) -> Self {
        let mut e = FactEncodings::plain();
        for c in FactCol::ALL {
            e.set(c, Encoding::packed_min(c.data(d)));
        }
        e
    }

    /// The encoding of one column.
    pub fn get(&self, col: FactCol) -> Encoding {
        self.enc[col.index()]
    }

    /// Sets the encoding of one column.
    pub fn set(&mut self, col: FactCol, e: Encoding) {
        self.enc[col.index()] = e;
    }

    /// Whether any column is packed.
    pub fn any_packed(&self) -> bool {
        self.enc.iter().any(|e| e.is_packed())
    }

    /// Physical bytes of `cols` under these encodings for a fact table of
    /// `rows` rows — the coprocessor's per-query transfer volume.
    pub fn columns_bytes(&self, rows: usize, cols: &[FactCol]) -> usize {
        cols.iter().map(|c| self.get(*c).bytes_for(rows)).sum()
    }

    /// Total values in the *packed* columns of `cols` (`rows` per packed
    /// column) — the host's fused-unpack work for the Section-6 bound.
    pub fn packed_values(&self, rows: usize, cols: &[FactCol]) -> usize {
        cols.iter()
            .filter(|c| self.get(**c).is_packed())
            .map(|_| rows)
            .sum()
    }
}

/// Draws a per-column encoding mix from a seed: each fact column is
/// plain, packed at its minimum width, or packed at a random wider width
/// up to the 32-bit no-op pack. Deterministic in the seed.
pub fn random_encodings(d: &SsbData, seed: u64) -> FactEncodings {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut enc = FactEncodings::plain();
    for c in FactCol::ALL {
        let min_bits = PackedColumn::min_bits(c.data(d));
        let e = match rng.gen_range(0..3u32) {
            0 => Encoding::Plain,
            1 => Encoding::BitPacked { bits: min_bits },
            _ => Encoding::BitPacked {
                bits: rng.gen_range(min_bits..=32),
            },
        };
        enc.set(c, e);
    }
    enc
}

/// The fact table materialized under a [`FactEncodings`] descriptor.
#[derive(Debug, Clone)]
pub struct EncodedFact {
    rows: usize,
    cols: Vec<EncodedColumn>,
}

impl EncodedFact {
    /// Encodes the fact columns of `d` under `enc` (packed columns are
    /// bit-packed once, here; queries then execute on the packed words
    /// directly).
    pub fn encode(d: &SsbData, enc: &FactEncodings) -> Self {
        EncodedFact {
            rows: d.lineorder.rows(),
            cols: FactCol::ALL
                .iter()
                .map(|c| EncodedColumn::encode(c.data(d), enc.get(*c)))
                .collect(),
        }
    }

    /// A table of already encoded columns, one per [`FactCol`] in
    /// `FactCol::ALL` order — a shard of
    /// [`crate::partition::PartitionedFact`], which encodes its own rows
    /// straight from where the partition scattered them.
    pub(crate) fn from_columns(cols: Vec<EncodedColumn>) -> Self {
        assert_eq!(cols.len(), FactCol::ALL.len(), "one per fact column");
        let rows = cols[0].len();
        assert!(
            cols.iter().all(|c| c.len() == rows),
            "fact columns must share one row count"
        );
        EncodedFact { rows, cols }
    }

    /// Fact rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The encodings this table was materialized under.
    pub fn encodings(&self) -> FactEncodings {
        let mut e = FactEncodings::plain();
        for c in FactCol::ALL {
            e.set(c, self.cols[c.index()].encoding());
        }
        e
    }

    /// One column's stored form (device engines upload packed words from
    /// here).
    pub fn encoded(&self, col: FactCol) -> &EncodedColumn {
        &self.cols[col.index()]
    }

    /// A borrowed kernel-ready view of one column.
    pub fn col(&self, col: FactCol) -> ColumnSlice<'_> {
        self.cols[col.index()].slice()
    }

    /// Physical bytes across all nine columns.
    pub fn size_bytes(&self) -> usize {
        self.cols.iter().map(|c| c.size_bytes()).sum()
    }

    /// Whole-table compression ratio versus plain 4-byte storage.
    pub fn compression_ratio(&self) -> f64 {
        (9 * 4 * self.rows) as f64 / self.size_bytes().max(1) as f64
    }
}

/// The dictionary a string-valued dimension attribute is encoded through
/// (`None` for numeric attributes such as `d_year`).
pub fn dict_of(dicts: &SsbDicts, attr: DimAttr) -> Option<&Dictionary> {
    match attr {
        DimAttr::Region => Some(&dicts.region),
        DimAttr::Nation => Some(&dicts.nation),
        DimAttr::City => Some(&dicts.city),
        DimAttr::Mfgr => Some(&dicts.mfgr),
        DimAttr::Category => Some(&dicts.category),
        DimAttr::Brand1 => Some(&dicts.brand),
        DimAttr::Year | DimAttr::YearMonthNum | DimAttr::WeekNumInYear => None,
    }
}

/// Rewrites `attr = 'literal'` into an equality over the attribute's
/// dictionary code. `None` when the attribute is numeric or the literal
/// is absent from the dictionary.
pub fn rewrite_eq(dicts: &SsbDicts, attr: DimAttr, literal: &str) -> Option<DimPred> {
    Some(DimPred::Eq(attr, dict_of(dicts, attr)?.code(literal)?))
}

/// Rewrites `attr BETWEEN 'lo' AND 'hi'` into a code-range check.
///
/// Sound because the SSB dictionaries assign codes in hierarchy order
/// (brands of one category are consecutive, cities of one nation are
/// consecutive), so a contiguous literal range is a contiguous code
/// range — the packed-domain range check the fused kernels execute.
pub fn rewrite_between(dicts: &SsbDicts, attr: DimAttr, lo: &str, hi: &str) -> Option<DimPred> {
    let d = dict_of(dicts, attr)?;
    let (a, b) = (d.code(lo)?, d.code(hi)?);
    Some(DimPred::Between(attr, a.min(b), a.max(b)))
}

/// Rewrites `attr IN ('a', 'b', ...)` into a code set. `None` if any
/// literal is absent (a filter that can never match should be visible at
/// plan time, not silently dropped).
pub fn rewrite_in(dicts: &SsbDicts, attr: DimAttr, literals: &[&str]) -> Option<DimPred> {
    let d = dict_of(dicts, attr)?;
    let codes: Option<Vec<i32>> = literals.iter().map(|l| d.code(l)).collect();
    Some(DimPred::In(attr, codes?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystal_storage::encoding::ColumnRead;

    fn data() -> SsbData {
        SsbData::generate_scaled(1, 0.0005, 3)
    }

    #[test]
    fn packed_min_roundtrips_every_fact_column() {
        let d = data();
        let enc = FactEncodings::packed_min(&d);
        assert!(enc.any_packed());
        let fact = EncodedFact::encode(&d, &enc);
        assert_eq!(fact.rows(), d.lineorder.rows());
        assert_eq!(fact.encodings(), enc);
        for c in FactCol::ALL {
            let plain = c.data(&d);
            let slice = fact.col(c);
            assert_eq!(slice.row_count(), plain.len());
            for (i, &v) in plain.iter().enumerate().step_by(97) {
                assert_eq!(slice.value(i), v, "{c:?} row {i}");
            }
        }
        // Keys and measures are far below 32 bits: the table shrinks.
        assert!(
            fact.compression_ratio() > 1.3,
            "{}",
            fact.compression_ratio()
        );
        assert!(fact.size_bytes() < 9 * 4 * fact.rows());
    }

    #[test]
    fn plain_encodings_are_a_no_op() {
        let d = data();
        let fact = EncodedFact::encode(&d, &FactEncodings::plain());
        assert_eq!(fact.size_bytes(), 9 * 4 * fact.rows());
        assert!((fact.compression_ratio() - 1.0).abs() < 1e-12);
        assert!(!fact.encodings().any_packed());
    }

    #[test]
    fn random_encodings_are_deterministic_and_valid() {
        let d = data();
        for seed in 0..40u64 {
            let a = random_encodings(&d, seed);
            assert_eq!(a, random_encodings(&d, seed), "seed {seed}");
            // Every drawn width must hold the column's values.
            let fact = EncodedFact::encode(&d, &a); // panics on a misfit
            assert_eq!(fact.rows(), d.lineorder.rows());
        }
        // The space is genuinely mixed: packed columns appear in nearly
        // every draw (all-plain needs nine 1-in-3 draws), and plain
        // columns appear across the sweep too.
        let packed_draws = (0..40)
            .filter(|&s| random_encodings(&d, s).any_packed())
            .count();
        assert!(packed_draws >= 35, "{packed_draws}");
        let plain_cols = (0..40u64)
            .flat_map(|s| {
                let e = random_encodings(&d, s);
                FactCol::ALL.map(move |c| e.get(c))
            })
            .filter(|e| !e.is_packed())
            .count();
        assert!(plain_cols > 0);
    }

    #[test]
    fn transfer_bytes_follow_the_descriptor() {
        let d = data();
        let rows = d.lineorder.rows();
        let mut enc = FactEncodings::plain();
        enc.set(FactCol::Discount, Encoding::BitPacked { bits: 4 });
        let cols = [FactCol::Discount, FactCol::Quantity];
        let bytes = enc.columns_bytes(rows, &cols);
        assert_eq!(
            bytes,
            (rows * 4).div_ceil(64) * 8 + rows * 4,
            "packed discount + plain quantity"
        );
        assert_eq!(enc.packed_values(rows, &cols), rows);
        assert_eq!(enc.packed_values(rows, &[FactCol::Quantity]), 0);
    }

    #[test]
    fn dictionary_rewrite_produces_code_predicates() {
        let d = data();
        let p = rewrite_eq(&d.dicts, DimAttr::Category, "MFGR#12").unwrap();
        assert!(matches!(p, DimPred::Eq(DimAttr::Category, 1)));
        // Hierarchy-ordered brand codes: a literal range is a code range.
        let p = rewrite_between(&d.dicts, DimAttr::Brand1, "MFGR#2221", "MFGR#2228").unwrap();
        match p {
            DimPred::Between(DimAttr::Brand1, lo, hi) => {
                assert_eq!(hi - lo, 7);
                assert_eq!(d.dicts.brand.decode(lo), Some("MFGR#2221"));
            }
            other => panic!("{other:?}"),
        }
        let p = rewrite_in(&d.dicts, DimAttr::City, &["UNITED KI1", "UNITED KI5"]).unwrap();
        assert!(matches!(p, DimPred::In(DimAttr::City, ref v) if v.len() == 2));
        // Absent literals and numeric attributes are visible failures.
        assert!(rewrite_eq(&d.dicts, DimAttr::Region, "ATLANTIS").is_none());
        assert!(rewrite_eq(&d.dicts, DimAttr::Year, "1997").is_none());
        assert!(rewrite_in(&d.dicts, DimAttr::City, &["UNITED KI1", "NOWHERE"]).is_none());
    }

    /// A dictionary holding a single key still rewrites and probes
    /// correctly (the degenerate edge of the code domain).
    #[test]
    fn single_key_dictionary() {
        let mut dict = Dictionary::new();
        let col = dict.encode_all(["only", "only", "only"]);
        assert_eq!(dict.len(), 1);
        assert_eq!(col, vec![0, 0, 0]);
        assert_eq!(dict.code("only"), Some(0));
        assert_eq!(dict.code("other"), None);
        // Packing the single-code column at min width (1 bit) roundtrips.
        let packed = PackedColumn::pack(&col, PackedColumn::min_bits(&col)).unwrap();
        assert_eq!(packed.bits(), 1);
        assert_eq!(packed.unpack(), col);
    }
}
