//! The fact table as every engine sees it: a list of segments.
//!
//! [`FactTable`] is the one place that knows the physical shape of the fact
//! table. Plain [`SsbData`] columns and one [`EncodedFact`] are a table of
//! one [`FactSegment`]; a [`PartitionedFact`] is one segment per shard. The
//! host executor, the device job, the placement model and the server ask
//! each segment for its rows, columns, cache keys, zone map and cost, and
//! none of them matches on the shape. Everything is borrowed; no column is
//! copied.
//!
//! One bit of shape stays visible, [`FactTable::is_sharded`]: a shard is
//! cached under its own keys, and a sharded placement carries no
//! per-segment launch term and is calibrated under shard-granular history.
//! A one-shard table is still sharded; it scans the rows and uploads the
//! bytes of the plain table.

use crystal_models::ssb::ScanCost;
use crystal_runtime::{ColumnKey, HostCol};
use crystal_storage::encoding::{ColumnSlice, EncodedColumn, Encoding};

use crate::data::SsbData;
use crate::encoding::{EncodedFact, FactEncodings};
use crate::partition::{FactShard, PartitionedFact, ZoneMap};
use crate::plan::{FactCol, StarQuery};

/// Cold, uncalibrated cost inputs of scanning `cols` over `rows` rows stored
/// under `enc`: what one segment costs.
pub(crate) fn scan_cost(rows: usize, enc: &FactEncodings, cols: &[FactCol]) -> ScanCost {
    ScanCost {
        packed_bytes: enc.columns_bytes(rows, cols),
        packed_values: enc.packed_values(rows, cols),
        ..ScanCost::default()
    }
}

/// One contiguous run of fact rows: the whole table (plain, or under one
/// encoding) or one shard of a partitioned table.
#[derive(Clone, Copy)]
pub struct FactSegment<'a> {
    d: &'a SsbData,
    /// The stored columns; `None` reads the dataset's plain ones.
    fact: Option<&'a EncodedFact>,
    /// Index and zone map of the shard this segment is, if it is one.
    shard: Option<(usize, &'a ZoneMap)>,
}

impl<'a> FactSegment<'a> {
    /// Rows in the segment.
    pub fn rows(&self) -> usize {
        self.fact.map_or(self.d.lineorder.rows(), EncodedFact::rows)
    }

    /// A kernel-ready view of one column. An encoded segment resolves every
    /// column from its encoded table, never from the dataset, so the two
    /// cannot silently disagree about a plain column's data.
    pub(crate) fn col(&self, col: FactCol) -> ColumnSlice<'a> {
        match self.fact {
            None => ColumnSlice::Plain(col.data(self.d)),
            Some(fact) => fact.col(col),
        }
    }

    /// The host copy of one column as the device session uploads it.
    pub(crate) fn host_col(&self, col: FactCol) -> HostCol<'a> {
        match self.fact.map(|f| f.encoded(col)) {
            None => HostCol::Plain(col.data(self.d)),
            Some(EncodedColumn::Plain(v)) => HostCol::Plain(v),
            Some(EncodedColumn::Packed(p)) => HostCol::Packed(p),
        }
    }

    /// The encodings the segment is stored under.
    pub(crate) fn encodings(&self) -> FactEncodings {
        self.fact
            .map_or_else(FactEncodings::plain, EncodedFact::encodings)
    }

    /// The session cache key of one column. It carries the dataset's
    /// content fingerprint, so tenants replaying different datasets through
    /// one session cannot alias. A shard packs its index into `col` above
    /// the 4 bits the nine column indices occupy (from `col = 16` on, never
    /// an unsharded key), which makes each shard a residency unit of its
    /// own for the session's eviction policy to arbitrate.
    pub fn key(&self, col: FactCol) -> ColumnKey {
        let shard = self.shard.map_or(0, |(s, _)| (s as u32 + 1) << 4);
        let stored = self.fact.map(|f| f.encoded(col).encoding());
        ColumnKey {
            dataset: self.d.fingerprint(),
            col: shard | col.index() as u32,
            encoding: stored.unwrap_or(Encoding::Plain),
        }
    }

    /// The min/max of a shard's stored values (`None` for a whole table,
    /// which is never pruned).
    pub(crate) fn zone(&self) -> Option<&'a ZoneMap> {
        self.shard.map(|(_, zone)| zone)
    }

    /// `scan_cost` of `cols` over this segment.
    pub fn cost(&self, cols: &[FactCol]) -> ScanCost {
        scan_cost(self.rows(), &self.encodings(), cols)
    }
}

/// The fact table of one dataset as a list of [`FactSegment`]s.
#[derive(Clone)]
pub struct FactTable<'a> {
    d: &'a SsbData,
    segments: Vec<FactSegment<'a>>,
    sharded: bool,
}

/// Refuses storage that was not made from `d`: it would answer with
/// another table's rows under `d`'s row count (or, encoded at another
/// scale, read zero padding in release builds instead of panicking).
fn check_rows(d: &SsbData, stored_rows: usize, how: &str) {
    let rows = d.lineorder.rows();
    assert_eq!(
        stored_rows, rows,
        "the {how} fact table holds {stored_rows} rows, the dataset {rows}: \
         {how} from another dataset"
    );
}

impl<'a> FactTable<'a> {
    /// The dataset's own plain 4-byte columns: one segment.
    pub fn plain(d: &'a SsbData) -> Self {
        let whole = FactSegment {
            d,
            fact: None,
            shard: None,
        };
        FactTable {
            d,
            segments: vec![whole],
            sharded: false,
        }
    }

    /// `d`'s fact table as `fact` stores it: one segment.
    pub fn encoded(d: &'a SsbData, fact: &'a EncodedFact) -> Self {
        check_rows(d, fact.rows(), "encoded");
        let mut table = Self::plain(d);
        table.segments[0].fact = Some(fact);
        table
    }

    /// `d`'s fact table as `pf` partitioned it: one segment per shard.
    pub fn sharded(d: &'a SsbData, pf: &'a PartitionedFact) -> Self {
        check_rows(d, pf.total_rows(), "partitioned");
        let shard = |(s, shard): (usize, &'a FactShard)| FactSegment {
            d,
            fact: Some(shard.encoded()),
            shard: Some((s, shard.zone())),
        };
        FactTable {
            d,
            segments: pf.shards().iter().enumerate().map(shard).collect(),
            sharded: true,
        }
    }

    /// The dataset the table belongs to (dimensions, fingerprint, scale).
    pub fn data(&self) -> &'a SsbData {
        self.d
    }

    /// Every segment, in table order.
    pub fn segments(&self) -> &[FactSegment<'a>] {
        &self.segments
    }

    /// Whether the segments are shards of a partitioned table.
    pub fn is_sharded(&self) -> bool {
        self.sharded
    }

    /// The segments `q` must scan, as indices into [`FactTable::segments`]:
    /// what zone-map pruning cannot eliminate. A pruned segment holds no row
    /// passing `q`'s fact predicates, so skipping it changes neither result
    /// nor trace — only the rows scanned.
    pub fn live(&self, q: &StarQuery) -> Vec<usize> {
        let pruned = |seg: &FactSegment<'_>| seg.zone().is_some_and(|zone| zone.prunes(q));
        (0..self.segments.len())
            .filter(|&i| !pruned(&self.segments[i]))
            .collect()
    }

    /// Fact rows `q` scans after pruning.
    pub fn live_rows(&self, q: &StarQuery) -> usize {
        self.live(q).iter().map(|&i| self.segments[i].rows()).sum()
    }
}

#[cfg(test)]
impl FactTable<'_> {
    /// The table restricted to the segments `ids` index — how a test warms
    /// or runs some shards alone. Shards keep their cache keys.
    pub(crate) fn subset(&self, ids: &[usize]) -> Self {
        FactTable {
            d: self.d,
            segments: ids.iter().map(|&i| self.segments[i]).collect(),
            sharded: self.sharded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{query, QueryId};

    fn message(refused: Box<dyn std::any::Any + Send>) -> String {
        *refused.downcast::<String>().expect("a formatted panic")
    }

    /// An encoded table and a partition are checked against the dataset
    /// once, where the table is built, and the refusal names both counts.
    #[test]
    fn foreign_storage_is_refused_with_both_row_counts() {
        let d = SsbData::generate_scaled(1, 0.001, 3);
        let other = SsbData::generate_scaled(1, 0.002, 3);
        let plain = FactEncodings::plain();
        let (rows, foreign) = (d.lineorder.rows(), other.lineorder.rows());

        let fact = EncodedFact::encode(&other, &plain);
        let refused = std::panic::catch_unwind(|| FactTable::encoded(&d, &fact).is_sharded());
        let text = message(refused.unwrap_err());
        assert!(text.contains("encoded from another dataset"), "{text}");
        assert!(text.contains(&format!("holds {foreign} rows")), "{text}");
        assert!(text.contains(&format!("the dataset {rows}")), "{text}");

        let pf = PartitionedFact::partition(&other, 4, &plain);
        let refused = std::panic::catch_unwind(|| FactTable::sharded(&d, &pf).is_sharded());
        let text = message(refused.unwrap_err());
        assert!(text.contains("partitioned from another dataset"), "{text}");
        assert!(text.contains(&format!("holds {foreign} rows")), "{text}");
        assert!(text.contains(&format!("the dataset {rows}")), "{text}");
    }

    /// Shapes differ in keys and pruning, never in rows or bytes: a plain
    /// table and the all-plain encoded one share keys; a shard's keys alias
    /// neither; only a sharded table prunes.
    #[test]
    fn segments_answer_for_their_shape() {
        let d = SsbData::generate_scaled(1, 0.002, 5);
        let fact = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
        let pf = PartitionedFact::partition(&d, 8, &FactEncodings::plain());
        let (plain, packed, sharded) = (
            FactTable::plain(&d),
            FactTable::encoded(&d, &fact),
            FactTable::sharded(&d, &pf),
        );
        let q = query(&d, QueryId::new(1, 1));
        let cols = q.fact_columns();
        assert!(!plain.is_sharded() && !packed.is_sharded() && sharded.is_sharded());
        assert_eq!(plain.live(&q), vec![0]);
        assert_eq!(plain.live_rows(&q), d.lineorder.rows());
        assert!(sharded.live_rows(&q) < d.lineorder.rows());

        let whole = plain.segments()[0];
        assert_eq!(
            whole.cost(&cols).packed_bytes,
            4 * cols.len() * whole.rows()
        );
        assert_eq!(whole.cost(&cols).packed_values, 0);
        let stored = packed.segments()[0];
        assert_eq!(stored.cost(&cols).packed_values, cols.len() * stored.rows());
        assert!(stored.cost(&cols).packed_bytes < whole.cost(&cols).packed_bytes);
        let total: usize = sharded.segments().iter().map(FactSegment::rows).sum();
        assert_eq!(total, d.lineorder.rows());

        for &c in &cols {
            assert_eq!(whole.key(c).col, c.index() as u32);
            assert_ne!(whole.key(c), stored.key(c), "encodings key apart");
            for (s, seg) in sharded.segments().iter().enumerate() {
                assert_eq!(seg.key(c).col, ((s as u32 + 1) << 4) | c.index() as u32);
                assert_eq!(seg.host_col(c).size_bytes(), 4 * seg.rows());
            }
            assert_eq!(
                stored.host_col(c).size_bytes(),
                stored.cost(&[c]).packed_bytes
            );
        }
        let part = sharded.subset(&[2, 5]);
        assert!(part.is_sharded());
        assert_eq!(
            part.segments()[1].key(cols[0]),
            sharded.segments()[5].key(cols[0])
        );
    }
}
