//! Range partitioning of the fact table, with per-shard zone maps and
//! predicate pruning — the storage layer of the beyond-memory regime.
//!
//! [`PartitionedFact`] splits `lineorder` on `lo_orderdate` into
//! equal-width value ranges. Each `FactShard` materializes its rows in
//! original table order, encodes them independently as an
//! [`EncodedFact`] (so packed execution and per-shard device upload need
//! no new kernel paths), and records a `ZoneMap` — the min/max of every
//! stored column over the shard's rows.
//!
//! The split is the radix partition of the paper's Section 4.4 with the
//! date range as the digit ([`Buckets`]): one pass over the key writes a
//! bucket id per row and the histogram, the prefix sum gives every shard's
//! run, and a stable scatter moves the columns — three per pass, through
//! one scratch — so that each shard's rows are a contiguous slice to take
//! a min/max over and to encode from.
//!
//! Pruning intersects a [`StarQuery`]'s fact-range predicates with the
//! zone maps *before any scan*: a shard whose zone interval misses any
//! predicate range can contain no qualifying row and is skipped entirely.
//! Because zone maps are built over **stored** values, this covers the
//! Section-5.2 dictionary-rewritten predicates too — a rewritten string
//! filter is a range over dictionary codes, and codes are exactly what
//! the shard stores.
//!
//! Pruning is invisible in everything but the rows scanned: a pruned
//! shard has zero predicate survivors by construction, so per-shard
//! execution merged by commutative aggregate addition reproduces the
//! unsharded result *and* trace byte-for-byte ([`crate::exec::execute`]
//! over [`crate::FactTable::sharded`]), while
//! [`crate::FactTable::live_rows`] exposes the scan saving the sharded
//! experiment pins.

use std::ops::Range;

use crystal_storage::encoding::EncodedColumn;

use crate::data::SsbData;
use crate::encoding::{EncodedFact, FactEncodings};
use crate::plan::{FactCol, StarQuery};

/// Per-column min/max of one shard's stored values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ZoneMap {
    min: [i32; 9],
    max: [i32; 9],
}

impl ZoneMap {
    /// Whether the inclusive range `lo..=hi` on `col` can match any row
    /// of the shard. Inclusive on both ends, so a predicate bound that
    /// lands exactly on a shard-boundary value keeps the shard live.
    pub(crate) fn overlaps(&self, col: FactCol, lo: i32, hi: i32) -> bool {
        hi >= self.min[col.index()] && lo <= self.max[col.index()]
    }

    /// Whether pruning eliminates the shard for `q`: some fact predicate's
    /// range misses the stored-value interval, so no row can qualify.
    pub(crate) fn prunes(&self, q: &StarQuery) -> bool {
        q.fact_preds
            .iter()
            .any(|p| !self.overlaps(p.col, p.lo, p.hi))
    }
}

/// Smallest and largest value of a column (`(0, 0)` for an empty one).
fn min_max(col: &[i32]) -> (i32, i32) {
    let first = col.first().copied().unwrap_or(0);
    col.iter()
        .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// The most buckets a table can be split into: a row's bucket is a `u16`.
pub(crate) const MAX_BUCKETS: usize = 1 << 16;

/// Refuses, before anything is allocated, a bucket count whose ids would
/// not fit the `u16` per row.
fn check_buckets(buckets: usize) {
    assert!(
        buckets <= MAX_BUCKETS,
        "{buckets} buckets do not fit the partition's u16 bucket ids (at most {MAX_BUCKETS})"
    );
}

/// The rows of a table assigned to equal-width value buckets of a key
/// column: each row's bucket, and where each bucket's rows land once
/// scattered (the histogram's prefix sum).
#[derive(Debug, Clone)]
pub struct Buckets {
    ids: Vec<u16>,
    /// Bucket `b`'s rows land in `starts[b]..starts[b + 1]`.
    starts: Vec<usize>,
}

impl Buckets {
    /// Assigns every row of `keys` to one of `count` (at least one, at most
    /// `MAX_BUCKETS`) equal-width buckets of the keys' value range.
    pub fn of(keys: &[i32], count: usize) -> Self {
        check_buckets(count);
        let k = count.max(1) as u64;
        let (lo, hi) = min_max(keys);
        let width = (hi as i64 - lo as i64 + 1) as u64;
        let mut starts = vec![0; k as usize + 1];
        let ids = keys.iter().map(|&v| {
            let bucket = (v as i64 - lo as i64) as u64 * k / width;
            starts[bucket as usize + 1] += 1;
            bucket as u16
        });
        let ids = ids.collect();
        for b in 0..k as usize {
            starts[b + 1] += starts[b];
        }
        Buckets { ids, starts }
    }

    /// How many buckets there are (empty ones included).
    pub(crate) fn count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Where bucket `b`'s rows land in a scattered column.
    pub(crate) fn rows(&self, b: usize) -> Range<usize> {
        self.starts[b]..self.starts[b + 1]
    }

    /// Scatters three columns at once into bucket order, rows keeping
    /// table order within a bucket: `dst[c][self.rows(b)]` are bucket
    /// `b`'s values of `src[c]`. Three, because what bounds a scatter is
    /// the cursor's load-add-store chain from one row to the next row of
    /// the same bucket, not bandwidth: one pass over the cursors serving
    /// three values costs about as much as one serving one.
    pub fn scatter3(&self, src: [&[i32]; 3], dst: [&mut [i32]; 3]) {
        let n = self.ids.len();
        assert!(
            src.iter().all(|col| col.len() == n) && dst.iter().all(|col| col.len() == n),
            "every column holds one value per row"
        );
        let ([s0, s1, s2], [d0, d1, d2]) = (src, dst);
        let mut cursor = self.starts.clone();
        for (row, &id) in self.ids.iter().enumerate() {
            let at = cursor[id as usize];
            cursor[id as usize] = at + 1;
            (d0[at], d1[at], d2[at]) = (s0[row], s1[row], s2[row]);
        }
    }
}

/// One range partition of the fact table: its rows (original order),
/// independently encoded, plus the zone map pruning consults.
#[derive(Debug, Clone)]
pub(crate) struct FactShard {
    encoded: EncodedFact,
    zone: ZoneMap,
}

impl FactShard {
    /// The shard's independently encoded fact table.
    pub(crate) fn encoded(&self) -> &EncodedFact {
        &self.encoded
    }

    /// The shard's per-column min/max over stored values.
    pub(crate) fn zone(&self) -> &ZoneMap {
        &self.zone
    }
}

/// The fact table as a first-class sharded object: equal-width range
/// partitions on `lo_orderdate`, each independently encoded with a zone
/// map (`FactShard`).
#[derive(Debug, Clone)]
pub struct PartitionedFact {
    shards: Vec<FactShard>,
    total_rows: usize,
}

impl PartitionedFact {
    /// Range-partitions `d`'s fact table into (at most) `shards`
    /// equal-width `lo_orderdate` value buckets, encoding each shard
    /// under `enc`. Rows keep their original table order within a shard.
    /// Buckets that receive no rows (the `yyyymmdd` integer domain has
    /// gaps) are dropped, so the shard count can come out below the
    /// request; `shards = 1` degenerates to one whole-table shard.
    pub fn partition(d: &SsbData, shards: usize, enc: &FactEncodings) -> Self {
        let total_rows = d.lineorder.rows();
        let buckets = Buckets::of(&d.lineorder.orderdate, shards);
        // Per non-empty bucket: its columns as they get encoded, its zones.
        let mut shards: Vec<(usize, Vec<EncodedColumn>, ZoneMap)> = (0..buckets.count())
            .filter(|&b| !buckets.rows(b).is_empty())
            .map(|b| {
                (
                    b,
                    Vec::with_capacity(9),
                    ZoneMap {
                        min: [0; 9],
                        max: [0; 9],
                    },
                )
            })
            .collect();
        let mut scratch: [Vec<i32>; 3] = std::array::from_fn(|_| vec![0; total_rows]);
        let (groups, _) = FactCol::ALL.as_chunks::<3>();
        for group in groups {
            let scattered = scratch.each_mut().map(Vec::as_mut_slice);
            buckets.scatter3(group.map(|c| c.data(d)), scattered);
            for (c, scattered) in group.iter().zip(&scratch) {
                for (b, cols, zone) in &mut shards {
                    let run = &scattered[buckets.rows(*b)];
                    (zone.min[c.index()], zone.max[c.index()]) = min_max(run);
                    cols.push(EncodedColumn::encode(run, enc.get(*c)));
                }
            }
        }
        let shards = shards.into_iter().map(|(_, cols, zone)| FactShard {
            encoded: EncodedFact::from_columns(cols),
            zone,
        });
        PartitionedFact {
            shards: shards.collect(),
            total_rows,
        }
    }

    /// Number of (non-empty) shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total fact rows across all shards (the unsharded row count).
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// All shards, in `lo_orderdate` range order.
    pub(crate) fn shards(&self) -> &[FactShard] {
        &self.shards
    }

    /// Physical bytes across all shards and columns.
    pub fn size_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.encoded.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::LineOrder;
    use crate::encoding::random_encodings;
    use crate::plan::FactPred;
    use crate::queries::{all_queries, query, QueryId};
    use crate::table::FactTable;

    fn data() -> SsbData {
        SsbData::generate_scaled(1, 0.004, 13)
    }

    /// The partition as it was before the scatter, kept as its oracle: a
    /// `Vec` of row ids per bucket, nine gathered copies per shard, the
    /// zone map folded value by value over the copies.
    fn partition_by_row_ids(d: &SsbData, shards: usize, enc: &FactEncodings) -> PartitionedFact {
        let k = shards.max(1);
        let dates = &d.lineorder.orderdate;
        let lo = dates.iter().copied().min().unwrap_or(0);
        let hi = dates.iter().copied().max().unwrap_or(0);
        let width = (hi as i64 - lo as i64 + 1).max(1) as u64;
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (row, &v) in dates.iter().enumerate() {
            buckets[((v as i64 - lo as i64) as u64 * k as u64 / width) as usize].push(row);
        }
        let shards = buckets
            .into_iter()
            .filter(|rows| !rows.is_empty())
            .map(|rows| {
                let cols =
                    FactCol::ALL.map(|c| rows.iter().map(|&r| c.data(d)[r]).collect::<Vec<_>>());
                let mut zone = ZoneMap {
                    min: [i32::MAX; 9],
                    max: [i32::MIN; 9],
                };
                for (i, col) in cols.iter().enumerate() {
                    for &v in col {
                        zone.min[i] = zone.min[i].min(v);
                        zone.max[i] = zone.max[i].max(v);
                    }
                }
                let encode = |c: &FactCol| EncodedColumn::encode(&cols[c.index()], enc.get(*c));
                FactShard {
                    encoded: EncodedFact::from_columns(FactCol::ALL.iter().map(encode).collect()),
                    zone,
                }
            });
        PartitionedFact {
            shards: shards.collect(),
            total_rows: dates.len(),
        }
    }

    /// Shard count, rows, all 9 x 2 zone values and every
    /// stored column equal the replaced algorithm's — for one bucket,
    /// few, many, and more buckets than there are distinct dates; plain,
    /// minimally packed and randomly mixed encodings; generated data and
    /// the edge tables (one row; one date; dates at both ends only, so
    /// every middle bucket is empty and dropped).
    #[test]
    fn partition_matches_the_algorithm_it_replaced() {
        let generated = SsbData::generate_scaled(1, 0.002, 13);
        let edit = |f: &dyn Fn(&mut LineOrder)| {
            let mut d = generated.clone();
            f(&mut d.lineorder);
            d
        };
        let (first, last) = (
            generated.date.datekey[0],
            *generated.date.datekey.last().unwrap(),
        );
        let one_row = SsbData::generate_scaled(1, 1.0 / 6e6, 13);
        assert_eq!(one_row.lineorder.rows(), 1);
        let one_date = edit(&|lo| lo.orderdate.fill(19950617));
        let both_ends = edit(&|lo| {
            let ends = [first, last, last];
            (lo.orderdate.iter_mut().zip(ends.iter().cycle())).for_each(|(v, &end)| *v = end);
        });
        for (table, d) in [
            ("generated", &generated),
            ("one row", &one_row),
            ("one date", &one_date),
            ("both ends", &both_ends),
        ] {
            let mut encodings = vec![FactEncodings::plain(), FactEncodings::packed_min(d)];
            encodings.extend((1..=3).map(|seed| random_encodings(d, seed)));
            for (k, enc) in [0, 1, 2, 7, 8, 64, 3000]
                .into_iter()
                .flat_map(|k| encodings.iter().map(move |enc| (k, enc)))
            {
                let case = format!("{table}, k = {k}, {enc:?}");
                let (got, want) = (
                    PartitionedFact::partition(d, k, enc),
                    partition_by_row_ids(d, k, enc),
                );
                assert_eq!(got.shard_count(), want.shard_count(), "{case}");
                assert_eq!(got.total_rows(), want.total_rows(), "{case}");
                for (g, w) in got.shards().iter().zip(want.shards()) {
                    assert_eq!(g.encoded.rows(), w.encoded.rows(), "{case}");
                    assert_eq!((g.zone.min, g.zone.max), (w.zone.min, w.zone.max), "{case}");
                    for c in FactCol::ALL {
                        assert_eq!(g.encoded.encoded(c), w.encoded.encoded(c), "{case} {c:?}");
                    }
                }
            }
        }
        // The edge tables are the shapes they claim to be.
        let shard_counts = |d| {
            [1, 8, 3000]
                .map(|k| PartitionedFact::partition(d, k, &FactEncodings::plain()).shard_count())
        };
        assert_eq!(shard_counts(&one_row), [1, 1, 1]);
        assert_eq!(shard_counts(&one_date), [1, 1, 1]);
        assert_eq!(shard_counts(&both_ends), [1, 2, 2]);
        assert!(shard_counts(&generated)[2] > 64);
    }

    /// A row's bucket is a `u16`: more buckets than that are refused up
    /// front with a message naming the limit — checked on the count alone.
    /// No buckets asked for is one.
    #[test]
    fn too_many_buckets_are_refused_with_the_limit_named() {
        check_buckets(0);
        check_buckets(MAX_BUCKETS);
        let refused = std::panic::catch_unwind(|| check_buckets(MAX_BUCKETS + 1));
        let message = *refused.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("65537 buckets"), "{message}");
        assert!(message.contains("at most 65536"), "{message}");
        // As many buckets as values in the range: the largest id is used.
        let all = Buckets::of(&[0, u16::MAX as i32, 7], MAX_BUCKETS);
        assert_eq!(all.count(), MAX_BUCKETS);
        assert_eq!((all.rows(7), all.rows(MAX_BUCKETS - 1)), (1..2, 2..3));
        assert_eq!(Buckets::of(&[5, 9, 7], 0).count(), 1);
        let pf = PartitionedFact::partition(&data(), 0, &FactEncodings::plain());
        assert_eq!(pf.shard_count(), 1);
    }

    #[test]
    fn partitioning_preserves_rows_and_order() {
        let d = data();
        let pf = PartitionedFact::partition(&d, 8, &FactEncodings::plain());
        assert_eq!(pf.total_rows(), d.lineorder.rows());
        assert_eq!(
            pf.shards().iter().map(|s| s.encoded.rows()).sum::<usize>(),
            d.lineorder.rows()
        );
        assert!(pf.shard_count() >= 2 && pf.shard_count() <= 8);
        // Shards cover disjoint, ordered date ranges.
        let date = FactCol::OrderDate.index();
        for w in pf.shards().windows(2) {
            assert!(w[0].zone.max[date] < w[1].zone.min[date]);
        }
    }

    #[test]
    fn zone_maps_bound_every_column() {
        let d = data();
        let pf = PartitionedFact::partition(&d, 4, &FactEncodings::packed_min(&d));
        for s in pf.shards() {
            for c in FactCol::ALL {
                let col = s.encoded().col(c);
                use crystal_storage::encoding::ColumnRead;
                for i in (0..s.encoded.rows()).step_by(53) {
                    let v = col.value(i);
                    let (min, max) = (s.zone.min[c.index()], s.zone.max[c.index()]);
                    assert!(v >= min && v <= max, "{c:?}");
                }
            }
        }
    }

    /// q1.1's one-year date filter prunes most of an 8-way partition:
    /// the live scan is a strict subset, and every live shard genuinely
    /// overlaps the predicate.
    #[test]
    fn date_filter_prunes_shards() {
        let d = data();
        let pf = PartitionedFact::partition(&d, 8, &FactEncodings::plain());
        let table = FactTable::sharded(&d, &pf);
        let q = query(&d, QueryId::new(1, 1));
        let live = table.live(&q);
        assert!(!live.is_empty());
        assert!(
            live.len() < pf.shard_count(),
            "a 1-of-7-years filter must prune something from {} shards",
            pf.shard_count()
        );
        assert!(table.live_rows(&q) < pf.total_rows());
        let date_pred = q
            .fact_preds
            .iter()
            .find(|p| p.col == FactCol::OrderDate)
            .unwrap();
        for &i in &live {
            assert!(pf.shards()[i]
                .zone()
                .overlaps(FactCol::OrderDate, date_pred.lo, date_pred.hi));
        }
    }

    /// An unfilterable query keeps every shard; a contradiction prunes
    /// them all; a bound exactly on a shard's zone min stays live.
    #[test]
    fn pruning_edges() {
        let d = data();
        let pf = PartitionedFact::partition(&d, 6, &FactEncodings::plain());
        let table = FactTable::sharded(&d, &pf);
        let mut q = query(&d, QueryId::new(2, 1)); // no fact predicates
        assert_eq!(table.live(&q).len(), pf.shard_count());
        assert_eq!(table.live_rows(&q), pf.total_rows());

        // Predicate exactly on a shard boundary: lo == hi == zone max of
        // shard 0 must keep shard 0 (inclusive ranges).
        let edge = pf.shards()[0].zone.max[FactCol::OrderDate.index()];
        q.fact_preds = vec![FactPred::between(FactCol::OrderDate, edge, edge)];
        let live = table.live(&q);
        assert!(live.contains(&0), "inclusive boundary must keep shard 0");

        // A range no shard can satisfy prunes everything.
        q.fact_preds = vec![FactPred::between(FactCol::OrderDate, 30000101, 30001231)];
        assert!(table.live(&q).is_empty());
        assert_eq!(table.live_rows(&q), 0);
    }

    /// One shard degenerates to the unsharded table: nothing prunes.
    #[test]
    fn single_shard_degenerates() {
        let d = data();
        let pf = PartitionedFact::partition(&d, 1, &FactEncodings::plain());
        assert_eq!(pf.shard_count(), 1);
        assert_eq!(pf.shards()[0].encoded.rows(), d.lineorder.rows());
        for q in all_queries(&d) {
            assert_eq!(FactTable::sharded(&d, &pf).live(&q), vec![0], "{}", q.name);
        }
    }
}
