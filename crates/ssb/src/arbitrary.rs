//! Seeded random star-query generation over the SSB schema.
//!
//! The 13 fixed benchmark queries exercise a handful of plan shapes; a
//! randomized workload explores the whole descriptor space — every
//! predicate column, every join subset and order, every filter kind
//! (point / range / set), every group-by combination — which is what
//! surfaces engine bugs that fixed suites hide. [`random_star_query`] is
//! fully deterministic in its seed (the vendored `rand` is a fixed-stream
//! xoshiro), so any failing query reproduces from its seed alone.
//!
//! The generator only emits queries every engine can execute: dimension
//! filters and group attributes are drawn from the attributes that exist
//! on their table, join FKs are the canonical star-schema edges, and the
//! mixed-radix group domain is capped at `MAX_GROUP_DOMAIN` so the
//! device engines' group tables stay small beside the columns they cache.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::data::SsbData;
use crate::plan::{AggExpr, DimAttr, DimJoin, DimPred, DimTable, FactCol, FactPred, StarQuery};

/// Upper bound on the product of group-attribute domains. The largest
/// canned query (q4.3: city x brand x year) lands at 1.75M; generated
/// queries stay in the same ballpark. The host engines need no cap — their
/// accumulator allocates only the 512-slot blocks a group lands in, plus a
/// 4-byte directory entry per block of the domain — but the device engines
/// do: the fused kernel's group table and the per-operator engine's each
/// reserve 8 bytes of simulated device memory per slot (addresses only, no
/// host memory), and that scratch competes with the columns a session
/// caches, so a large table forces evictions or is refused on a small
/// device.
pub(crate) const MAX_GROUP_DOMAIN: usize = 2_000_000;

/// Attributes that exist on each dimension table (the schema edges the
/// generator may draw filters and group-bys from).
fn table_attrs(table: DimTable) -> &'static [DimAttr] {
    match table {
        DimTable::Date => &[DimAttr::Year, DimAttr::YearMonthNum, DimAttr::WeekNumInYear],
        DimTable::Part => &[DimAttr::Mfgr, DimAttr::Category, DimAttr::Brand1],
        DimTable::Supplier | DimTable::Customer => {
            &[DimAttr::Region, DimAttr::Nation, DimAttr::City]
        }
    }
}

/// The canonical fact-table FK of each dimension.
fn table_fk(table: DimTable) -> FactCol {
    match table {
        DimTable::Date => FactCol::OrderDate,
        DimTable::Part => FactCol::PartKey,
        DimTable::Supplier => FactCol::SuppKey,
        DimTable::Customer => FactCol::CustKey,
    }
}

/// A random inclusive range predicate on one of the filterable fact
/// columns, spanning narrow (point-like) to wide (barely selective).
fn random_fact_pred(rng: &mut SmallRng) -> FactPred {
    match rng.gen_range(0..4u32) {
        0 => {
            // Order-date window: whole years or a month-to-month span.
            let y0: i32 = rng.gen_range(1992..=1998);
            let y1 = rng.gen_range(y0..=1998);
            if rng.gen::<bool>() {
                FactPred::between(FactCol::OrderDate, y0 * 10_000 + 101, y1 * 10_000 + 1231)
            } else {
                let m0: i32 = rng.gen_range(1..=12);
                let m1: i32 = rng.gen_range(1..=12);
                FactPred::between(
                    FactCol::OrderDate,
                    y0 * 10_000 + m0.min(m1) * 100 + 1,
                    y1 * 10_000 + m0.max(m1) * 100 + 31,
                )
            }
        }
        1 => {
            let a: i32 = rng.gen_range(1..=50);
            let b = rng.gen_range(1..=50);
            FactPred::between(FactCol::Quantity, a.min(b), a.max(b))
        }
        2 => {
            let a: i32 = rng.gen_range(0..=10);
            let b = rng.gen_range(0..=10);
            FactPred::between(FactCol::Discount, a.min(b), a.max(b))
        }
        _ => {
            let a: i32 = rng.gen_range(90_000..1_000_000);
            let b = rng.gen_range(90_000..1_000_000);
            FactPred::between(FactCol::ExtendedPrice, a.min(b), a.max(b))
        }
    }
}

/// A random predicate over one attribute: point, range (dense-code
/// endpoints mapped back to attribute values — `value` is monotone
/// for every attribute), or a small `IN` set.
fn random_dim_pred(rng: &mut SmallRng, attr: DimAttr) -> DimPred {
    let domain = attr.domain();
    match rng.gen_range(0..3u32) {
        0 => DimPred::Eq(attr, attr.value(rng.gen_range(0..domain))),
        1 => {
            let a = rng.gen_range(0..domain);
            let b = rng.gen_range(0..domain);
            DimPred::Between(attr, attr.value(a.min(b)), attr.value(a.max(b)))
        }
        _ => {
            let k = rng.gen_range(1..=4usize);
            DimPred::In(
                attr,
                (0..k)
                    .map(|_| attr.value(rng.gen_range(0..domain)))
                    .collect(),
            )
        }
    }
}

/// Generates one random star query against the schema of `d`. The same
/// seed always yields the same query; the dataset only matters through its
/// schema (cardinalities do not influence the plan).
pub fn random_star_query(_d: &SsbData, seed: u64) -> StarQuery {
    let mut rng = SmallRng::seed_from_u64(seed);

    // Fact predicates: 0..=2, allowing duplicates on one column (their
    // conjunction may legitimately select nothing).
    let fact_preds: Vec<FactPred> = (0..rng.gen_range(0..=2usize))
        .map(|_| random_fact_pred(&mut rng))
        .collect();

    // Joins: a random subset of the four dimensions in random order.
    let mut tables = [
        DimTable::Date,
        DimTable::Part,
        DimTable::Supplier,
        DimTable::Customer,
    ];
    // Fisher-Yates with the vendored rng.
    for i in (1..tables.len()).rev() {
        tables.swap(i, rng.gen_range(0..=i));
    }
    let join_count = rng.gen_range(0..=tables.len());

    let mut group_domain = 1usize;
    let joins: Vec<DimJoin> = tables[..join_count]
        .iter()
        .map(|&table| {
            let attrs = table_attrs(table);
            let filter = if rng.gen_range(0..100) < 55 {
                let attr = attrs[rng.gen_range(0..attrs.len())];
                Some(random_dim_pred(&mut rng, attr))
            } else {
                None
            };
            let group_attr = if rng.gen_range(0..100) < 45 {
                let attr = attrs[rng.gen_range(0..attrs.len())];
                // Keep the device engines' group tables small.
                if group_domain.saturating_mul(attr.domain()) <= MAX_GROUP_DOMAIN {
                    group_domain *= attr.domain();
                    Some(attr)
                } else {
                    None
                }
            } else {
                None
            };
            DimJoin {
                table,
                fact_fk: table_fk(table),
                filter,
                group_attr,
            }
        })
        .collect();

    let agg = match rng.gen_range(0..3u32) {
        0 => AggExpr::SumDiscountedPrice,
        1 => AggExpr::SumRevenue,
        _ => AggExpr::SumProfit,
    };

    StarQuery {
        name: "qrand",
        fact_preds,
        joins,
        agg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> SsbData {
        SsbData::generate_scaled(1, 0.0005, 3)
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let d = data();
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = random_star_query(&d, seed);
            let b = random_star_query(&d, seed);
            assert_eq!(a.to_sql(), b.to_sql(), "seed {seed}");
        }
    }

    #[test]
    fn queries_are_schema_valid() {
        let d = data();
        for seed in 0..300u64 {
            let q = random_star_query(&d, seed);
            assert!(q.fact_preds.len() <= 2);
            assert!(q.joins.len() <= 4);
            assert!(q.group_domain() <= MAX_GROUP_DOMAIN, "seed {seed}");
            // Joins reference distinct tables with their canonical FK.
            let mut seen = Vec::new();
            for j in &q.joins {
                assert!(!seen.contains(&j.table), "seed {seed} repeats a table");
                seen.push(j.table);
                assert_eq!(j.fact_fk, table_fk(j.table));
                // Filter / group attributes belong to the table (data()
                // would panic otherwise; assert explicitly for a clear
                // message).
                if let Some(f) = &j.filter {
                    assert!(table_attrs(j.table).contains(&f.attr()), "seed {seed}");
                }
                if let Some(a) = j.group_attr {
                    assert!(table_attrs(j.table).contains(&a), "seed {seed}");
                }
            }
            for p in &q.fact_preds {
                assert!(p.lo <= p.hi, "seed {seed} inverted range");
            }
        }
    }

    /// The generator explores the plan space: across a few hundred seeds
    /// it emits join-free scans, full four-way stars, grouped and scalar
    /// aggregates, and every filter kind.
    #[test]
    fn generator_covers_the_descriptor_space() {
        let d = data();
        let queries: Vec<StarQuery> = (0..300).map(|seed| random_star_query(&d, seed)).collect();
        assert!(queries.iter().any(|q| q.joins.is_empty()));
        assert!(queries.iter().any(|q| q.joins.len() == 4));
        assert!(queries.iter().any(|q| q.group_attrs().is_empty()));
        assert!(queries.iter().any(|q| q.group_attrs().len() >= 2));
        assert!(queries.iter().any(|q| q.fact_preds.is_empty()));
        let filters: Vec<&DimPred> = queries
            .iter()
            .flat_map(|q| q.joins.iter().filter_map(|j| j.filter.as_ref()))
            .collect();
        assert!(filters.iter().any(|f| matches!(f, DimPred::Eq(_, _))));
        assert!(filters
            .iter()
            .any(|f| matches!(f, DimPred::Between(_, _, _))));
        assert!(filters.iter().any(|f| matches!(f, DimPred::In(_, _))));
    }

    /// Random queries execute end to end on the oracle (dictionary values,
    /// dense codes and domains all line up).
    #[test]
    fn random_queries_execute_on_the_oracle() {
        let d = data();
        for seed in 0..25u64 {
            let q = random_star_query(&d, seed);
            let _ = crate::engines::reference::execute(&d, &q);
        }
    }
}
