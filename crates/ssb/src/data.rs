//! The SSB data generator.
//!
//! Generates the star schema of O'Neil et al.'s Star Schema Benchmark with
//! the paper's storage conventions (Section 5.2): every column is a 4-byte
//! integer; string attributes are dictionary encoded at generation time and
//! queries reference the codes.
//!
//! Cardinalities follow the SSB specification:
//! * `lineorder`: 6,000,000 x SF
//! * `customer`: 30,000 x SF
//! * `supplier`: 2,000 x SF
//! * `part`: 200,000 x (1 + floor(log2 SF))
//! * `date`: one row per calendar day of 1992-1998 (2,556 days)
//!
//! Hierarchies: 5 regions x 5 nations each x 10 cities each;
//! 5 manufacturers x 5 categories each x 40 brands each.

use std::sync::{Arc, Mutex, MutexGuard};

use crystal_storage::dict::Dictionary;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::plan::{DimAttr, DimPred, DimTable, FactCol};

/// TPC-H's 25 nations, grouped by region (5 per region) as SSB does.
const NATIONS: [(&str, &str); 25] = [
    ("ALGERIA", "AFRICA"),
    ("ETHIOPIA", "AFRICA"),
    ("KENYA", "AFRICA"),
    ("MOROCCO", "AFRICA"),
    ("MOZAMBIQUE", "AFRICA"),
    ("ARGENTINA", "AMERICA"),
    ("BRAZIL", "AMERICA"),
    ("CANADA", "AMERICA"),
    ("PERU", "AMERICA"),
    ("UNITED STATES", "AMERICA"),
    ("INDIA", "ASIA"),
    ("INDONESIA", "ASIA"),
    ("JAPAN", "ASIA"),
    ("CHINA", "ASIA"),
    ("VIETNAM", "ASIA"),
    ("FRANCE", "EUROPE"),
    ("GERMANY", "EUROPE"),
    ("ROMANIA", "EUROPE"),
    ("RUSSIA", "EUROPE"),
    ("UNITED KINGDOM", "EUROPE"),
    ("EGYPT", "MIDDLE EAST"),
    ("IRAN", "MIDDLE EAST"),
    ("IRAQ", "MIDDLE EAST"),
    ("JORDAN", "MIDDLE EAST"),
    ("SAUDI ARABIA", "MIDDLE EAST"),
];

/// The date dimension.
#[derive(Debug, Clone)]
pub struct DateDim {
    /// Primary key, `yyyymmdd`.
    pub datekey: Vec<i32>,
    /// 1992..=1998.
    pub year: Vec<i32>,
    /// `yyyymm`.
    pub yearmonthnum: Vec<i32>,
    /// Dictionary code of "Dec1997"-style labels.
    pub yearmonth: Vec<i32>,
    /// 1..=53.
    pub weeknuminyear: Vec<i32>,
}

/// The part dimension.
#[derive(Debug, Clone)]
pub struct PartDim {
    /// Dense primary key `0..n`.
    pub partkey: Vec<i32>,
    /// Code 0..5 ("MFGR#1".."MFGR#5").
    pub mfgr: Vec<i32>,
    /// Code 0..25 ("MFGR#11".."MFGR#55").
    pub category: Vec<i32>,
    /// Code 0..1000 ("MFGR#1101".."MFGR#5540").
    pub brand1: Vec<i32>,
}

/// The supplier dimension.
#[derive(Debug, Clone)]
pub struct SupplierDim {
    pub suppkey: Vec<i32>,
    /// Code 0..5.
    pub region: Vec<i32>,
    /// Code 0..25.
    pub nation: Vec<i32>,
    /// Code 0..250.
    pub city: Vec<i32>,
}

/// The customer dimension.
#[derive(Debug, Clone)]
pub struct CustomerDim {
    pub custkey: Vec<i32>,
    pub region: Vec<i32>,
    pub nation: Vec<i32>,
    pub city: Vec<i32>,
}

/// The fact table.
#[derive(Debug, Clone)]
pub struct LineOrder {
    pub orderdate: Vec<i32>,
    pub custkey: Vec<i32>,
    pub partkey: Vec<i32>,
    pub suppkey: Vec<i32>,
    /// 1..=50.
    pub quantity: Vec<i32>,
    /// 0..=10 (percent).
    pub discount: Vec<i32>,
    pub extendedprice: Vec<i32>,
    /// `extendedprice * (100 - discount) / 100`.
    pub revenue: Vec<i32>,
    pub supplycost: Vec<i32>,
}

impl LineOrder {
    pub fn rows(&self) -> usize {
        self.orderdate.len()
    }

    /// Total bytes across the nine stored columns.
    pub fn size_bytes(&self) -> usize {
        9 * 4 * self.rows()
    }
}

/// Dictionaries produced during generation; queries look literals up here.
#[derive(Debug, Clone, Default)]
pub struct SsbDicts {
    pub region: Dictionary,
    pub nation: Dictionary,
    pub city: Dictionary,
    pub mfgr: Dictionary,
    pub category: Dictionary,
    pub brand: Dictionary,
    pub yearmonth: Dictionary,
}

/// A generated SSB database.
///
/// The tables are public, and the private summaries — the fingerprint, the
/// key ranges and the built join halves behind
/// [`SsbData::dim_cache_stats`] — answer for them as generated. To query
/// other contents, edit a fresh [`Clone`] before its first query: a clone
/// holds no built half, while a dataset edited after it answered a query
/// keeps answering host joins from the halves it built before.
#[derive(Debug, Clone)]
pub struct SsbData {
    pub sf: usize,
    pub lineorder: LineOrder,
    pub date: DateDim,
    pub part: PartDim,
    pub supplier: SupplierDim,
    pub customer: CustomerDim,
    pub dicts: SsbDicts,
    /// Content fingerprint computed at generation time (see
    /// [`SsbData::fingerprint`]); private so it cannot drift from the
    /// data it summarizes.
    fingerprint: u64,
    /// `(min, max)` primary key per dimension, indexed by `DimTable as
    /// usize` (see [`SsbData::key_range`]); private for the same reason.
    key_ranges: [(i32, i32); 4],
    /// The built halves of this dataset's dimension joins
    /// ([`SsbData::dim_cache_stats`]): like the summaries above they answer
    /// for the tables as generated; a clone starts with none.
    dim_cache: DimCacheCell,
    /// The bytes `dim_cache` may hold: a third of the dimension tables' own.
    dim_cache_bound: usize,
}

/// One built half of a dimension join, indexed by `key - min_key` over the
/// dimension's key range. A membership half fills `bits` (bit set exactly
/// when the row with that key passes the filter), a group half `codes` (the
/// row's dense attribute code, `-1` where the range has no row).
#[derive(Debug)]
pub(crate) struct DimPart {
    pub(crate) bits: Vec<u64>,
    pub(crate) codes: Vec<i16>,
}

/// The exact key of a cached half: the bitmap depends on the filter alone
/// and the code column on the attribute alone, so joins that differ in the
/// other half share it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum DimPartKey {
    Filter(DimTable, Option<DimPred>),
    Codes(DimTable, DimAttr),
}

/// What a dataset's dimension-part cache has done and holds — a snapshot,
/// like [`crystal_runtime::SessionStats`]. A miss is one pass over a
/// dimension's columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DimCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Bytes held now, never above the bound: a third of the dimension
    /// tables' own bytes, which holds every half of the 13 canned plans (18
    /// bitmaps, 7 code columns: 7.66 of 26.3 MB at SF 20).
    pub bytes: usize,
}

/// A byte-bounded LRU of join halves, least recently used first. Plain LRU:
/// a half's size and the cost of rebuilding it are both linear in its
/// table's rows, where the device session's GreedyDual-Size degenerates to
/// LRU too. A few dozen entries at most, so a list.
#[derive(Debug, Default)]
struct DimCache {
    parts: Vec<(DimPartKey, Arc<DimPart>)>,
    stats: DimCacheStats,
}

impl DimCache {
    fn held_bytes(&self) -> usize {
        let bytes = |part: &DimPart| 8 * part.bits.len() + 2 * part.codes.len();
        self.parts.iter().map(|(_, part)| bytes(part)).sum()
    }
}

#[derive(Debug, Default)]
struct DimCacheCell(Mutex<DimCache>);

impl DimCacheCell {
    fn lock(&self) -> MutexGuard<'_, DimCache> {
        self.0.lock().expect("halves are built outside the lock")
    }
}

impl Clone for DimCacheCell {
    /// Empty: a clone's tables are public, and whoever edits them must find
    /// nothing built from the original's.
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// One multiply-xor step of the dataset fingerprint.
fn fp_mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

/// Folds one table into `h`: a chain per column, seeded with the column's
/// position and length, all `N` advanced in one loop over the rows — the
/// multiplies of independent chains pipeline, where a single chain over
/// every value waits out the multiply's latency each step — then folded
/// into `h` in column order.
fn fp_table<const N: usize>(h: u64, cols: [&[i32]; N]) -> u64 {
    let mut chains: [u64; N] = std::array::from_fn(|c| fp_mix(c as u64, cols[c].len() as u64));
    let rows = cols.iter().map(|col| col.len()).min().unwrap_or(0);
    let heads = cols.map(|col| &col[..rows]);
    for row in 0..rows {
        for (chain, col) in chains.iter_mut().zip(&heads) {
            *chain = fp_mix(*chain, col[row] as u64);
        }
    }
    // A table's columns are as long as each other unless a caller edited
    // the public fields; what is past the shortest still counts.
    for (chain, col) in chains.iter_mut().zip(cols) {
        *chain = col[rows..].iter().fold(*chain, |h, &v| fp_mix(h, v as u64));
    }
    chains.into_iter().fold(h, fp_mix)
}

/// SSB part-table cardinality: `200,000 x (1 + floor(log2 SF))`.
pub fn part_rows(sf: usize) -> usize {
    200_000 * (1 + (sf as f64).log2().floor() as usize)
}

fn is_leap(y: i32) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

fn days_in_month(y: i32, m: i32) -> i32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(y) {
                29
            } else {
                28
            }
        }
        _ => unreachable!("month {m}"),
    }
}

const MONTH_NAMES: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

impl SsbData {
    /// Generates a database at scale factor `sf` with a deterministic seed.
    pub fn generate(sf: usize, seed: u64) -> Self {
        Self::generate_scaled(sf, 1.0, seed)
    }

    /// Generates the dimensions at scale factor `sf` but samples the fact
    /// table down to `6,000,000 * sf * fact_scale` rows. Used by the GPU
    /// simulator to evaluate SF-20 cache behaviour (dimension/hash-table
    /// sizes must be full-scale) without generating 120M fact rows; fact-
    /// linear time components are scaled back up by `1/fact_scale`.
    pub fn generate_scaled(sf: usize, fact_scale: f64, seed: u64) -> Self {
        assert!(sf >= 1);
        assert!(fact_scale > 0.0 && fact_scale <= 1.0);
        let mut dicts = SsbDicts::default();
        let date = gen_date(&mut dicts);
        let part = gen_part(part_rows(sf), &mut dicts, seed ^ 0x1);
        let supplier = gen_supplier(2_000 * sf, &mut dicts, seed ^ 0x2);
        let customer = gen_customer(30_000 * sf, &mut dicts, seed ^ 0x3);
        let fact_rows = ((6_000_000 * sf) as f64 * fact_scale).round() as usize;
        let lineorder = gen_lineorder(
            fact_rows,
            &date,
            part.partkey.len(),
            supplier.suppkey.len(),
            customer.custkey.len(),
            seed ^ 0x4,
        );
        let mut d = SsbData {
            sf,
            lineorder,
            date,
            part,
            supplier,
            customer,
            dicts,
            fingerprint: 0,
            key_ranges: [(0, 0); 4],
            dim_cache: DimCacheCell::default(),
            dim_cache_bound: 0,
        };
        d.fingerprint = d.content_fingerprint();
        for (table, keys) in [
            (DimTable::Date, &d.date.datekey),
            (DimTable::Part, &d.part.partkey),
            (DimTable::Supplier, &d.supplier.suppkey),
            (DimTable::Customer, &d.customer.custkey),
        ] {
            let first = keys.first().copied().unwrap_or(0);
            d.key_ranges[table as usize] = keys
                .iter()
                .fold((first, first), |(lo, hi), &k| (lo.min(k), hi.max(k)));
        }
        d.dim_cache_bound = (d.size_bytes() - d.lineorder.size_bytes()) / 3;
        d
    }

    /// Smallest and largest primary key of a dimension (over *all* rows),
    /// computed once at generation: the span of the dimension's
    /// perfect-hash slot array, which every build and every table-size
    /// estimate would otherwise rescan the key column for.
    pub fn key_range(&self, table: DimTable) -> (i32, i32) {
        self.key_ranges[table as usize]
    }

    /// The half under `key`, read through this dataset's cache: built on a
    /// miss — outside the lock, so racing threads may each build it — and
    /// kept, least recently used first out, while the bound allows.
    pub(crate) fn dim_part(
        &self,
        key: DimPartKey,
        build: impl FnOnce() -> DimPart,
    ) -> Arc<DimPart> {
        let mut cache = self.dim_cache.lock();
        let part = match cache.parts.iter().position(|(held, _)| *held == key) {
            Some(at) => {
                cache.stats.hits += 1;
                cache.parts.remove(at).1
            }
            None => {
                cache.stats.misses += 1;
                drop(cache);
                let part = Arc::new(build());
                cache = self.dim_cache.lock();
                cache.parts.retain(|(held, _)| *held != key);
                part
            }
        };
        cache.parts.push((key, part.clone()));
        while cache.held_bytes() > self.dim_cache_bound {
            cache.parts.remove(0);
            cache.stats.evictions += 1;
        }
        cache.stats.bytes = cache.held_bytes();
        part
    }

    /// Counters of the cache every host plan and device build of this
    /// dataset reads its dimension joins through: a membership bitmap per
    /// `(table, filter)` and a group-code column per `(table, attribute)`,
    /// each built once, from the tables as they were then, and shared —
    /// only a fresh clone may be edited (see [`SsbData`]).
    pub fn dim_cache_stats(&self) -> DimCacheStats {
        self.dim_cache.lock().stats
    }

    /// A 64-bit content fingerprint of the generated database. It
    /// identifies the dataset to shared infrastructure — most importantly
    /// the [`crystal_runtime::ColumnKey`] of a `DeviceSession` shared by
    /// tenants replaying *different* datasets, where a bare column id
    /// would silently alias one tenant's cached bytes to another.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The fingerprint of the tables as they are now (the fields are
    /// public; [`SsbData::fingerprint`] is the value at generation): a
    /// multiply-xor fold, table by table with one chain per column, over
    /// every fact column and every dimension key / attribute column
    /// (lengths included), so any two generations that differ anywhere in
    /// seed, scale, or content get distinct keys. Compared for equality
    /// only — its value is no part of any result.
    pub fn content_fingerprint(&self) -> u64 {
        let h = fp_mix(0xC0FF_EE00_5EED_5EED, self.sf as u64);
        let h = fp_table(h, FactCol::ALL.map(|c| c.data(self)));
        let (date, part) = (&self.date, &self.part);
        let h = fp_table(
            h,
            [
                &date.datekey,
                &date.year,
                &date.yearmonthnum,
                &date.yearmonth,
                &date.weeknuminyear,
            ],
        );
        let h = fp_table(h, [&part.partkey, &part.mfgr, &part.category, &part.brand1]);
        let (supp, cust) = (&self.supplier, &self.customer);
        let h = fp_table(h, [&supp.suppkey, &supp.region, &supp.nation, &supp.city]);
        fp_table(h, [&cust.custkey, &cust.region, &cust.nation, &cust.city])
    }

    /// Total dataset bytes (the paper quotes ~13 GB at SF 20).
    pub fn size_bytes(&self) -> usize {
        self.lineorder.size_bytes()
            + 5 * 4 * self.date.datekey.len()
            + 4 * 4 * self.part.partkey.len()
            + 4 * 4 * self.supplier.suppkey.len()
            + 4 * 4 * self.customer.custkey.len()
    }
}

fn gen_date(dicts: &mut SsbDicts) -> DateDim {
    let mut d = DateDim {
        datekey: Vec::new(),
        year: Vec::new(),
        yearmonthnum: Vec::new(),
        yearmonth: Vec::new(),
        weeknuminyear: Vec::new(),
    };
    for y in 1992..=1998 {
        let mut day_of_year = 0;
        for m in 1..=12 {
            let label = format!("{}{}", MONTH_NAMES[(m - 1) as usize], y);
            let ym_code = dicts.yearmonth.encode(&label);
            for day in 1..=days_in_month(y, m) {
                day_of_year += 1;
                d.datekey.push(y * 10_000 + m * 100 + day);
                d.year.push(y);
                d.yearmonthnum.push(y * 100 + m);
                d.yearmonth.push(ym_code);
                d.weeknuminyear.push((day_of_year - 1) / 7 + 1);
            }
        }
    }
    d
}

fn gen_part(n: usize, dicts: &mut SsbDicts, seed: u64) -> PartDim {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut p = PartDim {
        partkey: (0..n as i32).collect(),
        mfgr: Vec::with_capacity(n),
        category: Vec::with_capacity(n),
        brand1: Vec::with_capacity(n),
    };
    // Pre-register labels so codes are dense and hierarchy-ordered:
    // category code = mfgr*5 + c, brand code = category*40 + b.
    for m in 1..=5 {
        dicts.mfgr.encode(&format!("MFGR#{m}"));
        for c in 1..=5 {
            dicts.category.encode(&format!("MFGR#{m}{c}"));
            for b in 1..=40 {
                dicts.brand.encode(&format!("MFGR#{m}{c}{b:02}"));
            }
        }
    }
    for _ in 0..n {
        let brand = rng.gen_range(0..1000);
        let category = brand / 40;
        let mfgr = category / 5;
        p.brand1.push(brand);
        p.category.push(category);
        p.mfgr.push(mfgr);
    }
    p
}

fn gen_geo(n: usize, dicts: &mut SsbDicts, seed: u64) -> (Vec<i32>, Vec<i32>, Vec<i32>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Register geography labels once (idempotent across supplier/customer).
    for (nation, region) in NATIONS {
        dicts.region.encode(region);
        let nation_code = dicts.nation.encode(nation);
        let prefix: String = nation.chars().take(9).collect();
        for c in 0..10 {
            let city = format!("{prefix}{c}");
            let code = dicts.city.encode(&city);
            debug_assert_eq!(code, nation_code * 10 + c);
        }
    }
    let mut region_col = Vec::with_capacity(n);
    let mut nation_col = Vec::with_capacity(n);
    let mut city_col = Vec::with_capacity(n);
    let region_of =
        NATIONS.map(|(_, region)| dicts.region.code(region).expect("region registered"));
    for _ in 0..n {
        let nation = rng.gen_range(0..25);
        let city = nation * 10 + rng.gen_range(0..10);
        nation_col.push(nation);
        city_col.push(city);
        region_col.push(region_of[nation as usize]);
    }
    (region_col, nation_col, city_col)
}

fn gen_supplier(n: usize, dicts: &mut SsbDicts, seed: u64) -> SupplierDim {
    let (region, nation, city) = gen_geo(n, dicts, seed);
    SupplierDim {
        suppkey: (0..n as i32).collect(),
        region,
        nation,
        city,
    }
}

fn gen_customer(n: usize, dicts: &mut SsbDicts, seed: u64) -> CustomerDim {
    let (region, nation, city) = gen_geo(n, dicts, seed);
    CustomerDim {
        custkey: (0..n as i32).collect(),
        region,
        nation,
        city,
    }
}

fn gen_lineorder(
    n: usize,
    date: &DateDim,
    parts: usize,
    suppliers: usize,
    customers: usize,
    seed: u64,
) -> LineOrder {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut lo = LineOrder {
        orderdate: Vec::with_capacity(n),
        custkey: Vec::with_capacity(n),
        partkey: Vec::with_capacity(n),
        suppkey: Vec::with_capacity(n),
        quantity: Vec::with_capacity(n),
        discount: Vec::with_capacity(n),
        extendedprice: Vec::with_capacity(n),
        revenue: Vec::with_capacity(n),
        supplycost: Vec::with_capacity(n),
    };
    let days = date.datekey.len();
    for _ in 0..n {
        let d = rng.gen_range(0..days);
        lo.orderdate.push(date.datekey[d]);
        lo.custkey.push(rng.gen_range(0..customers as i32));
        lo.partkey.push(rng.gen_range(0..parts as i32));
        lo.suppkey.push(rng.gen_range(0..suppliers as i32));
        let quantity = rng.gen_range(1..=50);
        let discount = rng.gen_range(0..=10);
        let price = rng.gen_range(90_000..1_000_000);
        lo.quantity.push(quantity);
        lo.discount.push(discount);
        lo.extendedprice.push(price);
        lo.revenue.push(price / 100 * (100 - discount));
        lo.supplycost.push(price / 100 * rng.gen_range(40..60));
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every engine shares one dataset across its workers.
    const _: fn() = || {
        fn shared<T: Send + Sync>() {}
        shared::<SsbData>();
    };

    /// What the crate's tests need and no caller may have: a cache bound
    /// other than the constant share.
    impl SsbData {
        pub(crate) fn dim_cache_bound(&self) -> usize {
            self.dim_cache_bound
        }

        /// The dataset with its dimension-part cache emptied and bounded
        /// at `bytes`.
        pub(crate) fn with_dim_cache_bound(self, bytes: usize) -> Self {
            SsbData {
                dim_cache: DimCacheCell::default(),
                dim_cache_bound: bytes,
                ..self
            }
        }
    }

    #[test]
    fn cardinalities_match_spec() {
        let d = SsbData::generate(1, 42);
        assert_eq!(d.lineorder.rows(), 6_000_000);
        assert_eq!(d.supplier.suppkey.len(), 2_000);
        assert_eq!(d.customer.custkey.len(), 30_000);
        assert_eq!(d.part.partkey.len(), 200_000);
        // 7 years of days, 1992 and 1996 being leap years (the paper
        // rounds this to "2,556").
        assert_eq!(d.date.datekey.len(), 2_557);
    }

    #[test]
    fn part_rows_scaling() {
        assert_eq!(part_rows(1), 200_000);
        assert_eq!(part_rows(2), 400_000);
        assert_eq!(part_rows(20), 1_000_000); // the paper's 1M at SF 20
    }

    #[test]
    fn sf20_dataset_is_about_13_gb() {
        // Don't generate 120M rows; compute from cardinalities.
        let bytes = 9 * 4 * 120_000_000usize
            + 5 * 4 * 2_556
            + 4 * 4 * part_rows(20)
            + 4 * 4 * 40_000
            + 4 * 4 * 600_000;
        let gb = bytes as f64 / 1e9;
        assert!((4.0..14.0).contains(&gb), "{gb} GB");
    }

    #[test]
    fn date_dimension_calendar() {
        let d = SsbData::generate_scaled(1, 0.001, 1).date;
        assert_eq!(d.datekey[0], 19920101);
        assert_eq!(*d.datekey.last().unwrap(), 19981231);
        // 1992 and 1996 are leap years: 3 x 366 + 4 x 365 = 2556... two
        // leap years in 1992..=1998 (1992, 1996).
        assert_eq!(d.datekey.len(), 2 * 366 + 5 * 365);
        assert!(d.weeknuminyear.iter().all(|&w| (1..=53).contains(&w)));
        // Feb 4 1994 is in week 5 of the simple (dayofyear-1)/7+1 scheme.
        let idx = d.datekey.iter().position(|&k| k == 19940204).unwrap();
        assert_eq!(d.weeknuminyear[idx], 5);
    }

    #[test]
    fn hierarchies_are_consistent() {
        let d = SsbData::generate_scaled(1, 0.001, 7);
        for i in 0..d.part.partkey.len() {
            assert_eq!(d.part.category[i], d.part.brand1[i] / 40);
            assert_eq!(d.part.mfgr[i], d.part.category[i] / 5);
        }
        for i in 0..d.supplier.suppkey.len() {
            assert_eq!(d.supplier.nation[i], d.supplier.city[i] / 10);
        }
    }

    #[test]
    fn dictionary_lookups_for_query_literals() {
        let d = SsbData::generate_scaled(1, 0.001, 7);
        assert!(d.dicts.region.code("AMERICA").is_some());
        assert!(d.dicts.region.code("ASIA").is_some());
        assert!(d.dicts.nation.code("UNITED STATES").is_some());
        assert!(d.dicts.city.code("UNITED KI1").is_some());
        assert!(d.dicts.category.code("MFGR#12").is_some());
        assert!(d.dicts.brand.code("MFGR#2221").is_some());
        assert!(d.dicts.yearmonth.code("Dec1997").is_some());
        // Hierarchy-aligned codes.
        assert_eq!(d.dicts.category.code("MFGR#12"), Some(1));
        assert_eq!(d.dicts.brand.code("MFGR#1101"), Some(0));
    }

    #[test]
    fn revenue_is_discounted_price() {
        let d = SsbData::generate_scaled(1, 0.01, 9);
        let lo = &d.lineorder;
        for i in 0..100 {
            assert_eq!(
                lo.revenue[i],
                lo.extendedprice[i] / 100 * (100 - lo.discount[i])
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SsbData::generate_scaled(1, 0.005, 5);
        let b = SsbData::generate_scaled(1, 0.005, 5);
        assert_eq!(a.lineorder.orderdate, b.lineorder.orderdate);
        assert_eq!(a.part.brand1, b.part.brand1);
    }

    #[test]
    fn fact_scale_samples_lineorder_only() {
        let d = SsbData::generate_scaled(2, 0.01, 5);
        assert_eq!(d.lineorder.rows(), 120_000);
        assert_eq!(d.supplier.suppkey.len(), 4_000);
        assert_eq!(d.part.partkey.len(), 400_000);
    }
}
