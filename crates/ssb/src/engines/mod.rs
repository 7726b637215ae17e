//! Query engines: one execution style per module, all interpreting the
//! same [`crate::plan::StarQuery`] descriptors.

pub mod copro;
pub mod cpu;
pub mod gpu;
pub mod hyper;
pub mod monet;
pub mod omnisci;
pub mod profile;
pub mod reference;

use std::sync::Arc;

use crystal_core::hash::{DeviceHashTable, HashScheme};
use crystal_core::selvec::{slot_bitmap, DimPart, PerfectHashProbe};
use crystal_gpu_sim::stats::KernelReport;
use crystal_gpu_sim::Gpu;

use crate::data::{DimPartKey, SsbData};
use crate::plan::{DimAttr, DimJoin, DimPred, DimTable, StarQuery};

// A group-code slot is an `i16`: a dense attribute code, or `-1` where the
// key range has no row. Every attribute's code domain has to fit.
const _: () = {
    let attrs = [
        DimAttr::Year,
        DimAttr::YearMonthNum,
        DimAttr::WeekNumInYear,
        DimAttr::Mfgr,
        DimAttr::Category,
        DimAttr::Brand1,
        DimAttr::Region,
        DimAttr::Nation,
        DimAttr::City,
    ];
    let mut i = 0;
    while i < attrs.len() {
        assert!(attrs[i].domain() <= i16::MAX as usize);
        i += 1;
    }
};

/// One attribute column of a dimension plus a small table over the
/// attribute's value range, so that a per-row predicate or dense-code
/// evaluation becomes one subtract and one L1-resident load. The table has
/// [`DimAttr::domain`] entries (612 for `YearMonthNum`, whose `yyyymm`
/// values leave holes between the years).
struct AttrMap<'a> {
    col: &'a [i32],
    /// Smallest value of the attribute (`value(0)`).
    base: i32,
    map: Vec<i16>,
}

impl<'a> AttrMap<'a> {
    /// Tabulates `f(dense code, value)` over every value of `attr`; holes
    /// in the value range read `-1`.
    fn new(attr: DimAttr, col: &'a [i32], f: impl Fn(usize, i32) -> i16) -> Self {
        let base = attr.value(0);
        let top = attr.value(attr.domain() - 1);
        let mut map = vec![-1i16; (top - base + 1) as usize];
        for dense in 0..attr.domain() {
            let value = attr.value(dense);
            map[(value - base) as usize] = f(dense, value);
        }
        AttrMap { col, base, map }
    }

    /// The table entry of each dimension row, in row order.
    #[inline]
    fn per_row(&self) -> impl Iterator<Item = i16> + '_ {
        let entry = |&v: &i32| self.map[(v - self.base) as usize];
        self.col.iter().map(entry)
    }
}

/// One dimension join resolved, once per build, from its descriptor to the
/// columns and tables the build loop reads: the key column, the filter
/// column with an accept table (`0` pass, `-1` reject), and the group
/// column with a dense-code table. The loop itself then matches on nothing
/// and branches on nothing — the slot of a row is `accept | code`, which is
/// the code when the row passes and `-1` when it does not.
///
/// This is the one place the build-phase loop lives: a [`DimLookup`]'s two
/// halves are the slots of the join without its group attribute and without
/// its filter.
struct ResolvedJoin<'a> {
    keys: &'a [i32],
    min_key: i32,
    max_key: i32,
    filter: Option<AttrMap<'a>>,
    group: Option<AttrMap<'a>>,
}

impl<'a> ResolvedJoin<'a> {
    fn new(d: &'a SsbData, join: &DimJoin) -> Self {
        let keys = join.keys(d);
        let (min_key, max_key) = d.key_range(join.table);
        let column = |attr: DimAttr| {
            let col = attr.data(d, join.table);
            assert_eq!(col.len(), keys.len(), "ragged dimension table");
            col
        };
        ResolvedJoin {
            keys,
            min_key,
            max_key,
            filter: join.filter.as_ref().map(|p| {
                let accept = |_, value| if p.matches(value) { 0 } else { -1 };
                AttrMap::new(p.attr(), column(p.attr()), accept)
            }),
            group: join
                .group_attr
                .map(|a| AttrMap::new(a, column(a), |dense, _| dense as i16)),
        }
    }

    /// The slot of every key of the key range, `-1` where the range has no
    /// row: a row's dense group code (0 when the join is ungrouped), or `-1`
    /// when it fails the join filter.
    fn slots(&self) -> Vec<i16> {
        #[inline(always)]
        fn scatter(
            r: &ResolvedJoin<'_>,
            accept: impl Iterator<Item = i16>,
            code: impl Iterator<Item = i16>,
        ) -> Vec<i16> {
            let mut slots = vec![-1i16; (r.max_key - r.min_key + 1) as usize];
            for ((&key, accept), code) in r.keys.iter().zip(accept).zip(code) {
                slots[(key - r.min_key) as usize] = accept | code;
            }
            slots
        }
        let all = std::iter::repeat(0i16);
        match (&self.filter, &self.group) {
            (None, None) => scatter(self, all.clone(), all),
            (Some(f), None) => scatter(self, f.per_row(), all),
            (None, Some(g)) => scatter(self, all, g.per_row()),
            (Some(f), Some(g)) => scatter(self, f.per_row(), g.per_row()),
        }
    }
}

/// The build side of one dimension join as explicit pairs: the filtered
/// `(key, dense group code)` pairs an explicit-key build kernel inserts
/// ([`build_dim_table`]), plus the key range they span.
#[derive(Debug, Clone)]
pub struct DimBuild {
    /// Keys of dimension rows passing the join filter.
    pub keys: Vec<i32>,
    /// Dense group code per surviving row (0 when the join is ungrouped).
    pub codes: Vec<i32>,
    /// Smallest primary key of the dimension (over *all* rows).
    pub min_key: i32,
    /// Largest primary key of the dimension (over *all* rows).
    pub max_key: i32,
}

impl DimBuild {
    /// Scans one join's dimension row by row, keeping the keys of the rows
    /// that pass the filter and their dense group codes, in row order: the
    /// reference the device tables over a join's cached halves are held to
    /// ([`dim_device_table`]).
    pub fn scan(d: &SsbData, join: &DimJoin) -> Self {
        let (mut keys, mut codes) = (Vec::new(), Vec::new());
        for (row, &key) in join.keys(d).iter().enumerate() {
            if join.row_matches(d, row) {
                let code = |a: DimAttr| a.dense(join.row_group_value(d, row)) as i32;
                keys.push(key);
                codes.push(join.group_attr.map_or(0, code));
            }
        }
        let (min_key, max_key) = d.key_range(join.table);
        DimBuild {
            keys,
            codes,
            min_key,
            max_key,
        }
    }

    /// Rows surviving the dimension filter.
    pub fn inserted(&self) -> usize {
        self.keys.len()
    }

    /// Span of the perfect-hash slot array (`max - min + 1`).
    pub fn key_range(&self) -> usize {
        (self.max_key - self.min_key + 1) as usize
    }
}

/// Perfect-hash footprint of one join's dimension table (8 bytes per slot
/// over the key range) without touching the dimension — the cheap
/// `estimated_bytes` a memoized lookup needs even on a warm hit, read from
/// the key range recorded at generation.
pub fn dim_table_bytes(d: &SsbData, join: &DimJoin) -> usize {
    let (min, max) = d.key_range(join.table);
    8 * (max - min + 1) as usize
}

/// Builds the device-side perfect-hash table of one dimension join from
/// its scanned build side, as explicit keys and payloads staged into device
/// buffers (one build kernel; the staging is freed before returning): the
/// reference that [`dim_device_table`]'s reservations and kernel are held to.
pub fn build_dim_table(gpu: &mut Gpu, build: &DimBuild) -> (DeviceHashTable, KernelReport) {
    let dk = gpu.alloc_from(&build.keys);
    let dv = gpu.alloc_from(&build.codes);
    let out = DeviceHashTable::build(
        gpu,
        &dk,
        &dv,
        build.key_range(),
        HashScheme::Perfect { min: build.min_key },
    );
    gpu.free(dk);
    gpu.free(dv);
    out
}

/// Builds the device-side perfect-hash table of one dimension join over the
/// join's halves as [`DimLookup::cached`] reads them, shared, not copied
/// ([`DeviceHashTable::build_perfect`]): it reserves and accounts what
/// [`build_dim_table`] over the join's scan does, and a probe tests the
/// bitmap the host engine tests. This is the closure body every
/// session-memoized engine passes to
/// [`crystal_runtime::DeviceSession::try_hash_table`](crystal_runtime::session::DeviceSession::try_hash_table).
pub fn dim_device_table(
    gpu: &mut Gpu,
    d: &SsbData,
    join: &DimJoin,
) -> (DeviceHashTable, KernelReport) {
    let lk = DimLookup::cached(d, join);
    let slots = dim_table_bytes(d, join) / 8;
    DeviceHashTable::build_perfect(gpu, lk.min_key, slots, lk.filter, lk.codes)
}

/// A stable fingerprint of one dimension join's build side — the
/// memoization key of the `DeviceSession`'s hash-table cache, and of nothing
/// else: the host-side parts a dataset caches are keyed by the descriptor's
/// own values, where a colliding hash would be a wrong answer. Two joins share a
/// table exactly when they agree on *dataset*, dimension, FK column,
/// filter and group attribute (the payload is the group code, so the
/// group attribute is part of the key). FNV-1a over the dataset's content
/// fingerprint and the descriptor; the dimension row count is folded in
/// as a scale guard. Folding the dataset in keeps a session shared by
/// tenants replaying different databases from serving one tenant's build
/// to another.
pub(crate) fn dim_join_fingerprint(d: &SsbData, join: &DimJoin) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in d.fingerprint().to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    let mut eat = |v: i64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(join.table as i64);
    eat(join.fact_fk.index() as i64);
    eat(join.keys(d).len() as i64);
    match &join.filter {
        None => eat(-1),
        Some(p) => {
            let (kind, attr) = match p {
                DimPred::Eq(a, _) => (0i64, *a),
                DimPred::Between(a, _, _) => (1, *a),
                DimPred::In(a, _) => (2, *a),
            };
            eat(kind);
            eat(attr as i64);
            match p {
                DimPred::Eq(_, v) => eat(*v as i64),
                DimPred::Between(_, lo, hi) => {
                    eat(*lo as i64);
                    eat(*hi as i64);
                }
                DimPred::In(_, vs) => {
                    eat(vs.len() as i64);
                    for v in vs {
                        eat(*v as i64);
                    }
                }
            }
        }
    }
    match join.group_attr {
        None => eat(-1),
        Some(a) => eat(a as i64),
    }
    h
}

/// A perfect-hash dimension lookup over the key range recorded at
/// generation, in two halves indexed by `key - min_key`: the membership
/// bitmap of the join's `(table, filter)` — bit set exactly when the row
/// with that key passes the filter — and, when the join carries a group
/// attribute, the dense group-code column of its `(table, attribute)`,
/// filter or no filter. Every kernel tests the bit before it reads a code,
/// so joins that differ only in the filter share one code column (q2.1,
/// q2.2, q2.3 and q4.3 the 2 MB `Part x Brand1`) and an ungrouped join has
/// none. The halves are shared: [`DimLookup::cached`] reads them through
/// the dataset's byte-bounded cache ([`SsbData::dim_cache_stats`]).
///
/// This is the one representation of a dimension join, read by the host
/// engine and by the simulated device: the paper's perfect-hashed dimension
/// tables (Section 5.3) on the host, and the functional half of the
/// device's [`DeviceHashTable`] ([`dim_device_table`] shares both halves),
/// whose simulated footprint is the paper's `2 x 4 x |dim|` accounting
/// ([`dim_table_bytes`]). A host join is a semi-join against the bitmap
/// (75 KB for SF-20 customer, 125 KB for part: cache-resident under any
/// fact stream); the 2-byte codes (every `DimAttr::domain` fits, and the
/// key is implied by the position; 1.2 and 2 MB) are read only for the
/// rows that survive every join.
#[derive(Debug, Clone)]
pub struct DimLookup {
    min_key: i32,
    filter: Arc<DimPart>,
    codes: Option<Arc<DimPart>>,
    /// Dimension rows passing the join filter.
    pub inserted: usize,
}

/// The half of `join` under `key`, read through the dataset's cache or
/// (`!cached`) built for the caller alone: one pass over the key column and
/// one attribute column — the slots of the join without its group attribute,
/// turned into a bitmap 64 per word, or of the join without its filter.
fn half(d: &SsbData, join: &DimJoin, key: DimPartKey, cached: bool) -> Arc<DimPart> {
    let membership = matches!(key, DimPartKey::Filter(..));
    let build = || {
        let mut r = ResolvedJoin::new(d, join);
        let (bits, codes) = if membership {
            r.group = None;
            (slot_bitmap(&r.slots()), Vec::new())
        } else {
            r.filter = None;
            (Vec::new(), r.slots())
        };
        DimPart { bits, codes }
    };
    match cached {
        true => d.dim_part(key, build),
        false => Arc::new(build()),
    }
}

fn filter_key(join: &DimJoin) -> DimPartKey {
    DimPartKey::Filter(join.table, join.filter.clone())
}

fn members(filter: &DimPart) -> usize {
    filter.bits.iter().map(|w| w.count_ones() as usize).sum()
}

/// Dimension rows passing one join's filter, counted off its cached
/// membership half: a [`DimLookup::cached`]'s `inserted` without the lookup.
pub(crate) fn dim_members(d: &SsbData, join: &DimJoin) -> usize {
    members(&half(d, join, filter_key(join), true))
}

impl DimLookup {
    /// Builds both halves of one join from the dimension's columns, shared
    /// with nothing: [`DimLookup::cached`] without the cache.
    pub fn build(d: &SsbData, join: &DimJoin) -> Self {
        Self::from_halves(d, join, false)
    }

    /// The lookup of one join from the halves `d` caches, building (and,
    /// within the bound, keeping) the ones it does not hold — from `d`'s
    /// tables as they are then: edit only a fresh clone (see [`SsbData`]).
    pub fn cached(d: &SsbData, join: &DimJoin) -> Self {
        Self::from_halves(d, join, true)
    }

    fn from_halves(d: &SsbData, join: &DimJoin, cached: bool) -> Self {
        let filter = half(d, join, filter_key(join), cached);
        let codes = |attr| half(d, join, DimPartKey::Codes(join.table, attr), cached);
        DimLookup {
            min_key: d.key_range(join.table).0,
            inserted: members(&filter),
            filter,
            codes: join.group_attr.map(codes),
        }
    }

    /// The monomorphized probe spec over this lookup — what the
    /// selection-vector semi-join and code-gather kernels of
    /// [`crystal_core::selvec`] read through.
    #[inline]
    pub fn spec(&self) -> PerfectHashProbe<'_> {
        let codes = self.codes.as_ref().map_or(&[][..], |half| &half.codes);
        PerfectHashProbe::new(self.min_key, &self.filter.bits, codes)
    }

    /// Probes one key (the bit, then the code):
    /// `Some(dense_group_code)` if present and unfiltered, 0 for an
    /// ungrouped join.
    #[inline]
    pub fn get(&self, key: i32) -> Option<i32> {
        let v = self.spec().probe(key);
        (v >= 0).then_some(v)
    }
}

/// Probe statistics of one join stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTrace {
    pub table: DimTable,
    /// Probes issued (rows surviving earlier stages).
    pub probes: usize,
    /// Probes that found a matching, unfiltered dimension row.
    pub hits: usize,
    /// Hash-table footprint at the executed scale.
    pub ht_bytes: usize,
    /// Fraction of dimension rows inserted (surviving the dim filter).
    pub dim_insert_frac: f64,
}

/// Execution trace of one query: the inputs of the Section 5.3 model.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    pub fact_rows: usize,
    /// Rows passing the fact-column predicates (== fact_rows when none).
    pub pred_survivors: usize,
    pub stages: Vec<StageTrace>,
    /// Rows reaching the aggregate.
    pub result_rows: usize,
    /// Non-empty output groups.
    pub groups: usize,
}

impl QueryTrace {
    /// Cumulative selectivity before stage `i` (1.0 before the first).
    pub fn selectivity_before_stage(&self, i: usize) -> f64 {
        if self.fact_rows == 0 {
            return 0.0;
        }
        let mut frac = self.pred_survivors as f64 / self.fact_rows as f64;
        for s in &self.stages[..i] {
            frac *= if s.probes == 0 {
                0.0
            } else {
                s.hits as f64 / s.probes as f64
            };
        }
        frac
    }

    /// Final selectivity (rows reaching the aggregate per fact row).
    pub(crate) fn result_frac(&self) -> f64 {
        if self.fact_rows == 0 {
            0.0
        } else {
            self.result_rows as f64 / self.fact_rows as f64
        }
    }
}

/// The dense mixed-radix group index of one row: `digits` are the query's
/// [`StarQuery::group_digits`] and `code(j)` is the row's dense group code
/// in join `j`. The one fold of the group key every engine builds (the
/// vectorized pipeline's `sel_group_digit` kernel builds the same index a
/// digit at a time over a column of rows).
#[inline(always)]
pub(crate) fn group_key(digits: &[(usize, usize)], code: impl Fn(usize) -> i32) -> usize {
    let digit = |idx, &(j, domain): &(usize, usize)| idx * domain + code(j) as usize;
    digits.iter().fold(0, digit)
}

/// The dense mixed-radix group index of per-digit dense codes: `group_key`
/// with every digit its own join.
pub fn group_index(domains: &[usize], codes: &[i32]) -> usize {
    debug_assert_eq!(domains.len(), codes.len());
    let digits: Vec<(usize, usize)> = domains.iter().copied().enumerate().collect();
    group_key(&digits, |j| codes[j])
}

/// Decodes a dense group index back into per-attribute dense codes.
pub fn group_decode(domains: &[usize], mut idx: usize) -> Vec<i32> {
    let mut codes = vec![0i32; domains.len()];
    for (i, d) in domains.iter().enumerate().rev() {
        codes[i] = (idx % d) as i32;
        idx /= d;
    }
    codes
}

/// Slots per block of a [`GroupAcc`]: q4.3's 1.75 M-slot domain is 3 418
/// blocks, a 13.7 KB directory.
const AGG_BLOCK: usize = 512;

/// The directory entry of a block no value was added to.
const ABSENT: u32 = u32::MAX;

/// The group accumulator of every engine: `i64` sums over the query's dense
/// group domain, kept in 512-slot blocks that are allocated on their first
/// add. A `u32` directory over the domain's blocks holds each block's place
/// in `sums` (`ABSENT` until then); `blocks` names, in order of first
/// touch, the domain block each place holds. Making, merging and reading
/// out an accumulator costs what the groups it touched cost, plus 4 bytes
/// per block of the domain — q4.3 fills a few hundred of its 1.75 M slots,
/// and a 437.5 M-slot domain is a 3.4 MB directory, not 3.5 GB of sums.
/// [`GroupAcc::add`] is the only writer: a slot of an absent block is zero.
#[derive(Debug, Clone)]
pub(crate) struct GroupAcc {
    dir: Vec<u32>,
    blocks: Vec<u32>,
    sums: Vec<i64>,
}

impl GroupAcc {
    /// An accumulator over `domain` zero slots, no block allocated.
    pub(crate) fn new(domain: usize) -> Self {
        let blocks = domain.div_ceil(AGG_BLOCK);
        assert!(blocks < ABSENT as usize, "a group domain of {domain} slots");
        GroupAcc {
            dir: vec![ABSENT; blocks],
            blocks: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Adds `value` to group `idx` (slot 0 of a scalar query).
    #[inline]
    pub(crate) fn add(&mut self, idx: usize, value: i64) {
        let block = idx / AGG_BLOCK;
        let at = match self.dir[block] {
            ABSENT => self.allocate(block),
            at => at as usize,
        };
        self.sums[at * AGG_BLOCK + idx % AGG_BLOCK] += value;
    }

    /// Gives domain block `block` the next place, zeroed; returns it.
    #[cold]
    fn allocate(&mut self, block: usize) -> usize {
        let at = self.blocks.len();
        self.dir[block] = at as u32;
        self.blocks.push(block as u32);
        self.sums.resize(self.sums.len() + AGG_BLOCK, 0);
        at
    }

    /// Blocks allocated so far.
    #[cfg(test)]
    pub(crate) fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Each allocated block's first domain slot and its sums, in order of
    /// first touch.
    fn allocated(&self) -> impl Iterator<Item = (usize, &[i64])> {
        let firsts = self.blocks.iter().map(|&b| b as usize * AGG_BLOCK);
        firsts.zip(self.sums.chunks_exact(AGG_BLOCK))
    }

    /// Adds every group of `other`, an accumulator over the same domain.
    pub(crate) fn merge(&mut self, other: &GroupAcc) {
        assert_eq!(self.dir.len(), other.dir.len(), "group domains differ");
        for (first, theirs) in other.allocated() {
            let block = first / AGG_BLOCK;
            let at = match self.dir[block] {
                ABSENT => self.allocate(block),
                at => at as usize,
            };
            let mine = &mut self.sums[at * AGG_BLOCK..][..AGG_BLOCK];
            mine.iter_mut().zip(theirs).for_each(|(m, t)| *m += t);
        }
    }

    /// The result of `q`, whose group domain this accumulator covers, with
    /// group keys mapped back from dense codes to attribute values; a group
    /// whose sum is zero is dropped like an empty one.
    pub(crate) fn to_result(&self, q: &StarQuery) -> crate::QueryResult {
        let attrs = q.group_attrs();
        if attrs.is_empty() {
            // A scalar query's one slot is the first of its one block.
            return crate::QueryResult::Scalar(self.sums.first().copied().unwrap_or(0));
        }
        let domains: Vec<usize> = attrs.iter().map(|a| a.domain()).collect();
        let slots = self
            .allocated()
            .flat_map(|(first, sums)| (first..).zip(sums));
        crate::QueryResult::from_groups(slots.filter(|&(_, &sum)| sum != 0).map(|(idx, &sum)| {
            let codes = group_decode(&domains, idx);
            let key: Vec<i32> = codes
                .iter()
                .zip(&attrs)
                .map(|(&c, a)| a.value(c as usize))
                .collect();
            (key, sum)
        }))
    }
}

/// What every engine accumulates for one query: the group key's digits
/// ([`StarQuery::group_digits`], folded by [`group_key`]), the group sums,
/// and the counters of the query's [`QueryTrace`]. A run keeps one per
/// worker or per job and merges them; [`QueryAcc::finish`] is the one place
/// a result and its trace are assembled.
#[derive(Debug, Clone)]
pub(crate) struct QueryAcc {
    pub(crate) digits: Vec<(usize, usize)>,
    pub(crate) groups: GroupAcc,
    /// Rows passing the fact predicates.
    pub(crate) pred_survivors: usize,
    /// Per join: rows probed, and rows found.
    pub(crate) probes: Vec<usize>,
    pub(crate) hits: Vec<usize>,
    /// Rows reaching the aggregate.
    pub(crate) result_rows: usize,
}

impl QueryAcc {
    /// Nothing accumulated for `q`.
    pub(crate) fn new(q: &StarQuery) -> Self {
        QueryAcc {
            digits: q.group_digits(),
            groups: GroupAcc::new(q.group_domain()),
            pred_survivors: 0,
            probes: vec![0; q.joins.len()],
            hits: vec![0; q.joins.len()],
            result_rows: 0,
        }
    }

    /// Adds the sums and counts of `other`, accumulated for the same query.
    pub(crate) fn merge(&mut self, other: &QueryAcc) {
        self.groups.merge(&other.groups);
        self.pred_survivors += other.pred_survivors;
        for (mine, theirs) in self.probes.iter_mut().zip(&other.probes) {
            *mine += theirs;
        }
        for (mine, theirs) in self.hits.iter_mut().zip(&other.hits) {
            *mine += theirs;
        }
        self.result_rows += other.result_rows;
    }

    /// The result of `q` over `d` and its trace. `tables` gives, per join,
    /// the footprint and the entries of its dimension table; `fact_rows` is
    /// the whole table, pruned or not, so traces compare across table
    /// shapes.
    pub(crate) fn finish(
        self,
        d: &SsbData,
        q: &StarQuery,
        tables: impl IntoIterator<Item = (usize, usize)>,
    ) -> (crate::QueryResult, QueryTrace) {
        let result = self.groups.to_result(q);
        let stages = (q.joins.iter().zip(tables).enumerate())
            .map(|(j, (join, (ht_bytes, entries)))| StageTrace {
                table: join.table,
                probes: self.probes[j],
                hits: self.hits[j],
                ht_bytes,
                dim_insert_frac: entries as f64 / join.keys(d).len().max(1) as f64,
            })
            .collect();
        let trace = QueryTrace {
            fact_rows: d.lineorder.rows(),
            pred_survivors: self.pred_survivors,
            stages,
            result_rows: self.result_rows,
            groups: result.rows(),
        };
        (result, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystal_core::selvec::set_bits;

    #[test]
    fn group_index_roundtrips() {
        let domains = [7usize, 1000, 25];
        for codes in [[0i32, 0, 0], [6, 999, 24], [3, 511, 7]] {
            let idx = group_index(&domains, &codes);
            assert_eq!(group_decode(&domains, idx), codes.to_vec());
        }
    }

    /// Paged merge and read-out against a dense oracle: a random `(slot,
    /// value)` stream split over 1, 2 and 8 partial accumulators, merged
    /// into one that touched nothing, holds slot for slot what element-wise
    /// addition of dense tables holds — one block per block the stream
    /// touched, zero past the domain in the last one — and reads out as the
    /// dense table does, over domains around the block size, the scalar
    /// domain, q3.2's 437 500 slots and q4.3's 1 750 000, with values that
    /// cancel to zero (a group dropped, as a dense read-out drops it).
    #[test]
    fn group_acc_merges_and_reads_out_like_dense_addition() {
        use crate::QueryResult;
        let d = SsbData::generate_scaled(1, 0.0005, 3);
        let queries = crate::queries::all_queries(&d);
        let query_of = |domain| queries.iter().find(|q| q.group_domain() == domain);
        // The dense table's read-out: every nonzero slot, its key decoded.
        let dense_result = |q: &StarQuery, dense: &[i64]| {
            let attrs = q.group_attrs();
            if attrs.is_empty() {
                return QueryResult::Scalar(dense[0]);
            }
            let domains: Vec<usize> = attrs.iter().map(|a| a.domain()).collect();
            let nonzero = dense.iter().enumerate().filter(|&(_, &sum)| sum != 0);
            QueryResult::from_groups(nonzero.map(|(idx, &sum)| {
                let codes = group_decode(&domains, idx).into_iter().zip(&attrs);
                (codes.map(|(c, a)| a.value(c as usize)).collect(), sum)
            }))
        };
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = move |below: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as usize % below
        };
        let mut read_out = 0;
        for domain in [1usize, 63, 64, 65, 512, 513, 437_500, 1_750_000] {
            for parts in [1usize, 2, 8] {
                let mut stream: Vec<(usize, i64)> = (0..200)
                    .map(|_| (draw(domain), draw(2_000_001) as i64 - 1_000_000))
                    .collect();
                // One group whose values cancel, spread over the parts.
                let cancelled = draw(domain);
                stream.retain(|&(slot, _)| slot != cancelled || domain == 1);
                stream.extend([(cancelled, 41), (cancelled, -50), (cancelled, 9)]);

                let mut dense = vec![0i64; domain];
                let mut partials = vec![GroupAcc::new(domain); parts];
                for (i, &(slot, value)) in stream.iter().enumerate() {
                    dense[slot] += value;
                    partials[i % parts].add(slot, value);
                }
                let mut merged = GroupAcc::new(domain);
                partials.iter().for_each(|p| merged.merge(p));

                let case = format!("domain {domain} x{parts}");
                let mut paged = vec![0i64; domain.next_multiple_of(AGG_BLOCK)];
                for (first, sums) in merged.allocated() {
                    paged[first..first + AGG_BLOCK].copy_from_slice(sums);
                }
                assert!(paged[domain..].iter().all(|&s| s == 0), "{case}");
                assert_eq!(paged[..domain], dense[..], "{case}");
                let mut touched: Vec<usize> = stream.iter().map(|&(s, _)| s / AGG_BLOCK).collect();
                touched.sort_unstable();
                touched.dedup();
                assert_eq!(merged.blocks(), touched.len(), "{case}");
                if let Some(q) = query_of(domain) {
                    assert_eq!(merged.to_result(q), dense_result(q, &dense), "{}", q.name);
                    read_out += 1;
                }
            }
        }
        assert_eq!(
            read_out, 9,
            "the scalar, the 437 500- and the 1 750 000-slot domain have queries"
        );
    }

    #[test]
    fn dim_lookup_filters_and_groups() {
        use crate::plan::{DimAttr, DimJoin, DimPred, DimTable, FactCol};
        let d = SsbData::generate_scaled(1, 0.0005, 3);
        let join = DimJoin {
            table: DimTable::Supplier,
            fact_fk: FactCol::SuppKey,
            filter: Some(DimPred::Eq(DimAttr::Region, 0)),
            group_attr: Some(DimAttr::Nation),
        };
        let lk = DimLookup::build(&d, &join);
        assert!(lk.inserted > 0 && lk.inserted < d.supplier.suppkey.len());
        for (row, &key) in d.supplier.suppkey.iter().enumerate() {
            let expect = if d.supplier.region[row] == 0 {
                Some(d.supplier.nation[row])
            } else {
                None
            };
            assert_eq!(lk.get(key), expect);
        }
        assert_eq!(lk.get(-5), None);
        assert_eq!(lk.get(i32::MAX), None);
    }

    /// The 13 canned plans and 60 random ones.
    fn plans(d: &SsbData) -> Vec<StarQuery> {
        let mut queries = crate::queries::all_queries(d);
        queries.extend((17..77).map(|seed| crate::arbitrary::random_star_query(d, seed)));
        queries
    }

    /// The two halves of every join of the canned and random plans, built
    /// and read through the cache alike: bit `i` is set exactly when the row
    /// with key `min_key + i` passes the filter — the date dimension's key
    /// range (`yyyymmdd`: mostly holes, and a ragged last word) included —
    /// a code is read only under a set bit and is then the row's dense group
    /// code, an ungrouped join holds no code column and answers 0, and
    /// `get` agrees with all of it.
    #[test]
    fn bitmap_marks_the_passing_rows_and_codes_are_read_under_it() {
        let d = SsbData::generate_scaled(1, 0.0005, 3);
        let mut dates = 0;
        for join in plans(&d).iter().flat_map(|q| &q.joins) {
            let (min_key, max_key) = d.key_range(join.table);
            let slots = (max_key - min_key + 1) as usize;
            let mut want = vec![None; slots];
            for (row, &key) in join.keys(&d).iter().enumerate() {
                let code = join.group_attr.map_or(0, |a| {
                    let dense = a.dense(join.row_group_value(&d, row));
                    dense as i32
                });
                want[(key - min_key) as usize] = join.row_matches(&d, row).then_some(code);
            }
            for lk in [DimLookup::build(&d, join), DimLookup::cached(&d, join)] {
                assert_eq!(lk.filter.bits.len(), slots.div_ceil(64), "{join:?}");
                assert_eq!(lk.codes.is_some(), join.group_attr.is_some(), "{join:?}");
                assert!(lk.codes.iter().all(|c| c.codes.len() == slots), "{join:?}");
                for i in 0..lk.filter.bits.len() * 64 {
                    let bit = lk.filter.bits[i / 64] >> (i % 64) & 1 == 1;
                    let expect = want.get(i).copied().flatten();
                    assert_eq!(bit, expect.is_some(), "{join:?} slot {i}");
                    assert_eq!(lk.get(min_key + i as i32), expect, "{join:?} slot {i}");
                }
                let members = want.iter().flatten().count();
                assert_eq!(lk.inserted, members, "{join:?}");
            }
            if join.table == DimTable::Date {
                dates += 1;
                assert!(slots > 8 * join.keys(&d).len(), "date keys leave holes");
                assert!(!slots.is_multiple_of(64), "a ragged last word");
            }
        }
        assert!(dates > 13, "random plans join the date dimension too");
    }

    /// A dimension table's entries, `(key, payload)` in slot order, read
    /// off the halves it shares.
    fn table_pairs(ht: &DeviceHashTable, min_key: i32) -> Vec<(i32, i32)> {
        let (members, codes) = ht.halves().expect("a dimension table shares its halves");
        let code = |slot: usize| codes.map_or(0, |c| i32::from(c.codes[slot]));
        let pairs = set_bits(&members.bits).map(|slot| (min_key + slot as i32, code(slot)));
        pairs.collect()
    }

    /// The device's table over a join's cached halves holds the scan's
    /// members with the scan's codes over the scan's key range, for every
    /// canned and random join. Over a table whose keys do not ascend (a
    /// clone's part, its rows reversed) it holds the scan's pairs in key
    /// order, and every engine still answers right.
    #[test]
    fn device_table_members_and_codes_are_the_scans() {
        use crate::engines::{gpu, reference};
        use crate::table::FactTable;
        let d = SsbData::generate_scaled(1, 0.0005, 3);
        let mut reversed = d.clone();
        let part = &mut reversed.part;
        for col in [
            &mut part.partkey,
            &mut part.mfgr,
            &mut part.category,
            &mut part.brand1,
        ] {
            col.reverse();
        }
        let mut device = Gpu::new(crystal_hardware::nvidia_v100());
        for q in plans(&d) {
            for join in &q.joins {
                for data in [&d, &reversed] {
                    let scan = DimBuild::scan(data, join);
                    let mut want: Vec<_> =
                        scan.keys.iter().copied().zip(scan.codes.clone()).collect();
                    if std::ptr::eq(data, &d) {
                        assert!(want.is_sorted(), "generated keys ascend");
                    }
                    want.sort_unstable();
                    let (ht, _) = dim_device_table(&mut device, data, join);
                    assert_eq!(table_pairs(&ht, scan.min_key), want, "{join:?}");
                    let shape = (ht.num_slots(), ht.entries());
                    assert_eq!(shape, (scan.key_range(), scan.inserted()), "{join:?}");
                    ht.free(&mut device);
                    device.take_reports();
                }
            }
        }
        let mut gpu = crystal_gpu_sim::Gpu::new(crystal_hardware::nvidia_v100());
        let mut sess = crystal_runtime::DeviceSession::new(&mut gpu);
        let table = FactTable::plain(&reversed);
        for q in crate::queries::all_queries(&reversed) {
            // Reversing the rows of a dimension changes no answer.
            let expected = reference::execute(&d, &q);
            assert_eq!(reference::execute(&reversed, &q), expected, "{}", q.name);
            let host = crate::exec::execute(&table, &q, 2, crate::exec::PipelineMode::Vectorized);
            let device = gpu::execute(&mut sess, &table, &q).unwrap();
            assert_eq!(host.0, expected, "{}", q.name);
            assert_eq!(
                (device.result, device.trace),
                (expected, Some(host.1)),
                "{}",
                q.name
            );
        }
    }

    /// A session's table for a canned join holds the very halves the
    /// dataset's cache hands the host engine, not copies, and the dataset's
    /// byte count is blind to the session's references to them. Serving a
    /// starved stream over eight shards twice through one session, which
    /// evicts tables and rebuilds them from the halves, answers the same
    /// bytes both times, the reference's.
    #[test]
    fn a_session_table_shares_the_datasets_halves() {
        use crate::engines::{gpu, reference};
        use crate::table::FactTable;
        use crate::{FactEncodings, PartitionedFact};
        use crystal_runtime::DeviceSession;
        let d = SsbData::generate_scaled(1, 0.002, 3);
        let queries = crate::queries::all_queries(&d);
        let mode = crate::exec::PipelineMode::Vectorized;
        for q in &queries {
            crate::exec::execute(&FactTable::plain(&d), q, 1, mode);
        }
        let held = d.dim_cache_stats();
        let mut device = Gpu::new(crystal_hardware::nvidia_v100());
        let mut sess = DeviceSession::new(&mut device);
        for join in queries.iter().flat_map(|q| &q.joins) {
            let (fp, bytes) = (dim_join_fingerprint(&d, join), dim_table_bytes(&d, join));
            let built = sess.try_hash_table(fp, bytes, |gpu| dim_device_table(gpu, &d, join));
            let (ht, _) = built.expect("fits a V100");
            let lk = DimLookup::cached(&d, join);
            let (members, codes) = ht.halves().expect("shared halves");
            assert!(Arc::ptr_eq(members, &lk.filter), "{join:?}: members");
            match (codes, &lk.codes) {
                (Some(a), Some(b)) => assert!(Arc::ptr_eq(a, b), "{join:?}: codes"),
                (None, None) => {}
                _ => panic!("{join:?}: a code column exactly when grouped"),
            }
        }
        let now = d.dim_cache_stats();
        assert_eq!(now.misses, held.misses, "nothing rebuilt");
        assert_eq!((now.bytes, now.evictions), (held.bytes, held.evictions));
        drop(sess);

        let shards = PartitionedFact::partition(&d, 8, &FactEncodings::plain());
        let table = FactTable::sharded(&d, &shards);
        let mut small = crystal_hardware::nvidia_v100();
        small.mem_capacity = 64 << 20;
        let mut device = Gpu::new(small);
        let mut sess = DeviceSession::with_budget(&mut device, 400_000);
        let mut serve = || {
            let runs = queries
                .iter()
                .map(|q| gpu::execute(&mut sess, &table, q).unwrap());
            let answers = runs.map(|run| format!("{:?} {:?}", run.result, run.trace));
            answers.collect::<Vec<_>>()
        };
        let (first, second) = (serve(), serve());
        assert_eq!(first, second);
        for (q, answer) in queries.iter().zip(&first) {
            let want = format!("{:?}", reference::execute(&d, q));
            assert!(answer.starts_with(&want), "{}", q.name);
        }
        assert!(sess.stats().evictions > 0, "{:?}", sess.stats());
        assert!(sess.stats().ht_misses > 13, "tables evicted and rebuilt");
        let now = d.dim_cache_stats();
        assert_eq!(now.misses, held.misses, "nothing rebuilt");
        assert_eq!((now.bytes, now.evictions), (held.bytes, held.evictions));
    }

    /// A repeated query scans no dimension: the second run of each canned
    /// query is all hits, on the host and — through a fresh session, whose
    /// memoizer is cold — on the device; joins that differ only in the
    /// filter share their code column, and an ungrouped join asks for none.
    #[test]
    fn a_repeated_query_scans_no_dimension() {
        use crate::engines::gpu;
        use crate::table::FactTable;
        let d = SsbData::generate_scaled(1, 0.0005, 3);
        let table = FactTable::plain(&d);
        let mode = crate::exec::PipelineMode::Vectorized;
        assert_eq!(d.dim_cache_stats(), Default::default());
        for q in crate::queries::all_queries(&d) {
            let first = crate::exec::execute(&table, &q, 1, mode);
            let cold = d.dim_cache_stats();
            assert_eq!(
                crate::exec::execute(&table, &q, 1, mode),
                first,
                "{}",
                q.name
            );
            let mut gpu = crystal_gpu_sim::Gpu::new(crystal_hardware::nvidia_v100());
            let mut sess = crystal_runtime::DeviceSession::new(&mut gpu);
            let device = gpu::execute(&mut sess, &table, &q).unwrap();
            assert_eq!((device.result, device.trace.unwrap()), first, "{}", q.name);
            let warm = d.dim_cache_stats();
            assert_eq!(warm.misses, cold.misses, "{} scanned again", q.name);
            let halves = q.joins.len() + q.group_attrs().len();
            assert_eq!(warm.hits - cold.hits, 2 * halves as u64, "{}", q.name);
            assert!(warm.bytes <= d.dim_cache_bound(), "{}", q.name);
        }
        // q2.1 and q2.2 filter part differently and group alike.
        let fresh = d.clone();
        assert_eq!(fresh.dim_cache_stats(), Default::default());
        let by_name = |name| {
            crate::queries::all_queries(&fresh)
                .into_iter()
                .find(|q| q.name == name)
        };
        let (q21, q22, q41) = (by_name("q2.1"), by_name("q2.2"), by_name("q4.1"));
        let (q21, q22, q41) = (q21.unwrap(), q22.unwrap(), q41.unwrap());
        let lookups = |q: &StarQuery| -> Vec<DimLookup> {
            q.joins
                .iter()
                .map(|j| DimLookup::cached(&fresh, j))
                .collect()
        };
        let (a, b) = (lookups(&q21), lookups(&q22));
        for (x, y) in a.iter().zip(&b) {
            match (&x.codes, &y.codes) {
                (Some(x), Some(y)) => assert!(Arc::ptr_eq(x, y), "one code column per attribute"),
                (None, None) => {}
                _ => panic!("q2.1 and q2.2 group alike"),
            }
        }
        let ungrouped: Vec<_> = q41
            .joins
            .iter()
            .filter(|j| j.group_attr.is_none())
            .collect();
        assert_eq!(
            ungrouped.len(),
            2,
            "q4.1's supplier and part joins filter only"
        );
        let before = fresh.dim_cache_stats();
        for join in ungrouped {
            assert!(DimLookup::cached(&fresh, join).codes.is_none());
        }
        let after = fresh.dim_cache_stats();
        assert_eq!(
            (after.hits + after.misses) - (before.hits + before.misses),
            2,
            "an ungrouped join reads one half"
        );
    }

    /// The bound is unobservable in every answer: with no room at all, with
    /// room for one code column (so that every query evicts) and with the
    /// default, the canned and random plans give the reference's result and
    /// one trace through the morsel executor, a stepped host job and the
    /// device — and the cache never holds more than its bound.
    #[test]
    fn any_cache_bound_gives_the_same_answers() {
        use crate::engines::{gpu, reference};
        use crate::exec::{execute, HostQueryJob, PipelineMode};
        use crate::table::FactTable;
        let base = SsbData::generate_scaled(1, 0.0005, 3);
        let one_column = 2 * part_slots(&base);
        let default = base.dim_cache_bound();
        assert!(one_column < default);
        let mut traces: Vec<Vec<QueryTrace>> = Vec::new();
        for bound in [0, one_column, default] {
            let d = base.clone().with_dim_cache_bound(bound);
            let table = FactTable::plain(&d);
            let mut gpu = crystal_gpu_sim::Gpu::new(crystal_hardware::nvidia_v100());
            let mut sess = crystal_runtime::DeviceSession::new(&mut gpu);
            let within = |what: &str| {
                let held = d.dim_cache_stats().bytes;
                assert!(
                    held <= bound,
                    "{what}: {held} B held under a bound of {bound}"
                );
            };
            let queries = plans(&d);
            let mut per_query = Vec::new();
            for q in &queries {
                let expected = reference::execute(&d, q);
                let (result, trace) = execute(&table, q, 2, PipelineMode::Vectorized);
                within(q.name);
                assert_eq!(result, expected, "{} bound {bound}", q.name);
                let mut job = HostQueryJob::over(&table, q, PipelineMode::TupleAtATime);
                within(q.name);
                while !job.step(1009) {}
                assert_eq!(
                    job.finish(),
                    (expected.clone(), trace.clone()),
                    "{}",
                    q.name
                );
                let run = gpu::execute(&mut sess, &table, q).unwrap();
                within(q.name);
                assert_eq!(
                    (run.result, run.trace.as_ref()),
                    (expected, Some(&trace)),
                    "{}",
                    q.name
                );
                per_query.push(trace);
            }
            let stats = d.dim_cache_stats();
            match bound {
                0 => assert_eq!((stats.hits, stats.bytes), (0, 0), "nothing is ever held"),
                b if b == one_column => assert!(stats.evictions as usize >= queries.len() / 2),
                _ => assert!(stats.hits > stats.misses, "{stats:?}"),
            }
            traces.push(per_query);
        }
        assert!(traces.windows(2).all(|w| w[0] == w[1]));
    }

    fn part_slots(d: &SsbData) -> usize {
        let (min, max) = d.key_range(DimTable::Part);
        (max - min + 1) as usize
    }

    /// A clone starts with nothing built, and what it builds comes from its
    /// own tables: edited (every supplier moved to region 0), it answers as
    /// the reference over the edited tables does, while the original keeps
    /// answering from its own.
    #[test]
    fn a_clone_starts_empty_and_answers_from_its_own_tables() {
        use crate::engines::reference;
        use crate::exec::{execute, PipelineMode};
        use crate::table::FactTable;
        let d = SsbData::generate_scaled(1, 0.0005, 3);
        let q = crate::queries::query(&d, crate::QueryId::new(2, 1));
        let run = |d: &SsbData| execute(&FactTable::plain(d), &q, 1, PipelineMode::Vectorized).0;
        let original = run(&d);
        assert!(d.dim_cache_stats().misses > 0);

        let mut edited = d.clone();
        assert_eq!(edited.dim_cache_stats(), Default::default());
        edited.supplier.region.fill(0);
        let moved = run(&edited);
        assert_eq!(moved, reference::execute(&edited, &q));
        assert_ne!(moved, original);
        assert_eq!(run(&d), original);
        assert_eq!(original, reference::execute(&d, &q));
    }

    /// Eight threads start the canned queries on one dataset at once, under
    /// a bound that makes them evict each other's parts: every answer is
    /// the reference's.
    #[test]
    fn racing_threads_share_one_dataset() {
        use crate::engines::reference;
        use crate::exec::{execute, PipelineMode};
        use crate::table::FactTable;
        let base = SsbData::generate_scaled(1, 0.0005, 3);
        let d = &base.clone().with_dim_cache_bound(2 * part_slots(&base));
        let queries = &crate::queries::all_queries(d);
        let expected: &Vec<_> = &queries.iter().map(|q| reference::execute(d, q)).collect();
        let start = &std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8 {
                scope.spawn(move || {
                    let table = FactTable::plain(d);
                    start.wait();
                    for i in 0..queries.len() {
                        let at = (i + 3 * t) % queries.len();
                        let got = execute(&table, &queries[at], 1, PipelineMode::Vectorized).0;
                        assert_eq!(got, expected[at], "thread {t} {}", queries[at].name);
                    }
                });
            }
        });
        let stats = d.dim_cache_stats();
        assert!(stats.hits > 0 && stats.evictions > 0, "{stats:?}");
        assert!(stats.bytes <= d.dim_cache_bound());
    }

    #[test]
    fn trace_selectivity_math() {
        let t = QueryTrace {
            fact_rows: 1000,
            pred_survivors: 1000,
            stages: vec![
                StageTrace {
                    table: DimTable::Supplier,
                    probes: 1000,
                    hits: 200,
                    ht_bytes: 0,
                    dim_insert_frac: 0.2,
                },
                StageTrace {
                    table: DimTable::Part,
                    probes: 200,
                    hits: 8,
                    ht_bytes: 0,
                    dim_insert_frac: 0.04,
                },
            ],
            result_rows: 8,
            groups: 3,
        };
        assert!((t.selectivity_before_stage(0) - 1.0).abs() < 1e-12);
        assert!((t.selectivity_before_stage(1) - 0.2).abs() < 1e-12);
        assert!((t.selectivity_before_stage(2) - 0.008).abs() < 1e-12);
        assert!((t.result_frac() - 0.008).abs() < 1e-12);
    }
}
