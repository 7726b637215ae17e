//! The morsel-driven parallel star-query executor.
//!
//! Evaluates *any* [`StarQuery`] descriptor — not just the 13 canned
//! benchmark queries — through one shared pipeline: fact-range predicates,
//! ordered dimension semi-joins via perfect-hash lookups, and
//! grouped/scalar aggregation. Scheduling is morsel-driven (Leis et al.):
//! workers steal [`MORSEL_SIZE`]-row morsels from a shared atomic work
//! queue instead of owning a static partition, so a skewed query cannot
//! strand one core with all the surviving rows. Within a morsel the rows
//! are processed one L1-sized vector ([`VECTOR_SIZE`]) at a time through
//! the branch-free selection-vector kernels of [`crystal_core::selvec`].
//!
//! Two pipeline styles interpret the same plan:
//!
//! * [`PipelineMode::Vectorized`] — the paper's "Standalone (CPU)" style:
//!   selection vectors with compaction per stage (Section 3.2 /
//!   Polychroniou et al.). [`crate::engines::cpu`] lowers onto this.
//! * [`PipelineMode::TupleAtATime`] — Hyper-style compiled push loops:
//!   one branching row loop, no selection vectors.
//!   [`crate::engines::hyper`] lowers onto this.
//!
//! **Build phase.** A join is two halves over the key range recorded at
//! generation: the membership bitmap of its `(table, filter)`, one bit per
//! key, and — when it carries a group attribute — the 2-byte dense-code
//! column of its `(table, attribute)`. Each half is one columnar pass over
//! the dimension (columns resolved once from the descriptor, no per-row
//! match on the plan), made once per dataset: every plan assembles its
//! [`DimLookup`]s from the dataset's byte-bounded cache
//! ([`SsbData::dim_cache_stats`]), so a repeated query builds nothing, joins
//! that differ only in the filter share the code column, and an ungrouped
//! join has none.
//!
//! **Joins are bitmap semi-joins; codes are gathered late.** The SF-20
//! customer and part slot arrays (1.2 MB, 2 MB) fit a 2 MB L2 on paper and
//! not in a pipeline: sharing it with the streaming fact columns, a first
//! join that gathered a slot per row ran at 270–300 Mrows/s in situ
//! against 736 in isolation. So a join stage tests one bit per row (75 KB
//! and 125 KB bitmaps: resident under any fact stream) and only compacts
//! the selection. The first join of a plan without fact predicates reads
//! its foreign keys as a contiguous chunk — batch-decoded when packed —
//! and writes the survivors directly ([`sel_semijoin_init`]); every other
//! join refines the selection in place ([`sel_semijoin_refine`]). After the
//! last join, the rows that survived all of them — a few percent at most —
//! get their mixed-radix group index built column-at-a-time, one
//! [`sel_group_digit`] gather per group-carrying join, and one pass adds
//! their values into the worker's group accumulator, whose 512-slot blocks
//! exist only where a value was added. Each stage prefetches, for its
//! survivors, the column the next one gathers. The group digits and the
//! aggregate inputs stage the survivors' values a vector at a time through
//! `ColumnRead::gather` into per-worker scratch; so do the later predicates
//! and joins over a packed column, which then test them with the same
//! match-bitmap engines as the contiguous stages (over a plain column they
//! stay one fused predicated-store pass).
//!
//! **Compressed execution.** Every plan column is resolved once to a
//! [`ColumnSlice`] — plain or bit-packed — and each kernel call
//! dispatches on the variant, so the pipeline runs the fused
//! unpack-and-compare monomorphization for packed columns and the plain
//! one otherwise, per column, in both modes. No column is ever
//! decompressed beyond the one vector of values a kernel stages.
//!
//! **One table shape.** [`execute`] takes a [`FactTable`] — plain columns,
//! one encoded table or the shards of a partitioned one — and scans the
//! segments zone-map pruning leaves live, one after the other, into one
//! merge-aggregation. Pruned segments hold no row passing the fact
//! predicates and the aggregate is commutative `i64` addition over one
//! dense group domain, so result *and* trace are byte-identical for every
//! shape; `fact_rows` stays the whole table's row count.
//!
//! **Chunked kernels, full vectors.** The scan stage hands the two-phase
//! selection kernels ([`crystal_core::selvec`]) exactly one decode chunk
//! at a time: batch decode (SIMD over packed words, zero-copy over plain
//! slices), branch-free compare into `u64` match bitmaps, `trailing_zeros`
//! compaction. With a fact predicate its survivors accumulate across
//! chunks, so the stages after it always see a full vector (see
//! `vectorized_range`). [`VECTOR_SIZE`] equals the kernel
//! [`CHUNK`] and [`MORSEL_SIZE`] is a multiple of it (checked at compile
//! time), so morsel boundaries never split a decode chunk mid-stream.
//!
//! All variants produce identical [`QueryResult`]s and [`QueryTrace`]s;
//! the trace counts are data-determined and independent of the morsel
//! size, the thread count and the encodings, which the randomized
//! differential suite
//! (`tests/differential_random.rs`) checks against the row-wise oracle on
//! hundreds of generated queries.

use crystal_core::selvec::{
    sel_between_init, sel_between_refine, sel_group_digit, sel_init, sel_semijoin_init,
    sel_semijoin_refine, CHUNK,
};
use crystal_cpu::exec::{morsel_map, MorselQueue, MORSEL_SIZE, VECTOR_SIZE};

// The pipeline hands the chunked kernels one vector at a time, and morsels
// are handed out in whole vectors — both must nest cleanly inside the
// kernels' decode chunk for the two-phase path to run full chunks.
const _: () = assert!(
    VECTOR_SIZE == CHUNK,
    "pipeline vector must equal the kernel chunk"
);
const _: () = assert!(
    MORSEL_SIZE.is_multiple_of(CHUNK),
    "morsels must hold whole decode chunks"
);
use crystal_storage::encoding::{ColumnRead, ColumnSlice};

use crate::data::SsbData;
use crate::engines::{dim_table_bytes, group_key, DimLookup, QueryAcc, QueryTrace};
use crate::partition::PartitionedFact;
use crate::plan::StarQuery;
use crate::table::{FactSegment, FactTable};
use crate::QueryResult;

/// How a worker interprets the plan within each morsel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// Vector-at-a-time selection-vector pipeline (fused, branch-free).
    Vectorized,
    /// Tuple-at-a-time push pipeline (branching, Hyper-style).
    TupleAtATime,
}

/// Per-worker scratch buffers, allocated once per worker (never per
/// morsel, let alone per vector): the vectorized pipeline's selection
/// vector, group-index column and staging buffers, and the tuple pipeline's
/// per-row code buffer.
struct Scratch {
    /// Two vectors long: up to `VECTOR_SIZE - 1` rows pending from earlier
    /// chunks plus one chunk's survivors (`vectorized_range`).
    sel: [u32; 2 * VECTOR_SIZE],
    /// Mixed-radix group index of each row that survived every join
    /// (`u32`: [`check_group_domain`]).
    gidx: [u32; VECTOR_SIZE],
    /// A column's values at a vector's rows, staged for a gather-fed
    /// predicate, join or group digit.
    keys: [i32; CHUNK],
    /// The aggregate inputs of a vector's surviving rows, in
    /// [`crate::plan::AggExpr::columns`] order.
    inputs: [[i32; CHUNK]; 2],
    tuple_codes: Vec<i32>,
}

impl Scratch {
    fn new(joins: usize) -> Self {
        Scratch {
            sel: [0u32; 2 * VECTOR_SIZE],
            gidx: [0u32; VECTOR_SIZE],
            keys: [0i32; CHUNK],
            inputs: [[0i32; CHUNK]; 2],
            tuple_codes: vec![0i32; joins],
        }
    }
}

/// Immutable per-query execution context shared by all workers. Columns
/// are pre-resolved [`ColumnSlice`]s, so workers dispatch to the packed or
/// plain kernel instantiation per column without touching the plan again.
struct QueryCtx<'a> {
    q: &'a StarQuery,
    lookups: &'a [DimLookup],
    /// Fact FK column per join (resolved once).
    fk_cols: &'a [ColumnSlice<'a>],
    /// Fact predicate columns (resolved once).
    pred_cols: &'a [ColumnSlice<'a>],
    /// Aggregate input columns, in [`crate::plan::AggExpr::columns`] order.
    agg_cols: &'a [ColumnSlice<'a>],
}

impl QueryCtx<'_> {
    /// Prefetches, for the ascending `rows` that stage `stage` just
    /// selected — the fact predicates, then the joins, numbered through —
    /// what the next stage gathers: the next predicate's column or join's
    /// foreign key, after the last join the aggregate inputs. Sparse rows
    /// only: at one row in four or denser the next stage walks adjacent
    /// lines, where a hint per row (16 a line) measured +20 % on a plan
    /// whose first predicate keeps every row and none at all was fastest.
    #[inline]
    fn prefetch_after(&self, stage: usize, rows: &[u32]) {
        let span = rows.last().map_or(0, |last| last - rows[0]) as usize;
        if span < 4 * rows.len() {
            return;
        }
        let next = match self.pred_cols.iter().chain(self.fk_cols).nth(stage + 1) {
            Some(col) => std::slice::from_ref(col),
            None => self.agg_cols,
        };
        for col in next {
            for &row in rows {
                col.prefetch_row(row as usize);
            }
        }
    }
}

/// Kernel dispatch: one match per kernel call, not per value, so the inner
/// loops stay monomorphic (plain) or fused-unpack (packed).
macro_rules! on_encoding {
    ($col:expr, |$c:ident| $call:expr) => {
        match $col {
            ColumnSlice::Plain($c) => $call,
            ColumnSlice::Packed(ref $c) => $call,
        }
    };
}

/// Executes a query over the live segments of `table` with the default
/// morsel size; returns its result and trace.
pub fn execute(
    table: &FactTable<'_>,
    q: &StarQuery,
    threads: usize,
    mode: PipelineMode,
) -> (QueryResult, QueryTrace) {
    execute_with(table, q, threads, mode, MORSEL_SIZE)
}

/// [`execute`] with work-stealing morsels of `morsel` rows (tests shrink
/// it until scheduling effects would surface; results and traces are the
/// same at every size).
pub fn execute_with(
    table: &FactTable<'_>,
    q: &StarQuery,
    threads: usize,
    mode: PipelineMode,
    morsel: usize,
) -> (QueryResult, QueryTrace) {
    let plan = Plan::new(table.data(), q);
    plan.finish(plan.run(&live_segments(table, q), threads, mode, morsel))
}

/// A vectorized [`execute`] short of its result and trace: the host part
/// of a hybrid placement, which the device part finishes.
pub(crate) fn accumulate(table: &FactTable<'_>, q: &StarQuery, threads: usize) -> QueryAcc {
    let segments = live_segments(table, q);
    Plan::new(table.data(), q).run(&segments, threads, PipelineMode::Vectorized, MORSEL_SIZE)
}

/// The plan's predicate, foreign-key and aggregate-input columns,
/// resolved once against one physical table.
type Columns<'a> = (
    Vec<ColumnSlice<'a>>,
    Vec<ColumnSlice<'a>>,
    Vec<ColumnSlice<'a>>,
);

/// One contiguous run of fact rows a scan covers: its resolved columns
/// and its row count. Row ids are `u32` from the selection vector on, so a
/// segment holds at most `u32::MAX` rows ([`check_segment_rows`]).
type Segment<'a> = (Columns<'a>, usize);

/// Refuses, where a segment enters the executor, one whose row ids — or
/// the exclusive end of whose last range — would wrap the selection
/// vector's `u32` (a larger table has to be partitioned).
fn check_segment_rows(rows: usize) {
    assert!(
        rows <= u32::MAX as usize,
        "a fact segment of {rows} rows does not fit the executor's u32 row ids \
         (at most {} rows per segment; partition the table)",
        u32::MAX
    );
}

/// Refuses, where a plan enters the executor, a dense group domain whose
/// indexes would not fit the `u32` column the vectorized pipeline builds
/// them in.
fn check_group_domain(domain: usize) {
    assert!(
        domain <= u32::MAX as usize,
        "a group domain of {domain} does not fit the executor's u32 group index \
         (at most {} groups)",
        u32::MAX
    );
}

/// The segments of `table` pruning leaves live for `q`, their plan columns
/// resolved. Empty segments are dropped: one would stall a one-row grant
/// on its boundary.
fn live_segments<'a>(table: &FactTable<'a>, q: &StarQuery) -> Vec<Segment<'a>> {
    let resolve = |seg: FactSegment<'a>| {
        check_segment_rows(seg.rows());
        let cols = (
            q.fact_preds.iter().map(|p| seg.col(p.col)).collect(),
            q.joins.iter().map(|j| seg.col(j.fact_fk)).collect(),
            q.agg.columns().iter().map(|c| seg.col(*c)).collect(),
        );
        (cols, seg.rows())
    };
    let live = table.live(q).into_iter().map(|i| table.segments()[i]);
    live.filter(|seg| seg.rows() > 0).map(resolve).collect()
}

/// What every run of one query shares, assembled once before the
/// scan: the dimension lookups (from the dataset's cached halves).
struct Plan<'a> {
    d: &'a SsbData,
    q: &'a StarQuery,
    lookups: Vec<DimLookup>,
}

impl<'a> Plan<'a> {
    fn new(d: &'a SsbData, q: &'a StarQuery) -> Self {
        check_group_domain(q.group_domain());
        Plan {
            d,
            q,
            lookups: q.joins.iter().map(|j| DimLookup::cached(d, j)).collect(),
        }
    }

    fn ctx<'c>(&'c self, cols: &'c Columns<'_>) -> QueryCtx<'c> {
        let (pred_cols, fk_cols, agg_cols) = cols;
        QueryCtx {
            q: self.q,
            lookups: &self.lookups,
            fk_cols,
            pred_cols,
            agg_cols,
        }
    }

    /// One worker's private accumulator and scratch. Workers never share
    /// mutable state — merging happens once, after the queue drains.
    fn worker(&self) -> (QueryAcc, Scratch) {
        (QueryAcc::new(self.q), Scratch::new(self.q.joins.len()))
    }

    /// Runs every segment to completion in morsels of `morsel` rows, one
    /// segment after the other, and merges all workers' accumulators.
    fn run(
        &self,
        segments: &[Segment<'_>],
        threads: usize,
        mode: PipelineMode,
        morsel: usize,
    ) -> QueryAcc {
        let mut workers: Vec<QueryAcc> = Vec::new();
        for (cols, rows) in segments {
            let ctx = self.ctx(cols);
            workers.extend(morsel_map(*rows, threads, morsel, |queue: &MorselQueue| {
                let (mut acc, mut scratch) = self.worker();
                while let Some(m) = queue.claim() {
                    scan_range(&ctx, mode, m.start, m.end, &mut acc, &mut scratch);
                }
                acc
            }));
        }
        // The first worker's accumulator takes the others in; no worker at
        // all (every shard pruned) is the empty input.
        let merged = workers.into_iter().reduce(|mut total, w| {
            total.merge(&w);
            total
        });
        merged.unwrap_or_else(|| QueryAcc::new(self.q))
    }

    /// The result and trace of everything `acc` holds — the one exit path
    /// shared by the run to completion and the resumable [`HostQueryJob`].
    fn finish(&self, acc: QueryAcc) -> (QueryResult, QueryTrace) {
        let d = self.d;
        let tables = (self.q.joins.iter().zip(&self.lookups))
            .map(|(join, lk)| (dim_table_bytes(d, join), lk.inserted));
        acc.finish(d, self.q, tables)
    }
}

/// A resumable host-side query execution: the same per-vector pipeline as
/// [`execute`], sliced into bounded row grants instead of run to
/// completion, so a concurrent scheduler can interleave many in-flight
/// queries on the host with per-tenant fairness.
///
/// A job scans the segments of a [`FactTable`] that pruning leaves live
/// (none at all when everything is pruned; the host half of a hybrid
/// placement hands it a `FactTable::subset`). Construction resolves the
/// plan once (dimension lookups, column slices); each
/// [`HostQueryJob::step`] advances the `(segment, offset)` cursor by a
/// bounded number of rows, crossing segment boundaries mid-grant, and
/// yields. A single accumulator is carried across steps and segments
/// (merge-aggregation by construction), so any grant pattern produces the
/// worker state of a one-thread run — results are byte-identical to
/// [`execute`] for every interleaving, which the concurrent differential
/// suite asserts.
pub struct HostQueryJob<'a> {
    plan: Plan<'a>,
    segments: Vec<Segment<'a>>,
    mode: PipelineMode,
    acc: QueryAcc,
    scratch: Scratch,
    /// Current segment and the next unprocessed row within it.
    segment: usize,
    cursor: usize,
    scanned: usize,
    remaining: usize,
}

impl<'a> HostQueryJob<'a> {
    /// A job over the segments of `table` live for `q`.
    pub fn over(table: &FactTable<'a>, q: &'a StarQuery, mode: PipelineMode) -> Self {
        let segments = live_segments(table, q);
        let plan = Plan::new(table.data(), q);
        let (acc, scratch) = plan.worker();
        HostQueryJob {
            remaining: segments.iter().map(|(_, rows)| rows).sum(),
            plan,
            segments,
            mode,
            acc,
            scratch,
            segment: 0,
            cursor: 0,
            scanned: 0,
        }
    }

    /// Pinned by the benchmark harness (`e2e/src/sut.rs`), to go with its
    /// Step 0: [`HostQueryJob::over`] the plain table.
    pub fn new(d: &'a SsbData, q: &'a StarQuery, mode: PipelineMode) -> Self {
        Self::over(&FactTable::plain(d), q, mode)
    }

    /// Rows not yet processed, across the remaining segments.
    pub fn remaining_rows(&self) -> usize {
        self.remaining
    }

    /// Rows scanned so far (the pruning band's numerator once done).
    pub fn rows_scanned(&self) -> usize {
        self.scanned
    }

    /// Processes up to `max_rows` rows, crossing segment boundaries as
    /// needed, and yields. Returns `true` once every segment is done.
    pub fn step(&mut self, max_rows: usize) -> bool {
        let mut budget = max_rows.min(self.remaining);
        while budget > 0 {
            let (cols, rows) = &self.segments[self.segment];
            let start = self.cursor;
            let end = start + budget.min(rows - start);
            let ctx = self.plan.ctx(cols);
            scan_range(
                &ctx,
                self.mode,
                start,
                end,
                &mut self.acc,
                &mut self.scratch,
            );
            budget -= end - start;
            self.scanned += end - start;
            self.remaining -= end - start;
            self.cursor = end;
            if end == *rows {
                self.segment += 1;
                self.cursor = 0;
            }
        }
        self.remaining == 0
    }

    /// Assembles the merged result and trace; callable once every segment
    /// has been scanned.
    pub fn finish(self) -> (QueryResult, QueryTrace) {
        assert_eq!(self.remaining, 0, "finished a job with rows remaining");
        self.plan.finish(self.acc)
    }
}

/// Pinned by the benchmark harness (`e2e/src/sut.rs`), to go with its
/// Step 0: [`execute`] over the sharded table, plus the rows it scanned.
pub fn execute_partitioned(
    d: &SsbData,
    pf: &PartitionedFact,
    q: &StarQuery,
    threads: usize,
    mode: PipelineMode,
) -> (QueryResult, QueryTrace, usize) {
    let table = FactTable::sharded(d, pf);
    let (result, trace) = execute(&table, q, threads, mode);
    (result, trace, table.live_rows(q))
}

/// One contiguous row range through the pipeline `mode` selects.
#[inline]
fn scan_range(
    ctx: &QueryCtx<'_>,
    mode: PipelineMode,
    start: usize,
    end: usize,
    acc: &mut QueryAcc,
    scratch: &mut Scratch,
) {
    match mode {
        PipelineMode::Vectorized => vectorized_range(ctx, start, end, acc, scratch),
        PipelineMode::TupleAtATime => tuple_range(ctx, start, end, acc, scratch),
    }
}

/// Vector-at-a-time pipeline over one contiguous row range, with
/// per-column packed/plain dispatch at every stage.
///
/// Without a fact predicate every chunk is a full vector: the first join
/// semi-joins it straight off the contiguous foreign keys (no identity
/// selection in between) and [`join_aggregate`] takes the survivors on.
/// With one, the first predicate scans chunk by chunk and *appends* its
/// survivors to the selection; the later stages run once a full vector is
/// pending (or the range ends), so a selective predicate hands them 1 024
/// rows at a time instead of a dozen. Either way each stage prefetches the
/// next one's column for the rows it selected: a whole vector's misses are
/// in flight before the first is needed.
/// Nothing stays pending when the range ends, so any split of a table
/// into ranges yields the same accumulator.
fn vectorized_range(
    ctx: &QueryCtx<'_>,
    range_start: usize,
    range_end: usize,
    acc: &mut QueryAcc,
    scratch: &mut Scratch,
) {
    let Some(first) = ctx.q.fact_preds.first() else {
        let mut start = range_start;
        while start < range_end {
            let end = (start + VECTOR_SIZE).min(range_end);
            acc.pred_survivors += end - start;
            let sel = &mut scratch.sel;
            let count = match ctx.fk_cols.first() {
                None => sel_init(start, end, sel),
                Some(&fk) => {
                    let spec = ctx.lookups[0].spec();
                    let hits = on_encoding!(fk, |c| sel_semijoin_init(c, &spec, start, end, sel));
                    acc.probes[0] += end - start;
                    acc.hits[0] += hits;
                    ctx.prefetch_after(0, &sel[..hits]);
                    hits
                }
            };
            // Join 0, where the plan has one, ran above.
            join_aggregate(ctx, 1, count, acc, scratch);
            start = end;
        }
        return;
    };
    let (lo, hi) = (first.lo, first.hi);
    let mut pending = 0usize;
    let mut start = range_start;
    while start < range_end {
        let end = (start + VECTOR_SIZE).min(range_end);
        // `pending < VECTOR_SIZE` here, so the chunk's survivors fit.
        let tail = &mut scratch.sel[pending..];
        let found = on_encoding!(ctx.pred_cols[0], |c| sel_between_init(
            c, lo, hi, start, end, tail
        ));
        ctx.prefetch_after(0, &tail[..found]);
        pending += found;
        if pending >= VECTOR_SIZE {
            refine_join_aggregate(ctx, VECTOR_SIZE, acc, scratch);
            scratch.sel.copy_within(VECTOR_SIZE..pending, 0);
            pending -= VECTOR_SIZE;
        }
        start = end;
    }
    refine_join_aggregate(ctx, pending, acc, scratch);
}

/// The stages after the first fact predicate over the first `count`
/// selected rows: the remaining predicates, then [`join_aggregate`].
#[inline]
fn refine_join_aggregate(
    ctx: &QueryCtx<'_>,
    mut count: usize,
    acc: &mut QueryAcc,
    scratch: &mut Scratch,
) {
    let (sel, keys) = (&mut scratch.sel, &mut scratch.keys);
    let preds = ctx.q.fact_preds.iter().zip(ctx.pred_cols).enumerate();
    for (k, (p, col)) in preds.skip(1) {
        count = on_encoding!(*col, |c| sel_between_refine(
            c, p.lo, p.hi, sel, count, keys
        ));
        ctx.prefetch_after(k, &sel[..count]);
    }
    acc.pred_survivors += count;
    join_aggregate(ctx, 0, count, acc, scratch);
}

/// The back end every vector shares: the ordered semi-joins from join
/// `first_join` on over the first `count` (at most one vector of) selected
/// rows, compacting per stage; then, for the rows that survived them all,
/// the group index — one digit gathered per group-carrying join — and the
/// aggregate into the worker's accumulator.
#[inline(always)]
fn join_aggregate(
    ctx: &QueryCtx<'_>,
    first_join: usize,
    mut count: usize,
    acc: &mut QueryAcc,
    scratch: &mut Scratch,
) {
    debug_assert!(count <= VECTOR_SIZE);
    let Scratch {
        sel,
        gidx,
        keys,
        inputs,
        ..
    } = scratch;
    for j in first_join..ctx.fk_cols.len() {
        if count == 0 {
            break;
        }
        acc.probes[j] += count;
        let spec = ctx.lookups[j].spec();
        count = on_encoding!(ctx.fk_cols[j], |c| sel_semijoin_refine(
            c, &spec, sel, count, keys
        ));
        acc.hits[j] += count;
        ctx.prefetch_after(ctx.pred_cols.len() + j, &sel[..count]);
    }
    acc.result_rows += count;

    let (sel, gidx) = (&sel[..count], &mut gidx[..count]);
    gidx.fill(0);
    for &(j, dom) in &acc.digits {
        let spec = ctx.lookups[j].spec();
        on_encoding!(ctx.fk_cols[j], |c| sel_group_digit(
            c, &spec, sel, dom as u32, gidx, keys
        ));
    }
    for (col, input) in ctx.agg_cols.iter().zip(inputs.iter_mut()) {
        col.gather(sel, input);
    }
    let agg = ctx.q.agg;
    for (k, &idx) in gidx.iter().enumerate() {
        acc.groups.add(idx as usize, agg.value(|i| inputs[i][k]));
    }
}

/// Tuple-at-a-time pipeline over one contiguous row range: one branching
/// row loop, early-exit on the first failing predicate or missed probe
/// (the Hyper execution style). Packed columns unpack value-at-a-time
/// through the same [`ColumnRead`] seam.
fn tuple_range(
    ctx: &QueryCtx<'_>,
    range_start: usize,
    range_end: usize,
    acc: &mut QueryAcc,
    scratch: &mut Scratch,
) {
    let codes = &mut scratch.tuple_codes;
    'rows: for row in range_start..range_end {
        for (p, col) in ctx.q.fact_preds.iter().zip(ctx.pred_cols) {
            if !p.matches(col.value(row)) {
                continue 'rows;
            }
        }
        acc.pred_survivors += 1;
        for (j, lk) in ctx.lookups.iter().enumerate() {
            acc.probes[j] += 1;
            match lk.get(ctx.fk_cols[j].value(row)) {
                Some(code) => codes[j] = code,
                None => continue 'rows,
            }
            acc.hits[j] += 1;
        }
        acc.result_rows += 1;
        let value = ctx.q.agg.value(|i| ctx.agg_cols[i].value(row));
        acc.groups.add(group_key(&acc.digits, |j| codes[j]), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{random_encodings, EncodedFact, FactEncodings};
    use crate::engines::reference;
    use crate::queries::all_queries;
    // Every shape against the oracle, in both modes, is `tests/shape_matrix.rs`.

    fn data() -> SsbData {
        SsbData::generate_scaled(1, 0.004, 13)
    }

    /// Results and traces are invariant under morsel size and thread
    /// count — the schedule must not observable-ly change anything.
    #[test]
    fn schedule_invariance() {
        let d = data();
        let q = crate::queries::query(&d, crate::QueryId::new(4, 2));
        let table = FactTable::plain(&d);
        let run =
            |threads, morsel| execute_with(&table, &q, threads, PipelineMode::Vectorized, morsel);
        let (baseline, base_trace) = run(1, 1 << 20);
        for (threads, morsel) in [(2, 777), (4, VECTOR_SIZE), (8, 3 * VECTOR_SIZE + 5), (3, 1)] {
            let (r, t) = run(threads, morsel);
            assert_eq!(r, baseline, "threads={threads} morsel={morsel}");
            assert_eq!(t.pred_survivors, base_trace.pred_survivors);
            assert_eq!(t.result_rows, base_trace.result_rows);
        }
    }

    /// Morsels not aligned to VECTOR_SIZE exercise partial-vector tails in
    /// the middle of the scan, not just at row n.
    #[test]
    fn unaligned_morsels_cover_all_rows() {
        let d = SsbData::generate_scaled(1, 0.001, 29);
        let q = crate::queries::query(&d, crate::QueryId::new(2, 2));
        let expected = reference::execute(&d, &q);
        let table = FactTable::plain(&d);
        let (got, trace) = execute_with(&table, &q, 5, PipelineMode::Vectorized, 1000);
        assert_eq!(got, expected);
        assert_eq!(trace.fact_rows, d.lineorder.rows());
        assert_eq!(trace.stages[0].probes, trace.pred_survivors);
    }

    /// Randomly mixed per-column encodings (plain / min-width / wider
    /// widths incl. the 32-bit no-op pack) stay byte-identical across
    /// seeds, run to completion and in unaligned grants.
    #[test]
    fn random_encoding_mixes_match_plain() {
        let d = SsbData::generate_scaled(1, 0.002, 31);
        for seed in 0..6u64 {
            let fact = EncodedFact::encode(&d, &random_encodings(&d, seed));
            let table = FactTable::encoded(&d, &fact);
            for q in all_queries(&d).into_iter().take(5) {
                let expected = reference::execute(&d, &q);
                let (r, _) = execute(&table, &q, 3, PipelineMode::Vectorized);
                assert_eq!(r, expected, "seed {seed} {}", q.name);
                // Ragged grants put unaligned range starts on packed words.
                let mut job = HostQueryJob::over(&table, &q, PipelineMode::Vectorized);
                while !job.step(999) {}
                assert_eq!(job.finish().0, expected, "seed {seed} {} job", q.name);
            }
        }
    }

    /// The resumable job is grant-pattern invariant over every table
    /// shape — one plain segment, one encoded segment, one segment per
    /// live shard — and crosses segment boundaries mid-grant without
    /// losing rows: result *and* trace equal the run-to-completion
    /// executor's — whose every counter equals the row-at-a-time
    /// pipeline's — for ragged, one-row and unbounded grants, over plans
    /// that start with a fact predicate and plans that start with a join
    /// (the contiguous semi-join, here cut into one-row ranges).
    #[test]
    fn job_is_grant_invariant_across_segments() {
        use crate::partition::PartitionedFact;
        let d = SsbData::generate_scaled(1, 0.001, 13);
        let fact = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
        // Seven shards of 6k rows: 1009 and 3 * VECTOR_SIZE + 7 both
        // straddle shard boundaries at non-vector-aligned offsets.
        let pf = PartitionedFact::partition(&d, 7, &FactEncodings::plain());
        let mode = PipelineMode::Vectorized;
        let plain = FactTable::plain(&d);
        let tables = [
            ("plain", plain.clone()),
            ("encoded", FactTable::encoded(&d, &fact)),
            ("sharded", FactTable::sharded(&d, &pf)),
        ];
        let queries = all_queries(&d);
        let names = ["q1.1", "q1.3", "q2.1", "q3.1", "q4.1", "q4.3"];
        for q in queries.iter().filter(|q| names.contains(&q.name)) {
            let (expected, base_trace) = execute(&plain, q, 1, mode);
            let tuple_trace = execute(&plain, q, 1, PipelineMode::TupleAtATime).1;
            assert_eq!(base_trace, tuple_trace, "{}", q.name);
            // The pinned shim reports the rows pruning left.
            let (_, part_trace, part_scanned) = execute_partitioned(&d, &pf, q, 1, mode);
            assert_eq!(part_trace, base_trace, "{}", q.name);
            assert_eq!(part_scanned, tables[2].1.live_rows(q));
            for (shape, table) in &tables {
                let live_rows = table.live_rows(q);
                for grant in [usize::MAX, 1009, 3 * VECTOR_SIZE + 7, 1] {
                    let mut job = HostQueryJob::over(table, q, mode);
                    assert_eq!(job.remaining_rows(), live_rows, "{} {shape}", q.name);
                    let mut steps = 0usize;
                    while !job.step(grant) {
                        steps += 1;
                        assert_eq!(job.rows_scanned() + job.remaining_rows(), live_rows);
                    }
                    assert!(grant != 1 || steps + 1 == live_rows, "one row per grant");
                    assert_eq!(job.remaining_rows(), 0);
                    assert_eq!(job.rows_scanned(), live_rows);
                    let (r, t) = job.finish();
                    assert_eq!(r, expected, "{} {shape} grant {grant}", q.name);
                    assert_eq!(t, base_trace, "{} {shape} grant {grant}", q.name);
                }
            }
        }
    }

    /// Plans with `preds` fact predicates and `joins` joins: the joins
    /// are q4.1's first few (customer, supplier and part filter; customer
    /// and date group), the predicate lists put a keep-everything
    /// predicate first (pending reaches the flush threshold every chunk)
    /// and in the middle, and selective ones (pending crosses it rarely,
    /// and ranges end with rows pending). Without a predicate the first
    /// join is the contiguous semi-join; the rotations of q4.1's joins put
    /// each dimension there in turn (every foreign-key width, the date
    /// range's holes, a first join with and without a group code).
    fn pipeline_plans(d: &SsbData) -> Vec<StarQuery> {
        use crate::plan::{FactCol, FactPred};
        let all = FactPred::between(FactCol::Quantity, 1, 50);
        let years = FactPred::between(FactCol::OrderDate, 19930101, 19941231);
        let pred_lists = [
            vec![],
            vec![all],
            vec![years, FactPred::between(FactCol::Discount, 1, 3)],
            vec![FactPred::between(FactCol::Discount, 4, 6), all, years],
        ];
        let base = crate::queries::query(d, crate::QueryId::new(4, 1));
        let mut plans = Vec::new();
        for preds in &pred_lists {
            for joins in 0..=base.joins.len() {
                let mut q = base.clone();
                q.fact_preds = preds.clone();
                q.joins.truncate(joins);
                plans.push(q);
            }
        }
        for first in 1..base.joins.len() {
            let mut q = base.clone();
            q.fact_preds.clear();
            q.joins.rotate_left(first);
            plans.push(q);
        }
        plans
    }

    /// The front end — accumulating after a fact predicate, contiguous
    /// into the first join without one — is unobservable: for 0-3 fact
    /// predicates x 0-4 joins over plain, packed and mixed encodings, the result
    /// equals the reference's and *every* trace counter equals the
    /// row-at-a-time pipeline's, under morsels of one row, morsels that
    /// end ranges with rows pending, whole vectors and several at once —
    /// and under resumable grants of one row, a ragged 1 009 and
    /// everything, across shard boundaries.
    #[test]
    fn accumulating_front_end_matches_per_row_semantics() {
        use crate::partition::PartitionedFact;
        let d = SsbData::generate_scaled(1, 0.002, 41);
        assert!(d.lineorder.rows() > 3 * VECTOR_SIZE + 5);
        let mode = PipelineMode::Vectorized;
        let encodings = [
            FactEncodings::plain(),
            FactEncodings::packed_min(&d),
            random_encodings(&d, 5),
        ];
        let tables: Vec<_> = encodings
            .iter()
            .map(|enc| {
                let fact = EncodedFact::encode(&d, enc);
                (fact, PartitionedFact::partition(&d, 3, enc))
            })
            .collect();
        for q in pipeline_plans(&d) {
            let shape = format!("{} preds, {} joins", q.fact_preds.len(), q.joins.len());
            let expected = (
                reference::execute(&d, &q),
                execute(&FactTable::plain(&d), &q, 1, PipelineMode::TupleAtATime).1,
            );
            for (e, (fact, pf)) in tables.iter().enumerate() {
                let table = FactTable::encoded(&d, fact);
                for morsel in [1, 999, VECTOR_SIZE, 3 * VECTOR_SIZE + 5] {
                    let got = execute_with(&table, &q, 3, mode, morsel);
                    assert_eq!(got, expected, "{shape}, encoding {e}, morsel {morsel}");
                }
                assert!(pf.shard_count() > 1);
                let sharded = FactTable::sharded(&d, pf);
                for grant in [1, 1009, usize::MAX] {
                    let mut job = HostQueryJob::over(&sharded, &q, mode);
                    while !job.step(grant) {}
                    assert_eq!(
                        job.finish(),
                        expected,
                        "{shape}, encoding {e}, grant {grant}"
                    );
                }
            }
        }
    }

    /// No row is pending when a range returns: after every grant, however
    /// ragged, the accumulator has counted exactly the qualifying rows of
    /// the prefix scanned so far — including grants that stop one row
    /// short of a full vector of survivors.
    #[test]
    fn nothing_is_pending_between_ranges() {
        let d = SsbData::generate_scaled(1, 0.002, 41);
        let mode = PipelineMode::Vectorized;
        for q in pipeline_plans(&d).iter().filter(|q| q.joins.is_empty()) {
            let mut qualifying = vec![0usize];
            for row in 0..d.lineorder.rows() {
                let hit = q.fact_preds.iter().all(|p| p.matches(p.col.data(&d)[row]));
                qualifying.push(qualifying[row] + usize::from(hit));
            }
            for grant in [VECTOR_SIZE - 1, VECTOR_SIZE + 1, 2 * VECTOR_SIZE + 999] {
                let mut job = HostQueryJob::over(&FactTable::plain(&d), q, mode);
                let mut done = false;
                while !done {
                    done = job.step(grant);
                    assert_eq!(job.acc.pred_survivors, qualifying[job.rows_scanned()]);
                    assert_eq!(job.acc.result_rows, job.acc.pred_survivors);
                }
            }
        }
    }

    /// The accumulator half of a warm q4.3 is held by a counter: a repeated
    /// `HostQueryJob::over` starts with no block of its 1.75 M-slot domain
    /// and ends holding at most one per result group — not a 14 MB table.
    #[test]
    fn a_repeated_q43_job_holds_at_most_one_block_per_group() {
        let d = SsbData::generate_scaled(1, 0.02, 13);
        let q = crate::queries::query(&d, crate::QueryId::new(4, 3));
        let table = FactTable::plain(&d);
        for run in 0..2 {
            let mut job = HostQueryJob::over(&table, &q, PipelineMode::Vectorized);
            assert_eq!(job.acc.groups.blocks(), 0, "run {run}");
            while !job.step(usize::MAX) {}
            let blocks = job.acc.groups.blocks();
            let (result, _) = job.finish();
            assert!(result.rows() > 0, "run {run}: q4.3 found no group");
            assert!(blocks <= result.rows(), "run {run}: {blocks} blocks");
        }
    }

    /// A group domain far past any canned query's allocates nothing in its
    /// proportion: q4.3's joins with customer city as a fourth group
    /// attribute — 250 x 250 x 1000 x 7 = 437.5 M slots, a 3.5 GB dense
    /// `i64` table per worker — run through `execute` and a stepped
    /// `HostQueryJob`, plain and packed, in both pipeline modes, to the
    /// reference's answer.
    #[test]
    fn a_437_million_slot_group_domain_runs_in_a_few_blocks() {
        use crate::plan::DimAttr;
        let d = SsbData::generate_scaled(1, 0.02, 13);
        let mut q = crate::queries::query(&d, crate::QueryId::new(4, 3));
        q.joins[0].group_attr = Some(DimAttr::City);
        assert_eq!(q.group_domain(), 437_500_000);
        let expected = reference::execute(&d, &q);
        assert!(expected.rows() > 0, "the plan finds no group");
        let fact = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
        for (shape, table) in [
            ("plain", FactTable::plain(&d)),
            ("packed", FactTable::encoded(&d, &fact)),
        ] {
            for mode in [PipelineMode::Vectorized, PipelineMode::TupleAtATime] {
                let case = format!("{shape} {mode:?}");
                assert_eq!(execute(&table, &q, 2, mode).0, expected, "{case}");
                let mut job = HostQueryJob::over(&table, &q, mode);
                while !job.step(1009) {}
                assert!(job.acc.groups.blocks() <= expected.rows(), "{case}");
                assert_eq!(job.finish().0, expected, "{case} job");
            }
        }
    }

    /// Row ids are `u32`: a segment too long for them is refused where it
    /// enters the executor, with a message naming the limit — checked on
    /// the row count alone (no 16 GiB column is allocated).
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn oversized_segment_is_refused_with_the_limit_named() {
        check_segment_rows(0);
        check_segment_rows(u32::MAX as usize);
        let refused = std::panic::catch_unwind(|| check_segment_rows(u32::MAX as usize + 1));
        let message = *refused.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("4294967295 rows per segment"), "{message}");
        assert!(message.contains("4294967296 rows"), "{message}");
    }

    /// Group indexes are built in a `u32` column: a plan whose dense group
    /// domain would not fit is refused where it enters the executor, with
    /// a message naming the limit — checked on the domain alone.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn oversized_group_domain_is_refused_with_the_limit_named() {
        check_group_domain(1);
        check_group_domain(u32::MAX as usize);
        let refused = std::panic::catch_unwind(|| check_group_domain(u32::MAX as usize + 1));
        let message = *refused.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("at most 4294967295 groups"), "{message}");
        assert!(message.contains("domain of 4294967296"), "{message}");
    }

    /// All shards pruned: zero segments. The job has nothing remaining,
    /// its first step reports completion, and it still produces the
    /// correct empty-input result (grouped and scalar aggregates) with a
    /// trace whose `fact_rows` is the whole table.
    #[test]
    fn all_pruned_shards_yield_empty_input_semantics() {
        use crate::partition::PartitionedFact;
        use crate::plan::{FactCol, FactPred};
        let d = data();
        let pf = PartitionedFact::partition(&d, 4, &FactEncodings::plain());
        let (plain, sharded) = (FactTable::plain(&d), FactTable::sharded(&d, &pf));
        for qid in [crate::QueryId::new(1, 1), crate::QueryId::new(2, 1)] {
            let mut q = crate::queries::query(&d, qid);
            q.fact_preds
                .push(FactPred::between(FactCol::OrderDate, 30000101, 30001231));
            assert!(sharded.live(&q).is_empty());
            let (expected, expected_trace) = execute(&plain, &q, 2, PipelineMode::Vectorized);
            let (r, t) = execute(&sharded, &q, 2, PipelineMode::Vectorized);
            assert_eq!(r, expected, "{qid:?} all-pruned diverged");
            assert_eq!(sharded.live_rows(&q), 0, "pruned everything yet scans rows");
            assert_eq!(t, expected_trace);
            assert_eq!(t.fact_rows, pf.total_rows());
            let mut job = HostQueryJob::over(&sharded, &q, PipelineMode::Vectorized);
            assert_eq!(job.remaining_rows(), 0);
            assert!(job.step(1));
            assert_eq!(job.finish(), (expected, expected_trace));
        }
    }
}
