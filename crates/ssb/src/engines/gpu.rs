//! Standalone GPU engine: the paper's "Standalone (GPU)" — each query is
//! **one Crystal kernel** over the fact table (plus one small build kernel
//! per dimension).
//!
//! Per tile: `BlockLoad` the first referenced column, evaluate fact
//! predicates into a list of the live lanes, then for each join
//! `BlockLoadSel` the FK column (only cache lines of surviving rows are
//! touched, and only surviving lanes are walked — the
//! `min(4|L|/C, |L|*sigma)` term of the Section 5.3 model) and probe the
//! dimension's perfect-hash table (cache-simulated gathers; the part table
//! of q2.1 genuinely spills the simulated L2, reproducing the paper's
//! `pi = 5.7/8`). Surviving rows read the aggregate-input columns
//! selectively and update a device-resident dense group table with one
//! scattered atomic each; scalar queries use a block reduction plus one
//! contended atomic per tile.
//!
//! All device residency flows through a
//! [`DeviceSession`]: fact columns are
//! requested from the session's cache (uploaded once, reused while
//! resident) and dimension hash tables are memoized by build-side
//! fingerprint — a warm session spends zero transfer time and runs no
//! build kernels. A fresh session is the old upload/execute/free
//! lifecycle; a kept one is the residency-aware path a query stream
//! drives.
//!
//! [`execute`] is one job type driven to completion: [`DeviceQueryJob`], a
//! resumable scan over the live segments of a [`FactTable`] — the whole
//! table is one, a partitioned table one per live shard — with one query
//! accumulator (`engines::QueryAcc`) for the whole job. What a job
//! costs on the host follows the events it simulates (rows scanned, keys
//! inserted, groups touched), not the capacity of its structures: the
//! group table on the device is a reservation of addresses with no host
//! memory behind it, the values accumulate in one host table per job
//! however many shards feed it, and that table is read out through the set
//! of blocks it touched.

use std::rc::Rc;

use crystal_core::primitives::{block_pred, block_pred_and};
use crystal_core::tile::{bitmap_lanes, Tile};
use crystal_gpu_sim::fused::FusedStarKernel;
use crystal_gpu_sim::mem::DeviceBuffer;
use crystal_gpu_sim::stats::{total_time, KernelReport};
use crystal_gpu_sim::stream::CopyEvents;
use crystal_runtime::{DeviceCol, DeviceSession, SessionOom};

use crate::data::SsbData;
use crate::encoding::EncodedFact;
use crate::engines::profile::QueryProfile;
use crate::engines::{
    dim_device_table, dim_join_fingerprint, dim_members, dim_table_bytes, group_key, QueryAcc,
};
use crate::partition::PartitionedFact;
use crate::plan::{FactCol, StarQuery};
use crate::table::{FactSegment, FactTable};

/// The name the benchmark harness pins for what [`execute`] returns: the
/// query's [`QueryProfile`], whose `result`, `reports` and `sim_secs()` it
/// reads.
pub type GpuRun = QueryProfile;

/// Executes one query on the simulated GPU through a (fresh or warm)
/// session over the live segments of `table`: a [`DeviceQueryJob`] admitted
/// and driven to completion, so the run-to-completion engine and the
/// resumable concurrent frontend execute byte-for-byte the same pipeline.
/// Packed columns ship and stay as packed words, and the kernel unpacks
/// tiles in registers. The returned profile charges what the session
/// shipped, on the session's link, against the kernels — the coprocessor
/// model of Section 3.1 on a cold session, the data-resident regime on a
/// warm one. Returns the typed [`SessionOom`] when a segment's working set
/// cannot fit the device — small device configs surface the error instead
/// of aborting the process — with the device work abandoned (the placed
/// path then restarts the query on the host).
pub fn execute(
    sess: &mut DeviceSession<'_>,
    table: &FactTable<'_>,
    q: &StarQuery,
) -> Result<GpuRun, SessionOom> {
    drive(sess, table, q).map(DeviceQueryJob::finish)
}

/// [`execute`] short of its finish: the job admitted and stepped through
/// every segment, or abandoned with the error that stopped it.
pub(crate) fn drive<'a>(
    sess: &mut DeviceSession<'_>,
    table: &FactTable<'a>,
    q: &'a StarQuery,
) -> Result<DeviceQueryJob<'a>, SessionOom> {
    let mut job = DeviceQueryJob::over(table, q);
    let driven = (|| {
        job.admit(sess)?;
        while !job.step(sess, usize::MAX)? {}
        Ok(())
    })();
    match driven {
        Ok(()) => Ok(job),
        Err(e) => {
            job.abandon(sess);
            Err(e)
        }
    }
}

/// Pinned by the benchmark harness (`e2e/src/sut.rs`), to go with its
/// Step 0: [`execute`] over the plain table.
pub fn execute_session(
    sess: &mut DeviceSession<'_>,
    d: &SsbData,
    q: &StarQuery,
) -> Result<GpuRun, SessionOom> {
    execute(sess, &FactTable::plain(d), q)
}

/// Pinned like [`execute_session`]: [`execute`] over an encoded table.
pub fn execute_encoded_session(
    sess: &mut DeviceSession<'_>,
    d: &SsbData,
    fact: &EncodedFact,
    q: &StarQuery,
) -> Result<GpuRun, SessionOom> {
    execute(sess, &FactTable::encoded(d, fact), q)
}

/// Pinned like [`execute_session`]: [`execute`] over a sharded table.
pub fn execute_partitioned_session(
    sess: &mut DeviceSession<'_>,
    d: &SsbData,
    pf: &PartitionedFact,
    q: &StarQuery,
) -> Result<GpuRun, SessionOom> {
    execute(sess, &FactTable::sharded(d, pf), q)
}

/// A resumable device-side query execution over the segments of a
/// [`FactTable`] zone-map pruning leaves live — the whole table is one, a
/// partitioned table one per live shard, the device half of a hybrid
/// placement a `FactTable::subset` — the shape
/// [`HostQueryJob`](crate::exec::HostQueryJob) has on the host.
///
/// Segments run one at a time. *Admitting* one resolves its fact columns
/// and the memoized dimension tables and **pins** them — the job keeps
/// their `Rc`s, the session's one pin, across the grants it yields — and
/// reserves the device-side group table; it is fallible — under
/// multi-tenant pressure it returns the session's typed [`SessionOom`]
/// instead of panicking, every `Rc` taken so far dropped, which is the
/// admission controller's signal to defer the query. Each
/// [`DeviceQueryJob::step`] launches the fused probe kernel over a bounded
/// range of fact rows and yields, so a scheduler can interleave morsel
/// grants across many in-flight queries; a step that finishes a segment
/// frees its group table, drops its `Rc`s (cached columns and tables stay
/// resident; the cache trims back within budget) and admits the next one.
/// Only the *current* segment's columns are pinned at any moment, so under
/// a budget smaller than a sharded working set the session's
/// GreedyDual-Size cache arbitrates which retired shards stay resident, and
/// a warm replay re-uploads only the shards that were evicted. Dimension
/// tables are memoized by build-side fingerprint, so only the first segment
/// pays the build kernels.
///
/// Crossing a segment boundary is therefore the one place a step can fail:
/// the typed error is the caller's signal to [`DeviceQueryJob::abandon`]
/// the device half and restart the query on the host
/// ([`crate::exec::HostQueryJob::over`] the same table) — partial device
/// work is discarded, so the restart stays byte-identical. A one-segment
/// job never fails a step.
///
/// Everything the segments share lives once per job: one `QueryAcc` (the
/// group sums and the trace counters), the fused kernel's roles and staging
/// tiles. Splitting the scan into `k` launches, or the table into shards,
/// changes neither the per-block tile schedule nor the (commutative
/// integer) aggregate updates, so the finished [`GpuRun`] is byte-identical
/// for every shard count and grant pattern — the property the concurrent
/// differential suite asserts.
pub struct DeviceQueryJob<'a> {
    d: &'a SsbData,
    q: &'a StarQuery,
    segments: Vec<FactSegment<'a>>,
    /// Next index into `segments` to admit.
    next: usize,
    cur: Option<Admitted>,
    /// `None` until a segment has admitted: a job that never gets that far
    /// (refused, or every shard pruned) allocates none of it.
    scan: Option<Scan>,
    /// What the job has cost so far, booked around its own session calls
    /// ([`QueryProfile::book`]): every kernel launched, the device and
    /// session counters it added, the bytes it shipped (prefetched staging
    /// uploads included — the same bytes, just shipped earlier) and their
    /// seconds on the session's link. [`Self::finish`] adds the result.
    profile: QueryProfile,
    /// Where the current segment's reports start.
    cur_reports: usize,
    scanned: usize,
    /// The double buffer: the next segment's columns, prefetched on the
    /// copy stream (their `Rc`s held) while the current one's kernel
    /// runs. At most one segment is ever staged (a 2-shard budget:
    /// current + next), and staging never evicts — under pressure the
    /// pipeline stalls back to upload-at-admission instead.
    staged: Option<StagedSegment>,
}

/// The segment being scanned: what it holds on the device, and how far the
/// scan has got.
struct Admitted {
    device_cols: Vec<Rc<DeviceCol>>,
    tables: Vec<Rc<crystal_core::hash::DeviceHashTable>>,
    /// The device-side group table: addresses for the aggregate's atomics
    /// and a charge against device memory. The values are in
    /// [`Scan::acc`], so no host memory backs it.
    agg_table: DeviceBuffer<i64>,
    /// Next unprocessed row, of `n`.
    cursor: usize,
    n: usize,
    /// Copy-stream events of the uploads this segment waited for at
    /// admission or staged ahead of it (`None` when everything was
    /// resident): its first fused launch gates its start on the first chunk
    /// landing and floors its retirement at the transfer drain, so the
    /// stream clocks realize the chunk-pipelined overlap.
    copy_events: Option<CopyEvents>,
}

/// The host side of the fused kernel, shared by every segment of a job.
struct Scan {
    acc: QueryAcc,
    roles: TileRoles,
    tiles: TileScratch,
    /// Per join, the footprint and the entries of its table (the same
    /// memoized build whichever segment pins it).
    tables: Vec<(usize, usize)>,
}

/// One prefetched segment: the columns it holds and the copy-stream
/// events its uploads produced (consumed by the segment's first launch).
struct StagedSegment {
    /// Index into `segments` this staging covers (always the next to admit).
    idx: usize,
    cols: Vec<Rc<DeviceCol>>,
    events: Option<CopyEvents>,
}

/// What every tile of one query's fused kernel does the same way, resolved
/// once per job: which pinned column plays which part.
struct TileRoles {
    kernel_name: String,
    /// Per fact predicate: its column (an index into `device_cols`) and,
    /// when the column is also an aggregate input, the aggregate tile it is
    /// staged into. Fusion keeps such a column in shared memory, so the
    /// aggregate stage never touches HBM for it again (the lane list only
    /// shrinks, so the staged lanes stay valid).
    preds: Vec<(usize, Option<usize>)>,
    /// Per join: its foreign-key column.
    fks: Vec<usize>,
    /// Per aggregate input the predicates did not stage: its aggregate
    /// tile and its column.
    agg_loads: Vec<(usize, usize)>,
}

impl TileRoles {
    fn resolve(q: &StarQuery) -> Self {
        let cols = q.fact_columns();
        let col_of = |c: FactCol| {
            let listed = cols.iter().position(|&x| x == c);
            listed.expect("fact_columns lists every column the plan reads")
        };
        let agg_cols = q.agg.columns();
        let agg_tile_of = |c: FactCol| agg_cols.iter().position(|&x| x == c);
        let preds: Vec<_> = q
            .fact_preds
            .iter()
            .map(|p| (col_of(p.col), agg_tile_of(p.col)))
            .collect();
        let agg_loads = (0..agg_cols.len())
            .filter(|&t| preds.iter().all(|&(_, staged)| staged != Some(t)))
            .map(|t| (t, col_of(agg_cols[t])))
            .collect();
        TileRoles {
            kernel_name: format!("ssb_probe_{}", q.name),
            preds,
            fks: q.joins.iter().map(|j| col_of(j.fact_fk)).collect(),
            agg_loads,
        }
    }
}

/// The staging tiles of the fused kernel (its shared memory), allocated
/// once per job and reused by every tile of every step.
struct TileScratch {
    col: Tile<i32>,
    /// The first predicate's bitmap.
    bitmap: Tile<bool>,
    /// The lanes still alive, ascending (see [`crystal_core::tile`]).
    lanes: Vec<u16>,
    /// One dense group-code tile per join.
    codes: Vec<Tile<i32>>,
    agg_in: [Tile<i32>; 2],
}

impl TileScratch {
    fn new(tile: usize, joins: usize) -> Self {
        TileScratch {
            col: Tile::new(tile),
            bitmap: Tile::new(tile),
            lanes: Vec::with_capacity(tile),
            codes: (0..joins).map(|_| Tile::new(tile)).collect(),
            agg_in: [Tile::new(tile), Tile::new(tile)],
        }
    }
}

impl<'a> DeviceQueryJob<'a> {
    /// A job over the segments of `table` live for `q`, nothing admitted
    /// yet: [`Self::admit`] comes next.
    pub fn over(table: &FactTable<'a>, q: &'a StarQuery) -> Self {
        let live = table.live(q).into_iter().map(|i| table.segments()[i]);
        DeviceQueryJob {
            d: table.data(),
            q,
            segments: live.collect(),
            next: 0,
            cur: None,
            scan: None,
            profile: QueryProfile::empty(q),
            cur_reports: 0,
            scanned: 0,
            staged: None,
        }
    }

    /// Admits the query: pins its first live segment's working set (columns
    /// and dimension tables). On [`SessionOom`] every `Rc` taken so far is
    /// dropped and the cache trimmed before returning — the caller
    /// [`Self::abandon`]s the job, whose account keeps what the refused
    /// admission had already shipped. A query whose every segment is pruned
    /// admits nothing and is immediately complete.
    pub fn admit(&mut self, sess: &mut DeviceSession<'_>) -> Result<(), SessionOom> {
        let mark = QueryProfile::mark(sess);
        let admitted = self.admit_next(sess);
        self.profile.book(sess, mark);
        admitted
    }

    /// Admits the next segment, if there is one, and stages the one after.
    fn admit_next(&mut self, sess: &mut DeviceSession<'_>) -> Result<(), SessionOom> {
        let Some(&segment) = self.segments.get(self.next) else {
            return Ok(());
        };
        self.next += 1;
        // Drop the staging holds *immediately before* re-admission and
        // trim: the prefetched columns stay cached, and staging never took
        // the cache past its budget, so the trim evicts nothing (none of the
        // differential, served or benchmark streams ever saw it evict) and
        // the admission re-pins them as hits without allocating.
        let staged_events = self.staged.take().and_then(|s| {
            debug_assert_eq!(s.idx, self.next - 1, "staged segment out of order");
            drop(s.cols);
            sess.trim();
            s.events
        });

        let (mut cur, builds) =
            Self::pin(sess, self.d, self.q, segment).inspect_err(|_| sess.trim())?;
        cur.copy_events = sess.take_pending_copy();
        if let Some(ev) = staged_events {
            match &mut cur.copy_events {
                Some(own) => own.merge(ev),
                None => cur.copy_events = Some(ev),
            }
        }
        if self.scan.is_none() {
            // The tile geometry depends on the device and the join count,
            // not on how many rows a segment or a step covers.
            let joins = self.q.joins.len();
            let tile = FusedStarKernel::new("", 0, joins).plan(sess.spec()).tile();
            let sizes = cur.tables.iter().map(|ht| (ht.size_bytes(), ht.entries()));
            self.scan = Some(Scan {
                acc: QueryAcc::new(self.q),
                roles: TileRoles::resolve(self.q),
                tiles: TileScratch::new(tile, joins),
                tables: sizes.collect(),
            });
        }
        self.cur_reports = self.profile.reports.len();
        self.profile.reports.extend(builds);
        self.cur = Some(cur);
        self.prefetch_next(sess);
        Ok(())
    }

    /// The fallible part of an admission: the segment's columns and the
    /// dimension tables pinned, the group table reserved — and the reports
    /// of the build kernels that ran. On an error every `Rc` taken so far
    /// has been dropped.
    fn pin(
        sess: &mut DeviceSession<'_>,
        d: &'a SsbData,
        q: &StarQuery,
        segment: FactSegment<'a>,
    ) -> Result<(Admitted, Vec<KernelReport>), SessionOom> {
        let cols = q.fact_columns();
        let mut device_cols = Vec::with_capacity(cols.len());
        for &c in &cols {
            device_cols.push(sess.try_column(segment.key(c), segment.host_col(c))?);
        }

        // Build phase: perfect-hash tables for each join's dimension,
        // memoized by build-side fingerprint, each answering from the
        // join's cached halves. The build is deferred into the miss closure,
        // so a warm session skips the build kernel and the dataset's cache
        // alike; a miss scans the dimension only for a half the dataset
        // does not hold.
        let (mut tables, mut builds) = (Vec::new(), Vec::new());
        for join in &q.joins {
            let fp = dim_join_fingerprint(d, join);
            let (ht, report) = sess.try_hash_table(fp, dim_table_bytes(d, join), |gpu| {
                dim_device_table(gpu, d, join)
            })?;
            builds.extend(report);
            tables.push(ht);
        }
        let admitted = Admitted {
            device_cols,
            tables,
            agg_table: sess.try_alloc_scratch_unbacked(q.group_domain())?,
            cursor: 0,
            n: segment.rows(),
            copy_events: None,
        };
        Ok((admitted, builds))
    }

    /// Stages the next segment's columns on the copy stream while the
    /// current one's kernel runs. Staging is strictly best-effort: it
    /// only proceeds when the uncached bytes fit the session budget *and*
    /// free device memory without evicting anything — a prefetch must
    /// never steal residency from the running shard or a co-tenant, so
    /// under pressure the double buffer stalls (the shard uploads at its
    /// own admission, exactly the pre-pipelining behavior).
    fn prefetch_next(&mut self, sess: &mut DeviceSession<'_>) {
        let Some(&segment) = self.segments.get(self.next) else {
            return;
        };
        debug_assert!(self.staged.is_none(), "admission consumed the staging");
        let cols = self.q.fact_columns();
        let uncached: usize = cols
            .iter()
            .filter(|&&c| !sess.is_resident(segment.key(c)))
            .map(|&c| segment.host_col(c).size_bytes())
            .sum();
        if sess.stats().cached_bytes + uncached > sess.budget()
            || uncached > sess.device_free_bytes()
        {
            return;
        }
        // Held until the segment's admission, whose own `try_column` then
        // hits the warm entries off the link.
        let held = cols
            .iter()
            .map(|&c| sess.try_column(segment.key(c), segment.host_col(c)));
        let Ok(cols) = held.collect() else {
            // Lost a race against concurrent allocation: stall rather than
            // evict. Entries uploaded so far stay cached and the admission
            // will reuse them.
            sess.trim();
            return;
        };
        self.staged = Some(StagedSegment {
            idx: self.next,
            cols,
            events: sess.take_pending_copy(),
        });
    }

    /// Fact rows not yet processed (current segment plus unadmitted ones).
    pub fn remaining_rows(&self) -> usize {
        let unadmitted = self.segments[self.next..].iter();
        self.cur.as_ref().map_or(0, |cur| cur.n - cur.cursor)
            + unadmitted.map(FactSegment::rows).sum::<usize>()
    }

    /// Rows scanned so far (live shards only — the pruning saving).
    pub fn rows_scanned(&self) -> usize {
        self.scanned
    }

    /// Simulated seconds of every kernel this job has launched so far
    /// (admission-time builds included) — summed by their bits as when every
    /// segment was a job of its own: the retired segments' kernels and the
    /// current one's apart.
    fn sim_secs_so_far(&self) -> f64 {
        let (retired, current) = self.profile.reports.split_at(self.cur_reports);
        total_time(retired) + self.cur.as_ref().map_or(0.0, |_| total_time(current))
    }

    /// Re-evaluates the job's charge — its uploads so far overlapped with
    /// the kernels launched so far ([`CoprocessorTime::settle`]) — and
    /// returns the seconds it grew by since the last call. A scheduler
    /// charges its device clock that delta after the admission and after
    /// every grant: once the kernel sum outgrows the in-flight transfer,
    /// every further grant is pure compute time.
    ///
    /// [`CoprocessorTime::settle`]: crystal_gpu_sim::pcie::CoprocessorTime::settle
    pub fn settle(&mut self) -> f64 {
        let kernels = self.sim_secs_so_far();
        self.profile.time.settle(kernels)
    }

    /// Processes up to `max_rows` rows — one fused launch per segment
    /// touched — retiring finished segments and admitting the next as the
    /// cursor crosses their boundaries. Returns `Ok(true)` once every
    /// segment is done; a mid-query admission can fail with the session's
    /// typed [`SessionOom`], in which case the caller abandons the job
    /// (nothing is half-pinned — the failed admission cleaned up after
    /// itself).
    pub fn step(
        &mut self,
        sess: &mut DeviceSession<'_>,
        max_rows: usize,
    ) -> Result<bool, SessionOom> {
        let mark = QueryProfile::mark(sess);
        let stepped = self.advance(sess, max_rows);
        self.profile.book(sess, mark);
        stepped
    }

    /// [`Self::step`] itself, before its counters are booked.
    fn advance(
        &mut self,
        sess: &mut DeviceSession<'_>,
        max_rows: usize,
    ) -> Result<bool, SessionOom> {
        let mut budget = max_rows;
        loop {
            let Some(cur) = self.cur.as_ref() else {
                return Ok(true);
            };
            let grant = budget.min(cur.n - cur.cursor);
            if grant > 0 {
                self.launch(sess, grant);
                self.scanned += grant;
                budget -= grant;
            }
            if self.cur.as_ref().is_some_and(|cur| cur.cursor == cur.n) {
                self.release(sess);
                self.admit_next(sess)?;
            } else if budget == 0 {
                return Ok(false);
            }
        }
    }

    /// One fused launch over the next `batch` rows of the current segment.
    fn launch(&mut self, sess: &mut DeviceSession<'_>, batch: usize) {
        let q = self.q;
        let cur = self.cur.as_mut().expect("a segment is admitted");
        let scan = self.scan.as_mut().expect("set at the first admission");
        let base = cur.cursor;
        cur.cursor += batch;

        // The whole select→probe×N→aggregate pipeline is ONE fused launch:
        // the kernel descriptor owns the tile geometry and charges the
        // staged shared memory (first-load / aggregate-input i32 tiles, one
        // i32 group-code tile per join, the 1-byte survivor bitmap) so the
        // occupancy model sees the real per-block footprint — and degrades
        // the tile when a device's budget cannot hold it.
        let roles = &scan.roles;
        let fused = FusedStarKernel::new(roles.kernel_name.clone(), batch, roles.fks.len());
        let TileScratch {
            col: tile_col,
            bitmap,
            lanes,
            codes: code_tiles,
            agg_in,
        } = &mut scan.tiles;

        let device_cols = &cur.device_cols;
        let tables = &cur.tables;
        let agg_table = &cur.agg_table;
        let acc = &mut scan.acc;

        // The first probe launch after a cold admission depends on the
        // uploaded columns: gate its start on the first chunk landing and
        // floor its retirement at the transfer drain (the kernel cannot
        // consume bytes faster than the link delivers them). One-shot —
        // later grants run against resident data.
        if let Some(ev) = cur.copy_events.take() {
            let gpu = sess.gpu();
            gpu.stream_wait(ev.first_chunk);
            gpu.stream_floor(ev.done);
        }

        let report = fused.launch(sess.gpu(), |ctx| {
            let (tile_start, len) = ctx.tile_bounds(batch);
            if len == 0 {
                return;
            }
            let start = base + tile_start;

            // Fact predicates: first column with BlockLoad + BlockPred, its
            // bitmap listed once; the rest load and test only the listed
            // lanes with AndPred (Figure 7(b)).
            if roles.preds.is_empty() {
                lanes.clear();
                lanes.extend((0..len).map(|lane| lane as u16));
            }
            for (i, (pred, &(col, staged))) in q.fact_preds.iter().zip(&roles.preds).enumerate() {
                let dest = match staged {
                    Some(t) => &mut agg_in[t],
                    None => &mut *tile_col,
                };
                let p = *pred;
                if i == 0 {
                    device_cols[col].load_full(ctx, start, len, dest);
                    block_pred(ctx, dest, move |v| p.matches(v), bitmap);
                    bitmap_lanes(bitmap, lanes);
                } else {
                    device_cols[col].load_sel(ctx, start, len, lanes, dest);
                    block_pred_and(ctx, dest, move |v| p.matches(v), lanes);
                }
            }
            // The rows still alive; every later stage walks and narrows it.
            acc.pred_survivors += lanes.len();

            // Joins: selectively load the FK column, probe, narrow the
            // list, and stash the dense group code per surviving row.
            for ct in code_tiles.iter_mut() {
                ct.set_len(len);
            }
            for (j, ht) in tables.iter().enumerate() {
                if lanes.is_empty() {
                    break;
                }
                acc.probes[j] += lanes.len();
                device_cols[roles.fks[j]].load_sel(ctx, start, len, lanes, tile_col);
                ctx.compute(lanes.len());
                let codes = code_tiles[j].as_mut_slice();
                acc.hits[j] += ht.probe_tile(ctx, tile_col.as_slice(), lanes, codes);
            }

            // Aggregate inputs, selectively loaded — unless the predicate
            // stage already staged the column into its aggregate tile.
            for &(t, col) in &roles.agg_loads {
                device_cols[col].load_sel(ctx, start, len, lanes, &mut agg_in[t]);
            }
            acc.result_rows += lanes.len();
            ctx.compute(2 * lanes.len());

            let inputs = [agg_in[0].as_slice(), agg_in[1].as_slice()];
            let value = |i: usize| q.agg.value(|t| inputs[t][i]);
            let survivors = lanes.iter().map(|&lane| lane as usize);
            if !acc.digits.is_empty() {
                let group = |i: usize| group_key(&acc.digits, |j| code_tiles[j].as_slice()[i]);
                // One scattered atomic per matching tuple into the dense
                // group table.
                ctx.atomic_scattered_tile(survivors.clone().map(|i| agg_table.addr_of(group(i))));
                for i in survivors {
                    acc.groups.add(group(i), value(i));
                }
            } else {
                // BlockAggregate + one contended atomic per tile.
                ctx.shared(ctx.block_dim * 8);
                ctx.sync();
                ctx.atomic_same_addr(1);
                acc.groups.add(0, survivors.map(value).sum());
            }
        });
        self.profile.reports.push(report.tag_fact_linear());
    }

    /// Releases what the current segment holds on the device: frees the
    /// group table, drops its `Rc`s (unpinning the working set) and trims
    /// the cache back within budget. Cached columns and memoized tables
    /// stay resident in the session.
    fn release(&mut self, sess: &mut DeviceSession<'_>) {
        if let Some(cur) = self.cur.take() {
            sess.free_scratch(cur.agg_table);
            drop((cur.tables, cur.device_cols));
            sess.trim();
        }
        self.cur_reports = self.profile.reports.len();
    }

    /// Releases every device resource of a refused or in-flight job without
    /// producing a result — the recovery path when an admission hits an
    /// OOM, at the start or mid-query, and the whole query restarts on the
    /// host. Retired segments' partial work is discarded with the job; the
    /// session is left exactly as a finished job would leave it. What the
    /// device half had cost is returned, for the restarted query's account
    /// to start from: the empty input's result, the kernels launched and
    /// bytes shipped, and `time` as last [`Self::settle`]d — what was
    /// charged for it.
    pub fn abandon(mut self, sess: &mut DeviceSession<'_>) -> QueryProfile {
        let mark = QueryProfile::mark(sess);
        if let Some(s) = self.staged.take() {
            drop(s.cols);
            sess.trim();
        }
        self.release(sess);
        self.profile.book(sess, mark);
        self.profile.host_fallback = true;
        self.profile
    }

    fn is_done(&self) -> bool {
        let done = self.cur.is_none() && self.next == self.segments.len();
        // Staging only ever covers a segment that is still to be admitted.
        debug_assert!(
            !done || self.staged.is_none(),
            "a staged segment outlived its job"
        );
        done
    }

    /// Assembles the run. `fact_rows` reports the full table size so the
    /// trace compares across table shapes; when every shard was pruned the
    /// result is the empty input's and the stage sizes come from the key
    /// ranges and the cached membership bitmaps (no device table was ever
    /// pinned).
    pub fn finish(self) -> GpuRun {
        self.finish_with(None)
    }

    /// [`Self::finish`], with `host` — what the host accumulated over the
    /// table's other segments, the host part of a hybrid placement —
    /// added into the result and the trace.
    pub(crate) fn finish_with(mut self, host: Option<&QueryAcc>) -> GpuRun {
        assert!(self.is_done(), "finished a job with rows remaining");
        self.settle();
        let (d, q) = (self.d, self.q);
        let (mut acc, tables) = match self.scan {
            Some(scan) => (scan.acc, scan.tables),
            None => {
                let size = |join| (dim_table_bytes(d, join), dim_members(d, join));
                (QueryAcc::new(q), q.joins.iter().map(size).collect())
            }
        };
        host.into_iter().for_each(|part| acc.merge(part));
        let (result, trace) = acc.finish(d, q, tables);
        QueryProfile {
            result,
            trace: Some(trace),
            device_segments_run: self.segments.len(),
            ..self.profile
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::FactEncodings;
    use crate::engines::reference;
    use crate::queries::{all_queries, query, QueryId};
    use crystal_gpu_sim::Gpu;
    use crystal_hardware::nvidia_v100;
    // Every shape against the oracle, cold then warm, is `tests/shape_matrix.rs`.

    /// One query over the plain table through a fresh session.
    fn run_plain(gpu: &mut Gpu, d: &SsbData, q: &StarQuery) -> GpuRun {
        execute(&mut DeviceSession::new(gpu), &FactTable::plain(d), q).unwrap()
    }

    fn data() -> SsbData {
        SsbData::generate_scaled(1, 0.003, 19) // 18k fact rows
    }

    #[test]
    fn probe_kernel_reads_first_column_fully_and_later_columns_selectively() {
        let d = data();
        let mut gpu = Gpu::new(nvidia_v100());
        let q = query(&d, QueryId::new(2, 1));
        let run = run_plain(&mut gpu, &d, &q);
        let probe = run.reports.last().unwrap();
        let n = d.lineorder.rows();
        // Reads must stay well below "all four columns fully" thanks to
        // BlockLoadSel: suppkey full + partkey/orderdate/revenue selective.
        let full_all = 4 * 4 * n as u64;
        assert!(probe.stats.global_read_bytes > 4 * n as u64);
        assert!(
            probe.stats.global_read_bytes < full_all,
            "{} >= {}",
            probe.stats.global_read_bytes,
            full_all
        );
    }

    #[test]
    fn scalar_queries_use_per_tile_atomics() {
        let d = data();
        let mut gpu = Gpu::new(nvidia_v100());
        let q = query(&d, QueryId::new(1, 1));
        let run = run_plain(&mut gpu, &d, &q);
        let probe = run.reports.last().unwrap();
        let tiles = d.lineorder.rows().div_ceil(512) as u64;
        assert_eq!(probe.stats.same_addr_atomics, tiles);
        assert_eq!(probe.stats.scattered_atomics, 0);
    }

    #[test]
    fn grouped_queries_use_scattered_atomics() {
        let d = data();
        let mut gpu = Gpu::new(nvidia_v100());
        let q = query(&d, QueryId::new(2, 1));
        let run = run_plain(&mut gpu, &d, &q);
        let probe = run.reports.last().unwrap();
        assert_eq!(
            probe.stats.scattered_atomics as usize,
            run.trace.unwrap().result_rows
        );
    }

    /// Transient entry points leave no residue: every buffer a query
    /// touched is freed when its implicit session drops.
    #[test]
    fn transient_execution_frees_all_device_memory() {
        let d = data();
        let mut gpu = Gpu::new(nvidia_v100());
        let q = query(&d, QueryId::new(2, 1));
        let _ = run_plain(&mut gpu, &d, &q);
        assert_eq!(gpu.mem_used(), 0);
    }

    /// The acceptance criterion of the residency refactor: a warm second
    /// run of q1.1 ships zero fact-column bytes, runs no build kernels,
    /// and still produces the identical result.
    #[test]
    fn warm_second_run_ships_nothing_and_matches() {
        let d = data();
        let q = query(&d, QueryId::new(1, 1));
        let expected = reference::execute(&d, &q);
        let table = FactTable::plain(&d);
        let mut gpu = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::new(&mut gpu);

        let cold = execute(&mut sess, &table, &q).unwrap();
        assert_eq!(cold.result, expected);
        let cold_uploaded = sess.stats().uploaded_bytes;
        assert_eq!(
            cold_uploaded as usize,
            q.fact_columns().len() * 4 * d.lineorder.rows()
        );

        let before = sess.stats().clone();
        let warm = execute(&mut sess, &table, &q).unwrap();
        assert_eq!(warm.result, expected, "warm run diverged");
        assert_eq!(
            sess.stats().uploaded_since(&before),
            0,
            "warm run must ship no fact-column bytes"
        );
        assert_eq!(
            warm.reports.len(),
            1,
            "warm run is the probe kernel alone (no build kernels)"
        );

        // A joined query memoizes its dimension tables the same way.
        let q21 = query(&d, QueryId::new(2, 1));
        let cold21 = execute(&mut sess, &table, &q21).unwrap();
        let builds_after_cold = sess.stats().ht_misses;
        assert!(builds_after_cold >= 3, "q2.1 builds its three dim tables");
        let warm21 = execute(&mut sess, &table, &q21).unwrap();
        assert_eq!(warm21.result, cold21.result);
        assert_eq!(sess.stats().ht_misses, builds_after_cold, "no rebuilds");
        assert_eq!(sess.stats().ht_hits, 3, "all three joins memoized");
        assert_eq!(warm21.reports.len(), 1);
    }

    /// On the bandwidth-bound simulated device, the scan-dominated q1.1
    /// reads fewer bytes packed and finishes no later than its plain run.
    #[test]
    fn encoded_execution_matches_and_reads_fewer_bytes() {
        let d = data();
        let fact = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
        let table = FactTable::encoded(&d, &fact);
        let mut gpu = Gpu::new(nvidia_v100());
        let q11 = query(&d, QueryId::new(1, 1));
        let plain = run_plain(&mut gpu, &d, &q11);
        gpu.reset_l2();
        let packed = execute(&mut DeviceSession::new(&mut gpu), &table, &q11).unwrap();
        assert_eq!(packed.result, plain.result);
        let pr = plain.reports.last().unwrap();
        let kr = packed.reports.last().unwrap();
        assert!(
            kr.stats.global_read_bytes < pr.stats.global_read_bytes,
            "packed {} >= plain {}",
            kr.stats.global_read_bytes,
            pr.stats.global_read_bytes
        );
        assert!(packed.sim_secs() <= plain.sim_secs() * 1.001);
    }

    #[test]
    fn scaled_time_divides_probe_kernel_only() {
        let d = data();
        let mut gpu = Gpu::new(nvidia_v100());
        let q = query(&d, QueryId::new(2, 1));
        let run = run_plain(&mut gpu, &d, &q);
        let unscaled = run.sim_secs();
        let scaled = run.sim_secs_scaled(0.5);
        assert!(scaled > unscaled);
        let build: f64 = run.reports[..run.reports.len() - 1]
            .iter()
            .map(|r| r.time.total_secs())
            .sum();
        let probe = run.reports.last().unwrap().time.total_secs();
        assert!((scaled - (build + probe * 2.0)).abs() < 1e-12);
    }

    /// Extrapolation keys on the explicit `fact_linear` tag, not the
    /// kernel's name: renaming every kernel in a run must not change
    /// which launches scale.
    #[test]
    fn renamed_kernels_still_scale() {
        let d = data();
        let mut gpu = Gpu::new(nvidia_v100());
        let q = query(&d, QueryId::new(2, 1));
        let mut run = run_plain(&mut gpu, &d, &q);
        let scaled = run.sim_secs_scaled(0.5);
        for (i, r) in run.reports.iter_mut().enumerate() {
            r.name = format!("opaque_kernel_{i}");
        }
        assert_eq!(
            run.sim_secs_scaled(0.5),
            scaled,
            "renaming a kernel changed what extrapolates"
        );
        assert!(
            run.reports.last().unwrap().fact_linear,
            "the probe launch carries the explicit tag"
        );
    }

    /// Splitting a sharded device job into arbitrary grants changes
    /// nothing: every grant pattern yields the byte-identical run.
    #[test]
    fn sharded_job_is_grant_invariant() {
        let d = data();
        let pf = PartitionedFact::partition(&d, 5, &FactEncodings::plain());
        let table = FactTable::sharded(&d, &pf);
        let q = query(&d, QueryId::new(3, 2));
        let mut gpu = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::new(&mut gpu);
        let whole = execute(&mut sess, &table, &q).unwrap();
        for grant in [997usize, 4096, usize::MAX] {
            let mut g = Gpu::new(nvidia_v100());
            let mut s = DeviceSession::new(&mut g);
            let mut job = DeviceQueryJob::over(&table, &q);
            job.admit(&mut s).unwrap();
            assert_eq!(job.remaining_rows(), table.live_rows(&q));
            while !job.step(&mut s, grant).unwrap() {}
            assert_eq!(job.rows_scanned(), table.live_rows(&q));
            let run = job.finish();
            assert_eq!(run.result, whole.result, "grant {grant} diverged");
            assert_eq!(run.trace, whole.trace, "grant {grant} trace diverged");
            assert_eq!(run.shipped_bytes, whole.shipped_bytes, "grant {grant}");
        }
    }

    /// The beyond-memory acceptance test: a session whose budget is half
    /// the sharded working set must evict between shards, yet a two-pass
    /// replay of every query stays byte-identical to the unsharded run.
    #[test]
    fn starved_sharded_replay_evicts_and_matches() {
        let d = data();
        let pf = PartitionedFact::partition(&d, 8, &FactEncodings::plain());
        let table = FactTable::sharded(&d, &pf);
        let mut gpu = Gpu::new(nvidia_v100());
        let budget = pf.size_bytes() / 2;
        let mut sess = DeviceSession::with_budget(&mut gpu, budget);
        for pass in 0..2 {
            for q in all_queries(&d) {
                let expected = reference::execute(&d, &q);
                let run = execute(&mut sess, &table, &q).unwrap();
                assert_eq!(run.result, expected, "{} pass {pass}", q.name);
            }
        }
        assert!(
            sess.stats().evictions > 0,
            "half the working set must force eviction: {:?}",
            sess.stats()
        );
    }

    /// The occupancy-under-accounting fix, pinned against the fused path:
    /// a device whose shared-memory budget cannot hold the paper's
    /// 512-item tile degrades to a smaller tile — the charged footprint
    /// stays within budget, at least one block stays resident, and the
    /// degraded run never panics and stays byte-identical.
    #[test]
    fn tight_shared_memory_degrades_the_tile_and_still_matches() {
        let d = data();
        let mut spec = nvidia_v100();
        // A 512-item tile charges 6,656 B with no joins and 14,848 B with
        // four; neither fits a 4 KB budget.
        spec.shared_mem_per_sm = 4 * 1024;
        let mut gpu = Gpu::new(spec.clone());
        for q in all_queries(&d) {
            let expected = reference::execute(&d, &q);
            let run = run_plain(&mut gpu, &d, &q);
            assert_eq!(run.result, expected, "{} degraded-tile run", q.name);
            let probe = run.reports.last().unwrap();
            let tile = probe.block_dim * probe.items_per_thread;
            assert!(tile < 512, "{}: tile must shrink under 4 KB", q.name);
            let charged = FusedStarKernel::shared_mem_bytes(tile, q.joins.len());
            assert!(charged <= spec.shared_mem_per_sm, "{} over budget", q.name);
            assert!(spec.resident_blocks_per_sm(probe.block_dim, charged) >= 1);
        }
    }

    /// Abandoning a half-stepped fused job releases everything it held:
    /// an immediate rerun of the same query in the same session is
    /// byte-identical.
    #[test]
    fn abandoned_fused_job_reruns_identically() {
        let d = data();
        let q = query(&d, QueryId::new(3, 2));
        let expected = reference::execute(&d, &q);
        let mut gpu = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::new(&mut gpu);
        let table = FactTable::plain(&d);
        let mut job = DeviceQueryJob::over(&table, &q);
        job.admit(&mut sess).unwrap();
        let done = job.step(&mut sess, 2048).unwrap();
        assert!(!done, "2048 rows leave work behind");
        job.abandon(&mut sess);
        let run = execute(&mut sess, &table, &q).unwrap();
        assert_eq!(run.result, expected, "post-abandon rerun diverged");
    }

    /// Mid-query shard admission OOM: another tenant pins the retiring
    /// shard's columns *and* holds scratch covering the rest of a small
    /// device, so the next shard cannot fit. The job surfaces the typed
    /// error, `abandon` releases everything it held, and once the tenant
    /// lets go the same query completes cleanly in the same session.
    #[test]
    fn mid_query_oom_abandons_cleanly() {
        let d = data();
        let pf = PartitionedFact::partition(&d, 4, &FactEncodings::plain());
        let table = FactTable::sharded(&d, &pf);
        let q = query(&d, QueryId::new(2, 1));
        let cols = q.fact_columns();
        let shard0 = table.segments()[0];

        // A device a few shards wide: room for one admitted shard plus
        // the memoized dimension tables (with the build's 2x staging
        // headroom), nowhere near the whole table.
        use crate::engines::dim_table_bytes;
        let dims: usize = q.joins.iter().map(|j| dim_table_bytes(&d, j)).sum();
        let mut spec = nvidia_v100();
        spec.mem_capacity = 2 * dims + 4 * shard0.cost(&cols).packed_bytes;
        let mut gpu = Gpu::new(spec);
        let mut sess = DeviceSession::with_budget(&mut gpu, usize::MAX);
        let mut job = DeviceQueryJob::over(&table, &q);
        job.admit(&mut sess).unwrap();

        // A second tenant holds shard 0's columns (pure cache hits) and
        // fills every remaining physical byte with scratch, so retiring
        // shard 0 frees nothing shard 1 could use.
        let held: Vec<_> = (cols.iter())
            .map(|&c| sess.try_column(shard0.key(c), shard0.host_col(c)))
            .collect::<Result<_, _>>()
            .expect("hitting a resident column allocates nothing");
        let free = {
            let g = sess.gpu();
            g.spec().mem_capacity - g.mem_used()
        };
        let ballast: crystal_gpu_sim::DeviceBuffer<u8> = sess
            .try_alloc_scratch_zeroed(free.saturating_sub(512))
            .expect("the free remainder is allocatable");

        let err = loop {
            match job.step(&mut sess, 1024) {
                Ok(true) => panic!("crossing into shard 1 must OOM under the pins"),
                Ok(false) => {}
                Err(e) => break e,
            }
        };
        assert!(err.requested > 0, "the OOM reports what it asked for");
        job.abandon(&mut sess);
        sess.gpu().free(ballast);
        drop(held);

        // Everything the abandoned job and the tenant held was released:
        // the same query now runs shard-at-a-time to completion in the
        // same session on the same small device.
        let run = execute(&mut sess, &table, &q).unwrap();
        assert_eq!(
            run.result,
            reference::execute(&d, &q),
            "post-abandon run diverged"
        );
    }
}
