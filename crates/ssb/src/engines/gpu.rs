//! Standalone GPU engine: the paper's "Standalone (GPU)" — each query is
//! **one Crystal kernel** over the fact table (plus one small build kernel
//! per dimension).
//!
//! Per tile: `BlockLoad` the first referenced column, evaluate fact
//! predicates into a bitmap, then for each join `BlockLoadSel` the FK
//! column (only cache lines of surviving rows are touched — the
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
//! build kernels. The [`execute`]/[`execute_encoded`] entry points wrap a
//! transient session, reproducing the old upload/execute/free lifecycle;
//! the `*_session` variants are the residency-aware paths a query stream
//! drives.
//!
//! [`execute_encoded`] runs the same kernel over a bit-packed fact table:
//! packed columns upload as raw `u64` word streams and each tile load
//! becomes `BlockLoadPacked` / `BlockLoadSelPacked` — the words of the
//! tile are fetched (a `bits/32` fraction of the plain bytes) and
//! unpacked in registers. On the bandwidth-bound device the saved traffic
//! converts directly into simulated time, which is the compression
//! asymmetry the compression ablation and scorecard quantify.

use std::rc::Rc;

use crystal_core::primitives::{block_pred, block_pred_and};
use crystal_core::tile::Tile;
use crystal_gpu_sim::fused::FusedStarKernel;
use crystal_gpu_sim::mem::DeviceBuffer;
use crystal_gpu_sim::stats::KernelReport;
use crystal_gpu_sim::stream::CopyEvents;
use crystal_gpu_sim::Gpu;
use crystal_runtime::{ColumnKey, DeviceCol, DeviceSession, HostCol, SessionOom};
use crystal_storage::encoding::EncodedColumn;

use crate::data::SsbData;
use crate::encoding::EncodedFact;
use crate::engines::{
    build_dim_table, dim_join_fingerprint, dim_table_bytes, groups_to_result, groups_to_result_at,
    set_bits, DimBuild, DimLookup, QueryTrace, StageTrace,
};
use crate::partition::PartitionedFact;
use crate::plan::{FactCol, StarQuery};
use crate::QueryResult;

/// The session cache key of one fact column under one encoding. The key
/// carries the dataset's content fingerprint, so a session shared by
/// tenants replaying different datasets cannot alias their columns.
pub fn column_key(d: &SsbData, col: FactCol, fact: Option<&EncodedFact>) -> ColumnKey {
    let encoding = match fact {
        None => crystal_storage::encoding::Encoding::Plain,
        Some(f) => f.encoded(col).encoding(),
    };
    ColumnKey {
        dataset: d.fingerprint(),
        col: col.index() as u32,
        encoding,
    }
}

/// The session cache key of one **shard's** column: the shard index is
/// packed into the key's `col` field above the 4 bits the nine plain
/// column indices occupy, so every shard is an independent residency
/// unit — GreedyDual-Size arbitrates *which shards* stay device-resident
/// under a budget smaller than the sharded working set, instead of
/// treating the fact table as one indivisible column set. Shard keys
/// start at `col = 16`, so they can never alias the unsharded keys of
/// the same dataset.
pub fn shard_column_key(d: &SsbData, shard: usize, col: FactCol, fact: &EncodedFact) -> ColumnKey {
    ColumnKey {
        dataset: d.fingerprint(),
        col: ((shard as u32 + 1) << 4) | col.index() as u32,
        encoding: fact.encoded(col).encoding(),
    }
}

/// Outcome of a GPU query execution.
pub struct GpuRun {
    pub result: QueryResult,
    pub trace: QueryTrace,
    /// Build kernels (misses only — a warm session builds nothing) then
    /// the probe kernel, in order.
    pub reports: Vec<KernelReport>,
}

impl GpuRun {
    /// Total simulated seconds.
    pub fn sim_secs(&self) -> f64 {
        self.reports.iter().map(|r| r.time.total_secs()).sum()
    }

    /// Simulated seconds with the fact-linear kernels scaled by
    /// `1/fact_scale` (see [`SsbData::generate_scaled`]): build kernels are
    /// dimension-sized and excluded from scaling. Which kernels scale is
    /// decided by the explicit [`KernelReport::fact_linear`] tag the engine
    /// sets at launch, not by kernel-name matching — renaming a kernel
    /// cannot silently break extrapolation.
    pub fn sim_secs_scaled(&self, fact_scale: f64) -> f64 {
        self.reports
            .iter()
            .map(|r| {
                if r.fact_linear {
                    r.time.total_secs() / fact_scale
                } else {
                    r.time.total_secs()
                }
            })
            .sum()
    }
}

/// Executes one query on the simulated GPU over plain 4-byte columns,
/// with the old upload/execute/free lifecycle (a transient session).
/// Returns the typed [`SessionOom`] when the query's working set cannot
/// fit the device — small device configs surface the error instead of
/// aborting the process.
pub fn execute(gpu: &mut Gpu, d: &SsbData, q: &StarQuery) -> Result<GpuRun, SessionOom> {
    let mut sess = DeviceSession::new(gpu);
    execute_session(&mut sess, d, q)
}

/// Executes one query through a (possibly warm) session over plain
/// columns. Fallible under memory pressure, like [`execute`].
pub fn execute_session(
    sess: &mut DeviceSession<'_>,
    d: &SsbData,
    q: &StarQuery,
) -> Result<GpuRun, SessionOom> {
    execute_on(sess, d, None, q)
}

/// Executes one query on the simulated GPU directly over an encoded fact
/// table (transient session): packed columns ship and stay as packed
/// words, and the kernel unpacks tiles in registers. Fallible under
/// memory pressure, like [`execute`].
pub fn execute_encoded(
    gpu: &mut Gpu,
    d: &SsbData,
    fact: &EncodedFact,
    q: &StarQuery,
) -> Result<GpuRun, SessionOom> {
    let mut sess = DeviceSession::new(gpu);
    execute_encoded_session(&mut sess, d, fact, q)
}

/// [`execute_encoded`] through a (possibly warm) session.
pub fn execute_encoded_session(
    sess: &mut DeviceSession<'_>,
    d: &SsbData,
    fact: &EncodedFact,
    q: &StarQuery,
) -> Result<GpuRun, SessionOom> {
    fact.check_scale(d);
    execute_on(sess, d, Some(fact), q)
}

/// The shared kernel body: session-resolved columns and memoized build
/// phase, probe kernel, scratch cleanup. Implemented as a
/// [`DeviceQueryJob`] admitted and driven to completion in one step, so
/// the run-to-completion engines and the resumable concurrent frontend
/// execute byte-for-byte the same pipeline. Admission failure propagates
/// as the session's typed [`SessionOom`].
fn execute_on(
    sess: &mut DeviceSession<'_>,
    d: &SsbData,
    fact: Option<&EncodedFact>,
    q: &StarQuery,
) -> Result<GpuRun, SessionOom> {
    let mut job = DeviceQueryJob::admit(sess, d, fact, q)?;
    let done = job.step(sess, usize::MAX);
    debug_assert!(done, "an unbounded step finishes the fact table");
    Ok(job.finish(sess))
}

/// A resumable device-side query execution.
///
/// [`DeviceQueryJob::admit`] runs the whole *setup* phase — resolving and
/// **pinning** the fact columns and memoized dimension tables under a
/// session pin ledger, and allocating the group-table scratch — and is
/// fallible: under multi-tenant pressure it returns the session's typed
/// [`SessionOom`] instead of panicking, which is the admission
/// controller's signal to defer the query. Each [`DeviceQueryJob::step`]
/// then launches the fused probe kernel over a bounded range of fact rows
/// and yields, so a scheduler can interleave morsel grants across many
/// in-flight queries; [`DeviceQueryJob::finish`] frees the scratch,
/// closes the pin ledger and assembles the [`GpuRun`].
///
/// Splitting the probe into `k` launches instead of one changes neither
/// the per-block tile schedule nor the order of the (commutative integer)
/// aggregate updates, so results are byte-identical for every grant
/// pattern — the property the concurrent differential suite asserts.
pub struct DeviceQueryJob<'a> {
    d: &'a SsbData,
    q: &'a StarQuery,
    qid: crystal_runtime::QueryId,
    device_cols: Vec<Rc<DeviceCol>>,
    tables: Vec<Rc<crystal_core::hash::DeviceHashTable>>,
    agg_table: Option<DeviceBuffer<i64>>,
    agg_host: Vec<i64>,
    /// One bit per slot of `agg_host`, set once a row has been added to
    /// it: what `finish` walks instead of the whole group domain.
    touched: Vec<u64>,
    roles: TileRoles,
    tiles: TileScratch,
    /// Next unprocessed fact row.
    cursor: usize,
    n: usize,
    pred_survivors: usize,
    probes: Vec<usize>,
    hits: Vec<usize>,
    result_rows: usize,
    reports: Vec<KernelReport>,
    /// Bytes this job's admission actually shipped host→device (zero on
    /// a fully warm working set) — the transfer half of the calibration
    /// observation the job reports when it completes.
    uploaded_bytes: usize,
    /// Copy-stream events of this job's admission uploads (`None` on a
    /// warm working set): the first fused launch gates its start on the
    /// first chunk landing and floors its retirement at the transfer
    /// drain, so the stream clocks realize the chunk-pipelined overlap.
    copy_events: Option<CopyEvents>,
}

/// What every tile of one query's fused kernel does the same way, resolved
/// once at admission: which pinned column plays which part.
struct TileRoles {
    kernel_name: String,
    /// Per fact predicate: its column (an index into `device_cols`) and,
    /// when the column is also an aggregate input, the aggregate tile it is
    /// staged into. Fusion keeps such a column in shared memory, so the
    /// aggregate stage never touches HBM for it again (the survivor bitmap
    /// only shrinks, so the staged lanes stay valid).
    preds: Vec<(usize, Option<usize>)>,
    /// Per join: its foreign-key column.
    fks: Vec<usize>,
    /// Per aggregate input the predicates did not stage: its aggregate
    /// tile and its column.
    agg_loads: Vec<(usize, usize)>,
    /// Per join carrying a group attribute: the join and the attribute's
    /// domain, in mixed-radix order.
    group_digits: Vec<(usize, usize)>,
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
            group_digits: (q.joins.iter().enumerate())
                .filter_map(|(j, join)| join.group_attr.map(|a| (j, a.domain())))
                .collect(),
        }
    }
}

/// The staging tiles of the fused kernel (its shared memory), allocated
/// once per job and reused by every tile of every step.
struct TileScratch {
    col: Tile<i32>,
    bitmap: Tile<bool>,
    /// One dense group-code tile per join.
    codes: Vec<Tile<i32>>,
    agg_in: [Tile<i32>; 2],
}

impl TileScratch {
    fn new(tile: usize, joins: usize) -> Self {
        TileScratch {
            col: Tile::new(tile),
            bitmap: Tile::new(tile),
            codes: (0..joins).map(|_| Tile::new(tile)).collect(),
            agg_in: [Tile::new(tile), Tile::new(tile)],
        }
    }
}

impl<'a> DeviceQueryJob<'a> {
    /// Admits one query: pins its working set (columns + dimension
    /// tables) under a fresh pin ledger and allocates its scratch.
    /// On [`SessionOom`] every pin taken so far is released before
    /// returning, leaving the session exactly as found.
    pub fn admit(
        sess: &mut DeviceSession<'_>,
        d: &'a SsbData,
        fact: Option<&'a EncodedFact>,
        q: &'a StarQuery,
    ) -> Result<Self, crystal_runtime::SessionOom> {
        let n = d.lineorder.rows();
        Self::admit_with(sess, d, fact, q, n, &|c| column_key(d, c, fact))
    }

    /// Admits one **shard** of a partitioned fact table as a query job:
    /// the shard's encoded columns are pinned under shard-granular
    /// [`shard_column_key`]s (each shard is its own residency unit) and
    /// the scan covers the shard's rows. Dimension tables are memoized
    /// by build-side fingerprint exactly as in the unsharded path, so
    /// every shard of one query shares them.
    pub fn admit_shard(
        sess: &mut DeviceSession<'_>,
        d: &'a SsbData,
        pf: &'a PartitionedFact,
        shard: usize,
        q: &'a StarQuery,
    ) -> Result<Self, crystal_runtime::SessionOom> {
        let fact = pf.shard(shard).encoded();
        Self::admit_with(sess, d, Some(fact), q, fact.rows(), &|c| {
            shard_column_key(d, shard, c, fact)
        })
    }

    fn admit_with(
        sess: &mut DeviceSession<'_>,
        d: &'a SsbData,
        fact: Option<&'a EncodedFact>,
        q: &'a StarQuery,
        n: usize,
        key_of: &dyn Fn(FactCol) -> ColumnKey,
    ) -> Result<Self, crystal_runtime::SessionOom> {
        let before = sess.stats().clone();
        let qid = sess.begin_query();
        match Self::admit_inner(sess, qid, d, fact, q, n, key_of) {
            Ok(mut job) => {
                job.uploaded_bytes = sess.stats().uploaded_since(&before);
                job.copy_events = sess.take_pending_copy();
                Ok(job)
            }
            Err(e) => {
                sess.end_query(qid);
                Err(e)
            }
        }
    }

    fn admit_inner(
        sess: &mut DeviceSession<'_>,
        qid: crystal_runtime::QueryId,
        d: &'a SsbData,
        fact: Option<&'a EncodedFact>,
        q: &'a StarQuery,
        n: usize,
        key_of: &dyn Fn(FactCol) -> ColumnKey,
    ) -> Result<Self, crystal_runtime::SessionOom> {
        let mut reports = Vec::new();

        let cols = q.fact_columns();
        let mut device_cols = Vec::with_capacity(cols.len());
        for &c in &cols {
            let key = key_of(c);
            let rc = match fact {
                None => sess.pin_column(qid, key, HostCol::Plain(c.data(d)))?,
                // Every column resolves from the encoded table (not from
                // `d`), so the two arguments cannot silently disagree
                // about plain columns' data.
                Some(f) => match f.encoded(c) {
                    EncodedColumn::Packed(p) => sess.pin_column(qid, key, HostCol::Packed(p))?,
                    EncodedColumn::Plain(v) => sess.pin_column(qid, key, HostCol::Plain(v))?,
                },
            };
            device_cols.push(rc);
        }

        // Build phase: perfect-hash tables for each join's dimension,
        // memoized by build-side fingerprint. The filter scan is deferred
        // into the miss closure, so a warm session skips the host-side
        // dimension scan and the build kernel alike.
        let mut tables = Vec::new();
        for join in &q.joins {
            let fp = dim_join_fingerprint(d, join);
            let (ht, report) = sess.pin_hash_table(qid, fp, dim_table_bytes(d, join), |gpu| {
                build_dim_table(gpu, &DimBuild::scan(d, join))
            })?;
            if let Some(r) = report {
                reports.push(r);
            }
            tables.push(ht);
        }

        let domain = q.group_domain();
        let agg_table: DeviceBuffer<i64> = sess.try_alloc_scratch_zeroed(domain)?;
        // The tile geometry depends on the device and the join count, not
        // on how many rows a step covers.
        let tile = FusedStarKernel::new("", n, q.joins.len())
            .plan(sess.spec())
            .tile();

        Ok(DeviceQueryJob {
            d,
            q,
            qid,
            device_cols,
            tables,
            agg_table: Some(agg_table),
            agg_host: vec![0i64; domain],
            touched: vec![0u64; domain.div_ceil(64)],
            roles: TileRoles::resolve(q),
            tiles: TileScratch::new(tile, q.joins.len()),
            cursor: 0,
            n,
            pred_survivors: 0,
            probes: vec![0usize; q.joins.len()],
            hits: vec![0usize; q.joins.len()],
            result_rows: 0,
            reports,
            uploaded_bytes: 0,
            copy_events: None,
        })
    }

    /// Fact rows not yet processed.
    pub fn remaining_rows(&self) -> usize {
        self.n - self.cursor
    }

    /// Bytes this job's admission shipped over PCIe (zero when its whole
    /// working set was already resident).
    pub fn uploaded_bytes(&self) -> usize {
        self.uploaded_bytes
    }

    /// Simulated seconds of every kernel this job has launched so far
    /// (admission-time builds included). A scheduler charges each grant
    /// by the delta of this value across the [`DeviceQueryJob::step`].
    pub fn sim_secs_so_far(&self) -> f64 {
        self.reports.iter().map(|r| r.time.total_secs()).sum()
    }

    /// Runs the fused probe kernel over the next `max_rows` fact rows
    /// (saturating at the end of the table) and yields. Returns `true`
    /// when the whole fact table has been processed.
    pub fn step(&mut self, sess: &mut DeviceSession<'_>, max_rows: usize) -> bool {
        let base = self.cursor;
        let batch = max_rows.min(self.n - base);
        if batch == 0 {
            return true;
        }
        self.cursor += batch;

        // The whole select→probe×N→aggregate pipeline is ONE fused launch:
        // the kernel descriptor owns the tile geometry and charges the
        // staged shared memory (first-load / aggregate-input i32 tiles, one
        // i32 group-code tile per join, the 1-byte survivor bitmap) so the
        // occupancy model sees the real per-block footprint — and degrades
        // the tile when a device's budget cannot hold it.
        let q = self.q;
        let roles = &self.roles;
        let fused = FusedStarKernel::new(roles.kernel_name.clone(), batch, roles.fks.len());
        let TileScratch {
            col: tile_col,
            bitmap,
            codes: code_tiles,
            agg_in,
        } = &mut self.tiles;

        let grouped = !roles.group_digits.is_empty();
        let device_cols = &self.device_cols;
        let tables = &self.tables;
        let agg_table = self.agg_table.as_ref().expect("stepped a finished job");
        let agg_host = &mut self.agg_host;
        let touched = &mut self.touched;
        let pred_survivors = &mut self.pred_survivors;
        let probes = &mut self.probes;
        let hits = &mut self.hits;
        let result_rows = &mut self.result_rows;

        // The first probe launch after a cold admission depends on the
        // uploaded columns: gate its start on the first chunk landing and
        // floor its retirement at the transfer drain (the kernel cannot
        // consume bytes faster than the link delivers them). One-shot —
        // later grants run against resident data.
        if let Some(ev) = self.copy_events.take() {
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

            // Fact predicates: first column with BlockLoad + BlockPred,
            // the rest selectively with AndPred (Figure 7(b)).
            for (i, (pred, &(col, staged))) in q.fact_preds.iter().zip(&roles.preds).enumerate() {
                let dest = match staged {
                    Some(t) => &mut agg_in[t],
                    None => &mut *tile_col,
                };
                let p = *pred;
                if i == 0 {
                    device_cols[col].load_full(ctx, start, len, dest);
                    block_pred(ctx, dest, move |v| p.matches(v), bitmap);
                } else {
                    device_cols[col].load_sel(ctx, start, bitmap, dest);
                    block_pred_and(ctx, dest, move |v| p.matches(v), bitmap);
                }
            }
            // Rows still alive; every later stage only narrows it.
            let mut alive = if roles.preds.is_empty() {
                bitmap.set_len(len);
                bitmap.as_mut_slice().fill(true);
                len
            } else {
                bitmap.as_slice().iter().filter(|&&b| b).count()
            };
            *pred_survivors += alive;

            // Joins: selectively load the FK column, probe, refine the
            // bitmap, and stash the dense group code per surviving row.
            for ct in code_tiles.iter_mut() {
                ct.set_len(len);
            }
            for (j, ht) in tables.iter().enumerate() {
                if alive == 0 {
                    break;
                }
                probes[j] += alive;
                device_cols[roles.fks[j]].load_sel(ctx, start, bitmap, tile_col);
                ctx.compute(alive);
                alive = crystal_core::primitives::block_lookup(
                    ctx,
                    tile_col,
                    ht.as_ref(),
                    bitmap,
                    &mut code_tiles[j],
                );
                hits[j] += alive;
            }

            // Aggregate inputs, selectively loaded — unless the predicate
            // stage already staged the column into its aggregate tile.
            for &(t, col) in &roles.agg_loads {
                device_cols[col].load_sel(ctx, start, bitmap, &mut agg_in[t]);
            }
            *result_rows += alive;
            ctx.compute(2 * alive);

            let (in1, in2) = (agg_in[0].as_slice(), agg_in[1].as_slice());
            let value = |i: usize| match q.agg {
                crate::plan::AggExpr::SumDiscountedPrice => in1[i] as i64 * in2[i] as i64,
                crate::plan::AggExpr::SumRevenue => in1[i] as i64,
                crate::plan::AggExpr::SumProfit => in1[i] as i64 - in2[i] as i64,
            };
            let live = bitmap.as_slice();
            let survivors = (0..len).filter(|&i| live[i]);
            if grouped {
                let group = |i: usize| {
                    roles.group_digits.iter().fold(0, |idx, &(j, domain)| {
                        idx * domain + code_tiles[j].as_slice()[i] as usize
                    })
                };
                // One scattered atomic per matching tuple into the dense
                // group table.
                ctx.atomic_scattered_tile(survivors.clone().map(|i| agg_table.addr_of(group(i))));
                for i in survivors {
                    let idx = group(i);
                    agg_host[idx] += value(i);
                    touched[idx / 64] |= 1 << (idx % 64);
                }
            } else {
                // BlockAggregate + one contended atomic per tile.
                ctx.shared(ctx.block_dim * 8);
                ctx.sync();
                ctx.atomic_same_addr(1);
                agg_host[0] += survivors.map(value).sum::<i64>();
            }
        });
        self.reports.push(report.tag_fact_linear());
        self.cursor == self.n
    }

    /// Frees the per-query scratch, closes the pin ledger (unpinning the
    /// working set and trimming the cache back within budget) and
    /// assembles the run. Cached columns and memoized tables stay
    /// resident in the session.
    pub fn finish(mut self, sess: &mut DeviceSession<'_>) -> GpuRun {
        assert_eq!(self.cursor, self.n, "finished a job with rows remaining");
        let (q, n) = (self.q, self.n);
        let touched = std::mem::take(&mut self.touched);
        let p = self.into_partial(sess);
        // Only the groups a row was added to can be non-zero: q4.3 touches
        // a few hundred of its 1.75 M.
        let result = groups_to_result_at(q, &p.agg, set_bits(&touched));
        let trace = QueryTrace {
            fact_rows: n,
            pred_survivors: p.pred_survivors,
            stages: p.stages,
            result_rows: p.result_rows,
            groups: result.rows(),
        };
        GpuRun {
            result,
            trace,
            reports: p.reports,
        }
    }

    /// Releases every device resource of an in-flight job without
    /// producing a run — the recovery path when a *sharded* execution
    /// hits a mid-query admission OOM and the whole query restarts on
    /// the host. Leaves the session exactly as a finished job would
    /// (cached columns stay resident).
    pub fn abandon(mut self, sess: &mut DeviceSession<'_>) {
        if let Some(agg_table) = self.agg_table.take() {
            sess.free_scratch(agg_table);
        }
        self.tables.clear();
        self.device_cols.clear();
        sess.end_query(self.qid);
    }

    /// Retires the job into raw per-shard state (merged by
    /// [`DeviceShardedJob`]): the dense aggregate table, trace counters,
    /// stage traces and kernel reports, with all device resources
    /// released.
    pub(crate) fn into_partial(mut self, sess: &mut DeviceSession<'_>) -> ShardPartial {
        if let Some(agg_table) = self.agg_table.take() {
            sess.free_scratch(agg_table);
        }
        let stages = self
            .tables
            .iter()
            .enumerate()
            .map(|(j, ht)| StageTrace {
                table: self.q.joins[j].table,
                probes: self.probes[j],
                hits: self.hits[j],
                ht_bytes: ht.size_bytes(),
                dim_insert_frac: ht.entries() as f64
                    / self.q.joins[j].keys(self.d).len().max(1) as f64,
            })
            .collect();
        self.tables.clear();
        self.device_cols.clear();
        sess.end_query(self.qid);
        ShardPartial {
            agg: self.agg_host,
            pred_survivors: self.pred_survivors,
            probes: self.probes,
            hits: self.hits,
            result_rows: self.result_rows,
            stages,
            reports: self.reports,
        }
    }
}

/// Raw retired state of one device query (or one shard of one): what the
/// sharded merge-aggregation folds together.
pub(crate) struct ShardPartial {
    pub(crate) agg: Vec<i64>,
    pub(crate) pred_survivors: usize,
    pub(crate) probes: Vec<usize>,
    pub(crate) hits: Vec<usize>,
    pub(crate) result_rows: usize,
    pub(crate) stages: Vec<StageTrace>,
    pub(crate) reports: Vec<KernelReport>,
}

/// A resumable device-side execution over a **sharded** fact table.
///
/// Zone-map pruning picks the live shards at admission; shards then run
/// one at a time as [`DeviceQueryJob`]s whose columns are pinned under
/// shard-granular keys ([`shard_column_key`]), so only the *current*
/// shard's columns are pinned at any moment — the session's
/// GreedyDual-Size cache arbitrates which retired shards stay resident
/// under a budget smaller than the full sharded working set, and a warm
/// replay re-uploads only the shards that were evicted. Dimension hash
/// tables are memoized across shards (same build-side fingerprint), so
/// only the first shard pays the build kernels.
///
/// [`DeviceShardedJob::step`] is fallible: advancing past a shard
/// boundary admits the next shard, which can OOM mid-query under
/// multi-tenant pressure. The typed error is the caller's signal to
/// [`DeviceShardedJob::abandon`] the device half and restart the query
/// on the host ([`crate::exec::HostQueryJob::new_partitioned`]) — partial device
/// work is discarded, so the restart stays byte-identical.
///
/// Merging is commutative `i64` addition of per-shard dense group
/// tables, so the finished [`GpuRun`] is byte-identical to the unsharded
/// engine for every shard count and grant pattern.
pub struct DeviceShardedJob<'a> {
    d: &'a SsbData,
    pf: &'a PartitionedFact,
    q: &'a StarQuery,
    /// Live (unpruned) shard ids, in scan order.
    live: Vec<usize>,
    /// Next index into `live` to admit.
    next: usize,
    cur: Option<DeviceQueryJob<'a>>,
    agg: Vec<i64>,
    pred_survivors: usize,
    probes: Vec<usize>,
    hits: Vec<usize>,
    result_rows: usize,
    reports: Vec<KernelReport>,
    /// Stage traces of the first retired shard — the source of the
    /// ht_bytes / insert-fraction fields all shards share.
    stage_meta: Option<Vec<StageTrace>>,
    scanned: usize,
    /// PCIe bytes accumulated across every shard admission (prefetched
    /// staging uploads included — they are the same bytes, just shipped
    /// earlier).
    uploaded: usize,
    /// The double buffer: the next shard's columns, prefetched on the
    /// copy stream under their own pin ledger while the current shard's
    /// kernel runs. At most one shard is ever staged (a 2-shard budget:
    /// current + next), and staging never evicts — under pressure the
    /// pipeline stalls back to upload-at-admission instead.
    staged: Option<StagedShard>,
}

/// One prefetched shard: its staging pin ledger and the copy-stream
/// events its uploads produced (consumed by the shard's first launch).
struct StagedShard {
    /// Index into `live` this staging covers (always the next to admit).
    idx: usize,
    qid: crystal_runtime::QueryId,
    events: Option<CopyEvents>,
}

impl<'a> DeviceShardedJob<'a> {
    /// Prunes, then admits the first live shard. A query whose every
    /// shard is pruned admits nothing and is immediately complete.
    pub fn admit(
        sess: &mut DeviceSession<'_>,
        d: &'a SsbData,
        pf: &'a PartitionedFact,
        q: &'a StarQuery,
    ) -> Result<Self, SessionOom> {
        let joins = q.joins.len();
        let mut job = DeviceShardedJob {
            d,
            pf,
            q,
            live: pf.live_shards(q),
            next: 0,
            cur: None,
            agg: vec![0i64; q.group_domain()],
            pred_survivors: 0,
            probes: vec![0usize; joins],
            hits: vec![0usize; joins],
            result_rows: 0,
            reports: Vec::new(),
            stage_meta: None,
            scanned: 0,
            uploaded: 0,
            staged: None,
        };
        job.admit_next(sess)?;
        Ok(job)
    }

    fn admit_next(&mut self, sess: &mut DeviceSession<'_>) -> Result<(), SessionOom> {
        if self.next < self.live.len() {
            let shard = self.live[self.next];
            self.next += 1;
            // Release the staging ledger *immediately before* re-admission:
            // the prefetched columns stay cached, so the admission re-pins
            // them as hits without allocating — there is no window in which
            // anything could evict them.
            let staged_events = match self.staged.take() {
                Some(s) => {
                    debug_assert_eq!(s.idx, self.next - 1, "staged shard out of order");
                    sess.end_query(s.qid);
                    s.events
                }
                None => None,
            };
            let mut cur = DeviceQueryJob::admit_shard(sess, self.d, self.pf, shard, self.q)?;
            self.uploaded += cur.uploaded_bytes();
            if let Some(ev) = staged_events {
                match &mut cur.copy_events {
                    Some(own) => own.merge(ev),
                    None => cur.copy_events = Some(ev),
                }
            }
            self.cur = Some(cur);
            self.prefetch_next(sess);
        }
        Ok(())
    }

    /// Stages the next live shard's columns on the copy stream while the
    /// current shard's kernel runs. Staging is strictly best-effort: it
    /// only proceeds when the uncached bytes fit the session budget *and*
    /// free device memory without evicting anything — a prefetch must
    /// never steal residency from the running shard or a co-tenant, so
    /// under pressure the double buffer stalls (the shard uploads at its
    /// own admission, exactly the pre-pipelining behavior).
    fn prefetch_next(&mut self, sess: &mut DeviceSession<'_>) {
        if self.staged.is_some() || self.next >= self.live.len() {
            return;
        }
        let shard = self.live[self.next];
        let fact = self.pf.shard(shard).encoded();
        let cols = self.q.fact_columns();
        let host_of = |c: FactCol| match fact.encoded(c) {
            EncodedColumn::Packed(p) => HostCol::Packed(p),
            EncodedColumn::Plain(v) => HostCol::Plain(v),
        };
        let uncached: usize = cols
            .iter()
            .map(|&c| {
                if sess.is_resident(shard_column_key(self.d, shard, c, fact)) {
                    0
                } else {
                    host_of(c).size_bytes()
                }
            })
            .sum();
        if sess.stats().cached_bytes + uncached > sess.budget()
            || uncached > sess.device_free_bytes()
        {
            return;
        }
        let before = sess.stats().clone();
        let qid = sess.begin_query();
        for &c in &cols {
            let key = shard_column_key(self.d, shard, c, fact);
            if sess.prefetch_column(qid, key, host_of(c)).is_err() {
                // Lost a race against concurrent allocation: stall rather
                // than evict. Entries uploaded so far stay cached and the
                // admission will reuse them.
                sess.end_query(qid);
                self.uploaded += sess.stats().uploaded_since(&before);
                return;
            }
        }
        self.uploaded += sess.stats().uploaded_since(&before);
        self.staged = Some(StagedShard {
            idx: self.next,
            qid,
            events: sess.take_pending_copy(),
        });
    }

    fn retire(&mut self, sess: &mut DeviceSession<'_>, job: DeviceQueryJob<'a>) {
        let p = job.into_partial(sess);
        for (a, v) in self.agg.iter_mut().zip(&p.agg) {
            *a += v;
        }
        self.pred_survivors += p.pred_survivors;
        for j in 0..self.probes.len() {
            self.probes[j] += p.probes[j];
            self.hits[j] += p.hits[j];
        }
        self.result_rows += p.result_rows;
        self.reports.extend(p.reports);
        if self.stage_meta.is_none() {
            self.stage_meta = Some(p.stages);
        }
    }

    /// Fact rows not yet processed (current shard plus unadmitted ones).
    pub fn remaining_rows(&self) -> usize {
        self.cur.as_ref().map_or(0, DeviceQueryJob::remaining_rows)
            + self.live[self.next..]
                .iter()
                .map(|&s| self.pf.shard(s).rows())
                .sum::<usize>()
    }

    /// Rows scanned so far (live shards only — the pruning saving).
    pub fn rows_scanned(&self) -> usize {
        self.scanned
    }

    /// Bytes shipped over PCIe by every shard admission so far (zero
    /// once the live working set is warm).
    pub fn uploaded_bytes(&self) -> usize {
        self.uploaded
    }

    /// Simulated kernel seconds launched so far, across retired shards
    /// and the in-flight one.
    pub fn sim_secs_so_far(&self) -> f64 {
        self.reports
            .iter()
            .map(|r| r.time.total_secs())
            .sum::<f64>()
            + self
                .cur
                .as_ref()
                .map_or(0.0, DeviceQueryJob::sim_secs_so_far)
    }

    /// Processes up to `max_rows` rows, retiring finished shards and
    /// admitting the next as the cursor crosses shard boundaries.
    /// Returns `Ok(true)` once every live shard is done; a mid-query
    /// shard admission can fail with the session's typed [`SessionOom`],
    /// in which case the caller abandons the job (nothing is half-pinned
    /// — the failed admission cleaned up after itself).
    pub fn step(
        &mut self,
        sess: &mut DeviceSession<'_>,
        max_rows: usize,
    ) -> Result<bool, SessionOom> {
        let mut budget = max_rows;
        loop {
            let Some(cur) = self.cur.as_mut() else {
                return Ok(true);
            };
            let grant = budget.min(cur.remaining_rows());
            if grant == 0 {
                return Ok(false);
            }
            let done = cur.step(sess, grant);
            self.scanned += grant;
            budget -= grant;
            if done {
                let job = self.cur.take().expect("a job was just stepped");
                self.retire(sess, job);
                self.admit_next(sess)?;
                if self.cur.is_none() {
                    return Ok(true);
                }
            }
            if budget == 0 {
                return Ok(false);
            }
        }
    }

    /// Releases the in-flight shard's device resources without a result
    /// — the mid-query OOM recovery path. Retired shards' partial work
    /// is discarded with the job.
    pub fn abandon(mut self, sess: &mut DeviceSession<'_>) {
        if let Some(s) = self.staged.take() {
            sess.end_query(s.qid);
        }
        if let Some(job) = self.cur.take() {
            job.abandon(sess);
        }
    }

    /// Assembles the merged run. `fact_rows` reports the full table size
    /// so the trace compares against unsharded runs directly; in the
    /// all-shards-pruned case the stage sizes come from a host-side
    /// dimension build (no device table was ever constructed).
    pub fn finish(self, sess: &mut DeviceSession<'_>) -> GpuRun {
        assert!(
            self.cur.is_none() && self.next >= self.live.len(),
            "finished a sharded job with shards remaining"
        );
        // Staging only ever covers a shard that is still to be admitted,
        // so a complete job cannot hold a staged ledger.
        debug_assert!(self.staged.is_none());
        let _ = sess;
        let result = groups_to_result(self.q, &self.agg);
        let stages = match self.stage_meta {
            Some(meta) => meta
                .into_iter()
                .enumerate()
                .map(|(j, m)| StageTrace {
                    probes: self.probes[j],
                    hits: self.hits[j],
                    ..m
                })
                .collect(),
            None => self
                .q
                .joins
                .iter()
                .map(|join| {
                    let lk = DimLookup::build(self.d, join);
                    StageTrace {
                        table: join.table,
                        probes: 0,
                        hits: 0,
                        ht_bytes: lk.size_bytes(),
                        dim_insert_frac: lk.inserted as f64 / join.keys(self.d).len().max(1) as f64,
                    }
                })
                .collect(),
        };
        let trace = QueryTrace {
            fact_rows: self.pf.total_rows(),
            pred_survivors: self.pred_survivors,
            stages,
            result_rows: self.result_rows,
            groups: result.rows(),
        };
        GpuRun {
            result,
            trace,
            reports: self.reports,
        }
    }
}

/// Runs a sharded query through a (possibly warm) session to completion:
/// the sharded sibling of [`execute_session`]. A mid-query shard
/// admission OOM abandons the device work and surfaces the typed error
/// (the copro path then restarts the query on the host).
pub fn execute_partitioned_session(
    sess: &mut DeviceSession<'_>,
    d: &SsbData,
    pf: &PartitionedFact,
    q: &StarQuery,
) -> Result<GpuRun, SessionOom> {
    let mut job = DeviceShardedJob::admit(sess, d, pf, q)?;
    loop {
        match job.step(sess, usize::MAX) {
            Ok(true) => return Ok(job.finish(sess)),
            Ok(false) => continue,
            Err(e) => {
                job.abandon(sess);
                return Err(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::reference;
    use crate::queries::{all_queries, query, QueryId};
    use crystal_hardware::nvidia_v100;

    fn data() -> SsbData {
        SsbData::generate_scaled(1, 0.003, 19) // 18k fact rows
    }

    #[test]
    fn matches_reference_on_all_queries() {
        let d = data();
        let mut gpu = Gpu::new(nvidia_v100());
        for q in all_queries(&d) {
            let expected = reference::execute(&d, &q);
            let run = execute(&mut gpu, &d, &q).unwrap();
            assert_eq!(run.result, expected, "{} diverged", q.name);
        }
    }

    #[test]
    fn probe_kernel_reads_first_column_fully_and_later_columns_selectively() {
        let d = data();
        let mut gpu = Gpu::new(nvidia_v100());
        let q = query(&d, QueryId::new(2, 1));
        let run = execute(&mut gpu, &d, &q).unwrap();
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
        let run = execute(&mut gpu, &d, &q).unwrap();
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
        let run = execute(&mut gpu, &d, &q).unwrap();
        let probe = run.reports.last().unwrap();
        assert_eq!(
            probe.stats.scattered_atomics as usize,
            run.trace.result_rows
        );
    }

    /// Transient entry points leave no residue: every buffer a query
    /// touched is freed when its implicit session drops.
    #[test]
    fn transient_execution_frees_all_device_memory() {
        let d = data();
        let mut gpu = Gpu::new(nvidia_v100());
        let q = query(&d, QueryId::new(2, 1));
        let _ = execute(&mut gpu, &d, &q).unwrap();
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
        let mut gpu = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::new(&mut gpu);

        let cold = execute_session(&mut sess, &d, &q).unwrap();
        assert_eq!(cold.result, expected);
        let cold_uploaded = sess.stats().uploaded_bytes;
        assert_eq!(
            cold_uploaded as usize,
            q.fact_columns().len() * 4 * d.lineorder.rows()
        );

        let before = sess.stats().clone();
        let warm = execute_session(&mut sess, &d, &q).unwrap();
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
        let cold21 = execute_session(&mut sess, &d, &q21).unwrap();
        let builds_after_cold = sess.stats().ht_misses;
        assert!(builds_after_cold >= 3, "q2.1 builds its three dim tables");
        let warm21 = execute_session(&mut sess, &d, &q21).unwrap();
        assert_eq!(warm21.result, cold21.result);
        assert_eq!(sess.stats().ht_misses, builds_after_cold, "no rebuilds");
        assert_eq!(sess.stats().ht_hits, 3, "all three joins memoized");
        assert_eq!(warm21.reports.len(), 1);
    }

    /// Packed execution is bit-identical and, on the bandwidth-bound
    /// simulated device, the scan-dominated q1.1 reads fewer bytes and
    /// finishes faster than its plain run.
    #[test]
    fn encoded_execution_matches_and_reads_fewer_bytes() {
        use crate::encoding::{EncodedFact, FactEncodings};
        let d = data();
        let fact = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
        let mut gpu = Gpu::new(nvidia_v100());
        for q in all_queries(&d).into_iter().take(5) {
            let expected = reference::execute(&d, &q);
            gpu.reset_l2();
            let run = execute_encoded(&mut gpu, &d, &fact, &q).unwrap();
            assert_eq!(run.result, expected, "{} packed diverged", q.name);
        }
        let q11 = query(&d, QueryId::new(1, 1));
        gpu.reset_l2();
        let plain = execute(&mut gpu, &d, &q11).unwrap();
        gpu.reset_l2();
        let packed = execute_encoded(&mut gpu, &d, &fact, &q11).unwrap();
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
        let run = execute(&mut gpu, &d, &q).unwrap();
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
        let mut run = execute(&mut gpu, &d, &q).unwrap();
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

    /// The sharded device path is byte-identical to the unsharded engine
    /// — result *and* trace — for every query and several shard counts,
    /// and pruning scans fewer rows on the date-filtered q1.1.
    #[test]
    fn sharded_device_execution_matches_unsharded() {
        use crate::encoding::FactEncodings;
        let d = data();
        for shards in [1usize, 3, 8] {
            let pf = PartitionedFact::partition(&d, shards, &FactEncodings::plain());
            let mut gpu = Gpu::new(nvidia_v100());
            for q in all_queries(&d) {
                let mut g2 = Gpu::new(nvidia_v100());
                let expected = execute(&mut g2, &d, &q).unwrap();
                let mut sess = DeviceSession::new(&mut gpu);
                let run = execute_partitioned_session(&mut sess, &d, &pf, &q).unwrap();
                assert_eq!(run.result, expected.result, "{} x{shards} result", q.name);
                assert_eq!(run.trace, expected.trace, "{} x{shards} trace", q.name);
            }
        }
        let pf = PartitionedFact::partition(&d, 8, &FactEncodings::plain());
        let q11 = query(&d, QueryId::new(1, 1));
        assert!(
            pf.live_rows(&q11) < d.lineorder.rows(),
            "a one-year predicate must prune 8 shards over 7 years"
        );
    }

    /// Splitting a sharded device job into arbitrary grants changes
    /// nothing: every grant pattern yields the byte-identical run.
    #[test]
    fn sharded_job_is_grant_invariant() {
        use crate::encoding::FactEncodings;
        let d = data();
        let pf = PartitionedFact::partition(&d, 5, &FactEncodings::plain());
        let q = query(&d, QueryId::new(3, 2));
        let mut gpu = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::new(&mut gpu);
        let whole = execute_partitioned_session(&mut sess, &d, &pf, &q).unwrap();
        for grant in [997usize, 4096, usize::MAX] {
            let mut g = Gpu::new(nvidia_v100());
            let mut s = DeviceSession::new(&mut g);
            let mut job = DeviceShardedJob::admit(&mut s, &d, &pf, &q).unwrap();
            assert_eq!(job.remaining_rows(), pf.live_rows(&q));
            while !job.step(&mut s, grant).unwrap() {}
            assert_eq!(job.rows_scanned(), pf.live_rows(&q));
            let run = job.finish(&mut s);
            assert_eq!(run.result, whole.result, "grant {grant} diverged");
            assert_eq!(run.trace, whole.trace, "grant {grant} trace diverged");
        }
    }

    /// The beyond-memory acceptance test: a session whose budget is half
    /// the sharded working set must evict between shards, yet a two-pass
    /// replay of every query stays byte-identical to the unsharded run.
    #[test]
    fn starved_sharded_replay_evicts_and_matches() {
        use crate::encoding::FactEncodings;
        let d = data();
        let pf = PartitionedFact::partition(&d, 8, &FactEncodings::plain());
        let mut gpu = Gpu::new(nvidia_v100());
        let budget = pf.size_bytes() / 2;
        let mut sess = DeviceSession::with_budget(&mut gpu, budget);
        for pass in 0..2 {
            for q in all_queries(&d) {
                let mut g2 = Gpu::new(nvidia_v100());
                let expected = execute(&mut g2, &d, &q).unwrap();
                let run = execute_partitioned_session(&mut sess, &d, &pf, &q).unwrap();
                assert_eq!(run.result, expected.result, "{} pass {pass}", q.name);
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
            let run = execute(&mut gpu, &d, &q).unwrap();
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
        let mut job = DeviceQueryJob::admit(&mut sess, &d, None, &q).unwrap();
        assert!(!job.step(&mut sess, 2048), "2048 rows leave work behind");
        job.abandon(&mut sess);
        let run = execute_session(&mut sess, &d, &q).unwrap();
        assert_eq!(run.result, expected, "post-abandon rerun diverged");
    }

    /// Mid-query shard admission OOM: another tenant pins the retiring
    /// shard's columns *and* holds scratch covering the rest of a small
    /// device, so the next shard cannot fit. The job surfaces the typed
    /// error, `abandon` releases everything it held, and once the tenant
    /// lets go the same query completes cleanly in the same session.
    #[test]
    fn mid_query_oom_abandons_cleanly() {
        use crate::encoding::FactEncodings;
        let d = data();
        let pf = PartitionedFact::partition(&d, 4, &FactEncodings::plain());
        let q = query(&d, QueryId::new(2, 1));
        let cols = q.fact_columns();
        let shard0 = pf.shard(0);

        // A device a few shards wide: room for one admitted shard plus
        // the memoized dimension tables (with the build's 2x staging
        // headroom), nowhere near the whole table.
        use crate::engines::dim_table_bytes;
        let dims: usize = q.joins.iter().map(|j| dim_table_bytes(&d, j)).sum();
        let mut spec = nvidia_v100();
        spec.mem_capacity = 2 * dims + 4 * shard0.columns_bytes(&cols);
        let mut gpu = Gpu::new(spec);
        let mut sess = DeviceSession::with_budget(&mut gpu, usize::MAX);
        let mut job = DeviceShardedJob::admit(&mut sess, &d, &pf, &q).unwrap();

        // A second tenant pins shard 0's columns (pure cache hits) and
        // fills every remaining physical byte with scratch, so retiring
        // shard 0 frees nothing shard 1 could use.
        let ext = sess.begin_query();
        for &c in &cols {
            let key = shard_column_key(&d, 0, c, shard0.encoded());
            let rc = match shard0.encoded().encoded(c) {
                EncodedColumn::Plain(v) => sess.pin_column(ext, key, HostCol::Plain(v)),
                EncodedColumn::Packed(p) => sess.pin_column(ext, key, HostCol::Packed(p)),
            };
            rc.expect("hitting a resident column allocates nothing");
        }
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
        sess.end_query(ext);

        // Everything the abandoned job and the tenant held was released:
        // the same query now runs shard-at-a-time to completion in the
        // same session on the same small device.
        let run = execute_partitioned_session(&mut sess, &d, &pf, &q).unwrap();
        let mut g2 = Gpu::new(nvidia_v100());
        let expected = execute(&mut g2, &d, &q).unwrap();
        assert_eq!(run.result, expected.result, "post-abandon run diverged");
    }
}
