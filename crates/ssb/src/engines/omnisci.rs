//! Omnisci-style GPU engine: the thread-per-row, operator-at-a-time
//! simulation — the differential reference the fusion harness and Figure
//! 16 measure the fused [`crate::engines::gpu`] megakernel against.
//!
//! "Omnisci treats each GPU thread as an independent unit. As a result, it
//! does not realize benefits of blocked loading and better GPU utilization
//! got from using the tile-based model" (Section 5.2). [`execute`]
//! reproduces that style on the simulator:
//!
//! * one kernel **per operator** (predicate scans, one per join, a final
//!   aggregate pass), each reading its inputs from global memory and
//!   materializing a device-wide survivor flag array in between;
//! * one item per thread (`items_per_thread = 1`: no vectorized loads);
//! * no shared-memory tiles, no block-wide cooperation.
//!
//! The extra global-memory round trips and the un-vectorized loads are
//! what put it ~16x behind the Crystal engine in the paper's Figure 16.
//!
//! Device residency flows through the same
//! [`DeviceSession`] as the Crystal
//! engine: fact columns resolve from the session's cache and the
//! dimension perfect-hash tables come from the shared memoizer (the same
//! build fingerprints, so Crystal and Omnisci runs of one query share the
//! built tables inside one session). Survivor flags and materialized code
//! columns are per-query scratch.

use std::rc::Rc;

use crystal_gpu_sim::exec::LaunchConfig;
use crystal_gpu_sim::mem::DeviceBuffer;
use crystal_gpu_sim::stats::KernelReport;
use crystal_runtime::{DeviceCol, DeviceSession, SessionOom};

use crate::data::SsbData;
use crate::engines::profile::QueryProfile;
use crate::engines::{
    dim_device_table, dim_join_fingerprint, dim_table_bytes, group_key, GroupAcc,
};
use crate::plan::{FactCol, StarQuery};
use crate::table::FactTable;

fn thread_per_row_cfg(n: usize) -> LaunchConfig {
    LaunchConfig {
        grid_dim: n.div_ceil(256),
        block_dim: 256,
        items_per_thread: 1,
        shared_mem_bytes: 0,
    }
}

/// Executes one query operator-at-a-time through a (fresh or warm)
/// session. The profile charges what the session shipped, like the fused
/// engine's; it carries no trace (the operators count no rows). A device
/// too small for a column, a table's build or the query's scratch is the
/// session's typed refusal, with the scratch taken so far freed.
pub fn execute(
    sess: &mut DeviceSession<'_>,
    d: &SsbData,
    q: &StarQuery,
) -> Result<QueryProfile, SessionOom> {
    let mark = QueryProfile::mark(sess);
    // Device-wide survivor flags, materialized between operators.
    let mut flags = sess.try_alloc_scratch_zeroed::<u8>(d.lineorder.rows())?;
    flags.as_mut_slice().fill(1);
    let (mut code_bufs, mut agg_table) = (Vec::new(), None);
    let ran = operators(sess, d, q, &mut flags, &mut code_bufs, &mut agg_table);

    // Scratch cleanup, on either path; session-cached columns and tables
    // stay resident (the trim re-establishes the cache budget now that the
    // operators' holds have dropped).
    for c in code_bufs {
        sess.free_scratch(c);
    }
    if let Some(table) = agg_table {
        sess.free_scratch(table);
    }
    sess.free_scratch(flags);
    sess.trim();
    let (reports, agg_host) = ran?;

    let mut profile = QueryProfile::empty(q);
    profile.book(sess, mark);
    profile
        .time
        .settle(reports.iter().map(|r| r.time.total_secs()).sum());
    profile.result = agg_host.to_result(q);
    profile.reports = reports;
    profile.device_segments_run = 1;
    Ok(profile)
}

/// The operators of [`execute`] over scratch its caller owns (and frees,
/// whether or not this returns early): the kernels' reports and the
/// aggregate's values.
fn operators(
    sess: &mut DeviceSession<'_>,
    d: &SsbData,
    q: &StarQuery,
    flags: &mut DeviceBuffer<u8>,
    code_bufs: &mut Vec<DeviceBuffer<i32>>,
    agg_table: &mut Option<DeviceBuffer<i64>>,
) -> Result<(Vec<KernelReport>, GroupAcc), SessionOom> {
    let n = d.lineorder.rows();
    let mut reports = Vec::new();

    let whole = FactTable::plain(d).segments()[0];
    let column =
        |sess: &mut DeviceSession<'_>, c: FactCol| sess.try_column(whole.key(c), whole.host_col(c));

    // Predicate kernels: read column + flags, write flags.
    for p in &q.fact_preds {
        let col = column(sess, p.col)?;
        let r = sess.gpu().launch(
            &format!("omnisci_filter_{:?}", p.col),
            thread_per_row_cfg(n),
            |ctx| {
                let (start, len) = ctx.tile_bounds(n);
                ctx.global_read_coalesced(len * 5); // column + old flags
                for i in start..start + len {
                    let keep = flags.as_slice()[i] != 0 && p.matches(col.plain().as_slice()[i]);
                    flags.as_mut_slice()[i] = u8::from(keep);
                }
                ctx.compute(len);
                ctx.global_write_coalesced(len);
            },
        );
        reports.push(r.tag_fact_linear());
    }

    // Join kernels: read FK column + flags, probe the memoized
    // perfect-hash dimension table (uncoalesced gathers), write flags and
    // a materialized code column.
    for join in &q.joins {
        let fp = dim_join_fingerprint(d, join);
        // The build is deferred into the closure: a warm hit pays neither
        // the build kernel nor the lookup of the join's cached halves.
        let (ht, built) = sess.try_hash_table(fp, dim_table_bytes(d, join), |gpu| {
            dim_device_table(gpu, d, join)
        })?;
        reports.extend(built);
        let fk_col = column(sess, join.fact_fk)?;
        let mut codes: DeviceBuffer<i32> = sess.try_alloc_scratch_zeroed(n)?;
        let r = sess.gpu().launch(
            &format!("omnisci_join_{:?}", join.table),
            thread_per_row_cfg(n),
            |ctx| {
                let (start, len) = ctx.tile_bounds(n);
                ctx.global_read_coalesced(len * 5); // fk column + flags
                for i in start..start + len {
                    if flags.as_slice()[i] == 0 {
                        continue;
                    }
                    let fk = fk_col.plain().as_slice()[i];
                    // Probe the device-resident perfect-hash slot (the
                    // probe accounts its gather + compare).
                    match ht.probe(ctx, fk) {
                        Some(code) => codes.as_mut_slice()[i] = code,
                        None => flags.as_mut_slice()[i] = 0,
                    }
                }
                // Materialize flags + codes.
                ctx.global_write_coalesced(len * 5);
            },
        );
        reports.push(r.tag_fact_linear());
        code_bufs.push(codes);
    }

    // Aggregation kernel: gather aggregate inputs for flagged rows; every
    // thread updates the group table (or a global sum) atomically per row —
    // the per-row atomic pattern of Section 3.2.
    let (digits, domain) = (q.group_digits(), q.group_domain());
    // The kernel takes only the table's addresses; the sums live in the
    // host's accumulator.
    let agg_table = agg_table.insert(sess.try_alloc_scratch_unbacked(domain)?);
    let mut agg_host = GroupAcc::new(domain);
    let agg_cols = q.agg.columns().iter().map(|&c| column(sess, c));
    let agg_cols: Vec<Rc<DeviceCol>> = agg_cols.collect::<Result<_, _>>()?;

    let r = sess
        .gpu()
        .launch("omnisci_aggregate", thread_per_row_cfg(n), |ctx| {
            let (start, len) = ctx.tile_bounds(n);
            // Flags plus every aggregate input column, read in full (no
            // selective tile loads without block cooperation).
            ctx.global_read_coalesced(len * (1 + 4 * agg_cols.len()) + len * 4 * code_bufs.len());
            for i in start..start + len {
                if flags.as_slice()[i] == 0 {
                    continue;
                }
                let v = q.agg.value(|t| agg_cols[t].plain().as_slice()[i]);
                let idx = group_key(&digits, |j| code_bufs[j].as_slice()[i]);
                if digits.is_empty() {
                    // Per-row contended atomic on the single aggregate.
                    ctx.atomic_same_addr(1);
                } else {
                    ctx.atomic_scattered(agg_table.addr_of(idx));
                }
                agg_host.add(idx, v);
                ctx.compute(2);
            }
        });
    reports.push(r.tag_fact_linear());
    Ok((reports, agg_host))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{gpu as crystal_gpu, reference};
    use crate::queries::{all_queries, query, QueryId};
    use crystal_gpu_sim::Gpu;
    use crystal_hardware::nvidia_v100;

    fn data() -> SsbData {
        SsbData::generate_scaled(1, 0.002, 37)
    }

    #[test]
    fn matches_reference_on_all_queries() {
        let d = data();
        let mut gpu = Gpu::new(nvidia_v100());
        for q in all_queries(&d) {
            let run = execute(&mut DeviceSession::new(&mut gpu), &d, &q).unwrap();
            assert_eq!(run.result, reference::execute(&d, &q), "{}", q.name);
        }
        assert_eq!(gpu.mem_used(), 0, "transient sessions must free");
    }

    /// Figure 16's mechanism: the thread-per-row operator-at-a-time style
    /// is far slower than the tile-based Crystal engine.
    #[test]
    fn crystal_outperforms_omnisci_style() {
        let d = data();
        let mut gpu = Gpu::new(nvidia_v100());
        let q = query(&d, QueryId::new(2, 1));
        let table = FactTable::plain(&d);
        let crystal = crystal_gpu::execute(&mut DeviceSession::new(&mut gpu), &table, &q).unwrap();
        gpu.reset_l2();
        let omnisci = execute(&mut DeviceSession::new(&mut gpu), &d, &q).unwrap();
        let crystal_probe: f64 = crystal.reports.last().unwrap().time.total_secs();
        let omnisci_total = omnisci.sim_secs();
        assert!(
            omnisci_total > 3.0 * crystal_probe,
            "omnisci {omnisci_total} vs crystal probe {crystal_probe}"
        );
    }

    /// Crystal and Omnisci runs of one query inside one session share the
    /// memoized dimension tables and cached columns.
    #[test]
    fn shares_session_residency_with_the_crystal_engine() {
        let d = data();
        let q = query(&d, QueryId::new(2, 1));
        let expected = reference::execute(&d, &q);
        let mut gpu = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::new(&mut gpu);
        let crystal = crystal_gpu::execute(&mut sess, &FactTable::plain(&d), &q).unwrap();
        assert_eq!(crystal.result, expected);
        let before = sess.stats().clone();
        let omnisci = execute(&mut sess, &d, &q).unwrap();
        assert_eq!(omnisci.result, expected);
        assert_eq!(
            sess.stats().uploaded_since(&before),
            0,
            "omnisci reuses every column crystal uploaded"
        );
        assert_eq!(
            sess.stats().ht_misses,
            before.ht_misses,
            "no new builds: the memoized tables are shared"
        );
    }
}
