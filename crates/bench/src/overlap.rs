//! The `reproduce overlap` experiment: PCIe transfer hidden behind
//! kernel execution by the simulated copy engine.
//!
//! Every device query runs twice over the same accounting: the **serial**
//! charge is the pre-stream rule — every upload at its full
//! latency-inclusive [`PcieSpec::transfer_secs`] plus every kernel,
//! back to back ([`ExecStats::dma_secs`]` + `[`ExecStats::kernel_secs`]) —
//! and the **overlapped** charge is the [`StreamEngine`] makespan the same
//! run actually produced, with uploads streaming on the DMA queue while
//! kernels run on the compute queue. Two effects are measured and gated:
//!
//! * **Cold chunked upload** (`COLD_SPEEDUP`) — a cold unsharded q1.1 on
//!   the stream clocks against serial charging: the consumer kernel starts
//!   once the first 16 KiB chunk lands and queued copies stream
//!   back-to-back at line rate instead of paying per-copy latency on the
//!   makespan.
//! * **Shard double-buffering** (`HIDDEN_FRAC`) — an 8-shard cold replay
//!   of a no-date-filter query (every shard live) prefetches shard *k+1*
//!   while shard *k*'s kernels run; most of the non-first-shard transfer
//!   time must disappear from the makespan.
//!
//! Both paths assert byte-identity against the reference oracle inline —
//! the streams reorder time, never bytes. `--smoke` runs the two band
//! queries only.
//!
//! [`PcieSpec::transfer_secs`]: crystal_hardware::PcieSpec::transfer_secs
//! [`ExecStats::dma_secs`]: crystal_gpu_sim::ExecStats
//! [`ExecStats::kernel_secs`]: crystal_gpu_sim::ExecStats
//! [`StreamEngine`]: crystal_gpu_sim::StreamEngine

use crystal_gpu_sim::pcie::coprocessor_time;
use crystal_hardware::pcie_gen3;
use crystal_ssb::encoding::FactEncodings;
use crystal_ssb::engines::profile::QueryProfile;
use crystal_ssb::plan::StarQuery;
use crystal_ssb::{all_queries, query, FactTable, PartitionedFact, QueryId, SsbData};

use crate::check::{Band, Check};
use crate::sharded::SHARDS;
use crate::stream::{cold, STREAM_SEED};
use crate::util::{Config, Report};

/// Cold q1.1's serial (latency-inclusive, no-overlap) charge over its
/// stream-clock makespan.
pub(crate) const COLD_SPEEDUP: Band = Band::new(
    "cold q1.1 overlap speedup (>= 1.4x)",
    2.0,
    1.4..=f64::INFINITY,
);
/// Fraction of q2.1's non-first-shard transfer time the double-buffered
/// sharded replay hides behind kernels.
pub(crate) const HIDDEN_FRAC: Band =
    Band::new("sharded prefetch hides transfer (>= 70%)", 1.0, 0.7..=1.0);

/// The pre-stream serial charge: every upload at its full
/// latency-inclusive cost plus every kernel, back to back.
fn serial_secs(run: &QueryProfile) -> f64 {
    run.exec.dma_secs + run.exec.kernel_secs
}

/// Serial over overlapped charge of one cold query — what pipelining
/// bought.
fn speedup(run: &QueryProfile) -> f64 {
    serial_secs(run) / run.makespan_secs.max(1e-30)
}

/// Outcome of one cold double-buffered sharded replay.
#[derive(Debug, Clone)]
pub(crate) struct ShardedOverlap {
    /// The query, [`cold`].
    pub run: QueryProfile,
    /// Live shards after pruning.
    pub live_shards: usize,
    /// Serialized transfer seconds of every shard after the first (the
    /// prefetchable part; dimension uploads count toward it too).
    pub non_first_transfer_secs: f64,
    /// Fraction of `non_first_transfer_secs` absent from the makespan.
    pub hidden_frac: f64,
}

/// [`cold`] over a sharded table, measuring how much of the
/// non-first-shard transfer the prefetch hid. The first
/// shard's upload can never be hidden (nothing runs yet), so the band
/// is on everything after it.
pub(crate) fn cold_sharded(table: &FactTable<'_>, q: &StarQuery) -> ShardedOverlap {
    let pcie = pcie_gen3();
    let run = cold(table, q);
    let live = table.live(q);
    // The first live shard ships one transfer per referenced fact column
    // (plain encoding: rows * 4 bytes each); everything else — later
    // shards and the dimension uploads — is prefetchable.
    let first_rows = live.first().map_or(0, |&s| table.segments()[s].rows());
    let first_dma: f64 = q
        .fact_columns()
        .iter()
        .map(|_| pcie.transfer_secs(first_rows * 4))
        .sum();
    let non_first = (run.exec.dma_secs - first_dma).max(0.0);
    let hidden = (serial_secs(&run) - run.makespan_secs).clamp(0.0, non_first);
    ShardedOverlap {
        run,
        live_shards: live.len(),
        non_first_transfer_secs: non_first,
        hidden_frac: hidden / non_first.max(1e-30),
    }
}

/// What the two bands read: q1.1 cold over `d`'s plain table, and q2.1 cold
/// over its shards `pf` (it carries no date predicate, so every shard stays
/// live and the prefetcher has all but the first to hide).
pub(crate) fn measure(d: &SsbData, pf: &PartitionedFact) -> (QueryProfile, ShardedOverlap) {
    let q11 = cold(&FactTable::plain(d), &query(d, QueryId::new(1, 1)));
    let q21 = cold_sharded(&FactTable::sharded(d, pf), &query(d, QueryId::new(2, 1)));
    let shards = pf.shard_count();
    assert_eq!(q21.live_shards, shards, "q2.1 must keep every shard live");
    (q11, q21)
}

/// The two bands of a [`measure`].
pub(crate) fn checks((q11, q21): &(QueryProfile, ShardedOverlap)) -> Vec<Check> {
    vec![
        COLD_SPEEDUP.check(speedup(q11)),
        HIDDEN_FRAC.check(q21.hidden_frac),
    ]
}

/// The `reproduce overlap` experiment. `--smoke` runs only the two band
/// queries (the CI gate).
pub fn overlap(cfg: &Config, smoke: bool) -> Vec<Check> {
    let scale = cfg.fact_scale.min(0.004);
    let d = SsbData::generate_scaled(1, scale, STREAM_SEED);
    let pcie = pcie_gen3();
    println!(
        "overlap: {} fact rows, PCIe Gen3, {} KiB upload chunks",
        d.lineorder.rows(),
        crystal_hardware::UPLOAD_CHUNK_BYTES / 1024
    );

    let mut report = Report::new(
        "overlap",
        &[
            "case",
            "serial us",
            "makespan us",
            "speedup",
            "dma us",
            "kernel us",
            "transfers",
        ],
    );
    let us = |s: f64| format!("{:.2}", s * 1e6);

    let q11 = query(&d, QueryId::new(1, 1));
    let catalogue: Vec<StarQuery> = if smoke {
        vec![q11.clone()]
    } else {
        all_queries(&d)
    };
    let plain = FactTable::plain(&d);
    for q in &catalogue {
        let r = cold(&plain, q);
        report.row(vec![
            format!("cold {}", q.name),
            us(serial_secs(&r)),
            us(r.makespan_secs),
            format!("{:.2}x", speedup(&r)),
            us(r.exec.dma_secs),
            us(r.exec.kernel_secs),
            r.exec.dma_transfers.to_string(),
        ]);
    }

    let pf = PartitionedFact::partition(&d, SHARDS, &FactEncodings::plain());
    let sharded = FactTable::sharded(&d, &pf);
    let sharded_queries: Vec<QueryId> = if smoke {
        vec![QueryId::new(2, 1)]
    } else {
        vec![QueryId::new(2, 1), QueryId::new(3, 1), QueryId::new(4, 1)]
    };
    for id in sharded_queries {
        let q = query(&d, id);
        let s = cold_sharded(&sharded, &q);
        report.row(vec![
            format!("sharded {} ({}/{} shards)", q.name, s.live_shards, SHARDS),
            us(serial_secs(&s.run)),
            us(s.run.makespan_secs),
            format!("hid {:.0}%", s.hidden_frac * 100.0),
            us(s.run.exec.dma_secs),
            us(s.run.exec.kernel_secs),
            s.run.exec.dma_transfers.to_string(),
        ]);
    }

    // Cross-check: the analytic chunk-pipelined estimate (the model the
    // placement bounds use) for q1.1's fact upload racing its kernels,
    // beside the measured makespan.
    let bands = measure(&d, &pf);
    let (q11_run, q21) = &bands;
    let fact_bytes: usize = q11.fact_columns().len() * d.lineorder.rows() * 4;
    report.row(vec![
        "q1.1 model estimate".into(),
        us(serial_secs(q11_run)),
        us(coprocessor_time(&pcie, fact_bytes, q11_run.exec.kernel_secs).pipelined),
        "-".into(),
        us(q11_run.exec.dma_secs),
        us(q11_run.exec.kernel_secs),
        q11_run.exec.dma_transfers.to_string(),
    ]);
    report.finish();

    println!(
        "sharded q2.1: {:.2} us of non-first-shard transfer across {} shards",
        q21.non_first_transfer_secs * 1e6,
        q21.live_shards
    );
    println!("every pipelined result byte-identical to the reference oracle (asserted)");
    checks(&bands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::verdict;

    /// Both bands at the scorecard's scale, and what they do not say: the
    /// measured makespan of a cold q1.1 lies between the perfect-overlap
    /// lower bound and the serial upper bound of the same transfer/kernel
    /// split.
    #[test]
    fn overlap_bands_hold_and_the_makespan_respects_the_model_bounds() {
        let d = SsbData::generate_scaled(1, 0.002, STREAM_SEED);
        let pf = PartitionedFact::partition(&d, SHARDS, &FactEncodings::plain());
        let bands = measure(&d, &pf);
        assert!(verdict("overlap", &checks(&bands)));
        let r = &bands.0;
        assert!(r.makespan_secs <= serial_secs(r) + 1e-15);
        assert!(r.makespan_secs >= r.exec.kernel_secs.max(0.0));
        assert!(r.exec.dma_transfers > 0, "a cold query must issue DMA");
    }
}
