//! The `reproduce sharded` experiment: the beyond-memory regime over a
//! range-partitioned fact table.
//!
//! The fact table is split into orderdate range shards
//! ([`PartitionedFact`]), each an independent residency unit with its own
//! min/max zone map. Two effects are measured and gated:
//!
//! * **Partition pruning** — every SSB query runs through the sharded
//!   host executor; date-filtered queries must scan strictly fewer rows
//!   than the table holds (`Q11_SCAN_FRAC`: a one-year predicate over
//!   seven years of data keeps roughly an eighth of 8 shards live, up to
//!   two where shard boundaries straddle year edges).
//! * **Eviction-heavy sharded replay** — the pinned query stream replays
//!   on the device through one shared session whose budget is *half* the
//!   sharded working set, so GreedyDual-Size must rotate shards in and
//!   out (`REPLAY_EVICTS`). Every replayed result is asserted
//!   byte-identical to the reference oracle — eviction pressure and
//!   shard-at-a-time merging must not change a single aggregate value.

use crystal_hardware::table2_profile;
use crystal_ssb::encoding::FactEncodings;
use crystal_ssb::exec::{self, PipelineMode};
use crystal_ssb::{all_queries, FactTable, PartitionedFact, QueryId, SsbData, StarQuery};

use crate::check::{Band, Check};
use crate::stream::{pinned_stream, replay, Replay, Sessions, STREAM_SEED};
use crate::util::{Config, Report};

/// Shards the experiment partitions the fact table into.
pub(crate) const SHARDS: usize = 8;

/// q1.1's scanned-row fraction under [`SHARDS`] shards.
pub(crate) const Q11_SCAN_FRAC: Band =
    Band::new("sharded q1.1 scan fraction (8 shards)", 0.14, 0.05..=0.6);
/// Whether the replay under half the sharded working set evicted at all.
pub(crate) const REPLAY_EVICTS: Band = Band::new(
    "starved sharded replay evicts, byte-identical",
    1.0,
    1.0..=1.0,
);

/// What the two bands read: q1.1's pruned scan and the starved replay.
pub(crate) struct Measured {
    /// [`pruned_fraction`] of q1.1.
    pub q11_scan_frac: f64,
    /// Device cache budget of the replay: half the sharded table's bytes.
    pub budget_bytes: usize,
    /// `stream` shard by shard through one session capped at that budget.
    pub replay: Replay,
}

/// Measures `pf` (a partition of `d`) for the two bands.
pub(crate) fn measure(
    d: &SsbData,
    pf: &PartitionedFact,
    stream: &[StarQuery],
    threads: usize,
) -> Measured {
    let q11 = crystal_ssb::query(d, QueryId::new(1, 1));
    let budget_bytes = pf.size_bytes() / 2;
    let sessions = Sessions::Shared(Some(budget_bytes));
    Measured {
        q11_scan_frac: pruned_fraction(d, pf, &q11, threads),
        budget_bytes,
        replay: replay(
            &FactTable::sharded(d, pf),
            stream,
            sessions,
            &table2_profile(),
        ),
    }
}

impl Measured {
    pub(crate) fn checks(&self) -> Vec<Check> {
        vec![
            Q11_SCAN_FRAC.check(self.q11_scan_frac),
            REPLAY_EVICTS.check_flag(self.replay.session.evictions > 0),
        ]
    }
}

/// Scanned-row fraction of one query under pruning (host sharded path),
/// with the result asserted byte-identical to the unsharded executor.
pub(crate) fn pruned_fraction(
    d: &SsbData,
    pf: &PartitionedFact,
    q: &StarQuery,
    threads: usize,
) -> f64 {
    let (plain, sharded) = (FactTable::plain(d), FactTable::sharded(d, pf));
    let (expected, expected_trace) = exec::execute(&plain, q, threads, PipelineMode::Vectorized);
    let (got, trace) = exec::execute(&sharded, q, threads, PipelineMode::Vectorized);
    let scanned = sharded.live_rows(q);
    assert_eq!(got, expected, "{}: sharded result diverged", q.name);
    assert_eq!(trace, expected_trace, "{}: sharded trace diverged", q.name);
    scanned as f64 / pf.total_rows().max(1) as f64
}

/// The `reproduce sharded` experiment. `--smoke` replays a shorter
/// stream (the CI gate).
pub fn sharded(cfg: &Config, smoke: bool) -> Vec<Check> {
    let scale = cfg.fact_scale.min(0.004);
    let d = SsbData::generate_scaled(1, scale, STREAM_SEED);
    let pf = PartitionedFact::partition(&d, SHARDS, &FactEncodings::plain());
    println!(
        "sharded: {} fact rows in {} orderdate shards ({} KiB encoded)",
        pf.total_rows(),
        pf.shard_count(),
        pf.size_bytes() / 1024
    );

    let mut report = Report::new(
        "sharded",
        &[
            "query",
            "live shards",
            "scanned rows",
            "total rows",
            "scan frac",
        ],
    );
    let table = FactTable::sharded(&d, &pf);
    for q in all_queries(&d) {
        let frac = pruned_fraction(&d, &pf, &q, cfg.threads);
        report.row(vec![
            q.name.to_string(),
            format!("{}/{}", table.live(&q).len(), pf.shard_count()),
            table.live_rows(&q).to_string(),
            pf.total_rows().to_string(),
            format!("{frac:.3}"),
        ]);
    }

    let stream = if smoke {
        pinned_stream(&d, 6, 1)
    } else {
        pinned_stream(&d, 16, 2)
    };
    let m = measure(&d, &pf, &stream, cfg.threads);
    report.row(vec![
        "replay".into(),
        format!("budget {} KiB", m.budget_bytes / 1024),
        format!("shipped {} KiB", m.replay.shipped_bytes() / 1024),
        format!("evictions {}", m.replay.session.evictions),
        format!("hit ratio {:.3}", m.replay.session.hit_ratio()),
    ]);
    report.finish();
    println!(
        "starved replay: {} KiB budget under a {} KiB working set, {} host fallbacks",
        m.budget_bytes / 1024,
        pf.size_bytes() / 1024,
        m.replay.runs.iter().filter(|r| r.host_fallback).count()
    );
    println!("every sharded result byte-identical to the unsharded pipeline (asserted)");
    m.checks()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::verdict;

    /// Both bands at the scorecard's scale, and what they do not say: a
    /// replay under half the working set must re-upload (and, inside
    /// [`pruned_fraction`] and [`replay`], every result and trace stays
    /// byte-identical to the unsharded executor and the oracle).
    #[test]
    fn sharded_bands_hold_and_pressure_forces_reuploads() {
        let d = SsbData::generate_scaled(1, 0.002, STREAM_SEED);
        let pf = PartitionedFact::partition(&d, SHARDS, &FactEncodings::plain());
        let m = measure(&d, &pf, &pinned_stream(&d, 6, 2), 2);
        assert!(verdict("sharded", &m.checks()));
        let (shipped, table) = (m.replay.shipped_bytes(), pf.size_bytes());
        assert!(shipped > table, "shipped {shipped} <= table {table}");
    }
}
