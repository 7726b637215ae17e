//! The `reproduce sharded` experiment: the beyond-memory regime over a
//! range-partitioned fact table.
//!
//! The fact table is split into orderdate range shards
//! ([`PartitionedFact`]), each an independent residency unit with its own
//! min/max zone map. Two effects are measured and gated:
//!
//! * **Partition pruning** — every SSB query runs through the sharded
//!   host executor; date-filtered queries must scan strictly fewer rows
//!   than the table holds. The q1.1 scan fraction is a pinned band
//!   ([`Q11_SCAN_FRAC_LO`], [`Q11_SCAN_FRAC_HI`]): a one-year predicate
//!   over seven years of data keeps roughly an eighth of 8 shards live.
//! * **Eviction-heavy sharded replay** — the pinned query stream replays
//!   on the device through one shared session whose budget is *half* the
//!   sharded working set, so GreedyDual-Size must rotate shards in and
//!   out ([`MIN_REPLAY_EVICTIONS`]). Every replayed result is asserted
//!   byte-identical to the unsharded host oracle — eviction pressure and
//!   shard-at-a-time merging must not change a single aggregate value.
//!
//! Like `reproduce contention`, the experiment exits non-zero when a
//! band is missed; `--smoke` shortens the stream for the CI gate.

use crystal_gpu_sim::Gpu;
use crystal_hardware::nvidia_v100;
use crystal_runtime::DeviceSession;
use crystal_ssb::encoding::FactEncodings;
use crystal_ssb::engines::gpu as gpu_engine;
use crystal_ssb::exec::{self, PipelineMode};
use crystal_ssb::{all_queries, FactTable, PartitionedFact, SsbData};

use crate::stream::{pinned_stream, STREAM_SEED};
use crate::util::{Config, Report};

/// Shards the experiment partitions the fact table into.
pub const SHARDS: usize = 8;

/// Pinned band on q1.1's scanned-row fraction under [`SHARDS`] shards:
/// its one-year date predicate must prune most of the seven-year range.
pub const Q11_SCAN_FRAC_LO: f64 = 0.05;
/// Upper edge of the q1.1 pruning band (shard boundaries straddle year
/// edges, so up to two of eight shards may stay live).
pub const Q11_SCAN_FRAC_HI: f64 = 0.6;

/// The memory-starved replay must actually evict: a budget of half the
/// sharded working set cannot hold the stream's union.
pub const MIN_REPLAY_EVICTIONS: u64 = 1;

/// Outcome of the budget-starved sharded device replay.
#[derive(Debug, Clone)]
pub struct ShardedReplay {
    /// Queries replayed (all byte-identical to the unsharded oracle).
    pub queries: usize,
    /// Device cache budget the session ran under, bytes.
    pub budget_bytes: usize,
    /// Bytes of the full sharded fact table.
    pub table_bytes: usize,
    /// Host-to-device bytes shipped across the replay.
    pub shipped_bytes: usize,
    /// Session evictions across the replay.
    pub evictions: u64,
    /// Session cache hit ratio across the replay.
    pub hit_ratio: f64,
    /// Queries that fell back to the host (a shard stopped fitting).
    pub host_fallbacks: usize,
}

/// Replays `stream` shard-by-shard on the device through one shared
/// session capped at `budget` bytes, asserting every result against the
/// unsharded host executor. A query whose shard admission OOMs under the
/// cap falls back to the host pipeline — correctness never depends on
/// the budget.
pub fn replay_sharded(
    d: &SsbData,
    pf: &PartitionedFact,
    stream: &[crystal_ssb::StarQuery],
    budget: usize,
) -> ShardedReplay {
    let (plain, sharded) = (FactTable::plain(d), FactTable::sharded(d, pf));
    let mut gpu = Gpu::new(nvidia_v100());
    let mut sess = DeviceSession::with_budget(&mut gpu, budget);
    let mut shipped = 0usize;
    let mut host_fallbacks = 0usize;
    for q in stream {
        let before = sess.stats().clone();
        let (expected, _) = exec::execute(&plain, q, 1, PipelineMode::Vectorized);
        let got = match gpu_engine::execute(&mut sess, &sharded, q) {
            Ok(run) => run.result,
            Err(_) => {
                host_fallbacks += 1;
                exec::execute(&sharded, q, 1, PipelineMode::Vectorized).0
            }
        };
        assert_eq!(
            got, expected,
            "sharded replay diverged from the unsharded pipeline on {}",
            q.name
        );
        shipped += sess.stats().uploaded_since(&before);
    }
    ShardedReplay {
        queries: stream.len(),
        budget_bytes: budget,
        table_bytes: pf.size_bytes(),
        shipped_bytes: shipped,
        evictions: sess.stats().evictions,
        hit_ratio: sess.stats().hit_ratio(),
        host_fallbacks,
    }
}

/// Scanned-row fraction of one query under pruning (host sharded path),
/// with the result asserted byte-identical to the unsharded executor.
pub fn pruned_fraction(
    d: &SsbData,
    pf: &PartitionedFact,
    q: &crystal_ssb::StarQuery,
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

/// The `reproduce sharded` experiment; returns false if a pinned band is
/// missed. `--smoke` replays a shorter stream (the CI gate).
pub fn sharded(cfg: &Config, smoke: bool) -> bool {
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
    let mut q11_frac = None;
    let table = FactTable::sharded(&d, &pf);
    for q in all_queries(&d) {
        let frac = pruned_fraction(&d, &pf, &q, cfg.threads);
        if q.name == "q1.1" {
            q11_frac = Some(frac);
        }
        report.row(vec![
            q.name.to_string(),
            format!("{}/{}", table.live(&q).len(), pf.shard_count()),
            table.live_rows(&q).to_string(),
            pf.total_rows().to_string(),
            format!("{frac:.3}"),
        ]);
    }

    // The beyond-memory replay: half the sharded working set.
    let stream = if smoke {
        pinned_stream(&d, 6, 1)
    } else {
        pinned_stream(&d, 16, 2)
    };
    let budget = pf.size_bytes() / 2;
    let replay = replay_sharded(&d, &pf, &stream, budget);
    report.row(vec![
        "replay".into(),
        format!("budget {} KiB", replay.budget_bytes / 1024),
        format!("shipped {} KiB", replay.shipped_bytes / 1024),
        format!("evictions {}", replay.evictions),
        format!("hit ratio {:.3}", replay.hit_ratio),
    ]);
    report.finish();

    let q11_frac = q11_frac.expect("q1.1 is in the catalogue");
    let prune_ok = (Q11_SCAN_FRAC_LO..=Q11_SCAN_FRAC_HI).contains(&q11_frac);
    println!(
        "q1.1 scan fraction {q11_frac:.3} (band [{Q11_SCAN_FRAC_LO}, {Q11_SCAN_FRAC_HI}]): {}",
        if prune_ok { "ok" } else { "MISS" }
    );
    let evict_ok = replay.evictions >= MIN_REPLAY_EVICTIONS;
    println!(
        "starved replay: {} evictions under a {} KiB budget (< {} KiB working set), \
         {} host fallbacks (band >= {MIN_REPLAY_EVICTIONS} evictions): {}",
        replay.evictions,
        replay.budget_bytes / 1024,
        replay.table_bytes / 1024,
        replay.host_fallbacks,
        if evict_ok { "ok" } else { "MISS" }
    );
    println!("every sharded result byte-identical to the unsharded pipeline (asserted)");
    prune_ok && evict_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> SsbData {
        SsbData::generate_scaled(1, 0.002, STREAM_SEED)
    }

    /// The pruning band is part of the test suite: q1.1 scans a small
    /// fraction of an 8-shard table, and (inside [`pruned_fraction`])
    /// result and trace stay byte-identical to the unsharded executor.
    #[test]
    fn q11_pruning_band_holds() {
        let d = data();
        let pf = PartitionedFact::partition(&d, SHARDS, &FactEncodings::plain());
        let q11 = crystal_ssb::query(&d, crystal_ssb::QueryId::new(1, 1));
        let frac = pruned_fraction(&d, &pf, &q11, 2);
        assert!(
            (Q11_SCAN_FRAC_LO..=Q11_SCAN_FRAC_HI).contains(&frac),
            "q1.1 scan fraction {frac:.3} outside the pinned band"
        );
    }

    /// The eviction band is part of the test suite: a replay under half
    /// the sharded working set must evict (and, inside
    /// [`replay_sharded`], stay byte-identical to the unsharded host
    /// pipeline on every query).
    #[test]
    fn starved_sharded_replay_evicts_and_stays_correct() {
        let d = data();
        let pf = PartitionedFact::partition(&d, SHARDS, &FactEncodings::plain());
        let stream = pinned_stream(&d, 6, 2);
        let replay = replay_sharded(&d, &pf, &stream, pf.size_bytes() / 2);
        assert!(
            replay.evictions >= MIN_REPLAY_EVICTIONS,
            "no evictions under half the working set: {replay:?}"
        );
        assert!(
            replay.shipped_bytes > replay.table_bytes,
            "eviction pressure must force re-uploads (shipped {} <= table {})",
            replay.shipped_bytes,
            replay.table_bytes
        );
    }
}
