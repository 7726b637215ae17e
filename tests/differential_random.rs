//! Randomized cross-engine differential suite.
//!
//! Generates hundreds of seeded random star queries
//! (`crystal::ssb::arbitrary`) and checks that every rewired engine —
//! the morsel-driven vectorized CPU path, the tuple-at-a-time Hyper path,
//! and the cost-routed coprocessor path — produces a `QueryResult`
//! byte-identical to the row-wise reference oracle. Fixed suites exercise
//! a handful of plan shapes; this sweep exercises the whole descriptor
//! space, which is where scheduling and compaction bugs hide.
//!
//! Per-column physical encodings are randomized too
//! (`crystal::ssb::encoding::random_encodings`): each query also executes
//! directly on a fact table whose columns are independently plain,
//! min-width bit-packed, or packed at a wider width — results must stay
//! byte-identical with compression toggled on, off, and mixed, in both
//! pipeline modes and through the packed GPU path.
//!
//! The base seed is pinned by `CRYSTAL_DIFF_SEED` (decimal u64; default
//! 20260730) so CI runs are reproducible; any failure message names the
//! per-query seed, which reproduces the query alone via
//! `random_star_query(&data, seed)` (and its encodings via
//! `random_encodings(&data, seed ^ ENCODING_SALT)`).

use crystal::gpu_sim::Gpu;
use crystal::hardware::{intel_i7_6900, nvidia_v100, pcie_gen3, PcieSpec};
use crystal::runtime::DeviceSession;
use crystal::ssb::arbitrary::random_star_query;
use crystal::ssb::encoding::{random_encodings, EncodedFact};
use crystal::ssb::engines::profile::QueryProfile;
use crystal::ssb::engines::{copro, cpu, hyper, reference};
use crystal::ssb::exec::{self, PipelineMode};
use crystal::ssb::plan::StarQuery;
use crystal::ssb::{FactTable, SsbData};
use crystal_bench::util::env_var;

/// Salt separating the encoding stream from the plan stream, so a query's
/// shape and its physical format vary independently.
const ENCODING_SALT: u64 = 0xE6C0_DE5A_17ED_u64;

/// Number of random queries the suite sweeps (the acceptance floor is
/// 200).
const QUERIES: u64 = 224;

/// Every `GPU_SIM_STRIDE`-th query additionally runs the full GPU
/// simulator via a forced coprocessor placement (the simulator is
/// functional but slow in debug builds; the routed coprocessor path —
/// which Section 3.1 sends to the host — runs for *all* queries).
const GPU_SIM_STRIDE: u64 = 16;

/// The pinned base seed; a `CRYSTAL_DIFF_SEED` that does not parse fails
/// the suite (naming the variable and the value) instead of silently
/// sweeping the default workload.
fn base_seed() -> u64 {
    env_var("CRYSTAL_DIFF_SEED", 20_260_730).unwrap_or_else(|e| panic!("{e}"))
}

/// Routes `q` through a fresh session — the cold device of Section 3.1.
fn placed_cold(
    gpu: &mut Gpu,
    link: &PcieSpec,
    table: &FactTable<'_>,
    q: &StarQuery,
) -> QueryProfile {
    let cold = &mut DeviceSession::open(gpu, None, link);
    copro::execute_placed(cold, &intel_i7_6900(), table, q, 4)
}

#[test]
fn random_queries_agree_across_all_engines() {
    let seed = base_seed();
    let d = SsbData::generate_scaled(1, 0.002, seed); // 12k fact rows
    let plain = FactTable::plain(&d);
    let mut gpu = Gpu::new(nvidia_v100());
    let cpu_spec = intel_i7_6900();
    let pcie = pcie_gen3();
    // An interconnect faster than DRAM forces Placement::Coprocessor so
    // the GPU half of the routed engine is also differentially tested.
    let mut fast_link = pcie_gen3();
    fast_link.bandwidth = cpu_spec.read_bw * 4.0;

    let mut grouped = 0usize;
    let mut nonempty = 0usize;
    let mut packed_runs = 0usize;
    for i in 0..QUERIES {
        let qseed = seed.wrapping_add(i);
        let q = random_star_query(&d, qseed);
        let expected = reference::execute(&d, &q);
        grouped += usize::from(!q.group_attrs().is_empty());
        nonempty += usize::from(expected.checksum() != 0);

        let (got_cpu, trace) = cpu::execute(&d, &q, 4);
        assert_eq!(got_cpu, expected, "seed {qseed}: morsel CPU diverged");
        assert_eq!(trace.fact_rows, d.lineorder.rows());

        let got_hyper = hyper::execute(&d, &q, 4);
        assert_eq!(got_hyper, expected, "seed {qseed}: hyper diverged");

        // The same query over a randomly encoded fact table (per-column
        // plain / min-width / wider packing), both pipeline modes — the
        // physical format must be unobservable in the results.
        let enc = random_encodings(&d, qseed ^ ENCODING_SALT);
        packed_runs += usize::from(enc.any_packed());
        let fact = EncodedFact::encode(&d, &enc);
        let encoded = FactTable::encoded(&d, &fact);
        let (got_enc, enc_trace) = exec::execute(&encoded, &q, 4, PipelineMode::Vectorized);
        assert_eq!(
            got_enc, expected,
            "seed {qseed}: encoded vectorized diverged"
        );
        assert_eq!(
            enc_trace.result_rows, trace.result_rows,
            "seed {qseed}: encoded trace diverged"
        );
        let (got_enc_t, _) = exec::execute(&encoded, &q, 2, PipelineMode::TupleAtATime);
        assert_eq!(got_enc_t, expected, "seed {qseed}: encoded tuple diverged");

        let placed = placed_cold(&mut gpu, &pcie, &plain, &q);
        assert_eq!(
            placed.decision().unwrap().placement,
            copro::Placement::Host,
            "seed {qseed}: PCIe routing must stay host-side"
        );
        assert_eq!(
            placed.result, expected,
            "seed {qseed}: routed coprocessor engine diverged"
        );

        if i % GPU_SIM_STRIDE == 0 {
            gpu.reset_l2();
            let dev = placed_cold(&mut gpu, &fast_link, &plain, &q);
            assert_eq!(
                dev.decision().unwrap().placement,
                copro::Placement::Coprocessor,
                "seed {qseed}"
            );
            assert_eq!(
                dev.result, expected,
                "seed {qseed}: GPU coprocessor path diverged"
            );

            // The packed GPU path: ship packed words over the (forced)
            // coprocessor route, unpack in registers on the device.
            gpu.reset_l2();
            let dev_enc = placed_cold(&mut gpu, &fast_link, &encoded, &q);
            assert_eq!(
                dev_enc.decision().unwrap().placement,
                copro::Placement::Coprocessor,
                "seed {qseed}"
            );
            assert_eq!(
                dev_enc.result, expected,
                "seed {qseed}: packed GPU coprocessor path diverged"
            );
        }
    }

    // The sweep must genuinely exercise the space: a workload that
    // degenerated to all-scalar, all-empty or all-plain runs would
    // vacuously pass.
    assert!(grouped >= 50, "only {grouped} grouped queries generated");
    assert!(nonempty >= 50, "only {nonempty} non-empty results");
    assert!(
        packed_runs >= QUERIES as usize / 2,
        "only {packed_runs} packed-table runs"
    );
}

/// Width extremes are unobservable: every column packed at its minimum
/// width, and every column under the 32-bit no-op pack, both reproduce
/// the oracle on random queries.
#[test]
fn extreme_packing_widths_match_the_oracle() {
    use crystal::ssb::encoding::FactEncodings;
    use crystal::ssb::plan::FactCol;
    use crystal::storage::Encoding;

    let seed = base_seed() ^ 0xb175;
    let d = SsbData::generate_scaled(1, 0.001, seed);
    let tight = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
    let mut noop = FactEncodings::plain();
    for c in FactCol::ALL {
        noop.set(c, Encoding::BitPacked { bits: 32 });
    }
    let noop = EncodedFact::encode(&d, &noop);
    assert!(tight.compression_ratio() > 1.0);
    for i in 0..16u64 {
        let qseed = seed.wrapping_add(i);
        let q = random_star_query(&d, qseed);
        let expected = reference::execute(&d, &q);
        for (label, fact) in [("min-width", &tight), ("32-bit no-op", &noop)] {
            let table = FactTable::encoded(&d, fact);
            let (r, _) = exec::execute(&table, &q, 3, PipelineMode::Vectorized);
            assert_eq!(r, expected, "seed {qseed} {label}");
        }
    }
}

/// Warm-cache correctness under the pinned seed: the random query stream
/// replayed twice through one warm `DeviceSession` stays byte-identical
/// to the cold reference / CPU / HyPer results on both passes — cache
/// hits, memoized hash tables and evictionless reuse must all be
/// unobservable in the results.
#[test]
fn pinned_stream_replays_identically_through_a_warm_session() {
    use crystal::runtime::DeviceSession;
    use crystal::ssb::engines::gpu as gpu_engine;

    let seed = base_seed();
    let d = SsbData::generate_scaled(1, 0.001, seed); // 6k fact rows
    let stream: Vec<_> = (0..12u64)
        .map(|i| random_star_query(&d, seed.wrapping_add(i)))
        .collect();

    let table = FactTable::plain(&d);
    let mut gpu = Gpu::new(nvidia_v100());
    let mut sess = DeviceSession::new(&mut gpu);
    let mut first_pass = Vec::new();
    let mut after_first_pass = None;
    for (pass, replay) in [(0, false), (1, true)].into_iter() {
        for (i, q) in stream.iter().enumerate() {
            let expected = reference::execute(&d, q);
            let (got_cpu, _) = cpu::execute(&d, q, 4);
            assert_eq!(got_cpu, expected, "query {i}: morsel CPU diverged");
            let got_hyper = hyper::execute(&d, q, 4);
            assert_eq!(got_hyper, expected, "query {i}: hyper diverged");

            let run = gpu_engine::execute(&mut sess, &table, q).unwrap();
            assert_eq!(
                run.result, expected,
                "query {i} pass {pass}: warm session diverged from cold oracle"
            );
            if replay {
                assert_eq!(
                    run.result, first_pass[i],
                    "query {i}: replay diverged from its own first pass"
                );
            } else {
                first_pass.push(run.result.clone());
            }
        }
        if replay {
            // The second pass was served entirely from residency: no new
            // uploads, no new builds relative to the first pass.
            let first = after_first_pass.as_ref().unwrap();
            let s = sess.stats();
            assert_eq!(s.uploaded_since(first), 0, "replay must ship nothing");
            assert_eq!(s.col_misses, first.col_misses);
            assert_eq!(s.ht_misses, first.ht_misses, "replay must rebuild nothing");
            assert!(s.col_misses <= 9, "at most the nine fact columns upload");
            assert_eq!(s.evictions, 0, "a V100-sized budget must not evict");
        } else {
            after_first_pass = Some(sess.stats().clone());
        }
    }
}

/// Sharding under the pinned seed: random queries over a range-
/// partitioned fact table — zone-map pruning, per-shard encoding, and
/// shard-at-a-time merging on host and device — reproduce the row-wise
/// oracle byte-for-byte, including through a memory-starved session that
/// must evict between shards.
#[test]
fn pinned_sharded_replay_matches_the_oracle_under_eviction() {
    use crystal::runtime::DeviceSession;
    use crystal::ssb::encoding::FactEncodings;
    use crystal::ssb::engines::gpu as gpu_engine;
    use crystal::ssb::PartitionedFact;

    let seed = base_seed();
    let d = SsbData::generate_scaled(1, 0.001, seed); // 6k fact rows
    let pf = PartitionedFact::partition(&d, 6, &FactEncodings::plain());
    let table = FactTable::sharded(&d, &pf);
    let stream: Vec<_> = (0..12u64)
        .map(|i| random_star_query(&d, seed.wrapping_add(i)))
        .collect();

    // Host sharded path, with pruning visible in the scan counts.
    let mut pruned_any = false;
    for (i, q) in stream.iter().enumerate() {
        let expected = reference::execute(&d, q);
        // Morsel-parallel: three workers per live shard, merged.
        let (got, _) = exec::execute(&table, q, 3, PipelineMode::Vectorized);
        assert_eq!(got, expected, "query {i}: sharded host diverged");
        // The stepped job counts the rows it actually scanned.
        let mut job = exec::HostQueryJob::over(&table, q, PipelineMode::Vectorized);
        while !job.step(usize::MAX) {}
        let scanned = job.rows_scanned();
        assert_eq!(job.finish().0, expected, "query {i}: sharded job diverged");
        assert_eq!(scanned, table.live_rows(q), "query {i}: scan count");
        pruned_any |= scanned < d.lineorder.rows();
    }
    assert!(pruned_any, "the pinned stream never exercised pruning");

    // Device sharded path under a budget of half the sharded working
    // set: shards rotate through the cache across the two passes, and
    // every merged result still matches the oracle.
    let mut gpu = Gpu::new(nvidia_v100());
    let mut sess = DeviceSession::with_budget(&mut gpu, pf.size_bytes() / 2);
    for pass in 0..2 {
        for (i, q) in stream.iter().enumerate() {
            let expected = reference::execute(&d, q);
            let run = gpu_engine::execute(&mut sess, &table, q)
                .expect("every single-shard working set fits half the table");
            assert_eq!(
                run.result, expected,
                "query {i} pass {pass}: starved sharded session diverged"
            );
        }
    }
    assert!(
        sess.stats().evictions > 0,
        "half the sharded working set must evict: {:?}",
        sess.stats()
    );
}

/// Fusion differential under the pinned seed: every random star query
/// runs BOTH simulated-GPU paths — the fused tile-at-a-time megakernel
/// and the per-operator thread-per-row reference
/// (`omnisci::execute`) — through one warm session, and
/// the results must be byte-identical to each other and to the row-wise
/// oracle. Packed encodings and sharded execution ride the fused path on
/// a stride, and a guaranteed-empty query closes the edge case where
/// scalar/grouped aggregates diverge most easily.
#[test]
fn fused_and_unfused_gpu_paths_agree_on_every_random_query() {
    use crystal::runtime::DeviceSession;
    use crystal::ssb::encoding::FactEncodings;
    use crystal::ssb::engines::{gpu as gpu_engine, omnisci};
    use crystal::ssb::plan::{AggExpr, FactCol, FactPred, StarQuery};
    use crystal::ssb::{PartitionedFact, QueryResult};

    let seed = base_seed();
    let d = SsbData::generate_scaled(1, 0.001, seed); // 6k fact rows
    let pf = PartitionedFact::partition(&d, 4, &FactEncodings::plain());
    let (plain, shards) = (FactTable::plain(&d), FactTable::sharded(&d, &pf));
    let mut gpu = Gpu::new(nvidia_v100());
    let mut sess = DeviceSession::new(&mut gpu);

    let mut empty = 0usize;
    let mut packed_runs = 0usize;
    let mut sharded_runs = 0usize;
    for i in 0..32u64 {
        let qseed = seed.wrapping_add(i);
        let q = random_star_query(&d, qseed);
        let expected = reference::execute(&d, &q);
        empty += usize::from(expected.checksum() == 0);

        // Fused megakernel: the whole pipeline in one launch per step.
        let fused = gpu_engine::execute(&mut sess, &plain, &q).unwrap();
        assert_eq!(fused.result, expected, "seed {qseed}: fused GPU diverged");
        let probe = fused.reports.last().unwrap();
        assert_eq!(probe.launches, 1, "seed {qseed}: probe must be one launch");

        // Per-operator reference path, same session residency.
        let unfused = omnisci::execute(&mut sess, &d, &q).expect("a V100 holds the whole query");
        assert_eq!(
            unfused.result, expected,
            "seed {qseed}: unfused GPU diverged"
        );
        assert_eq!(
            unfused.result, fused.result,
            "seed {qseed}: the two GPU paths disagree"
        );

        if i % 4 == 0 {
            // The same query over a randomly encoded fact table: the
            // fused kernel unpacks tiles in registers, results unchanged.
            let enc = random_encodings(&d, qseed ^ ENCODING_SALT);
            packed_runs += usize::from(enc.any_packed());
            let fact = EncodedFact::encode(&d, &enc);
            let packed =
                gpu_engine::execute(&mut sess, &FactTable::encoded(&d, &fact), &q).unwrap();
            assert_eq!(
                packed.result, expected,
                "seed {qseed}: packed fused GPU diverged"
            );

            // Shard-at-a-time fused execution with zone-map pruning.
            sharded_runs += 1;
            let sharded = gpu_engine::execute(&mut sess, &shards, &q)
                .expect("single-shard working sets fit a V100 budget");
            assert_eq!(
                sharded.result, expected,
                "seed {qseed}: sharded fused GPU diverged"
            );
        }
    }
    assert!(packed_runs >= 4, "only {packed_runs} packed-table runs");
    assert!(sharded_runs >= 8, "only {sharded_runs} sharded runs");

    // Guaranteed-empty query: lo_discount is 0..=10 by construction, so
    // discount >= 90 selects nothing on either path.
    let q = StarQuery {
        name: "empty.fused",
        fact_preds: vec![FactPred::between(FactCol::Discount, 90, 99)],
        joins: vec![],
        agg: AggExpr::SumDiscountedPrice,
    };
    let fused = gpu_engine::execute(&mut sess, &plain, &q).unwrap();
    let unfused = omnisci::execute(&mut sess, &d, &q).expect("a V100 holds the whole query");
    assert_eq!(fused.result, QueryResult::Scalar(0));
    assert_eq!(unfused.result, QueryResult::Scalar(0));
    let _ = empty; // random empties are welcome but not required

    // The warm session served both paths from one residency pool: the
    // unfused pass re-reads the same cached columns and memoized tables.
    assert!(sess.stats().col_hits > 0, "paths must share residency");
}

/// The two pipeline modes and adversarial morsel sizes agree on random
/// queries, not just the canned 13 — scheduling must be unobservable.
#[test]
fn random_queries_are_schedule_invariant() {
    let seed = base_seed() ^ 0x5eed_5eed;
    let d = SsbData::generate_scaled(1, 0.001, seed);
    let table = FactTable::plain(&d);
    for i in 0..24u64 {
        let qseed = seed.wrapping_add(i);
        let q = random_star_query(&d, qseed);
        let expected = reference::execute(&d, &q);
        for (threads, morsel) in [(1usize, 1usize << 20), (3, 1000), (8, 1)] {
            let run = |mode| exec::execute_with(&table, &q, threads, mode, morsel);
            let (r, _) = run(PipelineMode::Vectorized);
            assert_eq!(
                r, expected,
                "seed {qseed} threads {threads} morsel {morsel}"
            );
            let (r, _) = run(PipelineMode::TupleAtATime);
            assert_eq!(r, expected, "seed {qseed} tuple threads {threads}");
        }
    }
}
