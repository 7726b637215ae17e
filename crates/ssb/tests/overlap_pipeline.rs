//! Ordering-invariance suite for the copy/compute stream pipeline.
//!
//! The simulated copy engine reorders *time* — uploads stream on the DMA
//! queue while kernels run on the compute queue — but must never reorder
//! *bytes*: functional execution stays eager and in program order, so
//! every result served through the pipelined paths has to be
//! byte-identical to the serial reference, for any grant schedule. These
//! tests drive the unsharded, packed-encoding and double-buffered
//! sharded paths with ragged grant sizes over pinned-seed random queries
//! (including an impossible-predicate empty result) and pin that
//! identity, plus the pressure behavior: a staging budget too small for
//! two shards stalls the prefetch instead of evicting anything, changing
//! timing but neither results nor total PCIe traffic.

use crystal_gpu_sim::Gpu;
use crystal_hardware::nvidia_v100;
use crystal_runtime::DeviceSession;
use crystal_ssb::arbitrary::random_star_query;
use crystal_ssb::encoding::{EncodedFact, FactEncodings};
use crystal_ssb::engines::gpu::DeviceQueryJob;
use crystal_ssb::engines::reference;
use crystal_ssb::plan::{AggExpr, FactCol, FactPred, StarQuery};
use crystal_ssb::{FactTable, PartitionedFact, SsbData};

const SEED: u64 = 20_260_730;

fn data() -> SsbData {
    SsbData::generate_scaled(1, 0.002, SEED)
}

/// A query whose fact predicate is unsatisfiable (quantity is 1..=50):
/// zero survivors, zero result rows, but the full upload and launch
/// sequence still runs.
fn empty_result_query() -> StarQuery {
    StarQuery {
        name: "qempty",
        fact_preds: vec![FactPred::between(FactCol::Quantity, 60, 70)],
        joins: vec![],
        agg: AggExpr::SumRevenue,
    }
}

/// Drives an unsharded job to completion in ragged grants.
fn drive(job: &mut DeviceQueryJob<'_>, sess: &mut DeviceSession<'_>, mut grant: usize) {
    while !job
        .step(sess, grant)
        .expect("a one-segment job admits nothing mid-query")
    {
        grant = grant * 2 + 1;
    }
}

/// Unsharded cold-path pipelining: random queries over plain and packed
/// encodings, each sliced into ragged grants, all byte-identical to the
/// reference oracle — and the stream clocks never exceed the serialized
/// transfer + kernel total they overlap.
#[test]
fn pipelined_grants_match_the_reference_for_random_queries() {
    let d = data();
    let packed = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
    let (plain, packed) = (FactTable::plain(&d), FactTable::encoded(&d, &packed));
    let mut gpu = Gpu::new(nvidia_v100());
    let mut sess = DeviceSession::new(&mut gpu);
    let mut queries: Vec<StarQuery> = (0..8).map(|i| random_star_query(&d, SEED + i)).collect();
    queries.push(empty_result_query());
    for (i, q) in queries.iter().enumerate() {
        let expected = reference::execute(&d, q);
        let mut job = DeviceQueryJob::over(&plain, q);
        job.admit(&mut sess).expect("plain admit");
        drive(&mut job, &mut sess, 777 + i * 131);
        assert_eq!(job.finish().result, expected, "plain query {i}");
        let mut job = DeviceQueryJob::over(&packed, q);
        job.admit(&mut sess).expect("packed admit");
        drive(&mut job, &mut sess, 1009);
        assert_eq!(job.finish().result, expected, "packed query {i}");
    }
    let exec = sess.gpu().exec_stats();
    let makespan = sess.gpu().streams().makespan();
    assert!(exec.dma_transfers > 0, "cold queries never issued DMA");
    assert!(
        makespan <= exec.dma_secs + exec.kernel_secs + 1e-12,
        "overlapped makespan {makespan} exceeds the serial total {}",
        exec.dma_secs + exec.kernel_secs
    );
}

/// Sharded double-buffered pipelining: the prefetching job, driven in
/// ragged grants, matches the reference for every pinned-seed query
/// (empty result included).
#[test]
fn sharded_prefetch_pipeline_matches_the_reference() {
    let d = data();
    let pf = PartitionedFact::partition(&d, 8, &FactEncodings::plain());
    let sharded = FactTable::sharded(&d, &pf);
    let mut gpu = Gpu::new(nvidia_v100());
    let mut sess = DeviceSession::new(&mut gpu);
    let mut queries: Vec<StarQuery> = (0..8).map(|i| random_star_query(&d, SEED + i)).collect();
    queries.push(empty_result_query());
    for (i, q) in queries.iter().enumerate() {
        let expected = reference::execute(&d, q);
        let mut job = DeviceQueryJob::over(&sharded, q);
        job.admit(&mut sess).expect("sharded admit");
        let mut grant = 513 + i * 97;
        loop {
            match job.step(&mut sess, grant) {
                Ok(true) => break,
                Ok(false) => grant = grant * 2 + 1,
                Err(e) => panic!("unexpected OOM on an unbudgeted device: {e:?}"),
            }
        }
        assert_eq!(job.finish().result, expected, "sharded query {i}");
    }
}

/// Staging pressure: with a budget too small to double-buffer, the
/// prefetcher stalls instead of evicting. Results stay byte-identical to
/// the generous-budget run and so does the total PCIe traffic — shard
/// rotation costs evictions, never re-uploads within one pass or wrong
/// bytes.
#[test]
fn tight_staging_budget_stalls_prefetch_without_corruption() {
    let d = data();
    let pf = PartitionedFact::partition(&d, 8, &FactEncodings::plain());
    let sharded = FactTable::sharded(&d, &pf);
    let queries: Vec<StarQuery> = (0..4).map(|i| random_star_query(&d, SEED + i)).collect();

    let run = |budget: Option<usize>| {
        let mut gpu = Gpu::new(nvidia_v100());
        let mut sess = match budget {
            Some(b) => DeviceSession::with_budget(&mut gpu, b),
            None => DeviceSession::new(&mut gpu),
        };
        let mut results = Vec::new();
        for q in &queries {
            let mut job = DeviceQueryJob::over(&sharded, q);
            job.admit(&mut sess).expect("admit");
            loop {
                match job.step(&mut sess, 2048) {
                    Ok(true) => break,
                    Ok(false) => {}
                    Err(e) => panic!("budget should evict retired shards, not OOM: {e:?}"),
                }
            }
            results.push(job.finish().result);
        }
        (results, sess.stats().clone())
    };

    let (generous_results, generous) = run(None);
    let (tight_results, tight) = run(Some(pf.size_bytes() / 3));
    for (i, (a, b)) in generous_results.iter().zip(&tight_results).enumerate() {
        assert_eq!(a, b, "query {i} differs under staging pressure");
        assert_eq!(a, &reference::execute(&d, &queries[i]), "query {i} oracle");
    }
    assert_eq!(generous.evictions, 0, "an unbudgeted device never evicts");
    assert!(
        tight.evictions > 0,
        "the tight budget never rotated a shard: {tight:?}"
    );
    // Stalled prefetch changes when bytes move, not which bytes move:
    // evicted shards may need re-uploading on a later query, so traffic
    // can only grow under pressure, never shrink or diverge in content.
    assert!(
        tight.uploaded_bytes >= generous.uploaded_bytes,
        "staging pressure lost PCIe traffic: {} < {}",
        tight.uploaded_bytes,
        generous.uploaded_bytes
    );
}

/// What a cold query is charged against what the stream clocks realize.
/// The charge `C` (`time.pipelined`, `CoprocessorTime::settle`: what a served
/// query's device clock pays) prices the query's uploads as
/// one batch per admission or grant, one latency each and a fixed-size first
/// chunk; the copy stream queues every column as its own copy and gates the
/// fused launch on the *last* one's first chunk. So the two are neither
/// equal nor ordered — a multi-column upload the kernels cannot hide reads
/// `S < C`, sub-chunk columns (the launch waits for all of them) `S > C` —
/// and what holds exactly, for every query alone on a fresh device, is that
/// both sit between the same bounds: at least the bandwidth term and the
/// kernels, at most `time.serial`; hence `S - C <= min(rest of transfer,
/// kernels)`.
#[test]
fn the_charge_and_the_stream_clocks_share_their_bounds_and_nothing_more() {
    let d = data();
    let packed = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
    let pf = PartitionedFact::partition(&d, 8, &FactEncodings::plain());
    let tables = [
        FactTable::plain(&d),
        FactTable::encoded(&d, &packed),
        FactTable::sharded(&d, &pf),
    ];
    let (mut above, mut below) = (0, 0);
    for table in &tables {
        for q in crystal_ssb::all_queries(&d) {
            let mut gpu = Gpu::new(nvidia_v100());
            let mut sess = DeviceSession::new(&mut gpu);
            let latency = sess.interconnect().latency_us * 1e-6;
            let run = crystal_ssb::engines::gpu::execute(&mut sess, table, &q).unwrap();
            let (t, stream, slack) = (run.time, run.makespan_secs, 1e-15);
            let bandwidth_term = run.exec.dma_secs - run.exec.dma_transfers as f64 * latency;
            let floor = bandwidth_term.max(t.exec);
            assert_eq!(t.exec.to_bits(), run.sim_secs().to_bits(), "{}", q.name);
            assert!(
                floor <= stream + slack && stream <= t.serial + slack,
                "{}",
                q.name
            );
            assert!(
                t.overlapped <= t.pipelined && t.pipelined <= t.serial,
                "{}",
                q.name
            );
            let rest = (t.transfer - t.ramp).min(t.exec);
            assert!(stream - t.pipelined <= rest + slack, "{}", q.name);
            above += usize::from(t.pipelined > stream);
            below += usize::from(t.pipelined < stream);
        }
    }
    assert!(
        above > 0 && below > 0,
        "charge above {above}, below {below}"
    );
}

/// The session prices its uploads on the link it was opened on: through
/// half the bandwidth a cold query's serialized DMA seconds keep their
/// latencies and double their bandwidth term, and so does what it is
/// charged for the transfer.
#[test]
fn halving_the_link_doubles_a_cold_querys_bandwidth_term() {
    let d = data();
    let table = FactTable::plain(&d);
    let q = crystal_ssb::query(&d, crystal_ssb::QueryId::new(2, 1));
    let gen3 = crystal_hardware::pcie_gen3();
    let mut half = gen3.clone();
    half.bandwidth /= 2.0;
    let [fast, slow] = [&gen3, &half].map(|link| {
        let mut gpu = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::open(&mut gpu, None, link);
        let run = crystal_ssb::engines::gpu::execute(&mut sess, &table, &q).unwrap();
        let latency = link.latency_us * 1e-6;
        (
            run.exec.dma_secs - run.exec.dma_transfers as f64 * latency,
            run.time.transfer - latency,
            run.sim_secs(),
        )
    });
    let doubled = |slow: f64, fast: f64| (slow / fast - 2.0).abs() < 1e-9;
    assert!(doubled(slow.0, fast.0), "dma {} vs {}", slow.0, fast.0);
    assert!(doubled(slow.1, fast.1), "charge {} vs {}", slow.1, fast.1);
    assert_eq!(
        slow.2.to_bits(),
        fast.2.to_bits(),
        "kernels do not see the link"
    );
}
