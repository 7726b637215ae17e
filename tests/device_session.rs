//! Eviction-under-pressure suite: a query stream replayed through a
//! [`DeviceSession`] whose cache budget (and device capacity) are
//! deliberately small must evict — and stay byte-identical to the
//! uncached per-query path while never exceeding the device's memory.

use crystal::gpu_sim::Gpu;
use crystal::hardware::nvidia_v100;
use crystal::runtime::DeviceSession;
use crystal::ssb::engines::{gpu as gpu_engine, reference};
use crystal::ssb::queries::all_queries;
use crystal::ssb::{FactTable, SsbData};

/// A V100 shrunk to `capacity` bytes of device memory.
fn small_v100(capacity: usize) -> Gpu {
    let mut spec = nvidia_v100();
    spec.mem_capacity = capacity;
    Gpu::new(spec)
}

#[test]
fn starved_session_evicts_but_stays_byte_identical() {
    let d = SsbData::generate_scaled(1, 0.002, 77); // 12k fact rows
    let queries = all_queries(&d);
    let table = FactTable::plain(&d);

    // The uncached oracle: the row-wise reference engine, plus one
    // transient-session device run per query (the pre-session lifecycle).
    let expected: Vec<_> = queries.iter().map(|q| reference::execute(&d, q)).collect();
    let mut uncached_gpu = Gpu::new(nvidia_v100());
    for (q, e) in queries.iter().zip(&expected) {
        let mut transient = DeviceSession::new(&mut uncached_gpu);
        let run = gpu_engine::execute(&mut transient, &table, q).unwrap();
        assert_eq!(&run.result, e, "{} uncached diverged", q.name);
    }

    // 64 MB of device memory (any single query's scratch fits), but a
    // cache budget far below the stream's total working set: the nine
    // fact columns (~48 KB each) plus the date dimension's perfect-hash
    // table alone (~560 KB at this scale) overflow it.
    let capacity = 64 << 20;
    let budget = 400_000;
    let mut gpu = small_v100(capacity);
    let mut sess = DeviceSession::with_budget(&mut gpu, budget);

    for pass in 0..2 {
        for (q, e) in queries.iter().zip(&expected) {
            let run = gpu_engine::execute(&mut sess, &table, q).unwrap();
            assert_eq!(
                &run.result, e,
                "{} pass {pass} diverged under memory pressure",
                q.name
            );
        }
    }

    let stats = sess.stats().clone();
    assert!(
        stats.evictions > 0,
        "a {budget}-byte budget must evict: {stats:?}"
    );
    assert!(
        stats.cached_bytes <= budget,
        "cache {} exceeds its budget {budget}",
        stats.cached_bytes
    );
    // Some reuse still happens even under pressure (hot columns of
    // consecutive queries survive between queries).
    assert!(stats.col_hits + stats.ht_hits > 0, "{stats:?}");

    let high_water = sess.gpu().mem_high_water();
    assert!(
        high_water <= capacity,
        "high water {high_water} exceeds the device's {capacity}"
    );
    drop(sess);
    assert_eq!(gpu.mem_used(), 0, "session teardown must free everything");
}

/// With a budget comfortably above the stream's working set the same
/// replay never evicts — pressure, not policy, is what evicted above.
#[test]
fn roomy_session_never_evicts() {
    let d = SsbData::generate_scaled(1, 0.002, 77);
    let queries = all_queries(&d);
    let table = FactTable::plain(&d);
    let mut gpu = Gpu::new(nvidia_v100());
    let mut sess = DeviceSession::new(&mut gpu);
    for q in &queries {
        let run = gpu_engine::execute(&mut sess, &table, q).unwrap();
        assert_eq!(run.result, reference::execute(&d, q), "{}", q.name);
    }
    assert_eq!(sess.stats().evictions, 0);
    // All nine fact columns and every distinct dimension build are
    // resident by the end of the sweep.
    assert!(sess.stats().cached_bytes > 0);
}
