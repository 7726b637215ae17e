//! Concurrent differential suite: the multi-tenant frontend must be a
//! pure reordering of work.
//!
//! Interleaving N tenant streams through one shared [`DeviceSession`]
//! as deficit-round-robin morsel grants — including under a starved
//! cache budget that forces evictions between grants — must produce
//! results byte-identical to a serial per-tenant replay, and to the
//! reference oracle. A separate regression pins the dataset
//! fingerprint in [`ColumnKey`](crystal::runtime::ColumnKey): two
//! datasets served through one session must never alias each other's
//! cached columns.

use crystal::gpu_sim::Gpu;
use crystal::hardware::{intel_i7_6900, nvidia_v100, pcie_gen3};
use crystal::runtime::DeviceSession;
use crystal::server::{serve, serve_serial, ServerConfig};
use crystal::ssb::engines::{gpu as gpu_engine, reference};
use crystal::ssb::queries::{all_queries, query, QueryId};
use crystal::ssb::SsbData;
use crystal_bench::stream::{tenant_streams, STREAM_SEED};

fn data() -> SsbData {
    SsbData::generate_scaled(1, 0.002, STREAM_SEED)
}

/// Four interleaved tenant streams equal the serial replay and the
/// oracle, query for query, byte for byte.
#[test]
fn interleaved_tenants_match_serial_replay_byte_identically() {
    let d = data();
    let tenants = tenant_streams(&d, 4, 6, STREAM_SEED);
    let cpu = intel_i7_6900();
    let pcie = pcie_gen3();
    let cfg = ServerConfig::default();

    let mut gpu = Gpu::new(nvidia_v100());
    let conc = serve(&mut gpu, &cpu, &pcie, &d, &tenants, &cfg);
    let mut gpu_serial = Gpu::new(nvidia_v100());
    let serial = serve_serial(&mut gpu_serial, &cpu, &pcie, &d, &tenants, &cfg);

    assert_eq!(conc.completed.len(), 24);
    for (t, stream) in tenants.iter().enumerate() {
        let got = conc.tenant_results(t);
        let ser = serial.tenant_results(t);
        assert_eq!(got.len(), stream.len());
        for (i, q) in stream.iter().enumerate() {
            let expected = reference::execute(&d, q);
            assert_eq!(*got[i], expected, "tenant {t} query {i} vs oracle");
            assert_eq!(*got[i], *ser[i], "tenant {t} query {i} vs serial");
        }
    }
    // The serial replay is the contention band's denominator: its clock
    // as pinned at commit 0228902, before it became a fold over
    // `copro::execute_placed` profiles.
    assert_eq!(serial.makespan_secs.to_bits(), 0x3f1d33ac98ef5fe3);
    // The whole point of sharing the session: tenants draw from one
    // catalogue, so the concurrent run re-uses residency across them.
    assert!(conc.stats.col_hits > 0, "no cross-tenant cache sharing");
}

/// The same interleaving under a starved cache budget: grants from
/// different tenants trigger evictions between each other, and the
/// results still cannot drift.
#[test]
fn memory_starved_interleaving_evicts_and_stays_byte_identical() {
    let d = data();
    let tenants = tenant_streams(&d, 3, 6, STREAM_SEED);
    let cpu = intel_i7_6900();
    let pcie = pcie_gen3();
    let cfg = ServerConfig {
        // Barely two plain fact columns: every working set overflows
        // the cache, so pins are released into immediate eviction.
        device_budget: Some(9 * d.lineorder.rows()),
        ..ServerConfig::default()
    };

    let mut gpu = Gpu::new(nvidia_v100());
    let report = serve(&mut gpu, &cpu, &pcie, &d, &tenants, &cfg);
    assert!(
        report.stats.evictions > 0,
        "the starved budget never evicted: {:?}",
        report.stats
    );
    assert_eq!(report.completed.len(), 18);
    for (t, stream) in tenants.iter().enumerate() {
        let got = report.tenant_results(t);
        for (i, q) in stream.iter().enumerate() {
            assert_eq!(
                *got[i],
                reference::execute(&d, q),
                "tenant {t} query {i} diverged under eviction pressure"
            );
        }
    }
}

/// Dataset-fingerprint regression: two generated datasets served
/// through one session share column ids (0..=8) but must never share
/// cached columns — before `ColumnKey` carried the dataset
/// fingerprint, the second dataset silently read the first one's bits.
#[test]
fn two_datasets_through_one_session_never_alias() {
    let d1 = SsbData::generate_scaled(1, 0.002, STREAM_SEED);
    let d2 = SsbData::generate_scaled(1, 0.002, STREAM_SEED + 1);
    assert_ne!(d1.fingerprint(), d2.fingerprint());

    let mut gpu = Gpu::new(nvidia_v100());
    let mut sess = DeviceSession::new(&mut gpu);
    for id in [QueryId::new(1, 1), QueryId::new(2, 1), QueryId::new(3, 2)] {
        let q1 = query(&d1, id);
        let q2 = query(&d2, id);
        // Alternate datasets within one warm session.
        let r1 = gpu_engine::execute_session(&mut sess, &d1, &q1).unwrap();
        let r2 = gpu_engine::execute_session(&mut sess, &d2, &q2).unwrap();
        assert_eq!(r1.result, reference::execute(&d1, &q1), "{} on d1", q1.name);
        assert_eq!(r2.result, reference::execute(&d2, &q2), "{} on d2", q2.name);
    }
}

/// The serial baseline itself agrees with the oracle on the full
/// 13-query suite (it is the denominator of every contention band).
#[test]
fn serial_replay_matches_the_oracle_on_the_full_suite() {
    let d = data();
    let stream: Vec<_> = all_queries(&d);
    let tenants = vec![stream.clone()];
    let cpu = intel_i7_6900();
    let pcie = pcie_gen3();
    let mut gpu = Gpu::new(nvidia_v100());
    let report = serve_serial(
        &mut gpu,
        &cpu,
        &pcie,
        &d,
        &tenants,
        &ServerConfig::default(),
    );
    let got = report.tenant_results(0);
    for (i, q) in stream.iter().enumerate() {
        assert_eq!(*got[i], reference::execute(&d, q), "{}", q.name);
    }
    // Pinned at commit 0228902 like the interleaved replay's above.
    assert_eq!(report.makespan_secs.to_bits(), 0x3f0b8a3ab5b1e1b8);
    assert_eq!(report.host_busy_secs.to_bits(), 0x3f0b8a3ab5b1e1b8);
}
