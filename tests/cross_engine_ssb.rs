//! Cross-engine SSB integration tests: every engine style must produce
//! identical results for all 13 benchmark queries — the GPU's tile-based
//! kernels, the fused vectorized CPU engine, the tuple-at-a-time engine,
//! the materializing engine and the thread-per-row GPU engine are all
//! checked against the row-wise reference oracle on one shared dataset.

use crystal::gpu_sim::Gpu;
use crystal::hardware::{nvidia_v100, GpuSpec};
use crystal::runtime::DeviceSession;
use crystal::ssb::engines::{cpu, dim_table_bytes, gpu, hyper, monet, omnisci, reference};
use crystal::ssb::queries::{all_queries, query};
use crystal::ssb::{FactTable, QueryId, SsbData};

fn dataset() -> SsbData {
    SsbData::generate_scaled(1, 0.004, 777) // 24k fact rows
}

#[test]
fn all_engines_agree_on_all_13_queries() {
    let d = dataset();
    let table = FactTable::plain(&d);
    let mut device = Gpu::new(nvidia_v100());
    let threads = 4;
    for q in all_queries(&d) {
        // Highly selective queries (q3.4's two-city December filter) can be
        // legitimately empty at this scale; equality still verifies them.
        let expected = reference::execute(&d, &q);

        let (got_cpu, trace) = cpu::execute(&d, &q, threads);
        assert_eq!(got_cpu, expected, "{}: fused CPU engine diverged", q.name);
        assert_eq!(trace.fact_rows, d.lineorder.rows());

        let got_hyper = hyper::execute(&d, &q, threads);
        assert_eq!(
            got_hyper, expected,
            "{}: tuple-at-a-time engine diverged",
            q.name
        );

        let got_monet = monet::execute(&d, &q, threads);
        assert_eq!(
            got_monet, expected,
            "{}: materializing engine diverged",
            q.name
        );

        device.reset_l2();
        let run = gpu::execute(&mut DeviceSession::new(&mut device), &table, &q).unwrap();
        assert_eq!(
            run.result, expected,
            "{}: Crystal GPU engine diverged",
            q.name
        );

        device.reset_l2();
        let omni = omnisci::execute(&mut DeviceSession::new(&mut device), &d, &q)
            .expect("a V100 holds the whole query");
        assert_eq!(
            omni.result, expected,
            "{}: thread-per-row GPU engine diverged",
            q.name
        );
    }
}

/// The per-operator engine's three kinds of device request, each refused
/// once: devices one byte too small for (a) its survivor flags, (b) the
/// first join's code column and (c) the aggregate table return the typed
/// [`SessionOom`](crystal::runtime::SessionOom) of exactly that request,
/// leave nothing on the device but what the session still caches, and
/// leave the session serving the fused engine (a 600-row dataset, which
/// fits the smallest of the three devices) the oracle's answer.
#[test]
fn per_operator_engine_refuses_a_small_device_at_every_request() {
    let d = dataset();
    let n = d.lineorder.rows();
    let small = SsbData::generate_scaled(1, 0.0001, 778);
    let q11 = query(&small, QueryId::new(1, 1));
    let expected = reference::execute(&small, &q11);

    // q2.1 joins the small supplier table first; q3.2 groups by two cities
    // and the year, an aggregate table larger than everything before it.
    let (q21, q32) = (query(&d, QueryId::new(2, 1)), query(&d, QueryId::new(3, 2)));
    let supplier = dim_table_bytes(&d, &q21.joins[0]);
    let agg_table = 8 * q32.group_domain();
    // (what is refused, query, bytes held when it is asked for, its bytes,
    // joins — a build and an upload each — before it)
    let rows = [
        ("survivor flags", &q21, 0, n, 0),
        // Flags, the held table and foreign-key column, then the codes.
        ("code column", &q21, n + supplier + 4 * n, 4 * n, 1),
        // Flags and a code column per join; everything cached is evictable.
        ("aggregate table", &q32, n + 3 * 4 * n, agg_table, 3),
    ];
    for (what, q, held, requested, joins) in rows {
        let device_of = |mem_capacity| {
            Gpu::new(GpuSpec {
                mem_capacity,
                ..nvidia_v100()
            })
        };
        let mut device = device_of(held + requested - 1);
        let mut sess = DeviceSession::new(&mut device);
        let oom = omnisci::execute(&mut sess, &d, q).expect_err(what);
        assert_eq!(oom.requested, requested, "{what}");
        let stats = sess.stats().clone();
        assert_eq!(
            (stats.ht_misses, stats.col_misses),
            (joins, joins),
            "{what}"
        );
        let on_device = sess.gpu().mem_used();
        assert_eq!(on_device, stats.cached_bytes, "{what}: scratch leaked");

        let run = gpu::execute(&mut sess, &FactTable::plain(&small), &q11).expect(what);
        assert_eq!(run.result, expected, "{what}: the session serves on");
        drop(sess);
        assert_eq!(device.mem_used(), 0, "{what}");

        // One byte more and that request is granted.
        let mut device = device_of(held + requested);
        let next = omnisci::execute(&mut DeviceSession::new(&mut device), &d, q);
        let refused = next.err().map(|oom| oom.requested);
        assert_ne!(refused, Some(requested), "{what}");
    }
}

#[test]
fn gpu_and_cpu_traces_agree_on_selectivities() {
    let d = dataset();
    let table = FactTable::plain(&d);
    let mut device = Gpu::new(nvidia_v100());
    for q in all_queries(&d) {
        let (_, cpu_trace) = cpu::execute(&d, &q, 4);
        let run = gpu::execute(&mut DeviceSession::new(&mut device), &table, &q).unwrap();
        let gpu_trace = run.trace.expect("the fused engine counts its rows");
        assert_eq!(
            cpu_trace.pred_survivors, gpu_trace.pred_survivors,
            "{}",
            q.name
        );
        assert_eq!(cpu_trace.result_rows, gpu_trace.result_rows, "{}", q.name);
        for (a, b) in cpu_trace.stages.iter().zip(&gpu_trace.stages) {
            assert_eq!(a.probes, b.probes, "{}: stage probes", q.name);
            assert_eq!(a.hits, b.hits, "{}: stage hits", q.name);
        }
    }
}

#[test]
fn engines_agree_across_scale_factors() {
    for sf in [1usize, 2] {
        let d = SsbData::generate_scaled(sf, 0.002, 31);
        let table = FactTable::plain(&d);
        let mut device = Gpu::new(nvidia_v100());
        for q in all_queries(&d).into_iter().take(4) {
            let expected = reference::execute(&d, &q);
            let (got, _) = cpu::execute(&d, &q, 2);
            assert_eq!(got, expected, "{} sf{sf}", q.name);
            let run = gpu::execute(&mut DeviceSession::new(&mut device), &table, &q).unwrap();
            assert_eq!(run.result, expected, "{} sf{sf} gpu", q.name);
        }
    }
}

#[test]
fn grouped_results_decode_to_valid_attribute_values() {
    use crystal::ssb::QueryResult;
    let d = dataset();
    let q = crystal::ssb::queries::query(&d, crystal::ssb::QueryId::new(4, 3));
    let (result, _) = cpu::execute(&d, &q, 4);
    if let QueryResult::Groups(groups) = result {
        for (key, sum) in groups {
            // q4.3 groups by [s_city, p_brand1, d_year].
            assert_eq!(key.len(), 3);
            assert!((0..250).contains(&key[0]), "city {key:?}");
            assert!((0..1000).contains(&key[1]), "brand {key:?}");
            assert!((1992..=1998).contains(&key[2]), "year {key:?}");
            assert_ne!(sum, 0);
        }
    }
}
