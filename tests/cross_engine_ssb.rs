//! Cross-engine SSB integration tests: every engine style must produce
//! identical results for all 13 benchmark queries — the GPU's tile-based
//! kernels, the fused vectorized CPU engine, the tuple-at-a-time engine,
//! the materializing engine and the thread-per-row GPU engine are all
//! checked against the row-wise reference oracle on one shared dataset.

use crystal::gpu_sim::Gpu;
use crystal::hardware::nvidia_v100;
use crystal::runtime::DeviceSession;
use crystal::ssb::engines::{cpu, gpu, hyper, monet, omnisci, reference};
use crystal::ssb::queries::all_queries;
use crystal::ssb::{FactTable, SsbData};

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
        let omni = omnisci::execute(&mut DeviceSession::new(&mut device), &d, &q);
        assert_eq!(
            omni.result, expected,
            "{}: thread-per-row GPU engine diverged",
            q.name
        );
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
