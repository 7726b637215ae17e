//! Full-workload experiments: Figures 3 and 16 and the Section 5.3 case
//! study.

use crystal_gpu_sim::Gpu;
use crystal_hardware::{intel_i7_6900, nvidia_v100, pcie_gen3, table2_profile};
use crystal_models::ssb::{q21_cpu_empirical_secs, q21_cpu_model, q21_gpu_model, Q21Params};
use crystal_ssb::engines::{copro, hyper, monet};
use crystal_ssb::exec::{self, PipelineMode};
use crystal_ssb::model as qmodel;
use crystal_ssb::queries::all_queries;
use crystal_ssb::{FactTable, SsbData};

use crate::check::Check;
use crate::stream::{cold, replay_engines, Engine, Sessions};
use crate::util::{ms, ratio, time_median, Config, Report};

fn geo_mean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The shared dataset: SF-20 dimensions, sampled fact table (see
/// `SsbData::generate_scaled`).
fn dataset(cfg: &Config) -> SsbData {
    SsbData::generate_scaled(20, cfg.fact_scale, 20_2020)
}

/// Figure 3: the coprocessor model vs MonetDB and Hyper on the CPU
/// (paper scale, SF 20).
pub fn fig3(cfg: &Config, _smoke: bool) -> Vec<Check> {
    let d = dataset(cfg);
    let cpu_spec = intel_i7_6900();
    let pcie = pcie_gen3();
    let mut gpu = Gpu::new(nvidia_v100());

    let mut report = Report::new(
        "fig3_coprocessor",
        &["query", "monetdb_ms", "coprocessor_ms", "hyper_ms"],
    );
    let mut monet_t = Vec::new();
    let mut copro_t = Vec::new();
    let mut hyper_t = Vec::new();
    let table = FactTable::plain(&d);
    for q in all_queries(&d) {
        let (_, trace) = exec::execute(&table, &q, cfg.threads, PipelineMode::Vectorized);
        let t_monet = qmodel::monetdb_secs(&q, &trace, &cpu_spec);
        let t_hyper = qmodel::hyper_secs(&q, &trace, &cpu_spec);
        gpu.reset_l2();
        let run = copro::execute_scaled(&mut gpu, &pcie, &d, &q, cfg.fact_scale).unwrap();
        let t_copro = run.time.overlapped;
        report.row(vec![q.name.into(), ms(t_monet), ms(t_copro), ms(t_hyper)]);
        monet_t.push(t_monet);
        copro_t.push(t_copro);
        hyper_t.push(t_hyper);
    }
    report.row(vec![
        "mean".into(),
        ms(geo_mean(&monet_t)),
        ms(geo_mean(&copro_t)),
        ms(geo_mean(&hyper_t)),
    ]);
    report.finish();
    println!(
        "coprocessor vs MonetDB: {} faster; vs Hyper: {} (paper: 1.5x faster, 1.4x slower)",
        ratio(geo_mean(&monet_t) / geo_mean(&copro_t)),
        ratio(geo_mean(&hyper_t) / geo_mean(&copro_t)),
    );
    println!("every coprocessor query is PCIe-transfer bound (Section 3.1).");
    Vec::new()
}

/// Figure 16: the four-engine SSB comparison at paper scale, plus
/// host-measured engine times at the reduced scale.
pub fn fig16(cfg: &Config, _smoke: bool) -> Vec<Check> {
    let d = dataset(cfg);
    let cpu_spec = intel_i7_6900();

    let mut report = Report::new(
        "fig16_ssb",
        &[
            "query",
            "hyper_ms",
            "cpu_ms",
            "omnisci_ms",
            "gpu_ms",
            "speedup",
            "host_cpu_ms",
            "host_hyper_ms",
            "host_monet_ms",
        ],
    );
    let mut speedups = Vec::new();
    let mut cpu_times = Vec::new();
    let mut gpu_times = Vec::new();
    let table = FactTable::plain(&d);
    let queries = all_queries(&d);
    // Each query cold on the tile-based engine, then cold on the
    // per-operator one (both asserted against the oracle as they run).
    let engines = [Engine::Fused, Engine::PerOperator];
    let steps = queries
        .iter()
        .flat_map(|q| engines.map(|engine| (engine, q)));
    let device = replay_engines(&table, steps, Sessions::FreshPerQuery, &table2_profile());
    for (q, runs) in queries.iter().zip(device.runs.chunks_exact(2)) {
        let host = || exec::execute(&table, q, cfg.threads, PipelineMode::Vectorized);
        let (_, trace) = host();
        let t_cpu = qmodel::cpu_empirical_secs(q, &trace, &cpu_spec);
        let t_hyper = qmodel::hyper_secs(q, &trace, &cpu_spec);
        let t_gpu = runs[0].sim_secs_scaled(cfg.fact_scale);
        let t_omni = runs[1].sim_secs_scaled(cfg.fact_scale);

        let host_cpu = time_median(cfg.reps, || {
            std::hint::black_box(host());
        });
        let host_hyper = time_median(cfg.reps, || {
            std::hint::black_box(hyper::execute(&d, q, cfg.threads));
        });
        let host_monet = time_median(cfg.reps, || {
            std::hint::black_box(monet::execute(&d, q, cfg.threads));
        });

        let speedup = t_cpu / t_gpu;
        report.row(vec![
            q.name.into(),
            ms(t_hyper),
            ms(t_cpu),
            ms(t_omni),
            ms(t_gpu),
            ratio(speedup),
            ms(host_cpu),
            ms(host_hyper),
            ms(host_monet),
        ]);
        speedups.push(speedup);
        cpu_times.push(t_cpu);
        gpu_times.push(t_gpu);
    }
    report.row(vec![
        "mean".into(),
        "-".into(),
        ms(geo_mean(&cpu_times)),
        "-".into(),
        ms(geo_mean(&gpu_times)),
        ratio(geo_mean(&speedups)),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    report.finish();
    println!(
        "mean standalone GPU speedup over standalone CPU: {} (paper: ~25x; bandwidth ratio 16.2x)",
        ratio(geo_mean(&speedups))
    );
    Vec::new()
}

/// Section 5.3 case study: the q2.1 three-component model vs execution.
pub fn case_study(cfg: &Config, _smoke: bool) -> Vec<Check> {
    let d = dataset(cfg);
    let cpu_spec = intel_i7_6900();
    let gspec = nvidia_v100();
    let p = Q21Params::sf20();

    let q = crystal_ssb::queries::query(&d, crystal_ssb::QueryId::new(2, 1));
    let run = cold(&FactTable::plain(&d), &q);
    let sim = run.sim_secs_scaled(cfg.fact_scale);
    println!("{}, cold, at the sampled scale:\n{run}", q.name);

    let g = q21_gpu_model(&p, &gspec);
    let c = q21_cpu_model(&p, &cpu_spec);

    let mut report = Report::new(
        "case_study_q21",
        &["component", "gpu_model_ms", "cpu_model_ms"],
    );
    report.row(vec![
        "r1_fact_columns".into(),
        ms(g.fact_columns),
        ms(c.fact_columns),
    ]);
    report.row(vec!["r2_probes".into(), ms(g.probes), ms(c.probes)]);
    report.row(vec!["r3_result".into(), ms(g.result), ms(c.result)]);
    report.row(vec![
        "total".into(),
        ms(g.total()),
        ms(crystal_models::ssb::q21_cpu_model_secs(&p, &cpu_spec)),
    ]);
    report.finish();

    let mut summary = Report::new("case_study_q21_summary", &["series", "ms", "paper_ms"]);
    summary.row(vec!["gpu_model".into(), ms(g.total()), "3.7".into()]);
    summary.row(vec![
        "gpu_simulated".into(),
        ms(sim),
        "3.86 (measured)".into(),
    ]);
    summary.row(vec![
        "cpu_model".into(),
        ms(crystal_models::ssb::q21_cpu_model_secs(&p, &cpu_spec)),
        "47".into(),
    ]);
    summary.row(vec![
        "cpu_empirical".into(),
        ms(q21_cpu_empirical_secs(&p, &cpu_spec)),
        "125 (measured)".into(),
    ]);
    summary.finish();
    println!("the paper's point: the GPU model is accurate (latency hiding), the CPU");
    println!("model is not — CPUs stall on irregular accesses (Section 5.3).");
    Vec::new()
}
