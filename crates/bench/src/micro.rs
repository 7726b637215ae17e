//! Microbenchmark experiments: Figures 9, 10, 12, 13, 14 and the
//! Section 3.3 and 4.4 comparisons.

use crystal_core::hash::{slots_for_fill_rate, DeviceHashTable, HashScheme};
use crystal_core::kernels::radix::{
    radix_partition_pass, RadixOrder, GPU_STABLE_MAX_BITS, GPU_UNSTABLE_MAX_BITS,
};
use crystal_core::kernels::{
    hash_join_sum, independent_select_gt, lsb_radix_sort, msb_radix_sort, project_linear,
    project_sigmoid, select_where,
};
use crystal_cpu::join::{probe_prefetch, probe_scalar, probe_simd, CpuHashTable};
use crystal_cpu::project as cpu_project;
use crystal_cpu::radix as cpu_radix;
use crystal_cpu::select::{select_branching, select_predication, select_simd_pred};
use crystal_gpu_sim::exec::LaunchConfig;
use crystal_gpu_sim::{Gpu, KernelReport};
use crystal_hardware::{bytes::fmt_bytes, intel_i7_6900, nvidia_v100, KIB, MIB};
use crystal_models as models;
use crystal_storage::gen;

use crate::check::Check;
use crate::util::{ms, ratio, scale_kernel, scale_kernels, time_median, Config, Report};

/// Figure 9: selection-kernel runtime across thread-block sizes and
/// items-per-thread, N = 2^28, selectivity 0.5 (simulated, scaled to paper
/// N).
pub fn fig9(cfg: &Config, _smoke: bool) -> Vec<Check> {
    let n = cfg.micro_n();
    let scale = cfg.scale_to_paper();
    let domain = 1_000_000;
    let data = gen::uniform_i32_domain(n, domain, 42);
    let v = gen::threshold_for_selectivity(domain, 0.5);

    let mut report = Report::new(
        "fig9_tile_sweep",
        &["block_size", "ipt1_ms", "ipt2_ms", "ipt4_ms"],
    );
    let mut gpu = Gpu::new(nvidia_v100());
    let col = gpu.alloc_from(&data);
    for bs in [32usize, 64, 128, 256, 512, 1024] {
        let mut cells = vec![bs.to_string()];
        for ipt in [1usize, 2, 4] {
            let lc = LaunchConfig::for_items(n, bs, ipt);
            let (out, r) = select_where(&mut gpu, &col, lc, move |y| y > v);
            gpu.free(out);
            cells.push(ms(scale_kernel(&r, scale)));
        }
        report.row(cells);
    }
    report.finish();
    println!("paper shape: best at block size 128-256 with 4 items/thread;");
    println!("collapse at tiny blocks (atomics+occupancy), rise at 1024 (sync).");
    Vec::new()
}

/// `SELECT y WHERE y > v` over `data` on a fresh device: Crystal's single
/// tile-based kernel, and the three kernels of the independent-threads
/// approach.
pub(crate) fn tile_kernels(data: &[i32], v: i32) -> (KernelReport, Vec<KernelReport>) {
    let mut gpu = Gpu::new(nvidia_v100());
    let col = gpu.alloc_from(data);
    let cfg = LaunchConfig::default_for_items(data.len());
    let (out, crystal) = select_where(&mut gpu, &col, cfg, move |y| y > v);
    gpu.free(out);
    let (out, indep) = independent_select_gt(&mut gpu, &col, v);
    gpu.free(out);
    (crystal, indep)
}

/// Section 3.3: Crystal's single tile-based kernel vs the three-kernel
/// independent-threads approach (paper: 2.1 ms vs 19 ms).
pub fn tile_model(cfg: &Config, _smoke: bool) -> Vec<Check> {
    let scale = cfg.scale_to_paper();
    let domain = 1_000_000;
    let data = gen::uniform_i32_domain(cfg.micro_n(), domain, 42);
    let v = gen::threshold_for_selectivity(domain, 0.5);
    let (crystal, indep) = tile_kernels(&data, v);

    let t_crystal = scale_kernel(&crystal, scale);
    let t_indep = scale_kernels(&indep, scale);
    let mut report = Report::new("tile_model", &["approach", "sim_ms", "paper_ms"]);
    report.row(vec!["crystal_tile".into(), ms(t_crystal), "2.1".into()]);
    report.row(vec![
        "independent_threads".into(),
        ms(t_indep),
        "19.0".into(),
    ]);
    report.finish();
    println!("speedup {} (paper: 9.0x)", ratio(t_indep / t_crystal));
    Vec::new()
}

/// Figure 10: projection microbenchmark (Q1 linear, Q2 sigmoid).
pub fn fig10(cfg: &Config, _smoke: bool) -> Vec<Check> {
    let n = cfg.micro_n();
    let scale = cfg.scale_to_paper();
    let paper_n = cfg.paper_n();
    let cpu = intel_i7_6900();
    let gspec = nvidia_v100();
    let x1 = gen::uniform_f32(n, 7);
    let x2 = gen::uniform_f32(n, 8);
    let (a, b) = (2.0f32, 3.0f32);

    // Simulated GPU.
    let mut gpu = Gpu::new(gspec.clone());
    let d1 = gpu.alloc_from(&x1);
    let d2 = gpu.alloc_from(&x2);
    let (o, r_q1) = project_linear(&mut gpu, &d1, &d2, a, b);
    gpu.free(o);
    let (o, r_q2) = project_sigmoid(&mut gpu, &d1, &d2, a, b);
    gpu.free(o);

    // Host-measured CPU.
    let t = cfg.threads;
    let m_q1_naive = time_median(cfg.reps, || {
        std::hint::black_box(cpu_project::project_linear_naive(&x1, &x2, a, b, t));
    });
    let m_q1_opt = time_median(cfg.reps, || {
        std::hint::black_box(cpu_project::project_linear_opt(&x1, &x2, a, b, t));
    });
    let m_q2_naive = time_median(cfg.reps, || {
        std::hint::black_box(cpu_project::project_sigmoid_naive(&x1, &x2, a, b, t));
    });
    let m_q2_opt = time_median(cfg.reps, || {
        std::hint::black_box(cpu_project::project_sigmoid_opt(&x1, &x2, a, b, t));
    });

    let model_cpu = models::project::project_secs(paper_n, cpu.read_bw, cpu.write_bw);
    let model_cpu_q2_naive = models::project::project_udf_cpu_secs(
        paper_n,
        cpu.read_bw,
        cpu.write_bw,
        20.0,
        cpu.scalar_flops(),
    );
    let model_gpu = models::project::project_secs(paper_n, gspec.read_bw, gspec.write_bw);

    let mut report = Report::new(
        "fig10_project",
        &["series", "q1_ms", "q2_ms", "paper_q1_ms", "paper_q2_ms"],
    );
    report.row(vec![
        "cpu_model".into(),
        ms(model_cpu),
        ms(model_cpu),
        "~61".into(),
        "~61".into(),
    ]);
    report.row(vec![
        "cpu_naive_model".into(),
        ms(model_cpu),
        ms(model_cpu_q2_naive),
        "90.5".into(),
        "282.4".into(),
    ]);
    report.row(vec![
        "gpu_model".into(),
        ms(model_gpu),
        ms(model_gpu),
        "~3.7".into(),
        "~3.7".into(),
    ]);
    report.row(vec![
        "gpu_sim".into(),
        ms(scale_kernel(&r_q1, scale)),
        ms(scale_kernel(&r_q2, scale)),
        "3.9".into(),
        "3.9".into(),
    ]);
    report.row(vec![
        "cpu_host_measured_naive".into(),
        ms(m_q1_naive),
        ms(m_q2_naive),
        "-".into(),
        "-".into(),
    ]);
    report.row(vec![
        "cpu_host_measured_opt".into(),
        ms(m_q1_opt),
        ms(m_q2_opt),
        "-".into(),
        "-".into(),
    ]);
    report.finish();
    println!(
        "CPU-Opt/GPU ratio (modeled): {} (paper: 16.56 for Q1, 17.95 for Q2)",
        ratio(model_cpu / scale_kernel(&r_q1, scale))
    );
    Vec::new()
}

/// Figure 12: selection scan across selectivities.
pub fn fig12(cfg: &Config, _smoke: bool) -> Vec<Check> {
    let n = cfg.micro_n();
    let scale = cfg.scale_to_paper();
    let paper_n = cfg.paper_n();
    let cpu = intel_i7_6900();
    let gspec = nvidia_v100();
    let domain = 1 << 20;
    let data = gen::uniform_i32_domain(n, domain, 13);
    let t = cfg.threads;

    let mut report = Report::new(
        "fig12_select",
        &[
            "selectivity",
            "cpu_if_model_ms",
            "cpu_pred_model_ms",
            "gpu_sim_ms",
            "gpu_model_ms",
            "host_if_ms",
            "host_pred_ms",
            "host_simd_ms",
        ],
    );
    let mut gpu = Gpu::new(gspec.clone());
    let col = gpu.alloc_from(&data);
    for step in 0..=10 {
        let sigma = step as f64 / 10.0;
        let v = gen::threshold_for_selectivity(domain, sigma);

        let (out, r) = select_where(
            &mut gpu,
            &col,
            LaunchConfig::default_for_items(n),
            move |y| y < v,
        );
        gpu.free(out);

        let host_if = time_median(cfg.reps, || {
            std::hint::black_box(select_branching(&data, v, t));
        });
        let host_pred = time_median(cfg.reps, || {
            std::hint::black_box(select_predication(&data, v, t));
        });
        let host_simd = time_median(cfg.reps, || {
            std::hint::black_box(select_simd_pred(&data, v, t));
        });

        report.row(vec![
            format!("{sigma:.1}"),
            ms(models::select::select_branching_cpu_secs(
                paper_n, sigma, &cpu,
            )),
            ms(models::select::select_predicated_cpu_secs(
                paper_n, sigma, &cpu,
            )),
            ms(scale_kernel(&r, scale)),
            ms(models::select::select_secs(
                paper_n,
                sigma,
                gspec.read_bw,
                gspec.write_bw,
            )),
            ms(host_if),
            ms(host_pred),
            ms(host_simd),
        ]);
    }
    report.finish();
    println!("paper shape: branching hump at mid selectivity; predication flat;");
    println!("GPU tracks its model; mean CPU/GPU ratio ~15.8 (bandwidth ratio 16.2).");
    Vec::new()
}

/// Figure 13: hash-join probe across hash-table sizes.
pub fn fig13(cfg: &Config, _smoke: bool) -> Vec<Check> {
    let probe_n = cfg.micro_n();
    let scale = cfg.scale_to_paper();
    let paper_p = cfg.paper_n();
    let cpu = intel_i7_6900();
    let gspec = nvidia_v100();
    let t = cfg.threads;

    let probe_sizes: Vec<usize> = [
        8 * KIB,
        32 * KIB,
        128 * KIB,
        512 * KIB,
        2 * MIB,
        8 * MIB,
        32 * MIB,
        128 * MIB,
        512 * MIB,
    ]
    .to_vec();

    let mut report = Report::new(
        "fig13_join",
        &[
            "ht_size",
            "cpu_model_ms",
            "cpu_empirical_ms",
            "gpu_sim_ms",
            "gpu_model_ms",
            "host_scalar_ms",
            "host_simd_ms",
            "host_prefetch_ms",
        ],
    );

    for ht_bytes in probe_sizes {
        let slots = ht_bytes / 8;
        let build_n = slots / 2; // 50% fill
        let build_keys = gen::shuffled_keys(build_n, 3);
        let build_vals: Vec<i32> = (0..build_n as i32).collect();
        let probe_keys: Vec<i32> = gen::foreign_keys(probe_n, build_n, 5);
        let probe_vals: Vec<i32> = vec![1; probe_n];

        // Host-measured CPU probes.
        let ht = CpuHashTable::build_parallel(&build_keys, &build_vals, slots, t);
        let host_scalar = time_median(cfg.reps, || {
            std::hint::black_box(probe_scalar(&ht, &probe_keys, &probe_vals, t));
        });
        let host_simd = time_median(cfg.reps, || {
            std::hint::black_box(probe_simd(&ht, &probe_keys, &probe_vals, t));
        });
        let host_prefetch = time_median(cfg.reps, || {
            std::hint::black_box(probe_prefetch(&ht, &probe_keys, &probe_vals, t));
        });
        drop(ht);

        // Simulated GPU probe (fresh device per size so L2 state is clean).
        let mut gpu = Gpu::new(gspec.clone());
        let dk = gpu.alloc_from(&build_keys);
        let dv = gpu.alloc_from(&build_vals);
        let (ght, _) = DeviceHashTable::build(
            &mut gpu,
            &dk,
            &dv,
            slots_for_fill_rate(build_n, 0.5),
            HashScheme::Mult,
        );
        gpu.free(dk);
        gpu.free(dv);
        let pk = gpu.alloc_from(&probe_keys);
        let pv = gpu.alloc_from(&probe_vals);
        // Warm the simulated L2, then measure the steady-state probe.
        let (_, _) = hash_join_sum(&mut gpu, &pk, &pv, &ght);
        let (_, r) = hash_join_sum(&mut gpu, &pk, &pv, &ght);

        report.row(vec![
            fmt_bytes(ht_bytes),
            ms(models::join::join_probe_cpu_secs(paper_p, ht_bytes, &cpu)),
            ms(models::join::join_probe_cpu_empirical_secs(
                paper_p, ht_bytes, &cpu,
            )),
            ms(scale_kernel(&r, scale)),
            ms(models::join::join_probe_gpu_secs(paper_p, ht_bytes, &gspec)),
            ms(host_scalar),
            ms(host_simd),
            ms(host_prefetch),
        ]);
    }
    report.finish();
    println!("paper shape: steps at L2/L3 (CPU) and L2 (GPU) capacity;");
    println!("~5.5x gain for 32-128KB tables, ~14.5x for 1-4MB, ~10.5x out-of-cache.");
    Vec::new()
}

/// Figure 14: radix histogram and shuffle passes across radix bits.
pub fn fig14(cfg: &Config, _smoke: bool) -> Vec<Check> {
    let n = cfg.micro_n();
    let scale = cfg.scale_to_paper();
    let paper_r = cfg.paper_n();
    let cpu = intel_i7_6900();
    let gspec = nvidia_v100();
    let keys = gen::uniform_i32(n, 21)
        .iter()
        .map(|&k| k as u32)
        .collect::<Vec<_>>();
    let vals: Vec<u32> = (0..n as u32).collect();
    let t = cfg.threads;

    let mut report = Report::new(
        "fig14_radix",
        &[
            "bits",
            "hist_cpu_model_ms",
            "hist_host_ms",
            "hist_gpu_sim_ms",
            "hist_gpu_model_ms",
            "shuf_cpu_model_ms",
            "shuf_host_ms",
            "shuf_gpu_stable_ms",
            "shuf_gpu_unstable_ms",
            "shuf_gpu_model_ms",
        ],
    );

    for bits in 3..=11u32 {
        // Host-measured CPU phases.
        let hist_host = time_median(cfg.reps, || {
            std::hint::black_box(cpu_radix::radix_histogram(&keys, bits, 0, t));
        });
        let shuf_host = time_median(cfg.reps.min(2), || {
            std::hint::black_box(cpu_radix::radix_partition_stable(&keys, &vals, bits, 0, t));
        });

        // Simulated GPU phases.
        let mut gpu = Gpu::new(gspec.clone());
        let dk = gpu.alloc_from(&keys);
        let dv = gpu.alloc_from(&vals);
        let lc = LaunchConfig::default_for_items(n);
        let (hist, hist_r) =
            crystal_core::kernels::radix::radix_histogram(&mut gpu, &dk, bits, 0, lc);
        gpu.free(hist);
        let stable = if bits <= GPU_STABLE_MAX_BITS {
            let (a, b, rs) =
                radix_partition_pass(&mut gpu, &dk, &dv, bits, 0, RadixOrder::Stable).unwrap();
            gpu.free(a);
            gpu.free(b);
            Some(scale_kernel(rs.last().unwrap(), scale))
        } else {
            None
        };
        let unstable = if bits <= GPU_UNSTABLE_MAX_BITS {
            let (a, b, rs) =
                radix_partition_pass(&mut gpu, &dk, &dv, bits, 0, RadixOrder::Unstable).unwrap();
            gpu.free(a);
            gpu.free(b);
            Some(scale_kernel(rs.last().unwrap(), scale))
        } else {
            None
        };

        let opt_ms = |o: Option<f64>| o.map(ms).unwrap_or_else(|| "-".into());
        report.row(vec![
            bits.to_string(),
            ms(models::sort::histogram_secs(paper_r, cpu.read_bw)),
            ms(hist_host),
            ms(scale_kernel(&hist_r, scale)),
            ms(models::sort::histogram_secs(paper_r, gspec.read_bw)),
            ms(models::sort::shuffle_secs(
                paper_r,
                cpu.read_bw,
                cpu.write_bw,
            )),
            ms(shuf_host),
            opt_ms(stable),
            opt_ms(unstable),
            ms(models::sort::shuffle_secs(
                paper_r,
                gspec.read_bw,
                gspec.write_bw,
            )),
        ]);
    }
    report.finish();
    println!("paper shape: both phases bandwidth-bound; GPU stable caps at 7 bits,");
    println!("unstable at 8; CPU deteriorates past 8 bits (L1 spill).");
    Vec::new()
}

/// Section 4.4: full 2^28-pair sorts — CPU LSB (464 ms) vs GPU MSB
/// (27.08 ms), a 17.1x gain.
pub fn sort_exp(cfg: &Config, _smoke: bool) -> Vec<Check> {
    let n = cfg.micro_n();
    let scale = cfg.scale_to_paper();
    let paper_r = cfg.paper_n();
    let cpu = intel_i7_6900();
    let gspec = nvidia_v100();
    let keys: Vec<u32> = gen::uniform_i32(n, 33).iter().map(|&k| k as u32).collect();
    let vals: Vec<u32> = (0..n as u32).collect();
    let t = cfg.threads;

    let host_cpu = time_median(1, || {
        std::hint::black_box(cpu_radix::lsb_radix_sort(&keys, &vals, t));
    });

    let mut gpu = Gpu::new(gspec.clone());
    let dk = gpu.alloc_from(&keys);
    let dv = gpu.alloc_from(&vals);
    let (a, b, lsb) = lsb_radix_sort(&mut gpu, &dk, &dv).unwrap();
    gpu.free(a);
    gpu.free(b);
    let (a, b, msb) = msb_radix_sort(&mut gpu, &dk, &dv).unwrap();
    gpu.free(a);
    gpu.free(b);
    let t_lsb = scale_kernels(&lsb, scale);
    let t_msb = scale_kernels(&msb, scale);

    let cpu_model = models::sort::radix_sort_secs(paper_r, 4, cpu.read_bw, cpu.write_bw);
    let gpu_model = models::sort::radix_sort_secs(paper_r, 4, gspec.read_bw, gspec.write_bw);

    let mut report = Report::new("sort_full", &["series", "ms", "paper_ms"]);
    report.row(vec!["cpu_lsb_model".into(), ms(cpu_model), "-".into()]);
    report.row(vec![
        "cpu_lsb_host_measured".into(),
        ms(host_cpu),
        "464 (paper hw)".into(),
    ]);
    report.row(vec!["gpu_lsb_sim(5 passes)".into(), ms(t_lsb), "-".into()]);
    report.row(vec![
        "gpu_msb_sim(4 passes)".into(),
        ms(t_msb),
        "27.08".into(),
    ]);
    report.row(vec!["gpu_msb_model".into(), ms(gpu_model), "-".into()]);
    report.finish();
    println!(
        "modeled CPU/simulated GPU gain: {} (paper: 17.13x, bandwidth ratio 16.2x)",
        ratio(cpu_model / t_msb)
    );
    Vec::new()
}
