//! The `reproduce ablation-compression` experiment: a design choice the
//! paper discusses (Section 5.5's "non-byte addressable packing") but does
//! not plot, isolated and measured — selection over bit-packed columns at
//! several widths on both devices, then compressed SSB end to end, with
//! the placement each encoding earns. EXPERIMENTS.md states its scorecard
//! rows.

use crystal_gpu_sim::Gpu;
use crystal_hardware::{bytes::fmt_bytes, intel_i7_6900, nvidia_v100};
use crystal_ssb::engines::profile::QueryProfile;
use crystal_ssb::exec::{self, PipelineMode};
use crystal_ssb::FactTable;
use crystal_storage::gen;

use crate::check::Check;
use crate::stream::cold;
use crate::util::{ms, ratio, scale_kernel, time_median, transfer_vs_host_scan, Config, Report};

/// Bit-packed compression sweep: selection over packed columns at several
/// widths, on both devices (Section 5.5's "non-byte addressable packing").
pub fn compression(cfg: &Config, _smoke: bool) -> Vec<Check> {
    use crystal_core::kernels::packed::{select_gt_packed, DevicePackedColumn};
    use crystal_cpu::select::{select, SelectVariant};
    use crystal_storage::bitpack::PackedColumn;

    let n = cfg.micro_n();
    let scale = cfg.scale_to_paper();
    let t = cfg.threads;
    let mut report = Report::new(
        "ablation_compression",
        &[
            "bits",
            "footprint",
            "gpu_sim_ms",
            "gpu_vs_plain",
            "host_ms",
            "host_vs_plain",
        ],
    );

    let mut gpu = Gpu::new(nvidia_v100());
    // Plain 32-bit baseline at sigma = 0.5.
    let domain = 1i32 << 20;
    let values = gen::uniform_i32_domain(n, domain, 3);
    let v = gen::threshold_for_selectivity(domain, 0.5);
    let plain_col = gpu.alloc_from(&values);
    let (out, plain_r) = crystal_core::kernels::select_where(
        &mut gpu,
        &plain_col,
        crystal_gpu_sim::exec::LaunchConfig::default_for_items(n),
        move |y| y > v,
    );
    gpu.free(out);
    let plain_gpu = scale_kernel(&plain_r, scale);
    let plain_host = time_median(cfg.reps, || {
        std::hint::black_box(select(&values[..], v, t, SelectVariant::Predication));
    });
    report.row(vec![
        "32 (plain)".into(),
        fmt_bytes(n * 4),
        ms(plain_gpu),
        "1.0x".into(),
        ms(plain_host),
        "1.0x".into(),
    ]);

    for bits in [21u32, 16, 10] {
        // Rescale values into the width, keeping sigma = 0.5.
        let dom = 1i32 << bits.min(30);
        let vals = gen::uniform_i32_domain(n, dom, 3);
        let thr = gen::threshold_for_selectivity(dom, 0.5);
        let packed = PackedColumn::pack(&vals, bits).unwrap();
        let dev = DevicePackedColumn::upload(&mut gpu, &packed);
        let (out, r) = select_gt_packed(&mut gpu, &dev, thr);
        gpu.free(out);
        dev.free(&mut gpu);
        let gpu_t = scale_kernel(&r, scale);
        let host_t = time_median(cfg.reps, || {
            std::hint::black_box(select(&packed.view(), thr, t, SelectVariant::Predication));
        });
        report.row(vec![
            bits.to_string(),
            fmt_bytes(packed.size_bytes()),
            ms(gpu_t),
            ratio(plain_gpu / gpu_t),
            ms(host_t),
            ratio(plain_host / host_t),
        ]);
    }
    report.finish();
    println!("on the bandwidth-bound GPU, packed widths convert directly into");
    println!("speedup; on the CPU the unpack shifts eat most of the gain -- the");
    println!("compute-to-bandwidth asymmetry of Section 5.5.");

    // --- End-to-end compressed SSB execution: every fact column packed at
    // --- its minimum width, queries running directly on the packed words.
    use crystal_ssb::encoding::{EncodedFact, FactEncodings};
    use crystal_ssb::queries::{query, QueryId};

    let d = crystal_ssb::SsbData::generate_scaled(1, cfg.fact_scale, 20_2020);
    let fact = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
    let (plain, packed) = (FactTable::plain(&d), FactTable::encoded(&d, &fact));
    let cpu_spec = intel_i7_6900();
    let pcie = crystal_hardware::pcie_gen3();
    let mut report = Report::new(
        "ablation_compression_ssb",
        &[
            "query",
            "gpu_plain_ms",
            "gpu_packed_ms",
            "read_shrink",
            "host_plain_ms",
            "host_packed_ms",
            "placement_plain",
            "placement_packed",
        ],
    );
    for id in [QueryId::new(1, 1), QueryId::new(2, 1), QueryId::new(4, 3)] {
        let q = query(&d, id);
        let [plain_run, packed_run] = [&plain, &packed].map(|table| cold(table, &q));
        let read = |run: &QueryProfile| run.reports.last().unwrap().stats.global_read_bytes as f64;
        let shrink = read(&plain_run) / read(&packed_run);
        let [host_plain, host_packed] = [&plain, &packed].map(|table| {
            time_median(cfg.reps, || {
                let _ = exec::execute(table, &q, t, PipelineMode::Vectorized);
            })
        });
        let place = |table: &FactTable<'_>| {
            let (transfer, host) = transfer_vs_host_scan(table, &q, &cpu_spec, &pcie);
            if transfer < host {
                "GPU"
            } else {
                "host"
            }
        };
        report.row(vec![
            format!("{id}"),
            ms(plain_run.sim_secs_scaled(cfg.fact_scale)),
            ms(packed_run.sim_secs_scaled(cfg.fact_scale)),
            ratio(shrink),
            ms(host_plain),
            ms(host_packed),
            place(&plain).into(),
            place(&packed).into(),
        ]);
    }
    report.finish();
    println!(
        "whole-table compression ratio {:.2}x; packing shrinks the PCIe transfer",
        fact.compression_ratio()
    );
    println!("by the same factor, which is what flips the placement column: the");
    println!("Section-6 bounds route packed scans to the GPU over the very link");
    println!("that loses on plain data.");
    Vec::new()
}
