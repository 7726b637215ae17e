//! The coprocessor pitfall (Section 3.1): why shipping data to the GPU per
//! query cannot beat a good CPU implementation, and why resident working
//! sets change the picture.
//!
//! Runs SSB q1.1 three ways — CPU-only, GPU-as-coprocessor (data shipped
//! over PCIe per query) and GPU-resident (Crystal, data already in HBM) —
//! and prints the modeled paper-scale times.
//!
//! ```sh
//! cargo run --release --example coprocessor_pitfall
//! ```

use crystal::gpu_sim::Gpu;
use crystal::hardware::{intel_i7_6900, nvidia_v100, pcie_gen3};
use crystal::models::ssb::compressed_coprocessor_bounds;
use crystal::runtime::DeviceSession;
use crystal::ssb::engines::{copro, gpu as gpu_engine};
use crystal::ssb::exec::{self, PipelineMode};
use crystal::ssb::model as qmodel;
use crystal::ssb::queries::{query, QueryId};
use crystal::ssb::{FactTable, SsbData};

fn main() {
    let fact_scale = 0.01;
    let data = SsbData::generate_scaled(20, fact_scale, 7);
    let q = query(&data, QueryId::new(1, 1));
    let cpu_spec = intel_i7_6900();
    let pcie = pcie_gen3();
    let threads = crystal::cpu::exec::default_threads();

    // CPU-only execution (fused, vectorized) + its paper-scale model.
    let table = FactTable::plain(&data);
    let (cpu_result, trace) = exec::execute(&table, &q, threads, PipelineMode::Vectorized);
    let t_cpu = qmodel::cpu_empirical_secs(&q, &trace, &cpu_spec);

    // Coprocessor: 4 fact columns cross PCIe, overlapped with execution.
    let mut gpu = Gpu::new(nvidia_v100());
    let run = copro::execute_scaled(&mut gpu, &pcie, &data, &q, fact_scale).unwrap();
    assert_eq!(run.result, cpu_result);

    // GPU-resident: the same kernels, data already in device memory.
    gpu.reset_l2();
    let mut fresh = DeviceSession::new(&mut gpu);
    let resident = gpu_engine::execute(&mut fresh, &table, &q).unwrap();
    let t_resident = resident.sim_secs_scaled(fact_scale);

    println!("SSB q1.1 at scale factor 20 (120M rows), modeled on Table-2 hardware:\n");
    println!(
        "  CPU only (Skylake, fused+vectorized):   {:>8.1} ms",
        t_cpu * 1e3
    );
    println!(
        "  GPU as coprocessor (PCIe {} GBps):    {:>8.1} ms  <- transfer {:.1} ms, exec {:.1} ms",
        pcie.bandwidth / 1e9,
        run.time.overlapped * 1e3,
        run.time.transfer * 1e3,
        run.time.exec * 1e3
    );
    println!(
        "  GPU resident (Crystal, data in HBM):    {:>8.1} ms",
        t_resident * 1e3
    );

    let (gpu_bound, cpu_bound) =
        compressed_coprocessor_bounds(run.shipped_bytes, 0, &cpu_spec, &pcie);
    println!(
        "\nSection 3.1's argument: the coprocessor is lower-bounded by transfer \
         ({:.1} ms),\nwhile the CPU is upper-bounded by one scan of the same bytes \
         ({:.1} ms) — so the\ncoprocessor can never win. Keeping the working set on \
         the GPU is {:.0}x faster\nthan the coprocessor and {:.0}x faster than the CPU.",
        gpu_bound * 1e3,
        cpu_bound * 1e3,
        run.time.overlapped / t_resident,
        t_cpu / t_resident
    );
}
