//! Quickstart: run a selection, a projection and a join on the simulated
//! GPU with Crystal's tile-based kernels, inspect the simulated timing
//! reports, then run a star-schema query and print what it cost.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use crystal::prelude::*;

fn main() {
    // A simulated Nvidia V100 with the paper's Table-2 characteristics.
    let mut gpu = Gpu::new(nvidia_v100());
    println!(
        "device: {} ({} SMs, {:.0} GBps HBM, {} MB L2)\n",
        gpu.spec().name,
        gpu.spec().num_sms,
        gpu.spec().read_bw / 1e9,
        gpu.spec().l2_size / (1024 * 1024),
    );

    let n = 1 << 20;

    // --- Selection: SELECT y FROM r WHERE y > 900_000 ---------------------
    let data: Vec<i32> = crystal::storage::gen::uniform_i32_domain(n, 1_000_000, 42);
    let col = gpu.alloc_from(&data);
    let (matches, report) = kernels::select_gt(&mut gpu, &col, 900_000);
    println!(
        "select:  {} of {} rows matched   [{}]",
        matches.len(),
        n,
        report
    );
    gpu.free(matches);

    // --- Projection: SELECT sigmoid(2 x1 + 3 x2) FROM r -------------------
    let x1 = gpu.alloc_from(&crystal::storage::gen::uniform_f32(n, 7));
    let x2 = gpu.alloc_from(&crystal::storage::gen::uniform_f32(n, 8));
    let (scores, report) = kernels::project_sigmoid(&mut gpu, &x1, &x2, 2.0, 3.0);
    println!(
        "project: first scores = {:.3?}   [{}]",
        &scores.as_slice()[..4],
        report
    );
    gpu.free(scores);

    // --- Hash join: SELECT SUM(a.v + b.v) FROM a, b WHERE a.k = b.k -------
    let build_n = 1 << 14;
    let build_keys = gpu.alloc_from(&crystal::storage::gen::shuffled_keys(build_n, 3));
    let build_vals = gpu.alloc_from(&(0..build_n as i32).collect::<Vec<_>>());
    let (ht, _) = crystal::core::DeviceHashTable::build(
        &mut gpu,
        &build_keys,
        &build_vals,
        crystal::core::hash::slots_for_fill_rate(build_n, 0.5),
        crystal::core::hash::HashScheme::Mult,
    );
    let probe_keys = gpu.alloc_from(&crystal::storage::gen::foreign_keys(n, build_n, 5));
    let probe_vals = gpu.alloc_from(&vec![1i32; n]);
    let (sum, report) = kernels::hash_join_sum(&mut gpu, &probe_keys, &probe_vals, &ht);
    println!(
        "join:    checksum {} over {} matches   [{}]",
        sum.checksum, sum.matches, report
    );

    // --- A star-schema query, and what it cost ----------------------------
    // SSB q2.1 over a 60k-row fact table through one session: cold it ships
    // its four fact columns and builds three dimension tables; then the
    // placement model, seeing them resident, routes it to the device, where
    // it ships nothing. Every second is simulated (host wall-clock is
    // unrelated: the simulator executes functionally and models V100
    // timing).
    let d = ssb::SsbData::generate_scaled(1, 0.01, 42);
    let (table, q) = (
        ssb::FactTable::plain(&d),
        ssb::query(&d, ssb::QueryId::new(2, 1)),
    );
    let mut sess = DeviceSession::new(&mut gpu);
    let cold = ssb::engines::gpu::execute(&mut sess, &table, &q).expect("60k rows fit a V100");
    println!("\n{}, cold: {}\n{cold}", q.name, cold.result);
    let warm = ssb::engines::copro::execute_placed(&mut sess, &intel_i7_6900(), &table, &q, 2);
    assert_eq!(warm.result, cold.result);
    println!("{}, placed over the warm session:\n{warm}", q.name);
}
