//! Projection kernels (Section 4.1).
//!
//! Two shapes from the paper:
//!
//! * **Q1** `SELECT a*x1 + b*x2 FROM R` — a pure linear combination; memory
//!   bandwidth bound on any reasonable implementation.
//! * **Q2** `SELECT sigma(a*x1 + b*x2) FROM R` — a user-defined function
//!   (the sigmoid of a logistic-regression model), "representative of the
//!   most complicated projection we will likely see in any SQL query". On
//!   the GPU the transcendental work is absorbed by the SFUs; the paper's
//!   point is that even this projection stays bandwidth bound on a GPU.
//!
//! Both are single kernels: two `BlockLoad`s, register-resident compute, one
//! `BlockStore` — `runtime = 2*4*N/Br + 4*N/Bw` when bandwidth saturated.

use crystal_gpu_sim::exec::LaunchConfig;
use crystal_gpu_sim::mem::DeviceBuffer;
use crystal_gpu_sim::stats::KernelReport;
use crystal_gpu_sim::Gpu;

use crate::primitives::{block_load, block_store};
use crate::tile::Tile;

/// Q1: `SELECT a*x1 + b*x2 FROM R` over f32 columns.
pub fn project_linear(
    gpu: &mut Gpu,
    x1: &DeviceBuffer<f32>,
    x2: &DeviceBuffer<f32>,
    a: f32,
    b: f32,
) -> (DeviceBuffer<f32>, KernelReport) {
    project_map(gpu, x1, x2, "project_linear", 0, move |v1, v2| {
        a * v1 + b * v2
    })
}

/// Q2: `SELECT sigma(a*x1 + b*x2) FROM R` where `sigma(x) = 1/(1+e^-x)`.
pub fn project_sigmoid(
    gpu: &mut Gpu,
    x1: &DeviceBuffer<f32>,
    x2: &DeviceBuffer<f32>,
    a: f32,
    b: f32,
) -> (DeviceBuffer<f32>, KernelReport) {
    // One SFU op (exp) per element on top of the FMA work.
    project_map(gpu, x1, x2, "project_sigmoid", 1, move |v1, v2| {
        let z = a * v1 + b * v2;
        1.0 / (1.0 + (-z).exp())
    })
}

/// Generic two-column projection kernel: `out[i] = f(x1[i], x2[i])`.
/// `sfu_per_item` accounts special-function-unit work (0 for arithmetic-only
/// projections).
pub(crate) fn project_map<F: Fn(f32, f32) -> f32>(
    gpu: &mut Gpu,
    x1: &DeviceBuffer<f32>,
    x2: &DeviceBuffer<f32>,
    name: &str,
    sfu_per_item: usize,
    f: F,
) -> (DeviceBuffer<f32>, KernelReport) {
    assert_eq!(x1.len(), x2.len());
    let n = x1.len();
    let mut out = gpu.alloc_zeroed::<f32>(n);
    let cfg = LaunchConfig::default_for_items(n);
    let tile = cfg.tile();
    let mut t1: Tile<f32> = Tile::new(tile);
    let mut t2: Tile<f32> = Tile::new(tile);
    let mut to: Tile<f32> = Tile::new(tile);
    let report = gpu.launch(name, cfg, |ctx| {
        let (start, len) = ctx.tile_bounds(n);
        if len == 0 {
            return;
        }
        block_load(ctx, x1, start, len, &mut t1);
        block_load(ctx, x2, start, len, &mut t2);
        for i in 0..len {
            to.storage_mut()[i] = f(t1.as_slice()[i], t2.as_slice()[i]);
        }
        to.set_len(len);
        ctx.compute(2 * len);
        if sfu_per_item > 0 {
            ctx.sfu(sfu_per_item * len);
        }
        block_store(ctx, &to, &mut out, start);
    });
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystal_hardware::nvidia_v100;

    fn columns(n: usize) -> (Vec<f32>, Vec<f32>) {
        let x1: Vec<f32> = (0..n).map(|i| (i % 97) as f32 * 0.25).collect();
        let x2: Vec<f32> = (0..n).map(|i| (i % 31) as f32 - 15.0).collect();
        (x1, x2)
    }

    #[test]
    fn linear_projection_is_exact() {
        let mut g = Gpu::new(nvidia_v100());
        let (h1, h2) = columns(3000);
        let x1 = g.alloc_from(&h1);
        let x2 = g.alloc_from(&h2);
        let (out, _) = project_linear(&mut g, &x1, &x2, 2.0, -0.5);
        for i in 0..3000 {
            assert_eq!(out.as_slice()[i], 2.0 * h1[i] - 0.5 * h2[i]);
        }
    }

    #[test]
    fn sigmoid_projection_is_bounded_and_monotone() {
        let mut g = Gpu::new(nvidia_v100());
        let (h1, h2) = columns(1024);
        let x1 = g.alloc_from(&h1);
        let x2 = g.alloc_from(&h2);
        let (out, _) = project_sigmoid(&mut g, &x1, &x2, 1.0, 1.0);
        for (i, &y) in out.as_slice().iter().enumerate() {
            assert!((0.0..=1.0).contains(&y), "sigmoid out of range at {i}");
            let z = h1[i] + h2[i];
            let expected = 1.0 / (1.0 + (-z).exp());
            assert!((y - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn traffic_matches_model_two_reads_one_write() {
        let mut g = Gpu::new(nvidia_v100());
        let n = 1 << 16;
        let (h1, h2) = columns(n);
        let x1 = g.alloc_from(&h1);
        let x2 = g.alloc_from(&h2);
        let (_, r) = project_linear(&mut g, &x1, &x2, 1.0, 1.0);
        assert_eq!(r.stats.global_read_bytes as usize, 2 * 4 * n);
        assert_eq!(r.stats.global_write_bytes as usize, 4 * n);
    }

    #[test]
    fn sigmoid_accounts_sfu_work() {
        let mut g = Gpu::new(nvidia_v100());
        let (h1, h2) = columns(4096);
        let x1 = g.alloc_from(&h1);
        let x2 = g.alloc_from(&h2);
        let (_, r) = project_sigmoid(&mut g, &x1, &x2, 1.0, 1.0);
        assert_eq!(r.stats.sfu_ops, 4096);
    }

    /// Figure 10's headline: the GPU projection remains bandwidth bound even
    /// with the sigmoid UDF — Q2 is no slower than ~Q1 on the GPU.
    #[test]
    fn sigmoid_is_still_bandwidth_bound_on_gpu() {
        let mut g = Gpu::new(nvidia_v100());
        let n = 1 << 20;
        let (h1, h2) = columns(n);
        let x1 = g.alloc_from(&h1);
        let x2 = g.alloc_from(&h2);
        let (_, r1) = project_linear(&mut g, &x1, &x2, 2.0, 3.0);
        let (_, r2) = project_sigmoid(&mut g, &x1, &x2, 2.0, 3.0);
        assert_eq!(r2.time.bottleneck_secs(), r2.time.hbm);
        let ratio = r2.time.total_secs() / r1.time.total_secs();
        assert!(ratio < 1.05, "Q2/Q1 = {ratio}");
    }
}
