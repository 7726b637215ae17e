//! Projection model (Section 4.1).
//!
//! "Assuming the queries can saturate the memory bandwidth, the expected
//! runtime of Q1 and Q2 is `runtime = 2*4*N/Br + 4*N/Bw` ... this formula
//! works for both CPU and GPU, by plugging in the corresponding memory
//! bandwidth numbers."

use crate::ENTRY_BYTES;

/// Ideal projection runtime in seconds: two 4-byte input columns read, one
/// written.
pub fn project_secs(n: usize, read_bw: f64, write_bw: f64) -> f64 {
    2.0 * ENTRY_BYTES * n as f64 / read_bw + ENTRY_BYTES * n as f64 / write_bw
}

/// Compute-bound time for the unvectorized sigmoid projection — the paper's
/// "CPU" bar for Q2, which "does not saturate memory bandwidth and is
/// compute bound". `scalar_ops_per_item` is the scalar instruction count of
/// the UDF (exp expansion + divide; ~20 on Skylake).
pub(crate) fn project_compute_bound_secs(
    n: usize,
    scalar_ops_per_item: f64,
    scalar_flops: f64,
) -> f64 {
    n as f64 * scalar_ops_per_item / scalar_flops
}

/// The paper's CPU bar for Q2 is the *max* of the bandwidth and compute
/// bounds (an unvectorized sigmoid leaves the memory bus idle).
pub fn project_udf_cpu_secs(
    n: usize,
    read_bw: f64,
    write_bw: f64,
    scalar_ops_per_item: f64,
    scalar_flops: f64,
) -> f64 {
    project_secs(n, read_bw, write_bw).max(project_compute_bound_secs(
        n,
        scalar_ops_per_item,
        scalar_flops,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystal_hardware::{intel_i7_6900, nvidia_v100};

    /// The microbenchmark scale. The paper states 2^29 entries, but its
    /// measured times (CPU-Opt 64 ms, GPU 3.9 ms) match the Table-2
    /// bandwidths at 2^28 4-byte entries per column; we reproduce at 2^28
    /// (see EXPERIMENTS.md).
    const N: usize = 1 << 28;

    /// Figure 10's model lines: ~64 ms on the CPU, ~3.9 ms on the GPU.
    #[test]
    fn figure10_model_endpoints() {
        let c = intel_i7_6900();
        let g = nvidia_v100();
        let cpu = project_secs(N, c.read_bw, c.write_bw);
        let gpu = project_secs(N, g.read_bw, g.write_bw);
        assert!((cpu * 1e3 - 60.0).abs() < 6.0, "cpu {} ms", cpu * 1e3);
        assert!((gpu * 1e3 - 3.7).abs() < 0.5, "gpu {} ms", gpu * 1e3);
        // CPU-Opt/GPU ratio ~ bandwidth ratio (the paper measures 16.56).
        let ratio = cpu / gpu;
        assert!((15.0..18.0).contains(&ratio), "ratio {ratio}");
    }

    /// The unvectorized sigmoid is compute bound on the CPU (Figure 10's
    /// CPU bar for Q2 is ~4x its CPU-Opt bar).
    #[test]
    fn udf_is_compute_bound_without_simd() {
        let c = intel_i7_6900();
        let bw = project_secs(N, c.read_bw, c.write_bw);
        let total = project_udf_cpu_secs(N, c.read_bw, c.write_bw, 20.0, c.scalar_flops());
        assert!(
            total > 2.0 * bw,
            "udf {total} should dominate bandwidth {bw}"
        );
        // With SIMD (8 lanes) the compute bound drops below the bandwidth
        // bound and the query becomes memory bound again.
        let simd = project_udf_cpu_secs(N, c.read_bw, c.write_bw, 20.0, c.simd_flops());
        assert!((simd - bw).abs() < 1e-9);
    }

    #[test]
    fn scales_linearly_in_n() {
        let g = nvidia_v100();
        let t1 = project_secs(1 << 20, g.read_bw, g.write_bw);
        let t2 = project_secs(1 << 21, g.read_bw, g.write_bw);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}
