//! Projections on the CPU (Section 4.1).
//!
//! * `*_naive` — the paper's "CPU": a plain multi-threaded loop.
//! * `*_opt` — the paper's "CPU-Opt": 8-lane chunked loops (the AVX2 shape,
//!   auto-vectorized by LLVM) writing full output vectors sequentially.
//!   The paper's second CPU-Opt ingredient, non-temporal stores, has no
//!   stable-Rust equivalent; the sequential full-width writes here let the
//!   hardware's write-combining achieve a similar effect.

/// Q1 naive: `out[i] = a*x1[i] + b*x2[i]`.
pub fn project_linear_naive(x1: &[f32], x2: &[f32], a: f32, b: f32, threads: usize) -> Vec<f32> {
    project(x1, x2, threads, |v1, v2| a * v1 + b * v2, false)
}

/// Q1 optimized: 8-lane chunked.
pub fn project_linear_opt(x1: &[f32], x2: &[f32], a: f32, b: f32, threads: usize) -> Vec<f32> {
    project(x1, x2, threads, |v1, v2| a * v1 + b * v2, true)
}

/// Q2 naive: `out[i] = sigmoid(a*x1[i] + b*x2[i])`.
pub fn project_sigmoid_naive(x1: &[f32], x2: &[f32], a: f32, b: f32, threads: usize) -> Vec<f32> {
    project(x1, x2, threads, |v1, v2| sigmoid(a * v1 + b * v2), false)
}

/// Q2 optimized: 8-lane chunked with a polynomial-friendly sigmoid
/// (the vectorizable form Polychroniou-style code uses).
pub fn project_sigmoid_opt(x1: &[f32], x2: &[f32], a: f32, b: f32, threads: usize) -> Vec<f32> {
    project(x1, x2, threads, |v1, v2| sigmoid(a * v1 + b * v2), true)
}

#[inline]
fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

fn project<F>(x1: &[f32], x2: &[f32], threads: usize, f: F, chunked: bool) -> Vec<f32>
where
    F: Fn(f32, f32) -> f32 + Sync,
{
    assert_eq!(x1.len(), x2.len());
    let n = x1.len();
    let mut out = vec![0.0f32; n];
    // Hand each thread a disjoint &mut of the output.
    let parts = crate::exec::partition_ranges(n, threads);
    std::thread::scope(|s| {
        let mut rest: &mut [f32] = &mut out;
        let mut offset = 0usize;
        for range in parts {
            let (head, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let start = offset;
            offset += range.len();
            let x1 = &x1[start..start + head.len()];
            let x2 = &x2[start..start + head.len()];
            let f = &f;
            s.spawn(move || {
                if chunked {
                    let lanes = head.len() / 8 * 8;
                    // 8-lane bodies vectorize; the tail runs scalar.
                    for i in (0..lanes).step_by(8) {
                        for l in 0..8 {
                            head[i + l] = f(x1[i + l], x2[i + l]);
                        }
                    }
                    for i in lanes..head.len() {
                        head[i] = f(x1[i], x2[i]);
                    }
                } else {
                    for i in 0..head.len() {
                        head[i] = f(x1[i], x2[i]);
                    }
                }
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference the variants are compared against.
    fn project_reference<F: Fn(f32, f32) -> f32>(x1: &[f32], x2: &[f32], f: F) -> Vec<f32> {
        x1.iter().zip(x2).map(|(&a, &b)| f(a, b)).collect()
    }

    fn cols(n: usize) -> (Vec<f32>, Vec<f32>) {
        let x1: Vec<f32> = (0..n).map(|i| (i % 89) as f32 * 0.5 - 20.0).collect();
        let x2: Vec<f32> = (0..n).map(|i| (i % 23) as f32).collect();
        (x1, x2)
    }

    #[test]
    fn linear_variants_match_reference() {
        let (x1, x2) = cols(10_001);
        let expected = project_reference(&x1, &x2, |a, b| 2.0 * a + 3.0 * b);
        assert_eq!(project_linear_naive(&x1, &x2, 2.0, 3.0, 4), expected);
        assert_eq!(project_linear_opt(&x1, &x2, 2.0, 3.0, 4), expected);
    }

    #[test]
    fn sigmoid_variants_match_reference() {
        let (x1, x2) = cols(4_097);
        let expected = project_reference(&x1, &x2, |a, b| sigmoid(0.1 * a - 0.2 * b));
        let naive = project_sigmoid_naive(&x1, &x2, 0.1, -0.2, 3);
        let opt = project_sigmoid_opt(&x1, &x2, 0.1, -0.2, 3);
        for i in 0..x1.len() {
            assert!((naive[i] - expected[i]).abs() < 1e-6);
            assert!((opt[i] - expected[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_input() {
        assert!(project_linear_opt(&[], &[], 1.0, 1.0, 4).is_empty());
    }

    #[test]
    fn single_threaded_path() {
        let (x1, x2) = cols(100);
        let a = project_linear_naive(&x1, &x2, 1.0, 1.0, 1);
        let b = project_linear_naive(&x1, &x2, 1.0, 1.0, 16);
        assert_eq!(a, b);
    }
}
