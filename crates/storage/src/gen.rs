//! Deterministic workload generators for the microbenchmarks.
//!
//! All generators take explicit seeds so every experiment is reproducible
//! run-to-run and crate-to-crate.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Uniform random `i32`s over the full non-negative range.
pub fn uniform_i32(n: usize, seed: u64) -> Vec<i32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..i32::MAX)).collect()
}

/// Uniform random `f32`s in `[0, 1)` (the selection microbenchmark's
/// columns, where predicate `y < v` has selectivity exactly `v`).
pub fn uniform_f32(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen::<f32>()).collect()
}

/// The threshold achieving a target selectivity for a `[0, domain)` uniform
/// integer column under predicate `x < threshold`.
pub fn threshold_for_selectivity(domain: i32, selectivity: f64) -> i32 {
    assert!((0.0..=1.0).contains(&selectivity));
    (domain as f64 * selectivity).round() as i32
}

/// Uniform random `i32`s over `[0, domain)`.
pub fn uniform_i32_domain(n: usize, domain: i32, seed: u64) -> Vec<i32> {
    assert!(domain > 0);
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..domain)).collect()
}

/// A shuffled sequence of the unique keys `0..n` (build-side key columns).
pub fn shuffled_keys(n: usize, seed: u64) -> Vec<i32> {
    let mut keys: Vec<i32> = (0..n as i32).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    // Fisher-Yates.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        keys.swap(i, j);
    }
    keys
}

/// Foreign keys referencing `0..domain`, uniformly.
pub fn foreign_keys(n: usize, domain: usize, seed: u64) -> Vec<i32> {
    assert!(domain > 0 && domain <= i32::MAX as usize);
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..domain as i32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(uniform_i32(100, 7), uniform_i32(100, 7));
        assert_ne!(uniform_i32(100, 7), uniform_i32(100, 8));
        assert_eq!(shuffled_keys(50, 1), shuffled_keys(50, 1));
    }

    #[test]
    fn selectivity_calibration_is_accurate() {
        let n = 200_000;
        let domain = 1_000_000;
        let col = uniform_i32_domain(n, domain, 42);
        for sel in [0.1, 0.5, 0.9] {
            let v = threshold_for_selectivity(domain, sel);
            let got = col.iter().filter(|&&x| x < v).count() as f64 / n as f64;
            assert!((got - sel).abs() < 0.01, "target {sel}, got {got}");
        }
    }

    #[test]
    fn shuffled_keys_is_a_permutation() {
        let mut k = shuffled_keys(1000, 3);
        k.sort_unstable();
        assert_eq!(k, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn foreign_keys_stay_in_domain() {
        let fks = foreign_keys(10_000, 37, 5);
        assert!(fks.iter().all(|&k| (0..37).contains(&k)));
        // All values of a small domain should appear.
        let mut seen = [false; 37];
        for &k in &fks {
            seen[k as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_f32_in_unit_interval() {
        let v = uniform_f32(10_000, 11);
        assert!(v.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean: f32 = v.iter().sum::<f32>() / v.len() as f32;
        assert!((mean - 0.5).abs() < 0.02);
    }
}
