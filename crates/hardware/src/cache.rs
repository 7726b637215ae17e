//! Cache-level descriptions shared by the CPU and GPU models.

/// A single level of a cache hierarchy, as used by the analytical join model
/// (Section 4.3 of the paper) and by the set-associative cache simulator in
/// `crystal-gpu-sim`.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheLevel {
    /// Human-readable name ("L2", "L3", ...).
    pub name: &'static str,
    /// Capacity in bytes.
    pub size: usize,
    /// Bandwidth out of this level, bytes/sec.
    pub bandwidth: f64,
    /// Line size in bytes (the random-access granularity).
    pub line: usize,
    /// Associativity used when this level is simulated.
    pub assoc: usize,
}

impl CacheLevel {
    /// Probability that a uniformly random access to a working set of
    /// `working_set` bytes hits this level, assuming LRU retention:
    /// `min(size / working_set, 1)` — exactly the paper's
    /// `pi_K = min(S_K / H, 1)`.
    pub fn hit_ratio(&self, working_set: usize) -> f64 {
        if working_set == 0 {
            return 1.0;
        }
        (self.size as f64 / working_set as f64).min(1.0)
    }

    /// Number of sets when simulated with the configured associativity.
    pub fn num_sets(&self) -> usize {
        (self.size / self.line / self.assoc).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2() -> CacheLevel {
        CacheLevel {
            name: "L2",
            size: 6 * 1024 * 1024,
            bandwidth: 2.2e12,
            line: 128,
            assoc: 16,
        }
    }

    #[test]
    fn hit_ratio_clamps_to_one() {
        assert_eq!(l2().hit_ratio(1024), 1.0);
    }

    #[test]
    fn hit_ratio_is_capacity_fraction() {
        let c = l2();
        let ws = 12 * 1024 * 1024; // 2x the cache
        assert!((c.hit_ratio(ws) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hit_ratio_of_empty_working_set() {
        assert_eq!(l2().hit_ratio(0), 1.0);
    }

    #[test]
    fn geometry() {
        let c = l2();
        assert_eq!(c.num_sets(), 3_072);
    }
}
