//! Hash joins on the CPU (Section 4.3).
//!
//! A no-partitioning join over a shared linear-probing table, with the
//! paper's three probe variants:
//!
//! * [`probe_scalar`] — tuple-at-a-time probing ("CPU Scalar").
//! * [`probe_simd`] — vertical vectorization ("CPU SIMD",
//!   Polychroniou et al.): 8 keys in flight per loop iteration, hash-table
//!   slots fetched with gathers. Faithfully includes the overhead the paper
//!   identifies: with 8-byte slots, a gather register holds only 4 slots,
//!   so each 8-key round needs **two** gathers plus a de-interleave of keys
//!   and payloads — the extra instructions that make CPU SIMD *slower* than
//!   scalar probing here.
//! * [`probe_prefetch`] — group prefetching ("CPU Prefetch", Chen et al.):
//!   per group of 16 keys, issue software prefetches for all slots, then
//!   probe; hides some miss latency for out-of-cache tables at the price of
//!   extra instructions.
//!
//! The build phase ([`CpuHashTable::build_parallel`]) inserts in parallel
//! with CAS, as in the paper's no-partitioning build.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::exec::scoped_map;

const EMPTY: u64 = 0;

#[inline]
fn pack(key: i32, val: i32) -> u64 {
    (((key as u32 as u64).wrapping_add(1)) << 32) | (val as u32 as u64)
}

#[inline]
fn unpack_key(slot: u64) -> u32 {
    (slot >> 32) as u32
}

#[inline]
fn unpack_val(slot: u64) -> i32 {
    slot as u32 as i32
}

#[inline]
fn hash(key: i32) -> u64 {
    (key as u32).wrapping_mul(2654435761) as u64
}

/// A shared, open-addressing, linear-probing hash table with 8-byte
/// `(key, payload)` slots.
pub struct CpuHashTable {
    slots: Box<[AtomicU64]>,
    mask: u64,
}

impl CpuHashTable {
    /// Builds in parallel from unique keys: each thread claims slots with
    /// CAS. `num_slots` must be a power of two and at least `keys.len()`.
    pub fn build_parallel(keys: &[i32], vals: &[i32], num_slots: usize, threads: usize) -> Self {
        assert_eq!(keys.len(), vals.len());
        assert!(num_slots.is_power_of_two() && num_slots >= keys.len());
        let slots: Box<[AtomicU64]> = (0..num_slots).map(|_| AtomicU64::new(EMPTY)).collect();
        let ht = CpuHashTable {
            slots,
            mask: num_slots as u64 - 1,
        };
        scoped_map(keys.len(), threads, |range| {
            for i in range {
                ht.insert(keys[i], vals[i]);
            }
        });
        ht
    }

    /// Inserts one `(key, val)`; keys are assumed unique (build relations
    /// in the paper's workloads are key columns) and non-negative (`key+1`
    /// tags occupied slots, so `-1` would collide with the empty sentinel).
    fn insert(&self, key: i32, val: i32) {
        assert!(key >= 0, "hash table keys must be non-negative");
        let mut slot = (hash(key) & self.mask) as usize;
        let packed = pack(key, val);
        loop {
            match self.slots[slot].compare_exchange(
                EMPTY,
                packed,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(_) => slot = (slot + 1) & self.mask as usize,
            }
        }
    }

    /// Number of slots.
    pub(crate) fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Scalar probe for one key.
    #[inline]
    pub(crate) fn get(&self, key: i32) -> Option<i32> {
        let want = (key as u32).wrapping_add(1);
        let mut slot = (hash(key) & self.mask) as usize;
        loop {
            let s = self.slots[slot].load(Ordering::Relaxed);
            if s == EMPTY {
                return None;
            }
            if unpack_key(s) == want {
                return Some(unpack_val(s));
            }
            slot = (slot + 1) & self.mask as usize;
        }
    }

    #[inline]
    fn home(&self, key: i32) -> usize {
        (hash(key) & self.mask) as usize
    }

    #[inline]
    fn raw(&self, slot: usize) -> u64 {
        self.slots[slot].load(Ordering::Relaxed)
    }
}

/// Q4 probe, scalar variant: `SUM(probe_val + build_val)` over matches.
pub fn probe_scalar(ht: &CpuHashTable, keys: &[i32], vals: &[i32], threads: usize) -> i64 {
    assert_eq!(keys.len(), vals.len());
    let partials = scoped_map(keys.len(), threads, |range| {
        let mut sum = 0i64;
        for i in range {
            if let Some(bv) = ht.get(keys[i]) {
                sum = sum.wrapping_add(vals[i] as i64 + bv as i64);
            }
        }
        sum
    });
    partials.into_iter().fold(0i64, i64::wrapping_add)
}

/// Q4 probe, vertically vectorized (8 keys per round, two 4-slot gathers +
/// de-interleave per round).
pub fn probe_simd(ht: &CpuHashTable, keys: &[i32], vals: &[i32], threads: usize) -> i64 {
    assert_eq!(keys.len(), vals.len());
    let partials = scoped_map(keys.len(), threads, |range| {
        let mut sum = 0i64;
        let data_k = &keys[range.start..range.end];
        let data_v = &vals[range.start..range.end];
        let n = data_k.len();
        // Lane state: the key/payload being probed and its current slot.
        let mut lane_key = [0i32; 8];
        let mut lane_val = [0i32; 8];
        let mut lane_slot = [0usize; 8];
        let mut lane_live = [false; 8];
        let mut next = 0usize;
        let mut live = 0usize;
        loop {
            // Refill finished lanes with new keys.
            for l in 0..8 {
                if !lane_live[l] && next < n {
                    lane_key[l] = data_k[next];
                    lane_val[l] = data_v[next];
                    lane_slot[l] = ht.home(data_k[next]);
                    lane_live[l] = true;
                    live += 1;
                    next += 1;
                }
            }
            if live == 0 {
                break;
            }
            // Two 4-wide gathers fetch the 8 lanes' slots...
            let mut gathered = [0u64; 8];
            for half in 0..2 {
                for g in 0..4 {
                    let l = half * 4 + g;
                    if lane_live[l] {
                        gathered[l] = ht.raw(lane_slot[l]);
                    }
                }
            }
            // ...then keys and payloads are de-interleaved before compare.
            let mut gk = [0u32; 8];
            let mut gv = [0i32; 8];
            for l in 0..8 {
                gk[l] = unpack_key(gathered[l]);
                gv[l] = unpack_val(gathered[l]);
            }
            for l in 0..8 {
                if !lane_live[l] {
                    continue;
                }
                let want = (lane_key[l] as u32).wrapping_add(1);
                if gathered[l] == EMPTY {
                    lane_live[l] = false;
                    live -= 1;
                } else if gk[l] == want {
                    sum = sum.wrapping_add(lane_val[l] as i64 + gv[l] as i64);
                    lane_live[l] = false;
                    live -= 1;
                } else {
                    lane_slot[l] = (lane_slot[l] + 1) & (ht.num_slots() - 1);
                }
            }
        }
        sum
    });
    partials.into_iter().fold(0i64, i64::wrapping_add)
}

/// Group size for software prefetching.
pub(crate) const PREFETCH_GROUP: usize = 16;

#[inline]
fn prefetch_slot(ht: &CpuHashTable, slot: usize) {
    crystal_storage::isa::prefetch(ht.slots.as_ptr().wrapping_add(slot));
}

/// Q4 probe with group prefetching: per 16-key group, prefetch all home
/// slots, then probe them.
pub fn probe_prefetch(ht: &CpuHashTable, keys: &[i32], vals: &[i32], threads: usize) -> i64 {
    assert_eq!(keys.len(), vals.len());
    let partials = scoped_map(keys.len(), threads, |range| {
        let mut sum = 0i64;
        let ks = &keys[range.start..range.end];
        let vs = &vals[range.start..range.end];
        let mut slots = [0usize; PREFETCH_GROUP];
        let mut i = 0usize;
        while i < ks.len() {
            let g = PREFETCH_GROUP.min(ks.len() - i);
            for j in 0..g {
                slots[j] = ht.home(ks[i + j]);
                prefetch_slot(ht, slots[j]);
            }
            for j in 0..g {
                let key = ks[i + j];
                let want = (key as u32).wrapping_add(1);
                let mut slot = slots[j];
                loop {
                    let s = ht.raw(slot);
                    if s == EMPTY {
                        break;
                    }
                    if unpack_key(s) == want {
                        sum = sum.wrapping_add(vs[i + j] as i64 + unpack_val(s) as i64);
                        break;
                    }
                    slot = (slot + 1) & (ht.num_slots() - 1);
                }
            }
            i += g;
        }
        sum
    });
    partials.into_iter().fold(0i64, i64::wrapping_add)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(build_n: usize, probe_n: usize) -> (CpuHashTable, Vec<i32>, Vec<i32>, i64) {
        let build_keys: Vec<i32> = (0..build_n as i32).map(|i| i * 3 + 1).collect();
        let build_vals: Vec<i32> = (0..build_n as i32).map(|i| i * 10).collect();
        let ht = CpuHashTable::build_parallel(
            &build_keys,
            &build_vals,
            (build_n * 2).next_power_of_two(),
            4,
        );
        let mut x = 777u64;
        let probe_keys: Vec<i32> = (0..probe_n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                build_keys[(x >> 33) as usize % build_n]
            })
            .collect();
        let probe_vals: Vec<i32> = (0..probe_n as i32).collect();
        let expected: i64 = probe_keys
            .iter()
            .zip(&probe_vals)
            .map(|(&k, &v)| v as i64 + ((k - 1) / 3 * 10) as i64)
            .sum();
        (ht, probe_keys, probe_vals, expected)
    }

    #[test]
    fn build_then_get_every_key() {
        let keys: Vec<i32> = (0..500).map(|i| i * 7).collect();
        let vals: Vec<i32> = (0..500).collect();
        let ht = CpuHashTable::build_parallel(&keys, &vals, 1024, 4);
        for (k, v) in keys.iter().zip(&vals) {
            assert_eq!(ht.get(*k), Some(*v));
        }
        assert_eq!(ht.get(3), None);
    }

    #[test]
    fn scalar_probe_matches_expected_sum() {
        let (ht, pk, pv, expected) = setup(1000, 30_000);
        assert_eq!(probe_scalar(&ht, &pk, &pv, 4), expected);
    }

    #[test]
    fn simd_probe_matches_scalar() {
        let (ht, pk, pv, expected) = setup(1000, 30_000);
        assert_eq!(probe_simd(&ht, &pk, &pv, 4), expected);
    }

    #[test]
    fn prefetch_probe_matches_scalar() {
        let (ht, pk, pv, expected) = setup(1000, 30_000);
        assert_eq!(probe_prefetch(&ht, &pk, &pv, 4), expected);
    }

    #[test]
    fn probes_handle_misses() {
        let ht = CpuHashTable::build_parallel(&[2, 4], &[20, 40], 8, 1);
        let keys = vec![2, 3, 4, 5];
        let vals = vec![1, 1, 1, 1];
        let expected = (1 + 20) + (1 + 40);
        assert_eq!(probe_scalar(&ht, &keys, &vals, 2), expected);
        assert_eq!(probe_simd(&ht, &keys, &vals, 2), expected);
        assert_eq!(probe_prefetch(&ht, &keys, &vals, 2), expected);
    }

    #[test]
    fn negative_payloads_roundtrip() {
        let ht = CpuHashTable::build_parallel(&[5, 1], &[-50, -10], 4, 1);
        assert_eq!(ht.get(5), Some(-50));
        assert_eq!(ht.get(1), Some(-10));
        assert_eq!(ht.get(0), None);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_keys_rejected() {
        CpuHashTable::build_parallel(&[-1], &[0], 2, 1);
    }

    #[test]
    fn empty_probe_side() {
        let ht = CpuHashTable::build_parallel(&[1], &[1], 2, 1);
        assert_eq!(probe_scalar(&ht, &[], &[], 4), 0);
        assert_eq!(probe_simd(&ht, &[], &[], 4), 0);
    }
}
