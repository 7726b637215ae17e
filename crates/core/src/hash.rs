//! Device-side hash tables.
//!
//! The paper's join microbenchmark (Section 4.3) and the SSB dimension
//! tables use an open-addressing, linear-probing table whose slots are a
//! bare `(key, payload)` pair — "the hash table is simply an array of slots
//! with each slot containing a key and a payload but no pointers". Two
//! hashing schemes are provided:
//!
//! * [`HashScheme::Mult`] — multiplicative (Fibonacci) hashing into a
//!   power-of-two slot array with linear probing; used by the join
//!   microbenchmark.
//! * [`HashScheme::Perfect`] — direct indexing by `key - min`, the perfect
//!   hashing the paper applies to SSB dimension keys ("the size of the part
//!   hash table (with perfect hashing) is 2 x 4 x 1M = 8MB", Section 5.3).
//!
//! The probe path accounts one cache-simulated gather per slot inspected,
//! which is what produces the Figure 13 cache-capacity step functions. A
//! perfect table inspects exactly one slot per key: [`DeviceHashTable::build`]
//! refuses build sides that would need a second one.

use crystal_gpu_sim::exec::{BlockCtx, LaunchConfig};
use crystal_gpu_sim::mem::DeviceBuffer;
use crystal_gpu_sim::stats::KernelReport;
use crystal_gpu_sim::Gpu;

/// Slot encoding: high 32 bits = key + 1 (so zero means empty), low 32 bits
/// = payload.
const EMPTY: u64 = 0;

#[inline]
fn pack(key: i32, val: i32) -> u64 {
    (((key as u32 as u64).wrapping_add(1)) << 32) | (val as u32 as u64)
}

#[inline]
fn slot_key(slot: u64) -> Option<i32> {
    if slot == EMPTY {
        None
    } else {
        Some(((slot >> 32) as u32).wrapping_sub(1) as i32)
    }
}

#[inline]
fn slot_val(slot: u64) -> i32 {
    slot as u32 as i32
}

/// How keys map to their home slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashScheme {
    /// Fibonacci multiplicative hash into a power-of-two table, resolving
    /// collisions with linear probing.
    Mult,
    /// Perfect hashing: slot = `key - min`. Requires unique keys, all within
    /// `min..min + num_slots`; the build checks both.
    Perfect { min: i32 },
}

/// An open-addressing hash table in device global memory.
#[derive(Debug)]
pub struct DeviceHashTable {
    slots: DeviceBuffer<u64>,
    scheme: HashScheme,
    mask: u64,
    entries: usize,
}

impl DeviceHashTable {
    /// Number of 8-byte slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of key/payload pairs inserted at build time.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Table footprint in bytes — the x-axis of Figure 13.
    pub fn size_bytes(&self) -> usize {
        self.slots.size_bytes()
    }

    /// The underlying slot buffer (diagnostics, tests).
    pub fn slots(&self) -> &DeviceBuffer<u64> {
        &self.slots
    }

    #[inline]
    fn home_slot(&self, key: i32) -> usize {
        match self.scheme {
            HashScheme::Mult => ((key as u32).wrapping_mul(2654435761) as u64 & self.mask) as usize,
            // Widen before subtracting: a key far below `min` must land
            // out of range (caught by the probe's bounds check), not
            // overflow.
            HashScheme::Perfect { min } => (key as i64 - min as i64) as usize,
        }
    }

    /// Builds a table over `keys`/`vals` with a GPU kernel.
    ///
    /// `num_slots` must be a power of two for [`HashScheme::Mult`] and at
    /// least the key range for [`HashScheme::Perfect`]. The build phase
    /// inserts with one CAS per claimed slot (scattered atomics), mirroring
    /// the parallel no-partitioning build of Section 4.3. A perfect table's
    /// insertions never walk — the check below has seen to it — so a tile's
    /// home slots are accounted in one pass, in lane order, and stored in a
    /// second.
    ///
    /// # Panics
    /// Before anything is allocated or launched, if a [`HashScheme::Perfect`]
    /// build side holds a key outside `min..min + num_slots` or the same
    /// key twice: either would make an insertion walk into another key's
    /// home slot, and a perfect probe reads only the home slot.
    pub fn build(
        gpu: &mut Gpu,
        keys: &DeviceBuffer<i32>,
        vals: &DeviceBuffer<i32>,
        num_slots: usize,
        scheme: HashScheme,
    ) -> (Self, KernelReport) {
        assert_eq!(keys.len(), vals.len());
        if scheme == HashScheme::Mult {
            assert!(num_slots.is_power_of_two(), "Mult scheme needs 2^k slots");
            assert!(num_slots >= keys.len(), "table must fit the build side");
        }
        if let HashScheme::Perfect { min } = scheme {
            // One bit per slot.
            let mut taken = vec![0u64; num_slots.div_ceil(64)];
            for &key in keys.as_slice() {
                let slot = (key as i64 - min as i64) as usize;
                assert!(
                    slot < num_slots,
                    "perfect hash table over {min}..{}: key {key} is out of range",
                    min as i64 + num_slots as i64
                );
                let (word, bit) = (&mut taken[slot / 64], 1 << (slot % 64));
                assert!(
                    *word & bit == 0,
                    "perfect hash table: key {key} appears twice in the build side"
                );
                *word |= bit;
            }
        }
        let slots = gpu.alloc_zeroed::<u64>(num_slots);
        let mut ht = DeviceHashTable {
            slots,
            scheme,
            mask: num_slots as u64 - 1,
            entries: keys.len(),
        };
        let n = keys.len();
        let cfg = LaunchConfig::default_for_items(n);
        let report = gpu.launch("hash_build", cfg, |ctx| {
            let (start, len) = ctx.tile_bounds(n);
            // Tile of build keys/values is loaded coalesced...
            ctx.global_read_coalesced(len * 8);
            let keys = &keys.as_slice()[start..start + len];
            let vals = &vals.as_slice()[start..start + len];
            // `key + 1` tags occupied slots; negative keys would alias the
            // empty sentinel. All paper workloads use keys >= 0.
            assert!(
                keys.iter().all(|&key| key >= 0),
                "hash table keys must be non-negative"
            );
            match scheme {
                // ...then each insertion claims its home slot with one CAS,
                HashScheme::Perfect { .. } => {
                    let homes = keys.iter().map(|&key| ht.slots.addr_of(ht.home_slot(key)));
                    ctx.atomic_scattered_tile(homes);
                    ctx.compute(2 * len);
                    for (&key, &val) in keys.iter().zip(vals) {
                        let slot = ht.home_slot(key);
                        ht.slots.as_mut_slice()[slot] = pack(key, val);
                    }
                }
                // or CASes slots from there on until one is claimed.
                HashScheme::Mult => {
                    for (&key, &val) in keys.iter().zip(vals) {
                        let mut slot = ht.home_slot(key);
                        loop {
                            ctx.atomic_scattered(ht.slots.addr_of(slot));
                            ctx.compute(2);
                            if ht.slots.as_slice()[slot] == EMPTY {
                                ht.slots.as_mut_slice()[slot] = pack(key, val);
                                break;
                            }
                            slot = (slot + 1) % ht.num_slots();
                        }
                    }
                }
            }
        });
        (ht, report)
    }

    /// Device-side probe: returns the payload for `key`, accounting one
    /// gather per inspected slot — a chain walk for [`HashScheme::Mult`],
    /// the home slot alone for [`HashScheme::Perfect`]. A key outside a
    /// perfect-hash table's slot range misses in registers (one compare, no
    /// memory traffic), exactly like the bounds check of a real
    /// direct-indexed probe.
    #[inline]
    pub fn probe(&self, ctx: &mut BlockCtx<'_>, key: i32) -> Option<i32> {
        let mut slot = self.home_slot(key);
        if slot >= self.num_slots() {
            ctx.compute(1);
            return None;
        }
        loop {
            ctx.gather(self.slots.addr_of(slot), 8);
            ctx.compute(2);
            let s = self.slots.as_slice()[slot];
            match slot_key(s) {
                Some(k) if k == key => return Some(slot_val(s)),
                Some(_) if self.scheme == HashScheme::Mult => {
                    slot = (slot + 1) & self.mask as usize
                }
                _ => return None,
            }
        }
    }

    /// Probes `keys[i]` for every lane with `live[i]` set: a match stores
    /// its payload in `payloads[i]`, a miss clears `live[i]`. Returns the
    /// number of matches. Accounts exactly what one [`DeviceHashTable::probe`]
    /// per live lane, in lane order, accounts.
    ///
    /// A perfect table reads one slot per key whatever the others hold, so
    /// its tile is accounted in one pass over the slot addresses and looked
    /// up in a second, instead of interleaving the two lane by lane.
    pub fn probe_tile(
        &self,
        ctx: &mut BlockCtx<'_>,
        keys: &[i32],
        live: &mut [bool],
        payloads: &mut [i32],
    ) -> usize {
        let mut hits = 0;
        if self.scheme == HashScheme::Mult {
            for ((&key, live), payload) in keys.iter().zip(live).zip(payloads) {
                if *live {
                    match self.probe(ctx, key) {
                        Some(p) => {
                            *payload = p;
                            hits += 1;
                        }
                        None => *live = false,
                    }
                }
            }
            return hits;
        }
        let slots = self.slots.as_slice();
        let home = |key: i32| Some(self.home_slot(key)).filter(|&slot| slot < slots.len());
        ctx.gather_tile(
            keys.iter()
                .zip(live.iter())
                .filter_map(|(&key, &live)| home(key).filter(|_| live))
                .map(|slot| self.slots.addr_of(slot)),
            8,
        );
        let (mut read, mut rejected) = (0, 0);
        for ((&key, live), payload) in keys.iter().zip(live).zip(payloads) {
            if !*live {
                continue;
            }
            let Some(slot) = home(key) else {
                rejected += 1;
                *live = false;
                continue;
            };
            read += 1;
            let s = slots[slot];
            if slot_key(s) == Some(key) {
                *payload = slot_val(s);
                hits += 1;
            } else {
                *live = false;
            }
        }
        ctx.compute(2 * read + rejected);
        hits
    }

    /// Frees the table's device memory.
    pub fn free(self, gpu: &mut Gpu) {
        gpu.free(self.slots);
    }
}

/// Chooses the paper's microbenchmark table geometry: a power-of-two slot
/// count giving a ~50% fill rate for `build_rows` keys.
pub fn slots_for_fill_rate(build_rows: usize, fill: f64) -> usize {
    assert!(fill > 0.0 && fill <= 1.0);
    ((build_rows as f64 / fill) as usize).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystal_hardware::nvidia_v100;

    fn gpu() -> Gpu {
        Gpu::new(nvidia_v100())
    }

    #[test]
    fn pack_roundtrips_negative_payloads() {
        let s = pack(5, -7);
        assert_eq!(slot_key(s), Some(5));
        assert_eq!(slot_val(s), -7);
        assert_eq!(slot_key(EMPTY), None);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_keys_rejected() {
        let mut g = gpu();
        let dk = g.alloc_from(&[-1]);
        let dv = g.alloc_from(&[0]);
        DeviceHashTable::build(&mut g, &dk, &dv, 2, HashScheme::Mult);
    }

    #[test]
    fn build_and_probe_all_keys() {
        let mut g = gpu();
        let keys: Vec<i32> = (0..1000).map(|i| i * 7 + 3).collect();
        let vals: Vec<i32> = (0..1000).map(|i| i * 2).collect();
        let dk = g.alloc_from(&keys);
        let dv = g.alloc_from(&vals);
        let (ht, _) = DeviceHashTable::build(&mut g, &dk, &dv, 2048, HashScheme::Mult);
        let mut found = vec![None; keys.len()];
        g.launch(
            "probe",
            LaunchConfig::default_for_items(keys.len()),
            |ctx| {
                let (start, len) = ctx.tile_bounds(keys.len());
                for i in start..start + len {
                    found[i] = ht.probe(ctx, keys[i]);
                }
            },
        );
        for (i, f) in found.iter().enumerate() {
            assert_eq!(*f, Some(vals[i]), "key {}", keys[i]);
        }
    }

    #[test]
    fn probe_misses_return_none() {
        let mut g = gpu();
        let dk = g.alloc_from(&[2, 4, 6]);
        let dv = g.alloc_from(&[20, 40, 60]);
        let (ht, _) = DeviceHashTable::build(&mut g, &dk, &dv, 8, HashScheme::Mult);
        let mut results = Vec::new();
        g.launch("probe", LaunchConfig::default_for_items(3), |ctx| {
            for k in [1, 3, 5] {
                results.push(ht.probe(ctx, k));
            }
        });
        assert_eq!(results, vec![None, None, None]);
    }

    #[test]
    fn perfect_hash_is_single_access() {
        let mut g = gpu();
        let keys: Vec<i32> = (100..200).collect();
        let vals: Vec<i32> = (0..100).collect();
        let dk = g.alloc_from(&keys);
        let dv = g.alloc_from(&vals);
        let (ht, _) =
            DeviceHashTable::build(&mut g, &dk, &dv, 100, HashScheme::Perfect { min: 100 });
        let mut probes_stats = 0;
        let r = g.launch("probe", LaunchConfig::default_for_items(100), |ctx| {
            let (start, len) = ctx.tile_bounds(100);
            for i in start..start + len {
                assert_eq!(ht.probe(ctx, keys[i]), Some(vals[i]));
                probes_stats += 1;
            }
        });
        // Exactly one gather per probe: perfect hashing never chains.
        assert_eq!(r.stats.random_requests, 100);
    }

    /// Keys outside a perfect-hash table's slot range — below `min`,
    /// above `max`, or extreme enough to overflow a narrow subtraction —
    /// miss in registers instead of indexing out of bounds.
    #[test]
    fn perfect_probe_rejects_out_of_range_keys() {
        let mut g = gpu();
        let keys: Vec<i32> = (100..200).collect();
        let vals: Vec<i32> = (0..100).collect();
        let dk = g.alloc_from(&keys);
        let dv = g.alloc_from(&vals);
        let (ht, _) =
            DeviceHashTable::build(&mut g, &dk, &dv, 100, HashScheme::Perfect { min: 100 });
        assert_eq!(ht.entries(), 100);
        let mut results = Vec::new();
        let r = g.launch("probe", LaunchConfig::default_for_items(1), |ctx| {
            for k in [0, 99, 200, -5, i32::MIN, i32::MAX] {
                results.push(ht.probe(ctx, k));
            }
            results.push(ht.probe(ctx, 150));
        });
        assert_eq!(results, vec![None, None, None, None, None, None, Some(50)]);
        // Only the in-range probe touched memory.
        assert_eq!(r.stats.random_requests, 1);
    }

    fn build_perfect(keys: &[i32], num_slots: usize, min: i32) -> (Gpu, DeviceHashTable) {
        let mut g = gpu();
        let dk = g.alloc_from(keys);
        let dv = g.alloc_from(&vec![7; keys.len()]);
        let (ht, _) =
            DeviceHashTable::build(&mut g, &dk, &dv, num_slots, HashScheme::Perfect { min });
        (g, ht)
    }

    /// A repeated key used to linear-probe into its neighbour's home slot
    /// and answer the neighbour's probes with its own payload.
    #[test]
    #[should_panic(expected = "key 11 appears twice")]
    fn perfect_build_rejects_duplicate_keys() {
        build_perfect(&[10, 11, 11, 13], 4, 10);
    }

    /// A key past either end of the slot range used to index out of bounds
    /// inside the build kernel.
    #[test]
    #[should_panic(expected = "key 14 is out of range")]
    fn perfect_build_rejects_keys_above_the_range() {
        build_perfect(&[10, 14], 4, 10);
    }

    #[test]
    #[should_panic(expected = "key 9 is out of range")]
    fn perfect_build_rejects_keys_below_the_range() {
        build_perfect(&[10, 9], 4, 10);
    }

    /// A perfect table with every slot taken has no empty slot to stop a
    /// chain walk at; a probe must read its home slot and nothing else.
    #[test]
    fn full_perfect_table_probes_one_slot_per_key() {
        let keys: Vec<i32> = (10..74).rev().collect();
        let (mut g, ht) = build_perfect(&keys, 64, 10);
        let mut found = 0;
        let r = g.launch("probe", LaunchConfig::default_for_items(64), |ctx| {
            for &k in &keys {
                found += ht.probe(ctx, k).is_some() as usize;
            }
        });
        assert_eq!(found, 64);
        assert_eq!(r.stats.random_requests, 64);
    }

    #[test]
    fn fill_rate_geometry() {
        // 256M probe-side microbenchmark: 1M build rows at 50% fill =>
        // 2M slots (16MB).
        assert_eq!(slots_for_fill_rate(1 << 20, 0.5), 1 << 21);
        // Non powers round up.
        assert_eq!(slots_for_fill_rate(1000, 0.5), 2048);
    }

    #[test]
    fn build_accounts_scattered_atomics() {
        let mut g = gpu();
        let keys: Vec<i32> = (0..512).collect();
        let vals = keys.clone();
        let dk = g.alloc_from(&keys);
        let dv = g.alloc_from(&vals);
        let (_ht, report) = DeviceHashTable::build(&mut g, &dk, &dv, 1024, HashScheme::Mult);
        assert!(report.stats.scattered_atomics >= 512);
    }
}
