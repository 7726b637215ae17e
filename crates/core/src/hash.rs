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
//!
//! The *simulated* table is the paper's array of 8-byte slots at its
//! addresses under either scheme. Only `Mult` keeps the slots on the host
//! (its probes walk them); a perfect table's are an unbacked reservation,
//! and the host answers from a membership bitmap over the slots and one of
//! two payload sources. An explicit-key [`DeviceHashTable::build`] keeps
//! its own: a rank per bitmap word and one payload per entry. An SSB
//! dimension table ([`DeviceHashTable::build_perfect`]) shares the join's
//! two halves ([`DimPart`]) that the host engine probes: the member bitmap
//! and the group-code column. A dimension join thus has one representation,
//! read by the host engine and by the simulated device alike.

use std::sync::Arc;

use crystal_gpu_sim::exec::{BlockCtx, LaunchConfig};
use crystal_gpu_sim::mem::DeviceBuffer;
use crystal_gpu_sim::stats::KernelReport;
use crystal_gpu_sim::Gpu;

use crate::selvec::{set_bits, DimPart};
use crate::tile::retain_lanes;

/// `Mult` slot encoding: high 32 bits = key + 1 (so zero means empty), low
/// 32 bits = payload. A perfect table's slots hold no values.
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

/// Where a perfect table reads the payload of a member slot.
#[derive(Debug)]
enum Payloads {
    /// An explicit-key build's own: the members before each bitmap word,
    /// and one payload per entry in slot order.
    Ranked { rank: Vec<u32>, payloads: Vec<i32> },
    /// A dimension join's shared group-code column over the slots; `None`
    /// for an ungrouped join, whose entries carry 0.
    Codes(Option<Arc<DimPart>>),
}

/// An open-addressing hash table in device global memory.
#[derive(Debug)]
pub struct DeviceHashTable {
    /// The simulated slots: backed under `Mult`, an unbacked reservation under `Perfect`.
    slots: DeviceBuffer<u64>,
    scheme: HashScheme,
    mask: u64,
    entries: usize,
    /// `Perfect` only: the membership bitmap over the slots, in `bits`.
    members: Arc<DimPart>,
    payloads: Payloads,
}

impl DeviceHashTable {
    /// Number of 8-byte slots.
    pub fn num_slots(&self) -> usize {
        self.slots.reserved_bytes() / 8
    }

    /// Number of key/payload pairs inserted at build time.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Table footprint in bytes — the x-axis of Figure 13.
    pub fn size_bytes(&self) -> usize {
        self.slots.reserved_bytes()
    }

    /// The halves a [`DeviceHashTable::build_perfect`] table answers from,
    /// shared with whoever handed them over: the member bitmap and the code
    /// column, if any. `None` for a table that keeps its own payloads.
    pub fn halves(&self) -> Option<(&Arc<DimPart>, Option<&Arc<DimPart>>)> {
        match &self.payloads {
            Payloads::Codes(codes) => Some((&self.members, codes.as_ref())),
            Payloads::Ranked { .. } => None,
        }
    }

    /// Whether a perfect table's `slot` holds an entry.
    #[inline]
    fn is_member(&self, slot: usize) -> bool {
        self.members.bits[slot / 64] >> (slot % 64) & 1 == 1
    }

    /// The payload of a perfect table's member `slot`.
    #[inline]
    fn payload(&self, slot: usize) -> i32 {
        match &self.payloads {
            Payloads::Ranked { rank, payloads } => payloads[ranked(rank, &self.members.bits, slot)],
            Payloads::Codes(codes) => codes.as_ref().map_or(0, |c| i32::from(c.codes[slot])),
        }
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
    /// home slots are accounted in one pass, in lane order; its payloads are
    /// stored at their ranks on the host.
    ///
    /// # Panics
    /// Before anything is reserved or launched, if a [`HashScheme::Perfect`]
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
        let (mut occupied, mut rank, mut payloads) = (Vec::new(), Vec::new(), Vec::new());
        if let HashScheme::Perfect { min } = scheme {
            // One bit per slot.
            occupied = vec![0u64; num_slots.div_ceil(64)];
            let slot_of = |key: i32| (key as i64 - min as i64) as usize;
            for &key in keys.as_slice() {
                let slot = slot_of(key);
                assert!(
                    slot < num_slots,
                    "perfect hash table over {min}..{}: key {key} is out of range",
                    min as i64 + num_slots as i64
                );
                let (word, bit) = (&mut occupied[slot / 64], 1 << (slot % 64));
                assert!(
                    *word & bit == 0,
                    "perfect hash table: key {key} appears twice in the build side"
                );
                *word |= bit;
            }
            let ranks = occupied
                .iter()
                .scan(0, |n, w| Some(std::mem::replace(n, *n + w.count_ones())));
            rank = ranks.collect();
            payloads = vec![0; keys.len()];
            for (&key, &val) in keys.as_slice().iter().zip(vals.as_slice()) {
                payloads[ranked(&rank, &occupied, slot_of(key))] = val;
            }
        }
        let slots = match scheme {
            HashScheme::Mult => gpu.try_alloc_zeroed(num_slots),
            HashScheme::Perfect { .. } => gpu.try_alloc_unbacked(num_slots),
        };
        let mut ht = DeviceHashTable {
            slots: slots.expect("device allocation failed"),
            scheme,
            mask: num_slots as u64 - 1,
            entries: keys.len(),
            members: Arc::new(DimPart {
                bits: occupied,
                codes: Vec::new(),
            }),
            payloads: Payloads::Ranked { rank, payloads },
        };
        let n = keys.len();
        let cfg = LaunchConfig::default_for_items(n);
        let report = gpu.launch("hash_build", cfg, |ctx| {
            let (start, len) = ctx.tile_bounds(n);
            let keys = &keys.as_slice()[start..start + len];
            let vals = &vals.as_slice()[start..start + len];
            // `key + 1` tags a `Mult` table's occupied slots, so negative keys
            // would alias its empty sentinel; both schemes take keys >= 0.
            assert!(
                keys.iter().all(|&key| key >= 0),
                "hash table keys must be non-negative"
            );
            match scheme {
                HashScheme::Perfect { .. } => {
                    let homes = keys.iter().map(|&key| ht.home_slot(key));
                    account_perfect_tile(ctx, &ht.slots, homes, len);
                }
                // The tile of build keys/values is loaded coalesced, then each
                // insertion CASes slots from its home slot on until one is claimed.
                HashScheme::Mult => {
                    ctx.global_read_coalesced(len * 8);
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

    /// Builds a perfect table over one dimension join's halves, sharing
    /// them: the set bits of `members.bits` are the entries (key = `min +
    /// slot`), an entry's payload is its slot of `codes.codes`, or 0 with no
    /// code column. Reserves and accounts exactly what [`DeviceHashTable::build`]
    /// over the same pairs in ascending key order, staged into two device
    /// buffers, does: the staging (unbacked now, freed after the launch),
    /// the slot array, one `hash_build` kernel over the members.
    ///
    /// # Panics
    /// Before anything is reserved, if `min` is negative or the halves are
    /// not over `num_slots` slots: a bitmap word per 64, no bit past the
    /// last slot, a code per slot.
    pub fn build_perfect(
        gpu: &mut Gpu,
        min: i32,
        num_slots: usize,
        members: Arc<DimPart>,
        codes: Option<Arc<DimPart>>,
    ) -> (Self, KernelReport) {
        assert!(min >= 0, "hash table keys must be non-negative");
        let (bits, tail) = (&members.bits, num_slots % 64);
        let over_slots = bits.len() == num_slots.div_ceil(64)
            && (tail == 0 || bits.last().is_none_or(|&word| word >> tail == 0))
            && codes.as_ref().is_none_or(|c| c.codes.len() == num_slots);
        assert!(over_slots, "the halves of a table over {num_slots} slots");
        let n: usize = bits.iter().map(|w| w.count_ones() as usize).sum();
        let stage = |gpu: &mut Gpu| gpu.try_alloc_unbacked::<i32>(n);
        let staging = [(); 2].map(|()| stage(gpu).expect("device allocation failed"));
        let slots = gpu.try_alloc_unbacked(num_slots);
        let ht = DeviceHashTable {
            slots: slots.expect("device allocation failed"),
            scheme: HashScheme::Perfect { min },
            mask: num_slots as u64 - 1,
            entries: n,
            members,
            payloads: Payloads::Codes(codes),
        };
        // Blocks run in order, so each tile takes the next `len` members.
        let mut homes = set_bits(&ht.members.bits);
        let report = gpu.launch("hash_build", LaunchConfig::default_for_items(n), |ctx| {
            let (_, len) = ctx.tile_bounds(n);
            account_perfect_tile(ctx, &ht.slots, homes.by_ref().take(len), len);
        });
        drop(homes);
        staging.into_iter().for_each(|buf| gpu.free(buf));
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
            if self.scheme != HashScheme::Mult {
                return self.is_member(slot).then(|| self.payload(slot));
            }
            let s = self.slots.as_slice()[slot];
            match slot_key(s) {
                Some(k) if k == key => return Some(slot_val(s)),
                Some(_) => slot = (slot + 1) & self.mask as usize,
                None => return None,
            }
        }
    }

    /// Probes `keys[lane]` for every listed lane (ascending, see
    /// [`crate::tile`]) and keeps the lanes that match, in order, with the
    /// match's payload in `payloads[lane]` (what a listed lane that misses
    /// leaves there is unspecified). Returns the number of matches. Accounts
    /// exactly what one [`DeviceHashTable::probe`] per listed lane, in lane
    /// order, accounts.
    ///
    /// A perfect table reads one slot per key whatever the others hold, so
    /// its lanes are accounted in one pass over the slot addresses, tested
    /// against the membership bitmap and compacted in a second, and only
    /// the survivors' payloads are read, in a third: a code column is too
    /// large for the host's cache, and most probes miss.
    pub fn probe_tile(
        &self,
        ctx: &mut BlockCtx<'_>,
        keys: &[i32],
        lanes: &mut Vec<u16>,
        payloads: &mut [i32],
    ) -> usize {
        if self.scheme == HashScheme::Mult {
            retain_lanes(lanes, |lane| {
                let hit = self.probe(ctx, keys[lane]);
                hit.map(|payload| payloads[lane] = payload).is_some()
            });
            return lanes.len();
        }
        let slots = self.num_slots();
        let home = |key: i32| Some(self.home_slot(key)).filter(|&slot| slot < slots);
        let homes = lanes.iter().filter_map(|&lane| home(keys[lane as usize]));
        ctx.gather_tile(homes.map(|slot| self.slots.addr_of(slot)), 8);
        let (listed, mut read) = (lanes.len(), 0);
        retain_lanes(lanes, |lane| {
            let Some(slot) = home(keys[lane]) else {
                return false;
            };
            read += 1;
            self.is_member(slot)
        });
        for &lane in lanes.iter() {
            payloads[lane as usize] = self.payload(self.home_slot(keys[lane as usize]));
        }
        // Two ops per slot read, one per key rejected in registers.
        ctx.compute(2 * read + (listed - read));
        lanes.len()
    }

    /// Frees the table's device memory.
    pub fn free(self, gpu: &mut Gpu) {
        gpu.free(self.slots);
    }
}

/// Where a ranked payload array keeps member `slot`'s payload: the members
/// before its bitmap word plus those below it in the word.
#[inline]
fn ranked(rank: &[u32], bits: &[u64], slot: usize) -> usize {
    let below = bits[slot / 64] & ((1 << (slot % 64)) - 1);
    (rank[slot / 64] + below.count_ones()) as usize
}

/// One tile of a perfect build: the tile's build keys and values loaded
/// coalesced, then one CAS per insertion on its home slot — a perfect
/// insertion never walks — and two ops each.
fn account_perfect_tile(
    ctx: &mut BlockCtx<'_>,
    slots: &DeviceBuffer<u64>,
    homes: impl Iterator<Item = usize>,
    len: usize,
) {
    ctx.global_read_coalesced(len * 8);
    ctx.atomic_scattered_tile(homes.map(|slot| slots.addr_of(slot)));
    ctx.compute(2 * len);
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
    use std::collections::HashMap;

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

    /// The build side is checked before the slot array is reserved: on a
    /// device too small for the table, the duplicate is what is reported.
    #[test]
    #[should_panic(expected = "key 11 appears twice")]
    fn perfect_build_checks_keys_before_reserving() {
        let mut spec = nvidia_v100();
        spec.mem_capacity = 1 << 16;
        let mut g = Gpu::new(spec);
        let dk = g.alloc_from(&[10, 11, 11]);
        let dv = g.alloc_from(&[0, 1, 2]);
        DeviceHashTable::build(&mut g, &dk, &dv, 1 << 14, HashScheme::Perfect { min: 10 });
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

    /// Payloads at the edges of `i32`, cycled over a build side.
    const EDGE_PAYLOADS: [i32; 4] = [i32::MIN, -1, 0, i32::MAX];

    /// A perfect table against a `HashMap` over the build side: every key
    /// of the range and past both ends of it, on an empty build side, a
    /// single key, a full range, the bitmap's word edges and a strided
    /// build in descending order. Each kernel's counters equal those of the
    /// same launch on a second device that accounts per lane what the
    /// table stands for: a coalesced 8-byte read and one scattered atomic
    /// at `slot * 8` per insert, two ops per insert; one 8-byte gather and
    /// two ops per in-range probe, one op per key out of range.
    #[test]
    fn perfect_table_matches_a_map_oracle() {
        const MIN: i32 = 1000;
        let range = 200usize;
        let below = [i32::MIN, -1, 0, MIN - 1];
        let past = [MIN + range as i32, MIN + 1000, i32::MAX];
        let probes: Vec<i32> = (below.into_iter().chain(MIN..MIN + range as i32))
            .chain(past)
            .collect();
        let builds: [Vec<usize>; 5] = [
            vec![],
            vec![57],
            (0..range).collect(),
            vec![0, 63, 64, 127, range - 1],
            (0..range).rev().step_by(3).collect(),
        ];
        for slots in builds {
            let keys: Vec<i32> = slots.iter().map(|&s| MIN + s as i32).collect();
            let vals: Vec<i32> = (0..keys.len()).map(|i| EDGE_PAYLOADS[i % 4]).collect();
            let oracle: HashMap<i32, i32> = keys.iter().copied().zip(vals.clone()).collect();
            let (mut g, mut reference) = (gpu(), gpu());
            let (dk, dv) = (g.alloc_from(&keys), g.alloc_from(&vals));
            let (ht, built) =
                DeviceHashTable::build(&mut g, &dk, &dv, range, HashScheme::Perfect { min: MIN });
            let (_, _) = (reference.alloc_from(&keys), reference.alloc_from(&vals));
            let table = reference.alloc_zeroed::<u64>(range);
            let home = |key: i32| {
                let slot = key as i64 - MIN as i64;
                (0..range as i64)
                    .contains(&slot)
                    .then(|| table.addr_of(slot as usize))
            };
            let cfg = LaunchConfig::default_for_items(keys.len());
            let want = reference.launch("hash_build", cfg, |ctx| {
                let (start, len) = ctx.tile_bounds(keys.len());
                ctx.global_read_coalesced(len * 8);
                for &key in &keys[start..start + len] {
                    ctx.atomic_scattered(home(key).unwrap());
                    ctx.compute(2);
                }
            });
            assert_eq!(built.stats, want.stats, "{slots:?}: build");
            assert_eq!(built.stats.scattered_atomics, keys.len() as u64);
            assert_eq!((ht.entries(), ht.num_slots()), (keys.len(), range));

            let one_tile = LaunchConfig::default_for_items(1);
            for tiled in [true, false] {
                let (mut hits, mut want_hits) = (Vec::new(), Vec::new());
                let r = g.launch("probe", one_tile, |ctx| {
                    if tiled {
                        let mut lanes: Vec<u16> = (0..probes.len() as u16).collect();
                        let mut payloads = vec![0; probes.len()];
                        ht.probe_tile(ctx, &probes, &mut lanes, &mut payloads);
                        hits.extend(lanes.iter().map(|&l| payloads[l as usize]));
                    } else {
                        hits.extend(probes.iter().filter_map(|&key| ht.probe(ctx, key)));
                    }
                });
                let want = reference.launch("probe", one_tile, |ctx| {
                    for &key in &probes {
                        match home(key) {
                            Some(addr) => {
                                ctx.gather(addr, 8);
                                ctx.compute(2);
                                want_hits.extend(oracle.get(&key));
                            }
                            None => ctx.compute(1),
                        }
                    }
                });
                assert_eq!(hits, want_hits, "{slots:?}, tiled {tiled}: payloads");
                assert_eq!(r.stats, want.stats, "{slots:?}, tiled {tiled}: probe");
                assert_eq!(r.stats.random_requests, range as u64);
                assert_eq!(r.stats.compute_ops, 2 * range as u64 + 7);
            }
        }
    }

    impl DeviceHashTable {
        /// Host bytes behind the table's functional half.
        pub(crate) fn host_bytes(&self) -> usize {
            let payloads = match &self.payloads {
                Payloads::Ranked { rank, payloads } => 4 * (rank.len() + payloads.len()),
                Payloads::Codes(codes) => codes.as_ref().map_or(0, |c| 2 * c.codes.len()),
            };
            self.slots.size_bytes() + 8 * self.members.bits.len() + payloads
        }
    }

    /// The host holds the build's bitmap, a rank per word and a payload per
    /// entry, never the 8-byte slots: SF-20 `part`'s shape, filtered 1 in 25.
    #[test]
    fn perfect_table_keeps_no_host_slot_array() {
        let (range, entries) = (1usize << 20, 40_000);
        let keys: Vec<i32> = (0..entries as i32).map(|i| 26 * i).collect();
        let (g, ht) = build_perfect(&keys, range, 0);
        assert_eq!(ht.size_bytes(), 8 * range);
        assert_eq!(g.mem_used(), 8 * range + 8 * entries);
        assert!(ht.host_bytes() <= range / 8 + range / 16 + 4 * entries);
    }

    /// A table over a join's halves against a `HashMap` oracle and against
    /// `build` over the same `(key, code)` pairs in ascending key order,
    /// staged as a dimension's build side used to be: the same answers from
    /// `probe` and `probe_tile`, equal counters from every kernel, the same
    /// reservations, and the halves shared, not copied. No members, one,
    /// every slot and the bitmap's word edges with the last slot, each
    /// grouped and ungrouped (payload 0); codes outside the members are
    /// garbage no probe may see.
    #[test]
    fn a_table_over_halves_matches_build_and_a_map_oracle() {
        const MIN: i32 = 1000;
        // Three build tiles when every slot is a member; a ragged last word.
        let range = 1300usize;
        let probes: Vec<i32> = [i32::MIN, -1, 0, MIN - 1]
            .into_iter()
            .chain(MIN..MIN + range as i32)
            .chain([MIN + range as i32, i32::MAX])
            .collect();
        let memberships: [Vec<usize>; 4] = [
            vec![],
            vec![57],
            (0..range).collect(),
            vec![0, 63, 64, 127, range - 1],
        ];
        for slots in memberships {
            for grouped in [true, false] {
                let case = format!("{slots:?}, grouped {grouped}");
                let mut bits = vec![0u64; range.div_ceil(64)];
                slots.iter().for_each(|&s| bits[s / 64] |= 1 << (s % 64));
                let mut codes: Vec<i16> = (0..range as i16).map(|s| -1 - s % 3).collect();
                slots.iter().for_each(|&s| codes[s] = (s * 7 % 1000) as i16);
                let payload = |s: usize| if grouped { i32::from(codes[s]) } else { 0 };
                let keys: Vec<i32> = slots.iter().map(|&s| MIN + s as i32).collect();
                let vals: Vec<i32> = slots.iter().map(|&s| payload(s)).collect();
                let oracle: HashMap<i32, i32> = keys.iter().copied().zip(vals.clone()).collect();

                let (mut g, mut reference) = (gpu(), gpu());
                let members = Arc::new(DimPart {
                    bits,
                    codes: Vec::new(),
                });
                let column = grouped.then(|| {
                    Arc::new(DimPart {
                        bits: Vec::new(),
                        codes,
                    })
                });
                let halves = (Arc::clone(&members), column.clone());
                let (ht, built) =
                    DeviceHashTable::build_perfect(&mut g, MIN, range, members, column);
                let (dk, dv) = (reference.alloc_from(&keys), reference.alloc_from(&vals));
                let scheme = HashScheme::Perfect { min: MIN };
                let (want, want_built) =
                    DeviceHashTable::build(&mut reference, &dk, &dv, range, scheme);
                reference.free(dk);
                reference.free(dv);

                let (shared, shared_codes) = ht.halves().expect("built over halves");
                assert!(Arc::ptr_eq(shared, &halves.0), "{case}: members");
                assert_eq!(shared_codes.is_some(), grouped, "{case}");
                assert!(shared_codes.is_none_or(|c| Arc::ptr_eq(c, halves.1.as_ref().unwrap())));
                assert!(
                    want.halves().is_none(),
                    "an explicit build keeps its payloads"
                );
                assert_eq!(built.stats, want_built.stats, "{case}: build");
                let secs = |r: &KernelReport| r.time.total_secs().to_bits();
                assert_eq!(secs(&built), secs(&want_built), "{case}: build time");
                assert_eq!(ht.slots.addr_of(0), want.slots.addr_of(0), "{case}");
                assert_eq!(
                    (g.mem_used(), g.mem_high_water()),
                    (reference.mem_used(), reference.mem_high_water()),
                    "{case}: reservations"
                );
                assert_eq!((ht.entries(), ht.num_slots()), (keys.len(), range));
                assert_eq!(want.entries(), keys.len());

                let one_tile = LaunchConfig::default_for_items(1);
                for tiled in [true, false] {
                    let run = |g: &mut Gpu, ht: &DeviceHashTable| {
                        let mut hits = Vec::new();
                        let r = g.launch("probe", one_tile, |ctx| {
                            if tiled {
                                let mut lanes: Vec<u16> = (0..probes.len() as u16).collect();
                                let mut payloads = vec![0; probes.len()];
                                ht.probe_tile(ctx, &probes, &mut lanes, &mut payloads);
                                let lanes = lanes.iter().map(|&l| l as usize);
                                hits.extend(lanes.map(|l| (probes[l], payloads[l])));
                            } else {
                                let hit = |&key: &i32| ht.probe(ctx, key).map(|p| (key, p));
                                hits.extend(probes.iter().filter_map(hit));
                            }
                        });
                        (r.stats, hits)
                    };
                    let (stats, hits) = run(&mut g, &ht);
                    let (want_stats, want_hits) = run(&mut reference, &want);
                    let oracle_hits: Vec<(i32, i32)> = probes
                        .iter()
                        .filter_map(|&k| oracle.get(&k).map(|&p| (k, p)))
                        .collect();
                    assert_eq!(hits, oracle_hits, "{case}, tiled {tiled}: payloads");
                    assert_eq!(want_hits, oracle_hits, "{case}, tiled {tiled}: build");
                    assert_eq!(stats, want_stats, "{case}, tiled {tiled}: probe");
                }
            }
        }
    }

    /// A bit past the last slot would be a key outside the table.
    #[test]
    #[should_panic(expected = "the halves of a table over 100 slots")]
    fn a_table_over_halves_rejects_a_member_past_the_range() {
        let members = Arc::new(DimPart {
            bits: vec![0, 1 << 36],
            codes: Vec::new(),
        });
        DeviceHashTable::build_perfect(&mut gpu(), 0, 100, members, None);
    }

    /// `probe_tile` against one `probe` per listed lane, on a chained table
    /// and on a perfect one, with keys that hit, miss, and fall below and
    /// above the perfect table's range, over every tile of a probe side
    /// with a short tail: the same lanes survive, in ascending order, with
    /// the same payloads, and the kernels' counters (L2 ones included) are
    /// equal.
    #[test]
    fn probe_tile_matches_a_probe_per_listed_lane() {
        let build: Vec<i32> = (0..3000).map(|i| 100 + 3 * i).collect();
        let n = 3 * 512 + 77;
        // From below 100 to above the last key, 9 097.
        let keys: Vec<i32> = (0..n as i32).map(|i| (i * 7919) % 9400 - 50).collect();
        let span = (build[2999] - 100 + 1) as usize;
        for (scheme, slots) in [
            (HashScheme::Mult, 8192),
            (HashScheme::Perfect { min: 100 }, span),
        ] {
            for shape in 0..5 {
                let run = |tiled: bool| {
                    let mut g = gpu();
                    let dk = g.alloc_from(&build);
                    let dv = g.alloc_from(&build.iter().map(|&k| k / 3).collect::<Vec<_>>());
                    let (ht, _) = DeviceHashTable::build(&mut g, &dk, &dv, slots, scheme);
                    let mut found = Vec::new();
                    let cfg = LaunchConfig::default_for_items(n);
                    let r = g.launch("probe", cfg, |ctx| {
                        let (start, len) = ctx.tile_bounds(n);
                        let mut lanes = crate::tile::tests::lane_lists(len).swap_remove(shape);
                        let keys = &keys[start..start + len];
                        if tiled {
                            let mut payloads = vec![0; len];
                            ht.probe_tile(ctx, keys, &mut lanes, &mut payloads);
                            let hits = lanes.iter().map(|&lane| lane as usize);
                            found.extend(hits.map(|lane| (start + lane, payloads[lane])));
                        } else {
                            for lane in lanes {
                                let hit = ht.probe(ctx, keys[lane as usize]);
                                found.extend(hit.map(|p| (start + lane as usize, p)));
                            }
                        }
                    });
                    (r.stats, found)
                };
                let ((stats, found), (want_stats, want)) = (run(true), run(false));
                assert_eq!(found, want, "{scheme:?}, shape {shape}: payloads");
                assert_eq!(stats, want_stats, "{scheme:?}, shape {shape}: kernel stats");
                assert!(
                    found.windows(2).all(|w| w[0].0 < w[1].0),
                    "{scheme:?}: order"
                );
                if shape == 2 {
                    assert!((400..n - 400).contains(&found.len()), "{scheme:?}: hits");
                }
            }
        }
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
