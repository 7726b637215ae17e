//! The simulator may get faster, never different: the counters and the
//! simulated time of the join queries' probe kernels, pinned to the values
//! the list-based L2 model and the per-lane probe loop produced (captured
//! at commit 6f9d030, before either was replaced).

use crystal::core::hash::{DeviceHashTable, HashScheme};
use crystal::core::primitives::block_lookup;
use crystal::core::tile::Tile;
use crystal::gpu_sim::stats::KernelStats;
use crystal::gpu_sim::{Gpu, LaunchConfig};
use crystal::hardware::nvidia_v100;
use crystal::runtime::DeviceSession;
use crystal::ssb::engines::gpu;
use crystal::ssb::queries::{query, QueryId};
use crystal::ssb::{EncodedFact, FactEncodings, SsbData};

/// `[random_requests, l2_bytes, gather_miss_bytes, scattered_atomics,
/// global_read_bytes]` and the bits of `time.total_secs()`.
type Pinned = ([u64; 5], u64);

/// Warm-session probe kernels over `generate_scaled(20, 0.0005, 20260927)`
/// (60 k fact rows against SF-20 dimensions, so the part and customer
/// tables contend for the 6 MB L2): q2.1, q3.1, q4.1, q4.3.
const PLAIN: [Pinned; 4] = [
    ([72409, 4649376, 1744256, 475, 589696], 0x3ee1a9a4b10ce8bd),
    ([74226, 4816256, 4173696, 2056, 818816], 0x3ee9d676b89c7b36),
    ([75287, 4848608, 4241664, 945, 936832], 0x3eeaf0c11df75712),
    ([72436, 4636064, 4208000, 5, 536576], 0x3ee98fc9409b7ef0),
];
const PACKED: [Pinned; 4] = [
    ([72409, 4649376, 1744256, 475, 377216], 0x3ee102610050afec),
    ([74226, 4816256, 4173696, 2056, 552832], 0x3ee90514b922fbf4),
    ([75287, 4848608, 4236928, 945, 663552], 0x3eea0e9ad502b990),
    ([72436, 4636064, 4208000, 5, 323328], 0x3ee8e2524f5dbef0),
];

#[test]
fn probe_kernels_match_the_pinned_simulation() {
    let d = SsbData::generate_scaled(20, 0.0005, 20260927);
    let fact = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
    let ids = [(2, 1), (3, 1), (4, 1), (4, 3)].map(|(f, n)| QueryId::new(f, n));
    for (packed, pinned) in [(false, &PLAIN), (true, &PACKED)] {
        let mut device = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::new(&mut device);
        for pass in ["cold", "warm"] {
            for (id, want) in ids.iter().zip(pinned) {
                let q = query(&d, *id);
                let run = if packed {
                    gpu::execute_encoded_session(&mut sess, &d, &fact, &q)
                } else {
                    gpu::execute_session(&mut sess, &d, &q)
                }
                .unwrap();
                if pass == "cold" {
                    continue;
                }
                assert_eq!(run.reports.len(), 1, "{}: a warm run only probes", q.name);
                let (s, t) = (&run.reports[0].stats, &run.reports[0].time);
                let got = (
                    [
                        s.random_requests,
                        s.l2_bytes,
                        s.gather_miss_bytes,
                        s.scattered_atomics,
                        s.global_read_bytes,
                    ],
                    t.total_secs().to_bits(),
                );
                assert_eq!(got, *want, "{} packed={packed}", q.name);
            }
        }
    }
}

/// `block_lookup` accounts a tile exactly as one `probe` per live lane
/// does, on a chained table and on a perfect one, with keys that hit, miss
/// and fall outside the perfect table's range.
#[test]
fn block_lookup_accounts_like_a_probe_per_lane() {
    let build_keys: Vec<i32> = (0..3000).map(|i| 100 + 3 * i).collect();
    let build_vals: Vec<i32> = (0..3000).collect();
    // `(key, live)` per lane.
    let lanes: Vec<(i32, bool)> = (0..4096)
        .map(|i| ((i * 7919) % 9400 - 50, i % 5 != 3))
        .collect();
    let span = (build_keys[2999] - 100 + 1) as usize;
    for (scheme, slots) in [
        (HashScheme::Mult, 8192),
        (HashScheme::Perfect { min: 100 }, span),
    ] {
        let run = |batched: bool| -> (KernelStats, Vec<Option<i32>>) {
            let mut device = Gpu::new(nvidia_v100());
            let dk = device.alloc_from(&build_keys);
            let dv = device.alloc_from(&build_vals);
            let (ht, _) = DeviceHashTable::build(&mut device, &dk, &dv, slots, scheme);
            let cfg = LaunchConfig::default_for_items(lanes.len());
            let mut keys: Tile<i32> = Tile::new(cfg.tile());
            let mut bitmap: Tile<bool> = Tile::new(cfg.tile());
            let mut payloads: Tile<i32> = Tile::new(cfg.tile());
            let mut found = Vec::new();
            let report = device.launch("probe", cfg, |ctx| {
                let (start, len) = ctx.tile_bounds(lanes.len());
                let tile = &lanes[start..start + len];
                if batched {
                    keys.clear();
                    bitmap.clear();
                    for &(key, live) in tile {
                        keys.push(key);
                        bitmap.push(live);
                    }
                    block_lookup(ctx, &keys, &ht, &mut bitmap, &mut payloads);
                    let hit = bitmap.as_slice().iter().zip(payloads.as_slice());
                    found.extend(hit.map(|(&hit, &payload)| hit.then_some(payload)));
                } else {
                    for &(key, live) in tile {
                        found.push(live.then(|| ht.probe(ctx, key)).flatten());
                    }
                }
            });
            (report.stats, found)
        };
        let (batched, found) = run(true);
        let (per_lane, expected) = run(false);
        assert_eq!(found, expected, "{scheme:?}: payloads");
        assert!(found.iter().flatten().count() > 500, "{scheme:?}: hits");
        assert_eq!(batched, per_lane, "{scheme:?}: kernel stats");
    }
}
