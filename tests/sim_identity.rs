//! The simulator may get faster, never different: the counters and the
//! simulated time of the join queries' probe kernels, pinned to the values
//! the list-based L2 model and the per-lane probe loop produced (captured
//! at commit 6f9d030, before either was replaced).

use crystal::core::hash::{DeviceHashTable, HashScheme};
use crystal::core::primitives::block_lookup;
use crystal::core::tile::Tile;
use crystal::gpu_sim::stats::KernelStats;
use crystal::gpu_sim::{Gpu, LaunchConfig};
use crystal::hardware::{intel_i7_6900, nvidia_v100, pcie_gen3};
use crystal::runtime::DeviceSession;
use crystal::server::{serve, serve_sharded, Backend, ServeReport, ServerConfig};
use crystal::ssb::engines::{build_dim_table, gpu, DimBuild};
use crystal::ssb::queries::{query, QueryId};
use crystal::ssb::{EncodedFact, FactEncodings, PartitionedFact, SsbData};

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

/// `[scattered_atomics, l2_bytes, gather_miss_bytes, global_read_bytes,
/// compute_ops]` and the bits of `time.total_secs()` of one `hash_build`.
type PinnedBuild = ([u64; 5], u64);

/// The `hash_build` kernels of q4.1's four dimensions (customer `Eq` with a
/// group code, supplier `Eq`, part `In`, the unfiltered date), q2.2's part
/// (`Between`) and q3.3's customer (`In` over a group attribute), one after
/// the other on one device over `generate_scaled(20, 0.0005, 20260927)`
/// (captured at commit 4259390, when a build accounted one atomic per row).
const BUILDS: [PinnedBuild; 6] = [
    (
        [120323, 3850336, 4669184, 962584, 240646],
        0x3ee7e82fd5eeca0c,
    ),
    ([8070, 258240, 310528, 64560, 16140], 0x3ed6c2607e853016),
    (
        [400319, 12810208, 7998080, 3202552, 800638],
        0x3ef296d242443598,
    ),
    ([2557, 81824, 28928, 20456, 5114], 0x3ed534f72ede4f6a),
    ([8141, 260512, 982272, 65128, 16282], 0x3ed9f6b4b75b2c43),
    ([4851, 155232, 579840, 38808, 9702], 0x3ed7eb8f33c2d5be),
];

#[test]
fn build_kernels_match_the_pinned_simulation() {
    let d = SsbData::generate_scaled(20, 0.0005, 20260927);
    let q41 = query(&d, QueryId::new(4, 1));
    let q22 = query(&d, QueryId::new(2, 2));
    let q33 = query(&d, QueryId::new(3, 3));
    let joins = q41.joins.iter().chain([&q22.joins[1], &q33.joins[0]]);
    let mut device = Gpu::new(nvidia_v100());
    let got: Vec<PinnedBuild> = joins
        .map(|join| {
            let (ht, report) = build_dim_table(&mut device, &DimBuild::scan(&d, join));
            assert_eq!(report.name, "hash_build");
            assert!(ht.entries() > 0, "{join:?}");
            let s = &report.stats;
            (
                [
                    s.scattered_atomics,
                    s.l2_bytes,
                    s.gather_miss_bytes,
                    s.global_read_bytes,
                    s.compute_ops,
                ],
                report.time.total_secs().to_bits(),
            )
        })
        .collect();
    assert_eq!(got, BUILDS, "{got:#x?}");
}

/// Everything simulated a serve reports, folded into one word (FNV-1a over
/// the values in a fixed order), with the three counts a failure is read
/// from beside it: `(digest, evictions, launches, oom_restarts)`.
fn serve_digest(r: &ServeReport) -> (u64, u64, u64, usize) {
    let mut words = vec![r.makespan_secs.to_bits()];
    for c in &r.completed {
        let backend = (c.backend == Backend::Device) as u64;
        words.extend([c.tenant as u64, c.index as u64, backend]);
        words.push(c.completed_at.to_bits());
    }
    let (s, e) = (&r.stats, &r.exec);
    words.extend([s.evictions, s.uploaded_bytes, s.cached_bytes as u64]);
    words.extend([s.ht_hits, s.ht_misses]);
    words.extend([e.launches, e.hbm_read_bytes, e.hbm_write_bytes]);
    words.push(r.oom_restarts as u64);
    let digest = words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    (digest, s.evictions, e.launches, r.oom_restarts)
}

/// One `serve` with room for everything and one `serve_sharded` over eight
/// `packed_min` shards with half its working set as cache budget: four
/// tenants, three queries each, among them scalar ones, 437 500-slot ones
/// (q3.2, q3.4) and the 1.75 M-slot q4.3 (captured at commit 4259390, when
/// every shard of a device query was a job with tables of its own).
const SERVED: [(u64, u64, u64, usize); 2] = [
    (0x2e616d074a7cb1ba, 0, 6, 0),
    (0xd120fca30b389246, 157, 92, 0),
];

#[test]
fn served_streams_match_the_pinned_simulation() {
    let d = SsbData::generate_scaled(20, 0.0005, 20260927);
    let pf = PartitionedFact::partition(&d, 8, &FactEncodings::packed_min(&d));
    let streams = [
        [(1, 1), (3, 2), (4, 3)],
        [(4, 3), (2, 1), (1, 2)],
        [(3, 4), (4, 1), (3, 2)],
        [(2, 2), (4, 3), (3, 1)],
    ]
    .map(|stream| stream.map(|(f, n)| query(&d, QueryId::new(f, n))).to_vec());
    let (cpu, pcie) = (intel_i7_6900(), pcie_gen3());
    let sharded = |device_budget| {
        let config = ServerConfig {
            device_budget,
            ..ServerConfig::default()
        };
        let mut device = Gpu::new(nvidia_v100());
        serve_sharded(&mut device, &cpu, &pcie, &d, &pf, &streams, &config)
    };
    let mut device = Gpu::new(nvidia_v100());
    let fits = serve(
        &mut device,
        &cpu,
        &pcie,
        &d,
        &streams,
        &ServerConfig::default(),
    );
    let starved = sharded(Some(sharded(None).stats.cached_bytes / 2));
    assert!(starved.stats.evictions > 0, "half the working set evicts");
    let got = [serve_digest(&fits), serve_digest(&starved)];
    assert_eq!(got, SERVED, "{got:#x?}");
}
