//! Scheduler properties of the one admission→grant→charge→complete loop,
//! under random schedules and memory pressure, over both table shapes.

use std::sync::LazyLock;

use proptest::prelude::*;

use crystal_gpu_sim::Gpu;
use crystal_hardware::{intel_i7_6900, nvidia_v100, pcie_gen3};
use crystal_server::{serve_with, Backend, CompletedQuery, ServerConfig};
use crystal_ssb::arbitrary::random_star_query;
use crystal_ssb::engines::reference;
use crystal_ssb::plan::StarQuery;
use crystal_ssb::queries::{query, QueryId};
use crystal_ssb::{FactEncodings, FactTable, PartitionedFact, QueryResult, SsbData};

const SEED: u64 = 20_260_927;
const TENANTS: usize = 3;

struct Fixture {
    d: SsbData,
    pf: PartitionedFact,
    /// One stream per tenant, each with its oracle results. Every stream
    /// opens with the same join-free scan, so whichever tenant is admitted
    /// first (onto the idle device) runs it there.
    streams: Vec<(Vec<StarQuery>, Vec<QueryResult>)>,
    /// A device too small for the scan's second live shard but not its
    /// first: the sharded scan is admitted, then OOMs mid-query.
    tight_capacity: usize,
}

static FIXTURE: LazyLock<Fixture> = LazyLock::new(|| {
    let d = SsbData::generate_scaled(1, 0.002, SEED);
    let pf = PartitionedFact::partition(&d, 6, &FactEncodings::plain());
    let mut scan = query(&d, QueryId::new(1, 1));
    scan.joins.clear();
    let cols = scan.fact_columns();
    let table = FactTable::sharded(&d, &pf);
    let live = table.live(&scan);
    let shard_bytes = |&s: &usize| table.segments()[s].cost(&cols).packed_bytes;
    let bytes: Vec<usize> = live.iter().map(shard_bytes).collect();
    let larger = *bytes[1..].iter().max().unwrap();
    assert!(larger > bytes[0], "no later shard outgrows the first");
    // First shard plus the scalar aggregate's 8-byte scratch, and half the
    // difference to the shard that must not fit.
    let tight_capacity = bytes[0] + 8 + (larger - bytes[0]) / 2;
    let streams = (0..TENANTS as u64)
        .map(|t| {
            let mut stream = vec![scan.clone()];
            stream.extend((0..3).map(|i| random_star_query(&d, SEED + (t * 3 + i) % 5)));
            let expected = stream.iter().map(|q| reference::execute(&d, q)).collect();
            (stream, expected)
        })
        .collect();
    Fixture {
        d,
        pf,
        streams,
        tight_capacity,
    }
});

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_loop_keeps_its_books(
        quantum_morsels in 1usize..5,
        max_inflight in 1usize..5,
        rotate in 0usize..TENANTS,
        reversed in any::<bool>(),
        // 0 roomy, 1 a cache budget of a third of the table, 2 the tight device.
        pressure in 0u8..3,
        sharded in any::<bool>(),
    ) {
        let f = &*FIXTURE;
        let mut order: Vec<usize> = (0..TENANTS).map(|t| (t + rotate) % TENANTS).collect();
        if reversed {
            order.reverse();
        }
        let tenants: Vec<Vec<StarQuery>> =
            order.iter().map(|&t| f.streams[t].0.clone()).collect();
        let mut spec = nvidia_v100();
        if pressure == 2 {
            spec.mem_capacity = f.tight_capacity;
        }
        let cfg = ServerConfig {
            quantum_morsels,
            max_inflight,
            // Several grants per shard, so queries genuinely interleave.
            morsel_rows: 512,
            device_budget: (pressure == 1).then_some(f.pf.size_bytes() / 3),
        };
        let budget = cfg.device_budget.unwrap_or(spec.mem_capacity);
        let (cpu, pcie) = (intel_i7_6900(), pcie_gen3());
        let mut gpu = Gpu::new(spec);
        let table = if sharded {
            FactTable::sharded(&f.d, &f.pf)
        } else {
            FactTable::plain(&f.d)
        };
        let r = serve_with(&mut gpu, &cpu, &pcie, &table, &tenants, &cfg, None);

        // Exactly-once completion, with the oracle's answers whatever the
        // schedule, the pressure and the table shape.
        prop_assert_eq!(r.completed.len(), tenants.iter().map(Vec::len).sum::<usize>());
        for (slot, &t) in order.iter().enumerate() {
            let got = r.tenant_results(slot);
            prop_assert_eq!(got.len(), tenants[slot].len());
            for (i, result) in got.into_iter().enumerate() {
                prop_assert_eq!(result, &f.streams[t].1[i], "tenant {} query {}", t, i);
            }
        }

        // Clocks: nothing completes before it is admitted, and each
        // backend's completions come off a monotone clock.
        let (mut host_clock, mut dev_clock) = (0.0f64, 0.0f64);
        for c in &r.completed {
            prop_assert!(c.admitted_at <= c.completed_at);
            let clock = match c.backend {
                Backend::Host => &mut host_clock,
                Backend::Device => &mut dev_clock,
            };
            prop_assert!(*clock <= c.completed_at, "a backend clock ran backwards");
            *clock = c.completed_at;
        }
        prop_assert_eq!(r.makespan_secs, host_clock.max(dev_clock));

        // The profiles are the books: what each query was charged on either
        // clock adds up to the clock's busy seconds (the loop sums grant by
        // grant across queries, this sums query by query, so the two agree
        // to the rounding of a regrouped float sum and no closer), every
        // uploaded byte is some query's, and so is every restart.
        let charged = |secs: fn(&CompletedQuery) -> f64| -> f64 {
            r.completed.iter().map(secs).sum()
        };
        let agree = |books: f64, clock: f64| (books - clock).abs() <= 1e-12 * clock;
        prop_assert!(agree(charged(|c| c.host_secs.unwrap_or(0.0)), r.host_busy_secs));
        prop_assert!(agree(charged(|c| c.time.pipelined), r.device_busy_secs));
        let shipped: usize = r.completed.iter().map(|c| c.shipped_bytes).sum();
        prop_assert_eq!(shipped as u64, r.stats.uploaded_bytes);
        let restarts: usize = r.completed.iter().map(|c| c.oom_restarts).sum();
        prop_assert_eq!(restarts, r.oom_restarts);
        for c in &r.completed {
            prop_assert_eq!(c.shipped_bytes as u64, c.session.uploaded_bytes);
            prop_assert_eq!(c.host_secs.is_some(), c.backend == Backend::Host);
            // A restarted query shows the device half it abandoned — the
            // admission's uploads and what the device clock was charged for
            // them — beside the host seconds it then cost.
            if c.oom_restarts > 0 {
                prop_assert!(c.host_fallback && c.backend == Backend::Host);
                prop_assert!(c.shipped_bytes > 0 && c.time.pipelined > 0.0);
                prop_assert!(c.device_segments_run == 0 && !c.reports.is_empty());
            } else if c.backend == Backend::Host {
                prop_assert_eq!(c.time.pipelined, 0.0);
            }
        }

        // No pin outlives the serve: the cache trimmed back under budget,
        // and the session's drop freed every byte — an `Rc` a job leaked
        // would keep its entry charged to the device.
        prop_assert!(r.stats.cached_bytes <= budget, "{:?} over {}", r.stats, budget);
        prop_assert_eq!(gpu.mem_used(), 0, "device bytes outlived the serve");

        // The tight device admits the sharded scan and then cannot fit its
        // next shard; unsharded, the scan never fits at all.
        if pressure == 2 {
            prop_assert_eq!(r.oom_restarts > 0, sharded);
        } else {
            prop_assert_eq!(r.oom_restarts, 0);
        }
    }
}
