//! The `reproduce contention` experiment: multi-tenant throughput and
//! tail latency through the concurrent query frontend.
//!
//! Serves 1/4/8 Zipf-skewed tenant streams (the pinned 16-shape
//! catalogue, per-tenant rotated hot sets — see
//! [`crate::stream::tenant_streams`]) through `crystal-server`'s
//! deficit-round-robin scheduler and one shared
//! [`DeviceSession`](crystal_runtime::DeviceSession), and compares
//! against a serial per-tenant replay of the *same* streams (fresh
//! session per tenant — today's one-tenant lifecycle). Reported per
//! tier: queries/sec over the simulated makespan, p50/p99 latency, the
//! fraction of queries the scheduler landed on the device, and the
//! session counters.
//!
//! Two bands gate the 4-tenant tier: `SPEEDUP_4T` (cross-tenant cache
//! sharing plus host/device overlap must beat the serial replay) and
//! `TAIL_4T` (deficit round robin keeps long queries from starving short
//! ones).
//!
//! Byte-identity between the concurrent and serial results of every
//! tenant is asserted inline — interleaving morsel grants must not
//! change a single aggregate value.

use crystal_gpu_sim::Gpu;
use crystal_hardware::{intel_i7_6900, nvidia_v100, pcie_gen3};
use crystal_server::{serve_serial, serve_with, ServeReport, ServerConfig};
use crystal_ssb::{FactTable, SsbData};

use crate::check::{Band, Check};
use crate::stream::{tenant_streams, STREAM_SEED};
use crate::util::{Config, Report};

/// Simulated makespan of the serial per-tenant replay over the concurrent
/// one, four tenants.
pub(crate) const SPEEDUP_4T: Band = Band::new(
    "4-tenant concurrent/serial throughput",
    1.5,
    1.5..=f64::INFINITY,
);
/// p99 over p50 latency of the four concurrent tenants.
pub(crate) const TAIL_4T: Band = Band::new("4-tenant p99/p50 latency", 1.0, 1.0..=8.0);

/// One contention tier: serve `tenants` streams concurrently and
/// serially, assert per-tenant byte-identity, return both reports.
pub(crate) fn run_tier(
    d: &SsbData,
    tenants: usize,
    per_tenant: usize,
) -> (ServeReport, ServeReport) {
    let cpu = intel_i7_6900();
    let pcie = pcie_gen3();
    let streams = tenant_streams(d, tenants, per_tenant, STREAM_SEED);
    let cfg = ServerConfig {
        max_inflight: tenants.max(1),
        ..ServerConfig::default()
    };

    let mut gpu = Gpu::new(nvidia_v100());
    let table = FactTable::plain(d);
    let concurrent = serve_with(&mut gpu, &cpu, &pcie, &table, &streams, &cfg, None);
    let mut gpu_serial = Gpu::new(nvidia_v100());
    let serial = serve_serial(&mut gpu_serial, &cpu, &pcie, d, &streams, &cfg);

    for (t, stream) in streams.iter().enumerate() {
        let conc = concurrent.tenant_results(t);
        let ser = serial.tenant_results(t);
        assert_eq!(conc.len(), stream.len(), "tenant {t} lost queries");
        for (i, (c, s)) in conc.iter().zip(&ser).enumerate() {
            assert_eq!(
                *c, *s,
                "tenant {t} query {i}: concurrent result diverged from serial"
            );
        }
    }
    (concurrent, serial)
}

/// The two bands of a [`run_tier`] (gated for four tenants): serial over
/// concurrent makespan, and p99 over p50 latency.
pub(crate) fn checks((conc, serial): &(ServeReport, ServeReport)) -> Vec<Check> {
    let p50 = conc.latency_percentile(50.0);
    vec![
        SPEEDUP_4T.check(serial.makespan_secs / conc.makespan_secs.max(1e-30)),
        TAIL_4T.check(conc.latency_percentile(99.0) / p50.max(1e-30)),
    ]
}

/// The `reproduce contention` experiment. `--smoke` runs the 4-tenant
/// tier only, with short streams (the CI gate).
pub fn contention(cfg: &Config, smoke: bool) -> Vec<Check> {
    // The contention tiers need the scheduler's cost asymmetry to be
    // visible over the 5us kernel-launch floor, so they run at the
    // harness's full fact sample (120k rows at the default 0.02).
    let d = SsbData::generate_scaled(1, cfg.fact_scale.max(0.01), STREAM_SEED);
    let tiers: &[usize] = if smoke { &[4] } else { &[1, 4, 8] };
    let per_tenant = if smoke { 8 } else { 24 };
    println!(
        "contention: {} fact rows, {} queries per tenant, tiers {:?}",
        d.lineorder.rows(),
        per_tenant,
        tiers
    );

    let mut report = Report::new(
        "contention",
        &[
            "tenants",
            "queries",
            "serial q/s",
            "concurrent q/s",
            "speedup",
            "p50 ms",
            "p99 ms",
            "p99/p50",
            "device q",
            "evictions",
        ],
    );

    let mut four = Vec::new();
    for &tenants in tiers {
        let tier = run_tier(&d, tenants, per_tenant);
        let bands = checks(&tier);
        let (speedup, tail) = (bands[0].reproduced, bands[1].reproduced);
        let (conc, serial) = tier;
        if tenants == 4 {
            four = bands;
        }
        report.row(vec![
            tenants.to_string(),
            conc.completed.len().to_string(),
            format!("{:.0}", serial.queries_per_sec()),
            format!("{:.0}", conc.queries_per_sec()),
            format!("{speedup:.2}x"),
            format!("{:.4}", conc.latency_percentile(50.0) * 1e3),
            format!("{:.4}", conc.latency_percentile(99.0) * 1e3),
            format!("{tail:.2}"),
            conc.device_queries().to_string(),
            conc.stats.evictions.to_string(),
        ]);
    }
    report.finish();
    println!("per-tenant results byte-identical to the serial replay (asserted)");
    four
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::verdict;

    /// The contention bands are part of the test suite, at a reduced
    /// stream length: 4-tenant serving beats the serial replay by the
    /// pinned margin, the tail stays fair, and (inside [`run_tier`])
    /// every tenant's results are byte-identical to serial.
    #[test]
    fn contention_bands_hold() {
        // Simulated clocks are deterministic — this band does not
        // depend on the build profile, only on the sampled scale.
        let d = SsbData::generate_scaled(1, 0.02, STREAM_SEED);
        let tier = run_tier(&d, 4, 12);
        assert!(verdict("contention", &checks(&tier)));
        assert!(tier.0.device_queries() > 0, "the device never engaged");
        // The band's two inputs, pinned at commit 0228902 (the tiers of the
        // experiment itself are in CHANGES.md, PR 23).
        let bits = [&tier.0, &tier.1].map(|r| r.makespan_secs.to_bits());
        assert_eq!(bits, [0x3f4b4d73953b61f9, 0x3f60ea6bc8fb0d66]);
    }
}
