//! The reproduction scorecard: every headline number of the paper,
//! recomputed live and checked against a tolerance band.
//!
//! `reproduce scorecard` is the one-command answer to "does this
//! reproduction hold?" — it exits non-zero if any band is missed, so CI
//! can gate on it. The paper-model claims are declared here, each beside
//! the expression that reproduces it; the claims of the sharded, fusion and
//! overlap experiments are those experiments' own checks, evaluated at the
//! scorecard's pinned scale. Every band is simulated, modelled or counted —
//! none is host wall clock — so `results/scorecard.csv` repeats byte for
//! byte under one configuration.

use crystal_hardware::{bandwidth_ratio, table2_profile, MIB};
use crystal_models as models;
use crystal_ssb::arbitrary::random_star_query;
use crystal_ssb::encoding::{random_encodings, EncodedFact, FactEncodings};
use crystal_ssb::engines::profile::QueryProfile;
use crystal_ssb::engines::reference;
use crystal_ssb::exec::{self, PipelineMode};
use crystal_ssb::queries::{all_queries, query};
use crystal_ssb::{model as qmodel, FactTable, PartitionedFact, QueryId, SsbData};

use crate::check::{self, Band, Check};
use crate::sharded::SHARDS;
use crate::stream::{cold, pinned_stream, placed_on_device, replay, Sessions, STREAM_SEED};
use crate::util::{transfer_vs_host_scan, Config};
use crate::{fusion, overlap, sharded};

/// Computes every check of the scorecard and saves them as
/// `results/scorecard.csv`.
pub fn scorecard(cfg: &Config, _smoke: bool) -> Vec<Check> {
    let hw = table2_profile();
    let (cpu, gpu_spec, pcie) = (&hw.cpu, &hw.gpu, &hw.pcie);
    let n = 1usize << 28;
    let mode = PipelineMode::Vectorized;

    // Section 4.2: mean selection ratio across the sweep.
    let select_mean = {
        let mut acc = 0.0;
        for step in 0..=10 {
            let s = step as f64 / 10.0;
            acc += models::select::select_secs(n, s, cpu.read_bw, cpu.write_bw)
                / models::select::select_secs(n, s, gpu_spec.read_bw, gpu_spec.write_bw);
        }
        acc / 11.0
    };
    let p21 = models::ssb::Q21Params::sf20();
    let mut checks = vec![
        // Table 2 / Section 1.
        Band::new("bandwidth ratio", 16.2, 15.5..=17.5).check(bandwidth_ratio(cpu, gpu_spec)),
        // Section 4.1: projection gain ~ bandwidth ratio.
        Band::new("project CPU-Opt/GPU (paper 16.56x)", 16.56, 15.0..=18.0).check(
            models::project::project_secs(n, cpu.read_bw, cpu.write_bw)
                / models::project::project_secs(n, gpu_spec.read_bw, gpu_spec.write_bw),
        ),
        Band::new("select mean CPU/GPU (paper 15.8x)", 15.8, 14.5..=17.5).check(select_mean),
        // Section 4.3: the three join regimes.
        Band::new("join 32-128KB gain (paper ~5.5x)", 5.5, 4.0..=7.0).check(
            models::join::join_probe_cpu_secs(n, 64 * 1024, cpu)
                / models::join::join_probe_gpu_secs(n, 64 * 1024, gpu_spec),
        ),
        Band::new("join out-of-cache gain (paper 10.5x)", 10.5, 9.0..=12.5).check(
            models::join::join_probe_cpu_empirical_secs(n, 512 * MIB, cpu)
                / models::join::join_probe_gpu_secs(n, 512 * MIB, gpu_spec),
        ),
        // Section 4.4.
        Band::new("sort gain (paper 17.13x)", 17.13, 15.0..=18.5).check(
            models::sort::radix_sort_secs(n, 4, cpu.read_bw, cpu.write_bw)
                / models::sort::radix_sort_secs(n, 4, gpu_spec.read_bw, gpu_spec.write_bw),
        ),
        // Section 5.3: q2.1 model endpoints.
        Band::new("q2.1 GPU model ms (paper 3.7)", 3.7, 2.0..=5.0)
            .check(models::ssb::q21_gpu_model(&p21, gpu_spec).total() * 1e3),
        Band::new("q2.1 CPU empirical ms (paper 125)", 125.0, 95.0..=160.0)
            .check(models::ssb::q21_cpu_empirical_secs(&p21, cpu) * 1e3),
    ];

    // Figure 16: mean SSB speedup (trace-driven; one shared dataset).
    let d = SsbData::generate_scaled(20, cfg.fact_scale.min(0.005), 20_2020);
    let sf20 = FactTable::plain(&d);
    let queries = all_queries(&d);
    let log_ratios = queries.iter().map(|q| {
        let (_, trace) = exec::execute(&sf20, q, cfg.threads, mode);
        (qmodel::cpu_empirical_secs(q, &trace, cpu) / qmodel::gpu_secs(q, &trace, gpu_spec)).ln()
    });
    let geo = (log_ratios.sum::<f64>() / queries.len() as f64).exp();
    checks.push(Band::new("SSB mean speedup (paper ~25x)", 25.0, 18.0..=35.0).check(geo));
    // Section 5.4.
    checks.push(
        Band::new("cost effectiveness (paper ~4x)", 4.0, 3.0..=6.0).check(
            models::cost::cost_effectiveness(geo, models::cost::table3_renting().cost_ratio()),
        ),
    );

    // Everything below runs over one SF-1 sample under the pinned seed.
    let dd = SsbData::generate_scaled(1, 0.002, STREAM_SEED);
    let plain = FactTable::plain(&dd);
    // Randomized differential: seeded star queries agree between the
    // reference oracle and the morsel-driven executor (fraction agreeing).
    let random = |i: u64| random_star_query(&dd, STREAM_SEED + i);
    let agrees = |table: &FactTable<'_>, q: &crystal_ssb::StarQuery| {
        exec::execute(table, q, cfg.threads, mode).0 == reference::execute(&dd, q)
    };
    let agree = (0..64).filter(|&i| agrees(&plain, &random(i))).count();
    checks.push(
        Band::new("random differential agreement", 1.0, 1.0..=1.0).check(agree as f64 / 64.0),
    );

    // Section 6 (compression): the compression ratio past which the packed
    // PCIe transfer undercuts the host's scalar-unpack scan.
    checks.push(
        Band::new("compression flip ratio (modeled ~1.6)", 1.6, 1.2..=2.2)
            .check(models::ssb::placement_flip_ratio(cpu, pcie)),
    );

    // Compression flips q1.1's routing: plain data stays host-side over
    // PCIe Gen3, min-width packing moves it to the coprocessor.
    let q11 = query(&dd, QueryId::new(1, 1));
    let fact = EncodedFact::encode(&dd, &FactEncodings::packed_min(&dd));
    let packed = FactTable::encoded(&dd, &fact);
    let to_device = |table: &FactTable<'_>| {
        let (transfer, host) = transfer_vs_host_scan(table, &q11, cpu, pcie);
        transfer < host
    };
    checks.push(
        Band::new("q1.1 placement flips under packing", 1.0, 1.0..=1.0)
            .check_flag(!to_device(&plain) && to_device(&packed)),
    );
    // Compressed execution holds throughput on the scan-dominated q1.1: the
    // simulated GPU runs the packed table no slower than the plain one (it
    // reads a fraction of the bytes). At this sample size kernel-launch
    // overhead flattens the time ratio toward 1; the claim is "no slower"
    // plus the byte shrink.
    let [plain_run, packed_run] = [&plain, &packed].map(|table| cold(table, &q11));
    checks.push(
        Band::new("compressed q1.1 GPU speedup (>= par)", 1.0, 1.0..=5.0)
            .check(plain_run.time.exec / packed_run.time.exec),
    );
    let read = |run: &QueryProfile| run.reports.last().unwrap().stats.global_read_bytes as f64;
    checks.push(
        Band::new("compressed q1.1 HBM read shrink (~2.3x)", 2.3, 1.5..=3.5)
            .check(read(&plain_run) / read(&packed_run)),
    );
    // The same over random per-column encodings.
    let agree = (0..48).filter(|&i| {
        let fact = EncodedFact::encode(&dd, &random_encodings(&dd, STREAM_SEED ^ i));
        agrees(&FactTable::encoded(&dd, &fact), &random(i))
    });
    checks.push(
        Band::new("compressed differential agreement", 1.0, 1.0..=1.0)
            .check(agree.count() as f64 / 48.0),
    );

    // Device residency: the pinned stream cold (fresh session per query —
    // transfer-included) and warm (one shared session — data-resident
    // after the first pass). A two-pass stream can at best halve the
    // shipped bytes; the warm amortized time must drop by at least the
    // transfer share the cache actually removed.
    let stream = pinned_stream(&dd, 8, 2);
    let fresh = replay(&plain, &stream, Sessions::FreshPerQuery, &hw);
    let warm = replay(&plain, &stream, Sessions::Shared(None), &hw);
    checks.push(
        Band::new(
            "warm/cold amortized stream time (2 passes)",
            0.5,
            0.2..=0.75,
        )
        .check(warm.charged_secs() / fresh.charged_secs()),
    );
    // Pass 2 is all hits, pass 1 already reuses columns across shapes.
    checks.push(
        Band::new("warm-stream cache hit ratio (pinned seed)", 0.5, 0.5..=1.0)
            .check(warm.session.hit_ratio()),
    );
    // Residency flips q1.1's placement over PCIe Gen3 on *plain* data: cold
    // routing is the paper's Host conclusion, the warm working set routes
    // to the coprocessor.
    let twice = replay(&plain, &[q11.clone(), q11], Sessions::Shared(None), &hw);
    checks.push(
        Band::new("q1.1 placement flips when resident (Gen3)", 1.0, 1.0..=1.0)
            .check_flag(!placed_on_device(&twice.runs[0]) && placed_on_device(&twice.runs[1])),
    );

    // The sharded, fusion and overlap experiments' own bands.
    let pf = PartitionedFact::partition(&dd, SHARDS, &FactEncodings::plain());
    checks.extend(sharded::measure(&dd, &pf, &pinned_stream(&dd, 6, 2), cfg.threads).checks());
    checks.extend(fusion::checks(&fusion::measure_fusion(&dd)));
    checks.extend(overlap::checks(&overlap::measure(&dd, &pf)));

    // Section 3.3: Crystal vs independent threads (small simulation).
    let data = crystal_storage::gen::uniform_i32_domain(1 << 20, 1 << 20, 1);
    let (crystal, indep) = crate::micro::tile_kernels(&data, 1 << 19);
    let t_i: f64 = indep.iter().map(|r| r.time.bottleneck_secs()).sum();
    checks.push(
        Band::new(
            "tile-model speedup (paper 9x; sim conservative)",
            9.0,
            2.5..=12.0,
        )
        .check(t_i / crystal.time.bottleneck_secs()),
    );

    check::save("scorecard", &checks);
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scorecard itself is part of the test suite: every reproduction
    /// band must hold — and its results file parses back, quoted claims
    /// and all, into as many cells a row as it has headers.
    #[test]
    fn all_bands_hold() {
        let mut cfg = Config::from_env().unwrap();
        cfg.fact_scale = 0.002;
        cfg.threads = 2;
        let checks = scorecard(&cfg, false);
        assert!(check::verdict("scorecard", &checks), "a band was missed");

        let csv = std::fs::read_to_string("results/scorecard.csv").unwrap();
        let rows: Vec<Vec<String>> = csv.lines().map(parse_csv_line).collect();
        assert_eq!(rows.len(), 1 + checks.len());
        assert!(rows.iter().all(|cells| cells.len() == rows[0].len()));
        for (cells, c) in rows[1..].iter().zip(&checks) {
            assert_eq!(cells[0], c.band.claim);
            assert_eq!(cells[3], format!("[{:?}, {:?}]", c.band.lo, c.band.hi));
        }
    }

    /// One RFC 4180 record without line breaks in its cells.
    fn parse_csv_line(line: &str) -> Vec<String> {
        let (mut cells, mut cell, mut quoted) = (Vec::new(), String::new(), false);
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => cell.push(chars.next().unwrap()),
                '"' => quoted = !quoted,
                ',' if !quoted => cells.push(std::mem::take(&mut cell)),
                c => cell.push(c),
            }
        }
        cells.push(cell);
        cells
    }
}
