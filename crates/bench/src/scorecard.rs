//! The reproduction scorecard: every headline number of the paper,
//! recomputed live and checked against a tolerance band.
//!
//! `reproduce scorecard` is the one-command answer to "does this
//! reproduction hold?" — it exits non-zero if any band is missed, so CI
//! can gate on it.

use crystal_gpu_sim::Gpu;
use crystal_hardware::{bandwidth_ratio, intel_i7_6900, nvidia_v100, pcie_gen3, MIB};
use crystal_models as models;
use crystal_ssb::encoding::{random_encodings, EncodedFact, FactEncodings};
use crystal_ssb::engines::{copro, cpu as cpu_engine, gpu as gpu_engine};
use crystal_ssb::exec::{self, PipelineMode, Schedule};
use crystal_ssb::queries::all_queries;
use crystal_ssb::{model as qmodel, FactTable, SsbData};

use crate::util::{Config, Report};

struct Check {
    name: &'static str,
    paper: f64,
    reproduced: f64,
    lo: f64,
    hi: f64,
}

impl Check {
    fn passes(&self) -> bool {
        (self.lo..=self.hi).contains(&self.reproduced)
    }
}

/// Computes and prints the scorecard; returns false if any band is missed.
pub fn scorecard(cfg: &Config) -> bool {
    let cpu = intel_i7_6900();
    let gpu_spec = nvidia_v100();
    let n = 1usize << 28;
    let mut checks = Vec::new();

    // Bandwidth ratio (Table 2 / Section 1).
    checks.push(Check {
        name: "bandwidth ratio",
        paper: 16.2,
        reproduced: bandwidth_ratio(&cpu, &gpu_spec),
        lo: 15.5,
        hi: 17.5,
    });

    // Section 4.1: projection gain ~ bandwidth ratio.
    checks.push(Check {
        name: "project CPU-Opt/GPU (paper 16.56x)",
        paper: 16.56,
        reproduced: models::project::project_secs(n, cpu.read_bw, cpu.write_bw)
            / models::project::project_secs(n, gpu_spec.read_bw, gpu_spec.write_bw),
        lo: 15.0,
        hi: 18.0,
    });

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
    checks.push(Check {
        name: "select mean CPU/GPU (paper 15.8x)",
        paper: 15.8,
        reproduced: select_mean,
        lo: 14.5,
        hi: 17.5,
    });

    // Section 4.3: the three join regimes.
    checks.push(Check {
        name: "join 32-128KB gain (paper ~5.5x)",
        paper: 5.5,
        reproduced: models::join::join_probe_cpu_secs(n, 64 * 1024, &cpu)
            / models::join::join_probe_gpu_secs(n, 64 * 1024, &gpu_spec),
        lo: 4.0,
        hi: 7.0,
    });
    checks.push(Check {
        name: "join out-of-cache gain (paper 10.5x)",
        paper: 10.5,
        reproduced: models::join::join_probe_cpu_empirical_secs(n, 512 * MIB, &cpu)
            / models::join::join_probe_gpu_secs(n, 512 * MIB, &gpu_spec),
        lo: 9.0,
        hi: 12.5,
    });

    // Section 4.4: sort gain.
    checks.push(Check {
        name: "sort gain (paper 17.13x)",
        paper: 17.13,
        reproduced: models::sort::radix_sort_secs(n, 4, cpu.read_bw, cpu.write_bw)
            / models::sort::radix_sort_secs(n, 4, gpu_spec.read_bw, gpu_spec.write_bw),
        lo: 15.0,
        hi: 18.5,
    });

    // Section 5.3: q2.1 model endpoints.
    let p21 = models::ssb::Q21Params::sf20();
    checks.push(Check {
        name: "q2.1 GPU model ms (paper 3.7)",
        paper: 3.7,
        reproduced: models::ssb::q21_gpu_model(&p21, &gpu_spec).total() * 1e3,
        lo: 2.0,
        hi: 5.0,
    });
    checks.push(Check {
        name: "q2.1 CPU empirical ms (paper 125)",
        paper: 125.0,
        reproduced: models::ssb::q21_cpu_empirical_secs(&p21, &cpu) * 1e3,
        lo: 95.0,
        hi: 160.0,
    });

    // Figure 16: mean SSB speedup (trace-driven; one shared dataset).
    let d = SsbData::generate_scaled(20, cfg.fact_scale.min(0.005), 20_2020);
    let mut ratios = Vec::new();
    for q in all_queries(&d) {
        let (_, trace) = cpu_engine::execute(&d, &q, cfg.threads);
        ratios.push(
            qmodel::cpu_empirical_secs(&q, &trace, &cpu) / qmodel::gpu_secs(&q, &trace, &gpu_spec),
        );
    }
    let geo = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    checks.push(Check {
        name: "SSB mean speedup (paper ~25x)",
        paper: 25.0,
        reproduced: geo,
        lo: 18.0,
        hi: 35.0,
    });

    // Section 5.4: cost effectiveness.
    checks.push(Check {
        name: "cost effectiveness (paper ~4x)",
        paper: 4.0,
        reproduced: models::cost::cost_effectiveness(
            geo,
            models::cost::table3_renting().cost_ratio(),
        ),
        lo: 3.0,
        hi: 6.0,
    });

    // Executor rewire: the morsel-driven CPU path must not be slower than
    // the pre-executor scoped-thread path (q2.1 on the shared dataset;
    // generous band — this is a same-machine ratio, not a paper number).
    {
        let q21 = crystal_ssb::queries::query(&d, crystal_ssb::QueryId::new(2, 1));
        let table = FactTable::plain(&d);
        let mode = PipelineMode::Vectorized;
        let t_morsel = crate::util::time_median(cfg.reps, || {
            let _ = exec::execute(&table, &q21, cfg.threads, mode);
        });
        let t_scoped = crate::util::time_median(cfg.reps, || {
            let _ = exec::execute_with(&table, &q21, cfg.threads, mode, Schedule::Scoped);
        });
        checks.push(Check {
            name: "morsel/scoped CPU speed (>= par)",
            paper: 1.0,
            reproduced: t_scoped / t_morsel,
            lo: 0.7,
            hi: f64::INFINITY,
        });
    }

    // Randomized differential: generated star queries agree between the
    // reference oracle and the morsel-driven executor (fraction agreeing;
    // must be exactly 1).
    {
        let dd = SsbData::generate_scaled(1, 0.002, 20_260_730);
        let total = 64u64;
        let agree = (0..total)
            .filter(|&i| {
                let q = crystal_ssb::arbitrary::random_star_query(&dd, 20_260_730 + i);
                let expected = crystal_ssb::engines::reference::execute(&dd, &q);
                let (got, _) = cpu_engine::execute(&dd, &q, cfg.threads);
                got == expected
            })
            .count();
        checks.push(Check {
            name: "random differential agreement",
            paper: 1.0,
            reproduced: agree as f64 / total as f64,
            lo: 1.0,
            hi: 1.0,
        });
    }

    // Section 6 (compression): the modeled placement flip ratio — the
    // compression ratio past which the packed PCIe transfer undercuts the
    // host's scalar-unpack scan.
    let pcie = pcie_gen3();
    checks.push(Check {
        name: "compression flip ratio (modeled ~1.6)",
        paper: 1.6,
        reproduced: models::ssb::placement_flip_ratio(&cpu, &pcie),
        lo: 1.2,
        hi: 2.2,
    });

    // Compression flips q1.1's routing: plain data stays host-side over
    // PCIe Gen3, min-width packing moves it to the coprocessor.
    {
        let dd = SsbData::generate_scaled(1, 0.002, 20_260_730);
        let q11 = crystal_ssb::queries::query(&dd, crystal_ssb::QueryId::new(1, 1));
        let fact = EncodedFact::encode(&dd, &FactEncodings::packed_min(&dd));
        let (plain, packed) = (FactTable::plain(&dd), FactTable::encoded(&dd, &fact));
        let to_device = |table: &FactTable<'_>| {
            let (transfer, host) = crate::util::transfer_vs_host_scan(table, &q11, &cpu, &pcie);
            transfer < host
        };
        let flipped = !to_device(&plain) && to_device(&packed);
        checks.push(Check {
            name: "q1.1 placement flips under packing",
            paper: 1.0,
            reproduced: f64::from(u8::from(flipped)),
            lo: 1.0,
            hi: 1.0,
        });

        // Compressed execution holds throughput on the scan-dominated
        // q1.1: the simulated GPU runs the packed table no slower than
        // the plain one (it reads a fraction of the bytes).
        let mut g = Gpu::new(nvidia_v100());
        let [plain_run, packed_run] = [&plain, &packed].map(|table| {
            g.reset_l2();
            let mut cold = crystal_runtime::DeviceSession::new(&mut g);
            gpu_engine::execute(&mut cold, table, &q11).unwrap()
        });
        assert_eq!(plain_run.result, packed_run.result);
        // At this sample size kernel-launch overhead flattens the time
        // ratio toward 1; the claim is "no slower" plus the byte shrink.
        checks.push(Check {
            name: "compressed q1.1 GPU speedup (>= par)",
            paper: 1.0,
            reproduced: plain_run.sim_secs() / packed_run.sim_secs(),
            lo: 1.0,
            hi: 5.0,
        });
        let read =
            |run: &gpu_engine::GpuRun| run.reports.last().unwrap().stats.global_read_bytes as f64;
        checks.push(Check {
            name: "compressed q1.1 HBM read shrink (~2.3x)",
            paper: 2.3,
            reproduced: read(&plain_run) / read(&packed_run),
            lo: 1.5,
            hi: 3.5,
        });

        // Randomized compressed differential: random queries over random
        // per-column encodings agree with the plain oracle exactly.
        let total = 48u64;
        let agree = (0..total)
            .filter(|&i| {
                let q = crystal_ssb::arbitrary::random_star_query(&dd, 20_260_730 + i);
                let fact = EncodedFact::encode(&dd, &random_encodings(&dd, 20_260_730 ^ i));
                let expected = crystal_ssb::engines::reference::execute(&dd, &q);
                let table = FactTable::encoded(&dd, &fact);
                let (got, _) = exec::execute(&table, &q, cfg.threads, PipelineMode::Vectorized);
                got == expected
            })
            .count();
        checks.push(Check {
            name: "compressed differential agreement",
            paper: 1.0,
            reproduced: agree as f64 / total as f64,
            lo: 1.0,
            hi: 1.0,
        });
    }

    // Device residency (the DeviceSession tentpole): replay the pinned
    // query stream cold (fresh session per query — transfer-included)
    // and warm (one shared session — data-resident after the first
    // pass).
    {
        let dd = SsbData::generate_scaled(1, 0.002, crate::stream::STREAM_SEED);
        let stream = crate::stream::pinned_stream(&dd, 8, 2);
        let cold = crate::stream::replay(&dd, &stream, false, None);
        let warm = crate::stream::replay(&dd, &stream, true, None);

        // A two-pass stream can at best halve the shipped bytes; the
        // warm amortized time must drop by at least the transfer share
        // the cache actually removed (repeat queries cost only their
        // device execution).
        checks.push(Check {
            name: "warm/cold amortized stream time (2 passes)",
            paper: 0.5,
            reproduced: warm.total_secs / cold.total_secs,
            lo: 0.2,
            hi: 0.75,
        });

        // Cache hit ratio of the warm replay: pass 2 is all hits, pass 1
        // already reuses columns across query shapes.
        checks.push(Check {
            name: "warm-stream cache hit ratio (pinned seed)",
            paper: 0.5,
            reproduced: warm.hit_ratio,
            lo: 0.5,
            hi: 1.0,
        });

        // Residency flips q1.1's placement over PCIe Gen3 on *plain*
        // data: cold routing is the paper's Host conclusion, the warm
        // working set routes to the coprocessor.
        let q11 = crystal_ssb::queries::query(&dd, crystal_ssb::QueryId::new(1, 1));
        let table = FactTable::plain(&dd);
        let mut g = Gpu::new(nvidia_v100());
        let mut sess = crystal_runtime::DeviceSession::new(&mut g);
        let place = |sess: &crystal_runtime::DeviceSession<'_>| {
            let spec = sess.spec();
            copro::choose_placement(None, sess, &table, &q11, &cpu, spec, &pcie).decision
        };
        let cold_choice = place(&sess);
        let _ = gpu_engine::execute(&mut sess, &table, &q11).unwrap();
        let warm_choice = place(&sess);
        let flipped = cold_choice.placement == copro::Placement::Host
            && warm_choice.placement == copro::Placement::Coprocessor;
        checks.push(Check {
            name: "q1.1 placement flips when resident (Gen3)",
            paper: 1.0,
            reproduced: f64::from(u8::from(flipped)),
            lo: 1.0,
            hi: 1.0,
        });
    }

    // Sharded beyond-memory regime (the PartitionedFact tentpole):
    // zone-map pruning must cut q1.1's scan to the pinned fraction, and
    // a device replay under half the sharded working set must evict yet
    // stay byte-identical (asserted inside the helpers).
    {
        let dd = SsbData::generate_scaled(1, 0.002, crate::stream::STREAM_SEED);
        let pf = crystal_ssb::PartitionedFact::partition(
            &dd,
            crate::sharded::SHARDS,
            &FactEncodings::plain(),
        );
        let q11 = crystal_ssb::queries::query(&dd, crystal_ssb::QueryId::new(1, 1));
        checks.push(Check {
            name: "sharded q1.1 scan fraction (8 shards)",
            paper: 0.14, // one year of seven stays live
            reproduced: crate::sharded::pruned_fraction(&dd, &pf, &q11, cfg.threads),
            lo: crate::sharded::Q11_SCAN_FRAC_LO,
            hi: crate::sharded::Q11_SCAN_FRAC_HI,
        });
        let stream = crate::stream::pinned_stream(&dd, 6, 2);
        let replay = crate::sharded::replay_sharded(&dd, &pf, &stream, pf.size_bytes() / 2);
        checks.push(Check {
            name: "starved sharded replay evicts, byte-identical",
            paper: 1.0,
            reproduced: f64::from(u8::from(
                replay.evictions >= crate::sharded::MIN_REPLAY_EVICTIONS,
            )),
            lo: 1.0,
            hi: 1.0,
        });
    }

    // Whole-query fusion (the FusedStarKernel tentpole): q1.1's warm
    // fused pass must read far fewer HBM bytes than the per-operator
    // path, and every canned plan must execute as exactly one kernel
    // launch (byte-identity against the oracle is asserted inside
    // `measure_fusion`).
    {
        let dd = SsbData::generate_scaled(1, 0.002, crate::stream::STREAM_SEED);
        let ms = crate::fusion::measure_fusion(&dd);
        let q11 = ms.iter().find(|m| m.query == "q1.1").unwrap();
        checks.push(Check {
            name: "fused q1.1 HBM read shrink (>= 1.8x)",
            paper: 2.0,
            reproduced: q11.read_shrink(),
            lo: crate::fusion::Q11_HBM_READ_SHRINK_MIN,
            hi: f64::INFINITY,
        });
        checks.push(Check {
            name: "fused launches per plan (13 plans, == 1)",
            paper: crate::fusion::FUSED_LAUNCHES as f64,
            reproduced: ms.iter().map(|m| m.fused.launches).max().unwrap() as f64,
            lo: crate::fusion::FUSED_LAUNCHES as f64,
            hi: crate::fusion::FUSED_LAUNCHES as f64,
        });
    }

    // The simulated copy engine (the stream-overlap tentpole): a cold
    // q1.1 must finish materially faster on the copy/compute stream
    // clocks than under serial transfer+kernel charging, and the
    // double-buffered sharded replay must hide most of the
    // non-first-shard transfer (byte-identity against the reference
    // oracle is asserted inside the helpers).
    {
        let dd = SsbData::generate_scaled(1, 0.002, crate::stream::STREAM_SEED);
        let q11 = crystal_ssb::queries::query(&dd, crystal_ssb::QueryId::new(1, 1));
        let r = crate::overlap::cold(&FactTable::plain(&dd), &q11);
        checks.push(Check {
            name: "cold q1.1 overlap speedup (>= 1.4x)",
            paper: 2.0,
            reproduced: r.speedup(),
            lo: crate::overlap::MIN_COLD_SPEEDUP,
            hi: f64::INFINITY,
        });
        let pf = crystal_ssb::PartitionedFact::partition(
            &dd,
            crate::overlap::SHARDS,
            &FactEncodings::plain(),
        );
        let q21 = crystal_ssb::queries::query(&dd, crystal_ssb::QueryId::new(2, 1));
        let s = crate::overlap::cold_sharded(&FactTable::sharded(&dd, &pf), &q21);
        checks.push(Check {
            name: "sharded prefetch hides transfer (>= 70%)",
            paper: 1.0,
            reproduced: s.hidden_frac,
            lo: crate::overlap::MIN_HIDDEN_FRAC,
            hi: 1.0,
        });
    }

    // Word-parallel chunked kernels: the two-phase chunked packed
    // selection scan must be no slower than the retained scalar reference
    // at whatever optimization level this scorecard runs under (the
    // release-mode `reproduce microbench` gates the real >= 1.5x; this
    // band keeps the chunked path from regressing even at debug parity).
    {
        use crystal_core::selvec::{sel_between_init, sel_between_init_scalar};
        let n = 1usize << 18;
        let bits = 12u32;
        let data = crystal_storage::gen::uniform_i32_domain(n, 1 << bits, 97);
        let packed = crystal_storage::PackedColumn::pack(&data, bits).unwrap();
        let view = packed.view();
        let hi = crystal_storage::gen::threshold_for_selectivity(1 << bits, 0.2) - 1;
        let mut sel = vec![0u32; n];
        // Paired interleaved timing (median of per-repetition ratios), so
        // bursty machine noise lands on both sides of each pair — see
        // `util::paired`.
        let (_, _, speedup) = crate::util::paired(cfg.reps.max(5), |chunked| {
            if chunked {
                std::hint::black_box(sel_between_init(&view, 0, hi, 0, n, &mut sel));
            } else {
                std::hint::black_box(sel_between_init_scalar(&view, 0, hi, 0, n, &mut sel));
            }
        });
        checks.push(Check {
            name: "chunked/scalar packed select (>= par)",
            paper: 1.5,
            reproduced: speedup,
            lo: 0.8,
            hi: f64::INFINITY,
        });
    }

    // Section 3.3: Crystal vs independent threads (small simulation).
    let mut gpu = Gpu::new(gpu_spec.clone());
    let data = crystal_storage::gen::uniform_i32_domain(1 << 20, 1 << 20, 1);
    let v = 1 << 19;
    let col = gpu.alloc_from(&data);
    let (out, crystal) = crystal_core::kernels::select_where(
        &mut gpu,
        &col,
        crystal_gpu_sim::exec::LaunchConfig::default_for_items(data.len()),
        move |y| y > v,
    );
    gpu.free(out);
    let (out, indep) = crystal_core::kernels::independent_select_gt(&mut gpu, &col, v);
    gpu.free(out);
    let t_i: f64 = indep.iter().map(|r| r.time.bottleneck_secs()).sum();
    checks.push(Check {
        name: "tile-model speedup (paper 9x; sim conservative)",
        paper: 9.0,
        reproduced: t_i / crystal.time.bottleneck_secs(),
        lo: 2.5,
        hi: 12.0,
    });

    let mut report = Report::new(
        "scorecard",
        &["claim", "paper", "reproduced", "band", "verdict"],
    );
    let mut all_ok = true;
    for c in &checks {
        all_ok &= c.passes();
        report.row(vec![
            c.name.to_string(),
            format!("{:.2}", c.paper),
            format!("{:.2}", c.reproduced),
            format!("[{:.1}, {:.1}]", c.lo, c.hi),
            if c.passes() {
                "ok".into()
            } else {
                "MISS".into()
            },
        ]);
    }
    report.finish();
    println!(
        "{} of {} reproduction bands hold",
        checks.iter().filter(|c| c.passes()).count(),
        checks.len()
    );
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scorecard itself is part of the test suite: every reproduction
    /// band must hold.
    #[test]
    fn all_bands_hold() {
        let mut cfg = Config::from_env().unwrap();
        cfg.fact_scale = 0.002;
        cfg.threads = 2;
        assert!(scorecard(&cfg), "a reproduction band was missed");
    }
}
