//! `serve_mixed`: four tenants' query streams through the multi-tenant
//! server, once with the device cache fitting (`serve`, plain data, full
//! budget) and once starved (`serve_sharded`, eight packed shards, half
//! their working set as budget), each on a fresh device. A closed loop:
//! the server admits a tenant's next query when its previous one completes.

use crate::harness::{Checker, Harness};
use crate::layers;
use crate::metrics::{HALVES, STEP_QUERIES};
use crate::stats::{median, percentile};
use crate::streams::tenant_streams;
use crate::sut::{
    all_query_ids, cpu, execute_partitioned, gpu, intel_i7_6900, nvidia_v100, pcie_gen3, query,
    query_named, reference, serve, serve_sharded, Backend, DeviceSession, FactEncodings, Gpu,
    HostQueryJob, PartitionedFact, PipelineMode, QueryResult, ServeReport, ServerConfig, SsbData,
    StarQuery, MORSEL_SIZE,
};
use crate::trace::Tracer;

/// 240 k rows: a query is a few server grants, so the scheduler loop and
/// admission are a visible share of a pass.
const FACT_SCALE: f64 = 0.002;
const TENANTS: usize = 4;
const PER_TENANT: usize = 6;
const SHARDS: usize = 8;

/// One placement of the inputs.
struct ServeData {
    d: SsbData,
    pf: PartitionedFact,
    streams: Vec<Vec<StarQuery>>,
}

/// What set-up works out once per run.
struct Expected {
    /// Result of `streams[tenant][index]`.
    oracle: Vec<Vec<QueryResult>>,
    /// Device cache budget of the starved half: half the bytes the session
    /// holds after serving the sharded streams with room for everything.
    starved_budget: usize,
}

impl ServeData {
    fn generate(scale: f64, seed: u64) -> Self {
        let d = SsbData::generate_scaled(20, scale, seed);
        let pf = PartitionedFact::partition(&d, SHARDS, &FactEncodings::packed_min(&d));
        let ids = all_query_ids();
        let streams = tenant_streams(ids.len(), TENANTS, PER_TENANT)
            .iter()
            .map(|stream| stream.iter().map(|&i| query(&d, ids[i])).collect())
            .collect();
        ServeData { d, pf, streams }
    }

    /// `serve` on plain data, or `serve_sharded` on the packed shards, on a
    /// fresh device whose session may cache `device_budget` bytes.
    fn serve(&self, sharded: bool, device_budget: Option<usize>) -> ServeReport {
        let (cpu_spec, pcie) = (intel_i7_6900(), pcie_gen3());
        let mut device = Gpu::new(nvidia_v100());
        let config = ServerConfig {
            device_budget,
            ..ServerConfig::default()
        };
        let (d, streams) = (&self.d, &self.streams);
        if sharded {
            serve_sharded(&mut device, &cpu_spec, &pcie, d, &self.pf, streams, &config)
        } else {
            serve(&mut device, &cpu_spec, &pcie, d, streams, &config)
        }
    }
}

fn check(report: &ServeReport, oracle: &[Vec<QueryResult>], tr: &mut Tracer, ck: &mut Checker) {
    ck.check(tr, || report.completed.len() == TENANTS * PER_TENANT);
    for c in &report.completed {
        ck.check(tr, || c.result == oracle[c.tenant][c.index]);
    }
}

pub fn run(h: &mut Harness) {
    let (seed, scale) = (h.seed, h.fact_scale(FACT_SCALE));
    let (data, expected) = h.setup(|| {
        let data = ServeData::generate(scale, seed);
        let oracle = data
            .streams
            .iter()
            .map(|stream| {
                stream
                    .iter()
                    .map(|q| reference::execute(&data.d, q))
                    .collect()
            })
            .collect();
        let unstarved = data.serve(true, None);
        let starved_budget = unstarved.stats.cached_bytes / 2;
        (
            data,
            Expected {
                oracle,
                starved_budget,
            },
        )
    });
    h.rows_per_pass = data.d.lineorder.rows() * TENANTS * PER_TENANT * HALVES.len();

    let span_names = HALVES.map(|half| h.tracer.name(&format!("server.serve.{half}")));
    let budgets = [None, Some(expected.starved_budget)];
    let mut first_reports = None;
    let data = h.run_rounds(
        1,
        data,
        || ServeData::generate(scale, seed),
        |data, tr, ck, _| {
            let reports = [0, 1].map(|starved| {
                let op = tr.begin_op(span_names[starved]);
                let report = data.serve(starved == 1, budgets[starved]);
                tr.end(op);
                check(&report, &expected.oracle, tr, ck);
                report
            });
            first_reports.get_or_insert(reports);
        },
    );
    if h.trace {
        let reports = first_reports.expect("at least one pass ran");
        layer_metrics(h, &data, &reports, expected.starved_budget);
    }
}

/// Host seconds of running every completed query of `report` on its own,
/// on the backend the server chose for it: what the queries cost without
/// the server around them.
fn standalone_secs(data: &ServeData, report: &ServeReport, starved_budget: Option<usize>) -> f64 {
    let ServeData { d, pf, streams } = data;
    let starved = starved_budget.is_some();
    let mut device = Gpu::new(nvidia_v100());
    let mut sess = match starved_budget {
        Some(budget) => DeviceSession::with_budget(&mut device, budget),
        None => DeviceSession::new(&mut device),
    };
    let start = std::time::Instant::now();
    for c in &report.completed {
        let q = &streams[c.tenant][c.index];
        // A device query the starved session cannot admit falls back to
        // the host, as it does inside the server.
        let on_device = c.backend == Backend::Device
            && if starved {
                gpu::execute_partitioned_session(&mut sess, d, pf, q).is_ok()
            } else {
                gpu::execute_session(&mut sess, d, q).is_ok()
            };
        if !on_device {
            if starved {
                execute_partitioned(d, pf, q, 1, PipelineMode::Vectorized);
            } else {
                cpu::execute(d, q, 1);
            }
        }
    }
    start.elapsed().as_secs_f64()
}

fn layer_metrics(
    h: &mut Harness,
    data: &ServeData,
    reports: &[ServeReport; 2],
    starved_budget: usize,
) {
    let reps = h.reps(3);
    for (starved, half) in HALVES.iter().enumerate() {
        let report = &reports[starved];
        let budget = (starved == 1).then_some(starved_budget);
        let serve_ms = h.span_ms(&format!("server.serve.{half}"));
        h.layer(&format!("server.serve_ms.{half}"), serve_ms);
        let standalone = h.replay(&format!("server.standalone.{half}"), reps, || {
            standalone_secs(data, report, budget)
        });
        h.layer(
            &format!("server.overhead_frac.{half}"),
            (serve_ms - standalone * 1e3) / serve_ms,
        );
        h.layer(
            &format!("server.device_frac.{half}"),
            report.device_queries() as f64 / report.completed.len() as f64,
        );
        h.layer(
            &format!("runtime.evictions.{half}"),
            report.stats.evictions as f64,
        );
    }

    // Simulated time and counters of both halves together; each number
    // repeats exactly.
    let both = |of: &dyn Fn(&ServeReport) -> f64| reports.iter().map(of).sum::<f64>();
    let makespan = both(&|r| r.makespan_secs);
    let latencies_ms: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.completed.iter().map(|c| c.latency() * 1e3))
        .collect();
    h.layer("sim_pass_ms", makespan * 1e3);
    h.layer("sim_qps", latencies_ms.len() as f64 / makespan);
    h.layer("sim_lat_p99_ms", percentile(&latencies_ms, 99.0));
    h.layer("server.sim_lat_p50_ms", median(&latencies_ms));
    h.layer(
        "server.sim_host_busy_frac",
        both(&|r| r.host_busy_secs) / makespan,
    );
    h.layer(
        "server.sim_device_busy_frac",
        both(&|r| r.device_busy_secs) / makespan,
    );
    let hit_ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
    h.layer(
        "runtime.col_hit_ratio",
        hit_ratio(
            both(&|r| r.stats.col_hits as f64),
            both(&|r| r.stats.col_misses as f64),
        ),
    );
    h.layer(
        "runtime.ht_hit_ratio",
        hit_ratio(
            both(&|r| r.stats.ht_hits as f64),
            both(&|r| r.stats.ht_misses as f64),
        ),
    );
    h.layer(
        "runtime.uploaded_mb",
        both(&|r| r.stats.uploaded_bytes as f64) / 1e6,
    );
    h.layer("runtime.evictions", both(&|r| r.stats.evictions as f64));
    h.layer("runtime.build_sim_ms", both(&|r| r.stats.build_secs) * 1e3);
    h.layer("gpu-sim.launches", both(&|r| r.exec.launches as f64));
    h.layer(
        "gpu-sim.hbm_read_mb",
        both(&|r| r.exec.hbm_read_bytes as f64) / 1e6,
    );
    h.layer(
        "gpu-sim.hbm_write_mb",
        both(&|r| r.exec.hbm_write_bytes as f64) / 1e6,
    );
    h.layer("gpu-sim.sim_dma_ms", both(&|r| r.exec.dma_secs) * 1e3);

    // The resumable host job, stepped as the server's default quantum
    // grants it: the executor used with bounded grants and one accumulator.
    let quantum = ServerConfig::default().quantum_morsels * MORSEL_SIZE;
    for name in STEP_QUERIES {
        let q = query_named(&data.d, name);
        let step = h.tracer.name(&format!("ssb.job_step.{name}"));
        for _ in 0..reps {
            let mut job = HostQueryJob::new(&data.d, &q, PipelineMode::Vectorized);
            loop {
                let span = h.tracer.begin_op(step);
                let done = job.step(quantum);
                h.tracer.end(span);
                if done {
                    break;
                }
            }
            std::hint::black_box(job.finish());
        }
        let ms = h.span_ms(&format!("ssb.job_step.{name}"));
        h.layer(&format!("ssb.job_step_ms.{name}"), ms);
    }
    layers::read_gbps(h);
}
