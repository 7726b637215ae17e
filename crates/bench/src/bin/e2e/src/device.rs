//! `device_sim`: canned queries through the simulated V100, one warm
//! `DeviceSession` per encoding. Host time here is the simulator's own
//! (`gpu-sim`, `core`'s device primitives, `runtime`); simulated time and
//! every device counter repeat exactly for a seed.

use std::time::Instant;

use crate::harness::Harness;
use crate::layers;
use crate::metrics::{DEVICE_QUERIES, ENCODINGS};
use crate::stats::median;
use crate::sut::{
    choose_placement_session, cpu, gpu, intel_i7_6900, nvidia_v100, pcie_gen3, query_named,
    reference, ColumnKey, DeviceSession, EncodedFact, ExecStats, FactEncodings, Gpu, HostCol,
    LaunchConfig, QueryResult, SessionStats, SsbData, StarQuery,
};

/// 300 k rows: the simulator costs about 100 ns of host time per row and
/// query, so a pass of ten executions takes a quarter of a second.
const FACT_SCALE: f64 = 0.0025;

struct DeviceData {
    d: SsbData,
    fact: EncodedFact,
    queries: Vec<StarQuery>,
    oracle: Vec<QueryResult>,
    /// The host engine's results: the device must agree with the host
    /// engine as well as with the oracle.
    host: Vec<QueryResult>,
}

fn execute(
    sess: &mut DeviceSession<'_>,
    data: &DeviceData,
    q: &StarQuery,
    packed: bool,
) -> gpu::GpuRun {
    let run = if packed {
        gpu::execute_encoded_session(sess, &data.d, &data.fact, q)
    } else {
        gpu::execute_session(sess, &data.d, q)
    };
    run.expect("a 300 k-row working set fits the 32 GB device")
}

pub fn run(h: &mut Harness) {
    let (seed, scale) = (h.seed, h.fact_scale(FACT_SCALE));
    let data = h.setup(|| {
        let d = SsbData::generate_scaled(20, scale, seed);
        let fact = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
        let queries: Vec<StarQuery> = DEVICE_QUERIES.iter().map(|n| query_named(&d, n)).collect();
        let oracle = queries.iter().map(|q| reference::execute(&d, q)).collect();
        let host = queries.iter().map(|q| cpu::execute(&d, q, 1).0).collect();
        DeviceData {
            d,
            fact,
            queries,
            oracle,
            host,
        }
    });
    h.rows_per_pass = data.d.lineorder.rows() * data.queries.len() * ENCODINGS.len();

    let span_names: Vec<[_; 2]> = DEVICE_QUERIES
        .iter()
        .map(|q| ENCODINGS.map(|enc| h.tracer.name(&format!("ssb.gpu_exec.{q}.{enc}"))))
        .collect();
    let mut gpus = [Gpu::new(nvidia_v100()), Gpu::new(nvidia_v100())];
    let [plain_gpu, packed_gpu] = &mut gpus;
    let mut sessions = [
        DeviceSession::new(plain_gpu),
        DeviceSession::new(packed_gpu),
    ];
    // The first warm-up pass is the cold one: it uploads every column and
    // builds every hash table, and is discarded like any warm-up pass.
    h.run_passes(1, |tr, ck, _| {
        for (packed, sess) in sessions.iter_mut().enumerate() {
            for (qi, q) in data.queries.iter().enumerate() {
                let op = tr.begin_op(span_names[qi][packed]);
                let run = execute(sess, &data, q, packed == 1);
                tr.end(op);
                ck.check(tr, || {
                    run.result == data.oracle[qi] && run.result == data.host[qi]
                });
            }
        }
    });
    drop(sessions);
    if h.trace {
        layer_metrics(h, &data);
    }
}

/// Device and session counters of one encoding's half of a pass.
struct HalfPass {
    exec: ExecStats,
    before: SessionStats,
    after: SessionStats,
    /// Σ `GpuRun::sim_secs`.
    sim_secs: f64,
    l2_hit_ratio: f64,
}

fn total(halves: &[HalfPass], of: impl Fn(&HalfPass) -> f64) -> f64 {
    halves.iter().map(of).sum()
}

fn layer_metrics(h: &mut Harness, data: &DeviceData) {
    for name in DEVICE_QUERIES {
        for enc in ENCODINGS {
            let ms = h.span_ms(&format!("ssb.gpu_exec.{name}.{enc}"));
            h.layer(&format!("ssb.gpu_exec_wall_ms.{name}.{enc}"), ms);
        }
    }

    // One cold and one warm pass on fresh devices, outside the timed
    // passes: every simulated number and counter comes from here, so none
    // depends on how many passes the run's seconds allowed.
    let (cpu_spec, pcie) = (intel_i7_6900(), pcie_gen3());
    let encodings = [FactEncodings::plain(), data.fact.encodings()];
    let mut gpus = [Gpu::new(nvidia_v100()), Gpu::new(nvidia_v100())];
    let [plain_gpu, packed_gpu] = &mut gpus;
    let mut sessions = [
        DeviceSession::new(plain_gpu),
        DeviceSession::new(packed_gpu),
    ];
    let placement = h.tracer.name("models.choose_placement");
    let mut placement_us = Vec::new();
    let mut passes = [Vec::new(), Vec::new()];
    let mut residuals = [Vec::new(), Vec::new()];
    for warm in [0, 1] {
        for (packed, sess) in sessions.iter_mut().enumerate() {
            let exec_before = sess.gpu().exec_stats();
            let before = sess.stats().clone();
            let mut sim_secs = 0.0;
            for (q, name) in data.queries.iter().zip(DEVICE_QUERIES) {
                let span = h.tracer.begin_op(placement);
                let start = Instant::now();
                let choice = choose_placement_session(
                    sess,
                    &data.d,
                    q,
                    &encodings[packed],
                    &cpu_spec,
                    &pcie,
                );
                placement_us.push(start.elapsed().as_secs_f64() * 1e6);
                h.tracer.end(span);

                let query_before = sess.gpu().exec_stats();
                let run = execute(sess, data, q, packed == 1);
                let spent = sess.gpu().exec_stats().since(&query_before);
                // The coprocessor model predicts transfer plus execution,
                // so that is what the simulation is held to.
                let simulated = spent.dma_secs + spent.kernel_secs;
                residuals[warm].push(simulated / choice.coprocessor_secs - 1.0);
                sim_secs += run.sim_secs();
                if warm == 1 {
                    let kernels: f64 = run.reports.iter().map(|r| r.time.total_secs()).sum();
                    let enc = ENCODINGS[packed];
                    h.layer(
                        &format!("gpu-sim.sim_kernel_us.{name}.{enc}"),
                        kernels * 1e6,
                    );
                }
            }
            passes[warm].push(HalfPass {
                exec: sess.gpu().exec_stats().since(&exec_before),
                before,
                after: sess.stats().clone(),
                sim_secs,
                l2_hit_ratio: sess.gpu().l2_hit_ratio(),
            });
        }
    }
    drop(sessions);
    let [cold, warm] = &passes;

    let sim_pass_secs = total(warm, |p| p.sim_secs);
    let hbm_read = total(warm, |p| p.exec.hbm_read_bytes as f64);
    let hbm_write = total(warm, |p| p.exec.hbm_write_bytes as f64);
    h.layer(
        "sim_cold_ms",
        total(cold, |p| p.exec.dma_secs + p.exec.kernel_secs) * 1e3,
    );
    h.layer("sim_pass_ms", sim_pass_secs * 1e3);
    h.layer("sim_hbm_mb", (hbm_read + hbm_write) / 1e6);
    h.layer("gpu-sim.launches", total(warm, |p| p.exec.launches as f64));
    h.layer("gpu-sim.hbm_read_mb", hbm_read / 1e6);
    h.layer("gpu-sim.hbm_write_mb", hbm_write / 1e6);
    h.layer(
        "gpu-sim.l2_hit_ratio",
        total(warm, |p| p.l2_hit_ratio) / warm.len() as f64,
    );
    h.layer("gpu-sim.sim_dma_ms", total(cold, |p| p.exec.dma_secs) * 1e3);
    let hit_ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
    h.layer(
        "runtime.col_hit_ratio",
        hit_ratio(
            total(warm, |p| (p.after.col_hits - p.before.col_hits) as f64),
            total(warm, |p| (p.after.col_misses - p.before.col_misses) as f64),
        ),
    );
    h.layer(
        "runtime.ht_hit_ratio",
        hit_ratio(
            total(warm, |p| (p.after.ht_hits - p.before.ht_hits) as f64),
            total(warm, |p| (p.after.ht_misses - p.before.ht_misses) as f64),
        ),
    );
    h.layer(
        "runtime.uploaded_mb",
        total(cold, |p| p.after.uploaded_since(&p.before) as f64) / 1e6,
    );
    // A session's count runs from its start, so this covers both passes.
    h.layer(
        "runtime.evictions",
        total(warm, |p| p.after.evictions as f64),
    );
    h.layer(
        "runtime.build_sim_ms",
        total(cold, |p| p.after.build_secs - p.before.build_secs) * 1e3,
    );
    h.layer("models.choose_placement_us", median(&placement_us));
    h.layer("models.resid_cold", median(&residuals[0]));
    h.layer("models.resid_warm", median(&residuals[1]));
    let pass_secs = h.pass_ms_p50() / 1e3;
    h.layer("gpu-sim.wall_per_sim_ratio", pass_secs / sim_pass_secs);

    // The simulator's fixed cost per tile: a kernel whose body does nothing.
    let reps = h.reps(5);
    let config = LaunchConfig::default_for_items(data.d.lineorder.rows());
    let mut empty_gpu = Gpu::new(nvidia_v100());
    let secs = h.replay("gpu-sim.empty_launch", reps, || {
        empty_gpu
            .launch("empty", config, |ctx| {
                std::hint::black_box(ctx);
            })
            .launches
    });
    h.layer(
        "gpu-sim.wall_ns_per_tile",
        secs * 1e9 / config.grid_dim as f64,
    );

    // `DeviceSession::column`: a miss uploads the column, a hit finds it.
    let column = &data.d.lineorder.orderdate;
    let key = ColumnKey::for_dataset(data.d.fingerprint(), 0);
    let spans = ["runtime.column.cold", "runtime.column.warm"].map(|n| h.tracer.name(n));
    for _ in 0..reps {
        let mut fresh = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::new(&mut fresh);
        for name in spans {
            let span = h.tracer.begin_op(name);
            let resident = sess.column(key, HostCol::Plain(column));
            h.tracer.end(span);
            drop(resident);
        }
    }
    let cold_us = h.span_ms("runtime.column.cold") * 1e3;
    let warm_us = h.span_ms("runtime.column.warm") * 1e3;
    h.layer("runtime.column_cold_us", cold_us);
    h.layer("runtime.column_warm_us", warm_us);
    layers::read_gbps(h);
}
