//! # crystal-server — a concurrent multi-tenant query frontend
//!
//! The evaluation sections of the paper run one query at a time; a real
//! deployment serves many tenants against one host and one device. This
//! crate adds the missing frontend: a deterministic, discrete-time
//! scheduler that admits queries from N tenant streams under a
//! concurrency and device-memory budget, interleaves execution as
//! **morsel grants** with deficit-round-robin fairness across tenants,
//! and overlaps the host executor with the shared
//! [`DeviceSession`] — the paper's data-resident regime, now shared
//! between tenants instead of rebuilt per stream.
//!
//! ## The model
//!
//! Time is simulated, not measured: the host charge for a grant is the
//! Section 3.1 scan bound pro-rated to the granted rows; a device query
//! is charged its **overlapped makespan** — uploads run on the simulated
//! copy stream while kernels run on the compute stream, so the query
//! costs `ramp + max(transfer − ramp, kernels)` rather than
//! `transfer + kernels` (the ramp is the first
//! [`UPLOAD_CHUNK_BYTES`](crystal_hardware::UPLOAD_CHUNK_BYTES) chunk
//! the first kernel must wait for; a warm query that ships nothing is
//! charged kernels alone). The formula is written once,
//! `CoprocessorTime::settle` in `crystal_gpu_sim::pcie`; the job evaluates
//! it on its own counters and the session's link
//! ([`DeviceQueryJob::settle`]), and the loop charges what that returns:
//! each grant re-evaluates the makespan with the kernel seconds launched so
//! far and charges the (always non-negative) delta. What a query was
//! charged, on either clock, is in its [`QueryProfile`] (a
//! [`CompletedQuery`] dereferences to it). Two resource clocks
//! — host and device — advance independently, which is what models the
//! host/coprocessor overlap; the makespan is the later of the two when
//! the last query completes. Because all charges derive from the same
//! deterministic simulator and cost models, every run of [`serve`] over
//! the same streams produces byte-identical results *and* timings.
//!
//! ## Scheduling policy
//!
//! * **Closed loop per tenant** — at most one in-flight query per
//!   tenant, plus a global [`ServerConfig::max_inflight`] cap.
//! * **Placement at admission** — each query is routed by the
//!   residency-aware cost model (`copro::choose_placement` over the
//!   live segments of the served [`FactTable`]; under a [`Calibration`],
//!   on the model profile's blended bounds); additionally, an otherwise
//!   *idle* device is offered cost-model-Host queries: the device's cycles
//!   are free while the host is the contended resource, and the uploads it
//!   pays warm the shared cache, flipping later placements for every
//!   tenant at once.
//! * **Admission control** — device placement pins the query's working
//!   set (its first live segment's): the job holds the session's `Rc`s
//!   between grants ([`DeviceQueryJob::admit`]), so no other tenant can
//!   evict it while the query waits its turn; a typed `SessionOom` falls the
//!   query back to the host instead of panicking or evicting another
//!   tenant's pinned set. A sharded device job admits its later shards as it
//!   advances; if one no longer fits mid-query, the device half is
//!   abandoned and the query restarts on the host.
//! * **Deficit round robin** — each grant opportunity adds a morsel
//!   quantum to the chosen tenant's deficit and grants at most that many
//!   rows, so long queries cannot starve short ones and the p99/p50
//!   latency ratio stays bounded under contention.
//!
//! There is one scheduler loop, [`serve_with`], over one [`FactTable`];
//! [`serve`] and [`serve_sharded`] are the names the benchmark harness
//! pins for the plain and the sharded table.
//!
//! Splitting a query into grants changes neither the per-block tile
//! schedule nor the order of the commutative integer aggregate updates,
//! so the served results are byte-identical to a serial replay of the
//! same streams — the property the concurrent differential suite
//! asserts against [`serve_serial`].

use crystal_cpu::exec::MORSEL_SIZE;
use crystal_gpu_sim::{ExecStats, Gpu};
use crystal_hardware::{CpuSpec, HardwareProfile, PcieSpec};
use crystal_models::calibration::CalibrationStore;
use crystal_runtime::{DeviceSession, SessionOom, SessionStats};
use crystal_ssb::engines::copro::{self, Placement, PlacementDecision};
use crystal_ssb::engines::gpu::DeviceQueryJob;
use crystal_ssb::engines::profile::QueryProfile;
use crystal_ssb::exec::{HostQueryJob, PipelineMode};
use crystal_ssb::plan::StarQuery;
use crystal_ssb::{FactTable, PartitionedFact, QueryResult, SsbData};

/// Knobs of the multi-tenant frontend.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Global cap on concurrently admitted queries (the per-tenant
    /// closed loop already caps each tenant at one).
    pub max_inflight: usize,
    /// Deficit-round-robin quantum, in morsels per grant opportunity.
    pub quantum_morsels: usize,
    /// Rows per morsel (defaults to the host executor's
    /// [`MORSEL_SIZE`]).
    pub morsel_rows: usize,
    /// Optional device cache budget in bytes (see
    /// [`DeviceSession::with_budget`]); `None` uses the full device.
    pub device_budget: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_inflight: 4,
            quantum_morsels: 4,
            morsel_rows: MORSEL_SIZE,
            device_budget: None,
        }
    }
}

impl ServerConfig {
    fn quantum_rows(&self) -> usize {
        (self.quantum_morsels * self.morsel_rows).max(1)
    }
}

/// Which executor a query ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The morsel-driven CPU executor.
    Host,
    /// The Crystal engine through the shared [`DeviceSession`].
    Device,
}

/// One served query with its timing and its (byte-exact) result.
#[derive(Debug, Clone)]
pub struct CompletedQuery {
    /// Tenant the query came from.
    pub tenant: usize,
    /// Position in that tenant's stream.
    pub index: usize,
    pub backend: Backend,
    /// Simulated time at admission.
    pub admitted_at: f64,
    /// Simulated time at completion (on the backend's clock).
    pub completed_at: f64,
    /// What it cost: its result, the seconds charged to the device clock
    /// (`time.pipelined` — of an OOM-restarted query, what its abandoned
    /// device half had been charged) and to the host clock (`host_secs`),
    /// the bytes it shipped, and the admission-time placement with its
    /// provenance (the predicted seconds of each side, and whether measured
    /// history contributed) — a misroute is debuggable from the report
    /// alone. Note the placement records the *cost model's* side;
    /// idle-resource steering or an OOM fallback can still run the query
    /// elsewhere (compare against [`CompletedQuery::backend`]).
    pub profile: QueryProfile,
}

/// A completed query reads as its profile: `c.result`, `c.host_secs`, ….
impl std::ops::Deref for CompletedQuery {
    type Target = QueryProfile;

    fn deref(&self) -> &QueryProfile {
        &self.profile
    }
}

impl CompletedQuery {
    /// Queueing plus execution latency, simulated seconds.
    pub fn latency(&self) -> f64 {
        self.completed_at - self.admitted_at
    }
}

/// Outcome of serving a set of tenant streams.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Every query, in completion order.
    pub completed: Vec<CompletedQuery>,
    /// Simulated wall time until the last completion: the later of the
    /// two resource clocks (host and device run in parallel).
    pub makespan_secs: f64,
    /// Simulated seconds the host executor spent on grants: the
    /// `host_secs` of every completed profile, summed grant by grant.
    pub host_busy_secs: f64,
    /// Simulated seconds the device spent on transfers, builds and
    /// kernel grants: the `time.pipelined` of every completed profile,
    /// summed grant by grant.
    pub device_busy_secs: f64,
    /// Device session counters at the end of the run (summed across the
    /// per-tenant sessions for [`serve_serial`]).
    pub stats: SessionStats,
    /// Device-level execution counters attributed to this run: kernel
    /// launches (builds + fused probe steps) and HBM traffic, diffed from
    /// the device's cumulative [`ExecStats`] around the serve. The
    /// launch-count bands read this — a fused device query costs one
    /// probe launch per morsel grant plus its cold build kernels.
    pub exec: ExecStats,
    /// Device jobs abandoned at a mid-query shard-admission OOM and
    /// restarted on the host (only a sharded serve can have any): the
    /// `oom_restarts` of the completed profiles, summed.
    pub oom_restarts: usize,
}

impl ServeReport {
    /// Served throughput over the simulated makespan.
    pub fn queries_per_sec(&self) -> f64 {
        self.completed.len() as f64 / self.makespan_secs.max(1e-30)
    }

    /// Latency percentile (`p` in 0..=100) over every served query,
    /// linearly interpolated between order statistics. The nearest-rank
    /// rounding this replaces collapsed p99 onto p50 (or the max) at
    /// small sample counts, biasing the pinned p99/p50 contention band;
    /// interpolation keeps tail percentiles distinct at any sample size.
    /// Sorting uses `f64::total_cmp`, so a NaN latency (impossible by
    /// construction, but defensively) can no longer panic the sort.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let mut lat: Vec<f64> = self.completed.iter().map(CompletedQuery::latency).collect();
        if lat.is_empty() {
            return 0.0;
        }
        lat.sort_by(f64::total_cmp);
        let rank = (p / 100.0).clamp(0.0, 1.0) * (lat.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        lat[lo] + (lat[hi] - lat[lo]) * (rank - lo as f64)
    }

    /// Queries that ran on the device.
    pub fn device_queries(&self) -> usize {
        self.completed
            .iter()
            .filter(|c| c.backend == Backend::Device)
            .count()
    }

    /// One tenant's results in stream order (for byte-identity checks).
    pub fn tenant_results(&self, tenant: usize) -> Vec<&QueryResult> {
        let mut rows: Vec<(usize, &QueryResult)> = self
            .completed
            .iter()
            .filter(|c| c.tenant == tenant)
            .map(|c| (c.index, &c.result))
            .collect();
        rows.sort_by_key(|(i, _)| *i);
        rows.into_iter().map(|(_, r)| r).collect()
    }
}

/// An in-flight query's executor: the host job or the device job, each
/// over the segments of the table being served (the whole table is one).
enum Job<'a> {
    Host(Box<HostQueryJob<'a>>),
    Device(Box<DeviceQueryJob<'a>>),
}

impl Job<'_> {
    fn backend(&self) -> Backend {
        match self {
            Job::Host(_) => Backend::Host,
            Job::Device(_) => Backend::Device,
        }
    }

    fn remaining_rows(&self) -> usize {
        match self {
            Job::Host(h) => h.remaining_rows(),
            Job::Device(g) => g.remaining_rows(),
        }
    }

    /// Advances by up to `grant` rows; `Ok(true)` once the query is done.
    /// Only a device job over several segments can fail: crossing into
    /// the next shard admits it, and it may no longer fit.
    fn step(&mut self, sess: &mut DeviceSession<'_>, grant: usize) -> Result<bool, SessionOom> {
        match self {
            Job::Host(h) => Ok(h.step(grant)),
            Job::Device(g) => g.step(sess, grant),
        }
    }

    /// The finished query's profile: the job's result, and of a device job
    /// its own account; of a host job `account`, what the server knows the
    /// query cost.
    fn finish(self, account: QueryProfile) -> QueryProfile {
        match self {
            Job::Host(h) => {
                let (result, trace) = h.finish();
                QueryProfile {
                    result,
                    trace: Some(trace),
                    ..account
                }
            }
            Job::Device(g) => QueryProfile {
                placement: account.placement,
                ..g.finish()
            },
        }
    }
}

struct InFlight<'a> {
    tenant: usize,
    index: usize,
    admitted_at: f64,
    /// Host scan-bound seconds per granted row, on the serve specs.
    per_row_host_secs: f64,
    /// What the server itself knows of the query's cost: the placement it
    /// was admitted under, the host seconds granted so far, and the account
    /// of a device half that was refused or given up ([`Job::finish`]).
    profile: QueryProfile,
    job: Job<'a>,
}

/// The closed calibration loop a serve can run under: the shared
/// [`CalibrationStore`] every completion records into (and every
/// admission routes by), plus the spec-sheet [`HardwareProfile`] the
/// analytic prior believes. The *actual* machine is whatever specs the
/// serve call itself executes and charges on — when the two profiles
/// agree the loop only learns simulator-vs-model slack; when they
/// deviate (a link trained down, a clock over spec) the blended bounds
/// steer routing back toward the measured truth.
pub struct Calibration<'c> {
    /// The store shared across queries (and across serve calls, if the
    /// caller keeps it).
    pub store: &'c mut CalibrationStore,
    /// The hardware the static prior believes (e.g.
    /// [`crystal_hardware::table2_profile`]).
    pub model: HardwareProfile,
}

/// Admission-time routing: the decision to route by — the static bound on
/// the serve specs, or under calibration the blended bound on the *model*
/// profile — and the host seconds per granted row. The host clock is
/// always charged on the serve specs (the actual machine), so a skewed
/// model profile can misroute but never mischarge.
fn place(
    cal: Option<&Calibration<'_>>,
    sess: &DeviceSession<'_>,
    table: &FactTable<'_>,
    q: &StarQuery,
    cpu: &CpuSpec,
    pcie: &PcieSpec,
) -> (PlacementDecision, f64) {
    let resident = &|keys: &[_]| sess.resident_bytes(keys);
    let actual = copro::choose_placement(None, resident, table, q, cpu, sess.spec(), pcie);
    let per_row_host_secs = actual.host_secs / table.live_rows(q).max(1) as f64;
    let routed = match cal {
        None => actual,
        Some(c) => {
            let (store, m) = (Some(&*c.store), &c.model);
            copro::choose_placement(store, resident, table, q, &m.cpu, &m.gpu, &m.pcie)
        }
    };
    (routed, per_row_host_secs)
}

fn host_job<'a>(table: &FactTable<'a>, q: &'a StarQuery) -> Job<'a> {
    let job = HostQueryJob::over(table, q, PipelineMode::Vectorized);
    Job::Host(Box::new(job))
}

/// Pinned by the benchmark harness (`e2e/src/sut.rs`), to go with its
/// Step 0: [`serve_with`] over the plain table, uncalibrated.
pub fn serve<'a>(
    gpu: &mut Gpu,
    cpu: &CpuSpec,
    pcie: &PcieSpec,
    d: &'a SsbData,
    tenants: &'a [Vec<StarQuery>],
    cfg: &ServerConfig,
) -> ServeReport {
    serve_with(gpu, cpu, pcie, &FactTable::plain(d), tenants, cfg, None)
}

/// Pinned like [`serve`]: [`serve_with`] over the sharded table,
/// uncalibrated.
pub fn serve_sharded<'a>(
    gpu: &mut Gpu,
    cpu: &CpuSpec,
    pcie: &PcieSpec,
    d: &'a SsbData,
    pf: &'a PartitionedFact,
    tenants: &'a [Vec<StarQuery>],
    cfg: &ServerConfig,
) -> ServeReport {
    let table = FactTable::sharded(d, pf);
    serve_with(gpu, cpu, pcie, &table, tenants, cfg, None)
}

/// Serves `tenants` (one query stream per tenant) over `table` through one
/// shared host executor and one shared [`DeviceSession`], interleaved as
/// deficit-round-robin morsel grants. Deterministic: same streams, same
/// results, same simulated timings.
///
/// Over a sharded table zone-map pruning drops dead shards before any
/// grant, device jobs advance shard-by-shard under shard-granular
/// residency keys (each grant covers one *(query, shard)* pair's rows),
/// and a **mid-query** shard-admission [`SessionOom`] abandons the device
/// half and restarts the query on the host — partial device work is
/// discarded, so every served result stays byte-identical to the
/// unsharded pipeline's.
///
/// With a [`Calibration`], admission routes on the *model* profile's
/// bounds blended with whatever the store has learned (per-shard bounds
/// under shard-granular keys when sharded), and every completion records
/// its observed transfer/kernel/host seconds back into the store.
/// Execution and the resource clocks still run on the `gpu` / `cpu` /
/// `pcie` the serve is called with — the actual machine — so the loop
/// converges toward measured reality. With a cold store and `cal.model`
/// equal to the serve specs, routing is bit-identical to the uncalibrated
/// serve.
pub fn serve_with<'a>(
    gpu: &mut Gpu,
    cpu: &CpuSpec,
    pcie: &PcieSpec,
    table: &FactTable<'a>,
    tenants: &'a [Vec<StarQuery>],
    cfg: &ServerConfig,
    mut cal: Option<&mut Calibration<'_>>,
) -> ServeReport {
    let exec_before = gpu.exec_stats();
    let mut sess = DeviceSession::open(gpu, cfg.device_budget, pcie);
    let nt = tenants.len();
    let quantum = cfg.quantum_rows() as f64;

    let mut next_q = vec![0usize; nt];
    let mut deficit = vec![0.0f64; nt];
    let mut inflight: Vec<InFlight<'a>> = Vec::new();
    let mut completed: Vec<CompletedQuery> = Vec::new();
    let (mut host_clock, mut dev_clock) = (0.0f64, 0.0f64);
    let (mut host_busy, mut dev_busy) = (0.0f64, 0.0f64);
    // Time of the latest completion event processed — the scheduler's
    // "now" for admission decisions.
    let mut now = 0.0f64;
    let (mut admit_ptr, mut host_ptr, mut dev_ptr) = (0usize, 0usize, 0usize);

    loop {
        // Admission: fill free slots round-robin across tenants with
        // pending work and nothing in flight.
        while inflight.len() < cfg.max_inflight.max(1) {
            let mut admitted = false;
            for k in 0..nt {
                let t = (admit_ptr + k) % nt;
                if next_q[t] >= tenants[t].len() || inflight.iter().any(|j| j.tenant == t) {
                    continue;
                }
                let idx = next_q[t];
                let q = &tenants[t][idx];
                let (decision, per_row_host_secs) =
                    place(cal.as_deref(), &sess, table, q, cpu, pcie);
                let busy = |b: Backend| inflight.iter().any(|j| j.job.backend() == b);
                // Idle-resource steering keeps both executors busy:
                // an idle device is offered the query even when the
                // cost model says Host (its cycles are free and its
                // uploads warm the shared cache); symmetrically, an
                // idle host keeps a query even when the warm model
                // says Coprocessor. With both busy, the residency-
                // aware cost model decides.
                let want_device = if !busy(Backend::Device) {
                    true
                } else if !busy(Backend::Host) {
                    false
                } else {
                    decision.placement == Placement::Coprocessor
                };
                let mut profile = QueryProfile {
                    placement: Some(decision),
                    ..QueryProfile::empty(q)
                };
                // Admission control: the device job pins its working set by
                // holding its `Rc`s; an OOM falls back to the host.
                let mut admitted_device = None;
                if want_device {
                    let mut device = DeviceQueryJob::over(table, q);
                    match device.admit(&mut sess) {
                        Ok(()) => {
                            let charge = device.settle();
                            dev_clock = dev_clock.max(now) + charge;
                            dev_busy += charge;
                            admitted_device = Some(Job::Device(Box::new(device)));
                        }
                        Err(_) => {
                            profile = QueryProfile {
                                placement: profile.placement,
                                ..device.abandon(&mut sess)
                            }
                        }
                    }
                }
                let job = admitted_device.unwrap_or_else(|| {
                    host_clock = host_clock.max(now);
                    host_job(table, q)
                });
                next_q[t] += 1;
                inflight.push(InFlight {
                    tenant: t,
                    index: idx,
                    admitted_at: now,
                    per_row_host_secs,
                    profile,
                    job,
                });
                admit_ptr = (t + 1) % nt;
                admitted = true;
                break;
            }
            if !admitted {
                break;
            }
        }

        if inflight.is_empty() {
            // Nothing running and (since host admission is infallible)
            // nothing left to admit: the streams are drained.
            debug_assert!((0..nt).all(|t| next_q[t] >= tenants[t].len()));
            break;
        }

        // Grant on the resource whose clock lags (that is what runs
        // "next" when both are busy; a resource without jobs idles).
        let has = |b: Backend| inflight.iter().any(|j| j.job.backend() == b);
        let res = match (has(Backend::Host), has(Backend::Device)) {
            (true, true) if host_clock <= dev_clock => Backend::Host,
            (true, false) => Backend::Host,
            _ => Backend::Device,
        };

        // Deficit round robin across tenants with a job on this resource.
        let ptr = if res == Backend::Host {
            &mut host_ptr
        } else {
            &mut dev_ptr
        };
        let (t, pos) = (0..nt)
            .filter_map(|k| {
                let t = (*ptr + k) % nt;
                inflight
                    .iter()
                    .position(|j| j.tenant == t && j.job.backend() == res)
                    .map(|pos| (t, pos))
            })
            .next()
            .expect("a job exists on the granted resource");
        *ptr = (t + 1) % nt;
        deficit[t] += quantum;
        let j = &mut inflight[pos];
        let remaining = j.job.remaining_rows();
        let grant = remaining.min(deficit[t] as usize).max(1);
        deficit[t] -= grant as f64;

        let stepped = j.job.step(&mut sess, grant);
        let done = match (&mut j.job, stepped) {
            (Job::Host(_), Ok(done)) => {
                let secs = grant.min(remaining) as f64 * j.per_row_host_secs;
                host_clock += secs;
                host_busy += secs;
                *j.profile.host_secs.get_or_insert(0.0) += secs;
                done
            }
            // Later shards upload (or prefetch) as a sharded job advances:
            // the job re-evaluates its overlapped makespan with what it has
            // shipped and launched so far, and the clock is charged the
            // delta.
            (Job::Device(device), Ok(done)) => {
                let charge = device.settle();
                dev_clock += charge;
                dev_busy += charge;
                done
            }
            // The next shard no longer fits beside the other tenants'
            // pinned sets: discard the device half and restart the whole
            // query on the host (the restart is what keeps the result
            // byte-identical). The profile keeps what the half had cost.
            (_, Err(_)) => {
                let q = &tenants[j.tenant][j.index];
                if let Job::Device(half) = std::mem::replace(&mut j.job, host_job(table, q)) {
                    j.profile = QueryProfile {
                        placement: j.profile.placement.take(),
                        oom_restarts: 1,
                        ..half.abandon(&mut sess)
                    };
                }
                host_clock = host_clock.max(now);
                false
            }
        };

        if done {
            let j = inflight.swap_remove(pos);
            deficit[j.tenant] = 0.0;
            let backend = j.job.backend();
            let completed_at = match backend {
                Backend::Host => host_clock,
                Backend::Device => dev_clock,
            };
            now = now.max(completed_at);
            let profile = j.job.finish(j.profile);
            // Close the loop: feed the completed query's charged times
            // back into the store as an observation against the model
            // profile's predictions.
            if let Some(c) = cal.as_mut() {
                let q = &tenants[j.tenant][j.index];
                copro::record_observation(c.store, &c.model, table, q, &profile);
            }
            completed.push(CompletedQuery {
                tenant: j.tenant,
                index: j.index,
                backend,
                admitted_at: j.admitted_at,
                completed_at,
                profile,
            });
        }
    }

    let exec = sess.gpu().exec_stats().since(&exec_before);
    let stats = sess.stats().clone();
    ServeReport {
        oom_restarts: completed.iter().map(|c| c.oom_restarts).sum(),
        completed,
        makespan_secs: host_clock.max(dev_clock),
        host_busy_secs: host_busy,
        device_busy_secs: dev_busy,
        stats,
        exec,
    }
}

/// The serial baseline: each tenant replayed to completion in turn
/// through a **fresh** device session (today's one-tenant-per-session
/// lifecycle), every query run whole where the residency-aware cost
/// model places it ([`copro::execute_placed`]) and charged its profile's
/// seconds — the modelled host scan, or transfer plus kernels back to
/// back — on one clock, no overlap: the denominator of the contention
/// speedup.
pub fn serve_serial(
    gpu: &mut Gpu,
    cpu: &CpuSpec,
    pcie: &PcieSpec,
    d: &SsbData,
    tenants: &[Vec<StarQuery>],
    cfg: &ServerConfig,
) -> ServeReport {
    let exec_before = gpu.exec_stats();
    let table = FactTable::plain(d);
    let (mut clock, mut stats, mut completed) = (0.0f64, SessionStats::default(), Vec::new());
    for (tenant, stream) in tenants.iter().enumerate() {
        let mut sess = DeviceSession::open(gpu, cfg.device_budget, pcie);
        for (index, q) in stream.iter().enumerate() {
            let profile = copro::execute_placed(&mut sess, cpu, &table, q, 1);
            let admitted_at = clock;
            clock += profile.host_secs.unwrap_or(0.0) + profile.time.serial;
            completed.push(CompletedQuery {
                tenant,
                index,
                backend: match profile.device_segments_run {
                    0 => Backend::Host,
                    _ => Backend::Device,
                },
                admitted_at,
                completed_at: clock,
                profile,
            });
        }
        stats += sess.stats();
    }
    let busy = |secs: fn(&CompletedQuery) -> f64| completed.iter().map(secs).sum();
    ServeReport {
        makespan_secs: clock,
        host_busy_secs: busy(|c| c.host_secs.unwrap_or(0.0)),
        device_busy_secs: busy(|c| c.time.serial),
        stats,
        exec: gpu.exec_stats().since(&exec_before),
        oom_restarts: 0,
        completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystal_hardware::{intel_i7_6900, nvidia_v100, pcie_gen3, table2_profile};
    use crystal_models::calibration::BoundsSource;
    use crystal_ssb::arbitrary::random_star_query;
    use crystal_ssb::engines::reference;
    use crystal_ssb::FactEncodings;

    fn data() -> SsbData {
        SsbData::generate_scaled(1, 0.002, 20_260_730)
    }

    fn streams(d: &SsbData, tenants: usize, per_tenant: usize) -> Vec<Vec<StarQuery>> {
        (0..tenants)
            .map(|t| {
                (0..per_tenant)
                    .map(|i| random_star_query(d, 20_260_730 + (t * per_tenant + i) as u64 % 6))
                    .collect()
            })
            .collect()
    }

    /// Every served result matches the reference oracle, for every
    /// tenant, on both the concurrent and the serial path.
    #[test]
    fn served_results_match_the_oracle() {
        let d = data();
        let tenants = streams(&d, 3, 4);
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let cfg = ServerConfig::default();
        let mut gpu = Gpu::new(nvidia_v100());
        let conc = serve(&mut gpu, &cpu, &pcie, &d, &tenants, &cfg);
        let mut gpu2 = Gpu::new(nvidia_v100());
        let serial = serve_serial(&mut gpu2, &cpu, &pcie, &d, &tenants, &cfg);
        assert_eq!(conc.completed.len(), 12);
        assert_eq!(serial.completed.len(), 12);
        for (t, stream) in tenants.iter().enumerate() {
            let got = conc.tenant_results(t);
            let ser = serial.tenant_results(t);
            for (i, q) in stream.iter().enumerate() {
                let expected = reference::execute(&d, q);
                assert_eq!(*got[i], expected, "tenant {t} query {i} (concurrent)");
                assert_eq!(*ser[i], expected, "tenant {t} query {i} (serial)");
            }
        }
    }

    /// The serve report's launch counters attribute device kernels to the
    /// run: zero when nothing ran on the device, at least one fused probe
    /// launch per device query when it did, and deterministic across
    /// identical runs.
    #[test]
    fn serve_report_counts_device_launches() {
        let d = data();
        let tenants = streams(&d, 3, 4);
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let cfg = ServerConfig::default();
        let mut gpu = Gpu::new(nvidia_v100());
        let a = serve(&mut gpu, &cpu, &pcie, &d, &tenants, &cfg);
        if a.device_queries() == 0 {
            assert_eq!(a.exec, ExecStats::default(), "no device work, no launches");
        } else {
            assert!(a.exec.launches >= a.device_queries() as u64);
            assert!(a.exec.hbm_read_bytes > 0);
        }
        // Counters diff from the device's cumulative ExecStats, so a
        // second serve on the same (now warm) device attributes only its
        // own launches — determinism carries over to the counters.
        let b = serve(&mut gpu, &cpu, &pcie, &d, &tenants, &cfg);
        assert!(
            b.exec.launches <= a.exec.launches,
            "warm run rebuilds nothing"
        );
    }

    /// The scheduler is deterministic: runs over the same streams produce
    /// identical completions and identical clocks — whether the dataset's
    /// dimension-part cache is empty (the first serve, and the one over a
    /// clone) or holds every half the streams join (the second, which
    /// scans no dimension, on the host or for a device build).
    #[test]
    fn serving_is_deterministic() {
        let d = data();
        let tenants = streams(&d, 4, 3);
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let cfg = ServerConfig::default();
        let mut g1 = Gpu::new(nvidia_v100());
        let a = serve(&mut g1, &cpu, &pcie, &d, &tenants, &cfg);
        let cold = d.dim_cache_stats();
        let mut g2 = Gpu::new(nvidia_v100());
        let b = serve(&mut g2, &cpu, &pcie, &d, &tenants, &cfg);
        let warm = d.dim_cache_stats();
        assert!(cold.misses > 0 && warm.misses == cold.misses && warm.hits > cold.hits);
        let dim_bytes = d.size_bytes() - d.lineorder.size_bytes();
        assert!(warm.bytes <= dim_bytes / 3, "{warm:?}");
        let (fresh, mut g3) = (d.clone(), Gpu::new(nvidia_v100()));
        let c = serve(&mut g3, &cpu, &pcie, &fresh, &tenants, &cfg);
        assert_eq!(fresh.dim_cache_stats().misses, cold.misses);
        for b in [&b, &c] {
            assert_eq!(a.makespan_secs, b.makespan_secs);
            assert_eq!(a.completed.len(), b.completed.len());
            for (x, y) in a.completed.iter().zip(&b.completed) {
                assert_eq!((x.tenant, x.index), (y.tenant, y.index));
                assert_eq!(x.result, y.result);
                assert_eq!(x.completed_at, y.completed_at);
            }
        }
    }

    /// Admission under a starved device budget falls queries back to the
    /// host instead of panicking, and the answers still hold.
    #[test]
    fn starved_device_budget_degrades_to_the_host() {
        let d = data();
        let tenants = streams(&d, 2, 3);
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let cfg = ServerConfig::default();
        // A device too small for any working set (one fact column is
        // ~48KB here): every device admission OOMs.
        let mut spec = nvidia_v100();
        spec.mem_capacity = 16 * 1024;
        let mut gpu = Gpu::new(spec);
        let report = serve(&mut gpu, &cpu, &pcie, &d, &tenants, &cfg);
        assert_eq!(report.completed.len(), 6);
        assert_eq!(report.device_queries(), 0, "nothing fits the budget");
        for (t, stream) in tenants.iter().enumerate() {
            let got = report.tenant_results(t);
            for (i, q) in stream.iter().enumerate() {
                assert_eq!(*got[i], reference::execute(&d, q), "tenant {t} query {i}");
            }
        }
    }

    /// Sharded serving is correct and deterministic: every tenant's
    /// results match the reference oracle byte-for-byte, and two runs
    /// over the same streams produce identical completions and clocks.
    #[test]
    fn sharded_serving_matches_the_oracle_deterministically() {
        let d = data();
        let pf = PartitionedFact::partition(&d, 6, &FactEncodings::plain());
        let tenants = streams(&d, 3, 4);
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let cfg = ServerConfig::default();
        let mut gpu = Gpu::new(nvidia_v100());
        let a = serve_sharded(&mut gpu, &cpu, &pcie, &d, &pf, &tenants, &cfg);
        assert_eq!(a.completed.len(), 12);
        for (t, stream) in tenants.iter().enumerate() {
            let got = a.tenant_results(t);
            for (i, q) in stream.iter().enumerate() {
                assert_eq!(
                    *got[i],
                    reference::execute(&d, q),
                    "tenant {t} query {i} (sharded)"
                );
            }
        }
        let mut g2 = Gpu::new(nvidia_v100());
        let b = serve_sharded(&mut g2, &cpu, &pcie, &d, &pf, &tenants, &cfg);
        assert_eq!(a.makespan_secs, b.makespan_secs);
        for (x, y) in a.completed.iter().zip(&b.completed) {
            assert_eq!((x.tenant, x.index), (y.tenant, y.index));
            assert_eq!(x.result, y.result);
            assert_eq!(x.completed_at, y.completed_at);
        }
    }

    /// Sharded serving under a budget smaller than the sharded working
    /// set: shards rotate through the cache (or queries restart on the
    /// host mid-flight), and every answer still matches the oracle.
    #[test]
    fn sharded_serving_survives_a_starved_budget() {
        let d = data();
        let pf = PartitionedFact::partition(&d, 8, &FactEncodings::plain());
        let tenants = streams(&d, 3, 4);
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let cfg = ServerConfig {
            device_budget: Some(pf.size_bytes() / 3),
            ..ServerConfig::default()
        };
        let mut gpu = Gpu::new(nvidia_v100());
        let report = serve_sharded(&mut gpu, &cpu, &pcie, &d, &pf, &tenants, &cfg);
        assert_eq!(report.completed.len(), 12);
        for (t, stream) in tenants.iter().enumerate() {
            let got = report.tenant_results(t);
            for (i, q) in stream.iter().enumerate() {
                assert_eq!(
                    *got[i],
                    reference::execute(&d, q),
                    "tenant {t} query {i} under pressure"
                );
            }
        }
    }

    /// The idle-device offload warms the shared cache: a repeated-shape
    /// workload ends with device placements and cache hits.
    #[test]
    fn idle_device_offload_warms_the_shared_cache() {
        let d = data();
        let tenants = streams(&d, 4, 4);
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let cfg = ServerConfig::default();
        let mut gpu = Gpu::new(nvidia_v100());
        let report = serve(&mut gpu, &cpu, &pcie, &d, &tenants, &cfg);
        assert!(report.device_queries() > 0, "offload never engaged");
        assert!(
            report.stats.col_hits > 0,
            "tenants never shared residency: {:?}",
            report.stats
        );
    }

    /// A cold calibration store is the static model bit-for-bit: the
    /// calibrated server reproduces the uncalibrated run's routing,
    /// clocks, and results exactly, and every surfaced decision still
    /// reads `Static` with zero samples at admission.
    #[test]
    fn cold_calibrated_serve_matches_static_serve_exactly() {
        let d = data();
        let tenants = streams(&d, 3, 4);
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let cfg = ServerConfig::default();
        let mut g1 = Gpu::new(nvidia_v100());
        let plain = serve(&mut g1, &cpu, &pcie, &d, &tenants, &cfg);
        let mut store = CalibrationStore::default();
        let mut cal = Calibration {
            store: &mut store,
            model: table2_profile(),
        };
        let mut g2 = Gpu::new(nvidia_v100());
        let table = FactTable::plain(&d);
        let cald = serve_with(&mut g2, &cpu, &pcie, &table, &tenants, &cfg, Some(&mut cal));
        assert_eq!(plain.makespan_secs.to_bits(), cald.makespan_secs.to_bits());
        assert_eq!(plain.completed.len(), cald.completed.len());
        for (x, y) in plain.completed.iter().zip(&cald.completed) {
            assert_eq!(
                (x.tenant, x.index, x.backend),
                (y.tenant, y.index, y.backend)
            );
            assert_eq!(x.completed_at.to_bits(), y.completed_at.to_bits());
            assert_eq!(x.result, y.result);
            // The first admissions see an empty store; only later ones may
            // have warmed past the threshold, so just check the cold ones.
            let decision = y.placement.expect("every served query is placed");
            if decision.samples == 0 {
                assert_eq!(decision.source, BoundsSource::Static);
            }
        }
    }

    /// Replaying the same streams through a shared store warms it past
    /// the trust threshold: later passes route on `Blended` bounds, the
    /// report surfaces them, and every answer still matches the oracle.
    #[test]
    fn warm_calibrated_serve_blends_and_stays_correct() {
        let d = data();
        let tenants = streams(&d, 3, 4);
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let cfg = ServerConfig::default();
        let mut store = CalibrationStore::default();
        let mut gpu = Gpu::new(nvidia_v100());
        let mut last = None;
        for _ in 0..4 {
            let mut cal = Calibration {
                store: &mut store,
                model: table2_profile(),
            };
            let cal = Some(&mut cal);
            let table = FactTable::plain(&d);
            last = Some(serve_with(
                &mut gpu, &cpu, &pcie, &table, &tenants, &cfg, cal,
            ));
        }
        let report = last.unwrap();
        assert!(
            report.completed.iter().any(|c| c
                .placement
                .is_some_and(|d| d.source == BoundsSource::Blended)),
            "four passes over a 12-query stream never warmed the store"
        );
        for (t, stream) in tenants.iter().enumerate() {
            let got = report.tenant_results(t);
            for (i, q) in stream.iter().enumerate() {
                assert_eq!(*got[i], reference::execute(&d, q), "tenant {t} query {i}");
            }
        }
    }

    /// The sharded analogue of the cold-store identity: calibrated
    /// sharded serving with an empty store reproduces the static sharded
    /// run exactly, and a warmed store keeps the answers byte-identical.
    #[test]
    fn calibrated_sharded_serve_is_cold_identical_and_warm_correct() {
        let d = data();
        let pf = PartitionedFact::partition(&d, 6, &FactEncodings::plain());
        let tenants = streams(&d, 3, 4);
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let cfg = ServerConfig::default();
        let mut g1 = Gpu::new(nvidia_v100());
        let plain = serve_sharded(&mut g1, &cpu, &pcie, &d, &pf, &tenants, &cfg);
        let mut store = CalibrationStore::default();
        let mut g2 = Gpu::new(nvidia_v100());
        let mut report = None;
        for pass in 0..3 {
            let mut cal = Calibration {
                store: &mut store,
                model: table2_profile(),
            };
            let table = FactTable::sharded(&d, &pf);
            let r = serve_with(&mut g2, &cpu, &pcie, &table, &tenants, &cfg, Some(&mut cal));
            if pass == 0 {
                assert_eq!(plain.makespan_secs.to_bits(), r.makespan_secs.to_bits());
                for (x, y) in plain.completed.iter().zip(&r.completed) {
                    assert_eq!(
                        (x.tenant, x.index, x.backend),
                        (y.tenant, y.index, y.backend)
                    );
                    assert_eq!(x.completed_at.to_bits(), y.completed_at.to_bits());
                }
            }
            report = Some(r);
        }
        for (t, stream) in tenants.iter().enumerate() {
            let got = report.as_ref().unwrap().tenant_results(t);
            for (i, q) in stream.iter().enumerate() {
                assert_eq!(
                    *got[i],
                    reference::execute(&d, q),
                    "tenant {t} query {i} (warm sharded)"
                );
            }
        }
    }
}
