//! The coprocessor execution model (Section 3.1), residency-aware.
//!
//! Data lives in host memory; per query, every referenced fact column that
//! is not already device-resident is shipped over PCIe *while* the GPU
//! executes: uploads stream on the simulated copy engine
//! ([`crystal_gpu_sim::StreamEngine`]) and the consumer kernel starts once
//! the first chunk lands, so a cold query costs the overlapped makespan
//! `ramp + max(transfer − ramp, kernels)` — no longer the serial
//! `transfer + kernels` sum. Overlap hides the kernels, not the wire:
//! even pipelined, the query cannot run faster than the transfer time,
//! and since PCIe bandwidth is far below GPU memory bandwidth the
//! transfer dominates, which is why "for all queries, the query runtime
//! in GPU coprocessor is bound by the PCIe transfer time".
//!
//! The transfer volume is whatever the [`DeviceSession`] actually
//! uploads: a cold session ships the full working set (the paper's
//! per-query coprocessor), a warm one ships only the uncached fraction —
//! zero once the stream's columns are resident, which is the
//! *data-resident* regime where the GPU's bandwidth advantage finally
//! materializes.
//!
//! **One placement path.** Every residency-aware decision — whole table
//! ([`choose_placement_resident`], and [`choose_placement_session`] which
//! reads the residency live) or per shard ([`choose_placement_sharded`])
//! — prices its [`ScanCost`] through the one bounds formula,
//! [`crystal_models::ssb::resident_coprocessor_bounds`], under the
//! factors an optional [`CalibrationStore`] has learned. No store and a
//! cold store both evaluate under the identity, so the static and the
//! calibrated decision cannot drift apart. [`choose_placement`] is the
//! paper's original transfer-only bound, kept for the Section 3.1 / 6
//! conclusions it reproduces.
//!
//! **One execution path.** [`execute_session`] and [`execute_placed`]
//! take the session to run through and an optional [`EncodedFact`]; a
//! transient session is the cold device, `None` is plain storage.

use crystal_gpu_sim::pcie::{coprocessor_time, CoprocessorTime};
use crystal_gpu_sim::Gpu;
use crystal_hardware::{CpuSpec, GpuSpec, HardwareProfile, PcieSpec};
use crystal_models::calibration::{
    Blend, BoundsSource, CalibrationStore, EncodingClass, Observation,
};
use crystal_models::ssb::{
    compressed_coprocessor_bounds, hybrid_shard_split, launch_overhead_secs,
    resident_coprocessor_bounds, star_query_launches, ScanCost,
};
use crystal_runtime::{ColumnKey, DeviceSession, SessionOom};

use crate::data::SsbData;
use crate::encoding::{EncodedFact, FactEncodings};
use crate::engines::gpu::{self, DeviceQueryJob, GpuRun};
use crate::engines::GroupAcc;
use crate::exec::{self, HostQueryJob, PipelineMode};
use crate::partition::{FactShard, PartitionedFact};
use crate::plan::{FactCol, StarQuery};
use crate::QueryResult;

/// Session cache keys of a query's referenced fact columns under `enc` —
/// the working set whose resident fraction discounts the transfer term.
pub fn working_set_keys(d: &SsbData, q: &StarQuery, enc: &FactEncodings) -> Vec<ColumnKey> {
    q.fact_columns()
        .iter()
        .map(|c| ColumnKey {
            dataset: d.fingerprint(),
            col: c.index() as u32,
            encoding: enc.get(*c),
        })
        .collect()
}

/// The device cache keys for one shard of `q`'s working set — the
/// shard-granular analogue of [`working_set_keys`], so the session's
/// eviction policy arbitrates residency shard by shard.
fn shard_working_set_keys(
    d: &SsbData,
    pf: &PartitionedFact,
    shard: usize,
    q: &StarQuery,
) -> Vec<ColumnKey> {
    let fact = pf.shard(shard).encoded();
    q.fact_columns()
        .iter()
        .map(|c| gpu::shard_column_key(d, shard, *c, fact))
        .collect()
}

/// Rows and (cold, uncalibrated) cost inputs of `q`'s referenced columns
/// over the whole table under `enc`.
fn table_cost(d: &SsbData, q: &StarQuery, enc: &FactEncodings) -> (usize, ScanCost) {
    let rows = d.lineorder.rows();
    let cols = q.fact_columns();
    let cost = ScanCost {
        packed_bytes: enc.columns_bytes(rows, &cols),
        packed_values: enc.packed_values(rows, &cols),
        ..ScanCost::default()
    };
    (rows, cost)
}

/// [`table_cost`] of one shard, under the shard's own encodings.
fn shard_cost(shard: &FactShard, cols: &[FactCol]) -> (usize, ScanCost) {
    let cost = ScanCost {
        packed_bytes: shard.columns_bytes(cols),
        packed_values: shard.packed_values(cols),
        ..ScanCost::default()
    };
    (shard.rows(), cost)
}

/// The calibration class of a cost's columns: `Packed` as soon as any
/// referenced column is bit-packed (that is when the host's unpack term
/// and the compressed transfer bound deviate from the plain constants).
fn encoding_class(cost: &ScanCost) -> EncodingClass {
    if cost.packed_values > 0 {
        EncodingClass::Packed
    } else {
        EncodingClass::Plain
    }
}

/// What `store` has learned about one evaluation of the bound; the
/// identity without a store.
fn blend_for(
    store: Option<&CalibrationStore>,
    cost: &ScanCost,
    rows: usize,
    sharded: bool,
) -> Blend {
    store.map_or_else(Blend::default, |s| {
        let uncached = cost.packed_bytes.saturating_sub(cost.resident_bytes);
        s.blend(encoding_class(cost), rows, uncached, sharded)
    })
}

/// Outcome of a coprocessor-model execution.
pub struct CoproRun {
    pub gpu_run: GpuRun,
    /// Bytes actually shipped host -> device (the uncached fraction of the
    /// referenced fact columns; the full working set on a cold session).
    pub shipped_bytes: usize,
    pub time: CoprocessorTime,
}

/// Executes a query in the coprocessor model through `sess`: ship the
/// referenced fact columns the session does not already hold, overlap
/// with the Crystal kernel execution. The PCIe transfer covers exactly
/// the bytes the session had to upload — the full working set on a fresh
/// (cold-device) session, zero for a fully resident one. Over an encoded
/// `fact`, packed columns ship as packed words (the transfer drops by the
/// compression ratio) and the GPU kernel unpacks tiles in registers.
/// Surfaces the typed [`SessionOom`] when the working set cannot fit the
/// device.
pub fn execute_session(
    sess: &mut DeviceSession<'_>,
    pcie: &PcieSpec,
    d: &SsbData,
    fact: Option<&EncodedFact>,
    q: &StarQuery,
) -> Result<CoproRun, SessionOom> {
    let before = sess.stats().clone();
    let gpu_run = match fact {
        None => gpu::execute_session(sess, d, q)?,
        Some(fact) => gpu::execute_encoded_session(sess, d, fact, q)?,
    };
    let shipped_bytes = sess.stats().uploaded_since(&before);
    let time = coprocessor_time(pcie, shipped_bytes, gpu_run.sim_secs());
    Ok(CoproRun {
        gpu_run,
        shipped_bytes,
        time,
    })
}

/// Paper-scale variant: transfer sized by the full SF fact table while the
/// execution time is scaled from the sampled run.
pub fn execute_scaled(
    gpu: &mut Gpu,
    pcie: &PcieSpec,
    d: &SsbData,
    q: &StarQuery,
    fact_scale: f64,
) -> Result<CoproRun, SessionOom> {
    let gpu_run = gpu::execute(gpu, d, q)?;
    let full_rows = (d.lineorder.rows() as f64 / fact_scale).round() as usize;
    let shipped_bytes = q.fact_columns().len() * 4 * full_rows;
    let time = coprocessor_time(pcie, shipped_bytes, gpu_run.sim_secs_scaled(fact_scale));
    Ok(CoproRun {
        gpu_run,
        shipped_bytes,
        time,
    })
}

/// Where a query runs under cost-based placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Ship the referenced fact columns over PCIe and execute on the GPU.
    Coprocessor,
    /// Keep the query on the host's morsel-driven CPU executor.
    Host,
}

impl Placement {
    /// The cheaper side of two bounds (ties stay on the host).
    fn cheaper(device_secs: f64, host_secs: f64) -> Self {
        if device_secs < host_secs {
            Placement::Coprocessor
        } else {
            Placement::Host
        }
    }
}

/// A placement decision with the Section 3.1 cost estimates behind it
/// (seconds; lower bound for the coprocessor, scan bound for the host).
#[derive(Debug, Clone, Copy)]
pub struct PlacementChoice {
    pub placement: Placement,
    pub coprocessor_secs: f64,
    pub host_secs: f64,
}

/// A placement decision with its full provenance, so misroutes are
/// debuggable instead of silent: the side chosen, the (possibly blended)
/// seconds predicted for each side, whether measured history contributed,
/// and how many observations backed it. Uncalibrated decisions carry
/// `source = Static, samples = 0`.
#[derive(Debug, Clone, Copy)]
pub struct PlacementDecision {
    /// The side the query was routed to.
    pub placement: Placement,
    /// Predicted device-side (coprocessor) seconds.
    pub device_secs: f64,
    /// Predicted host-side seconds.
    pub host_secs: f64,
    /// Whether the numbers are the analytic prior or a measured blend.
    pub source: BoundsSource,
    /// Observations backing the consulted calibration keys.
    pub samples: u64,
}

impl From<PlacementChoice> for PlacementDecision {
    fn from(c: PlacementChoice) -> Self {
        PlacementDecision {
            placement: c.placement,
            device_secs: c.coprocessor_secs,
            host_secs: c.host_secs,
            source: BoundsSource::Static,
            samples: 0,
        }
    }
}

impl PlacementDecision {
    /// The equivalent static-shaped choice (for call sites that only care
    /// about the routed side and the two bounds).
    pub fn choice(&self) -> PlacementChoice {
        PlacementChoice {
            placement: self.placement,
            coprocessor_secs: self.device_secs,
            host_secs: self.host_secs,
        }
    }
}

/// Routes a query through the `crystal-models` Section 3.1 / 6 bounds on
/// a cold device: the coprocessor can never finish before its PCIe
/// transfer (`bytes / B_pcie`), while the host CPU is bounded below by
/// streaming the same columns from DRAM (`bytes / B_cpu`). Since PCIe
/// bandwidth is far below DRAM bandwidth, the model routes every star
/// query over *plain* data to the host — which is exactly the paper's
/// conclusion ("a GPU-based system fully utilizing the CPU will always be
/// superior to a coprocessor design"); the decision is computed, not
/// hard-coded, so a future interconnect spec (e.g. NVLink-class
/// `PcieSpec`) can flip it. So can compression: the transfer ships each
/// referenced column at its *encoded* size under `enc`, so the
/// coprocessor bound drops by the compression ratio while the host's scan
/// bound gains a scalar-unpack compute term
/// (`crystal_models::ssb::compressed_coprocessor_bounds`) — past the
/// modeled flip ratio (~1.6 on the Table-2 pairing) GPU placement wins on
/// packed data over the very PCIe link that loses on plain data. Device
/// residency is the third lever ([`choose_placement_resident`]).
pub fn choose_placement(
    d: &SsbData,
    q: &StarQuery,
    enc: &FactEncodings,
    cpu: &CpuSpec,
    pcie: &PcieSpec,
) -> PlacementChoice {
    let (_, cost) = table_cost(d, q, enc);
    let (coprocessor_secs, host_secs) =
        compressed_coprocessor_bounds(cost.packed_bytes, cost.packed_values, cpu, pcie);
    PlacementChoice {
        placement: Placement::cheaper(coprocessor_secs, host_secs),
        coprocessor_secs,
        host_secs,
    }
}

/// The residency-aware routing: `resident_bytes` of the query's working
/// set are already device-cached, so the Section 3.1 transfer term drops
/// to the uncached fraction (floored by the device's own memory scan).
/// Once the working set is warm this flips Host → Coprocessor even on
/// PCIe Gen3 and *plain* data — the paper's data-resident regime, derived
/// from the same cost model that rejects the cold coprocessor.
///
/// With a `store`, each cost component is scaled by its key's blended
/// observed/predicted factor and the decision reports the history behind
/// it; `None` and a cold store both evaluate the static bound.
#[allow(clippy::too_many_arguments)]
pub fn choose_placement_resident(
    store: Option<&CalibrationStore>,
    d: &SsbData,
    q: &StarQuery,
    enc: &FactEncodings,
    cpu: &CpuSpec,
    gpu: &GpuSpec,
    pcie: &PcieSpec,
    resident_bytes: usize,
) -> PlacementDecision {
    let (rows, mut cost) = table_cost(d, q, enc);
    cost.resident_bytes = resident_bytes;
    // The whole star query is one fused megakernel, so the device side
    // carries exactly one launch of overhead. On a sampled proxy table
    // the fixed launch term scales with the proxy fraction, mirroring
    // `sim_secs_scaled` so the routing stays faithful to the full-scale
    // comparison. The launch term stays analytic under calibration — it
    // is a fixed per-dispatch constant far below the noise floor of
    // per-query timing, and folding it into the kernel key would let a
    // few launch-dominated small queries corrupt the bandwidth estimate.
    let fact_scale = rows as f64 / (6_000_000 * d.sf) as f64;
    cost.launch_secs =
        fact_scale.min(1.0) * launch_overhead_secs(gpu, star_query_launches(q.joins.len(), true));
    let blend = blend_for(store, &cost, rows, false);
    cost.factors = blend.factors;
    let (device_secs, host_secs) = resident_coprocessor_bounds(&cost, cpu, gpu, pcie);
    PlacementDecision {
        placement: Placement::cheaper(device_secs, host_secs),
        device_secs,
        host_secs,
        source: blend.source,
        samples: blend.samples,
    }
}

/// The static [`choose_placement_resident`] with the residency read live
/// from a session's cache and the device spec taken from the session.
/// (A calibrated caller passes its *model* profile's spec explicitly
/// instead: the whole point of calibration is that the hardware the
/// session actually simulates may deviate from the spec sheet the prior
/// believes.)
pub fn choose_placement_session(
    sess: &DeviceSession<'_>,
    d: &SsbData,
    q: &StarQuery,
    enc: &FactEncodings,
    cpu: &CpuSpec,
    pcie: &PcieSpec,
) -> PlacementChoice {
    let resident = sess.resident_bytes(&working_set_keys(d, q, enc));
    choose_placement_resident(None, d, q, enc, cpu, sess.spec(), pcie, resident).choice()
}

/// Outcome of a placement-routed execution.
pub struct PlacedRun {
    pub choice: PlacementChoice,
    pub result: QueryResult,
    /// Present when the query actually ran in the coprocessor model.
    pub copro: Option<CoproRun>,
}

/// Executes a query wherever [`choose_placement_session`] routes it: the
/// morsel-driven CPU executor on the host, or the PCIe-shipped GPU path
/// through `sess` — over plain storage, or over `fact`'s encodings (the
/// host's fused-unpack executor vs the packed-transfer GPU path).
/// Residency accrued by earlier queries in the session steers later
/// ones: cold, the routing is the paper's transfer-bound comparison;
/// once a query's columns are warm it flips to the coprocessor and the
/// execution ships only the uncached bytes. A device that cannot hold
/// the working set falls back to the host pipeline instead of aborting
/// the query.
pub fn execute_placed(
    sess: &mut DeviceSession<'_>,
    pcie: &PcieSpec,
    cpu: &CpuSpec,
    d: &SsbData,
    fact: Option<&EncodedFact>,
    q: &StarQuery,
    threads: usize,
) -> PlacedRun {
    let enc = fact.map_or_else(FactEncodings::plain, EncodedFact::encodings);
    let choice = choose_placement_session(sess, d, q, &enc, cpu, pcie);
    let copro = match choice.placement {
        Placement::Coprocessor => execute_session(sess, pcie, d, fact, q).ok(),
        Placement::Host => None,
    };
    let result = match (&copro, fact) {
        (Some(run), _) => run.gpu_run.result.clone(),
        (None, None) => exec::execute(d, q, threads, PipelineMode::Vectorized).0,
        (None, Some(fact)) => {
            exec::execute_encoded(d, fact, q, threads, PipelineMode::Vectorized).0
        }
    };
    PlacedRun {
        choice,
        result,
        copro,
    }
}

/// Per-shard placement over a partitioned fact table: each live (unpruned)
/// shard is routed independently through the residency-aware bound, so hot
/// shards run on the device while cold ones stay on the host — the two
/// sides proceed concurrently, which is what makes the split worthwhile.
pub struct ShardedChoice {
    /// Shards that survive zone-map pruning, ascending.
    pub live: Vec<usize>,
    /// Live shards the bound routes to the device.
    pub device_shards: Vec<usize>,
    /// Live shards the bound keeps on the host.
    pub host_shards: Vec<usize>,
    /// Modeled device-side seconds across `device_shards`.
    pub device_secs: f64,
    /// Modeled host-side seconds across `host_shards`.
    pub host_secs: f64,
    /// Total device bound had every live shard run on the device — the
    /// whole-query coprocessor alternative a scheduler compares against.
    pub device_only_secs: f64,
    /// Total host bound had every live shard run on the host.
    pub host_only_secs: f64,
    /// Whether any shard's bounds drew on measured history.
    pub source: BoundsSource,
    /// Total observations backing the consulted shard keys.
    pub samples: u64,
}

impl ShardedChoice {
    /// The hybrid completion time: both sides run concurrently, so the
    /// query finishes when the slower side does.
    pub fn hybrid_secs(&self) -> f64 {
        self.device_secs.max(self.host_secs)
    }

    /// The whole-query summary of the split: the two all-on-one-side
    /// totals, compared the way a scheduler that places whole queries
    /// compares them.
    pub fn decision(&self) -> PlacementDecision {
        PlacementDecision {
            placement: Placement::cheaper(self.device_only_secs, self.host_only_secs),
            device_secs: self.device_only_secs,
            host_secs: self.host_only_secs,
            source: self.source,
            samples: self.samples,
        }
    }
}

/// Routes each live shard of `pf` to device or host by the same
/// residency-aware bound [`choose_placement_resident`] applies to the
/// whole table — evaluated per shard, with residency read live from the
/// session's cache under the shard-granular keys, and no launch term
/// (the launch is paid once per query, whichever shards it covers). With
/// a `store`, each shard is priced under its own shard-granular
/// calibration key (cardinality band of the *shard's* rows, `sharded =
/// true`, so whole-table history never aliases in).
#[allow(clippy::too_many_arguments)]
pub fn choose_placement_sharded(
    store: Option<&CalibrationStore>,
    sess: &DeviceSession<'_>,
    d: &SsbData,
    pf: &PartitionedFact,
    q: &StarQuery,
    cpu: &CpuSpec,
    gpu: &GpuSpec,
    pcie: &PcieSpec,
) -> ShardedChoice {
    let live = pf.live_shards(q);
    let cols = q.fact_columns();
    let (mut source, mut samples) = (BoundsSource::Static, 0);
    let costs: Vec<ScanCost> = live
        .iter()
        .map(|&s| {
            let (rows, mut cost) = shard_cost(pf.shard(s), &cols);
            cost.resident_bytes = sess.resident_bytes(&shard_working_set_keys(d, pf, s, q));
            let blend = blend_for(store, &cost, rows, true);
            if blend.source == BoundsSource::Blended {
                source = BoundsSource::Blended;
            }
            samples += blend.samples;
            cost.factors = blend.factors;
            cost
        })
        .collect();
    let split = hybrid_shard_split(&costs, cpu, gpu, pcie);
    ShardedChoice {
        device_shards: split.device_shards.iter().map(|&i| live[i]).collect(),
        host_shards: split.host_shards.iter().map(|&i| live[i]).collect(),
        device_secs: split.device_secs,
        host_secs: split.host_secs,
        device_only_secs: split.device_only_secs,
        host_only_secs: split.host_only_secs,
        source,
        samples,
        live,
    }
}

/// Outcome of a hybrid sharded execution.
pub struct ShardedPlacedRun {
    pub choice: ShardedChoice,
    pub result: QueryResult,
    /// Bytes the device side actually shipped over PCIe.
    pub shipped_bytes: usize,
    /// Shards that completed on the device (OOM shards fall back to host).
    pub device_shards_run: usize,
    /// Fact rows scanned after pruning, across both sides.
    pub scanned_rows: usize,
}

/// Executes `q` over the partitioned fact table with per-shard placement:
/// device-routed shards run through the session (and fall back to the
/// host individually on OOM), host-routed shards run through the morsel
/// executor, and the two partial aggregates merge — aggregation is
/// commutative addition, so the merged result is byte-identical to the
/// unsharded pipeline's.
pub fn execute_placed_sharded(
    sess: &mut DeviceSession<'_>,
    pcie: &PcieSpec,
    cpu: &CpuSpec,
    d: &SsbData,
    pf: &PartitionedFact,
    q: &StarQuery,
) -> ShardedPlacedRun {
    let choice = choose_placement_sharded(None, sess, d, pf, q, cpu, sess.spec(), pcie);
    let before = sess.stats().clone();
    let mut groups = GroupAcc::new(q.group_domain());
    let mut scanned_rows = 0usize;
    let mut device_shards_run = 0usize;
    let mut host_ids = choice.host_shards.clone();
    for &s in &choice.device_shards {
        match run_device_shard(sess, d, pf, s, q) {
            Ok((shard_groups, rows)) => {
                groups.merge(&shard_groups);
                scanned_rows += rows;
                device_shards_run += 1;
            }
            // This shard's working set does not fit alongside what the
            // session already holds: run it on the host instead.
            Err(_) => host_ids.push(s),
        }
    }
    host_ids.sort_unstable();
    if !host_ids.is_empty() {
        let mut job = HostQueryJob::with_shards(d, pf, q, &host_ids, PipelineMode::Vectorized);
        while !job.step(usize::MAX) {}
        scanned_rows += job.rows_scanned();
        groups.merge(&job.into_groups());
    }
    ShardedPlacedRun {
        choice,
        result: groups.to_result(q),
        shipped_bytes: sess.stats().uploaded_since(&before),
        device_shards_run,
        scanned_rows,
    }
}

/// Runs one shard to completion on the device — the one-segment device
/// job — returning its groups and scanned row count. A [`SessionOom`] at
/// admission leaves the session clean; once admitted a shard always
/// completes.
fn run_device_shard(
    sess: &mut DeviceSession<'_>,
    d: &SsbData,
    pf: &PartitionedFact,
    shard: usize,
    q: &StarQuery,
) -> Result<(GroupAcc, usize), SessionOom> {
    let mut job = DeviceQueryJob::admit_shards(sess, d, pf, &[shard], q)?;
    while !job.step(sess, usize::MAX)? {}
    let rows = job.rows_scanned();
    let groups = job.into_groups().expect("its one segment was admitted");
    Ok((groups, rows))
}

/// What one executed query measured, for the calibration loop: the bytes
/// its session really uploaded (zero for a warm hit, which then carries
/// no transfer information), the serialized PCIe seconds they took, and
/// the seconds of the side it actually ran on.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measured {
    pub shipped_bytes: usize,
    pub transfer_secs: f64,
    /// Device kernel seconds (`None` for a host run).
    pub kernel_secs: Option<f64>,
    /// Host seconds (`None` for a device run).
    pub host_secs: Option<f64>,
}

/// Records one executed query's measured component seconds into the
/// store, against what the static model on the `model` (spec-sheet)
/// profile predicted. A whole-table run (`pf = None`) is keyed under the
/// table's rows and `enc`. A sharded run is one observation aggregated
/// over `q`'s live shards under their own encodings (`enc` is not
/// consulted), keyed under the mean live shard's cardinality band with
/// `sharded = true` — shards are equal-range slices of the fact table,
/// so the mean band is the band the split consults at decision time; a
/// fully pruned query records nothing.
pub fn record_observation(
    store: &mut CalibrationStore,
    model: &HardwareProfile,
    d: &SsbData,
    pf: Option<&PartitionedFact>,
    q: &StarQuery,
    enc: &FactEncodings,
    m: &Measured,
) {
    let (rows, cost) = match pf {
        None => table_cost(d, q, enc),
        Some(pf) => {
            let live = pf.live_shards(q);
            if live.is_empty() {
                return;
            }
            let cols = q.fact_columns();
            let (mut rows, mut total) = (0usize, ScanCost::default());
            for &s in &live {
                let (shard_rows, cost) = shard_cost(pf.shard(s), &cols);
                rows += shard_rows;
                total.packed_bytes += cost.packed_bytes;
                total.packed_values += cost.packed_values;
            }
            (rows / live.len(), total)
        }
    };
    let obs = Observation {
        rows,
        enc: encoding_class(&cost),
        sharded: pf.is_some(),
        packed_bytes: cost.packed_bytes,
        packed_values: cost.packed_values,
        shipped_bytes: m.shipped_bytes,
        transfer_secs: m.transfer_secs,
        kernel_secs: m.kernel_secs,
        host_secs: m.host_secs,
    };
    store.record(&obs, &model.cpu, &model.gpu, &model.pcie);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{all_queries, query, QueryId};
    use crystal_hardware::{intel_i7_6900, nvidia_v100, pcie_gen3};

    #[test]
    fn coprocessor_queries_are_transfer_bound() {
        let d = SsbData::generate_scaled(1, 0.01, 41); // 60k rows
        let mut gpu = Gpu::new(nvidia_v100());
        let pcie = pcie_gen3();
        let q = query(&d, QueryId::new(1, 1));
        let run = execute_scaled(&mut gpu, &pcie, &d, &q, 0.01).unwrap();
        // 4 columns x 6M rows x 4B = 96 MB at SF 1 -> transfer ~7.5 ms,
        // far above the ~0.1 ms of scaled GPU execution.
        assert!(run.time.transfer > run.time.exec, "transfer must dominate");
        assert!((run.time.overlapped - run.time.transfer).abs() < 1e-12);
        assert_eq!(run.shipped_bytes, 4 * 4 * 6_000_000);
    }

    /// With PCIe Gen3 below DRAM bandwidth, the cost model routes every
    /// query to the host — Section 3.1's conclusion, derived not assumed.
    #[test]
    fn placement_routes_to_host_over_pcie_gen3() {
        let d = SsbData::generate_scaled(1, 0.002, 7);
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let plain = FactEncodings::plain();
        for q in all_queries(&d) {
            let c = choose_placement(&d, &q, &plain, &cpu, &pcie);
            assert_eq!(c.placement, Placement::Host, "{}", q.name);
            assert!(c.coprocessor_secs > c.host_secs, "{}", q.name);
        }
    }

    /// Compression flips the routing over the *same* PCIe Gen3 link that
    /// loses on plain data: min-width packing shrinks the transfer past
    /// the modeled flip ratio, so scan-dominated queries move to the GPU,
    /// and the routed result stays byte-identical to the oracle.
    #[test]
    fn compression_flips_placement_to_the_coprocessor() {
        use crate::engines::reference;
        let d = SsbData::generate_scaled(1, 0.002, 7);
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let enc = FactEncodings::packed_min(&d);
        let q = query(&d, QueryId::new(1, 1));

        let plain = choose_placement(&d, &q, &FactEncodings::plain(), &cpu, &pcie);
        assert_eq!(plain.placement, Placement::Host);
        let packed = choose_placement(&d, &q, &enc, &cpu, &pcie);
        assert_eq!(packed.placement, Placement::Coprocessor);
        // The packed transfer bound is below the plain one by the ratio.
        assert!(packed.coprocessor_secs < plain.coprocessor_secs / 1.5);

        let fact = EncodedFact::encode(&d, &enc);
        let mut gpu = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::new(&mut gpu);
        let run = execute_placed(&mut sess, &pcie, &cpu, &d, Some(&fact), &q, 4);
        assert_eq!(run.choice.placement, Placement::Coprocessor);
        let copro = run.copro.expect("coprocessor run");
        assert_eq!(
            copro.shipped_bytes,
            enc.columns_bytes(d.lineorder.rows(), &q.fact_columns())
        );
        assert!(copro.shipped_bytes < q.fact_columns().len() * 4 * d.lineorder.rows());
        assert_eq!(run.result, reference::execute(&d, &q));
    }

    /// Admission OOM on the fused single-table job: the router picks the
    /// coprocessor (a link faster than host DRAM), the device cannot hold
    /// even one fact column, and the placed run silently completes on the
    /// host — byte-identical to the vectorized CPU result.
    #[test]
    fn admit_oom_falls_back_to_the_host_byte_identically() {
        let d = SsbData::generate_scaled(1, 0.002, 7);
        let cpu = intel_i7_6900();
        let mut link = pcie_gen3();
        link.bandwidth = cpu.read_bw * 4.0;
        let q = query(&d, QueryId::new(2, 1));
        let expected = exec::execute(&d, &q, 4, PipelineMode::Vectorized).0;

        let mut spec = nvidia_v100();
        spec.mem_capacity = 8 * 1024; // not even one fact column fits
        let mut gpu = Gpu::new(spec);
        let mut sess = DeviceSession::new(&mut gpu);
        let run = execute_placed(&mut sess, &link, &cpu, &d, None, &q, 4);
        assert_eq!(run.choice.placement, Placement::Coprocessor);
        assert!(run.copro.is_none(), "device admission must have failed");
        assert_eq!(run.result, expected, "host fallback diverged");
    }

    /// Residency flips the routing over PCIe Gen3 on *plain* data: once a
    /// session has the working set warm, the uncached transfer term drops
    /// to zero and the device-memory scan undercuts the host's DRAM scan.
    /// The routed warm execution ships zero bytes and matches the oracle.
    #[test]
    fn residency_flips_placement_to_the_coprocessor() {
        use crate::engines::reference;
        let d = SsbData::generate_scaled(1, 0.002, 7);
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let q = query(&d, QueryId::new(1, 1));
        let expected = reference::execute(&d, &q);

        let mut gpu = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::new(&mut gpu);

        // Cold: the session holds nothing, so the routing is the paper's
        // Host conclusion and the query runs on the CPU (no residency is
        // accrued by a host run).
        let cold = execute_placed(&mut sess, &pcie, &cpu, &d, None, &q, 4);
        assert_eq!(cold.choice.placement, Placement::Host);
        assert_eq!(cold.result, expected);

        // Warm the working set (e.g. an operator pinned the stream's hot
        // columns, or a forced device run shipped them once).
        let warm_run = execute_session(&mut sess, &pcie, &d, None, &q).unwrap();
        assert_eq!(warm_run.gpu_run.result, expected);
        assert!(warm_run.shipped_bytes > 0);

        // Warm: the same cost model now routes to the coprocessor, the
        // execution ships nothing, and the result is still the oracle's.
        let warm = execute_placed(&mut sess, &pcie, &cpu, &d, None, &q, 4);
        assert_eq!(warm.choice.placement, Placement::Coprocessor);
        assert!(warm.choice.coprocessor_secs < warm.choice.host_secs);
        let copro = warm.copro.expect("coprocessor run");
        assert_eq!(copro.shipped_bytes, 0, "warm run ships nothing");
        assert!(
            (copro.time.transfer - 0.0).abs() < 1e-18,
            "zero simulated transfer time on fact columns"
        );
        assert_eq!(warm.result, expected);
    }

    /// A hypothetical interconnect faster than DRAM flips the decision —
    /// the routing is genuinely cost-based.
    #[test]
    fn placement_flips_with_a_fast_interconnect() {
        let d = SsbData::generate_scaled(1, 0.002, 7);
        let cpu = intel_i7_6900();
        let mut fast = pcie_gen3();
        fast.bandwidth = cpu.read_bw * 4.0;
        let q = query(&d, QueryId::new(1, 1));
        let c = choose_placement(&d, &q, &FactEncodings::plain(), &cpu, &fast);
        assert_eq!(c.placement, Placement::Coprocessor);
    }

    /// Per-shard residency splits one query across both processors: warm
    /// shards route to the device, cold shards stay on the host, and the
    /// merged hybrid result is byte-identical to the unsharded pipeline.
    #[test]
    fn sharded_placement_routes_hot_shards_to_the_device() {
        let d = SsbData::generate_scaled(1, 0.004, 11);
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let pf = PartitionedFact::partition(&d, 4, &FactEncodings::plain());
        // q2.1 filters only through dimensions: every shard stays live.
        let q = query(&d, QueryId::new(2, 1));
        let expected = exec::execute(&d, &q, 4, PipelineMode::Vectorized).0;

        let mut gpu = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::new(&mut gpu);

        // Cold: nothing resident, so every live shard routes to the host
        // — the whole-table Gen3 conclusion, reproduced shard-wise.
        let cold = choose_placement_sharded(None, &sess, &d, &pf, &q, &cpu, sess.spec(), &pcie);
        assert_eq!(cold.live.len(), pf.shard_count());
        assert!(cold.device_shards.is_empty());
        assert_eq!(cold.host_shards, cold.live);

        // Warm shards 0 and 2 on the device.
        for s in [0usize, 2] {
            run_device_shard(&mut sess, &d, &pf, s, &q).unwrap();
        }

        // Warm: exactly the warmed shards flip to the device, and the
        // hybrid (concurrent max) beats running everything on the host.
        let warm = choose_placement_sharded(None, &sess, &d, &pf, &q, &cpu, sess.spec(), &pcie);
        assert_eq!(warm.device_shards, vec![0, 2]);
        assert_eq!(warm.host_shards, vec![1, 3]);
        assert!(warm.hybrid_secs() < cold.host_secs);

        let run = execute_placed_sharded(&mut sess, &pcie, &cpu, &d, &pf, &q);
        assert_eq!(run.device_shards_run, 2);
        assert_eq!(run.shipped_bytes, 0, "warm shards ship nothing");
        assert_eq!(run.scanned_rows, d.lineorder.rows());
        assert_eq!(run.result, expected);
    }

    /// Zone-map pruning composes with hybrid placement: a date-filtered
    /// query scans only the live shards' rows and still merges to the
    /// unsharded answer.
    #[test]
    fn sharded_placement_prunes_before_placing() {
        let d = SsbData::generate_scaled(1, 0.004, 11);
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let pf = PartitionedFact::partition(&d, 8, &FactEncodings::plain());
        let q = query(&d, QueryId::new(1, 1)); // one-year date predicate
        let expected = exec::execute(&d, &q, 4, PipelineMode::Vectorized).0;

        let mut gpu = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::new(&mut gpu);
        let choice = choose_placement_sharded(None, &sess, &d, &pf, &q, &cpu, sess.spec(), &pcie);
        assert!(
            choice.live.len() < pf.shard_count(),
            "a one-year predicate must prune some of 8 shards over 7 years"
        );

        let run = execute_placed_sharded(&mut sess, &pcie, &cpu, &d, &pf, &q);
        assert_eq!(run.scanned_rows, pf.live_rows(&q));
        assert!(run.scanned_rows < d.lineorder.rows());
        assert_eq!(run.result, expected);
    }

    /// A shard the cost model routes to the device but that no longer
    /// fits (its columns are resident, but the device has no physical
    /// room left for the hash tables) falls back to the host
    /// *individually* — the query completes with the exact unsharded
    /// answer instead of erroring.
    #[test]
    fn device_shard_oom_falls_back_to_the_host() {
        use crystal_runtime::HostCol;
        use crystal_storage::encoding::EncodedColumn;

        let d = SsbData::generate_scaled(1, 0.004, 11);
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let pf = PartitionedFact::partition(&d, 4, &FactEncodings::plain());
        let q = query(&d, QueryId::new(2, 1));
        let expected = exec::execute(&d, &q, 4, PipelineMode::Vectorized).0;
        let cols = q.fact_columns();

        // Device capacity = shard 0's fact columns + 1 KiB: warming the
        // columns fits exactly, but admission (columns pinned + hash
        // tables) cannot — the typed OOM comes from physical capacity,
        // not the soft cache budget.
        let mut spec = nvidia_v100();
        spec.mem_capacity = pf.shard(0).columns_bytes(&cols) + 1024;
        let mut gpu = Gpu::new(spec);
        let mut sess = DeviceSession::with_budget(&mut gpu, usize::MAX);
        let qid = sess.begin_query();
        for &c in &cols {
            let key = gpu::shard_column_key(&d, 0, c, pf.shard(0).encoded());
            match pf.shard(0).encoded().encoded(c) {
                EncodedColumn::Plain(v) => sess.pin_column(qid, key, HostCol::Plain(v)).unwrap(),
                EncodedColumn::Packed(p) => sess.pin_column(qid, key, HostCol::Packed(p)).unwrap(),
            };
        }
        sess.end_query(qid);

        // The model sees shard 0 fully resident and routes it to the
        // device; execution discovers the working set no longer fits.
        let choice = choose_placement_sharded(None, &sess, &d, &pf, &q, &cpu, sess.spec(), &pcie);
        assert_eq!(choice.device_shards, vec![0]);

        let evictions_before = sess.stats().evictions;
        let run = execute_placed_sharded(&mut sess, &pcie, &cpu, &d, &pf, &q);
        assert_eq!(run.device_shards_run, 0, "the OOM shard ran on the host");
        assert_eq!(run.scanned_rows, d.lineorder.rows());
        assert_eq!(run.result, expected);
        // The failed admission released its pins without evicting the
        // warm columns (they were the only residents and stayed pinned
        // until the admission unwound).
        assert_eq!(sess.stats().evictions, evictions_before);
    }

    /// No store and a cold store are the same evaluation: every decision
    /// — and both bounds — agree bit for bit, across all queries,
    /// encodings, and residency levels, whole-table and per shard.
    #[test]
    fn cold_store_reproduces_static_placement_bit_for_bit() {
        let d = SsbData::generate_scaled(1, 0.004, 11);
        let cpu = intel_i7_6900();
        let gpu = nvidia_v100();
        let pcie = pcie_gen3();
        let store = CalibrationStore::new();
        for enc in [FactEncodings::plain(), FactEncodings::packed_min(&d)] {
            for q in all_queries(&d) {
                let ws = enc.columns_bytes(d.lineorder.rows(), &q.fact_columns());
                for resident in [0, ws / 2, ws] {
                    let place = |store| {
                        choose_placement_resident(store, &d, &q, &enc, &cpu, &gpu, &pcie, resident)
                    };
                    let (stat, cal) = (place(None), place(Some(&store)));
                    assert_eq!(cal.placement, stat.placement, "{}", q.name);
                    assert_eq!(cal.device_secs.to_bits(), stat.device_secs.to_bits());
                    assert_eq!(cal.host_secs.to_bits(), stat.host_secs.to_bits());
                    assert_eq!((cal.source, cal.samples), (BoundsSource::Static, 0));
                }
            }
        }

        let pf = PartitionedFact::partition(&d, 4, &FactEncodings::plain());
        let q = query(&d, QueryId::new(2, 1));
        let mut device = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::new(&mut device);
        for s in [0usize, 2] {
            run_device_shard(&mut sess, &d, &pf, s, &q).unwrap();
        }
        let split =
            |store| choose_placement_sharded(store, &sess, &d, &pf, &q, &cpu, sess.spec(), &pcie);
        let (stat, cal) = (split(None), split(Some(&store)));
        assert_eq!(cal.device_shards, stat.device_shards);
        assert_eq!(cal.host_shards, stat.host_shards);
        for (c, s) in [
            (cal.device_secs, stat.device_secs),
            (cal.host_secs, stat.host_secs),
            (cal.device_only_secs, stat.device_only_secs),
            (cal.host_only_secs, stat.host_only_secs),
        ] {
            assert_eq!(c.to_bits(), s.to_bits());
        }
        assert_eq!((cal.source, cal.samples), (BoundsSource::Static, 0));
    }

    /// Observed executions on a machine whose PCIe link runs at half
    /// spec flip a packed query's routing from the device back to the
    /// host — the closed loop the calibration layer exists for.
    #[test]
    fn observed_slow_transfers_flip_calibrated_placement() {
        let d = SsbData::generate_scaled(1, 0.002, 7);
        let model = crystal_hardware::table2_profile();
        let enc = FactEncodings::packed_min(&d);
        let q = query(&d, QueryId::new(1, 1));

        // Premise: the static compression-aware model routes this query
        // to the device (the compression flip).
        let place = |store| {
            choose_placement_resident(store, &d, &q, &enc, &model.cpu, &model.gpu, &model.pcie, 0)
        };
        let stat = place(None);
        assert_eq!(stat.placement, Placement::Coprocessor);

        // The machine's real link delivers half the modeled bandwidth:
        // every observed transfer takes twice the predicted seconds.
        let mut store = CalibrationStore::new();
        let shipped = enc.columns_bytes(d.lineorder.rows(), &q.fact_columns());
        let predicted = shipped as f64 / model.pcie.bandwidth;
        for _ in 0..20 {
            let measured = Measured {
                shipped_bytes: shipped,
                transfer_secs: predicted * 2.0,
                kernel_secs: Some(1e-6),
                host_secs: None,
            };
            record_observation(&mut store, &model, &d, None, &q, &enc, &measured);
        }
        let cal = place(Some(&store));
        assert_eq!(cal.source, BoundsSource::Blended);
        assert!(cal.samples >= 20);
        assert!(cal.device_secs > stat.device_secs * 1.5);
        assert_eq!(
            cal.placement,
            Placement::Host,
            "doubled observed transfers must push the packed query back to the host"
        );
    }

    /// Both placement targets compute the same answer as the oracle.
    #[test]
    fn placed_execution_matches_reference_either_way() {
        use crate::engines::reference;
        let d = SsbData::generate_scaled(1, 0.004, 11);
        let mut gpu = Gpu::new(nvidia_v100());
        let cpu = intel_i7_6900();
        let pcie = pcie_gen3();
        let mut fast = pcie_gen3();
        fast.bandwidth = cpu.read_bw * 4.0;
        for q in all_queries(&d).into_iter().take(4) {
            let expected = reference::execute(&d, &q);
            let mut cold = DeviceSession::new(&mut gpu);
            let host = execute_placed(&mut cold, &pcie, &cpu, &d, None, &q, 4);
            assert_eq!(host.choice.placement, Placement::Host);
            assert!(host.copro.is_none());
            assert_eq!(host.result, expected, "{} host placement", q.name);
            let dev = execute_placed(&mut cold, &fast, &cpu, &d, None, &q, 4);
            assert_eq!(dev.choice.placement, Placement::Coprocessor);
            assert!(dev.copro.is_some());
            assert_eq!(dev.result, expected, "{} coprocessor placement", q.name);
        }
    }
}
