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
//! **One placement path, one execution path.** [`choose_placement`] prices
//! every live segment of a [`FactTable`] through the one bounds formula
//! ([`crystal_models::ssb::resident_coprocessor_bounds`], under the factors
//! an optional [`CalibrationStore`] has learned) and routes each to the
//! cheaper side; the whole table is the one-segment case, whose split *is*
//! the whole-query decision. [`gpu::execute`] runs a table through a session
//! in the coprocessor model — its [`QueryProfile`] charges what the session
//! shipped on the session's link; [`execute_placed`] runs each segment
//! where the model routes it and merges the parts' profiles.

use crystal_gpu_sim::pcie::coprocessor_time;
use crystal_gpu_sim::Gpu;
use crystal_hardware::{CpuSpec, GpuSpec, HardwareProfile, PcieSpec};
use crystal_models::calibration::{
    Blend, BoundsSource, CalibrationStore, EncodingClass, Observation,
};
use crystal_models::ssb::{
    hybrid_shard_split, launch_overhead_secs, star_query_launches, HybridSplit, ScanCost,
};
use crystal_runtime::{ColumnKey, DeviceSession, SessionOom};

use crate::data::SsbData;
use crate::encoding::FactEncodings;
use crate::engines::gpu;
use crate::engines::profile::QueryProfile;
use crate::exec::{self, PipelineMode};
use crate::plan::StarQuery;
use crate::table::{scan_cost, FactTable};

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

/// Paper-scale variant of [`gpu::execute`] over the plain table on a fresh
/// session on `pcie`: the transfer sized by the full SF fact table while
/// the execution time is scaled from the sampled run.
pub fn execute_scaled(
    gpu: &mut Gpu,
    pcie: &PcieSpec,
    d: &SsbData,
    q: &StarQuery,
    fact_scale: f64,
) -> Result<QueryProfile, SessionOom> {
    let mut sess = DeviceSession::open(gpu, None, pcie);
    let mut run = gpu::execute(&mut sess, &FactTable::plain(d), q)?;
    let full_rows = (d.lineorder.rows() as f64 / fact_scale).round() as usize;
    run.shipped_bytes = q.fact_columns().len() * 4 * full_rows;
    run.time = coprocessor_time(pcie, run.shipped_bytes, run.sim_secs_scaled(fact_scale));
    Ok(run)
}

/// Where a query runs under cost-based placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Ship the referenced fact columns over PCIe and execute on the GPU.
    Coprocessor,
    /// Keep the query on the host's morsel-driven CPU executor.
    Host,
}

/// A placement decision with its full provenance, so misroutes are
/// debuggable instead of silent: the side chosen, the (possibly blended)
/// seconds predicted for each side (lower bound for the coprocessor, scan
/// bound for the host), whether measured history contributed, and how many
/// observations backed it. Uncalibrated decisions carry
/// `source = Static, samples = 0`.
#[derive(Debug, Clone, Copy)]
pub struct PlacementDecision {
    /// The side the query was routed to (ties stay on the host).
    pub placement: Placement,
    /// Predicted device-side (coprocessor) seconds.
    pub coprocessor_secs: f64,
    /// Predicted host-side seconds.
    pub host_secs: f64,
    /// Whether the numbers are the analytic prior or a measured blend.
    pub source: BoundsSource,
    /// Observations backing the consulted calibration keys.
    pub samples: u64,
}

/// The placement of one query over a table: the whole-query decision, and
/// the per-segment routing behind it. Hot (device-cached) segments route
/// to the device while cold ones stay on the host — the two sides proceed
/// concurrently, which is what makes the split worthwhile.
#[derive(Debug, Clone)]
pub struct TablePlacement {
    /// The two all-on-one-side totals over the live segments, compared the
    /// way a scheduler that places whole queries compares them. Of a
    /// one-segment table, the decision about that segment.
    pub decision: PlacementDecision,
    /// Which live segments run where, and the modeled seconds of each side.
    /// Its indices name segments of the table ([`FactTable::subset`] takes
    /// them); a pruned segment is on neither side.
    pub split: HybridSplit,
}

/// Launch overhead of one query over a whole (unsharded) table of `rows`
/// rows. The whole star query is one fused megakernel, so the device side
/// carries exactly one launch. On a sampled proxy table the fixed term
/// scales with the proxy fraction, mirroring `sim_secs_scaled` so the
/// routing stays faithful to the full-scale comparison. The term stays
/// analytic under calibration — it is a fixed per-dispatch constant far
/// below the noise floor of per-query timing, and folding it into the
/// kernel key would let a few launch-dominated small queries corrupt the
/// bandwidth estimate. A shard carries none: the launch is paid once per
/// query, whichever shards it covers.
fn whole_table_launch_secs(d: &SsbData, rows: usize, q: &StarQuery, gpu: &GpuSpec) -> f64 {
    let fact_scale = rows as f64 / (6_000_000 * d.sf) as f64;
    fact_scale.min(1.0) * launch_overhead_secs(gpu, star_query_launches(q.joins.len(), true))
}

/// Routes segments, given as `(rows, cost)` with residency and launch term
/// filled in, each to the side the residency-aware bound prices cheaper.
/// With a `store`, every cost component is scaled by its key's blended
/// observed/predicted factor — a shard under its own shard-granular key
/// (cardinality band of the *shard's* rows, `sharded = true`, so
/// whole-table history never aliases in) — and the decision reports the
/// history behind it.
fn place(
    store: Option<&CalibrationStore>,
    segments: Vec<(usize, ScanCost)>,
    sharded: bool,
    cpu: &CpuSpec,
    gpu: &GpuSpec,
    pcie: &PcieSpec,
) -> (PlacementDecision, HybridSplit) {
    let (mut source, mut samples) = (BoundsSource::Static, 0);
    let price = |(rows, mut cost): (usize, ScanCost)| {
        // What the store has learned about this evaluation of the bound;
        // the identity without one.
        let blend = store.map_or_else(Blend::default, |s| {
            let uncached = cost.packed_bytes.saturating_sub(cost.resident_bytes);
            s.blend(encoding_class(&cost), rows, uncached, sharded)
        });
        if blend.source == BoundsSource::Blended {
            source = BoundsSource::Blended;
        }
        samples += blend.samples;
        cost.factors = blend.factors;
        cost
    };
    let costs: Vec<ScanCost> = segments.into_iter().map(price).collect();
    let split = hybrid_shard_split(&costs, cpu, gpu, pcie);
    let placement = if split.device_only_secs < split.host_only_secs {
        Placement::Coprocessor
    } else {
        Placement::Host
    };
    let decision = PlacementDecision {
        placement,
        coprocessor_secs: split.device_only_secs,
        host_secs: split.host_only_secs,
        source,
        samples,
    };
    (decision, split)
}

/// Routes `q` over `table` through the `crystal-models` Section 3.1 / 6
/// bounds, residency-aware: each live segment ships only the bytes of its
/// column keys that `resident` does not report cached — a session's
/// [`DeviceSession::resident_bytes`], or `&|_| 0` for a cold device nobody
/// has to construct — so the transfer term drops to the uncached fraction
/// (floored by the device's own memory scan).
///
/// Cold, the coprocessor can never finish before its PCIe transfer while
/// the host is bounded below by streaming the same columns from DRAM;
/// since PCIe bandwidth is far below DRAM bandwidth, the model routes
/// every star query over *plain* data to the host — the paper's conclusion
/// ("a GPU-based system fully utilizing the CPU will always be superior to
/// a coprocessor design"), computed, not hard-coded, so a future
/// interconnect spec can flip it. So can compression: packed columns ship
/// at their encoded size while the host's scan bound gains a scalar-unpack
/// term — past the modeled flip ratio (~1.6 on the Table-2 pairing) GPU
/// placement wins over the very link that loses on plain data. Residency
/// is the third lever: once a segment's working set is warm it flips
/// Host → Coprocessor even on PCIe Gen3 and plain data — the paper's
/// data-resident regime, derived from the same cost model that rejects the
/// cold coprocessor.
///
/// A calibrated caller passes its *model* profile's specs, not the
/// session's: the whole point of calibration is that the hardware the
/// session simulates may deviate from the spec sheet the prior believes.
pub fn choose_placement(
    store: Option<&CalibrationStore>,
    resident: &dyn Fn(&[ColumnKey]) -> usize,
    table: &FactTable<'_>,
    q: &StarQuery,
    cpu: &CpuSpec,
    gpu: &GpuSpec,
    pcie: &PcieSpec,
) -> TablePlacement {
    let live = table.live(q);
    let cols = q.fact_columns();
    let priced = |&i: &usize| {
        let seg = table.segments()[i];
        let keys: Vec<ColumnKey> = cols.iter().map(|&c| seg.key(c)).collect();
        let mut cost = seg.cost(&cols);
        cost.resident_bytes = resident(&keys);
        if !table.is_sharded() {
            cost.launch_secs = whole_table_launch_secs(table.data(), seg.rows(), q, gpu);
        }
        (seg.rows(), cost)
    };
    let segments = live.iter().map(priced).collect();
    let (decision, mut split) = place(store, segments, table.is_sharded(), cpu, gpu, pcie);
    let routed = split.device_shards.iter_mut().chain(&mut split.host_shards);
    routed.for_each(|id| *id = live[*id]);
    TablePlacement { decision, split }
}

/// Pinned by the benchmark harness (`e2e/src/sut.rs`), to go with its
/// Step 0: the static [`choose_placement`] decision on the session's own
/// device spec for a whole table described only by `d`'s row count and
/// `enc`.
pub fn choose_placement_session(
    sess: &DeviceSession<'_>,
    d: &SsbData,
    q: &StarQuery,
    enc: &FactEncodings,
    cpu: &CpuSpec,
    pcie: &PcieSpec,
) -> PlacementDecision {
    let (rows, cols) = (d.lineorder.rows(), q.fact_columns());
    let whole = FactTable::plain(d).segments()[0];
    let stored = |&c| ColumnKey {
        encoding: enc.get(c),
        ..whole.key(c)
    };
    let keys: Vec<ColumnKey> = cols.iter().map(stored).collect();
    let cost = ScanCost {
        resident_bytes: sess.resident_bytes(&keys),
        launch_secs: whole_table_launch_secs(d, rows, q, sess.spec()),
        ..scan_cost(rows, enc, &cols)
    };
    place(None, vec![(rows, cost)], false, cpu, sess.spec(), pcie).0
}

/// Executes `q` with per-segment placement on the session's own device
/// spec and link: the device-routed segments run as one job through `sess`
/// (all of them falling back to the host when one's working set does not
/// fit alongside what the session already holds, instead of aborting the
/// query — what the server does mid-query), the host-routed ones run
/// through the morsel-driven executor, and the two parts merge into one
/// profile — aggregation is commutative addition, so the result is
/// byte-identical to the whole table's on either side, and neither job
/// opens its accumulator to this module. The host part is charged the
/// placement's host bound, pro-rated to the rows it scanned. Residency
/// accrued by earlier queries in the session steers later ones: cold, the
/// routing is the paper's transfer-bound comparison; once a segment's
/// columns are warm it flips to the device and ships nothing.
pub fn execute_placed(
    sess: &mut DeviceSession<'_>,
    cpu: &CpuSpec,
    table: &FactTable<'_>,
    q: &StarQuery,
    threads: usize,
) -> QueryProfile {
    let link = sess.interconnect().clone();
    let resident = &|keys: &[_]| sess.resident_bytes(keys);
    let placement = choose_placement(None, resident, table, q, cpu, sess.spec(), &link);
    let on_device = &placement.split.device_shards;
    let mut host_ids = placement.split.host_shards.clone();
    let mut profile = QueryProfile::empty(q);
    if !on_device.is_empty() {
        match gpu::execute(sess, &table.subset(on_device), q) {
            Ok(device) => profile = device,
            Err(_) => {
                profile.host_fallback = true;
                host_ids.extend(on_device);
                host_ids.sort_unstable();
            }
        }
    }
    // With every segment pruned, the host run over none is the empty input.
    if !host_ids.is_empty() || profile.device_segments_run == 0 {
        let host = table.subset(&host_ids);
        let (result, trace) = exec::execute(&host, q, threads, PipelineMode::Vectorized);
        profile.result.merge(result);
        profile.trace = Some(match profile.trace.take() {
            Some(mut device) => {
                device.merge(&trace, profile.result.rows());
                device
            }
            None => trace,
        });
        let share = host.live_rows(q) as f64 / table.live_rows(q).max(1) as f64;
        profile.host_secs = Some(placement.decision.host_secs * share);
    }
    profile.placement = Some(placement);
    profile
}

/// Records what one executed query's profile measured — the bytes its
/// session really uploaded (zero for a warm hit, which then carries no
/// transfer information) and their serialized PCIe seconds, and the seconds
/// of the side it ran on: the modelled-host seconds when a host part ran,
/// its kernels' otherwise — into the store, against what the static model
/// on the `model` (spec-sheet) profile predicted: one observation
/// aggregated over `q`'s live segments under their own encodings, keyed
/// under the mean live segment's cardinality band and the table's `sharded`
/// bit — shards are equal-range slices of the fact table, so the mean band
/// is the band the split consults at decision time; a fully pruned query
/// records nothing.
pub fn record_observation(
    store: &mut CalibrationStore,
    model: &HardwareProfile,
    table: &FactTable<'_>,
    q: &StarQuery,
    ran: &QueryProfile,
) {
    let live = table.live(q);
    if live.is_empty() {
        return;
    }
    let cols = q.fact_columns();
    let (mut rows, mut total) = (0usize, ScanCost::default());
    for &i in &live {
        let seg = table.segments()[i];
        let cost = seg.cost(&cols);
        rows += seg.rows();
        total.packed_bytes += cost.packed_bytes;
        total.packed_values += cost.packed_values;
    }
    let obs = Observation {
        rows: rows / live.len(),
        enc: encoding_class(&total),
        sharded: table.is_sharded(),
        packed_bytes: total.packed_bytes,
        packed_values: total.packed_values,
        shipped_bytes: ran.shipped_bytes,
        transfer_secs: ran.time.transfer,
        kernel_secs: ran.host_secs.is_none().then_some(ran.time.exec),
        host_secs: ran.host_secs,
    };
    store.record(&obs, &model.cpu, &model.gpu, &model.pcie);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::EncodedFact;
    use crate::engines::reference;
    use crate::partition::PartitionedFact;
    use crate::queries::{all_queries, query, QueryId};
    use crystal_hardware::{intel_i7_6900, nvidia_v100, pcie_gen3};

    /// The static decision on the session's own device.
    fn placed(sess: &DeviceSession<'_>, table: &FactTable<'_>, q: &StarQuery) -> TablePlacement {
        let resident = &|keys: &[_]| sess.resident_bytes(keys);
        let cpu = intel_i7_6900();
        choose_placement(None, resident, table, q, &cpu, sess.spec(), &pcie_gen3())
    }

    /// The static decision with nothing resident: no device, no session.
    fn placed_cold(table: &FactTable<'_>, q: &StarQuery, link: &PcieSpec) -> TablePlacement {
        let (cpu, spec) = (intel_i7_6900(), nvidia_v100());
        choose_placement(None, &|_| 0, table, q, &cpu, &spec, link)
    }

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
    /// query on a cold device to the host — Section 3.1's conclusion,
    /// derived not assumed.
    #[test]
    fn placement_routes_to_host_over_pcie_gen3() {
        let d = SsbData::generate_scaled(1, 0.002, 7);
        for q in all_queries(&d) {
            let c = placed_cold(&FactTable::plain(&d), &q, &pcie_gen3()).decision;
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
        let d = SsbData::generate_scaled(1, 0.002, 7);
        let cpu = intel_i7_6900();
        let enc = FactEncodings::packed_min(&d);
        let fact = EncodedFact::encode(&d, &enc);
        let table = FactTable::encoded(&d, &fact);
        let q = query(&d, QueryId::new(1, 1));
        let mut gpu = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::new(&mut gpu);

        let plain = placed(&sess, &FactTable::plain(&d), &q).decision;
        assert_eq!(plain.placement, Placement::Host);
        let packed = placed(&sess, &table, &q).decision;
        assert_eq!(packed.placement, Placement::Coprocessor);
        // The packed transfer bound is below the plain one by the ratio.
        assert!(packed.coprocessor_secs < plain.coprocessor_secs / 1.5);

        let run = execute_placed(&mut sess, &cpu, &table, &q, 4);
        assert_eq!(run.decision().unwrap().placement, Placement::Coprocessor);
        assert_eq!(run.device_segments_run, 1);
        assert_eq!(
            run.shipped_bytes,
            enc.columns_bytes(d.lineorder.rows(), &q.fact_columns())
        );
        assert!(run.shipped_bytes < q.fact_columns().len() * 4 * d.lineorder.rows());
        assert_eq!(run.result, reference::execute(&d, &q));
    }

    /// Admission OOM on the fused single-table job: the router picks the
    /// coprocessor (a link faster than host DRAM), the device cannot hold
    /// even one fact column, and the placed run silently completes on the
    /// host — byte-identical to the vectorized CPU result.
    #[test]
    fn admit_oom_falls_back_to_the_host_byte_identically() {
        let d = SsbData::generate_scaled(1, 0.002, 7);
        let table = FactTable::plain(&d);
        let cpu = intel_i7_6900();
        let mut link = pcie_gen3();
        link.bandwidth = cpu.read_bw * 4.0;
        let q = query(&d, QueryId::new(2, 1));
        let expected = exec::execute(&table, &q, 4, PipelineMode::Vectorized).0;

        let mut spec = nvidia_v100();
        spec.mem_capacity = 8 * 1024; // not even one fact column fits
        let mut gpu = Gpu::new(spec);
        let mut sess = DeviceSession::open(&mut gpu, None, &link);
        let run = execute_placed(&mut sess, &cpu, &table, &q, 4);
        assert_eq!(run.decision().unwrap().placement, Placement::Coprocessor);
        assert_eq!(run.device_segments_run, 0, "device admission must fail");
        assert!(run.host_fallback && run.host_secs.is_some());
        assert_eq!(run.result, expected, "host fallback diverged");
    }

    /// Residency flips the routing over PCIe Gen3 on *plain* data: once a
    /// session has the working set warm, the uncached transfer term drops
    /// to zero and the device-memory scan undercuts the host's DRAM scan.
    /// The routed warm execution ships zero bytes and matches the oracle.
    #[test]
    fn residency_flips_placement_to_the_coprocessor() {
        let d = SsbData::generate_scaled(1, 0.002, 7);
        let table = FactTable::plain(&d);
        let cpu = intel_i7_6900();
        let q = query(&d, QueryId::new(1, 1));
        let expected = reference::execute(&d, &q);

        let mut gpu = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::new(&mut gpu);

        // Cold: the session holds nothing, so the routing is the paper's
        // Host conclusion and the query runs on the CPU (no residency is
        // accrued by a host run).
        let cold = execute_placed(&mut sess, &cpu, &table, &q, 4);
        assert_eq!(cold.decision().unwrap().placement, Placement::Host);
        assert_eq!((cold.device_segments_run, cold.shipped_bytes), (0, 0));
        assert_eq!(cold.result, expected);

        // Warm the working set (e.g. an operator pinned the stream's hot
        // columns, or a forced device run shipped them once).
        let warm_run = gpu::execute(&mut sess, &table, &q).unwrap();
        assert_eq!(warm_run.result, expected);
        assert!(warm_run.shipped_bytes > 0);

        // Warm: the same cost model now routes to the coprocessor, the
        // execution ships nothing, and the result is still the oracle's.
        let warm = execute_placed(&mut sess, &cpu, &table, &q, 4);
        let decision = *warm.decision().unwrap();
        assert_eq!(decision.placement, Placement::Coprocessor);
        assert!(decision.coprocessor_secs < decision.host_secs);
        assert_eq!(warm.device_segments_run, 1);
        assert_eq!(warm.shipped_bytes, 0, "warm run ships nothing");
        assert_eq!(warm.result, expected);
        let rerun = gpu::execute(&mut sess, &table, &q).unwrap();
        assert!(
            (rerun.time.transfer - 0.0).abs() < 1e-18,
            "zero simulated transfer time on fact columns"
        );
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
        let c = placed_cold(&FactTable::plain(&d), &q, &fast);
        assert_eq!(c.decision.placement, Placement::Coprocessor);
    }

    /// The decisions the unified [`choose_placement`] has to meet, bit for
    /// bit: both seconds of the whole-table bound (cold and warm session,
    /// plain and packed) and of the summed per-shard bounds (8 shards, cold
    /// and with every other live shard warm), captured at commit 765544f
    /// from `choose_placement_resident` and
    /// `choose_placement_sharded(..).decision()`.
    #[test]
    fn placement_matches_the_bounds_pinned_before_the_fold() {
        #[rustfmt::skip]
        const PINNED: [(&str, [(u64, u64); 6]); 3] = [
            ("q1.1", [
                (0x3eff7a6eb10da98c, 0x3ede63903b3fde96), (0x3e9ea0447fab0dcd, 0x3ede63903b3fde96),
                (0x3eeb1356c9e63d8c, 0x3ef3a92a30553261), (0x3e8bd9a54d56f5db, 0x3ef3a92a30553261),
                (0x3ed251914232299e, 0x3eb1b24c91184ed8), (0x3e710d8f99c84bfa, 0x3eb1b24c91184ed8),
            ]),
            ("q2.1", [
                (0x3eff7a6eb10da98c, 0x3ede63903b3fde96), (0x3e9ea0447fab0dcd, 0x3ede63903b3fde96),
                (0x3ef2350bd06dc124, 0x3ef3a92a30553261), (0x3e92459c1e45abad, 0x3ef3a92a30553261),
                (0x3eff75104d551d69, 0x3ede63903b3fde95), (0x3eefbbe7ff2897be, 0x3ede63903b3fde95),
            ]),
            ("q4.3", [
                (0x3f079a7b6bdc1c21, 0x3ee6caac2c6fe6f0), (0x3ea6a24d24378829, 0x3ee6caac2c6fe6f0),
                (0x3efacf0e4593072e, 0x3efd7dbf487fcb92), (0x3e9a477b0810dd0e, 0x3efd7dbf487fcb92),
                (0x3f0797cc39ffd60e, 0x3ee6caac2c6fe6f0), (0x3ef7ccedff5e71ce, 0x3ee6caac2c6fe6f0),
            ]),
        ];
        let d = SsbData::generate_scaled(1, 0.004, 20_260_927);
        let fact = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
        let pf = PartitionedFact::partition(&d, 8, &FactEncodings::plain());
        let tables = [
            FactTable::plain(&d),
            FactTable::encoded(&d, &fact),
            FactTable::sharded(&d, &pf),
        ];
        let queries = all_queries(&d);
        for (name, pinned) in PINNED {
            let q = queries.iter().find(|q| q.name == name).unwrap();
            let mut got = Vec::new();
            for table in &tables {
                let mut gpu = Gpu::new(nvidia_v100());
                let mut sess = DeviceSession::new(&mut gpu);
                let cold = placed(&sess, table, q);
                // The whole table, or every other live shard.
                for s in table.live(q).into_iter().step_by(2) {
                    gpu::execute(&mut sess, &table.subset(&[s]), q).unwrap();
                }
                for decision in [cold.decision, placed(&sess, table, q).decision] {
                    let bits = |secs: f64| secs.to_bits();
                    got.push((bits(decision.coprocessor_secs), bits(decision.host_secs)));
                }
            }
            assert_eq!(got, pinned, "{name}: (coprocessor, host) seconds moved");
        }
    }

    /// Per-shard residency splits one query across both processors: warm
    /// shards route to the device, cold shards stay on the host, and the
    /// merged hybrid result is byte-identical to the unsharded pipeline.
    #[test]
    fn sharded_placement_routes_hot_shards_to_the_device() {
        let d = SsbData::generate_scaled(1, 0.004, 11);
        let cpu = intel_i7_6900();
        let pf = PartitionedFact::partition(&d, 4, &FactEncodings::plain());
        let table = FactTable::sharded(&d, &pf);
        // q2.1 filters only through dimensions: every shard stays live.
        let q = query(&d, QueryId::new(2, 1));
        let expected = reference::execute(&d, &q);

        let mut gpu = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::new(&mut gpu);

        // Cold: nothing resident, so every live shard routes to the host
        // — the whole-table Gen3 conclusion, reproduced shard-wise.
        let cold = placed(&sess, &table, &q);
        assert!(cold.split.device_shards.is_empty());
        assert_eq!(cold.split.host_shards, table.live(&q));
        assert_eq!(table.live(&q).len(), pf.shard_count());

        // Warm shards 0 and 2 on the device.
        for s in [0usize, 2] {
            gpu::execute(&mut sess, &table.subset(&[s]), &q).unwrap();
        }

        // Warm: exactly the warmed shards flip to the device, and the
        // hybrid (concurrent max) beats running everything on the host.
        let warm = placed(&sess, &table, &q);
        assert_eq!(warm.split.device_shards, vec![0, 2]);
        assert_eq!(warm.split.host_shards, vec![1, 3]);
        assert!(warm.split.hybrid_secs() < cold.split.host_secs);

        let run = execute_placed(&mut sess, &cpu, &table, &q, 4);
        assert_eq!(run.device_segments_run, 2);
        assert_eq!(run.shipped_bytes, 0, "warm shards ship nothing");
        assert_eq!(run.result, expected);
    }

    /// Zone-map pruning composes with hybrid placement: a date-filtered
    /// query places only the live shards and still merges to the unsharded
    /// answer — as does one whose every shard is pruned.
    #[test]
    fn sharded_placement_prunes_before_placing() {
        use crate::plan::{FactCol, FactPred};
        let d = SsbData::generate_scaled(1, 0.004, 11);
        let cpu = intel_i7_6900();
        let pf = PartitionedFact::partition(&d, 8, &FactEncodings::plain());
        let table = FactTable::sharded(&d, &pf);
        let mut q = query(&d, QueryId::new(1, 1)); // one-year date predicate
        let mut gpu = Gpu::new(nvidia_v100());
        let mut sess = DeviceSession::new(&mut gpu);
        for live_after in ["some shards", "none"] {
            let expected = reference::execute(&d, &q);
            let run = execute_placed(&mut sess, &cpu, &table, &q, 4);
            let split = &run.placement.as_ref().unwrap().split;
            let mut routed = split.device_shards.clone();
            routed.extend(&split.host_shards);
            routed.sort_unstable();
            assert_eq!(routed, table.live(&q), "every live shard runs once");
            assert!(routed.len() < pf.shard_count(), "{live_after}");
            assert_eq!(run.result, expected, "{live_after}");
            q.fact_preds
                .push(FactPred::between(FactCol::OrderDate, 30000101, 30001231));
        }
        assert!(table.live(&q).is_empty());
    }

    /// A shard the cost model routes to the device but that no longer
    /// fits (its columns are resident, but the device has no physical
    /// room left for the hash tables) falls back to the host
    /// *individually* — the query completes with the exact unsharded
    /// answer instead of erroring.
    #[test]
    fn device_shard_oom_falls_back_to_the_host() {
        let d = SsbData::generate_scaled(1, 0.004, 11);
        let cpu = intel_i7_6900();
        let pf = PartitionedFact::partition(&d, 4, &FactEncodings::plain());
        let table = FactTable::sharded(&d, &pf);
        let q = query(&d, QueryId::new(2, 1));
        let expected = reference::execute(&d, &q);
        let cols = q.fact_columns();
        let shard0 = table.segments()[0];

        // Device capacity = shard 0's fact columns + 1 KiB: warming the
        // columns fits exactly, but admission (columns pinned + hash
        // tables) cannot — the typed OOM comes from physical capacity,
        // not the soft cache budget.
        let mut spec = nvidia_v100();
        spec.mem_capacity = shard0.cost(&cols).packed_bytes + 1024;
        let mut gpu = Gpu::new(spec);
        let mut sess = DeviceSession::with_budget(&mut gpu, usize::MAX);
        let qid = sess.begin_query();
        for &c in &cols {
            sess.pin_column(qid, shard0.key(c), shard0.host_col(c))
                .unwrap();
        }
        sess.end_query(qid);

        // The model sees shard 0 fully resident and routes it to the
        // device; execution discovers the working set no longer fits.
        assert_eq!(placed(&sess, &table, &q).split.device_shards, vec![0]);

        let evictions_before = sess.stats().evictions;
        let run = execute_placed(&mut sess, &cpu, &table, &q, 4);
        assert_eq!(run.device_segments_run, 0, "the OOM shard ran on the host");
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
        let spec = nvidia_v100();
        let pcie = pcie_gen3();
        let store = CalibrationStore::new();
        let fact = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
        let pf = PartitionedFact::partition(&d, 4, &FactEncodings::plain());
        let tables = [
            FactTable::plain(&d),
            FactTable::encoded(&d, &fact),
            FactTable::sharded(&d, &pf),
        ];
        for table in &tables {
            for q in all_queries(&d) {
                let mut device = Gpu::new(nvidia_v100());
                let mut sess = DeviceSession::new(&mut device);
                // Nothing resident, then every other column of every
                // other live segment, then all of them.
                for stride in [None, Some(2), Some(1)] {
                    let qid = sess.begin_query();
                    for &s in table.live(&q).iter().step_by(stride.unwrap_or(usize::MAX)) {
                        let seg = table.segments()[s];
                        for &c in q.fact_columns().iter().step_by(stride.unwrap_or(1)) {
                            sess.pin_column(qid, seg.key(c), seg.host_col(c)).unwrap();
                        }
                    }
                    sess.end_query(qid);
                    let resident = &|keys: &[_]| sess.resident_bytes(keys);
                    let place =
                        |store| choose_placement(store, resident, table, &q, &cpu, &spec, &pcie);
                    let (stat, cal) = (place(None), place(Some(&store)));
                    assert_eq!(cal.decision.placement, stat.decision.placement);
                    assert_eq!(cal.split.device_shards, stat.split.device_shards);
                    assert_eq!(cal.split.host_shards, stat.split.host_shards);
                    for (c, s) in [
                        (cal.split.device_secs, stat.split.device_secs),
                        (cal.split.host_secs, stat.split.host_secs),
                        (
                            cal.decision.coprocessor_secs,
                            stat.decision.coprocessor_secs,
                        ),
                        (cal.decision.host_secs, stat.decision.host_secs),
                    ] {
                        assert_eq!(c.to_bits(), s.to_bits(), "{}", q.name);
                    }
                    let provenance = (cal.decision.source, cal.decision.samples);
                    assert_eq!(provenance, (BoundsSource::Static, 0));
                }
            }
        }
    }

    /// Observed executions on a machine whose PCIe link runs at half
    /// spec flip a packed query's routing from the device back to the
    /// host — the closed loop the calibration layer exists for.
    #[test]
    fn observed_slow_transfers_flip_calibrated_placement() {
        let d = SsbData::generate_scaled(1, 0.002, 7);
        let model = crystal_hardware::table2_profile();
        let enc = FactEncodings::packed_min(&d);
        let fact = EncodedFact::encode(&d, &enc);
        let table = FactTable::encoded(&d, &fact);
        let q = query(&d, QueryId::new(1, 1));

        // Premise: the static compression-aware model routes this query
        // to the device (the compression flip).
        let place = |store| {
            let (cpu, spec, pcie) = (&model.cpu, &model.gpu, &model.pcie);
            choose_placement(store, &|_| 0, &table, &q, cpu, spec, pcie).decision
        };
        let stat = place(None);
        assert_eq!(stat.placement, Placement::Coprocessor);

        // The machine's real link delivers half the modeled bandwidth:
        // every cold run through a session on it observes transfers of
        // twice the predicted seconds (and the link's latency on top).
        let mut store = CalibrationStore::new();
        let shipped = enc.columns_bytes(d.lineorder.rows(), &q.fact_columns());
        let mut link = model.pcie.clone();
        link.bandwidth /= 2.0;
        let mut actual = Gpu::new(model.gpu.clone());
        for _ in 0..20 {
            let mut sess = DeviceSession::open(&mut actual, None, &link);
            let ran = gpu::execute(&mut sess, &table, &q).unwrap();
            assert_eq!(ran.shipped_bytes, shipped);
            assert!(ran.time.transfer > 2.0 * shipped as f64 / model.pcie.bandwidth);
            record_observation(&mut store, &model, &table, &q, &ran);
        }
        let cal = place(Some(&store));
        assert_eq!(cal.source, BoundsSource::Blended);
        assert!(cal.samples >= 20);
        assert!(cal.coprocessor_secs > stat.coprocessor_secs * 1.5);
        assert_eq!(
            cal.placement,
            Placement::Host,
            "doubled observed transfers must push the packed query back to the host"
        );
    }

    /// The pinned shim prices a table it is only told the encodings of
    /// exactly as [`choose_placement`] prices the table itself.
    #[test]
    fn session_shim_prices_encodings_like_the_table() {
        let d = SsbData::generate_scaled(1, 0.002, 7);
        let (cpu, pcie) = (intel_i7_6900(), pcie_gen3());
        let fact = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
        let q = query(&d, QueryId::new(3, 1));
        for table in [FactTable::plain(&d), FactTable::encoded(&d, &fact)] {
            let enc = table.segments()[0].encodings();
            let mut gpu = Gpu::new(nvidia_v100());
            let mut sess = DeviceSession::new(&mut gpu);
            for _ in 0..2 {
                let shim = choose_placement_session(&sess, &d, &q, &enc, &cpu, &pcie);
                let whole = placed(&sess, &table, &q).decision;
                assert_eq!(shim.placement, whole.placement);
                assert_eq!(
                    shim.coprocessor_secs.to_bits(),
                    whole.coprocessor_secs.to_bits()
                );
                assert_eq!(shim.host_secs.to_bits(), whole.host_secs.to_bits());
                gpu::execute(&mut sess, &table, &q).unwrap();
            }
        }
    }
}
