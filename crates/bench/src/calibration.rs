//! The `reproduce calibration` experiment: closed-loop calibrated
//! placement vs the static cost model on a mis-specified machine.
//!
//! Every routing decision in the stack trusts the analytic Section-3.1/6
//! bounds with spec-sheet constants. This experiment measures what that
//! trust costs when the hardware deviates from spec, and what the online
//! calibration layer (`crystal_models::calibration`) recovers. The
//! pinned 16-shape stream is replayed, with a **fresh device session per
//! query** (the paper's transfer-included coprocessor regime) over a
//! `packed_min`-encoded fact table — the regime where compression makes
//! the device competitive, so routing errors are live — under three
//! policies:
//!
//! * **static** — `copro::choose_placement` (cold session) on the Table-2 spec-sheet
//!   profile, exactly what the stack does today;
//! * **calibrated** — the same `choose_placement` consulting a
//!   [`CalibrationStore`] that starts cold (bit-identical to static) and
//!   absorbs each executed query's measured transfer/kernel/host-scan
//!   seconds via [`copro::record_observation`];
//! * **oracle** — the per-query min of both sides' *measured* charges
//!   (hindsight-optimal; no model at all).
//!
//! Charges come from the simulated execution on the **actual** profile:
//! the device side pays `coprocessor_time` (PCIe latency included — real
//! slack the spec-sheet transfer bound `bytes / B_pcie` omits) plus the
//! simulated kernels; the host side pays the analytic compressed scan
//! bound evaluated on the actual CPU. Two actual profiles are replayed:
//! the **true** Table-2 profile (model and machine agree up to the
//! latency/launch slack) and a **skewed** one (PCIe at half spec, CPU
//! clock over spec — the machine the model believes in no longer
//! exists).
//!
//! Two bands and an assertion gate the run:
//!
//! * **never-lose** ([`NEVER_LOSE`]) — on the true profile (a cold store
//!   *is* the static model, so early queries route identically; learned
//!   corrections only flip queries the measurements prove misrouted);
//! * **recovery** ([`RECOVERY`]) — on the skewed profile, of the
//!   static-vs-oracle gap;
//! * **byte-identity** — every device and host execution is asserted
//!   against the reference oracle inline; routing changes costs, never
//!   answers.
//!
//! A final non-gating section times the real host executor with the
//! paired-ratio convention from `reproduce microbench`
//! ([`crate::util::paired`]) and feeds the wall-clock measurement into a
//! store as a `HostScan` observation — the same closed loop on real
//! seconds instead of simulated ones.

use std::hint::black_box;

use crystal_hardware::{table2_profile, HardwareProfile};
use crystal_models::calibration::{BoundsSource, CalKey, CalibrationStore, EncodingClass, OpKind};
use crystal_ssb::encoding::{EncodedFact, FactEncodings};
use crystal_ssb::engines::copro;
use crystal_ssb::engines::profile::QueryProfile;
use crystal_ssb::engines::reference;
use crystal_ssb::exec::{self, PipelineMode};
use crystal_ssb::plan::StarQuery;
use crystal_ssb::{FactTable, SsbData};

use crate::check::{Band, Check};
use crate::stream::{self, shape_catalogue, Sessions, STREAM_SEED};
use crate::util::{paired, transfer_vs_host_scan, Config, Report};

/// Calibrated over static total simulated seconds on the true profile:
/// never above (the slack is rounding).
pub const NEVER_LOSE: Band = Band::new(
    "calibrated/static total, true profile (never lose)",
    1.0,
    0.0..=1.0 + 1e-9,
);
/// Fraction of the static-vs-oracle gap calibrated routing recovers on the
/// skewed profile. The transfer key warms after three device observations
/// (the whole stream shares one cardinality band), so all but the first
/// few queries of a 96-query replay route post-correction; the band leaves
/// headroom for the warm-up misroutes.
pub const RECOVERY: Band = Band::new(
    "static-vs-oracle gap recovered, skewed profile",
    0.9,
    0.5..=f64::INFINITY,
);

/// The skewed profile's PCIe bandwidth, as a fraction of spec.
pub const SKEW_PCIE_FACTOR: f64 = 0.5;

/// The skewed profile's CPU clock, as a multiple of spec (over-spec:
/// scalar unpack runs faster than the model believes).
pub const SKEW_CPU_CLOCK_FACTOR: f64 = 1.25;

/// Measured per-shape charges on one actual hardware profile: what a
/// query costs on each side — the profile the calibration store ingests
/// when that side runs.
pub struct ShapeCosts {
    /// Device side: the shape through a fresh session (the full packed
    /// working set shipped over the actual link, latency included, against
    /// the simulated kernels).
    pub device: QueryProfile,
    /// Host charge: the compressed scan bound on the actual CPU.
    pub host_secs: f64,
}

/// Executes every shape once on the actual profile's device (fresh
/// session per query — the transfer-included regime the replay charges)
/// and prices the host side analytically on the actual CPU.
pub fn measure_shapes(
    table: &FactTable<'_>,
    shapes: &[StarQuery],
    actual: &HardwareProfile,
) -> Vec<ShapeCosts> {
    let cold = stream::replay(table, shapes, Sessions::FreshPerQuery, actual);
    let priced = shapes.iter().zip(cold.runs).map(|(q, device)| ShapeCosts {
        device,
        host_secs: transfer_vs_host_scan(table, q, &actual.cpu, &actual.pcie).1,
    });
    priced.collect()
}

/// The account of a host run of `q` charged `secs`.
fn on_host(q: &StarQuery, secs: f64) -> QueryProfile {
    QueryProfile {
        host_secs: Some(secs),
        ..QueryProfile::empty(q)
    }
}

/// How the replay routes each query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// The spec-sheet model, as the stack ships today.
    Static,
    /// The spec-sheet prior blended with online measured history.
    Calibrated,
    /// Hindsight-optimal: the per-query min of both measured charges.
    Oracle,
}

/// Aggregate outcome of one routed replay.
pub struct ReplayOutcome {
    /// Total simulated seconds charged across the stream.
    pub total_secs: f64,
    /// Queries routed to the device.
    pub device_queries: usize,
    /// Decisions that drew on measured history (always 0 for
    /// [`Routing::Static`] and [`Routing::Oracle`]).
    pub blended_decisions: usize,
}

/// Replays `passes` passes over the shape catalogue under one routing
/// policy, charging each query its measured [`ShapeCosts`] side. The
/// calibrated policy records the executed side's observation after every
/// query — routing always consults the spec-sheet `model` profile, never
/// the actual one; only the measurements know the machine.
pub fn replay(
    table: &FactTable<'_>,
    shapes: &[StarQuery],
    costs: &[ShapeCosts],
    passes: usize,
    routing: Routing,
    model: &HardwareProfile,
) -> ReplayOutcome {
    let mut store = CalibrationStore::default();
    let mut out = ReplayOutcome {
        total_secs: 0.0,
        device_queries: 0,
        blended_decisions: 0,
    };
    for _ in 0..passes {
        for (q, c) in shapes.iter().zip(costs) {
            let on_device = match routing {
                Routing::Oracle => c.device.time.overlapped < c.host_secs,
                Routing::Static | Routing::Calibrated => {
                    // Every query is placed as if nothing were resident.
                    let dec = copro::choose_placement(
                        (routing == Routing::Calibrated).then_some(&store),
                        &|_| 0,
                        table,
                        q,
                        &model.cpu,
                        &model.gpu,
                        &model.pcie,
                    )
                    .decision;
                    out.blended_decisions += usize::from(dec.source == BoundsSource::Blended);
                    dec.placement == copro::Placement::Coprocessor
                }
            };
            let host;
            let (charge, ran) = if on_device {
                out.device_queries += 1;
                (c.device.time.overlapped, &c.device)
            } else {
                host = on_host(q, c.host_secs);
                (c.host_secs, &host)
            };
            out.total_secs += charge;
            if routing == Routing::Calibrated {
                copro::record_observation(&mut store, model, table, q, ran);
            }
        }
    }
    out
}

/// One profile's three-way comparison: static / calibrated / oracle
/// totals plus the recovery fraction of the static-vs-oracle gap.
pub struct ProfileComparison {
    /// Outcomes in [`Routing`] order: static, calibrated, oracle.
    pub outcomes: [ReplayOutcome; 3],
    /// `(static - calibrated) / (static - oracle)`; 1.0 when static is
    /// already oracle-optimal (nothing to recover).
    pub recovery: f64,
}

/// Runs all three policies over one actual profile.
pub fn compare_profile(
    table: &FactTable<'_>,
    shapes: &[StarQuery],
    passes: usize,
    actual: &HardwareProfile,
    model: &HardwareProfile,
) -> ProfileComparison {
    let costs = measure_shapes(table, shapes, actual);
    let outcomes = [Routing::Static, Routing::Calibrated, Routing::Oracle]
        .map(|r| replay(table, shapes, &costs, passes, r, model));
    let gap = outcomes[0].total_secs - outcomes[2].total_secs;
    let recovery = if gap > 1e-15 {
        (outcomes[0].total_secs - outcomes[1].total_secs) / gap
    } else {
        1.0
    };
    ProfileComparison { outcomes, recovery }
}

/// The Table-2 profile with the deliberate mis-specification: PCIe at
/// [`SKEW_PCIE_FACTOR`] of spec, CPU clock at [`SKEW_CPU_CLOCK_FACTOR`].
pub fn skewed_profile() -> HardwareProfile {
    let mut p = table2_profile();
    p.pcie.bandwidth *= SKEW_PCIE_FACTOR;
    p.cpu.clock_ghz *= SKEW_CPU_CLOCK_FACTOR;
    p
}

/// The two bands: calibrated against static on the true profile, and the
/// gap recovered on the skewed one.
pub fn checks(truth: &ProfileComparison, skewed: &ProfileComparison) -> Vec<Check> {
    let [stat, cal, _] = &truth.outcomes;
    vec![
        NEVER_LOSE.check(cal.total_secs / stat.total_secs),
        RECOVERY.check(skewed.recovery),
    ]
}

/// The `reproduce calibration` experiment. `--smoke` shrinks the fact
/// sample and passes (the CI gate).
pub fn calibration(cfg: &Config, smoke: bool) -> Vec<Check> {
    let scale = if smoke {
        0.005
    } else {
        cfg.fact_scale.max(0.01)
    };
    let passes = if smoke { 4 } else { 6 };
    let d = SsbData::generate_scaled(1, scale, STREAM_SEED);
    let fact = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
    let (plain, table) = (FactTable::plain(&d), FactTable::encoded(&d, &fact));
    let shapes = shape_catalogue(&d, 16);
    println!(
        "calibration: {} fact rows, {} shapes x {} passes, packed_min encodings ({:.2}x compression)",
        d.lineorder.rows(),
        shapes.len(),
        passes,
        fact.compression_ratio()
    );

    // Band (c), host side: the encoded host executor answers every shape
    // byte-identically to the reference oracle (the device side is
    // asserted per profile inside `measure_shapes`).
    for q in &shapes {
        let (result, _) = exec::execute(&table, q, cfg.threads, PipelineMode::Vectorized);
        assert_eq!(
            result,
            reference::execute(&d, q),
            "host execution diverged from the oracle on {}",
            q.name
        );
    }

    let model = table2_profile();
    let mut report = Report::new(
        "calibration",
        &[
            "profile",
            "routing",
            "sim total ms",
            "device q",
            "blended",
            "vs oracle",
        ],
    );
    let profiles = [("true", table2_profile()), ("skewed", skewed_profile())];
    let [truth, skewed] = profiles.map(|(name, actual)| {
        let cmp = compare_profile(&table, &shapes, passes, &actual, &model);
        for (routing, o) in ["static", "calibrated", "oracle"].iter().zip(&cmp.outcomes) {
            report.row(vec![
                name.to_string(),
                routing.to_string(),
                format!("{:.4}", o.total_secs * 1e3),
                o.device_queries.to_string(),
                o.blended_decisions.to_string(),
                format!(
                    "{:.3}x",
                    o.total_secs / cmp.outcomes[2].total_secs.max(1e-30)
                ),
            ]);
        }
        cmp
    });
    report.finish();
    println!("all device and host results byte-identical to the reference (asserted)");

    // Non-gating: the same closed loop on real wall-clock seconds. Paired
    // interleaved timing (plain run / packed run per repetition, median
    // of per-pair ratios — the `reproduce microbench` convention) keeps
    // bursty machine noise out of the observation, which then lands in a
    // store as a `HostScan` sample against the Table-2 prior.
    let q = &shapes[0];
    let (plain_secs, packed_secs, pair_ratio) = paired(cfg.reps.max(3), |packed| {
        let table = if packed { &table } else { &plain };
        black_box(exec::execute(
            table,
            q,
            cfg.threads,
            PipelineMode::Vectorized,
        ));
    });
    let mut wall = CalibrationStore::default();
    for _ in 0..3 {
        copro::record_observation(&mut wall, &model, &table, q, &on_host(q, packed_secs));
    }
    let key = CalKey::new(
        OpKind::HostScan,
        EncodingClass::Packed,
        d.lineorder.rows(),
        false,
    );
    println!(
        "wall-clock (non-gating): host {} {:.3} ms plain / {:.3} ms packed (paired ratio {:.2}x); \
         learned host-scan factor {:.2}x over the Table-2 prior on this machine",
        q.name,
        plain_secs * 1e3,
        packed_secs * 1e3,
        pair_ratio,
        wall.factor(key)
    );

    checks(&truth, &skewed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::verdict;

    /// The calibration bands are part of the test suite, at a reduced
    /// scale (byte-identity is asserted inside [`measure_shapes`]) — and
    /// they bite: the skewed profile opens a static-vs-oracle gap, and the
    /// calibrated replay consults measured history.
    #[test]
    fn calibration_bands_hold() {
        let d = SsbData::generate_scaled(1, 0.004, STREAM_SEED);
        let fact = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
        let table = FactTable::encoded(&d, &fact);
        let shapes = shape_catalogue(&d, 8);
        let model = table2_profile();

        let truth = compare_profile(&table, &shapes, 4, &table2_profile(), &model);
        let skew = compare_profile(&table, &shapes, 4, &skewed_profile(), &model);
        assert!(verdict("calibration", &checks(&truth, &skew)));
        assert!(
            skew.outcomes[2].total_secs < skew.outcomes[0].total_secs,
            "the skewed profile must open a static-vs-oracle gap for the band to bite"
        );
        assert!(
            skew.outcomes[1].blended_decisions > 0,
            "the calibrated replay never consulted measured history"
        );
    }
}
