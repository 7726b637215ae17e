//! The `reproduce fusion` experiment: whole-query fusion pinned by an
//! HBM-traffic differential harness.
//!
//! Every canned SSB query runs twice through one warm device session:
//! once on the **fused** tile-at-a-time megakernel (select → probe×N →
//! aggregate in a single launch, intermediates in shared memory and
//! registers) and once on the **unfused** per-operator path
//! (thread-per-row kernels materializing a survivor flag array through
//! simulated HBM between operators). Both paths resolve columns and
//! memoized dimension tables from the same session, so the measured
//! difference is pure execution style, not residency. Three claims are
//! gated:
//!
//! * **HBM read shrink** ([`Q11_HBM_READ_SHRINK`]) — the per-operator path
//!   re-reads its flag array and every full column per stage, while the
//!   fused tile loads later columns selectively and never writes a
//!   selection vector to HBM.
//! * **One launch per query** ([`FUSED_LAUNCHES`]) — the warm fused pass of
//!   every one of the 13 canned plans, counted by the device's cumulative
//!   [`crystal_gpu_sim::ExecStats`].
//! * **Byte-identity** — fused and unfused results are asserted equal to
//!   the reference oracle on every query (the broader pinned-seed random
//!   suite lives in `tests/differential_random.rs`).

use crystal_gpu_sim::ExecStats;
use crystal_hardware::table2_profile;
use crystal_ssb::{all_queries, FactTable, SsbData};

use crate::check::{Band, Check};
use crate::stream::{replay_engines, Engine, Sessions, STREAM_SEED};
use crate::util::{Config, Report};

/// q1.1's unfused over fused HBM reads (the PR 3 ~2.3x packed-read shrink
/// set the pattern; fusion typically lands well above 2x here).
pub const Q11_HBM_READ_SHRINK: Band = Band::new(
    "fused q1.1 HBM read shrink (>= 1.8x)",
    2.0,
    1.8..=f64::INFINITY,
);
/// The most kernel launches any canned plan's warm fused pass took.
pub const FUSED_LAUNCHES: Band =
    Band::new("fused launches per plan (13 plans, == 1)", 1.0, 1.0..=1.0);

/// One query's fused-vs-unfused differential measurement.
#[derive(Debug, Clone)]
pub struct FusionMeasurement {
    pub query: String,
    /// Device counters of the warm fused pass.
    pub fused: ExecStats,
    /// Device counters of the warm unfused (per-operator) pass.
    pub unfused: ExecStats,
}

impl FusionMeasurement {
    /// Unfused over fused HBM reads.
    pub fn read_shrink(&self) -> f64 {
        self.unfused.hbm_read_bytes as f64 / self.fused.hbm_read_bytes.max(1) as f64
    }
}

/// Runs every canned query on both GPU paths through one warm session
/// (the oracle is asserted inside [`replay_engines`]) and returns the
/// per-query device counters of the two measured passes.
pub fn measure_fusion(d: &SsbData) -> Vec<FusionMeasurement> {
    let queries = all_queries(d);
    // Per query: a cold fused pass uploads the columns and memoizes the
    // dimension tables both paths share, so the two measured passes after
    // it are pure execution.
    let passes = [Engine::Fused, Engine::Fused, Engine::PerOperator];
    let steps = queries
        .iter()
        .flat_map(|q| passes.map(|engine| (engine, q)));
    let table = FactTable::plain(d);
    let replay = replay_engines(&table, steps, Sessions::Shared(None), &table2_profile());
    let measured = queries.iter().zip(replay.runs.chunks_exact(passes.len()));
    measured
        .map(|(q, runs)| {
            assert!(!runs[0].host_fallback, "a dedicated V100 admits {}", q.name);
            FusionMeasurement {
                query: q.name.to_string(),
                fused: runs[1].exec,
                unfused: runs[2].exec,
            }
        })
        .collect()
}

/// The two bands of a [`measure_fusion`].
pub fn checks(measurements: &[FusionMeasurement]) -> Vec<Check> {
    let q11 = measurements.iter().find(|m| m.query == "q1.1");
    let launches = measurements.iter().map(|m| m.fused.launches).max();
    vec![
        Q11_HBM_READ_SHRINK.check(q11.expect("q1.1 is in the catalogue").read_shrink()),
        FUSED_LAUNCHES.check(launches.expect("the catalogue is not empty") as f64),
    ]
}

/// The `reproduce fusion` experiment. `--smoke` uses a smaller proxy table
/// (the CI gate).
pub fn fusion(cfg: &Config, smoke: bool) -> Vec<Check> {
    let scale = if smoke {
        cfg.fact_scale.min(0.002)
    } else {
        cfg.fact_scale.min(0.004)
    };
    let d = SsbData::generate_scaled(1, scale, STREAM_SEED);
    println!(
        "fusion: {} fact rows, fused megakernel vs per-operator kernels (warm session)",
        d.lineorder.rows()
    );

    let mut report = Report::new(
        "fusion",
        &[
            "query",
            "fused reads B",
            "unfused reads B",
            "read shrink",
            "fused writes B",
            "unfused writes B",
            "fused launches",
            "unfused launches",
        ],
    );
    let measurements = measure_fusion(&d);
    for m in &measurements {
        report.row(vec![
            m.query.clone(),
            m.fused.hbm_read_bytes.to_string(),
            m.unfused.hbm_read_bytes.to_string(),
            format!("{:.2}", m.read_shrink()),
            m.fused.hbm_write_bytes.to_string(),
            m.unfused.hbm_write_bytes.to_string(),
            m.fused.launches.to_string(),
            m.unfused.launches.to_string(),
        ]);
    }
    report.finish();
    println!("every fused and unfused result byte-identical to the oracle (asserted)");
    checks(&measurements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::verdict;

    /// Both bands at the scorecard's scale, and what they do not say:
    /// fusion never writes a selection vector through HBM (the unfused
    /// path's materialized flags dominate its write traffic), and the
    /// per-operator path pays a launch per pipeline stage.
    #[test]
    fn fusion_bands_hold_and_the_unfused_path_pays_per_operator() {
        let ms = measure_fusion(&SsbData::generate_scaled(1, 0.002, STREAM_SEED));
        assert!(verdict("fusion", &checks(&ms)));
        for m in &ms {
            assert!(m.unfused.launches > m.fused.launches, "{}", m.query);
        }
        let q11 = ms.iter().find(|m| m.query == "q1.1").unwrap();
        assert!(q11.fused.hbm_write_bytes < q11.unfused.hbm_write_bytes);
    }
}
