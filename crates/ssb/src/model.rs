//! Paper-scale (SF-20) query-time models driven by execution traces.
//!
//! The bench harness runs each query at a reduced scale, collects its
//! [`QueryTrace`] (per-stage probe counts and selectivities — properties of
//! the *workload*, independent of scale), and this module evaluates the
//! Section 5.3 model at the paper's SF-20 cardinalities on the Table 2
//! hardware. This is how Figures 3 and 16's paper-scale CPU series are
//! produced without a 13 GB dataset or an 8-core Skylake.

use crystal_hardware::{CpuSpec, GpuSpec};
use crystal_models::ssb::CPU_DEPENDENT_PROBE_STALL;

use crate::engines::QueryTrace;
use crate::plan::{DimTable, StarQuery};

/// SF-20 cardinalities (Section 5.1 / 5.3).
pub mod sf20 {
    /// Fact rows: 120M.
    pub(crate) const LINEORDER: usize = 120_000_000;
    pub(crate) const SUPPLIER: usize = 40_000;
    pub(crate) const CUSTOMER: usize = 600_000;
    pub(crate) const PART: usize = 1_000_000;
    pub(crate) const DATE: usize = 2_557;
    /// `d_datekey` spans 19920101..=19981231; a perfect-hash table covers
    /// the whole key range.
    pub(crate) const DATE_KEY_RANGE: usize = (19981231 - 19920101 + 1) as usize;
}

/// SF-20 rows of a dimension.
pub(crate) fn dim_rows(table: DimTable) -> usize {
    match table {
        DimTable::Date => sf20::DATE,
        DimTable::Part => sf20::PART,
        DimTable::Supplier => sf20::SUPPLIER,
        DimTable::Customer => sf20::CUSTOMER,
    }
}

/// SF-20 perfect-hash footprint of a dimension (8 bytes per key-range
/// slot — the paper's `2 x 4 x |P|`).
pub(crate) fn dim_ht_bytes(table: DimTable) -> usize {
    match table {
        DimTable::Date => 8 * sf20::DATE_KEY_RANGE,
        t => 8 * dim_rows(t),
    }
}

/// Per-fact-column cumulative selectivity at first use, reconstructed from
/// the plan and trace: predicate columns scan fully, FK columns are loaded
/// selectively after earlier stages, aggregate-only columns after all
/// stages.
fn column_selectivities(q: &StarQuery, trace: &QueryTrace) -> Vec<f64> {
    let mut sels = Vec::new();
    for (i, col) in q.fact_columns().into_iter().enumerate() {
        if i == 0 || q.fact_preds.iter().any(|p| p.col == col) {
            sels.push(1.0);
        } else if let Some(j) = q.joins.iter().position(|jn| jn.fact_fk == col) {
            sels.push(trace.selectivity_before_stage(j));
        } else {
            sels.push(trace.result_frac());
        }
    }
    sels
}

/// Shared column-access term: `sum_cols min(4|L|/C, |L| * sel) * C / Br`.
fn r1_secs(q: &StarQuery, trace: &QueryTrace, line: usize, read_bw: f64) -> f64 {
    let l = sf20::LINEORDER as f64;
    let c = line as f64;
    let full_lines = 4.0 * l / c;
    column_selectivities(q, trace)
        .iter()
        .map(|s| full_lines.min(l * s) * c / read_bw)
        .sum()
}

/// Result read/write term.
fn r3_secs(trace: &QueryTrace, line: usize, read_bw: f64, write_bw: f64) -> f64 {
    let out = trace.result_frac() * sf20::LINEORDER as f64;
    out * line as f64 / read_bw + out * line as f64 / write_bw
}

/// Standalone-CPU query time at SF 20: DRAM streaming overlapped with
/// L3-resident probe traffic (all SSB hash tables fit the 20MB L3), the
/// probes slowed `stall`-fold. `stall = 1` is the ideal model.
fn cpu_stalled_secs(q: &StarQuery, trace: &QueryTrace, cpu: &CpuSpec, stall: f64) -> f64 {
    let streams = r1_secs(q, trace, cpu.cache_line, cpu.read_bw)
        + r3_secs(trace, cpu.cache_line, cpu.read_bw, cpu.write_bw);
    let l = sf20::LINEORDER as f64;
    let probes: f64 = (0..q.joins.len())
        .map(|j| trace.selectivity_before_stage(j) * l)
        .sum();
    let probe_secs = probes * cpu.cache_line as f64 / cpu.l3_bw;
    streams.max(probe_secs * stall)
}

/// Empirical standalone-CPU time: probes slowed by the dependent-access
/// stall factor — the series comparable to the paper's measured
/// "Standalone (CPU)" bars.
pub fn cpu_empirical_secs(q: &StarQuery, trace: &QueryTrace, cpu: &CpuSpec) -> f64 {
    cpu_stalled_secs(q, trace, cpu, CPU_DEPENDENT_PROBE_STALL)
}

/// "Standalone CPU ... does on an average 1.17x better than \[Hyper\]"
/// (Section 5.2).
pub(crate) const HYPER_VS_STANDALONE: f64 = 1.17;

/// "The Standalone CPU is on an average 2.5x faster than MonetDB"
/// (Section 5.2).
pub(crate) const MONETDB_VS_STANDALONE: f64 = 2.5;

/// Hyper's modeled SF-20 time.
pub fn hyper_secs(q: &StarQuery, trace: &QueryTrace, cpu: &CpuSpec) -> f64 {
    cpu_empirical_secs(q, trace, cpu) * HYPER_VS_STANDALONE
}

/// MonetDB's modeled SF-20 time.
pub fn monetdb_secs(q: &StarQuery, trace: &QueryTrace, cpu: &CpuSpec) -> f64 {
    cpu_empirical_secs(q, trace, cpu) * MONETDB_VS_STANDALONE
}

/// Ideal standalone-GPU query time at SF 20 — the Section 5.3 three-
/// component model generalized to every query, combined with the
/// simulator's latency-hiding rule: HBM traffic (column streams, probe
/// misses, result) and L2 probe traffic are separate resources that
/// overlap, so the query time is their maximum. Cross-checks the
/// simulator.
pub fn gpu_secs(q: &StarQuery, trace: &QueryTrace, gpu: &GpuSpec) -> f64 {
    let c = gpu.cache_line as f64;
    let l = sf20::LINEORDER as f64;
    let r1 = r1_secs(q, trace, gpu.cache_line, gpu.read_bw);
    // HBM probe misses: small tables stay L2-resident (their footprint
    // streams in once); tables exceeding the remaining L2 miss at rate
    // (1 - pi). Every probe also moves sector-granular traffic across the
    // L2->SM path.
    let mut remaining = gpu.l2_size as f64;
    let mut order: Vec<usize> = (0..q.joins.len()).collect();
    order.sort_by_key(|&j| dim_ht_bytes(q.joins[j].table));
    let mut hbm_probe = 0.0;
    let mut l2_traffic = 0.0;
    for j in order {
        let ht = dim_ht_bytes(q.joins[j].table) as f64;
        let probes = trace.selectivity_before_stage(j) * l;
        l2_traffic += probes * gpu.l2_transfer_bytes as f64 / gpu.l2_bw;
        if ht <= remaining {
            hbm_probe += 2.0 * dim_rows(q.joins[j].table) as f64 * c / gpu.read_bw;
            remaining -= ht;
        } else {
            let pi = (remaining / ht).min(1.0);
            hbm_probe += (1.0 - pi) * probes * c / gpu.read_bw;
        }
    }
    let r3 = r3_secs(trace, gpu.cache_line, gpu.read_bw, gpu.write_bw);
    (r1 + hbm_probe + r3).max(l2_traffic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SsbData;
    use crate::engines::cpu as cpu_engine;
    use crate::queries::{all_queries, query, QueryId};
    use crystal_hardware::{intel_i7_6900, nvidia_v100};

    fn traced(d: &SsbData, id: QueryId) -> (StarQuery, QueryTrace) {
        let q = query(d, id);
        let (_, trace) = cpu_engine::execute(d, &q, 2);
        (q, trace)
    }

    #[test]
    fn q21_model_reproduces_case_study() {
        let d = SsbData::generate_scaled(1, 0.01, 7);
        let (q, trace) = traced(&d, QueryId::new(2, 1));
        let cpu = intel_i7_6900();
        let gpu = nvidia_v100();
        let c_ms = cpu_stalled_secs(&q, &trace, &cpu, 1.0) * 1e3;
        let ce_ms = cpu_empirical_secs(&q, &trace, &cpu) * 1e3;
        let g_ms = gpu_secs(&q, &trace, &gpu) * 1e3;
        // Paper: model 47 (CPU) / 3.7 (GPU); measured 125 / 3.86.
        assert!((35.0..70.0).contains(&c_ms), "cpu {c_ms}");
        assert!((95.0..165.0).contains(&ce_ms), "cpu empirical {ce_ms}");
        assert!((1.5..5.0).contains(&g_ms), "gpu {g_ms}");
    }

    /// The paper's hand-picked q2.1 plan ("supplier, then part, and finally
    /// date", Section 5.3) is the cheaper one under the GPU model: probing
    /// the out-of-L2 part table with every fact row costs more than its
    /// better selectivity saves later.
    #[test]
    fn canned_q21_order_beats_part_first() {
        let d = SsbData::generate_scaled(1, 0.003, 13);
        let gpu = nvidia_v100();
        let (canned, trace) = traced(&d, QueryId::new(2, 1));
        let order: Vec<DimTable> = canned.joins.iter().map(|j| j.table).collect();
        assert_eq!(order, [DimTable::Supplier, DimTable::Part, DimTable::Date]);
        let mut part_first = canned.clone();
        part_first.joins.swap(0, 1);
        let (_, part_trace) = cpu_engine::execute(&d, &part_first, 2);
        let canned_ms = gpu_secs(&canned, &trace, &gpu) * 1e3;
        let part_ms = gpu_secs(&part_first, &part_trace, &gpu) * 1e3;
        assert!(
            canned_ms < part_ms,
            "canned {canned_ms} ms, part first {part_ms} ms"
        );
    }

    #[test]
    fn mean_speedup_is_in_the_paper_band() {
        // Figure 16: Standalone GPU is on average ~25x faster than
        // standalone CPU (above the 16.2 bandwidth ratio).
        let d = SsbData::generate_scaled(1, 0.01, 7);
        let cpu = intel_i7_6900();
        let gpu = nvidia_v100();
        let mut ratios = Vec::new();
        for q in all_queries(&d) {
            let (_, trace) = cpu_engine::execute(&d, &q, 2);
            let r = cpu_empirical_secs(&q, &trace, &cpu) / gpu_secs(&q, &trace, &gpu);
            ratios.push(r);
        }
        let gm = geometric_mean(&ratios);
        assert!(
            (14.0..40.0).contains(&gm),
            "mean modeled speedup {gm} (ratios {ratios:?})"
        );
    }

    fn geometric_mean(xs: &[f64]) -> f64 {
        (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
    }

    #[test]
    fn engine_style_orderings_hold() {
        let d = SsbData::generate_scaled(1, 0.005, 7);
        let (q, trace) = traced(&d, QueryId::new(3, 1));
        let cpu = intel_i7_6900();
        let standalone = cpu_empirical_secs(&q, &trace, &cpu);
        assert!(hyper_secs(&q, &trace, &cpu) > standalone);
        assert!(monetdb_secs(&q, &trace, &cpu) > hyper_secs(&q, &trace, &cpu));
    }

    #[test]
    fn q11_is_scan_bound_on_both_devices() {
        let d = SsbData::generate_scaled(1, 0.01, 7);
        let (q, trace) = traced(&d, QueryId::new(1, 1));
        let cpu = intel_i7_6900();
        let gpu = nvidia_v100();
        // No joins: the CPU model is pure streaming; GPU/CPU ratio equals
        // the bandwidth ratio.
        let ratio = cpu_stalled_secs(&q, &trace, &cpu, 1.0) / gpu_secs(&q, &trace, &gpu);
        assert!((13.0..18.0).contains(&ratio), "q1.1 ratio {ratio}");
    }
}
