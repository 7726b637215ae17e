//! Standalone CPU engine: the paper's "Standalone (CPU)".
//!
//! A fused, vectorized pipeline in the style of the paper's CPU
//! implementations (Section 5.2): morsel-driven scheduling with each
//! worker processing 1024-row vectors. Within a vector the stages run
//! Polychroniou-style — predicates produce a selection vector with
//! branch-free compaction, each join semi-joins the *surviving* rows
//! against its perfect-hash lookup's membership bitmap (compacting
//! again), and the aggregate gathers the group codes of the rows that
//! survived every join and updates a thread-local dense group table.
//! Worker tables merge at the end. Nothing is materialized beyond the current vector, which is the
//! fused-pipeline advantage over the operator-at-a-time engine
//! ([`super::monet`]).
//!
//! This module is two names the benchmark harness pins
//! (`e2e/src/sut.rs`), to go with its Step 0: the engine itself is
//! [`exec::execute`] in [`PipelineMode::Vectorized`] over a [`FactTable`].

use crate::data::SsbData;
use crate::encoding::EncodedFact;
use crate::engines::QueryTrace;
use crate::exec::{self, PipelineMode};
use crate::plan::StarQuery;
use crate::table::FactTable;
use crate::QueryResult;

/// Pinned shim: the vectorized executor over the plain table.
pub fn execute(d: &SsbData, q: &StarQuery, threads: usize) -> (QueryResult, QueryTrace) {
    exec::execute(&FactTable::plain(d), q, threads, PipelineMode::Vectorized)
}

/// Pinned shim: the vectorized executor over an encoded table.
pub fn execute_encoded(
    d: &SsbData,
    fact: &EncodedFact,
    q: &StarQuery,
    threads: usize,
) -> (QueryResult, QueryTrace) {
    let table = FactTable::encoded(d, fact);
    exec::execute(&table, q, threads, PipelineMode::Vectorized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::FactEncodings;
    use crate::engines::reference;
    use crate::queries::all_queries;

    #[test]
    fn matches_reference_on_all_queries() {
        let d = SsbData::generate_scaled(1, 0.004, 13);
        for q in all_queries(&d) {
            let expected = reference::execute(&d, &q);
            let (got, _) = execute(&d, &q, 4);
            assert_eq!(got, expected, "{} diverged", q.name);
        }
    }

    #[test]
    fn trace_counts_are_consistent() {
        let d = SsbData::generate_scaled(1, 0.004, 13);
        let q = crate::queries::query(&d, crate::QueryId::new(2, 1));
        let (result, trace) = execute(&d, &q, 4);
        assert_eq!(trace.fact_rows, d.lineorder.rows());
        assert_eq!(
            trace.pred_survivors, trace.fact_rows,
            "q2.1 has no fact preds"
        );
        // Each stage's probes equal the previous stage's hits.
        assert_eq!(trace.stages[0].probes, trace.fact_rows);
        assert_eq!(trace.stages[1].probes, trace.stages[0].hits);
        assert_eq!(trace.stages[2].probes, trace.stages[1].hits);
        assert_eq!(trace.result_rows, trace.stages[2].hits);
        assert_eq!(trace.groups, result.rows());
        // Supplier region filter keeps ~1/5 of rows.
        let s0 = trace.stages[0].hits as f64 / trace.stages[0].probes as f64;
        assert!((s0 - 0.2).abs() < 0.02, "supplier selectivity {s0}");
        // Part category filter keeps ~1/25.
        let s1 = trace.stages[1].hits as f64 / trace.stages[1].probes as f64;
        assert!((s1 - 0.04).abs() < 0.01, "part selectivity {s1}");
    }

    #[test]
    fn single_thread_equals_parallel() {
        let d = SsbData::generate_scaled(1, 0.002, 17);
        for q in all_queries(&d).into_iter().take(5) {
            let (a, _) = execute(&d, &q, 1);
            let (b, _) = execute(&d, &q, 4);
            assert_eq!(a, b);
        }
    }

    /// The engine's encoded entry point is byte-identical to its plain
    /// one on every query at the tightest packing.
    #[test]
    fn encoded_execution_is_byte_identical() {
        let d = SsbData::generate_scaled(1, 0.002, 23);
        let fact = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
        for q in all_queries(&d) {
            let (plain, _) = execute(&d, &q, 4);
            let (packed, _) = execute_encoded(&d, &fact, &q, 4);
            assert_eq!(plain, packed, "{} diverged under packing", q.name);
        }
    }
}
