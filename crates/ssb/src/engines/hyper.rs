//! Hyper-style engine: compiled tuple-at-a-time push pipelines.
//!
//! Hyper (Neumann) compiles each query into a tight loop that pushes one
//! tuple at a time through predicates, probes and the aggregate update,
//! with branches for every filter. This engine reproduces that execution
//! style: one fused row loop per worker, early-exit branches, no selection
//! vectors. The paper finds its own vectorized standalone CPU engine
//! "on average 1.17x better" than Hyper — the gap comes from exactly the
//! vectorization opportunities a tuple-at-a-time loop leaves on the table
//! (Section 5.2).
//!
//! Lowers onto the shared morsel-driven executor ([`crate::exec`]) in
//! [`PipelineMode::TupleAtATime`] — Hyper itself pioneered morsel-driven
//! scheduling (Leis et al.), so stealing morsels while pushing tuples is
//! the faithful reproduction of that system's execution model.

use crate::data::SsbData;
use crate::exec::{self, PipelineMode};
use crate::plan::StarQuery;
use crate::table::FactTable;
use crate::QueryResult;

/// Executes a query with tuple-at-a-time pipelines.
pub fn execute(d: &SsbData, q: &StarQuery, threads: usize) -> QueryResult {
    exec::execute(&FactTable::plain(d), q, threads, PipelineMode::TupleAtATime).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::reference;
    use crate::queries::all_queries;

    // Packed push loops are `tests/shape_matrix.rs`, over every shape.
    #[test]
    fn matches_reference_on_all_queries() {
        let d = SsbData::generate_scaled(1, 0.003, 23);
        for q in all_queries(&d) {
            let expected = reference::execute(&d, &q);
            let got = execute(&d, &q, 4);
            assert_eq!(got, expected, "{} diverged", q.name);
        }
    }
}
