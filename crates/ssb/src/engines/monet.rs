//! MonetDB-style engine: operator-at-a-time with full materialization.
//!
//! MonetDB executes one operator at a time over entire columns, fully
//! materializing every intermediate (selection bitmaps, candidate lists,
//! join payloads) in memory before the next operator starts. This engine
//! reproduces that execution style faithfully:
//!
//! 1. each fact predicate scans its whole column into a materialized
//!    byte-mask, masks are AND-ed pairwise (each a full pass);
//! 2. the final mask is converted into a materialized row-id list;
//! 3. each join gathers its FK column through the row-id list into a new
//!    vector, probes, and materializes both the surviving row-id list and
//!    the carried group codes;
//! 4. the aggregate inputs are gathered and reduced.
//!
//! All the intermediate traffic the fused engines avoid is paid here —
//! the reason the paper measures its standalone CPU engine ~2.5x faster
//! than MonetDB (Section 5.2).

use crystal_cpu::exec::scoped_map;

use crate::data::SsbData;
use crate::engines::{group_key, DimLookup, GroupAcc};
use crate::plan::StarQuery;
use crate::QueryResult;

/// Executes a query operator-at-a-time.
pub fn execute(d: &SsbData, q: &StarQuery, threads: usize) -> QueryResult {
    let n = d.lineorder.rows();

    // Operator 1..k: predicate scans producing materialized masks.
    let mut mask: Option<Vec<u8>> = None;
    for p in &q.fact_preds {
        let col = p.col.data(d);
        let stage: Vec<Vec<u8>> = scoped_map(n, threads, |range| {
            range.map(|i| u8::from(p.matches(col[i]))).collect()
        });
        let stage: Vec<u8> = stage.concat();
        mask = Some(match mask {
            None => stage,
            Some(prev) => {
                // AND operator: another full materialized pass.
                let merged: Vec<Vec<u8>> = scoped_map(n, threads, |range| {
                    range.map(|i| prev[i] & stage[i]).collect()
                });
                merged.concat()
            }
        });
    }

    // Candidate-list materialization.
    let mut ids: Vec<u32> = match &mask {
        None => (0..n as u32).collect(),
        Some(m) => m
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b != 0).then_some(i as u32))
            .collect(),
    };

    // Join operators: gather-probe-materialize per join.
    let lookups: Vec<DimLookup> = q.joins.iter().map(|j| DimLookup::cached(d, j)).collect();
    let mut code_cols: Vec<Vec<i32>> = Vec::new();
    for (j, lk) in lookups.iter().enumerate() {
        let fk = q.joins[j].fact_fk.data(d);
        // Materialized gather of the FK values for the candidates.
        let gathered: Vec<Vec<i32>> = scoped_map(ids.len(), threads, |range| {
            range.map(|k| fk[ids[k] as usize]).collect()
        });
        let gathered: Vec<i32> = gathered.concat();
        // Probe, materializing survivors and their codes.
        let mut new_ids = Vec::with_capacity(ids.len());
        let mut new_codes = Vec::with_capacity(ids.len());
        let mut kept_prev: Vec<Vec<i32>> = vec![Vec::new(); code_cols.len()];
        for (k, &fkv) in gathered.iter().enumerate() {
            if let Some(code) = lk.get(fkv) {
                new_ids.push(ids[k]);
                new_codes.push(code);
                for (c, col) in code_cols.iter().enumerate() {
                    kept_prev[c].push(col[k]);
                }
            }
        }
        ids = new_ids;
        code_cols = kept_prev;
        code_cols.push(new_codes);
    }

    // Aggregation operator.
    let digits = q.group_digits();
    let mut agg = GroupAcc::new(q.group_domain());
    for (k, &row) in ids.iter().enumerate() {
        let idx = group_key(&digits, |j| code_cols[j][k]);
        agg.add(idx, q.agg.eval(d, row as usize));
    }
    agg.to_result(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::reference;
    use crate::queries::all_queries;

    #[test]
    fn matches_reference_on_all_queries() {
        let d = SsbData::generate_scaled(1, 0.003, 29);
        for q in all_queries(&d) {
            let expected = reference::execute(&d, &q);
            let got = execute(&d, &q, 4);
            assert_eq!(got, expected, "{} diverged", q.name);
        }
    }

    #[test]
    fn single_thread_matches_parallel() {
        let d = SsbData::generate_scaled(1, 0.002, 31);
        let q = crate::queries::query(&d, crate::QueryId::new(3, 1));
        assert_eq!(execute(&d, &q, 1), execute(&d, &q, 4));
    }
}
