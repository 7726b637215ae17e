//! Property tests for the SSB generator, plans and engines.

use proptest::prelude::*;

use crystal_ssb::arbitrary::random_star_query;
use crystal_ssb::encoding::random_encodings;
use crystal_ssb::engines::{cpu, dim_table_bytes, hyper, reference, DimBuild, DimLookup};
use crystal_ssb::exec::{execute, HostQueryJob, PipelineMode};
use crystal_ssb::plan::{DimAttr, DimJoin, DimPred, DimTable, FactCol};
use crystal_ssb::queries::{all_queries, query, QueryId};
use crystal_ssb::{EncodedFact, FactTable, PartitionedFact, SsbData};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Generator invariants hold for arbitrary seeds: FKs reference valid
    /// dimension rows, value domains match the SSB spec, hierarchies are
    /// consistent.
    #[test]
    fn generator_invariants(seed in any::<u64>()) {
        let d = SsbData::generate_scaled(1, 0.001, seed);
        let lo = &d.lineorder;
        let days: std::collections::HashSet<i32> = d.date.datekey.iter().copied().collect();
        for i in 0..lo.rows() {
            prop_assert!(days.contains(&lo.orderdate[i]));
            prop_assert!((0..d.customer.custkey.len() as i32).contains(&lo.custkey[i]));
            prop_assert!((0..d.part.partkey.len() as i32).contains(&lo.partkey[i]));
            prop_assert!((0..d.supplier.suppkey.len() as i32).contains(&lo.suppkey[i]));
            prop_assert!((1..=50).contains(&lo.quantity[i]));
            prop_assert!((0..=10).contains(&lo.discount[i]));
            prop_assert_eq!(lo.revenue[i], lo.extendedprice[i] / 100 * (100 - lo.discount[i]));
        }
        for row in 0..d.part.partkey.len() {
            prop_assert_eq!(d.part.category[row], d.part.brand1[row] / 40);
            prop_assert_eq!(d.part.mfgr[row], d.part.category[row] / 5);
        }
    }

    /// Engine equivalence holds for arbitrary dataset seeds, not just the
    /// fixed test seed.
    #[test]
    fn engines_agree_for_any_seed(seed in any::<u64>(), flight in 1u8..5) {
        let d = SsbData::generate_scaled(1, 0.002, seed);
        let q = query(&d, QueryId::new(flight, 1));
        let expected = reference::execute(&d, &q);
        let (got_cpu, _) = cpu::execute(&d, &q, 3);
        prop_assert_eq!(&got_cpu, &expected);
        let got_hyper = hyper::execute(&d, &q, 3);
        prop_assert_eq!(&got_hyper, &expected);
    }

    /// Query traces are internally consistent for every query on arbitrary
    /// data: stage probes match the previous stage's hits, selectivities
    /// are monotone non-increasing.
    #[test]
    fn traces_are_consistent(seed in any::<u64>()) {
        let d = SsbData::generate_scaled(1, 0.002, seed);
        for q in all_queries(&d) {
            let (_, trace) = cpu::execute(&d, &q, 2);
            prop_assert_eq!(trace.fact_rows, d.lineorder.rows());
            prop_assert!(trace.pred_survivors <= trace.fact_rows);
            let mut prev = trace.pred_survivors;
            for s in &trace.stages {
                prop_assert_eq!(s.probes, prev, "{}", q.name);
                prop_assert!(s.hits <= s.probes);
                prev = s.hits;
            }
            prop_assert_eq!(trace.result_rows, prev);
            for i in 0..=trace.stages.len() {
                let f = trace.selectivity_before_stage(i.min(trace.stages.len()));
                prop_assert!((0.0..=1.0).contains(&f));
            }
        }
    }

    /// Reordering the joins never changes what a query computes on random
    /// `StarQuery`s: each plan's joins reversed (even seeds) or rotated by
    /// a seed-chosen 1..n-1 places (odd seeds), so a plan of two or more
    /// joins always runs in another order. The reordered plan's oracle
    /// result matches its engine results, and checksum/row-count are
    /// invariant against the declared order (group-key *column* order
    /// legitimately permutes with the joins).
    #[test]
    fn join_reorder_preserves_results(seed in any::<u64>()) {
        let d = SsbData::generate_scaled(1, 0.001, seed);
        for i in 0..6u64 {
            let qseed = seed.wrapping_add(i);
            let q = random_star_query(&d, qseed);
            let declared = reference::execute(&d, &q);
            let mut reordered = q.clone();
            let n = reordered.joins.len() as u64;
            if qseed % 2 == 0 {
                reordered.joins.reverse();
            } else if n > 1 {
                reordered.joins.rotate_left((1 + qseed / 2 % (n - 1)) as usize);
            }
            let expected = reference::execute(&d, &reordered);
            prop_assert_eq!(expected.checksum(), declared.checksum(), "seed {qseed}");
            prop_assert_eq!(expected.rows(), declared.rows(), "seed {qseed}");
            let (got, _) = cpu::execute(&d, &reordered, 3);
            prop_assert_eq!(&got, &expected, "seed {qseed}: cpu on reordered plan");
            let got_hyper = hyper::execute(&d, &reordered, 3);
            prop_assert_eq!(&got_hyper, &expected, "seed {qseed}: hyper on reordered plan");
        }
    }

    /// The vectorized pipeline — first predicate accumulating survivors
    /// across chunks, later stages on full vectors — computes what the
    /// row-at-a-time pipeline computes, trace counters included: random
    /// plans (0-2 fact predicates, 0-4 joins) over randomly mixed
    /// per-column encodings, run to completion and in resumable grants of
    /// any size across shard boundaries.
    #[test]
    fn vectorized_pipeline_equals_the_per_row_pipeline(
        seed in any::<u64>(),
        grant in 1usize..5000,
        shards in 1usize..6,
    ) {
        let d = SsbData::generate_scaled(1, 0.001, seed);
        let enc = random_encodings(&d, seed);
        let fact = EncodedFact::encode(&d, &enc);
        let pf = PartitionedFact::partition(&d, shards, &enc);
        let plain = FactTable::plain(&d);
        let (encoded, sharded) = (FactTable::encoded(&d, &fact), FactTable::sharded(&d, &pf));
        for i in 0..6u64 {
            let qseed = seed.wrapping_add(i);
            let q = random_star_query(&d, qseed);
            let per_row = execute(&plain, &q, 1, PipelineMode::TupleAtATime);
            prop_assert_eq!(&per_row.0, &reference::execute(&d, &q), "seed {}", qseed);
            let got = execute(&encoded, &q, 2, PipelineMode::Vectorized);
            prop_assert_eq!(&got, &per_row, "seed {}: to completion", qseed);
            let mut job = HostQueryJob::over(&sharded, &q, PipelineMode::Vectorized);
            while !job.step(grant) {}
            prop_assert_eq!(&job.finish(), &per_row, "seed {}: grants of {}", qseed, grant);
        }
    }

    /// The columnar dimension build agrees slot for slot with the row-wise
    /// oracle (`row_matches` / `row_group_value`) — for the host lookup and
    /// for the `(key, code)` pairs the device build inserts — over the
    /// joins of all 13 canned plans, of random plans (`Eq` / `Between` /
    /// `In`, unfiltered, ungrouped) and of hand-picked edges: nothing
    /// filtered and nothing grouped, everything filtered out, the
    /// non-dense date keys, the largest code domain.
    #[test]
    fn dim_builds_match_the_row_oracle(seed in any::<u64>()) {
        let d = SsbData::generate_scaled(1, 0.0005, seed);
        let join = |table, fact_fk, filter, group_attr| DimJoin { table, fact_fk, filter, group_attr };
        let mut joins = vec![
            join(DimTable::Customer, FactCol::CustKey, None, None),
            join(DimTable::Date, FactCol::OrderDate, None, Some(DimAttr::YearMonthNum)),
            join(
                DimTable::Date,
                FactCol::OrderDate,
                Some(DimPred::Between(DimAttr::YearMonthNum, 199311, 199402)),
                Some(DimAttr::WeekNumInYear),
            ),
            join(DimTable::Date, FactCol::OrderDate, Some(DimPred::Between(DimAttr::Year, 1998, 1992)), None),
            join(DimTable::Supplier, FactCol::SuppKey, Some(DimPred::In(DimAttr::City, vec![])), Some(DimAttr::City)),
            join(DimTable::Part, FactCol::PartKey, Some(DimPred::Eq(DimAttr::Brand1, 999)), Some(DimAttr::Brand1)),
        ];
        joins.extend(all_queries(&d).into_iter().flat_map(|q| q.joins));
        joins.extend((0..12u64).flat_map(|i| random_star_query(&d, seed.wrapping_add(i)).joins));

        for j in &joins {
            let keys = j.keys(&d);
            let min = *keys.iter().min().unwrap();
            let max = *keys.iter().max().unwrap();
            prop_assert_eq!(d.key_range(j.table), (min, max));

            // The oracle: one entry per slot of the key range, row by row.
            let mut expected = vec![None; (max - min + 1) as usize];
            let mut pairs = Vec::new();
            for (row, &key) in keys.iter().enumerate() {
                let code = j.row_matches(&d, row).then(|| match j.group_attr {
                    None => 0,
                    Some(a) => a.dense(j.row_group_value(&d, row)) as i32,
                });
                expected[(key - min) as usize] = code;
                pairs.extend(code.map(|c| (key, c)));
            }

            let lk = DimLookup::build(&d, j);
            for (slot, want) in expected.iter().enumerate() {
                prop_assert_eq!(lk.get(min + slot as i32), *want, "{:?} key {}", j, min + slot as i32);
            }
            prop_assert_eq!(lk.get(min - 1), None);
            prop_assert_eq!(lk.get(max + 1), None);
            prop_assert_eq!(lk.inserted, pairs.len(), "{:?}", j);
            prop_assert_eq!(dim_table_bytes(&d, j), 8 * expected.len());

            let build = DimBuild::scan(&d, j);
            let got: Vec<(i32, i32)> = build.keys.iter().copied().zip(build.codes.iter().copied()).collect();
            prop_assert_eq!(&got, &pairs, "{:?}", j);
            prop_assert_eq!(build.inserted(), lk.inserted);
            prop_assert_eq!((build.min_key, build.max_key, build.key_range()), (min, max, expected.len()));
        }
    }
}
