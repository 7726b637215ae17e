//! Property tests for the CPU operator implementations.

use proptest::collection::vec;
use proptest::prelude::*;

use crystal_cpu::join::{probe_prefetch, probe_scalar, probe_simd, CpuHashTable};
use crystal_cpu::radix::{lsb_radix_sort, radix_partition_stable};
use crystal_cpu::select::{select, SelectVariant};
use crystal_storage::bitpack::PackedColumn;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All selection variants agree for arbitrary data, thresholds and
    /// thread counts.
    #[test]
    fn select_variants_agree(
        data in vec(any::<i32>(), 0..4000),
        v in any::<i32>(),
        threads in 1usize..6,
    ) {
        let mut results: Vec<Vec<i32>> = [
            SelectVariant::Branching,
            SelectVariant::Predication,
            SelectVariant::SimdPred,
        ]
        .iter()
        .map(|&variant| {
            let mut r = select(&data[..], v, threads, variant);
            r.sort_unstable();
            r
        })
        .collect();
        let expected = {
            let mut e: Vec<i32> = data.iter().copied().filter(|&y| y < v).collect();
            e.sort_unstable();
            e
        };
        prop_assert_eq!(&results.remove(0), &expected);
        prop_assert_eq!(&results.remove(0), &expected);
        prop_assert_eq!(&results.remove(0), &expected);
    }

    /// LSB radix sort equals std stable sort (including value order) for
    /// any input and thread count.
    #[test]
    fn lsb_sort_is_stable_std_sort(keys in vec(any::<u32>(), 0..4000), threads in 1usize..5) {
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        let (sk, sv) = lsb_radix_sort(&keys, &vals, threads);
        let mut expected: Vec<(u32, u32)> = keys.iter().copied().zip(vals).collect();
        expected.sort_by_key(|&(k, _)| k);
        let got: Vec<(u32, u32)> = sk.into_iter().zip(sv).collect();
        prop_assert_eq!(got, expected);
    }

    /// Stable partition + concatenation is a permutation grouped by digit,
    /// independent of thread count.
    #[test]
    fn partition_thread_count_invariance(
        keys in vec(any::<u32>(), 1..3000),
        bits in 1u32..10,
        t1 in 1usize..4,
        t2 in 4usize..8,
    ) {
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        let a = radix_partition_stable(&keys, &vals, bits, 0, t1);
        let b = radix_partition_stable(&keys, &vals, bits, 0, t2);
        prop_assert_eq!(a, b, "partitioning must be deterministic across thread counts");
    }

    /// All three probe variants agree with a reference hash-map join.
    #[test]
    fn joins_agree_with_reference(
        build_n in 1usize..1500,
        probes in vec(0i32..4000, 0..2000),
    ) {
        let build_keys: Vec<i32> = (0..build_n as i32).map(|k| k * 2).collect(); // evens only
        let build_vals: Vec<i32> = build_keys.iter().map(|k| k + 7).collect();
        let probe_vals: Vec<i32> = (0..probes.len() as i32).collect();
        let reference: i64 = {
            let map: std::collections::HashMap<i32, i32> =
                build_keys.iter().copied().zip(build_vals.iter().copied()).collect();
            probes
                .iter()
                .zip(&probe_vals)
                .filter_map(|(&k, &v)| map.get(&k).map(|&bv| v as i64 + bv as i64))
                .sum()
        };
        let ht = CpuHashTable::build_parallel(
            &build_keys,
            &build_vals,
            (build_n * 2).next_power_of_two(),
            2,
        );
        prop_assert_eq!(probe_scalar(&ht, &probes, &probe_vals, 3), reference);
        prop_assert_eq!(probe_simd(&ht, &probes, &probe_vals, 3), reference);
        prop_assert_eq!(probe_prefetch(&ht, &probes, &probe_vals, 3), reference);
    }

    /// Selection over a packed column equals the filter for every width
    /// 1..=32 and every variant.
    #[test]
    fn packed_select_is_a_filter(values in vec(any::<i32>(), 0..3000), bits in 1u32..33) {
        let domain = (1i64 << bits.min(31)) - 1;
        let values: Vec<i32> = values.into_iter().map(|y| y & domain as i32).collect();
        let packed = PackedColumn::pack(&values, bits).unwrap();
        let v = (domain / 2) as i32;
        let mut expected: Vec<i32> = values.iter().copied().filter(|&y| y < v).collect();
        expected.sort_unstable();
        for variant in [SelectVariant::Branching, SelectVariant::Predication, SelectVariant::SimdPred] {
            let mut got = select(&packed.view(), v, 3, variant);
            got.sort_unstable();
            prop_assert_eq!(&got, &expected);
        }
    }
}
