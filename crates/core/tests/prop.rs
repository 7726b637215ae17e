//! Property tests for the Crystal primitives and kernels.

use proptest::collection::vec;
use proptest::prelude::*;

use crystal_core::kernels;
use crystal_core::kernels::radix_join::pass_plan;
use crystal_core::primitives::*;
use crystal_core::selvec::{
    sel_between_init, sel_between_refine, sel_group_digit, sel_probe_tracked, sel_semijoin_init,
    sel_semijoin_refine, slot_bitmap, PerfectHashProbe, CHUNK,
};
use crystal_core::tile::Tile;
use crystal_gpu_sim::exec::{Gpu, LaunchConfig};
use crystal_hardware::nvidia_v100;
use crystal_storage::bitpack::PackedColumn;
use crystal_storage::encoding::ColumnRead;

/// The closure-based value-at-a-time probe the kernels replaced, kept
/// here as their oracle: `lookup` returns `Some(payload)` on a hit.
fn probe_by_closure(
    fk: &[i32],
    lookup: impl Fn(i32) -> Option<i32>,
    sel: &mut [u32],
    count: usize,
    codes: &mut [i32],
) -> usize {
    let mut hits = 0usize;
    for k in 0..count {
        let row = sel[k];
        if let Some(code) = lookup(fk[row as usize]) {
            sel[hits] = row;
            codes[hits] = code;
            hits += 1;
        }
    }
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The load -> pred -> scan -> shuffle -> store pipeline is an exact
    /// filter for arbitrary data, predicates and launch shapes.
    #[test]
    fn select_pipeline_is_exact_filter(
        data in vec(any::<i32>(), 0..3000),
        modulus in 2i32..17,
        bs_pow in 5u32..9,
        ipt in 1usize..5,
    ) {
        let mut gpu = Gpu::new(nvidia_v100());
        let col = gpu.alloc_from(&data);
        let m = modulus;
        let cfg = LaunchConfig::for_items(data.len(), 1usize << bs_pow, ipt);
        let (out, _) = kernels::select_where(&mut gpu, &col, cfg, move |y| y.rem_euclid(m) == 0);
        let expected: Vec<i32> = data.iter().copied().filter(|y| y.rem_euclid(m) == 0).collect();
        prop_assert_eq!(out.as_slice(), &expected[..]);
    }

    /// BlockScan's exclusive prefix sum + total is consistent with the
    /// bitmap for any bitmap contents.
    #[test]
    fn scan_matches_bitmap(bits in vec(any::<bool>(), 1..2048)) {
        let mut gpu = Gpu::new(nvidia_v100());
        let mut result = None;
        gpu.launch("t", LaunchConfig::for_items(bits.len(), 128, 4), |ctx| {
            if ctx.block_idx != 0 {
                return;
            }
            let mut bm: Tile<bool> = Tile::new(bits.len());
            for &b in &bits {
                bm.push(b);
            }
            let mut idx: Tile<u32> = Tile::new(bits.len());
            let total = block_scan(ctx, &bm, &mut idx);
            result = Some((total, idx.as_slice().to_vec()));
        });
        let (total, idx) = result.unwrap();
        prop_assert_eq!(total, bits.iter().filter(|&&b| b).count());
        let mut acc = 0u32;
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(idx[i], acc);
            acc += b as u32;
        }
    }

    /// BlockShuffle compacts exactly the set entries, in order.
    #[test]
    fn shuffle_is_stable_compaction(rows in vec((any::<i32>(), any::<bool>()), 1..1024)) {
        let mut gpu = Gpu::new(nvidia_v100());
        let mut out_vals = None;
        gpu.launch("t", LaunchConfig::for_items(rows.len(), 128, 4), |ctx| {
            if ctx.block_idx != 0 {
                return;
            }
            let mut tile: Tile<i32> = Tile::new(rows.len());
            let mut bm: Tile<bool> = Tile::new(rows.len());
            for &(v, b) in &rows {
                tile.push(v);
                bm.push(b);
            }
            let mut idx: Tile<u32> = Tile::new(rows.len());
            block_scan(ctx, &bm, &mut idx);
            let mut out: Tile<i32> = Tile::new(rows.len());
            block_shuffle(ctx, &tile, &bm, &idx, &mut out);
            out_vals = Some(out.as_slice().to_vec());
        });
        let expected: Vec<i32> = rows.iter().filter(|(_, b)| *b).map(|(v, _)| *v).collect();
        prop_assert_eq!(out_vals.unwrap(), expected);
    }

    /// Radix pass plans cover the requested bits with stable-sized chunks.
    #[test]
    fn pass_plans_cover_bits(total in 1u32..33) {
        let plan = pass_plan(total);
        prop_assert_eq!(plan.iter().sum::<u32>(), total);
        prop_assert!(plan.iter().all(|&b| (1..=7).contains(&b)));
    }

    /// Packed columns round-trip through the device kernel for any width.
    #[test]
    fn packed_select_roundtrip(seed in any::<u64>(), bits in 2u32..31, n in 1usize..3000) {
        let domain = 1i64 << (bits - 1);
        let mut x = seed | 1;
        let values: Vec<i32> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 33) as i64 % domain) as i32
            })
            .collect();
        let packed = PackedColumn::pack(&values, bits).unwrap();
        let mut gpu = Gpu::new(nvidia_v100());
        let dev = kernels::DevicePackedColumn::upload(&mut gpu, &packed);
        let v = (domain / 2) as i32;
        let (out, _) = kernels::select_gt_packed(&mut gpu, &dev, v);
        let expected: Vec<i32> = values.iter().copied().filter(|&y| y > v).collect();
        prop_assert_eq!(out.as_slice(), &expected[..]);
    }

    /// The chunked two-phase selection scan is value-identical to a plain
    /// filter over the rows for every bit width 1..=32, random
    /// selectivities, and start/end offsets that straddle the decode
    /// chunk and bitmap-group boundaries from both sides (generation is
    /// deterministic: the vendored proptest seeds from the test name).
    #[test]
    fn chunked_select_equals_filter_oracle(
        bits in 1u32..33,
        n in 0usize..6000,
        seed in any::<u64>(),
        lo_frac in 0u32..1000,
        hi_frac in 0u32..1000,
        start_frac in 0u32..1000,
        end_frac in 0u32..1000,
    ) {
        let domain: i64 = if bits >= 31 { i32::MAX as i64 } else { 1i64 << bits };
        let mut x = seed | 1;
        let values: Vec<i32> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 33) as i64 % domain) as i32
            })
            .collect();
        let packed = PackedColumn::pack(&values, bits).unwrap();
        let view = packed.view();
        let (mut a, mut b) = (start_frac as usize * n / 1000, end_frac as usize * n / 1000);
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let lo = (lo_frac as i64 * domain / 1000) as i32;
        let hi = (hi_frac as i64 * domain / 1000) as i32;
        let mut sel_c = vec![0u32; n];
        let mut sel_p = vec![0u32; n];
        // Packed and the plain monomorphization, both against the filter
        // (one kernel, two encodings).
        let want: Vec<u32> = (a as u32..b as u32)
            .filter(|&r| (lo..=hi).contains(&values[r as usize]))
            .collect();
        let nc = sel_between_init(&view, lo, hi, a, b, &mut sel_c);
        prop_assert_eq!(&sel_c[..nc], &want[..]);
        let np = sel_between_init(&values[..], lo, hi, a, b, &mut sel_p);
        prop_assert_eq!(&sel_p[..np], &want[..]);

        // Refine the surviving selection by a second predicate, against
        // an independently computed filter oracle.
        let third = (domain / 3) as i32;
        let expected: Vec<u32> = sel_c[..nc]
            .iter()
            .copied()
            .filter(|&r| (third..=hi).contains(&values[r as usize]))
            .collect();
        let rc = sel_between_refine(&view, third, hi, &mut sel_c, nc, &mut [0; CHUNK]);
        prop_assert_eq!(rc, expected.len());
        prop_assert_eq!(&sel_c[..rc], &expected[..]);
    }

    /// The bitmap semi-joins (contiguous and gather-fed), the late code
    /// gather and the tracked probe are hit- and code-identical to the
    /// legacy closure probe over random key ranges, table spans (tail
    /// words of every length) and selection counts.
    #[test]
    fn semijoins_equal_closure_reference(
        n in 0usize..4000,
        slots in 1usize..3000,
        min_key in -500i32..500,
        hit_mod in 2i32..7,
        start_frac in 0usize..1000,
        seed in any::<u64>(),
    ) {
        let mut x = seed | 1;
        let fk: Vec<i32> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Keys that hit the table span, undershoot and overshoot.
                min_key - 100 + ((x >> 33) as i64 % (slots as i64 + 200)) as i32
            })
            .collect();
        let table: Vec<i16> = (0..slots as i16)
            .map(|k| if i32::from(k) % hit_mod == 0 { k } else { -1 })
            .collect();
        let bits = slot_bitmap(&table);
        let spec = PerfectHashProbe::new(min_key, &bits, &table);
        let lookup = |key: i32| {
            let idx = key.wrapping_sub(min_key);
            if (0..table.len() as i32).contains(&idx) {
                let v = i32::from(table[idx as usize]);
                if v >= 0 {
                    return Some(v);
                }
            }
            None
        };
        let start = n * start_frac / 1000;
        let count = n - start;
        let master: Vec<u32> = (start as u32..n as u32).collect();
        let mut sel_b = master.clone();
        let mut codes_b = vec![0i32; count];
        let hb = probe_by_closure(&fk, lookup, &mut sel_b, count, &mut codes_b);
        let (want, want_codes) = (&sel_b[..hb], &codes_b[..hb]);

        let mut sel_c = vec![0u32; count];
        let hc = sel_semijoin_init(&fk[..], &spec, start, n, &mut sel_c);
        prop_assert_eq!(&sel_c[..hc], want);
        let mut sel_g = master.clone();
        let buf = &mut [0; CHUNK];
        let hg = sel_semijoin_refine(&fk[..], &spec, &mut sel_g, count, buf);
        prop_assert_eq!(&sel_g[..hg], want);
        // One digit over a zeroed index is the code itself.
        let mut gidx = vec![0u32; hg];
        sel_group_digit(&fk[..], &spec, &sel_g[..hg], 3000, &mut gidx, buf);
        prop_assert!(gidx.iter().zip(want_codes).all(|(&g, &c)| g == c as u32));

        let mut sel_t = master.clone();
        let mut codes_t = vec![0i32; count];
        let mut kept = vec![0u32; count];
        let ht = sel_probe_tracked(&fk[..], &spec, &mut sel_t, count, &mut codes_t, &mut kept);
        prop_assert_eq!(&sel_t[..ht], want);
        prop_assert_eq!(&codes_t[..ht], want_codes);
        for (k, &kp) in kept[..ht].iter().enumerate() {
            prop_assert!(kp as usize >= k, "kept must be increasing");
            prop_assert_eq!(master[kp as usize], sel_t[k]);
        }
    }

    /// Batch decode through the `ColumnRead` seam equals per-value reads
    /// for every width and window placement.
    #[test]
    fn read_batch_equals_value_reads(
        bits in 1u32..33,
        n in 1usize..5000,
        start_frac in 0u32..1000,
        seed in any::<u64>(),
    ) {
        let domain: i64 = if bits >= 31 { i32::MAX as i64 } else { 1i64 << bits };
        let mut x = seed | 1;
        let values: Vec<i32> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 33) as i64 % domain) as i32
            })
            .collect();
        let packed = PackedColumn::pack(&values, bits).unwrap();
        let view = packed.view();
        let start = start_frac as usize * n / 1000;
        let mut out = vec![0i32; n - start];
        view.read_batch(start, &mut out);
        prop_assert_eq!(&out[..], &values[start..]);
        let mid = out.len() / 2;
        let mut half = vec![0i32; out.len() - mid];
        view.read_batch(start + mid, &mut half);
        prop_assert_eq!(&half[..], &values[start + mid..]);
    }

    /// GPU radix join equals the no-partitioning join for arbitrary
    /// build/probe shapes and fan-outs.
    #[test]
    fn radix_join_equals_hash_join(
        build_pow in 6u32..11,
        probe_n in 100usize..3000,
        bits in 2u32..10,
        seed in any::<u64>(),
    ) {
        let build_n = 1usize << build_pow;
        let build_keys: Vec<i32> = (0..build_n as i32).collect();
        let build_vals: Vec<i32> = build_keys.iter().map(|k| k ^ 0x3C).collect();
        let mut x = seed | 1;
        let probe_keys: Vec<i32> = (0..probe_n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 33) as usize % (build_n * 2)) as i32 // ~50% misses
            })
            .collect();
        let probe_vals: Vec<i32> = (0..probe_n as i32).collect();

        let mut gpu = Gpu::new(nvidia_v100());
        let dbk = gpu.alloc_from(&build_keys);
        let dbv = gpu.alloc_from(&build_vals);
        let dpk = gpu.alloc_from(&probe_keys);
        let dpv = gpu.alloc_from(&probe_vals);
        let (ht, _) = crystal_core::hash::DeviceHashTable::build(
            &mut gpu,
            &dbk,
            &dbv,
            (build_n * 2).next_power_of_two(),
            crystal_core::hash::HashScheme::Mult,
        );
        let (expected, _) = kernels::hash_join_sum(&mut gpu, &dpk, &dpv, &ht);
        let (got, _) = kernels::gpu_radix_join_sum(&mut gpu, &dbk, &dbv, &dpk, &dpv, bits).unwrap();
        prop_assert_eq!(got.checksum, expected.checksum);
        prop_assert_eq!(got.matches, expected.matches);
    }
}
