//! One shape matrix instead of per-variant copies: every canned query over
//! every physical shape of the fact table, through every entry point that
//! takes a [`FactTable`], answers what the row-wise oracle answers with the
//! trace the plain table's run produces.

use crystal_cpu::exec::MORSEL_SIZE;
use crystal_gpu_sim::Gpu;
use crystal_hardware::{intel_i7_6900, nvidia_v100};
use crystal_runtime::DeviceSession;
use crystal_ssb::engines::{copro, gpu, reference};
use crystal_ssb::exec::{self, HostQueryJob, PipelineMode};
use crystal_ssb::{
    all_queries, query, EncodedFact, FactEncodings, FactTable, PartitionedFact, QueryId, SsbData,
};

/// The stored forms of one dataset the matrix ranges over.
struct Storage {
    d: SsbData,
    packed: EncodedFact,
    one_shard: PartitionedFact,
    shards: PartitionedFact,
    packed_shards: PartitionedFact,
}

impl Storage {
    fn new(d: SsbData) -> Self {
        let (plain, min) = (FactEncodings::plain(), FactEncodings::packed_min(&d));
        Storage {
            packed: EncodedFact::encode(&d, &min),
            one_shard: PartitionedFact::partition(&d, 1, &plain),
            shards: PartitionedFact::partition(&d, 8, &plain),
            packed_shards: PartitionedFact::partition(&d, 8, &min),
            d,
        }
    }

    fn tables(&self) -> [(&'static str, FactTable<'_>); 5] {
        let d = &self.d;
        [
            ("plain", FactTable::plain(d)),
            ("packed_min", FactTable::encoded(d, &self.packed)),
            ("1 shard", FactTable::sharded(d, &self.one_shard)),
            ("8 shards", FactTable::sharded(d, &self.shards)),
            (
                "8 packed shards",
                FactTable::sharded(d, &self.packed_shards),
            ),
        ]
    }
}

#[test]
fn every_query_over_every_shape_through_every_entry_point() {
    let s = Storage::new(SsbData::generate_scaled(1, 0.002, 13));
    let cpu = intel_i7_6900();
    // What the server grants a tenant per turn (`ServerConfig::default()`).
    let quantum = 4 * MORSEL_SIZE;
    let tables = s.tables();
    assert!(s.shards.shard_count() > 1 && s.one_shard.shard_count() == 1);
    for q in all_queries(&s.d) {
        let expected = (
            reference::execute(&s.d, &q),
            exec::execute(&tables[0].1, &q, 1, PipelineMode::TupleAtATime).1,
        );
        assert_eq!(expected.1.fact_rows, s.d.lineorder.rows());
        for (shape, table) in &tables {
            let at = |entry: &str| format!("{} over {shape} through {entry}", q.name);

            for mode in [PipelineMode::Vectorized, PipelineMode::TupleAtATime] {
                let got = exec::execute(table, &q, 3, mode);
                assert_eq!(got, expected, "{}", at(&format!("exec::execute {mode:?}")));
            }

            let mut job = HostQueryJob::over(table, &q, PipelineMode::Vectorized);
            assert_eq!(job.remaining_rows(), table.live_rows(&q));
            while !job.step(quantum) {}
            assert_eq!(job.rows_scanned(), table.live_rows(&q));
            assert_eq!(job.finish(), expected, "{}", at("HostQueryJob::over"));

            // Cold, the Gen3 model keeps plain data on the host and ships
            // packed data; either way the query runs whole on one side.
            let mut device = Gpu::new(nvidia_v100());
            let mut sess = DeviceSession::new(&mut device);
            let placed = copro::execute_placed(&mut sess, &cpu, table, &q, 2);
            let routed = match placed.placement.unwrap().placement {
                copro::Placement::Coprocessor => table.live(&q).len(),
                copro::Placement::Host => 0,
            };
            assert_eq!(
                placed.device_segments_run,
                routed,
                "{}",
                at("a roomy device")
            );
            assert!(!placed.host_fallback, "{}", at("a roomy device"));
            // Either side answers with the whole table's rows and trace.
            let got = (placed.result, placed.trace.unwrap());
            assert_eq!(got, expected, "{}", at("execute_placed, cold"));
            drop(sess);

            let mut sess = DeviceSession::new(&mut device);
            for pass in ["cold", "warm"] {
                let before = sess.stats().clone();
                let run = gpu::execute(&mut sess, table, &q).unwrap();
                // The profile's own account is the session's delta.
                assert_eq!(run.session, sess.stats().since(&before), "{}", at(pass));
                assert_eq!(run.shipped_bytes as u64, run.session.uploaded_bytes);
                let shipped = run.shipped_bytes;
                assert_eq!(shipped == 0, pass == "warm" || table.live(&q).is_empty());
                let got = (run.result, run.trace.unwrap());
                assert_eq!(got, expected, "{}", at(&format!("gpu::execute, {pass}")));
            }

            // Warm, it runs the query on the device.
            let placed = copro::execute_placed(&mut sess, &cpu, table, &q, 2);
            assert_eq!(placed.device_segments_run, table.live(&q).len());
            assert_eq!(placed.shipped_bytes, 0, "{}", at("a warm session"));
            assert_eq!(placed.host_secs.is_some(), table.live(&q).is_empty());
            let got = (placed.result, placed.trace.unwrap());
            assert_eq!(got, expected, "{}", at("execute_placed, warm"));
        }
    }
    // Pruning is what the sharded shapes add: a one-year predicate scans
    // strictly fewer rows of eight shards over seven years, all of one.
    let q11 = query(&s.d, QueryId::new(1, 1));
    let live_rows = tables.each_ref().map(|(_, table)| table.live_rows(&q11));
    let rows = s.d.lineorder.rows();
    assert_eq!(live_rows[..3], [rows; 3]);
    assert!(live_rows[3] < rows && live_rows[4] == live_rows[3]);
}

/// The unsharded case is the one-shard case: the plain table and a
/// one-shard partition of it agree on result, trace, rows scanned and bytes
/// uploaded — they differ only in the keys the bytes are cached under.
#[test]
fn the_plain_table_is_the_one_shard_table() {
    let s = Storage::new(SsbData::generate_scaled(1, 0.002, 29));
    let (plain, one_shard) = (
        FactTable::plain(&s.d),
        FactTable::sharded(&s.d, &s.one_shard),
    );
    assert!(one_shard.is_sharded() && one_shard.segments().len() == 1);
    for q in all_queries(&s.d) {
        let runs = [&plain, &one_shard].map(|table| {
            let mut device = Gpu::new(nvidia_v100());
            let mut sess = DeviceSession::new(&mut device);
            let mut job = gpu::DeviceQueryJob::over(table, &q);
            job.admit(&mut sess).unwrap();
            while !job.step(&mut sess, 4096).unwrap() {}
            let scanned = job.rows_scanned();
            let run = job.finish();
            let host = exec::execute(table, &q, 2, PipelineMode::Vectorized);
            let traced = run.trace.unwrap();
            assert_eq!((&run.result, &traced), (&host.0, &host.1), "{}", q.name);
            (
                run.result,
                traced,
                scanned,
                run.shipped_bytes,
                table.live_rows(&q),
            )
        });
        assert_eq!(runs[0], runs[1], "{}", q.name);
        assert_eq!(runs[0].2, s.d.lineorder.rows(), "{}", q.name);
        let key = |table: &FactTable<'_>| table.segments()[0].key(q.fact_columns()[0]);
        assert_ne!(key(&plain), key(&one_shard), "{}", q.name);
    }
}
