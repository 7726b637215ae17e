//! `ingest`: the write side — generate a fact table, choose minimal
//! packing widths, encode it, range-partition it into eight shards. Every
//! pass ingests different data (`--seed` + 1 + pass index), so nothing a
//! pass builds can be reused by the next.

use crate::harness::Harness;
use crate::layers;
use crate::sut::{EncodedFact, FactCol, FactEncodings, PartitionedFact, SsbData};

/// 1.2 M rows.
const FACT_SCALE: f64 = 0.01;
const SHARDS: usize = 8;

/// Whether `col` of `fact` decodes back to the generated values.
fn round_trips(d: &SsbData, fact: &EncodedFact, col: FactCol) -> bool {
    match fact.encoded(col).as_packed() {
        Some(packed) => packed.unpack() == col.data(d),
        None => false,
    }
}

pub fn run(h: &mut Harness) {
    let (seed, scale) = (h.seed, h.fact_scale(FACT_SCALE));
    // Set-up is one whole ingest from a cold start, checked column by
    // column; its data then serves the pack and unpack replays.
    let (d, fact, all_round_trip) = h.setup(|| {
        let d = SsbData::generate_scaled(20, scale, seed);
        let encodings = FactEncodings::packed_min(&d);
        let fact = EncodedFact::encode(&d, &encodings);
        let shards = PartitionedFact::partition(&d, SHARDS, &encodings);
        let ok = shards.total_rows() == d.lineorder.rows()
            && FactCol::ALL.iter().all(|&c| round_trips(&d, &fact, c));
        (d, fact, ok)
    });
    h.rows_per_pass = d.lineorder.rows();

    let [ingest, generate, encode, partition] =
        ["ssb.ingest", "ssb.generate", "ssb.encode", "ssb.partition"].map(|n| h.tracer.name(n));
    h.run_passes(3, |tr, ck, index| {
        if index == 0 {
            ck.check(tr, || all_round_trip);
        }
        let op = tr.begin_op(ingest);
        let span = tr.begin(generate);
        let d = SsbData::generate_scaled(20, scale, seed.wrapping_add(1 + index as u64));
        tr.end(span);
        let span = tr.begin(encode);
        let encodings = FactEncodings::packed_min(&d);
        let fact = EncodedFact::encode(&d, &encodings);
        tr.end(span);
        let span = tr.begin(partition);
        let shards = PartitionedFact::partition(&d, SHARDS, &encodings);
        tr.end(span);
        tr.end(op);
        ck.check(tr, || {
            shards.total_rows() == d.lineorder.rows()
                && round_trips(&d, &fact, FactCol::ALL[index % FactCol::ALL.len()])
        });
    });
    if h.trace {
        for stage in ["generate", "encode", "partition"] {
            let ms = h.span_ms(&format!("ssb.{stage}"));
            h.layer(&format!("ssb.{stage}_ms"), ms);
        }
        layers::pack_rate(h, &d);
        layers::unpack_rate(h, &fact, &FactCol::ALL);
        layers::stored_ratio(h, &d, &fact);
        layers::read_gbps(h);
    }
}
