//! Layer replays more than one workload uses: the host's read bandwidth
//! (the roofline denominator) and the read cost, write cost and space of
//! `storage`'s bit-packing, which the database sheet of the metrics guide
//! asks to see together.

use std::hint::black_box;

use crate::harness::Harness;
use crate::sut::{unpack_batch, EncodedFact, FactCol, PackedColumn, SsbData, CHUNK};

/// Bytes the bandwidth probe sums: far larger than the 4 MiB L2, and
/// written once before timing so no read takes a page fault.
const READ_PROBE_BYTES: usize = 256 << 20;

/// `host.read_gbps`: one thread summing a pre-touched `i32` buffer. The
/// replay's untimed first repetition matters here: cold reads of the same
/// buffer measured a third of the warm rate.
pub fn read_gbps(h: &mut Harness) -> f64 {
    let bytes = if h.quick {
        READ_PROBE_BYTES / 8
    } else {
        READ_PROBE_BYTES
    };
    let buf = vec![1i32; bytes / 4];
    let reps = h.reps(7);
    let secs = h.replay("host.read", reps, || {
        black_box(&buf).iter().fold(0i32, |a, &v| a.wrapping_add(v))
    });
    let gbps = bytes as f64 / secs / 1e9;
    h.layer("host.read_gbps", gbps);
    gbps
}

/// The packed columns among `cols`.
fn packed<'a>(fact: &'a EncodedFact, cols: &[FactCol]) -> Vec<&'a PackedColumn> {
    cols.iter()
        .filter_map(|&c| fact.encoded(c).as_packed())
        .collect()
}

/// `storage.unpack_mvals_s`: `unpack_batch` over the packed columns among
/// `cols`, a decode chunk at a time, as the selection kernels stage them.
pub fn unpack_rate(h: &mut Harness, fact: &EncodedFact, cols: &[FactCol]) {
    let columns = packed(fact, cols);
    let values: usize = columns.iter().map(|p| p.len()).sum();
    if values == 0 {
        return;
    }
    let reps = h.reps(5);
    let secs = h.replay("storage.unpack", reps, || {
        let mut out = [0i32; CHUNK];
        let mut sum = 0i32;
        for p in &columns {
            let mut start = 0;
            while start < p.len() {
                let n = CHUNK.min(p.len() - start);
                unpack_batch(p.words(), p.bits(), start, &mut out[..n]);
                sum = sum.wrapping_add(out[0]);
                start += n;
            }
        }
        sum
    });
    h.layer("storage.unpack_mvals_s", values as f64 / secs / 1e6);
}

/// `storage.pack_mvals_s`: `PackedColumn::pack` of every fact column at
/// its minimal width.
pub fn pack_rate(h: &mut Harness, d: &SsbData) {
    let reps = h.reps(5);
    let secs = h.replay("storage.pack", reps, || {
        FactCol::ALL
            .iter()
            .map(|c| {
                let values = c.data(d);
                let packed = PackedColumn::pack(values, PackedColumn::min_bits(values));
                packed.expect("min_bits fits every value").size_bytes()
            })
            .sum::<usize>()
    });
    let values = FactCol::ALL.len() * d.lineorder.rows();
    h.layer("storage.pack_mvals_s", values as f64 / secs / 1e6);
}

/// `storage.stored_bytes_per_plain_byte`: the encoded fact table's size
/// over its size as plain 4-byte columns.
pub fn stored_ratio(h: &mut Harness, d: &SsbData, fact: &EncodedFact) {
    h.layer(
        "storage.stored_bytes_per_plain_byte",
        fact.size_bytes() as f64 / d.lineorder.size_bytes() as f64,
    );
}
