//! `host_scan` and `host_join`: canned queries through the host engine,
//! one thread, over plain and over packed columns.

use std::hint::black_box;

use crate::harness::Harness;
use crate::layers;
use crate::metrics::{ENCODINGS, JOIN_QUERIES, SCAN_QUERIES};
use crate::sut::{
    cpu, query_named, reference, sel_between_init, sel_init, sel_probe_tracked, ColumnSlice,
    DimLookup, DimTable, EncodedFact, FactCol, FactEncodings, MorselQueue, QueryResult, SsbData,
    StarQuery, CHUNK, MORSEL_SIZE,
};

pub struct HostSpec {
    queries: &'static [&'static str],
    /// Share of SF-20's 120 M fact rows (dimensions are always full SF-20
    /// size, so the join tables leave the L2 cache).
    fact_scale: f64,
    warmup: usize,
}

/// 12 M rows: a 48 MB column streams from memory, and q1.x builds nothing.
/// Not fewer: at 6 M rows the packed columns (3-19 MB each) half fit the
/// share of the last-level cache that the host's other tenants leave, and
/// the pass time followed that share — 44 to 61 ms from one five-second
/// window to the next on the same inputs, while 12 M rows held 110-112 ms
/// and 600 k rows 3.2-3.3 ms through the same minutes (README.md,
/// "Steadiness").
pub const SCAN: HostSpec = HostSpec {
    queries: &SCAN_QUERIES,
    fact_scale: 0.1,
    warmup: 5,
};

/// 2.4 M rows, the `fig16` configuration: per-call dimension builds are
/// about half of a pass, the probes the rest.
pub const JOIN: HostSpec = HostSpec {
    queries: &JOIN_QUERIES,
    fact_scale: 0.02,
    warmup: 3,
};

struct HostData {
    d: SsbData,
    fact: EncodedFact,
    queries: Vec<StarQuery>,
}

impl HostData {
    fn generate(spec: &HostSpec, scale: f64, seed: u64) -> Self {
        let d = SsbData::generate_scaled(20, scale, seed);
        let fact = EncodedFact::encode(&d, &FactEncodings::packed_min(&d));
        let queries = spec.queries.iter().map(|n| query_named(&d, n)).collect();
        HostData { d, fact, queries }
    }
}

fn execute(data: &HostData, q: &StarQuery, packed: bool, threads: usize) -> QueryResult {
    if packed {
        cpu::execute_encoded(&data.d, &data.fact, q, threads).0
    } else {
        cpu::execute(&data.d, q, threads).0
    }
}

pub fn run(h: &mut Harness, spec: &HostSpec) {
    let (seed, scale) = (h.seed, h.fact_scale(spec.fact_scale));
    let (data, oracle) = h.setup(|| {
        let data = HostData::generate(spec, scale, seed);
        let oracle: Vec<QueryResult> = data
            .queries
            .iter()
            .map(|q| reference::execute(&data.d, q))
            .collect();
        (data, oracle)
    });
    let rows = data.d.lineorder.rows();
    h.rows_per_pass = rows * data.queries.len() * ENCODINGS.len();

    let span_names: Vec<[_; 2]> = spec
        .queries
        .iter()
        .map(|q| ENCODINGS.map(|enc| h.tracer.name(&format!("ssb.exec.{q}.{enc}"))))
        .collect();
    let data = h.run_rounds(
        spec.warmup,
        data,
        || HostData::generate(spec, scale, seed),
        |data, tr, ck, _| {
            for (qi, q) in data.queries.iter().enumerate() {
                for (packed, &name) in span_names[qi].iter().enumerate() {
                    let op = tr.begin_op(name);
                    let result = execute(data, q, packed == 1, 1);
                    tr.end(op);
                    ck.check(tr, || result == oracle[qi]);
                }
            }
        },
    );
    if h.trace {
        layer_metrics(h, spec, &data);
    }
}

fn layer_metrics(h: &mut Harness, spec: &HostSpec, data: &HostData) {
    let HostData { d, fact, queries } = data;
    let rows = d.lineorder.rows();
    let gbps = layers::read_gbps(h);

    // The engine call per query and encoding, against the time the host
    // would need just to read the columns the query references.
    let stored = fact.encodings();
    let mut referenced: Vec<FactCol> = Vec::new();
    for (name, q) in spec.queries.iter().zip(queries) {
        let cols = q.fact_columns();
        for c in &cols {
            if !referenced.contains(c) {
                referenced.push(*c);
            }
        }
        for enc in ENCODINGS {
            let bytes = match enc {
                "plain" => rows * 4 * cols.len(),
                _ => stored.columns_bytes(rows, &cols),
            };
            let ms = h.span_ms(&format!("ssb.exec.{name}.{enc}"));
            h.layer(&format!("ssb.exec_ms.{name}.{enc}"), ms);
            h.layer(
                &format!("ssb.roofline_frac.{name}.{enc}"),
                bytes as f64 / (ms / 1e3) / 1e9 / gbps,
            );
        }
    }

    // `DimLookup::build`, which the engine re-runs on every call.
    let reps = h.reps(5);
    for (name, q) in spec.queries.iter().zip(queries) {
        if q.joins.is_empty() {
            continue;
        }
        let secs = h.replay(&format!("ssb.dim_build.{name}"), reps, || {
            q.joins
                .iter()
                .map(|j| DimLookup::build(d, j).inserted)
                .sum::<usize>()
        });
        h.layer(&format!("ssb.dim_build_ms.{name}"), secs * 1e3);
    }

    // The selection kernel over the workload's first predicate column.
    if let Some(pred) = queries.iter().find_map(|q| q.fact_preds.first()) {
        for enc in ENCODINGS {
            let col = column(d, fact, pred.col, enc);
            let secs = h.replay(&format!("core.sel_between.{enc}"), reps, || {
                let mut sel = [0u32; CHUNK];
                let mut hits = 0;
                for start in (0..rows).step_by(CHUNK) {
                    let end = (start + CHUNK).min(rows);
                    hits += match col {
                        ColumnSlice::Plain(s) => {
                            sel_between_init(s, pred.lo, pred.hi, start, end, &mut sel)
                        }
                        ColumnSlice::Packed(v) => {
                            sel_between_init(&v, pred.lo, pred.hi, start, end, &mut sel)
                        }
                    };
                }
                hits
            });
            h.layer(
                &format!("core.sel_between_mrows_s.{enc}"),
                rows as f64 / secs / 1e6,
            );
        }
    }

    // The probe kernel per dimension the workload joins: the real lookup
    // table, the real foreign-key column, every row selected.
    for (table, dim) in [
        (DimTable::Date, "date"),
        (DimTable::Part, "part"),
        (DimTable::Supplier, "supplier"),
        (DimTable::Customer, "customer"),
    ] {
        let Some(join) = queries
            .iter()
            .flat_map(|q| &q.joins)
            .find(|j| j.table == table)
        else {
            continue;
        };
        let lookup = DimLookup::build(d, join);
        let spec = lookup.spec();
        for enc in ENCODINGS {
            let col = column(d, fact, join.fact_fk, enc);
            let secs = h.replay(&format!("core.sel_probe.{dim}.{enc}"), reps, || {
                let (mut sel, mut kept) = ([0u32; CHUNK], [0u32; CHUNK]);
                let mut codes = [0i32; CHUNK];
                let mut hits = 0;
                for start in (0..rows).step_by(CHUNK) {
                    let n = sel_init(start, (start + CHUNK).min(rows), &mut sel);
                    hits += match col {
                        ColumnSlice::Plain(s) => {
                            sel_probe_tracked(s, &spec, &mut sel, n, &mut codes, &mut kept)
                        }
                        ColumnSlice::Packed(v) => {
                            sel_probe_tracked(&v, &spec, &mut sel, n, &mut codes, &mut kept)
                        }
                    };
                }
                hits
            });
            h.layer(
                &format!("core.sel_probe_mrows_s.{dim}.{enc}"),
                rows as f64 / secs / 1e6,
            );
        }
    }

    layers::unpack_rate(h, fact, &referenced);
    layers::stored_ratio(h, d, fact);

    // Thread scaling of the first query (every gated number runs at one
    // thread; on a host with one core of real capacity this reads about 1).
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let first = &queries[0];
    let t1 = h.replay("cpu-engine.threads.1", reps, || {
        execute(data, first, false, 1)
    });
    let tn = h.replay("cpu-engine.threads.nproc", reps, || {
        execute(data, first, false, nproc)
    });
    h.layer("cpu-engine.scale_nproc", t1 / tn);

    let claims = 1usize << 20;
    let secs = h.replay("cpu-engine.morsel_claim", reps, || {
        let queue = MorselQueue::new(claims * MORSEL_SIZE, MORSEL_SIZE);
        let mut claimed = 0usize;
        while let Some(range) = black_box(&queue).claim() {
            claimed += range.len();
        }
        claimed
    });
    h.layer("cpu-engine.morsel_claim_ns", secs * 1e9 / claims as f64);
}

/// Fact column `col` as the engine reads it under encoding `enc`.
fn column<'a>(d: &'a SsbData, fact: &'a EncodedFact, col: FactCol, enc: &str) -> ColumnSlice<'a> {
    match enc {
        "plain" => ColumnSlice::Plain(col.data(d)),
        _ => fact.col(col),
    }
}
