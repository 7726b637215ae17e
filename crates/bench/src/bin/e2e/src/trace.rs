//! In-memory spans around the harness's calls into each layer.
//!
//! The benchmark measures layers from outside only, so every span is
//! recorded here, in the harness, around a call into a crate's public
//! function. A span carries its name, start, end, the span that caused it
//! and the identifier of the query execution it belongs to; spans stay in
//! memory and are written out once, when the run ends. A disabled tracer
//! records nothing, which is how end-to-end passes run.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index into the tracer's interned names.
    pub name: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// Shared by every span of one query execution; 0 outside any.
    pub op_id: u64,
}

/// An interned span name (interning happens in set-up, so the timed path
/// never allocates a name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameId(u32);

/// Token for a span that is still open; `None` when tracing is off.
#[must_use = "an open span must be ended"]
pub struct Open(Option<u32>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
    open: Vec<u32>,
    next_op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn name(&mut self, name: &str) -> NameId {
        let idx = match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_string());
                self.names.len() - 1
            }
        };
        NameId(idx as u32)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: NameId, fresh_op: bool) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.open.last().copied();
        let op_id = if fresh_op {
            self.next_op += 1;
            self.next_op
        } else {
            parent.map_or(0, |p| self.spans[p as usize].op_id)
        };
        let idx = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.0,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Opens a span inside the current query execution (or outside any).
    pub fn begin(&mut self, name: NameId) -> Open {
        self.push(name, false)
    }

    /// Opens the root span of a new query execution: it and every span
    /// begun under it share a fresh `op_id`.
    pub fn begin_op(&mut self, name: NameId) -> Open {
        self.push(name, true)
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must end innermost first");
        self.spans[idx as usize].end_ns = self.now_ns();
    }

    /// Durations, in milliseconds, of every recorded span named `name`.
    pub fn durations_ms(&self, name: NameId) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name.0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self_times(&self.spans);
        for (s, self_ns) in self.spans.iter().zip(self_ns) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{},\"self_ns\":{}}}",
                self.names[s.name as usize], s.start_ns, s.end_ns, parent, s.op_id, self_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its child spans cover. Children may nest further (only direct
/// children count) and may overlap each other (covered once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if start < end {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: 0,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 > child 10..60 > grandchild 20..30; second child 70..90.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
            span(70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // children 10..50 and 30..70 overlap; 40..45 lies inside the first;
        // 90..120 sticks out of the parent and is clipped to 90..100.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(40, 45, Some(0)),
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_links_parents_and_ops_and_is_silent_when_off() {
        let mut t = Tracer::new();
        let (pass, op, leaf) = (t.name("pass"), t.name("op"), t.name("leaf"));
        let off = t.begin(pass);
        t.end(off);
        assert!(t.spans.is_empty());

        t.set_enabled(true);
        let p = t.begin(pass);
        let a = t.begin_op(op);
        let l = t.begin(leaf);
        t.end(l);
        t.end(a);
        let b = t.begin_op(op);
        t.end(b);
        t.end(p);
        let parents: Vec<_> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        let ops: Vec<_> = t.spans.iter().map(|s| s.op_id).collect();
        assert_eq!(ops, vec![0, 1, 1, 2]);
        assert_eq!(t.durations_ms(op).len(), 2);
        assert_eq!(t.name("op"), op);
    }
}
