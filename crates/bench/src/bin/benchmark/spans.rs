//! Outside-in spans: the benchmark times its own calls into each layer.
//!
//! A span is (name, start, end, parent, operation id). They are kept in
//! memory and written only when the run ends (`--trace-out`). A span's self
//! time is its duration minus the part of that interval its children cover,
//! so children that ran in parallel are not subtracted twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    op: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Sets the operation id that following spans carry.
    pub fn begin_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Times `f` as a child of the innermost open span. `f` gets the
    /// recorder back so the stage it runs can open spans of its own.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.spans.len() as SpanId;
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, op: self.op });
        self.open.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let span = &mut self.spans[id as usize];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        out
    }

    /// An empty recorder on the same clock, for a worker thread; hand it
    /// back with [`Recorder::graft`].
    pub fn fork(&self) -> Recorder {
        Recorder { origin: self.origin, spans: Vec::new(), open: Vec::new(), op: self.op }
    }

    /// Grafts a forked recorder's spans under the innermost open span.
    pub fn graft(&mut self, forked: Recorder) {
        let base = self.spans.len() as SpanId;
        let under = self.open.last().copied();
        for mut span in forked.spans {
            span.parent = span.parent.map(|p| p + base).or(under);
            self.spans.push(span);
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum()
    }

    /// Self time per span name, summed over all spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let selfs = self_times(&self.spans);
        let mut out = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(selfs) {
            *out.entry(span.name).or_insert(0) += ns;
        }
        out
    }

    /// One JSON object per span, one per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

/// Self time of each span: its duration minus the length of the union of
/// its children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = s.parent.and_then(|p| children.get_mut(p as usize)) {
            list.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span("op", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("execute", 30, 90, Some(0)),
            span("load", 40, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 40, 20]);
    }

    #[test]
    fn parallel_children_are_subtracted_once() {
        // Two shards overlap for 30 ns; their union covers 70 of the 100.
        let spans = [
            span("scatter", 0, 100, None),
            span("shard", 10, 60, Some(0)),
            span("shard", 30, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans =
            [span("a", 50, 100, None), span("b", 0, 70, Some(0)), span("c", 90, 150, Some(0))];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_and_grafts() {
        let mut rec = Recorder::new();
        rec.begin_op(7);
        rec.time("op", |rec| {
            rec.time("stage", |_| std::hint::black_box(1 + 1));
            let mut off = rec.fork();
            off.time("worker", |off| off.time("inner", |_| std::hint::black_box(2 + 2)));
            rec.graft(off);
        });
        let names: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("op", None, 7),
                ("stage", Some(0), 7),
                ("worker", Some(0), 7),
                ("inner", Some(2), 7)
            ]
        );
        let op = &rec.spans()[0];
        assert!(rec.spans()[1..]
            .iter()
            .all(|s| s.start_ns >= op.start_ns && s.end_ns <= op.end_ns));
        assert_eq!(rec.total_ns("stage"), rec.spans()[1].duration_ns());
        assert_eq!(rec.to_json_lines().lines().count(), 4);
        let selfs = rec.self_times();
        assert_eq!(selfs["stage"], rec.spans()[1].duration_ns());
    }
}
