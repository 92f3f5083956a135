//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every timing the benchmark reports is a span's duration, so the
//! traced and untraced runs time the same code the same way; "tracing
//! on" only means the spans of a rep are kept and written out.

use crate::alloc;
use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer was made.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub rep: u32,
    /// Heap allocations and bytes requested inside the span, all
    /// threads; zero while the counting allocator is off.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An open span, to be handed back to [`Tracer::exit`].
#[must_use]
pub struct Open(usize);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            // Reserved up front so that recording a span inside a timed
            // region does not allocate.
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::with_capacity(16),
            rep: 0,
        }
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Number of spans recorded so far; a mark for [`Tracer::since`] and
    /// [`Tracer::truncate`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    /// Forget the spans after `mark` (an untraced rep).
    pub fn truncate(&mut self, mark: usize) {
        assert!(self.stack.is_empty(), "truncate with a span open");
        self.spans.truncate(mark);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        let (allocs, alloc_bytes) = alloc::counted();
        self.spans.push(Span {
            name,
            start: 0.0,
            end: 0.0,
            parent: self.stack.last().copied(),
            rep: self.rep,
            allocs,
            alloc_bytes,
        });
        self.stack.push(id);
        // The clock is read last on entry and first on exit, so the
        // bookkeeping above stays outside the span.
        self.spans[id].start = self.origin.elapsed().as_secs_f64();
        Open(id)
    }

    /// Close the innermost open span; returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = self.origin.elapsed().as_secs_f64();
        assert_eq!(self.stack.pop(), Some(open.0), "spans must nest");
        let (allocs, alloc_bytes) = alloc::counted();
        let span = &mut self.spans[open.0];
        span.end = end;
        span.allocs = allocs.saturating_sub(span.allocs);
        span.alloc_bytes = alloc_bytes.saturating_sub(span.alloc_bytes);
        span.duration()
    }

    /// A leaf span around `f`, which makes no spans of its own.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let self_s = self_times(&self.spans);
        let spans = self.spans.iter().zip(self_s).map(|(s, self_s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("start", Json::Num(s.start)),
                ("end", Json::Num(s.end)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                ),
                ("rep", Json::Int(u64::from(s.rep))),
                ("self", Json::Num(self_s)),
                ("allocs", Json::Int(s.allocs)),
            ])
        });
        Json::obj([
            ("workload", Json::str(workload)),
            ("unit", Json::str("s")),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

/// Self time of each span: its duration minus the part of it that its
/// child spans cover (children of one parent never overlap, because the
/// tracer is a stack).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.duration();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            rep: 0,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span("rep", 0.0, 10.0, None),
            span("drive", 1.0, 7.0, Some(0)),
            span("window", 1.0, 3.0, Some(1)),
            span("window", 3.5, 6.5, Some(1)),
            span("report", 7.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), [2.0, 1.0, 2.0, 3.0, 2.0]);
    }

    #[test]
    fn tracer_nests_marks_and_truncates() {
        let mut tr = Tracer::new();
        tr.set_rep(3);
        let outer = tr.enter("outer");
        let inner = tr.enter("inner");
        let inner_s = tr.exit(inner);
        let outer_s = tr.exit(outer);
        assert!(outer_s >= inner_s && inner_s >= 0.0);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[0].parent, None);
        assert_eq!(tr.spans()[1].rep, 3);
        let mark = tr.mark();
        assert_eq!(tr.time("again", || 5), 5);
        assert_eq!(tr.since(mark).len(), 1);
        assert_eq!(tr.since(mark)[0].name, "again");
        tr.truncate(mark);
        assert_eq!(tr.spans().len(), 2);
        let doc = tr.to_json("w");
        assert_eq!(doc.get("workload").unwrap().as_str(), Some("w"));
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn closing_out_of_order_is_a_bug() {
        let mut tr = Tracer::new();
        let a = tr.enter("a");
        let _b = tr.enter("b");
        tr.exit(a);
    }
}
