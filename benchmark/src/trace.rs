//! In-memory spans around calls into the repository's layers, recorded from
//! the benchmark's side of each public function (nothing inside the program
//! is instrumented), and written as Chrome-trace JSON when the run ends.
//!
//! Open `benchmark/out/<workload>-seed<N>.trace.json` in `chrome://tracing`
//! or <https://ui.perfetto.dev>: one row, spans nested by call depth; each
//! span's `args` carry its id, its parent's id and the rep it belongs to.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans on one thread. Spans nest by call structure: a span opened
/// while another is open is its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Spans recorded from now on belong to rep `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` gets the tracer back to open
    /// child spans. Returns `f`'s result and the span's duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (result, self.spans[id].secs())
    }

    /// A leaf span: [`span`](Self::span) for a call that opens no children.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f()).0
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: its duration minus its direct children's durations
/// (children of one serial thread never overlap, so that is the part of the
/// interval no child covers). Parallel to `spans`, in seconds.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own
}

/// Self time summed by span name over the spans of rep `rep`.
pub fn self_time_by_name(spans: &[Span], rep: u32) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        if s.rep == rep {
            *by_name.entry(s.name).or_insert(0.0) += t;
        }
    }
    by_name
}

/// Chrome-trace JSON ("X" complete events, microsecond timestamps).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 32);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {parent}, \"rep\": {}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.rep
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, rep: u32) -> Span {
        Span {
            name,
            start_ns: start * 1_000_000_000,
            end_ns: end * 1_000_000_000,
            parent,
            rep,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 { a 10..40 { a1 15..25 }, b 40..90 { b1 50..60, b2 60..85 } }
        let spans = vec![
            span("root", 0, 100, None, 0),
            span("a", 10, 40, Some(0), 0),
            span("leaf", 15, 25, Some(1), 0),
            span("b", 40, 90, Some(0), 0),
            span("leaf", 50, 60, Some(3), 0),
            span("leaf", 60, 85, Some(3), 0),
        ];
        assert_eq!(self_times(&spans), vec![20.0, 20.0, 10.0, 15.0, 10.0, 25.0]);
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(self_times(&spans).iter().sum::<f64>(), 100.0);
        let by_name = self_time_by_name(&spans, 0);
        assert_eq!(by_name["leaf"], 45.0);
        assert_eq!(by_name["root"], 20.0);
    }

    #[test]
    fn self_time_by_name_keeps_reps_apart() {
        let spans = vec![
            span("root", 0, 10, None, 0),
            span("k", 2, 6, Some(0), 0),
            span("root", 10, 30, None, 1),
            span("k", 12, 13, Some(2), 1),
        ];
        assert_eq!(self_time_by_name(&spans, 0)["k"], 4.0);
        assert_eq!(self_time_by_name(&spans, 1)["k"], 1.0);
        assert_eq!(self_time_by_name(&spans, 1)["root"], 19.0);
    }

    #[test]
    fn tracer_nests_by_call_structure() {
        let mut t = Tracer::new();
        t.set_rep(3);
        let (v, secs) = t.span("outer", |t| {
            t.leaf("inner", || 1) + t.span("inner", |t| t.leaf("deep", || 2)).0
        });
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            vec![None, Some(0), Some(0), Some(2)]
        );
        assert!(s.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        assert!(s[1].end_ns <= s[2].start_ns, "siblings do not overlap");
        assert!((secs - s[0].secs()).abs() < 1e-12);
        let total: f64 = self_times(s).iter().sum();
        assert!((total - s[0].secs()).abs() < 1e-9);
    }

    #[test]
    fn chrome_trace_lists_every_span() {
        let spans = vec![span("root", 0, 2, None, 0), span("k", 1, 2, Some(0), 0)];
        let json = chrome_trace(&spans);
        assert!(json.contains("\"traceEvents\""));
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("\"name\": \"k\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": 1000000.000, \"dur\": 1000000.000"));
        assert!(json.contains("\"parent\": -1") && json.contains("\"parent\": 0"));
    }
}
