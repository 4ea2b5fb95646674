//! In-memory spans for the traced pass.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer, held in memory, and written to `out/trace.jsonl` when the
//! pass ends. A layer's *self* time is its span minus the part of it that
//! its direct children cover.

use crate::json::Value;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The workload whose code path the span belongs to.
    pub workload: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last; a new span's parent is the top.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, workload: &'static str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            workload,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns()
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        workload: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, workload);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span whose duration was accumulated elsewhere (the sum of
    /// many short calls inside the innermost open span, too many to hold
    /// one span each). It is laid at `start_ns` so siblings recorded in
    /// sequence do not overlap.
    pub fn add_aggregate(
        &mut self,
        name: &'static str,
        workload: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            workload,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: self.open.last().copied(),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `id`'s duration minus what its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns().saturating_sub(covered)
    }

    /// One JSON object per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let row = Value::obj([
                ("id", Value::Num(id as f64)),
                ("name", Value::str(s.name)),
                ("workload", Value::str(s.workload)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
            ]);
            out.push_str(&row.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans, so durations are exact.
    fn fixture() -> Tracer {
        let mut t = Tracer::new();
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            workload: "w",
            start_ns,
            end_ns,
            parent,
        };
        t.spans = vec![
            span("root", 0, 1_000, None),
            span("child-a", 100, 300, Some(0)),
            span("child-b", 400, 900, Some(0)),    // sibling of a
            span("grandchild", 500, 600, Some(2)), // nested under b
            span("child-a", 900, 950, Some(0)),    // same name again
        ];
        t
    }

    #[test]
    fn self_time_subtracts_siblings_but_not_grandchildren() {
        let t = fixture();
        // root: 1000 − (200 + 500 + 50); the grandchild is b's to subtract.
        assert_eq!(t.self_ns(0), 250);
        assert_eq!(t.self_ns(2), 400);
        assert_eq!(t.self_ns(3), 100);
        assert_eq!(t.self_ns(1), 200);
    }

    #[test]
    fn begin_end_nest_and_aggregate_spans_attach_to_the_open_span() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", "w");
        let inner = t.span("inner", "w", || 7);
        assert_eq!(inner, 7);
        let at = t.now_ns();
        t.add_aggregate("many-small", "w", at, 5);
        t.end(outer);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("outer", None), ("inner", Some(0)), ("many-small", Some(0))]
        );
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }

    #[test]
    fn jsonl_has_one_parsable_row_per_span() {
        let text = fixture().to_jsonl();
        let rows: Vec<Value> = text.lines().map(|l| Value::parse(l).unwrap()).collect();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[3].get("parent"), Some(&Value::Num(2.0)));
        assert_eq!(rows[0].get("parent"), Some(&Value::Null));
        assert_eq!(rows[2].get("name").and_then(Value::as_str), Some("child-b"));
    }
}
