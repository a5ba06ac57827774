//! Spans recorded by the driver around its own calls into each layer.
//! Spans inside the crates are a later change; until then the layer
//! boundary is wherever the benchmark calls a public function.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to; spans of one operation share it.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. Disabled, `span` is a branch and a call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name` for operation `op`; spans
    /// opened by `f` through the tracer it is handed become children.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per span name: how many, their total duration, and their total self
/// time — duration minus the durations of their direct children.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns() - children;
    }
    out
}

/// Name of the span that wraps one whole operation, where operations do
/// not overlap; every other span is a call into a layer (or `verify`).
pub const OP: &str = "op";

/// Time inside the outermost layer spans: those with no parent or an
/// [`OP`] parent. What is left of the traced wall time is the driver's
/// own bookkeeping between its calls into the layers.
pub fn layer_time_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.name != OP && s.parent.is_none_or(|p| spans[p].name == OP))
        .map(Span::duration_ns)
        .sum()
}

/// The trace file: self time by span name over every span, and the
/// first `max_rows` spans in full (a read-heavy run records a million).
pub fn to_json(spans: &[Span], max_rows: usize) -> Json {
    let summary = totals_by_name(spans).into_iter().map(|(name, t)| {
        (
            name,
            Json::obj([
                ("count", t.count.into()),
                ("total_ms", Json::Num(t.total_ns as f64 / 1e6)),
                ("self_ms", Json::Num(t.self_ns as f64 / 1e6)),
            ]),
        )
    });
    let rows = spans.iter().take(max_rows).map(|s| {
        Json::Arr(vec![
            Json::str(s.name),
            s.start_ns.into(),
            s.end_ns.into(),
            s.parent.map_or(Json::Null, |p| (p as u64).into()),
            s.op.into(),
        ])
    });
    Json::obj([
        ("self_time_by_name", Json::obj(summary)),
        ("spans_recorded", (spans.len() as u64).into()),
        (
            "span_columns",
            Json::Arr(
                ["name", "start_ns", "end_ns", "parent", "op"]
                    .map(Json::str)
                    .to_vec(),
            ),
        ),
        ("spans", Json::Arr(rows.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("op", 0, 100, None),
            span("layer.a", 10, 40, Some(0)),
            span("layer.b", 50, 90, Some(0)),
            span("layer.a", 60, 70, Some(2)),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(
            t["op"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            t["layer.b"],
            NameTotals {
                count: 1,
                total_ns: 40,
                self_ns: 30
            }
        );
        assert_eq!(
            t["layer.a"],
            NameTotals {
                count: 2,
                total_ns: 40,
                self_ns: 40
            }
        );
        // Grandchildren are inside a child already: 30 + 40.
        assert_eq!(layer_time_ns(&spans), 70);
        // Without an enclosing operation span, roots are the layer calls.
        assert_eq!(layer_time_ns(&[span("layer.a", 10, 40, None)]), 30);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut t = Tracer::new(true);
        let v = t.span("op", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 7, |t| t.span("leaf", 7, |_| 5))
        });
        assert_eq!(v, 5);
        let s = t.spans();
        let shape: Vec<_> = s.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            shape,
            [
                ("op", None),
                ("inner", Some(0)),
                ("inner", Some(0)),
                ("leaf", Some(2))
            ]
        );
        assert!(s.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("op", 0, |t| t.span("inner", 0, |_| 3)), 3);
        assert!(t.spans().is_empty());
        assert_eq!(layer_time_ns(t.spans()), 0);
    }
}
