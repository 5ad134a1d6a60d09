//! Bench-side spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public functions: name, start, end, parent and the operation it belongs
//! to. Durations the program measures itself (the optimizer's
//! `assess_secs`/`search_secs`, the server's `queue_secs`/`service_secs`)
//! become child spans of the call that contains them. Spans stay in memory
//! and are written out once, when the run ends.
//!
//! A span's self time is its duration minus the time its children cover.
//! Self time of an operation's root span, and of spans whose inside mixes
//! several layers that cannot be told apart from outside (see
//! [`Tracer::open_mixed`]), is *unattributed*.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    /// Self time counts as unattributed.
    pub mixed: bool,
    /// Where the next program-reported child starts inside this span.
    cursor_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Single-threaded span recorder: spans nest by a stack of open spans.
/// A disabled tracer records nothing, so the untraced comparison round runs
/// the same code with tracing off.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the root span of operation `op`.
    pub fn begin_op(&mut self, name: &'static str, op: u64) -> usize {
        assert!(self.open.is_empty(), "operation {op} opened inside another");
        self.op = op;
        self.push(name, true)
    }

    /// Open a span whose self time belongs to one layer.
    pub fn open(&mut self, name: &'static str) -> usize {
        self.push(name, false)
    }

    /// Open a span around a call whose inside mixes layers the benchmark
    /// cannot separate from outside: its self time is unattributed.
    pub fn open_mixed(&mut self, name: &'static str) -> usize {
        self.push(name, true)
    }

    fn push(&mut self, name: &'static str, mixed: bool) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
            mixed,
            cursor_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (must be the innermost open span).
    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span named `name` nested in the innermost open span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Add a child of `parent` whose duration the program reported. Such
    /// children are laid end to end from the parent's start, clamped to
    /// the parent's end.
    pub fn add_reported(&mut self, parent: usize, name: &'static str, secs: f64) {
        if !self.enabled {
            return;
        }
        let p = &mut self.spans[parent];
        let start_ns = p.cursor_ns.min(p.end_ns.max(p.start_ns));
        let dur = (secs.max(0.0) * 1e9) as u64;
        let end_ns = start_ns + dur;
        p.cursor_ns = end_ns;
        let op = p.op;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op,
            mixed: false,
            cursor_ns: start_ns,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub mixed: bool,
}

/// Aggregate spans by name: count, total and self time.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
        t.mixed |= s.mixed;
    }
    out
}

/// Wall time of the traced operations: the sum of the root spans.
pub fn wall_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum()
}

/// Unattributed time: self time of root and mixed spans.
pub fn unattributed_ns(totals: &BTreeMap<&'static str, LayerTotal>) -> u64 {
    totals.values().filter(|t| t.mixed).map(|t| t.self_ns).sum()
}

/// The per-layer table printed after a traced run.
pub fn render(workload: &str, totals: &BTreeMap<&'static str, LayerTotal>, wall_ns: u64) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "traced {workload}: wall {:.1} ms over the traced operations",
        wall_ns as f64 / 1e6
    );
    let _ = writeln!(
        s,
        "  {:<24} {:>7} {:>11} {:>11} {:>7}",
        "span", "count", "total ms", "self ms", "self %"
    );
    let mut rows: Vec<_> = totals.iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (name, t) in rows {
        let _ = writeln!(
            s,
            "  {:<24} {:>7} {:>11.2} {:>11.2} {:>6.1}%{}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / wall_ns.max(1) as f64,
            if t.mixed { "  (unattributed)" } else { "" }
        );
    }
    s
}

/// Spans as JSON, for the trace file written at exit.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_us".into(), Value::Num(s.start_ns as f64 / 1e3)),
                    ("end_us".into(), Value::Num(s.end_ns as f64 / 1e3)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("op".into(), Value::Num(s.op as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_roots_are_unattributed() {
        let mut t = Tracer::new();
        let op = t.begin_op("op", 0);
        let inner = t.open("layer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(inner);
        t.close(op);
        t.add_reported(inner, "reported", 0.001);
        let tot = totals(t.spans());
        let layer = tot["layer"];
        assert_eq!(layer.count, 1);
        assert!(layer.self_ns + 1_000_000 <= layer.total_ns + 1);
        assert_eq!(tot["reported"].total_ns, 1_000_000);
        let wall = wall_ns(t.spans());
        let sum_self: u64 = tot.values().map(|t| t.self_ns).sum();
        assert_eq!(sum_self, wall);
        assert_eq!(unattributed_ns(&tot), tot["op"].self_ns);
    }
}
