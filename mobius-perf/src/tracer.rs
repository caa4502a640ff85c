//! In-memory spans recorded by the benchmark around each public layer
//! call, plus the work counters read from the attached `Obs` handles.
//!
//! A span is named `layer.fn`; its layer is the part before the first dot.
//! Self time is a span's duration minus the time its direct children
//! cover. Spans are kept in memory and written as JSONL at exit.

use std::collections::BTreeMap;

use mobius::obs::json;
use mobius::obs::WallTimer;
use mobius::sim::units::secs_to_ns;

/// The root span the runner opens around every traced op.
pub const OP_SPAN: &str = "bench.op";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.fn` name.
    pub name: &'static str,
    /// The op this span belongs to (its root's index in the pass).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// A free-form outcome label (e.g. a serve request's cache outcome).
    pub tag: &'static str,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer this span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span and counter recorder for one traced pass.
pub struct Tracer {
    clock: WallTimer,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            clock: WallTimer::start(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        secs_to_ns(self.clock.elapsed().secs()) as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            tag: "",
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Runs one op under a fresh [`OP_SPAN`] root.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.op += 1;
        self.span(OP_SPAN, f)
    }

    /// Closes every span left open by an op that panicked.
    pub fn close_abandoned(&mut self) {
        let now = self.now_ns();
        for idx in self.open.drain(..) {
            self.spans[idx].end_ns = now;
        }
    }

    /// Labels the most recently opened span.
    pub fn tag_last(&mut self, tag: &'static str) {
        if let Some(s) = self.spans.last_mut() {
            s.tag = tag;
        }
    }

    /// Adds `v` to the named counter.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// A counter's total; zero when never bumped.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span, its duration minus the time its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Total self time, in ms, of the spans whose name starts with
    /// `prefix` (`"mip."` for a layer, `"obs.export"` for a family).
    pub fn busy_ms(&self, prefix: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name.starts_with(prefix))
            .map(|(_, n)| n)
            .sum();
        ns as f64 / 1e6
    }

    /// Total duration of the op roots, in ms.
    pub fn op_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == OP_SPAN)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Number of spans whose name starts with `prefix`.
    pub fn calls(&self, prefix: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .count()
    }

    /// Durations (ms) of the spans named `name` carrying `tag`.
    pub fn durations_ms(&self, name: &str, tag: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.tag == tag)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// The spans as JSONL, one object per line in opening order; `id` is
    /// the line index `parent` refers to.
    pub fn jsonl(&self) -> String {
        let self_ns = self.self_ns();
        let mut out = String::new();
        for (id, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&json::object([
                ("id", id.to_string()),
                ("name", json::string(s.name)),
                ("op", s.op.to_string()),
                ("parent", parent),
                ("start_ns", s.start_ns.to_string()),
                ("end_ns", s.end_ns.to_string()),
                ("self_ns", own.to_string()),
                ("tag", json::string(s.tag)),
            ]));
            out.push('\n');
        }
        out
    }
}
