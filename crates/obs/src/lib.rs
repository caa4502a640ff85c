//! # mobius-obs
//!
//! Observability for the Mobius reproduction: a span/event recorder, a
//! metrics registry (counters, gauges, fixed-bucket histograms), and
//! exporters — Chrome trace-event JSON (loadable in Perfetto or
//! `chrome://tracing`) plus human-readable and JSON metrics reports.
//!
//! The crate sits *below* the simulator: timestamps are plain `u64`s (the
//! simulator stamps them with simulated nanoseconds, the MIP solver with
//! its deterministic evaluated-leaf count — never wall-clock, which would
//! make trace bytes machine-dependent), so every other crate can depend on
//! it without a cycle. Recording is strictly passive — attaching an [`Obs`]
//! handle never schedules events, starts flows, or otherwise perturbs a
//! simulation, which is what lets the test suite assert that traced and
//! untraced runs produce bit-identical timings.
//!
//! An [`Obs`] handle is a cheap shared reference: cloning it shares the
//! underlying event log and registry, so one handle can be threaded through
//! an engine, a flow network, and a trace recorder that each also need to
//! be `Clone`.
//!
//! # Examples
//!
//! ```
//! use mobius_obs::{AttrValue, Lane, Obs};
//!
//! let obs = Obs::new();
//! obs.span(
//!     Lane::Gpu(0),
//!     "compute",
//!     "fwd",
//!     0,
//!     1_000_000,
//!     vec![("microbatch", AttrValue::U64(0))],
//! );
//! obs.counter_add("bytes.stage-upload", 4096.0);
//! let trace = obs.chrome_trace_json();
//! assert!(trace.starts_with("{\"traceEvents\":["));
//! assert!(obs.metrics_text().contains("bytes.stage-upload"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
mod chrome;
mod dag;
pub mod json;
mod jsonl;
mod metrics;
mod report;
mod span;
pub mod walltime;

pub use analyze::{Analysis, AnalyzeError, ResourceUsage, Segment, StepAttribution};
pub use dag::{DagDep, DagEdge, DagLog, DagNode, ResourceClass, ResourceId};
pub use metrics::{Histogram, MetricsRegistry};
pub use span::{AttrValue, Event, EventLog, Lane};
pub use walltime::{WallSecs, WallTimer};

/// Builds a counter name once, ahead of the `counter_add` calls a hot path
/// makes with it. It is `format!`; the D009 registry check reads its
/// pattern as it reads a `counter_add` site.
#[macro_export]
macro_rules! counter_name {
    ($($arg:tt)*) => {
        format!($($arg)*)
    };
}

use std::cell::RefCell;
use std::rc::Rc;

/// Default bucket bounds (in Gbit-free GB/s) for flow-bandwidth histograms.
pub const GBPS_BUCKETS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 32.0, 64.0];

struct ObsInner {
    log: EventLog,
    metrics: MetricsRegistry,
    dag: DagLog,
}

/// Shared handle to an event log plus a metrics registry.
///
/// Clones share state; all methods take `&self` (interior mutability), so a
/// handle can be stored inside several `Clone` structs at once.
#[derive(Clone)]
pub struct Obs {
    inner: Rc<RefCell<ObsInner>>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Obs")
            .field("events", &inner.log.len())
            .finish_non_exhaustive()
    }
}

impl Obs {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Obs {
            inner: Rc::new(RefCell::new(ObsInner {
                log: EventLog::new(),
                metrics: MetricsRegistry::new(),
                dag: DagLog::new(),
            })),
        }
    }

    /// Records a completed span on `lane` spanning `[start_ns, end_ns]`.
    ///
    /// `cat` is the Chrome trace category (e.g. `"compute"`, `"comm"`,
    /// `"solver"`); `attrs` become the event's `args`.
    pub fn span(
        &self,
        lane: Lane,
        cat: &'static str,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        self.inner.borrow_mut().log.push(Event {
            lane,
            cat,
            name: name.into(),
            start_ns,
            dur_ns: Some(end_ns.saturating_sub(start_ns)),
            attrs,
        });
    }

    /// Records an instant event (a point in time) on `lane`.
    pub fn mark(
        &self,
        lane: Lane,
        cat: &'static str,
        name: impl Into<String>,
        at_ns: u64,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        self.inner.borrow_mut().log.push(Event {
            lane,
            cat,
            name: name.into(),
            start_ns: at_ns,
            dur_ns: None,
            attrs,
        });
    }

    /// Records a strict validation violation as a structured event and bumps
    /// the `violations` counter. Callers emit this *before* panicking so the
    /// failure carries context (which subsystem, what was violated, when).
    pub fn violation(&self, context: &'static str, detail: &str, at_ns: u64) {
        self.mark(
            Lane::Run,
            "violation",
            format!("violation: {context}"),
            at_ns,
            vec![
                ("context", AttrValue::Str(context.to_string())),
                ("detail", AttrValue::Str(detail.to_string())),
            ],
        );
        self.counter_add("violations", 1.0);
    }

    /// Adds `delta` to the named counter (created at zero on first use).
    pub fn counter_add(&self, name: &str, delta: f64) {
        self.inner.borrow_mut().metrics.counter_add(name, delta);
    }

    /// Reads a counter back; zero when never incremented.
    pub fn counter(&self, name: &str) -> f64 {
        self.inner.borrow().metrics.counter(name)
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.inner.borrow_mut().metrics.gauge_set(name, value);
    }

    /// Reads a gauge back; `None` when never set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.borrow().metrics.gauge(name)
    }

    /// Records `value` into the named fixed-bucket histogram. The bucket
    /// bounds are fixed by the *first* record for that name; later calls
    /// ignore their `bounds` argument.
    pub fn histogram_record(&self, name: &str, bounds: &[f64], value: f64) {
        self.inner
            .borrow_mut()
            .metrics
            .histogram_record(name, bounds, value);
    }

    /// Number of recorded span/instant events.
    pub fn event_count(&self) -> usize {
        self.inner.borrow().log.len()
    }

    /// Exports the event log as Chrome trace-event JSON — one lane per GPU,
    /// per PCIe/NVLink link, plus solver and run lanes. Load the file in
    /// [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        let inner = self.inner.borrow();
        chrome::export(&inner.log, &inner.dag)
    }

    /// Exports the event log as JSONL: one deterministic JSON object per
    /// line, in recording order (streaming-friendly alternative to the
    /// Chrome document).
    pub fn export_jsonl(&self) -> String {
        jsonl::export(&self.inner.borrow().log)
    }

    /// Opens a dependency-DAG node occupying `resource` from `start_ns`,
    /// constrained by `deps`; returns its sid. See [`DagLog::open`].
    pub fn dag_open(
        &self,
        cat: &str,
        name: impl Into<String>,
        resource: ResourceId,
        start_ns: u64,
        deps: Vec<DagDep>,
    ) -> u64 {
        self.inner
            .borrow_mut()
            .dag
            .open(cat, name, resource, start_ns, deps)
    }

    /// Closes DAG node `sid` at `end_ns`. See [`DagLog::close`].
    pub fn dag_close(&self, sid: u64, end_ns: u64) {
        self.inner.borrow_mut().dag.close(sid, end_ns);
    }

    /// Records a local step boundary ending at `t_ns` whose head node is
    /// `head_sid`. See [`DagLog::mark_boundary`].
    pub fn dag_boundary(&self, t_ns: u64, head_sid: u64) {
        self.inner.borrow_mut().dag.mark_boundary(t_ns, head_sid);
    }

    /// Records a cluster-synchronized step boundary. See
    /// [`DagLog::mark_cluster_boundary`].
    pub fn dag_cluster_boundary(&self, t_ns: u64, head_sid: u64) {
        self.inner
            .borrow_mut()
            .dag
            .mark_cluster_boundary(t_ns, head_sid);
    }

    /// Number of recorded DAG nodes.
    pub fn dag_len(&self) -> usize {
        self.inner.borrow().dag.len()
    }

    /// Runs `f` with shared access to the dependency DAG.
    pub fn with_dag<R>(&self, f: impl FnOnce(&DagLog) -> R) -> R {
        f(&self.inner.borrow().dag)
    }

    /// Verifies the critical-path identity over the recorded DAG — every
    /// step's reconstructed critical path must tile the step exactly. See
    /// [`analyze::verify_identity`].
    ///
    /// # Errors
    ///
    /// See [`AnalyzeError`].
    pub fn verify_dag_identity(&self) -> Result<(), AnalyzeError> {
        analyze::verify_identity(&self.inner.borrow().dag)
    }

    /// [`Obs::verify_dag_identity`] as a strict-mode gate: on failure it
    /// records a `critical-path-identity` violation at `at_ns` and panics
    /// with `"{what} violated: {error}"`.
    ///
    /// # Panics
    ///
    /// Panics when the identity does not hold.
    pub fn assert_dag_identity(&self, what: &str, at_ns: u64) {
        if let Err(e) = self.verify_dag_identity() {
            let msg = e.to_string();
            self.violation("critical-path-identity", &msg, at_ns);
            panic!("{what} violated: {msg}");
        }
    }

    /// Runs the full critical-path / blame / what-if analysis over the
    /// recorded DAG. See [`analyze::analyze`].
    ///
    /// # Errors
    ///
    /// See [`AnalyzeError`].
    pub fn analyze(&self) -> Result<Analysis, AnalyzeError> {
        analyze::analyze(&self.inner.borrow().dag)
    }

    /// Exports the metrics registry as a JSON object with `counters`,
    /// `gauges`, and `histograms` keys.
    pub fn metrics_json(&self) -> String {
        report::render_json(&self.inner.borrow().metrics)
    }

    /// Renders the metrics registry as a human-readable report.
    pub fn metrics_text(&self) -> String {
        report::render_text(&self.inner.borrow().metrics)
    }

    /// Runs `f` with shared access to the metrics registry (snapshot reads).
    pub fn with_metrics<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> R {
        f(&self.inner.borrow().metrics)
    }

    /// Runs `f` with shared access to the event log (exporters, tests).
    pub fn with_events<R>(&self, f: impl FnOnce(&EventLog) -> R) -> R {
        f(&self.inner.borrow().log)
    }

    /// Detaches what this recorder saw as a replayable [`Recording`]: its
    /// events in recording order plus its counter and gauge values.
    /// Histograms and DAG nodes are not captured, so record only sources
    /// that emit neither (the planner).
    pub fn recording(&self) -> Recording {
        let inner = self.inner.borrow();
        assert!(
            inner.metrics.histograms().is_empty() && inner.dag.is_empty(),
            "a recording carries no histograms or DAG nodes"
        );
        Recording {
            events: inner.log.events().to_vec(),
            counters: inner.metrics.counters().clone(),
            gauges: inner.metrics.gauges().clone(),
        }
    }

    /// Replays `rec` into this recorder: its events append in order, each
    /// counter is added once and each gauge is set. A replay is
    /// bit-identical to the recorded calls whenever the recorded source
    /// added to each counter once (the planner does), whatever this
    /// recorder already holds.
    pub fn replay(&self, rec: &Recording) {
        let mut inner = self.inner.borrow_mut();
        for e in &rec.events {
            inner.log.push(e.clone());
        }
        for (name, &v) in &rec.counters {
            inner.metrics.counter_add(name, v);
        }
        for (name, &v) in &rec.gauges {
            inner.metrics.gauge_set(name, v);
        }
    }
}

/// What one [`Obs`] saw, detached from it so it can be kept as a value and
/// replayed into other recorders ([`Obs::recording`], [`Obs::replay`]).
#[derive(Debug, Clone, Default)]
pub struct Recording {
    events: Vec<Event>,
    counters: std::collections::BTreeMap<String, f64>,
    gauges: std::collections::BTreeMap<String, f64>,
}

/// Where a simulator records its dependency DAG: into the caller's
/// observer when one is attached, else into a private one on strict runs
/// (so the critical-path identity is verified there too), else nowhere.
/// Node ids of a private recorder mean nothing outside the run, so they
/// never reach a report.
#[derive(Debug, Clone)]
pub struct DagRecorder {
    obs: Option<Obs>,
    public: bool,
}

impl DagRecorder {
    /// The recorder for a run observed by `caller` (if any), strict or not.
    pub fn new(caller: Option<&Obs>, strict: bool) -> Self {
        let obs = match caller {
            Some(o) => Some(o.clone()),
            None if strict => Some(Obs::new()),
            None => None,
        };
        DagRecorder {
            obs,
            public: caller.is_some(),
        }
    }

    /// The observer the DAG records into; `None` when nothing is recorded.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// Whether node ids index the caller's observer.
    pub fn is_public(&self) -> bool {
        self.public
    }

    /// `sid` as a report may carry it: itself when public, else `None`.
    pub fn public(&self, sid: Option<u64>) -> Option<u64> {
        sid.filter(|_| self.public)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = Obs::new();
        let b = a.clone();
        b.counter_add("x", 2.0);
        assert_eq!(a.counter("x"), 2.0);
        b.span(Lane::Gpu(1), "compute", "fwd", 0, 10, vec![]);
        assert_eq!(a.event_count(), 1);
    }

    #[test]
    fn violation_is_counted_and_logged() {
        let obs = Obs::new();
        obs.violation("flow-network", "link oversubscribed", 42);
        assert_eq!(obs.counter("violations"), 1.0);
        let json = obs.chrome_trace_json();
        assert!(json.contains("violation: flow-network"));
        assert!(json.contains("link oversubscribed"));
    }

    #[test]
    fn gauges_last_write_wins() {
        let obs = Obs::new();
        assert_eq!(obs.gauge("bubble.mean"), None);
        obs.gauge_set("bubble.mean", 0.5);
        obs.gauge_set("bubble.mean", 0.25);
        assert_eq!(obs.gauge("bubble.mean"), Some(0.25));
    }

    #[test]
    fn replay_is_byte_identical_to_the_recorded_calls() {
        let emit = |obs: &Obs| {
            obs.mark(Lane::Solver, "solver", "incumbent", 7, vec![]);
            obs.counter_add("mip.evaluated", 0.1);
            obs.gauge_set("mip.stages", 3.0);
            obs.mark(Lane::Run, "plan", "mapping.decision", 0, vec![]);
        };
        let tail = |obs: &Obs| {
            obs.counter_add("mip.evaluated", 0.7);
            obs.span(Lane::Gpu(0), "compute", "fwd", 0, 10, vec![]);
        };
        let direct = Obs::new();
        direct.counter_add("mip.evaluated", 0.2);
        emit(&direct);
        tail(&direct);

        let source = Obs::new();
        emit(&source);
        let rec = source.recording();
        let replayed = Obs::new();
        replayed.counter_add("mip.evaluated", 0.2);
        replayed.replay(&rec);
        tail(&replayed);

        assert_eq!(replayed.chrome_trace_json(), direct.chrome_trace_json());
        assert_eq!(replayed.metrics_json(), direct.metrics_json());
        // Replaying leaves the source untouched and can repeat.
        assert_eq!(source.event_count(), 2);
        let again = Obs::new();
        again.replay(&rec);
        again.replay(&rec);
        assert_eq!(again.event_count(), 4);
        assert_eq!(again.counter("mip.evaluated"), 0.2);
    }

    #[test]
    fn debug_does_not_dump_the_log() {
        let obs = Obs::new();
        obs.span(Lane::Run, "c", "huge", 0, 1, vec![]);
        let dbg = format!("{obs:?}");
        assert!(dbg.contains("Obs"));
        assert!(!dbg.contains("huge"));
    }
}
