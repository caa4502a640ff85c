//! The event model: lanes, typed attributes, and the append-only log.

/// Which timeline row an event belongs to.
///
/// The Chrome exporter maps lanes to process/thread pairs: the run lane and
/// solver lane get their own processes, GPUs share a "GPUs" process with one
/// thread per device, links share a "links" process with one thread per
/// named link, and servers share a "servers" process with one thread per
/// server (emitted only when a cluster run records server events).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// Run-scoped events: planning decisions, violations, step boundaries.
    Run,
    /// A GPU's timeline: compute cells plus the transfers touching it.
    Gpu(usize),
    /// A named simplex link (e.g. `rc0-h2d`, `gpu2-lane-d2h`).
    Link(String),
    /// The MIP / partition-search timeline (wall-clock stamped).
    Solver,
    /// A server's timeline in a multi-server cluster run: gradient-bucket
    /// synchronization spans and replica step boundaries.
    Server(usize),
    /// The planning-service request timeline (`mobius-serve`): one span per
    /// handled request, stamped with the service's simulated microsecond
    /// clock (never wall-clock).
    Serve,
}

/// A typed attribute value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (GPU ids, stages, microbatches, byte counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (rates, costs, fractions).
    F64(f64),
    /// Free-form string (link names, labels).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

/// One recorded span (with duration) or instant event (without).
#[derive(Debug, Clone)]
pub struct Event {
    /// Timeline row.
    pub lane: Lane,
    /// Chrome trace category (`"compute"`, `"comm"`, `"solver"`, …).
    pub cat: &'static str,
    /// Display name (e.g. a [`CommKind`] label or `"fwd"`).
    ///
    /// [`CommKind`]: https://docs.rs/mobius-sim
    pub name: String,
    /// Start (or occurrence) time in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds; `None` marks an instant event.
    pub dur_ns: Option<u64>,
    /// Typed attributes, exported as the Chrome event's `args`.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// Append-only list of events in recording order.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Appends an event.
    pub fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events in recording order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_preserves_order() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        for i in 0..3 {
            log.push(Event {
                lane: Lane::Gpu(i),
                cat: "compute",
                name: format!("e{i}"),
                start_ns: i as u64,
                dur_ns: Some(1),
                attrs: vec![],
            });
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.events()[2].name, "e2");
    }

    #[test]
    fn lanes_order_links_by_name() {
        let mut lanes = [
            Lane::Link("rc0-h2d".into()),
            Lane::Link("gpu0-lane-h2d".into()),
        ];
        lanes.sort();
        assert_eq!(lanes[0], Lane::Link("gpu0-lane-h2d".into()));
    }
}
