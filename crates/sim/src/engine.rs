//! The discrete-event engine: a time-ordered queue of user events.
//!
//! [`Engine`] is deliberately minimal — executors (pipeline, ZeRO, …) own the
//! simulation loop and interleave engine events with flow completions from
//! [`crate::FlowNetwork`]. Events scheduled for the same instant pop in
//! insertion order (FIFO tie-breaking), which keeps executors deterministic.
//!
//! Pending events live in a [`BinaryHeap`] ordered on [`EventKey`]
//! `(at, seq)`: the timestamp, then a global schedule counter that breaks
//! ties. The key is a derived total order on integers, so the pop order is
//! fully determined by the schedule/pop call sequence.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::validate::InvariantViolation;
use crate::SimTime;

/// A time-ordered event queue driving a discrete-event simulation.
///
/// # Examples
///
/// ```
/// use mobius_sim::{Engine, SimTime};
///
/// let mut engine = Engine::new();
/// engine.schedule(SimTime::from_secs(2), "late");
/// engine.schedule(SimTime::from_secs(1), "early");
/// let (t, ev) = engine.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_secs(1), "early"));
/// ```
#[derive(Debug, Clone)]
pub struct Engine<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now: SimTime,
    obs: Option<mobius_obs::Obs>,
}

/// The event ordering key: timestamp first, then the FIFO sequence number
/// as the tie-breaker.
///
/// The order is *derived* on integer fields (`SimTime` is a `u64` newtype),
/// so it is total by construction — there is no NaN-shaped value that could
/// make two keys incomparable and leave queue order to chance. Were the
/// timestamp ever widened to a float, the comparison would have to go
/// through `f64::total_cmp` to keep this property (mobius-lint D003 flags
/// the `partial_cmp` shortcut).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    at: SimTime,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Scheduled<E> {
    key: EventKey,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert the derived total order on the
        // key so the earliest event pops first.
        other.key.cmp(&self.key)
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an empty engine at time zero.
    pub fn new() -> Self {
        Engine {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            obs: None,
        }
    }

    /// Attaches an observer: every schedule/pop bumps the
    /// `engine.scheduled` / `engine.popped` counters. Purely passive — event
    /// order and timing are unaffected.
    pub fn set_obs(&mut self, obs: mobius_obs::Obs) {
        self.obs = Some(obs);
    }

    /// The current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to `now` (the event fires
    /// immediately on the next pop); this makes executors robust to rounding
    /// in bandwidth arithmetic.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let at = at.max(self.now);
        self.heap.push(Scheduled {
            key: EventKey { at, seq: self.seq },
            payload,
        });
        self.seq += 1;
        if let Some(obs) = &self.obs {
            obs.counter_add("engine.scheduled", 1.0);
        }
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimTime, payload: E) {
        self.schedule(self.now + delay, payload);
    }

    /// Timestamp of the next event, if any, without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.key.at)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// # Panics
    ///
    /// Panics — in every build profile — if the next event precedes the
    /// current clock. A backwards clock would silently corrupt every
    /// downstream interval measurement, so the check is always on; the
    /// failure is reported through the sim validation layer as
    /// [`InvariantViolation::ClockWentBackwards`] (and mirrored to the
    /// observer's violation lane when one is attached).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        if s.key.at < self.now {
            let v = InvariantViolation::ClockWentBackwards {
                now: self.now,
                event: s.key.at,
            };
            if let Some(obs) = &self.obs {
                obs.violation("engine", &v.to_string(), self.now.as_nanos());
            }
            panic!("{v}");
        }
        self.now = s.key.at;
        if let Some(obs) = &self.obs {
            obs.counter_add("engine.popped", 1.0);
        }
        Some((s.key.at, s.payload))
    }

    /// Advances the clock without popping (used when a flow completion, not
    /// an engine event, is the next thing to happen).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `to` is earlier than the current time.
    pub fn advance_to(&mut self, to: SimTime) {
        debug_assert!(to >= self.now, "cannot advance the clock backwards");
        self.now = self.now.max(to);
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Test hook: forces the clock to `to` without consistency checks, so
    /// tests can exercise the always-on backwards-clock detection in
    /// [`Engine::pop`]. Not part of the simulation API.
    #[doc(hidden)]
    pub fn debug_force_now(&mut self, to: SimTime) {
        self.now = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_secs(3), 3u32);
        e.schedule(SimTime::from_secs(1), 1u32);
        e.schedule(SimTime::from_secs(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut e = Engine::new();
        let t = SimTime::from_secs(1);
        for i in 0..10u32 {
            e.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn tied_timestamps_stay_fifo_when_interleaved() {
        // Ties must hold even when schedules at other instants arrive
        // between the tied ones — the seq tie-breaker is global, not
        // per-timestamp.
        let mut e = Engine::new();
        let tie = SimTime::from_secs(2);
        e.schedule(tie, "tie-0");
        e.schedule(SimTime::from_secs(1), "early");
        e.schedule(tie, "tie-1");
        e.schedule(SimTime::from_secs(3), "late");
        e.schedule(tie, "tie-2");
        let order: Vec<&str> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec!["early", "tie-0", "tie-1", "tie-2", "late"]);
    }

    #[test]
    fn event_key_order_is_total_and_antisymmetric_on_ties() {
        let t = SimTime::from_secs(7);
        let a = EventKey { at: t, seq: 0 };
        let b = EventKey { at: t, seq: 1 };
        // Derived integer ordering: every pair is comparable, ties on the
        // timestamp are broken by seq, and equal keys compare equal.
        // mobius-lint: allow(D003, reason = "asserts PartialOrd agrees with the derived total order on integer keys")
        assert_eq!(a.partial_cmp(&b), Some(Ordering::Less));
        // mobius-lint: allow(D003, reason = "asserts PartialOrd agrees with the derived total order on integer keys")
        assert_eq!(b.partial_cmp(&a), Some(Ordering::Greater));
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert_eq!(b.cmp(&a), Ordering::Greater);
    }

    #[test]
    fn tied_timestamps_survive_pop_schedule_interleaving() {
        // Popping one tied event and then scheduling another at the same
        // (now current) instant keeps the remaining ties in FIFO order.
        let mut e = Engine::new();
        let tie = SimTime::from_secs(1);
        e.schedule(tie, 0u32);
        e.schedule(tie, 1u32);
        let (_, first) = e.pop().unwrap();
        assert_eq!(first, 0);
        e.schedule(tie, 2u32); // same instant as `now`
        let rest: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(rest, vec![1, 2]);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_secs(5), ());
        assert_eq!(e.now(), SimTime::ZERO);
        e.pop();
        assert_eq!(e.now(), SimTime::from_secs(5));
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_secs(5), "a");
        e.pop();
        e.schedule(SimTime::from_secs(1), "b");
        let (t, _) = e.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_secs(2), "first");
        e.pop();
        e.schedule_after(SimTime::from_secs(3), "second");
        assert_eq!(e.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn len_and_is_empty() {
        let mut e = Engine::new();
        assert!(e.is_empty());
        e.schedule(SimTime::ZERO, ());
        assert_eq!(e.len(), 1);
        e.pop();
        assert!(e.is_empty());
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn backwards_clock_panics_in_all_profiles() {
        // The check is an `if`+`panic!`, not a `debug_assert!`, so this
        // test guards release behaviour too.
        let mut e = Engine::new();
        e.schedule(SimTime::from_secs(1), ());
        e.debug_force_now(SimTime::from_secs(10));
        e.pop();
    }

    #[test]
    fn simtime_max_events_are_handled() {
        let mut e = Engine::new();
        e.schedule(SimTime::MAX, "end-of-time");
        e.schedule(SimTime::from_secs(1), "soon");
        assert_eq!(e.pop().map(|(_, v)| v), Some("soon"));
        assert_eq!(e.pop().map(|(_, v)| v), Some("end-of-time"));
        assert_eq!(e.pop(), None);
    }
}
