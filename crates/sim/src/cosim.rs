//! The co-simulation step: one rule for interleaving flow completions from
//! a [`FlowNetwork`] with events from an [`Engine`].
//!
//! Every simulator in the workspace (the pipeline executor, the ZeRO
//! steps, the ring all-reduce) drives its loop through [`step`] or
//! [`step_flows`], so they all advance time the same way:
//!
//! * the next flow completion wins a tie with the next event;
//! * on a completion, the network advances, then the engine, then the
//!   flow completes;
//! * on an event, the engine pops it, then the network advances;
//! * a flow that cannot drain inside the simulated clock is a typed
//!   [`ClockOverflow`]; any other completion failure is a simulator bug
//!   and panics.
//!
//! A delivered completion carries the flow's tag, and so does an overflow,
//! so each simulator finds a flow's metadata in the flow itself.

use crate::validate::InvariantViolation;
use crate::{Engine, FlowId, FlowNetwork, FlowRecord, SimTime};

/// What one co-simulation step delivered.
#[derive(Debug)]
pub enum Step<E, T = u64> {
    /// A flow drained, with its tag; the network and engine clocks stand at
    /// its finish.
    Flow(FlowId, FlowRecord, T),
    /// An engine event fired at this instant.
    Event(SimTime, E),
}

/// A flow that cannot drain inside the simulated clock: a link on its path
/// is so slow that its completion instant saturates at [`SimTime::MAX`].
/// The flow leaves the network, and its tag comes back here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockOverflow<T = u64> {
    /// The flow that cannot finish.
    pub id: FlowId,
    /// The tag the flow was started with.
    pub tag: T,
    /// Bytes still pending when the clock saturated.
    pub remaining: f64,
}

/// Advances `net` and `engine` together to whichever comes first, the next
/// flow completion or the next event, and delivers it. `Ok(None)` means
/// nothing is left: no moving flow and no pending event.
///
/// # Errors
///
/// [`ClockOverflow`] when the next flow cannot drain inside the clock.
///
/// # Panics
///
/// Panics on any other completion failure (a simulator bug).
pub fn step<E, T>(
    net: &mut FlowNetwork<T>,
    engine: &mut Engine<E>,
) -> Result<Option<Step<E, T>>, ClockOverflow<T>> {
    match (net.next_completion(), engine.peek_time()) {
        (None, None) => Ok(None),
        (Some((tf, id)), te) if te.is_none_or(|te| tf <= te) => {
            net.advance_to(tf);
            engine.advance_to(tf);
            complete(net, id).map(|(rec, tag)| Some(Step::Flow(id, rec, tag)))
        }
        _ => {
            let (t, ev) = engine.pop().expect("an event is pending");
            net.advance_to(t);
            Ok(Some(Step::Event(t, ev)))
        }
    }
}

/// [`step`] for a network without an engine: advances to the next flow
/// completion and delivers it with its tag, or `Ok(None)` when no flow is
/// moving.
///
/// # Errors
///
/// [`ClockOverflow`] when the next flow cannot drain inside the clock.
///
/// # Panics
///
/// Panics on any other completion failure (a simulator bug).
pub fn step_flows<T>(
    net: &mut FlowNetwork<T>,
) -> Result<Option<(FlowId, FlowRecord, T)>, ClockOverflow<T>> {
    let Some((t, id)) = net.next_completion() else {
        return Ok(None);
    };
    net.advance_to(t);
    complete(net, id).map(|(rec, tag)| Some((id, rec, tag)))
}

#[inline]
fn complete<T>(net: &mut FlowNetwork<T>, id: FlowId) -> Result<(FlowRecord, T), ClockOverflow<T>> {
    match net.complete(id) {
        Ok(done) => Ok(done),
        Err(InvariantViolation::ClockOverflow { remaining, .. }) => Err(ClockOverflow {
            id,
            tag: net.cancel(id).expect("an overflowing flow stays live").1,
            remaining,
        }),
        Err(v) => panic!("completion instant came from next_completion: {v}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_completion_wins_a_tie_with_an_event() {
        let mut net = FlowNetwork::new();
        let link = net.add_link("l", 1e9);
        let f = net.start_flow(vec![link], 1e9, 0, 7);
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_secs(1), "tick");
        match step(&mut net, &mut engine) {
            Ok(Some(Step::Flow(id, rec, 7))) => {
                assert_eq!(id, f);
                assert_eq!(rec.finished, SimTime::from_secs(1));
                assert_eq!(engine.now(), SimTime::from_secs(1));
            }
            other => panic!("expected the flow first, got {other:?}"),
        }
        match step(&mut net, &mut engine) {
            Ok(Some(Step::Event(t, "tick"))) => assert_eq!(t, SimTime::from_secs(1)),
            other => panic!("expected the event, got {other:?}"),
        }
        assert!(matches!(step(&mut net, &mut engine), Ok(None)));
    }

    #[test]
    fn every_way_out_of_the_network_gives_the_tag_back() {
        // Two flows drain at the same instant: each completion carries its
        // own tag, in id order. A cancelled flow hands its tag back too.
        let mut net = FlowNetwork::new();
        let link = net.add_link("l", 2e9);
        let a = net.start_flow(vec![link], 1e9, 0, String::from("a"));
        let b = net.start_flow(vec![link], 1e9, 0, String::from("b"));
        let c = net.start_flow(vec![link], 1e9, 0, String::from("c"));
        assert_eq!(net.cancel(c), Some((0.0, String::from("c"))));
        let mut engine: Engine<()> = Engine::new();
        for (want, tag) in [(a, "a"), (b, "b")] {
            match step(&mut net, &mut engine) {
                Ok(Some(Step::Flow(id, rec, t))) => {
                    assert_eq!((id, t.as_str()), (want, tag));
                    assert_eq!(rec.finished, SimTime::from_secs(1));
                }
                other => panic!("expected flow {tag}, got {other:?}"),
            }
        }
        assert!(matches!(step_flows(&mut net), Ok(None)));
    }

    #[test]
    fn a_flow_outlasting_the_clock_overflows_with_its_id_and_tag() {
        let mut net = FlowNetwork::new();
        let link = net.add_link("slow", 1e-30);
        let f = net.start_flow(vec![link], 1e9, 0, String::from("slow"));
        match step_flows(&mut net) {
            Err(o) => {
                assert_eq!((o.id, o.tag.as_str()), (f, "slow"));
                assert!(o.remaining > 0.0);
            }
            other => panic!("expected ClockOverflow, got {other:?}"),
        }
        assert_eq!(net.active_flows(), 0, "the tag left with the flow");
    }
}
