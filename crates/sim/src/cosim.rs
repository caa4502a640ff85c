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

use crate::validate::InvariantViolation;
use crate::{Engine, FlowId, FlowNetwork, FlowRecord, SimTime};

/// What one co-simulation step delivered.
#[derive(Debug)]
pub enum Step<E> {
    /// A flow drained; the network and engine clocks stand at its finish.
    Flow(FlowId, FlowRecord),
    /// An engine event fired at this instant.
    Event(SimTime, E),
}

/// A flow that cannot drain inside the simulated clock: a link on its path
/// is so slow that its completion instant saturates at [`SimTime::MAX`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockOverflow {
    /// The flow that cannot finish.
    pub id: FlowId,
    /// The correlation token the flow was started with.
    pub user: u64,
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
pub fn step<E>(
    net: &mut FlowNetwork,
    engine: &mut Engine<E>,
) -> Result<Option<Step<E>>, ClockOverflow> {
    match (net.next_completion(), engine.peek_time()) {
        (None, None) => Ok(None),
        (Some((tf, id)), te) if te.is_none_or(|te| tf <= te) => {
            net.advance_to(tf);
            engine.advance_to(tf);
            complete(net, id).map(|rec| Some(Step::Flow(id, rec)))
        }
        _ => {
            let (t, ev) = engine.pop().expect("an event is pending");
            net.advance_to(t);
            Ok(Some(Step::Event(t, ev)))
        }
    }
}

/// [`step`] for a network without an engine: advances to the next flow
/// completion and delivers it, or `Ok(None)` when no flow is moving.
///
/// # Errors
///
/// [`ClockOverflow`] when the next flow cannot drain inside the clock.
///
/// # Panics
///
/// Panics on any other completion failure (a simulator bug).
pub fn step_flows(net: &mut FlowNetwork) -> Result<Option<(FlowId, FlowRecord)>, ClockOverflow> {
    let Some((t, id)) = net.next_completion() else {
        return Ok(None);
    };
    net.advance_to(t);
    complete(net, id).map(|rec| Some((id, rec)))
}

#[inline]
fn complete(net: &mut FlowNetwork, id: FlowId) -> Result<FlowRecord, ClockOverflow> {
    match net.complete(id) {
        Ok(rec) => Ok(rec),
        Err(InvariantViolation::ClockOverflow { remaining, .. }) => Err(ClockOverflow {
            id,
            user: net.user_of(id).expect("an overflowing flow stays live"),
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
            Ok(Some(Step::Flow(id, rec))) => {
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
    fn a_flow_outlasting_the_clock_overflows_with_its_id_and_tag() {
        let mut net = FlowNetwork::new();
        let link = net.add_link("slow", 1e-30);
        let f = net.start_flow(vec![link], 1e9, 0, 3);
        match step_flows(&mut net) {
            Err(o) => {
                assert_eq!((o.id, o.user), (f, 3));
                assert!(o.remaining > 0.0);
            }
            other => panic!("expected ClockOverflow, got {other:?}"),
        }
    }
}
