//! Invariant validation for the simulator's core data structures.
//!
//! Strict mode turns silent modelling errors into loud ones: when enabled
//! via [`FlowNetwork::set_strict_validation`], the flow network re-checks
//! flow conservation after every rate solve, and panics with a
//! [`InvariantViolation`] describing exactly which guarantee broke.
//!
//! The checks are written as an independent re-statement of the documented
//! invariants, *not* by reusing the allocator's own arithmetic — otherwise a
//! bug in the water-filling solver would validate itself.
//!
//! [`FlowNetwork::set_strict_validation`]: crate::FlowNetwork::set_strict_validation

use std::fmt;

use crate::{FlowId, SimTime};

/// A broken invariant detected by one of the strict-mode validators.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// The rates of the flows crossing a link sum to more than its capacity.
    LinkOversubscribed {
        /// Label of the oversubscribed link.
        link: String,
        /// Capacity in bytes/second.
        capacity: f64,
        /// Total allocated rate in bytes/second.
        allocated: f64,
    },
    /// A flow was assigned a negative rate.
    NegativeRate {
        /// The offending flow.
        id: FlowId,
        /// The offending rate in bytes/second.
        rate: f64,
    },
    /// A flow received zero rate although no link on its path is saturated
    /// by flows of equal or higher priority — i.e. it was starved without a
    /// preemption to justify it.
    StarvedFlow {
        /// The starved flow.
        id: FlowId,
        /// Priority class of the starved flow.
        priority: u8,
    },
    /// A completion was delivered for a flow id that is not (or no longer)
    /// in the network, e.g. one a watchdog already cancelled.
    UnknownFlow {
        /// The id the completion referenced.
        id: FlowId,
    },
    /// A flow was completed while visibly more than a rounding residue of
    /// its bytes was still pending — the executor declared completion at
    /// the wrong instant.
    IncompleteFlow {
        /// The offending flow.
        id: FlowId,
        /// Bytes still pending at the declared completion.
        remaining: f64,
        /// The rounding tolerance that was exceeded.
        tolerance: f64,
    },
    /// A flow was still pending when the simulated clock saturated at
    /// [`SimTime::MAX`]: a link on its path is too slow for the transfer to
    /// finish inside the clock's range (about 584 years).
    ClockOverflow {
        /// The flow that cannot finish.
        id: FlowId,
        /// Bytes still pending when the clock saturated.
        remaining: f64,
    },
    /// The event queue yielded an event earlier than the engine clock. A
    /// backwards clock silently corrupts every downstream interval, so
    /// [`Engine::pop`](crate::Engine::pop) checks this in every build
    /// profile.
    ClockWentBackwards {
        /// The engine clock when the event was popped.
        now: SimTime,
        /// The (earlier) timestamp of the popped event.
        event: SimTime,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::LinkOversubscribed {
                link,
                capacity,
                allocated,
            } => write!(
                f,
                "link '{link}' oversubscribed: {:.3} GB/s allocated on {:.3} GB/s capacity",
                crate::units::bytes_per_sec_to_gbps(*allocated),
                crate::units::bytes_per_sec_to_gbps(*capacity)
            ),
            InvariantViolation::NegativeRate { id, rate } => {
                write!(f, "flow {id:?} has negative rate {rate} B/s")
            }
            InvariantViolation::StarvedFlow { id, priority } => write!(
                f,
                "flow {id:?} (priority {priority}) starved with no saturated link of \
                 equal-or-higher priority on its path"
            ),
            InvariantViolation::UnknownFlow { id } => {
                write!(f, "completion for unknown (torn down?) flow {id:?}")
            }
            InvariantViolation::IncompleteFlow {
                id,
                remaining,
                tolerance,
            } => write!(
                f,
                "flow {id:?} completed with {remaining} bytes remaining (tolerance {tolerance:.1})"
            ),
            InvariantViolation::ClockOverflow { id, remaining } => write!(
                f,
                "flow {id:?} cannot finish inside the simulated clock: {remaining:.0} bytes \
                 still pending when it saturated (a link on its path is too slow)"
            ),
            InvariantViolation::ClockWentBackwards { now, event } => write!(
                f,
                "event queue went backwards: popped event at {event:?} behind clock {now:?}"
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowNetwork;

    fn gbps(x: f64) -> f64 {
        x * 1e9
    }

    #[test]
    fn healthy_network_validates() {
        let mut net = FlowNetwork::new();
        let lane = net.add_link("lane", gbps(16.0));
        let up = net.add_link("uplink", gbps(13.0));
        net.start_flow(vec![lane, up], gbps(10.0), 2, 0);
        net.start_flow(vec![up], gbps(10.0), 0, 1);
        assert_eq!(net.validate_rates(), Ok(()));
    }

    #[test]
    fn preempted_flow_is_not_flagged_as_starved() {
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", gbps(1.0));
        net.start_flow(vec![l], gbps(100.0), 9, 0);
        let lo = net.start_flow(vec![l], gbps(1.0), 0, 1);
        assert_eq!(net.rate_of(lo).unwrap(), 0.0);
        assert_eq!(net.validate_rates(), Ok(()));
    }

    #[test]
    fn injected_oversubscription_is_caught() {
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", gbps(4.0));
        let f = net.start_flow(vec![l], gbps(1.0), 0, 7);
        net.debug_set_rate(f, gbps(9.0));
        match net.validate_rates() {
            Err(InvariantViolation::LinkOversubscribed { link, .. }) => assert_eq!(link, "l"),
            other => panic!("expected LinkOversubscribed, got {other:?}"),
        }
    }

    #[test]
    fn injected_negative_rate_is_caught() {
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", gbps(4.0));
        let f = net.start_flow(vec![l], gbps(1.0), 0, 7);
        net.debug_set_rate(f, -1.0);
        assert!(matches!(
            net.validate_rates(),
            Err(InvariantViolation::NegativeRate { id, .. }) if id == f
        ));
    }

    #[test]
    fn injected_starvation_is_caught() {
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", gbps(10.0));
        let f = net.start_flow(vec![l], gbps(1.0), 3, 11);
        // Alone on an idle link, yet at rate zero: nothing preempts it.
        net.debug_set_rate(f, 0.0);
        assert!(matches!(
            net.validate_rates(),
            Err(InvariantViolation::StarvedFlow { id, priority: 3 }) if id == f
        ));
    }

    #[test]
    #[should_panic(expected = "oversubscribed")]
    fn strict_mode_panics_on_advance() {
        let mut net = FlowNetwork::new();
        net.set_strict_validation(true);
        let l = net.add_link("l", gbps(4.0));
        let f = net.start_flow(vec![l], gbps(8.0), 0, 0);
        net.debug_set_rate(f, gbps(9.0));
        // Advancing time in strict mode re-checks conservation first, so the
        // injected oversubscription is seen before any bytes drain at it.
        net.advance_to(SimTime::from_millis(1));
    }
}
