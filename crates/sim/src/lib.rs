//! # mobius-sim
//!
//! A small discrete-event simulator for communication-bound GPU servers,
//! built for the Mobius (ASPLOS '23) reproduction.
//!
//! The crate provides these pieces:
//!
//! * [`SimTime`] — nanosecond simulated clock.
//! * [`Engine`] — a time-ordered event queue; executors own the loop.
//! * [`step`] / [`step_flows`] — the one co-simulation step every loop
//!   takes: the next flow completion or engine event, whichever is first.
//! * [`FlowNetwork`] — a fluid-flow bandwidth model with max-min fair
//!   sharing and strict priorities, capturing PCIe root-complex contention.
//! * [`TraceRecorder`] / [`Cdf`] / [`IntervalSet`] — the measurement side:
//!   traffic counters, byte-weighted bandwidth CDFs, and compute/comm
//!   overlap accounting.
//! * [`FaultSchedule`] / [`FaultStats`] — deterministic, seeded fault
//!   injection (degraded links, stragglers, transfer stalls, GPU loss)
//!   that executors replay as ordinary engine events.
//! * [`units`] — named unit-conversion constants and helpers
//!   (`NS_PER_SEC`, `gbps_to_bytes_per_sec`, …); the sanctioned,
//!   D007-lint-recognized way to move a value between dimensions.
//!
//! # Example: two GPUs contending on one root complex
//!
//! ```
//! use mobius_sim::{FlowNetwork, SimTime};
//!
//! let mut net = FlowNetwork::new();
//! let lane0 = net.add_link("gpu0-pcie", 16.0e9);
//! let lane1 = net.add_link("gpu1-pcie", 16.0e9);
//! let uplink = net.add_link("root-complex", 13.0e9);
//!
//! // Both GPUs pull 13 GB from DRAM at once: each gets 6.5 GB/s.
//! let f0 = net.start_flow(vec![lane0, uplink], 13.0e9, 0, 0);
//! let f1 = net.start_flow(vec![lane1, uplink], 13.0e9, 0, 1);
//! assert!((net.rate_of(f0).unwrap() - 6.5e9).abs() < 1.0);
//!
//! let (t, _) = net.next_completion().unwrap();
//! assert_eq!(t, SimTime::from_secs(2));
//! # let _ = f1;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cosim;
mod engine;
mod fault;
mod flow;
mod intervals;
mod time;
mod trace;
pub mod units;
mod validate;

pub use cosim::{step, step_flows, ClockOverflow, Step};
pub use engine::Engine;
pub use fault::{
    CrashPoint, FaultAbort, FaultEvent, FaultKind, FaultSchedule, FaultStats, DEFAULT_MAX_RETRIES,
    DEFAULT_RETRY_BASE, DEFAULT_WATCHDOG,
};
pub use flow::{FlowId, FlowNetwork, FlowRecord, LinkId, Priority};
pub use intervals::IntervalSet;
pub use time::SimTime;
pub use trace::{BandwidthSample, Cdf, CommKind, TraceRecorder};
pub use validate::InvariantViolation;
