//! # mobius-serve
//!
//! Planning as a service: the ROADMAP's "millions of users" north star
//! needs plan/estimate queries answered in (simulated) microseconds, not
//! the milliseconds-to-seconds a cold MIP solve costs. This crate layers a
//! long-running request loop over the [`mobius`] planner:
//!
//! - a **plan cache** keyed by the (model, topology) fingerprint pair from
//!   [`mobius::fingerprint`] — the only inputs a solve reads — with
//!   strict-LRU capacity eviction;
//! - a **deterministic request loop** ([`Server`]) speaking a
//!   line-delimited `plan` / `estimate` / `invalidate` / `stats` protocol
//!   over any injected `BufRead`/`Write` pair — no network, so a future
//!   socket shim can slot in without touching the service logic;
//! - **warm-start seeding**: a miss whose model already has a cached plan
//!   on another topology solves from that incumbent (the PR 6 warm-start
//!   path) instead of cold;
//! - a **closed-loop load generator** ([`run_load`]) with zipfian tenant
//!   popularity driven by the seeded RNG shim, reporting hit rate and
//!   p50/p99/p999 simulated latency.
//!
//! Everything is byte-deterministic per seed: misses solve with the
//! node-budgeted branch-and-bound (machine-independent node counts), service
//! latency is simulated from those counts (never measured), and cache
//! state lives in ordered maps with logical-tick recency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod loadgen;
mod server;

pub use loadgen::{run_load, LoadReport};
pub use server::{
    ServeConfig, ServeError, ServeStats, Server, HIT_SERVICE_US, LATENCY_US_BUCKETS, LEAF_COST_US,
    MISS_BASE_US,
};
