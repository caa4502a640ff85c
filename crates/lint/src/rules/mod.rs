//! The rule passes, one module per family.
//!
//! * [`determinism`] — the per-line token rules D001–D004 and D006.
//! * [`layering`] — D005, the machine-readable dependency-flow table.
//! * [`units`] — D007, dimension-aware unit-consistency analysis.
//! * [`registry`] — D009, DESIGN.md obs-registry drift.
//!
//! D000 (malformed suppression) and D008 (stale suppression) live in the
//! crate's private `suppress` module: they are properties of the
//! directives themselves, not of the code under them.

pub mod determinism;
pub mod layering;
pub mod registry;
pub mod units;
