//! Diagnostics-only wall-clock timing, quarantined from deterministic
//! artifacts.
//!
//! Every headline number of this reproduction is defended by
//! byte-determinism gates (golden Chrome traces, byte-compared seeded bench
//! runs). Real wall-clock reads are the easiest way to poison one of those
//! artifacts, so `mobius-lint` (D001) bans `Instant::now` /
//! `SystemTime::now` everywhere **except this module**: code that
//! legitimately needs wall-clock diagnostics (MIP solve timings, replan
//! latency prints, Figure 12's planning-overhead table) goes through
//! [`WallTimer`] and carries the result as a [`WallSecs`].
//!
//! The contract for [`WallSecs`] holders:
//!
//! - The hand-written JSON/trace emitters ([`crate::json`], the Chrome
//!   exporter, `mobius-bench`'s `render_json_report`) accept only strings
//!   and plain numbers, so a `WallSecs` can reach an artifact only via an explicit
//!   [`WallSecs::secs`] call — which is the greppable, reviewable boundary.
//! - `.secs()` may feed stderr prints, human-facing tables that are
//!   *documented* as machine-dependent (Figure 12), and test assertions.
//!   It must never feed a byte-compared artifact (goldens, seeded bench
//!   JSON, Chrome traces).

use std::time::Instant;

/// A started wall-clock timer. The only sanctioned source of wall-clock
/// readings in the workspace (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct WallTimer {
    started: Instant,
}

impl WallTimer {
    /// Starts a timer now.
    #[must_use]
    pub fn start() -> Self {
        WallTimer {
            started: Instant::now(),
        }
    }

    /// Wall-clock seconds elapsed since [`WallTimer::start`], as a
    /// diagnostics-only [`WallSecs`].
    #[must_use]
    pub fn elapsed(&self) -> WallSecs {
        WallSecs(self.started.elapsed().as_secs_f64())
    }
}

/// Wall-clock seconds that are diagnostics-only by construction.
///
/// Deliberately *not* printable via `Display` and not accepted by any JSON
/// helper: extracting the number requires an explicit [`WallSecs::secs`]
/// call, so every escape of wall-clock data into an artifact is visible at
/// the call site (and reviewable against the module contract above).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WallSecs(f64);

impl WallSecs {
    /// Wraps a raw seconds value (for tests and synthetic diagnostics).
    #[must_use]
    pub fn from_secs(s: f64) -> Self {
        WallSecs(s)
    }

    /// The raw seconds. Only stderr prints, machine-dependent human tables
    /// (Figure 12), and assertions should call this — never a
    /// byte-compared artifact.
    #[must_use]
    pub fn secs(self) -> f64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_elapsed_is_nonnegative_and_monotone() {
        let t = WallTimer::start();
        let a = t.elapsed();
        let b = t.elapsed();
        assert!(a.secs() >= 0.0);
        assert!(b.secs() >= a.secs());
    }

    #[test]
    fn wall_secs_roundtrip() {
        assert_eq!(WallSecs::from_secs(1.5).secs(), 1.5);
        assert_eq!(WallSecs::default().secs(), 0.0);
    }
}
