//! Deterministic fault injection for the simulated server.
//!
//! A [`FaultSchedule`] is an ordered list of [`FaultEvent`]s — link
//! degradation windows, transient transfer stalls, per-GPU slowdown
//! factors (stragglers), and hard GPU failures — that an executor replays
//! as ordinary engine events. Everything is plain data: the schedule is
//! either built explicitly, parsed from a spec string, or generated from a
//! seed ([`FaultSchedule::random`], backed by the workspace's deterministic
//! `rand` shim), so a run with a given schedule is bit-reproducible.
//!
//! The subsystem is strictly opt-in: executors attach a schedule
//! explicitly, and an **empty** schedule arms nothing — no watchdogs, no
//! events, no counters — so simulated timings are bit-identical to a run
//! without the subsystem (enforced by `tests/resilience.rs`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::SimTime;

/// Where a deterministic process crash fires during a multi-step run.
///
/// Crashes are *process-level* faults: they are consumed by the
/// checkpointing driver above the executor (which persists a checkpoint
/// and terminates with a distinct exit code), never by the in-step
/// simulation. The two addressing modes mirror the checkpoint driver's
/// two clocks: the step counter and accumulated simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CrashPoint {
    /// Crash before executing 0-indexed step `k` of the run.
    Step(u64),
    /// Crash once accumulated simulated time (including checkpoint write
    /// overhead) exceeds this instant; the step in flight is lost.
    Time(SimTime),
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashPoint::Step(k) => write!(f, "step {k}"),
            CrashPoint::Time(t) => write!(f, "t={t}"),
        }
    }
}

/// What kind of hardware fault fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Every link whose label contains `link` runs at `factor` × its
    /// original capacity until `until` (e.g. a root-complex uplink dropping
    /// to 50 % of peak — the bandwidth-collapse mode of commodity PCIe).
    LinkDegrade {
        /// Substring matched against link labels (`"rc0"`, `"gpu2-lane"`).
        link: String,
        /// Capacity multiplier in `(0, +inf)`; `0.5` halves the link.
        factor: f64,
        /// End of the degradation window (absolute simulated time).
        until: SimTime,
    },
    /// The oldest in-flight transfer freezes (rate 0) for `duration` —
    /// a DMA engine hiccup. Recovery is the executor's watchdog + retry.
    TransferStall {
        /// How long the transfer stays frozen unless retried earlier.
        duration: SimTime,
    },
    /// GPU `gpu` computes `factor` × slower until `until` (a straggler:
    /// thermal throttling, a noisy neighbour on the host).
    GpuSlowdown {
        /// The straggling GPU.
        gpu: usize,
        /// Compute-time multiplier, ≥ 1 for a slowdown.
        factor: f64,
        /// End of the straggler window (absolute simulated time).
        until: SimTime,
    },
    /// GPU `gpu` dies at the event time. The step aborts; recovery
    /// (elastic replan on the surviving topology) happens above the
    /// executor.
    GpuFail {
        /// The failed GPU.
        gpu: usize,
    },
    /// The whole process dies at a deterministic [`CrashPoint`]. Inert
    /// inside the step executor; the checkpointing driver strips these
    /// from the schedule it hands down and honours them itself.
    Crash {
        /// Where the crash fires.
        point: CrashPoint,
    },
}

/// One scheduled fault: a kind plus the absolute time it fires.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires (simulated time).
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// Default watchdog timeout: a transfer that makes no progress for this
/// long is presumed stalled and retried.
pub const DEFAULT_WATCHDOG: SimTime = SimTime::from_millis(100);
/// Default base delay of the exponential retry backoff.
pub const DEFAULT_RETRY_BASE: SimTime = SimTime::from_millis(5);
/// Default retry budget per transfer before the step aborts.
pub const DEFAULT_MAX_RETRIES: u32 = 5;

/// A deterministic, replayable schedule of hardware faults plus the
/// recovery knobs (watchdog timeout, retry backoff) executors honour
/// while it is attached.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    /// No-progress window after which an in-flight transfer is retried.
    pub watchdog_timeout: SimTime,
    /// Base delay of the exponential backoff (attempt `k` waits
    /// `retry_base × 2^(k-1)`).
    pub retry_base: SimTime,
    /// Retry budget per transfer; exhausting it aborts the step.
    pub max_retries: u32,
}

impl Default for FaultSchedule {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultSchedule {
    /// An empty schedule with default recovery knobs. Attaching it is
    /// guaranteed passive: bit-identical timings to no schedule at all.
    pub fn new() -> Self {
        FaultSchedule {
            events: Vec::new(),
            watchdog_timeout: DEFAULT_WATCHDOG,
            retry_base: DEFAULT_RETRY_BASE,
            max_retries: DEFAULT_MAX_RETRIES,
        }
    }

    /// Whether the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, sorted by fire time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Adds an event (kept sorted by time; ties keep insertion order).
    pub fn push(&mut self, ev: FaultEvent) {
        let at = ev.at;
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, ev);
    }

    /// Degrades every link whose label contains `link` to `factor` × its
    /// capacity over `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is positive and finite and `until > from`.
    pub fn degrade_link(
        mut self,
        link: impl Into<String>,
        factor: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "degrade factor must be positive"
        );
        assert!(until > from, "degradation window must not be empty");
        self.push(FaultEvent {
            at: from,
            kind: FaultKind::LinkDegrade {
                link: link.into(),
                factor,
                until,
            },
        });
        self
    }

    /// Freezes the oldest in-flight transfer at `at` for `duration`.
    pub fn stall(mut self, at: SimTime, duration: SimTime) -> Self {
        self.push(FaultEvent {
            at,
            kind: FaultKind::TransferStall { duration },
        });
        self
    }

    /// Makes GPU `gpu` compute `factor` × slower over `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics unless `factor ≥ 1` and `until > from`.
    pub fn slow_gpu(mut self, gpu: usize, factor: f64, from: SimTime, until: SimTime) -> Self {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "straggler factor must be >= 1"
        );
        assert!(until > from, "straggler window must not be empty");
        self.push(FaultEvent {
            at: from,
            kind: FaultKind::GpuSlowdown { gpu, factor, until },
        });
        self
    }

    /// Kills GPU `gpu` at `at`.
    pub fn fail_gpu(mut self, gpu: usize, at: SimTime) -> Self {
        self.push(FaultEvent {
            at,
            kind: FaultKind::GpuFail { gpu },
        });
        self
    }

    /// Crashes the process before executing 0-indexed step `step` of a
    /// checkpointed multi-step run.
    pub fn crash_at_step(mut self, step: u64) -> Self {
        self.push(FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::Crash {
                point: CrashPoint::Step(step),
            },
        });
        self
    }

    /// Crashes the process once accumulated simulated time exceeds `at`.
    fn crash_at(mut self, at: SimTime) -> Self {
        self.push(FaultEvent {
            at,
            kind: FaultKind::Crash {
                point: CrashPoint::Time(at),
            },
        });
        self
    }

    /// The scheduled crash points in canonical firing order: all
    /// step-addressed crashes ascending, then all time-addressed crashes
    /// ascending. The checkpoint persists per-kind cursors into this
    /// order so a resumed run skips crashes that already fired.
    pub fn crash_points(&self) -> Vec<CrashPoint> {
        let mut pts: Vec<CrashPoint> = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Crash { point } => Some(point),
                _ => None,
            })
            .collect();
        pts.sort();
        pts
    }

    /// A copy with every process crash removed — what the checkpointing
    /// driver hands to the step executor, so a crash-only spec leaves the
    /// in-step simulation bit-identical to an unfaulted run.
    pub fn without_crashes(&self) -> Self {
        FaultSchedule {
            events: self
                .events
                .iter()
                .filter(|e| !matches!(e.kind, FaultKind::Crash { .. }))
                .cloned()
                .collect(),
            ..self.clone()
        }
    }

    /// Overrides the watchdog timeout.
    pub fn with_watchdog(mut self, timeout: SimTime) -> Self {
        self.watchdog_timeout = timeout;
        self
    }

    /// Overrides the retry backoff base and budget.
    pub fn with_retry(mut self, base: SimTime, max_retries: u32) -> Self {
        self.retry_base = base;
        self.max_retries = max_retries;
        self
    }

    /// A copy keeping only link-level faults (degradations and stalls).
    /// Used after an elastic replan: GPU indices shift when a GPU is
    /// removed from the topology, so GPU-addressed faults no longer name
    /// the device they were aimed at.
    pub fn link_faults_only(&self) -> Self {
        FaultSchedule {
            events: self
                .events
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        FaultKind::LinkDegrade { .. } | FaultKind::TransferStall { .. }
                    )
                })
                .cloned()
                .collect(),
            ..self.clone()
        }
    }

    /// Generates `n` random *non-fatal* faults (degradation windows,
    /// stragglers, stalls — never a GPU failure, which must be explicit)
    /// over a horizon of `horizon` on a server with `num_gpus` GPUs.
    /// Deterministic in `seed`: the same seed yields the same schedule,
    /// byte for byte.
    pub fn random(seed: u64, n: usize, num_gpus: usize, horizon: SimTime) -> Self {
        assert!(num_gpus > 0, "need at least one GPU");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = FaultSchedule::new();
        let h = horizon.as_nanos().max(1);
        for _ in 0..n {
            let at = SimTime::from_nanos(rng.gen_range(0..h));
            let dur = SimTime::from_nanos(rng.gen_range(h / 20..h / 4 + 2));
            match rng.gen_range(0u32..3) {
                0 => {
                    let rc = rng.gen_range(0..num_gpus as u64);
                    s.push(FaultEvent {
                        at,
                        kind: FaultKind::LinkDegrade {
                            link: format!("rc{rc}"),
                            factor: rng.gen_range(0.25f64..0.75),
                            until: at + dur,
                        },
                    });
                }
                1 => {
                    s.push(FaultEvent {
                        at,
                        kind: FaultKind::GpuSlowdown {
                            gpu: rng.gen_range(0..num_gpus),
                            factor: rng.gen_range(1.2f64..3.0),
                            until: at + dur,
                        },
                    });
                }
                _ => {
                    s.push(FaultEvent {
                        at,
                        kind: FaultKind::TransferStall {
                            duration: SimTime::from_nanos(dur.as_nanos() / 4 + 1),
                        },
                    });
                }
            }
        }
        s
    }

    /// Parses a comma-separated fault spec, resolving `random:<n>` clauses
    /// with `seed`, `num_gpus`, and `horizon`. Grammar (times in
    /// milliseconds):
    ///
    /// ```text
    /// degrade:<link-substr>:<factor>:<t0_ms>:<t1_ms>
    /// slow:<gpu>:<factor>:<t0_ms>:<t1_ms>
    /// stall:<t_ms>:<dur_ms>
    /// gpufail:<gpu>:<t_ms>
    /// crash:<step>
    /// crashat:<t_ms>
    /// random:<n>
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an unknown clause or a
    /// malformed field.
    pub fn parse(spec: &str, seed: u64, num_gpus: usize, horizon: SimTime) -> Result<Self, String> {
        fn ms(s: &str) -> Result<SimTime, String> {
            let v: f64 = s.parse().map_err(|_| format!("bad time `{s}` (ms)"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("bad time `{s}` (ms)"));
            }
            Ok(SimTime::from_nanos(crate::units::ms_to_ns(v) as u64))
        }
        fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
            s.parse().map_err(|_| format!("bad {what} `{s}`"))
        }
        let mut out = FaultSchedule::new();
        for clause in spec.split(',').filter(|c| !c.is_empty()) {
            let parts: Vec<&str> = clause.split(':').collect();
            match parts.as_slice() {
                ["degrade", link, factor, t0, t1] => {
                    let f: f64 = num(factor, "factor")?;
                    if !(f.is_finite() && f > 0.0) {
                        return Err(format!("degrade factor `{factor}` must be positive"));
                    }
                    let (from, until) = (ms(t0)?, ms(t1)?);
                    if until <= from {
                        return Err(format!("degrade window `{clause}` is empty"));
                    }
                    out = out.degrade_link(*link, f, from, until);
                }
                ["slow", gpu, factor, t0, t1] => {
                    let f: f64 = num(factor, "factor")?;
                    if !(f.is_finite() && f >= 1.0) {
                        return Err(format!("straggler factor `{factor}` must be >= 1"));
                    }
                    let (from, until) = (ms(t0)?, ms(t1)?);
                    if until <= from {
                        return Err(format!("straggler window `{clause}` is empty"));
                    }
                    out = out.slow_gpu(num(gpu, "gpu")?, f, from, until);
                }
                ["stall", t, dur] => out = out.stall(ms(t)?, ms(dur)?),
                ["gpufail", gpu, t] => out = out.fail_gpu(num(gpu, "gpu")?, ms(t)?),
                ["crash", step] => out = out.crash_at_step(num(step, "step")?),
                ["crashat", t] => out = out.crash_at(ms(t)?),
                ["random", n] => {
                    for ev in
                        FaultSchedule::random(seed, num(n, "count")?, num_gpus, horizon).events
                    {
                        out.push(ev);
                    }
                }
                _ => {
                    return Err(format!(
                        "unknown fault clause `{clause}` \
                         (try degrade:/slow:/stall:/gpufail:/crash:/crashat:/random:)"
                    ))
                }
            }
        }
        Ok(out)
    }
}

/// Why a faulted run could not finish. Raised by executors, surfaced to the
/// facade as `RunError::Fault`, and consumed by recovery policies (elastic
/// replan, degradation ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAbort {
    /// A GPU died mid-step; the pipeline cannot make progress on the
    /// original mapping.
    GpuFailed {
        /// The failed GPU.
        gpu: usize,
        /// When it failed.
        at: SimTime,
    },
    /// A transfer kept stalling past its retry budget (persistent link
    /// failure).
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// When the budget ran out.
        at: SimTime,
    },
}

impl std::fmt::Display for FaultAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultAbort::GpuFailed { gpu, at } => write!(f, "GPU {gpu} failed at {at}"),
            FaultAbort::RetriesExhausted { attempts, at } => {
                write!(f, "transfer abandoned after {attempts} retries at {at}")
            }
        }
    }
}

impl std::error::Error for FaultAbort {}

/// Fault/recovery accounting for one simulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Fault events that fired.
    pub injected: u64,
    /// Link-degradation windows applied.
    pub link_degrades: u64,
    /// Straggler windows applied.
    pub slowdowns: u64,
    /// Transfer stalls injected.
    pub stalls: u64,
    /// Hard GPU failures observed.
    pub gpu_failures: u64,
    /// Watchdog-triggered transfer retries.
    pub retries: u64,
    /// Transfers abandoned after exhausting the retry budget.
    pub aborted_transfers: u64,
    /// Injected process crashes honoured by the checkpointing driver.
    pub crashes: u64,
}

impl FaultStats {
    /// Accumulates another run's counters (used when a recovery policy
    /// stitches a failed attempt and its replanned continuation together).
    pub fn absorb(&mut self, other: &FaultStats) {
        self.injected += other.injected;
        self.link_degrades += other.link_degrades;
        self.slowdowns += other.slowdowns;
        self.stalls += other.stalls;
        self.gpu_failures += other.gpu_failures;
        self.retries += other.retries;
        self.aborted_transfers += other.aborted_transfers;
        self.crashes += other.crashes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_sorted() {
        let s = FaultSchedule::new()
            .stall(SimTime::from_millis(30), SimTime::from_millis(1))
            .fail_gpu(1, SimTime::from_millis(10))
            .degrade_link(
                "rc0",
                0.5,
                SimTime::from_millis(20),
                SimTime::from_millis(25),
            );
        let times: Vec<u64> = s.events().iter().map(|e| e.at.as_nanos()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }

    #[test]
    fn random_is_deterministic_in_seed() {
        let h = SimTime::from_secs(2);
        let a = FaultSchedule::random(7, 8, 4, h);
        let b = FaultSchedule::random(7, 8, 4, h);
        assert_eq!(a, b);
        let c = FaultSchedule::random(8, 8, 4, h);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn random_never_kills_gpus() {
        let s = FaultSchedule::random(3, 64, 4, SimTime::from_secs(1));
        assert!(!s
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::GpuFail { .. })));
    }

    #[test]
    fn parse_round_trips_every_clause() {
        let s = FaultSchedule::parse(
            "degrade:rc0:0.5:10:50,slow:2:2.0:0:100,stall:5:20,gpufail:1:200",
            0,
            4,
            SimTime::from_secs(1),
        )
        .unwrap();
        assert_eq!(s.events().len(), 4);
        assert!(matches!(
            s.events().last().unwrap().kind,
            FaultKind::GpuFail { gpu: 1 }
        ));
    }

    #[test]
    fn parse_rejects_bad_clauses() {
        let h = SimTime::from_secs(1);
        assert!(FaultSchedule::parse("explode:now", 0, 4, h).is_err());
        assert!(FaultSchedule::parse("degrade:rc0:-1:0:10", 0, 4, h).is_err());
        assert!(FaultSchedule::parse("degrade:rc0:0.5:10:10", 0, 4, h).is_err());
        assert!(FaultSchedule::parse("slow:0:0.5:0:10", 0, 4, h).is_err());
        assert!(FaultSchedule::parse("gpufail:x:10", 0, 4, h).is_err());
    }

    #[test]
    fn parse_random_uses_seed() {
        let h = SimTime::from_secs(1);
        let a = FaultSchedule::parse("random:5", 1, 4, h).unwrap();
        let b = FaultSchedule::parse("random:5", 1, 4, h).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 5);
    }

    #[test]
    fn link_faults_only_drops_gpu_faults() {
        let s = FaultSchedule::new()
            .fail_gpu(0, SimTime::from_millis(1))
            .slow_gpu(1, 2.0, SimTime::ZERO, SimTime::from_millis(5))
            .stall(SimTime::from_millis(2), SimTime::from_millis(1))
            .degrade_link("rc", 0.5, SimTime::ZERO, SimTime::from_millis(5));
        let l = s.link_faults_only();
        assert_eq!(l.events().len(), 2);
        assert!(l.events().iter().all(|e| matches!(
            e.kind,
            FaultKind::LinkDegrade { .. } | FaultKind::TransferStall { .. }
        )));
    }

    #[test]
    fn crash_points_fire_in_canonical_order() {
        let s = FaultSchedule::new()
            .crash_at(SimTime::from_millis(50))
            .crash_at_step(7)
            .crash_at_step(2)
            .crash_at(SimTime::from_millis(10));
        assert!(!s.crash_points().is_empty());
        assert_eq!(
            s.crash_points(),
            vec![
                CrashPoint::Step(2),
                CrashPoint::Step(7),
                CrashPoint::Time(SimTime::from_millis(10)),
                CrashPoint::Time(SimTime::from_millis(50)),
            ]
        );
    }

    #[test]
    fn without_crashes_strips_only_crashes() {
        let s = FaultSchedule::new()
            .crash_at_step(3)
            .stall(SimTime::from_millis(2), SimTime::from_millis(1))
            .fail_gpu(1, SimTime::from_millis(4));
        let stripped = s.without_crashes();
        assert!(stripped.crash_points().is_empty());
        assert_eq!(stripped.events().len(), 2);
        assert_eq!(stripped.watchdog_timeout, s.watchdog_timeout);
    }

    #[test]
    fn parse_accepts_crash_clauses() {
        let h = SimTime::from_secs(1);
        let s = FaultSchedule::parse("crash:4,crashat:12.5", 0, 4, h).unwrap();
        assert_eq!(
            s.crash_points(),
            vec![
                CrashPoint::Step(4),
                CrashPoint::Time(SimTime::from_nanos(12_500_000)),
            ]
        );
        assert!(FaultSchedule::parse("crash:x", 0, 4, h).is_err());
        assert!(FaultSchedule::parse("crashat:-1", 0, 4, h).is_err());
    }

    #[test]
    fn stats_absorb_sums() {
        let mut a = FaultStats {
            injected: 1,
            retries: 2,
            ..FaultStats::default()
        };
        let b = FaultStats {
            injected: 3,
            gpu_failures: 1,
            ..FaultStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.injected, 4);
        assert_eq!(a.retries, 2);
        assert_eq!(a.gpu_failures, 1);
    }
}
