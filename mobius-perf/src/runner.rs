//! The measurement loop every workload shares: repeated set-up, a closed
//! loop of one client timing each op from outside, a reference check of
//! every op's output, and the traced twin run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mobius::obs::WallTimer;
use mobius::sim::units::secs_to_ms;

use crate::calibrate::{self, Calibrator};
use crate::metrics::{self, Metric};
use crate::reference::{Observed, Reference};
use crate::stats::{median, peak_rss_mib, percentile};
use crate::tracer::Tracer;

/// Set-up runs this many times per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// A timed run keeps going past `--seconds` until it has this many
/// samples, so `latency_p90_ms` always has ten samples beyond it.
pub const MIN_TIMED_OPS: usize = 100;

/// One benchmark workload. An op is an index the workload resolves to one
/// call of a public entry point; ops come in rounds whose order the seed
/// decides.
pub trait Workload: Sized {
    /// Workload name as given to `--workload`.
    const NAME: &'static str;
    /// Rounds the traced run measures, untraced and then traced. Fixed, so
    /// two traced runs of one seed do identical work and count identical
    /// work counters.
    const TRACE_ROUNDS: usize;
    /// What an op returns; observed after its timer stops.
    type Out;

    /// Builds the seeded inputs. `traced` attaches observers that must be
    /// in place before the first op (the serve loop's `Obs`).
    fn setup(seed: u64, traced: bool) -> Result<Self, String>;
    /// Ops run untimed after set-up, before the first timed op (every case
    /// once, so caches fill and lazy set-up finishes); `smoke` shortens
    /// them for `--ops` runs.
    fn warm_up_ops(&mut self, smoke: bool) -> Vec<usize>;
    /// The case an op runs, for messages and tests.
    fn label(&self, op: usize) -> String;
    /// The next round of ops, in this seed's order.
    fn next_round(&mut self) -> Vec<usize>;
    /// Runs one op through the public facade.
    fn run(&mut self, op: usize) -> Result<Self::Out, String>;
    /// Runs one op with a span around each layer call.
    fn run_traced(&mut self, op: usize, t: &mut Tracer) -> Result<Self::Out, String>;
    /// Reads an op's work counters where attaching an `Obs` would slow
    /// the traced call itself: runs after the op, outside its spans and
    /// its timer.
    fn count_work(&mut self, _op: usize, _t: &mut Tracer) -> Result<(), String> {
        Ok(())
    }
    /// Turns an op's output into its reference observation (untimed).
    fn observe(&mut self, op: usize, out: Self::Out) -> Result<Observed, String>;
    /// One observation per case, for `--bless`: by default those of the
    /// warm-up ops, which visit every case once.
    fn bless(&mut self) -> Result<Vec<Observed>, String> {
        self.warm_up_ops(false)
            .into_iter()
            .map(|op| {
                let out = self.run(op)?;
                self.observe(op, out)
            })
            .collect()
    }
}

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Wall seconds the untraced run measures for.
    pub seconds: f64,
    /// Run the per-layer traced run instead of the end-to-end one.
    pub trace: bool,
    /// Smoke mode: stop after this many timed ops and set up once.
    pub ops: Option<usize>,
}

/// What one run measured.
pub struct Outcome {
    /// Every metric of the run, in report order.
    pub metrics: Vec<Metric>,
    /// Ops attempted, warm-up ops included.
    pub attempted: u64,
    /// Ops that errored, panicked or mismatched their reference.
    pub failed: u64,
    /// Extra human-readable lines (sample counts, tail percentiles, layer
    /// shares).
    pub notes: Vec<String>,
    /// The traced run's recorder.
    pub tracer: Option<Tracer>,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<W: Workload>(&mut self, w: &W, op: usize, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = verdict {
            self.failed += 1;
            eprintln!(
                "mobius-perf: {} op `{}` failed: {msg}",
                W::NAME,
                w.label(op)
            );
        }
    }
}

enum Stop {
    Time(f64),
    Rounds(usize),
    Ops(usize),
}

/// One pass's op wall times, each with the speed factor of its round.
struct Pass {
    raw_ms: Vec<f64>,
    factor: Vec<f64>,
}

impl Pass {
    /// Op times scaled to the reference host's speed.
    fn scaled_ms(&self) -> Vec<f64> {
        self.raw_ms
            .iter()
            .zip(&self.factor)
            .map(|(t, f)| t * f)
            .collect()
    }
}

/// Closed loop, one client: ops per second of time spent in ops.
fn throughput(ms: &[f64]) -> f64 {
    ms.len() as f64 * 1e3 / ms.iter().sum::<f64>()
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Runs `workload` under `settings`, checking every op against
/// `reference`.
pub fn run<W: Workload>(settings: &Settings, reference: &Reference) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut calibrator = Calibrator::default();
    let repeats = if settings.ops.is_some() {
        1
    } else {
        SETUP_REPEATS
    };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut setup_scaled = Vec::with_capacity(repeats);
    let mut w = None;
    for _ in 0..repeats {
        let factor = calibrator.speed_factor();
        let timer = WallTimer::start();
        w = Some(set_up::<W>(settings, false, reference, &mut tally)?);
        let secs = timer.elapsed().secs();
        setup_s.push(secs);
        setup_scaled.push(secs * factor);
    }
    let mut w = w.ok_or("no set-up ran")?;

    if !settings.trace {
        let stop = settings.ops.map_or(Stop::Time(settings.seconds), Stop::Ops);
        let pass = measure(&mut w, reference, None, stop, &mut tally, &mut calibrator);
        let scaled = sorted(pass.scaled_ms());
        let raw = sorted(pass.raw_ms.clone());
        let mut notes = vec![
            format!("timed ops: {}", raw.len()),
            format!(
                "host speed factor: median {:.4} (kernel reference {} ms)",
                median(&pass.factor),
                calibrate::REFERENCE_KERNEL_MS
            ),
            format!(
                "unscaled wall clock: setup_s {:.4}, throughput_ops_s {:.4}, latency_p50_ms {:.4}",
                median(&setup_s),
                throughput(&raw),
                median(&raw)
            ),
        ];
        if let Some(p99) = percentile(&scaled, 990) {
            notes.push(format!("latency_p99_ms: {p99:.4} ms"));
        }
        let metrics = metrics::end_to_end(
            median(&setup_scaled),
            throughput(&scaled),
            percentile(&scaled, 500),
            percentile(&scaled, 900),
            peak_rss_mib()?,
        );
        return Ok(Outcome {
            metrics,
            attempted: tally.attempted,
            failed: tally.failed,
            notes,
            tracer: None,
        });
    }

    let stop = || {
        settings
            .ops
            .map_or(Stop::Rounds(W::TRACE_ROUNDS), Stop::Ops)
    };
    let plain = measure(&mut w, reference, None, stop(), &mut tally, &mut calibrator);
    let mut w = set_up::<W>(settings, true, reference, &mut tally)?;
    let mut tracer = Tracer::default();
    let traced = measure(
        &mut w,
        reference,
        Some(&mut tracer),
        stop(),
        &mut tally,
        &mut calibrator,
    );
    let overhead = 1.0 - throughput(&traced.scaled_ms()) / throughput(&plain.scaled_ms());
    Ok(Outcome {
        metrics: metrics::per_layer(&tracer, overhead),
        attempted: tally.attempted,
        failed: tally.failed,
        notes: metrics::layer_shares(&tracer),
        tracer: Some(tracer),
    })
}

/// Runs every case of `W` once and returns its observations.
pub fn bless<W: Workload>(seed: u64) -> Result<Vec<Observed>, String> {
    W::setup(seed, false)?.bless()
}

fn set_up<W: Workload>(
    settings: &Settings,
    traced: bool,
    reference: &Reference,
    tally: &mut Tally,
) -> Result<W, String> {
    let mut w = W::setup(settings.seed, traced)?;
    for op in w.warm_up_ops(settings.ops.is_some()) {
        let result = catch_unwind(AssertUnwindSafe(|| w.run(op)));
        let verdict = verify(&mut w, reference, op, result);
        tally.record(&w, op, verdict);
    }
    Ok(w)
}

fn measure<W: Workload>(
    w: &mut W,
    reference: &Reference,
    mut tracer: Option<&mut Tracer>,
    stop: Stop,
    tally: &mut Tally,
    calibrator: &mut Calibrator,
) -> Pass {
    let clock = WallTimer::start();
    let mut pass = Pass {
        raw_ms: Vec::new(),
        factor: Vec::new(),
    };
    let mut rounds = 0;
    loop {
        let ops = w.next_round();
        let factor = calibrator.speed_factor();
        for op in ops {
            let timer = WallTimer::start();
            let result = catch_unwind(AssertUnwindSafe(|| match tracer.as_deref_mut() {
                Some(t) => t.op(|t| w.run_traced(op, t)),
                None => w.run(op),
            }));
            pass.raw_ms.push(secs_to_ms(timer.elapsed().secs()));
            pass.factor.push(factor);
            if result.is_err() {
                if let Some(t) = tracer.as_deref_mut() {
                    t.close_abandoned();
                }
            }
            let mut verdict = verify(w, reference, op, result);
            if let Some(t) = tracer.as_deref_mut() {
                verdict = verdict.and_then(|()| w.count_work(op, t));
            }
            tally.record(&*w, op, verdict);
            if matches!(stop, Stop::Ops(n) if pass.raw_ms.len() >= n) {
                break;
            }
        }
        rounds += 1;
        let done = match stop {
            Stop::Time(secs) => {
                clock.elapsed().secs() >= secs && pass.raw_ms.len() >= MIN_TIMED_OPS
            }
            Stop::Rounds(n) => rounds >= n,
            Stop::Ops(n) => pass.raw_ms.len() >= n,
        };
        if done {
            return pass;
        }
    }
}

fn verify<W: Workload>(
    w: &mut W,
    reference: &Reference,
    op: usize,
    result: std::thread::Result<Result<W::Out, String>>,
) -> Result<(), String> {
    let out = match result {
        Ok(out) => out?,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            return Err(format!("panicked: {msg}"));
        }
    };
    reference.check(&w.observe(op, out)?)
}
