//! The checkpointed multi-step driver: crash-consistent execution above
//! [`FineTuner::run_step`].
//!
//! One invocation runs steps `[start, steps)` of a run, buffering each
//! step's trace/metrics/analysis chunk and flushing the buffers to the
//! output files only when a checkpoint *commits*. A process crash
//! therefore loses exactly the uncommitted tail — and because every step
//! is simulated from the same committed state, a crashed-and-resumed run
//! produces **byte-identical** concatenated output to an uninterrupted
//! one. That identity is the subsystem's acceptance test, enforced by
//! `verify.sh`.
//!
//! The pieces:
//!
//! * [`CheckpointOpts`] — cadence (`--checkpoint-every`), rotation depth,
//!   checkpoint directory, resume directory, and the negative-test
//!   `--crash-corrupt` switch.
//! * [`RunSinks`] — where per-step chunks go. Each chunk is one
//!   newline-terminated JSON document; concatenating a crashed segment's
//!   file with its resume's file reproduces the reference file.
//! * [`run_checkpointed`] — the driver. Honours `crash:<step>` /
//!   `crashat:<t_ms>` events from the attached [`FaultSchedule`]
//!   (stripping them before handing the schedule to the executor, so a
//!   crash-only spec leaves in-step timings untouched) and returns
//!   [`RunOutcome::Crashed`] instead of exiting, leaving process exit to
//!   the CLI.
//!
//! **Plan once.** An invocation solves the Mobius plan once, at its first
//! executed step, and runs every step on it; the first commit's partition
//! capture reads the same plan ([`RunSummary::plan_solves`] counts the
//! solve). The solve records into a private observer, and that record
//! (solver-lane incumbent marks, `mip.*` counters and gauges, the
//! `mapping.decision` mark) is replayed into each step's fresh observer
//! where [`FineTuner::run_step`] would have recorded it — `run_step`
//! itself goes through the same solve-then-replay path. Each chunk thus
//! stays a function of the configuration, the committed state and the
//! step index. A replan after a GPU loss or an OOM still solves inside
//! its step. A resumed invocation solves again; the search's fixed node
//! budget makes that solve, its record and the resumed chunks the same as
//! the uninterrupted run's.
//!
//! Resuming onto a *different* topology (a GPU lost across the crash)
//! routes the committed partition through [`FineTuner::warm_start`], so
//! the first replanned step reuses the elastic-replan machinery instead
//! of solving cold.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use mobius_ckpt::{
    corrupt_newest, flow, load_latest, write_checkpoint, CkptError, CorruptMode, RunState,
};
use mobius_obs::Obs;
use mobius_sim::CrashPoint;

use crate::finetuner::SolvedPlan;
use crate::{FineTuner, RunError, StepReport};

/// Driver options for a checkpointed multi-step run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointOpts {
    /// Total steps of the run (global count, not per invocation).
    pub steps: u64,
    /// Commit a checkpoint every `every` steps; `0` commits only at run
    /// completion.
    pub every: u64,
    /// Keep-last-k rotation depth of the checkpoint directory.
    pub keep: usize,
    /// Where checkpoints are written; `None` simulates checkpoint cost
    /// (when `every > 0`) without persisting anything.
    pub dir: Option<PathBuf>,
    /// Resume from the newest valid checkpoint in this directory.
    pub resume: Option<PathBuf>,
    /// On an injected crash, deliberately corrupt the checkpoint written
    /// by the dying process (negative testing: the resume must detect it
    /// and fall back).
    pub crash_corrupt: bool,
}

impl Default for CheckpointOpts {
    fn default() -> Self {
        CheckpointOpts {
            steps: 1,
            every: 0,
            keep: mobius_ckpt::DEFAULT_KEEP,
            dir: None,
            resume: None,
            crash_corrupt: false,
        }
    }
}

/// Per-step output files of a checkpointed run. Each active sink receives
/// one newline-terminated JSON document per step, flushed on commit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSinks {
    /// Chrome trace documents (one per step).
    pub trace_out: Option<PathBuf>,
    /// Metrics JSON objects (one per step).
    pub metrics_out: Option<PathBuf>,
    /// Critical-path analysis JSON objects (one per step).
    pub analyze_out: Option<PathBuf>,
}

impl RunSinks {
    fn any(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.analyze_out.is_some()
    }
}

/// Why a checkpointed run could not proceed.
#[derive(Debug)]
pub enum CkptRunError {
    /// A simulated step failed (OOM, schedule, unrecovered fault).
    Run(RunError),
    /// A checkpoint could not be read or written.
    Ckpt(CkptError),
    /// An output sink could not be written.
    Sink {
        /// The file involved.
        path: PathBuf,
        /// The OS error, stringified.
        msg: String,
    },
    /// The run produced no analyzable DAG for `--analyze-out`.
    Analyze(String),
}

impl std::fmt::Display for CkptRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptRunError::Run(e) => write!(f, "{e}"),
            CkptRunError::Ckpt(e) => write!(f, "{e}"),
            CkptRunError::Sink { path, msg } => write!(f, "{}: {msg}", path.display()),
            CkptRunError::Analyze(msg) => write!(f, "analysis failed: {msg}"),
        }
    }
}

impl std::error::Error for CkptRunError {}

/// What one driver invocation did.
#[derive(Debug)]
pub struct RunSummary {
    /// The global step this invocation started at (0, or the resumed
    /// checkpoint's committed step).
    pub start_step: u64,
    /// The committed state at exit.
    pub state: RunState,
    /// The last executed step's report, when any step ran.
    pub last_report: Option<StepReport>,
    /// Checkpoints persisted by this invocation (crash write included).
    pub ckpt_writes: u64,
    /// Simulated checkpoint write time added to the run, ns.
    pub ckpt_overhead_ns: u64,
    /// The checkpoint file this invocation resumed from, when resuming.
    pub resumed_from: Option<PathBuf>,
    /// Corrupt checkpoint files skipped during resume fallback, with why.
    pub fallbacks: Vec<(PathBuf, CkptError)>,
    /// Mobius plans this invocation solved for its steps: 1 once a Mobius
    /// step has run, else 0. Replans inside a step after a GPU loss or an
    /// OOM are not counted.
    pub plan_solves: u64,
}

/// The outcome of one driver invocation.
#[derive(Debug)]
pub enum RunOutcome {
    /// All `steps` steps are committed.
    Completed(RunSummary),
    /// An injected crash fired; the process should exit with the crash
    /// exit code after reporting.
    Crashed {
        /// Where the crash fired.
        at: CrashPoint,
        /// Steps executed since the last commit and lost to the crash.
        lost_steps: u64,
        /// The checkpoint the dying process persisted, when a directory
        /// was configured (possibly corrupted under `crash_corrupt`).
        ckpt_path: Option<PathBuf>,
        /// Accounting up to the crash.
        summary: RunSummary,
    },
}

/// One buffered output sink: the file is truncated up front, chunks
/// append on commit.
struct Sink {
    path: PathBuf,
    buf: String,
}

impl Sink {
    fn create(path: &Path) -> Result<Sink, CkptRunError> {
        std::fs::write(path, "").map_err(|e| CkptRunError::Sink {
            path: path.to_path_buf(),
            msg: e.to_string(),
        })?;
        Ok(Sink {
            path: path.to_path_buf(),
            buf: String::new(),
        })
    }

    fn push(&mut self, doc: &str) {
        self.buf.push_str(doc);
        self.buf.push('\n');
    }

    fn flush(&mut self) -> Result<(), CkptRunError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| CkptRunError::Sink {
                path: self.path.clone(),
                msg: e.to_string(),
            })?;
        f.write_all(self.buf.as_bytes())
            .map_err(|e| CkptRunError::Sink {
                path: self.path.clone(),
                msg: e.to_string(),
            })?;
        self.buf.clear();
        Ok(())
    }
}

/// Runs steps `[committed, opts.steps)` of `base`'s run with checkpoint
/// commits, crash injection, and per-step chunked output.
///
/// `base` carries the run configuration (model, topology, system, fault
/// schedule — crash clauses included). It should carry **no observer**:
/// the driver attaches a fresh [`Obs`] per step when `sinks` are active,
/// which is what keeps per-step chunks identical across crash/resume
/// segments.
///
/// # Errors
///
/// [`CkptRunError::Run`] when a step fails, [`CkptRunError::Ckpt`] when a
/// checkpoint cannot be read/written (including a resume directory with
/// no valid checkpoint), [`CkptRunError::Sink`]/[`CkptRunError::Analyze`]
/// for output failures. An injected crash is **not** an error — it
/// returns [`RunOutcome::Crashed`].
pub fn run_checkpointed(
    base: &FineTuner,
    opts: &CheckpointOpts,
    sinks: &RunSinks,
) -> Result<RunOutcome, CkptRunError> {
    let fingerprint = base.config_fingerprint();
    let topo_name = base.topo_ref().name();

    // Restore or initialize the committed state.
    let mut resumed_from = None;
    let mut fallbacks = Vec::new();
    let mut state = match &opts.resume {
        Some(dir) => {
            let loaded = load_latest(dir, Some(fingerprint)).map_err(CkptRunError::Ckpt)?;
            resumed_from = Some(loaded.path);
            fallbacks = loaded.skipped;
            loaded.state
        }
        None => RunState::fresh(fingerprint, topo_name.clone()),
    };
    let start_step = state.step;

    // Resuming onto a different topology: seed the elastic replan with
    // the committed partition (warm start) instead of solving cold.
    let mut base = base.clone();
    if state.topo != topo_name && !state.partition.is_empty() {
        let sizes: Vec<usize> = state.partition.iter().map(|&s| s as usize).collect();
        base = base.warm_start(sizes);
        state.topo = topo_name;
    }

    // Crash events are the driver's; the executor gets the rest.
    let schedule = base.faults_cloned();
    let crashes = schedule.crash_points();
    let step_crashes: Vec<u64> = crashes
        .iter()
        .filter_map(|p| match p {
            CrashPoint::Step(k) => Some(*k),
            CrashPoint::Time(_) => None,
        })
        .collect();
    let time_crashes: Vec<u64> = crashes
        .iter()
        .filter_map(|p| match p {
            CrashPoint::Time(t) => Some(t.as_nanos()),
            CrashPoint::Step(_) => None,
        })
        .collect();
    let template = base.clone().faults(schedule.without_crashes());

    let mut trace_sink = opts_sink(&sinks.trace_out)?;
    let mut metrics_sink = opts_sink(&sinks.metrics_out)?;
    let mut analyze_sink = opts_sink(&sinks.analyze_out)?;

    let ckpting = opts.dir.is_some() || opts.every > 0;
    let mut summary = RunSummary {
        start_step,
        state: state.clone(),
        last_report: None,
        ckpt_writes: 0,
        ckpt_overhead_ns: 0,
        resumed_from,
        fallbacks,
        plan_solves: 0,
    };

    // Persists the dying process's checkpoint and assembles the crash
    // outcome (shared by both crash kinds).
    let crash = |at: CrashPoint,
                 lost: u64,
                 state: &mut RunState,
                 summary: &mut RunSummary|
     -> Result<RunOutcome, CkptRunError> {
        state.faults.crashes += 1;
        let mut ckpt_path = None;
        if let Some(dir) = &opts.dir {
            state.seq += 1;
            let path = write_checkpoint(dir, state, opts.keep).map_err(CkptRunError::Ckpt)?;
            summary.ckpt_writes += 1;
            ckpt_path = Some(if opts.crash_corrupt {
                corrupt_newest(dir, CorruptMode::Truncate).map_err(CkptRunError::Ckpt)?
            } else {
                path
            });
        }
        summary.state = state.clone();
        Ok(RunOutcome::Crashed {
            at,
            lost_steps: lost,
            ckpt_path,
            summary: std::mem::replace(summary, empty_summary(start_step, state)),
        })
    };

    // Work since the last commit stays out of `state` until it commits:
    // the checkpoint a dying process persists must describe only
    // committed work, or the resume would double-count the lost tail.
    let mut pending_ns = 0u64;
    let mut pending_price = 0.0f64;
    let mut pending_traffic = 0.0f64;
    let mut pending_faults = mobius_sim::FaultStats::default();
    // The plan every step runs on, solved at the first executed step.
    let mut planned: Option<Option<SolvedPlan>> = None;

    for s in state.step..opts.steps {
        // Step-addressed crash: fires before executing step s. Stale
        // entries (already behind the committed step) are consumed.
        while (state.crash_step_cursor as usize) < step_crashes.len()
            && step_crashes[state.crash_step_cursor as usize] < s
        {
            state.crash_step_cursor += 1;
        }
        if let Some(&k) = step_crashes.get(state.crash_step_cursor as usize) {
            if k == s {
                state.crash_step_cursor += 1;
                let lost = s - state.step;
                return crash(CrashPoint::Step(k), lost, &mut state, &mut summary);
            }
        }
        while (state.crash_ns_cursor as usize) < time_crashes.len()
            && time_crashes[state.crash_ns_cursor as usize] < state.cum_ns + pending_ns
        {
            state.crash_ns_cursor += 1;
        }

        // Execute the step with a fresh observer when output is wanted.
        let obs = sinks.any().then(Obs::new);
        let tuner = match &obs {
            Some(o) => template.clone().observe(o.clone()),
            None => template.clone(),
        };
        let step_plan = planned.get_or_insert_with(|| {
            let solved = template.solve_step_plan();
            summary.plan_solves += u64::from(solved.is_some());
            solved
        });
        let rep = tuner
            .run_step_with(step_plan.as_ref())
            .map_err(CkptRunError::Run)?;

        // Commit bookkeeping happens before emission so the checkpoint
        // write's simulated cost lands inside this step's trace chunk.
        let committed = s + 1;
        let do_commit = (opts.every > 0 && committed % opts.every == 0) || committed == opts.steps;
        let ckpt_ns = if do_commit && ckpting {
            let bytes = flow::ckpt_bytes(rep.model_size_bytes);
            let dur = flow::simulate_ckpt_write(bytes, template.topo_ref().ssd_gbps());
            if let Some(o) = &obs {
                flow::record_ckpt_write(o, s, bytes, dur);
            }
            dur.as_nanos()
        } else {
            0
        };
        let advance = rep.step_time.as_nanos() + ckpt_ns;

        // Time-addressed crash: the step containing the instant is lost —
        // it finished simulating but is never committed or emitted.
        if let Some(&t) = time_crashes.get(state.crash_ns_cursor as usize) {
            if t < state.cum_ns + pending_ns + advance {
                state.crash_ns_cursor += 1;
                let lost = committed - state.step;
                return crash(
                    CrashPoint::Time(mobius_sim::SimTime::from_nanos(t)),
                    lost,
                    &mut state,
                    &mut summary,
                );
            }
        }

        // Emit this step's chunks (buffered until the next commit).
        if let Some(sink) = &mut trace_sink {
            // `obs` is always present when any sink is.
            if let Some(o) = &obs {
                sink.push(&o.chrome_trace_json());
            }
        }
        if let Some(sink) = &mut metrics_sink {
            if let Some(o) = &obs {
                sink.push(&o.metrics_json());
            }
        }
        if let Some(sink) = &mut analyze_sink {
            if let Some(o) = &obs {
                let analysis = o
                    .analyze()
                    .map_err(|e| CkptRunError::Analyze(e.to_string()))?;
                sink.push(&analysis.to_json());
            }
        }

        // Accumulate pending (not yet committed) work.
        pending_ns += advance;
        pending_price += rep.price_usd;
        pending_traffic += rep.traffic_total();
        pending_faults.absorb(&rep.faults);
        summary.ckpt_overhead_ns += ckpt_ns;
        summary.last_report = Some(rep);

        if do_commit {
            state.step = committed;
            state.cum_ns += pending_ns;
            state.price_usd += pending_price;
            state.traffic_bytes += pending_traffic;
            state.faults.absorb(&pending_faults);
            pending_ns = 0;
            pending_price = 0.0;
            pending_traffic = 0.0;
            pending_faults = mobius_sim::FaultStats::default();
            if ckpting && state.partition.is_empty() {
                // Capture the committed partition once, from the plan the
                // steps ran on.
                if let Some(SolvedPlan { plan: Ok(plan), .. }) = step_plan {
                    state.partition = plan.partition.sizes().iter().map(|&s| s as u64).collect();
                }
            }
            if let Some(dir) = &opts.dir {
                state.seq += 1;
                write_checkpoint(dir, &state, opts.keep).map_err(CkptRunError::Ckpt)?;
                summary.ckpt_writes += 1;
            }
            for sink in [&mut trace_sink, &mut metrics_sink, &mut analyze_sink]
                .into_iter()
                .flatten()
            {
                sink.flush()?;
            }
        }
    }

    summary.state = state;
    Ok(RunOutcome::Completed(summary))
}

fn opts_sink(path: &Option<PathBuf>) -> Result<Option<Sink>, CkptRunError> {
    path.as_ref().map(|p| Sink::create(p)).transpose()
}

fn empty_summary(start_step: u64, state: &RunState) -> RunSummary {
    RunSummary {
        start_step,
        state: state.clone(),
        last_report: None,
        ckpt_writes: 0,
        ckpt_overhead_ns: 0,
        resumed_from: None,
        fallbacks: Vec::new(),
        plan_solves: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobius_model::GptConfig;
    use mobius_pipeline::PartitionAlgo;
    use mobius_sim::FaultSchedule;

    fn tuner() -> FineTuner {
        // MinStage keeps planning deterministic and fast in unit tests.
        FineTuner::new(GptConfig::gpt2_small()).partition_algo(PartitionAlgo::MinStage)
    }

    #[test]
    fn completes_and_accumulates_deterministically() {
        let opts = CheckpointOpts {
            steps: 3,
            every: 2,
            ..CheckpointOpts::default()
        };
        let run = |out: Result<RunOutcome, CkptRunError>| match out.unwrap() {
            RunOutcome::Completed(s) => s,
            RunOutcome::Crashed { .. } => panic!("no crash scheduled"),
        };
        let a = run(run_checkpointed(&tuner(), &opts, &RunSinks::default()));
        let b = run(run_checkpointed(&tuner(), &opts, &RunSinks::default()));
        assert_eq!(a.state, b.state);
        assert_eq!(a.state.step, 3);
        // Commits at steps 2 (cadence) and 3 (final): two simulated
        // checkpoint writes, nothing persisted (no dir).
        assert_eq!(a.ckpt_writes, 0);
        assert!(a.ckpt_overhead_ns > 0);
        assert!(a.state.cum_ns > a.ckpt_overhead_ns);
    }

    #[test]
    fn step_crash_reports_lost_work_and_persists_nothing_without_dir() {
        let opts = CheckpointOpts {
            steps: 6,
            every: 2,
            ..CheckpointOpts::default()
        };
        let t = tuner().faults(FaultSchedule::new().crash_at_step(5));
        match run_checkpointed(&t, &opts, &RunSinks::default()).unwrap() {
            RunOutcome::Crashed {
                at,
                lost_steps,
                ckpt_path,
                summary,
            } => {
                assert_eq!(at, CrashPoint::Step(5));
                // Committed through step 4; step 4 (index) executed and lost.
                assert_eq!(summary.state.step, 4);
                assert_eq!(lost_steps, 1);
                assert_eq!(ckpt_path, None);
                assert_eq!(summary.state.faults.crashes, 1);
            }
            RunOutcome::Completed(_) => panic!("crash must fire"),
        }
    }

    #[test]
    fn crash_resume_matches_uninterrupted_state() {
        let dir = std::env::temp_dir().join(format!("mobius-ckpt-core-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = CheckpointOpts {
            steps: 5,
            every: 2,
            dir: Some(dir.clone()),
            ..CheckpointOpts::default()
        };

        // Reference: uninterrupted.
        let ref_dir = dir.join("ref");
        let ref_opts = CheckpointOpts {
            dir: Some(ref_dir.clone()),
            ..opts.clone()
        };
        let reference = match run_checkpointed(&tuner(), &ref_opts, &RunSinks::default()).unwrap() {
            RunOutcome::Completed(s) => s,
            RunOutcome::Crashed { .. } => panic!("no crash scheduled"),
        };

        // Crash before step 3, then resume to completion.
        let crash_dir = dir.join("crash");
        let crash_opts = CheckpointOpts {
            dir: Some(crash_dir.clone()),
            ..opts.clone()
        };
        let t = tuner().faults(FaultSchedule::new().crash_at_step(3));
        match run_checkpointed(&t, &crash_opts, &RunSinks::default()).unwrap() {
            RunOutcome::Crashed { at, summary, .. } => {
                assert_eq!(at, CrashPoint::Step(3));
                assert_eq!(summary.state.step, 2);
            }
            RunOutcome::Completed(_) => panic!("crash must fire"),
        }
        let resume_opts = CheckpointOpts {
            dir: Some(crash_dir.clone()),
            resume: Some(crash_dir.clone()),
            ..opts.clone()
        };
        let resumed = match run_checkpointed(&t, &resume_opts, &RunSinks::default()).unwrap() {
            RunOutcome::Completed(s) => s,
            RunOutcome::Crashed { at, .. } => panic!("crash {at} must not re-fire"),
        };
        assert_eq!(resumed.start_step, 2);

        // The committed end state matches the uninterrupted run except
        // for bookkeeping that records the crash itself.
        let mut got = resumed.state.clone();
        assert_eq!(got.faults.crashes, 1);
        got.faults.crashes = 0;
        got.crash_step_cursor = 0;
        assert_eq!(got.seq, reference.state.seq + 1, "one extra dying write");
        got.seq = reference.state.seq;
        assert_eq!(got, reference.state);

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
