//! Schedule validation against the paper's MIP constraints.
//!
//! [`ScheduleValidator`] re-checks an [`AnalyticSchedule`] against an
//! *independent transcription* of constraints (4)–(11) from the Mobius
//! paper. It deliberately does not share code with
//! [`evaluate_analytic`](crate::evaluate_analytic): the evaluator computes
//! start times constructively (as running maxima), while the validator
//! re-states each constraint as an inequality over the finished timetable.
//! A bug in the evaluator's recurrence therefore cannot validate itself.
//!
//! The validator runs automatically when
//! [`PipelineConfig::strict_validation`](crate::PipelineConfig) is set, and
//! is available directly for tests that corrupt schedules on purpose.

use std::error::Error;
use std::fmt;

use mobius_mapping::Mapping;
use mobius_sim::SimTime;

use crate::{AnalyticSchedule, MemoryMode, PipelineConfig, StageCosts};

/// Acceptable ratio band for the executor-vs-analytic differential check:
/// `simulated / analytic` of an *uncontended* pipeline must fall in
/// `[0.7, 1.6)`. The executor models per-load swap overheads, activation
/// hop staging, and ns-quantized flow completions that the closed-form
/// evaluator idealizes, so exact equality is not expected; a ratio outside
/// this band means one of the two models lost a constraint entirely.
pub const DIFFERENTIAL_RATIO_BAND: (f64, f64) = (0.7, 1.6);

/// A constraint of the paper's formulation that a schedule violates.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleViolation {
    /// The schedule's start-time tables do not match the stage count and
    /// microbatch count they claim to describe.
    ShapeMismatch {
        /// What was malformed.
        detail: String,
    },
    /// A stage needs more resident bytes than the GPU has (constraint 4).
    MemoryOverCapacity {
        /// Offending stage.
        stage: usize,
        /// Peak resident bytes across its forward and backward phases.
        required: u64,
        /// GPU capacity in bytes.
        capacity: u64,
    },
    /// Microbatches of one stage overlap on their GPU (constraint 10).
    MicrobatchOverlap {
        /// Offending stage.
        stage: usize,
        /// Microbatch that started too early.
        microbatch: usize,
        /// `true` for the forward pass, `false` for backward.
        forward: bool,
    },
    /// A stage consumed an activation (or activation gradient) before the
    /// producing stage finished it (constraint 8).
    DependencyOrder {
        /// Consuming stage.
        stage: usize,
        /// Microbatch.
        microbatch: usize,
        /// `true` for the forward pass, `false` for backward.
        forward: bool,
        /// Earliest legal start.
        earliest: SimTime,
        /// Actual scheduled start.
        actual: SimTime,
    },
    /// Backward work began before every forward microbatch of the last
    /// stage finished (constraint 11).
    BarrierViolated {
        /// When the last stage's forward pass drains.
        forward_done: SimTime,
        /// When backward work first starts.
        backward_start: SimTime,
    },
    /// A stage started before its parameters (and checkpointed inputs)
    /// could physically arrive: the prefetch window of the preceding slot
    /// plus the blocking residual upload do not cover the load
    /// (constraints 5, 6, 9).
    PrefetchWindow {
        /// Offending stage.
        stage: usize,
        /// `true` for the forward pass, `false` for backward.
        forward: bool,
        /// Earliest start the load permits.
        earliest: SimTime,
        /// Actual scheduled start.
        actual: SimTime,
    },
    /// `step_time` is not the completion of the last backward microbatch.
    StepTimeMismatch {
        /// Completion of the last backward microbatch.
        expected: SimTime,
        /// The schedule's claimed makespan.
        actual: SimTime,
    },
    /// The event-driven executor and the analytic evaluator disagree by
    /// more than [`DIFFERENTIAL_RATIO_BAND`] on an uncontended pipeline.
    DifferentialMismatch {
        /// Analytic step time.
        analytic: SimTime,
        /// Simulated step time.
        simulated: SimTime,
        /// `simulated / analytic`.
        ratio: f64,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ScheduleViolation as V;
        match self {
            V::ShapeMismatch { detail } => write!(f, "schedule shape mismatch: {detail}"),
            V::MemoryOverCapacity {
                stage,
                required,
                capacity,
            } => write!(
                f,
                "stage {stage} needs {required} B resident but the GPU has {capacity} B \
                 (constraint 4)"
            ),
            V::MicrobatchOverlap {
                stage,
                microbatch,
                forward,
            } => write!(
                f,
                "{} microbatch {microbatch} of stage {stage} starts before its predecessor \
                 finishes (constraint 10)",
                if *forward { "forward" } else { "backward" },
            ),
            V::DependencyOrder {
                stage,
                microbatch,
                forward,
                earliest,
                actual,
            } => write!(
                f,
                "{} microbatch {microbatch} of stage {stage} starts at {actual:?} before its \
                 activation dependency allows ({earliest:?}; constraint 8)",
                if *forward { "forward" } else { "backward" },
            ),
            V::BarrierViolated {
                forward_done,
                backward_start,
            } => write!(
                f,
                "backward starts at {backward_start:?} before the last stage's forward drains \
                 at {forward_done:?} (constraint 11)"
            ),
            V::PrefetchWindow {
                stage,
                forward,
                earliest,
                actual,
            } => write!(
                f,
                "{} pass of stage {stage} starts at {actual:?}, earlier than its load can \
                 arrive ({earliest:?}; constraints 5/6/9)",
                if *forward { "forward" } else { "backward" },
            ),
            V::StepTimeMismatch { expected, actual } => write!(
                f,
                "step_time is {actual:?} but the last backward microbatch completes at \
                 {expected:?}"
            ),
            V::DifferentialMismatch {
                analytic,
                simulated,
                ratio,
            } => write!(
                f,
                "executor/analytic differential out of band: simulated {simulated:?} vs \
                 analytic {analytic:?} (ratio {ratio:.3}, band [{}, {}))",
                DIFFERENTIAL_RATIO_BAND.0, DIFFERENTIAL_RATIO_BAND.1
            ),
        }
    }
}

impl Error for ScheduleViolation {}

fn xfer(bytes: u64, bandwidth: f64) -> SimTime {
    SimTime::from_secs_f64(bytes as f64 / bandwidth)
}

/// Re-checks schedules against the paper's constraints. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleValidator<'a> {
    stages: &'a [StageCosts],
    mapping: &'a Mapping,
    cfg: &'a PipelineConfig,
}

impl<'a> ScheduleValidator<'a> {
    /// Builds a validator for the given stage list, mapping, and config.
    pub fn new(stages: &'a [StageCosts], mapping: &'a Mapping, cfg: &'a PipelineConfig) -> Self {
        ScheduleValidator {
            stages,
            mapping,
            cfg,
        }
    }

    /// Checks every constraint against `sch`, returning the first
    /// violation found.
    pub fn validate(&self, sch: &AnalyticSchedule) -> Result<(), ScheduleViolation> {
        self.check_shape(sch)?;
        self.check_memory()?;
        self.check_microbatch_order(sch)?;
        self.check_dependencies(sch)?;
        self.check_barrier(sch)?;
        self.check_prefetch_windows(sch)?;
        self.check_step_time(sch)?;
        Ok(())
    }

    fn check_shape(&self, sch: &AnalyticSchedule) -> Result<(), ScheduleViolation> {
        let s = self.stages.len();
        let m = self.cfg.num_microbatches;
        for (name, table) in [("fwd_start", &sch.fwd_start), ("bwd_start", &sch.bwd_start)] {
            if table.len() != s {
                return Err(ScheduleViolation::ShapeMismatch {
                    detail: format!("{name} covers {} stages, expected {s}", table.len()),
                });
            }
            if let Some((j, row)) = table.iter().enumerate().find(|(_, r)| r.len() != m) {
                return Err(ScheduleViolation::ShapeMismatch {
                    detail: format!(
                        "{name}[{j}] covers {} microbatches, expected {m}",
                        row.len()
                    ),
                });
            }
        }
        if self.mapping.num_stages() != s {
            return Err(ScheduleViolation::ShapeMismatch {
                detail: format!(
                    "mapping covers {} stages, expected {s}",
                    self.mapping.num_stages()
                ),
            });
        }
        Ok(())
    }

    /// Constraint 4: every stage's peak residency fits in GPU memory.
    fn check_memory(&self) -> Result<(), ScheduleViolation> {
        let m = self.cfg.num_microbatches;
        for (j, st) in self.stages.iter().enumerate() {
            let required = st.resident_fwd().max(st.resident_bwd(m));
            if required > self.cfg.gpu_mem_bytes {
                return Err(ScheduleViolation::MemoryOverCapacity {
                    stage: j,
                    required,
                    capacity: self.cfg.gpu_mem_bytes,
                });
            }
        }
        Ok(())
    }

    /// Constraint 10: microbatches of one stage execute serially.
    fn check_microbatch_order(&self, sch: &AnalyticSchedule) -> Result<(), ScheduleViolation> {
        for (j, st) in self.stages.iter().enumerate() {
            for mb in 1..self.cfg.num_microbatches {
                if sch.fwd_start[j][mb] < sch.fwd_start[j][mb - 1] + st.fwd {
                    return Err(ScheduleViolation::MicrobatchOverlap {
                        stage: j,
                        microbatch: mb,
                        forward: true,
                    });
                }
                if sch.bwd_start[j][mb] < sch.bwd_start[j][mb - 1] + st.bwd {
                    return Err(ScheduleViolation::MicrobatchOverlap {
                        stage: j,
                        microbatch: mb,
                        forward: false,
                    });
                }
            }
        }
        Ok(())
    }

    /// Constraint 8: a stage consumes each microbatch's activation only
    /// after the neighbouring stage produced it (plus the transfer and hop
    /// latency when the stages live on different GPUs).
    fn check_dependencies(&self, sch: &AnalyticSchedule) -> Result<(), ScheduleViolation> {
        let s = self.stages.len();
        let b = self.cfg.bandwidth;
        for j in 1..s {
            let cross = self.mapping.gpu_of(j - 1) != self.mapping.gpu_of(j);
            for mb in 0..self.cfg.num_microbatches {
                let mut earliest = sch.fwd_start[j - 1][mb] + self.stages[j - 1].fwd;
                if cross {
                    earliest += xfer(self.stages[j].in_act_bytes, b) + self.cfg.act_latency;
                }
                if sch.fwd_start[j][mb] < earliest {
                    return Err(ScheduleViolation::DependencyOrder {
                        stage: j,
                        microbatch: mb,
                        forward: true,
                        earliest,
                        actual: sch.fwd_start[j][mb],
                    });
                }
                // Backward flows the other way: stage j-1 needs stage j's
                // activation gradient.
                let mut earliest = sch.bwd_start[j][mb] + self.stages[j].bwd;
                if cross {
                    earliest += xfer(self.stages[j].in_act_bytes, b) + self.cfg.act_latency;
                }
                if sch.bwd_start[j - 1][mb] < earliest {
                    return Err(ScheduleViolation::DependencyOrder {
                        stage: j - 1,
                        microbatch: mb,
                        forward: false,
                        earliest,
                        actual: sch.bwd_start[j - 1][mb],
                    });
                }
            }
        }
        Ok(())
    }

    /// Constraint 11: no backward work before the last stage's forward
    /// pass drains (and no microbatch flows backward through a stage
    /// before it flowed forward through it).
    fn check_barrier(&self, sch: &AnalyticSchedule) -> Result<(), ScheduleViolation> {
        let s = self.stages.len();
        let m = self.cfg.num_microbatches;
        let forward_done = sch.fwd_start[s - 1][m - 1] + self.stages[s - 1].fwd;
        let backward_start = sch
            .bwd_start
            .iter()
            .flatten()
            .copied()
            .min()
            .expect("non-empty schedule");
        if backward_start < forward_done {
            return Err(ScheduleViolation::BarrierViolated {
                forward_done,
                backward_start,
            });
        }
        for j in 0..s {
            for mb in 0..m {
                let own_fwd_done = sch.fwd_start[j][mb] + self.stages[j].fwd;
                if sch.bwd_start[j][mb] < own_fwd_done {
                    return Err(ScheduleViolation::DependencyOrder {
                        stage: j,
                        microbatch: mb,
                        forward: false,
                        earliest: own_fwd_done,
                        actual: sch.bwd_start[j][mb],
                    });
                }
            }
        }
        Ok(())
    }

    /// Constraints 5, 6, 9: a stage's first microbatch cannot start before
    /// its DRAM load arrives. At best the load was prefetched during the
    /// preceding slot's compute window — bounded by the reserved memory
    /// left by that slot (5) and by bandwidth times the window length (6) —
    /// and the remainder uploads afterwards at full bandwidth, blocking
    /// (9), plus the fixed swap overhead.
    fn check_prefetch_windows(&self, sch: &AnalyticSchedule) -> Result<(), ScheduleViolation> {
        if self.cfg.memory_mode != MemoryMode::Heterogeneous {
            return Ok(());
        }
        let g_cap = self.cfg.gpu_mem_bytes;
        let b = self.cfg.bandwidth;
        let m = self.cfg.num_microbatches;

        for g in 0..self.mapping.num_gpus() {
            let seq = self.mapping.stages_of(g);

            // Forward slots, in execution order.
            for (pos, &j) in seq.iter().enumerate() {
                let load = self.stages[j].fwd_load_bytes();
                let earliest = if pos == 0 {
                    xfer(load, b) + self.cfg.swap_overhead
                } else {
                    let prev = seq[pos - 1];
                    let prev_finish = sch.fwd_start[prev][m - 1] + self.stages[prev].fwd;
                    let window = prev_finish - sch.fwd_start[prev][0];
                    let best_prefetch = self.best_prefetch(
                        load,
                        g_cap.saturating_sub(self.stages[prev].resident_fwd()),
                        window,
                    );
                    prev_finish + xfer(load - best_prefetch, b) + self.cfg.swap_overhead
                };
                if sch.fwd_start[j][0] < earliest {
                    return Err(ScheduleViolation::PrefetchWindow {
                        stage: j,
                        forward: true,
                        earliest,
                        actual: sch.fwd_start[j][0],
                    });
                }
            }

            // Backward slots run in reverse stage order on each GPU; the
            // GPU's last forward stage keeps its parameters resident.
            for (pos, &j) in seq.iter().rev().enumerate() {
                let params_resident = pos == 0;
                let load = self.stages[j].bwd_load_bytes(m, params_resident);
                let earliest = if pos == 0 {
                    // Checkpointed inputs prefetch during the stage's own
                    // forward window at best.
                    let own_finish = sch.fwd_start[j][m - 1] + self.stages[j].fwd;
                    let window = own_finish - sch.fwd_start[j][0];
                    let best_prefetch = self.best_prefetch(
                        load,
                        g_cap.saturating_sub(self.stages[j].resident_fwd()),
                        window,
                    );
                    own_finish + xfer(load - best_prefetch, b) + self.cfg.swap_overhead
                } else {
                    let prev = seq[seq.len() - pos];
                    let prev_finish = sch.bwd_start[prev][m - 1] + self.stages[prev].bwd;
                    let window = prev_finish - sch.bwd_start[prev][0];
                    let best_prefetch = self.best_prefetch(
                        load,
                        g_cap.saturating_sub(self.stages[prev].resident_bwd(m)),
                        window,
                    );
                    prev_finish + xfer(load - best_prefetch, b) + self.cfg.swap_overhead
                };
                if sch.bwd_start[j][0] < earliest {
                    return Err(ScheduleViolation::PrefetchWindow {
                        stage: j,
                        forward: false,
                        earliest,
                        actual: sch.bwd_start[j][0],
                    });
                }
            }
        }
        Ok(())
    }

    /// Most bytes a prefetch can move: capped by the load itself, the
    /// reserved memory of the computing slot, and bandwidth over the
    /// compute window. Zero when prefetching is disabled.
    fn best_prefetch(&self, load: u64, reserved: u64, window: SimTime) -> u64 {
        if !self.cfg.prefetch {
            return 0;
        }
        let window_cap = (self.cfg.bandwidth * window.as_secs_f64()) as u64;
        load.min(reserved).min(window_cap)
    }

    /// The makespan must be the completion of the last backward microbatch.
    fn check_step_time(&self, sch: &AnalyticSchedule) -> Result<(), ScheduleViolation> {
        let m = self.cfg.num_microbatches;
        let expected = sch
            .bwd_start
            .iter()
            .zip(self.stages.iter())
            .map(|(row, st)| row[m - 1] + st.bwd)
            .max()
            .expect("non-empty schedule");
        if sch.step_time != expected {
            return Err(ScheduleViolation::StepTimeMismatch {
                expected,
                actual: sch.step_time,
            });
        }
        Ok(())
    }
}

/// Differential check between the analytic evaluator and the event-driven
/// executor: on an *uncontended* pipeline their step times must agree
/// within [`DIFFERENTIAL_RATIO_BAND`].
pub fn check_differential(analytic: SimTime, simulated: SimTime) -> Result<(), ScheduleViolation> {
    let a = analytic.as_secs_f64();
    let s = simulated.as_secs_f64();
    assert!(a > 0.0 && s > 0.0, "step times must be positive");
    let ratio = s / a;
    if ratio < DIFFERENTIAL_RATIO_BAND.0 || ratio >= DIFFERENTIAL_RATIO_BAND.1 {
        return Err(ScheduleViolation::DifferentialMismatch {
            analytic,
            simulated,
            ratio,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_analytic;

    const GB: u64 = 1 << 30;

    fn stage(ms: u64, param: u64, act: u64) -> StageCosts {
        StageCosts {
            fwd: SimTime::from_millis(ms),
            bwd: SimTime::from_millis(2 * ms),
            param_bytes: param,
            grad_bytes: param,
            in_act_bytes: act,
            out_act_bytes: act,
            workspace_bytes: 0,
        }
    }

    fn cfg(m: usize) -> PipelineConfig {
        PipelineConfig {
            num_microbatches: m,
            gpu_mem_bytes: 24 * GB,
            bandwidth: 13.1e9,
            memory_mode: MemoryMode::Heterogeneous,
            swap_overhead: SimTime::from_millis(10),
            act_latency: SimTime::from_millis(5),
            prefetch: true,
            prioritized_loads: true,
            strict_validation: false,
        }
    }

    fn eight_stage_case() -> (Vec<StageCosts>, Mapping, PipelineConfig) {
        let stages: Vec<StageCosts> = (0..8).map(|_| stage(20, GB / 4, GB / 64)).collect();
        let mapping = Mapping::sequential(8, 4);
        (stages, mapping, cfg(4))
    }

    #[test]
    fn analytic_schedules_validate_clean() {
        let (stages, mapping, cfg) = eight_stage_case();
        let sch = evaluate_analytic(&stages, &mapping, &cfg).unwrap();
        let v = ScheduleValidator::new(&stages, &mapping, &cfg);
        assert_eq!(v.validate(&sch), Ok(()));
    }

    #[test]
    fn resident_schedules_validate_clean() {
        let stages: Vec<StageCosts> = (0..4).map(|_| stage(10, GB, GB / 128)).collect();
        let mapping = Mapping::sequential(4, 4);
        let mut c = cfg(4);
        c.memory_mode = MemoryMode::Resident;
        let sch = evaluate_analytic(&stages, &mapping, &c).unwrap();
        let v = ScheduleValidator::new(&stages, &mapping, &c);
        assert_eq!(v.validate(&sch), Ok(()));
    }

    #[test]
    fn prefetch_outside_window_is_caught() {
        let (stages, mapping, cfg) = eight_stage_case();
        let mut sch = evaluate_analytic(&stages, &mapping, &cfg).unwrap();
        // Pretend stage 4 (second slot on GPU 0) started its first
        // microbatch at t = 0: its parameters cannot have arrived — the
        // previous slot's compute window hasn't even opened.
        sch.fwd_start[4][0] = SimTime::ZERO;
        let v = ScheduleValidator::new(&stages, &mapping, &cfg);
        let err = v.validate(&sch).unwrap_err();
        assert!(
            matches!(
                err,
                ScheduleViolation::MicrobatchOverlap { stage: 4, .. }
                    | ScheduleViolation::DependencyOrder { stage: 4, .. }
                    | ScheduleViolation::PrefetchWindow {
                        stage: 4,
                        forward: true,
                        ..
                    }
            ),
            "unexpected violation: {err}"
        );
        // Shift the whole row so only the prefetch-window constraint trips.
        let mut sch2 = evaluate_analytic(&stages, &mapping, &cfg).unwrap();
        let row = &mut sch2.fwd_start[4];
        let shift = row[0] - SimTime::from_millis(1);
        for t in row.iter_mut() {
            *t -= shift;
        }
        let err2 = v.validate(&sch2).unwrap_err();
        assert!(
            matches!(
                err2,
                ScheduleViolation::PrefetchWindow {
                    stage: 4,
                    forward: true,
                    ..
                } | ScheduleViolation::DependencyOrder { .. }
            ),
            "unexpected violation: {err2}"
        );
    }

    #[test]
    fn memory_over_capacity_is_caught() {
        let (stages, mapping, mut cfg) = eight_stage_case();
        let sch = evaluate_analytic(&stages, &mapping, &cfg).unwrap();
        // Shrink the GPU after the fact: the same schedule is now infeasible.
        cfg.gpu_mem_bytes = GB / 8;
        let v = ScheduleValidator::new(&stages, &mapping, &cfg);
        assert!(matches!(
            v.validate(&sch),
            Err(ScheduleViolation::MemoryOverCapacity { stage: 0, .. })
        ));
    }

    #[test]
    fn microbatch_overlap_is_caught() {
        let (stages, mapping, cfg) = eight_stage_case();
        let mut sch = evaluate_analytic(&stages, &mapping, &cfg).unwrap();
        sch.fwd_start[2][1] = sch.fwd_start[2][0]; // runs both microbatches at once
        let v = ScheduleValidator::new(&stages, &mapping, &cfg);
        assert!(matches!(
            v.validate(&sch),
            Err(ScheduleViolation::MicrobatchOverlap {
                stage: 2,
                microbatch: 1,
                forward: true,
            })
        ));
    }

    #[test]
    fn broken_barrier_is_caught() {
        let (stages, mapping, cfg) = eight_stage_case();
        let mut sch = evaluate_analytic(&stages, &mapping, &cfg).unwrap();
        // Start the last stage's backward before forwards drain.
        let s = stages.len() - 1;
        let shift = sch.bwd_start[s][0] - sch.fwd_start[s][0];
        for t in sch.bwd_start[s].iter_mut() {
            *t -= shift;
        }
        let v = ScheduleValidator::new(&stages, &mapping, &cfg);
        assert!(matches!(
            v.validate(&sch),
            Err(ScheduleViolation::BarrierViolated { .. }
                | ScheduleViolation::DependencyOrder { forward: false, .. })
        ));
    }

    #[test]
    fn wrong_step_time_is_caught() {
        let (stages, mapping, cfg) = eight_stage_case();
        let mut sch = evaluate_analytic(&stages, &mapping, &cfg).unwrap();
        sch.step_time += SimTime::from_secs(1);
        let v = ScheduleValidator::new(&stages, &mapping, &cfg);
        assert!(matches!(
            v.validate(&sch),
            Err(ScheduleViolation::StepTimeMismatch { .. })
        ));
    }

    #[test]
    fn shape_mismatch_is_caught() {
        let (stages, mapping, cfg) = eight_stage_case();
        let mut sch = evaluate_analytic(&stages, &mapping, &cfg).unwrap();
        sch.fwd_start.pop();
        let v = ScheduleValidator::new(&stages, &mapping, &cfg);
        assert!(matches!(
            v.validate(&sch),
            Err(ScheduleViolation::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn differential_band() {
        let s = SimTime::from_millis;
        assert_eq!(check_differential(s(100), s(100)), Ok(()));
        assert_eq!(check_differential(s(100), s(140)), Ok(()));
        assert!(check_differential(s(100), s(200)).is_err());
        assert!(check_differential(s(100), s(50)).is_err());
    }
}
