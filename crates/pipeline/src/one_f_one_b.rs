//! The 1F1B (PipeDream-flush) schedule — an extension beyond the paper.
//!
//! Mobius and GPipe run all forwards, then all backwards, so every stage
//! holds checkpointed inputs for all `M` microbatches at once. 1F1B
//! (Narayanan et al., the paper's \[31, 32\]) interleaves one forward with
//! one backward after a short warmup, capping the in-flight microbatches at
//! stage `i` to `S - i` — same synchronous semantics and the same bubble
//! fraction, much lower activation residency. The paper lists this
//! scheduling family as related work; this module makes the comparison
//! measurable for resident (GPipe-style) pipelines with one stage per GPU.

use mobius_sim::SimTime;

use crate::StageCosts;

/// Timing and memory results of a 1F1B schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct OneFOneBSchedule {
    /// Step makespan.
    pub step_time: SimTime,
    /// `fwd_start[i][m]` / `bwd_start[i][m]` per stage and microbatch.
    pub fwd_start: Vec<Vec<SimTime>>,
    /// Backward start times.
    pub bwd_start: Vec<Vec<SimTime>>,
    /// Peak number of in-flight microbatch activations per stage.
    pub peak_in_flight: Vec<usize>,
}

impl OneFOneBSchedule {
    /// Peak checkpointed-activation bytes at stage `i`, versus GPipe's
    /// `m × in_act` for the same stage.
    pub fn act_memory_bytes(&self, stages: &[StageCosts], i: usize) -> u64 {
        self.peak_in_flight[i] as u64 * stages[i].in_act_bytes
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    F(usize),
    B(usize),
}

/// Builds stage `i`'s task order under 1F1B: `warmup` forwards, then
/// alternating F/B until forwards run out, then the backward drain.
fn task_order(i: usize, s: usize, m: usize) -> Vec<Kind> {
    let warmup = (s - 1 - i).min(m);
    let mut tasks = Vec::with_capacity(2 * m);
    let mut next_f = 0;
    let mut next_b = 0;
    for _ in 0..warmup {
        tasks.push(Kind::F(next_f));
        next_f += 1;
    }
    while next_f < m {
        tasks.push(Kind::F(next_f));
        next_f += 1;
        tasks.push(Kind::B(next_b));
        next_b += 1;
    }
    while next_b < m {
        tasks.push(Kind::B(next_b));
        next_b += 1;
    }
    tasks
}

/// Evaluates the 1F1B schedule for a resident pipeline with one stage per
/// GPU (list scheduling over the fixed per-stage task orders).
///
/// `act_latency` is the fixed inter-stage hop cost (as in
/// [`crate::PipelineConfig::act_latency`]); bandwidth is not modelled here
/// because resident pipelines only move boundary activations.
///
/// This evaluator has no memory constraint of its own, so it cannot fail
/// on a valid input.
///
/// # Panics
///
/// Panics if `stages` is empty or `m == 0`.
pub fn evaluate_1f1b(stages: &[StageCosts], m: usize, act_latency: SimTime) -> OneFOneBSchedule {
    let s = stages.len();
    assert!(s > 0 && m > 0, "need stages and microbatches");

    let orders: Vec<Vec<Kind>> = (0..s).map(|i| task_order(i, s, m)).collect();
    let mut head = vec![0usize; s];
    let mut gpu_free = vec![SimTime::ZERO; s];
    let mut fwd_start = vec![vec![SimTime::MAX; m]; s];
    let mut bwd_start = vec![vec![SimTime::MAX; m]; s];
    let mut fwd_done = vec![vec![None::<SimTime>; m]; s];
    let mut bwd_done = vec![vec![None::<SimTime>; m]; s];

    let total: usize = orders.iter().map(|o| o.len()).sum();
    let mut scheduled = 0;
    while scheduled < total {
        let mut progress = false;
        for i in 0..s {
            while head[i] < orders[i].len() {
                let task = orders[i][head[i]];
                // Dependency availability.
                let dep = match task {
                    Kind::F(mb) => {
                        if i == 0 {
                            Some(SimTime::ZERO)
                        } else {
                            fwd_done[i - 1][mb].map(|t| t + act_latency)
                        }
                    }
                    Kind::B(mb) => {
                        if i == s - 1 {
                            fwd_done[i][mb]
                        } else {
                            bwd_done[i + 1][mb].map(|t| t + act_latency)
                        }
                    }
                };
                let Some(dep) = dep else { break };
                let start = dep.max(gpu_free[i]);
                match task {
                    Kind::F(mb) => {
                        fwd_start[i][mb] = start;
                        let end = start + stages[i].fwd;
                        fwd_done[i][mb] = Some(end);
                        gpu_free[i] = end;
                    }
                    Kind::B(mb) => {
                        bwd_start[i][mb] = start;
                        let end = start + stages[i].bwd;
                        bwd_done[i][mb] = Some(end);
                        gpu_free[i] = end;
                    }
                }
                head[i] += 1;
                scheduled += 1;
                progress = true;
            }
        }
        assert!(progress, "1F1B schedule deadlocked (internal bug)");
    }

    // Peak in-flight microbatches per stage: forwards issued minus
    // backwards completed, maximized over the task order.
    let peak_in_flight: Vec<usize> = (0..s)
        .map(|i| {
            let mut live = 0usize;
            let mut peak = 0usize;
            for t in &orders[i] {
                match t {
                    Kind::F(_) => {
                        live += 1;
                        peak = peak.max(live);
                    }
                    Kind::B(_) => live = live.saturating_sub(1),
                }
            }
            peak
        })
        .collect();

    let step_time = bwd_done
        .iter()
        .flat_map(|row| row.iter().flatten())
        .copied()
        .max()
        .expect("at least one backward");

    OneFOneBSchedule {
        step_time,
        fwd_start,
        bwd_start,
        peak_in_flight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_analytic, MemoryMode, PipelineConfig};
    use mobius_mapping::Mapping;

    fn stage(f_ms: u64, b_ms: u64, act: u64) -> StageCosts {
        StageCosts {
            fwd: SimTime::from_millis(f_ms),
            bwd: SimTime::from_millis(b_ms),
            param_bytes: 1000,
            grad_bytes: 1000,
            in_act_bytes: act,
            out_act_bytes: act,
            workspace_bytes: 0,
        }
    }

    #[test]
    fn task_orders_are_valid_permutations() {
        for s in 1..5 {
            for m in 1..6 {
                for i in 0..s {
                    let order = task_order(i, s, m);
                    assert_eq!(order.len(), 2 * m);
                    // Each F precedes its own B.
                    for mb in 0..m {
                        let f = order.iter().position(|t| *t == Kind::F(mb)).unwrap();
                        let b = order.iter().position(|t| *t == Kind::B(mb)).unwrap();
                        assert!(f < b, "stage {i}: B({mb}) before F({mb})");
                    }
                }
            }
        }
    }

    #[test]
    fn caps_in_flight_at_pipeline_depth() {
        let stages: Vec<StageCosts> = (0..4).map(|_| stage(10, 20, 1 << 20)).collect();
        let sch = evaluate_1f1b(&stages, 8, SimTime::ZERO);
        // Stage i holds at most S - i in-flight microbatches.
        assert_eq!(sch.peak_in_flight, vec![4, 3, 2, 1]);
    }

    #[test]
    fn act_memory_beats_gpipe_for_many_microbatches() {
        let stages: Vec<StageCosts> = (0..4).map(|_| stage(10, 20, 64 << 20)).collect();
        let m = 8;
        let sch = evaluate_1f1b(&stages, m, SimTime::ZERO);
        for i in 0..4 {
            let gpipe = m as u64 * stages[i].in_act_bytes;
            let ours = sch.act_memory_bytes(&stages, i);
            assert!(
                ours < gpipe,
                "stage {i}: 1F1B {ours} should be under GPipe {gpipe}"
            );
        }
    }

    #[test]
    fn makespan_matches_gpipe_class() {
        // Same bubble structure: for balanced stages the 1F1B makespan is
        // within a few percent of the GPipe fill/drain makespan.
        let stages: Vec<StageCosts> = (0..4).map(|_| stage(10, 20, 0)).collect();
        let m = 8;
        let ours = evaluate_1f1b(&stages, m, SimTime::ZERO).step_time;
        let mapping = Mapping::sequential(4, 4);
        let cfg = PipelineConfig {
            memory_mode: MemoryMode::Resident,
            act_latency: SimTime::ZERO,
            swap_overhead: SimTime::ZERO,
            ..PipelineConfig::mobius(m, 1 << 40, 13.1e9)
        };
        let gpipe = evaluate_analytic(&stages, &mapping, &cfg)
            .unwrap()
            .step_time;
        let ratio = ours.as_secs_f64() / gpipe.as_secs_f64();
        assert!(
            (0.9..1.1).contains(&ratio),
            "1F1B {ours} vs GPipe {gpipe} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn single_stage_degenerates_to_serial() {
        let stages = vec![stage(10, 20, 0)];
        let sch = evaluate_1f1b(&stages, 3, SimTime::ZERO);
        // F B F B F B, strictly serial: 3 * 30ms.
        assert_eq!(sch.step_time, SimTime::from_millis(90));
        assert_eq!(sch.peak_in_flight, vec![1]);
    }

    #[test]
    fn backward_never_precedes_forward() {
        let stages: Vec<StageCosts> = (0..3).map(|_| stage(7, 13, 0)).collect();
        let sch = evaluate_1f1b(&stages, 5, SimTime::from_millis(1));
        for i in 0..3 {
            for mb in 0..5 {
                assert!(
                    sch.bwd_start[i][mb] >= sch.fwd_start[i][mb] + stages[i].fwd,
                    "stage {i} mb {mb}"
                );
            }
        }
    }
}
