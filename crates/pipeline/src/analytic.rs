//! Analytic (contention-free) evaluation of a pipeline schedule.
//!
//! This is the executable form of the paper's MIP constraints (4)–(11):
//! given per-stage costs, a stage→GPU mapping, GPU memory `G`, the average
//! bandwidth `B`, and the microbatch count `M`, it computes every stage's
//! forward/backward start times and the step makespan. Prefetching follows
//! §3.2 exactly: the next stage on a GPU may prefetch into the memory left
//! over by the currently executing stage (constraint 5), no faster than `B`
//! over the current stage's execution window (constraint 6); whatever is
//! left uploads after the stage retires, blocking computation
//! (constraint 9).
//!
//! The constraints are transcribed once, in a private core that keeps its
//! working memory in a `Scratch`: one `O(S)` pass finds each stage's
//! previous and next stage on its GPU (the order a GPU runs its stages
//! forward and, reversed, backward), and the start times fill flat `S×M`
//! rows. [`evaluate_analytic`] runs the core in a fresh scratch, then
//! copies the rows out and adds the traffic estimate. A call costs
//! `O(S·M)` time; its allocations are the scratch's nine buffers and the
//! `2S + 2` vectors of the returned [`AnalyticSchedule`].
//!
//! The MIP partition search runs the core itself, in one scratch it keeps
//! for the whole solve: a leaf builds its stage costs (`O(L)` for `L`
//! layers) and the sequential mapping and keeps only the makespan, so it
//! costs `O(L + S·M)` time and five small allocations: 1.14 µs per leaf
//! in traced GPT-2 solves on a 2-vCPU VM, against 2.09 µs with a fresh
//! [`evaluate_analytic`] per leaf. The evaluator is deterministic; contention
//! effects are deliberately ignored here, and the event-driven executor
//! ([`crate::simulate_step`]) measures those.

use std::error::Error;
use std::fmt;

use mobius_mapping::Mapping;
use mobius_sim::SimTime;

use crate::StageCosts;

/// Whether parameters stream from DRAM (Mobius) or live in GPU memory
/// (GPipe-style systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryMode {
    /// Stages are stored in DRAM and swapped in/out with prefetching —
    /// the Mobius pipeline (§3.1).
    Heterogeneous,
    /// All parameters stay resident in GPU memory; no stage uploads.
    Resident,
}

/// Static configuration of a pipeline evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Microbatches per step (`M`; the paper sets `M = N`).
    pub num_microbatches: usize,
    /// Per-GPU memory capacity in bytes (`G`).
    pub gpu_mem_bytes: u64,
    /// Average DRAM↔GPU bandwidth in bytes/second (`B`).
    pub bandwidth: f64,
    /// Heterogeneous (Mobius) or resident (GPipe) memory.
    pub memory_mode: MemoryMode,
    /// Fixed overhead charged once per stage load (memory allocation,
    /// stream setup, synchronization). Zero in resident mode.
    pub swap_overhead: SimTime,
    /// Fixed latency of an inter-GPU activation hop (kernel launches plus
    /// the CPU-staged copy round trip on servers without GPUDirect P2P).
    pub act_latency: SimTime,
    /// Whether the next stage prefetches into reserved memory (§3.1).
    /// Disabling it is the ablation of Mobius's overlap design: every load
    /// becomes a blocking upload.
    pub prefetch: bool,
    /// Whether stage loads carry the §3.3 priorities (earlier-starting
    /// stages first). Disabling it is the priority ablation.
    pub prioritized_loads: bool,
    /// Debug mode: re-check every produced schedule against an independent
    /// transcription of the paper's constraints
    /// ([`ScheduleValidator`](crate::ScheduleValidator)) and run the
    /// event-driven executor with flow-network invariant checking enabled.
    /// Violations panic. Meant for tests; adds `O(S·M)` work per
    /// evaluation.
    pub strict_validation: bool,
}

/// Default fixed cost per stage swap: allocator, pinned-buffer staging and
/// stream-synchronization overheads of moving a stage in a PyTorch-based
/// runtime (calibrated so that the partition trade-off of §4.3 — small
/// stages pay per-swap overhead, large stages lose prefetch overlap —
/// matches the paper's Figure 9 shape).
pub const DEFAULT_SWAP_OVERHEAD: SimTime = SimTime::from_millis(10);
/// Default fixed latency per inter-GPU activation hop: without GPUDirect
/// P2P an activation handoff is a device-to-host copy, a host sync, and a
/// host-to-device copy, each with framework launch overhead.
pub const DEFAULT_ACT_LATENCY: SimTime = SimTime::from_millis(5);

impl PipelineConfig {
    /// Convenience constructor for the Mobius (heterogeneous) mode.
    pub fn mobius(num_microbatches: usize, gpu_mem_bytes: u64, bandwidth: f64) -> Self {
        PipelineConfig {
            num_microbatches,
            gpu_mem_bytes,
            bandwidth,
            memory_mode: MemoryMode::Heterogeneous,
            swap_overhead: DEFAULT_SWAP_OVERHEAD,
            act_latency: DEFAULT_ACT_LATENCY,
            prefetch: true,
            prioritized_loads: true,
            strict_validation: false,
        }
    }

    /// The same configuration in resident (GPipe) mode.
    pub fn resident(num_microbatches: usize, gpu_mem_bytes: u64, bandwidth: f64) -> Self {
        PipelineConfig {
            memory_mode: MemoryMode::Resident,
            ..Self::mobius(num_microbatches, gpu_mem_bytes, bandwidth)
        }
    }

    /// Returns the configuration with strict validation switched on or off
    /// (builder style).
    pub fn with_strict_validation(self, on: bool) -> Self {
        PipelineConfig {
            strict_validation: on,
            ..self
        }
    }
}

/// Why a schedule is impossible.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// A single stage cannot fit in GPU memory even alone.
    StageTooLarge {
        /// Offending stage.
        stage: usize,
        /// Bytes the stage needs resident.
        required: u64,
        /// GPU capacity.
        capacity: u64,
    },
    /// The mapping covers a different number of stages than provided.
    MappingMismatch {
        /// Stages in the mapping.
        mapped: usize,
        /// Stages provided.
        stages: usize,
    },
    /// The request describes no work (zero stages, microbatches, or steps).
    EmptyWorkload {
        /// Which dimension was zero.
        what: String,
    },
    /// The mapping addresses a different number of GPUs than the topology
    /// provides.
    GpuCountMismatch {
        /// GPUs the mapping addresses.
        mapped: usize,
        /// GPUs in the topology.
        topo: usize,
    },
    /// The model has fewer layers than the topology has GPUs, so every
    /// partition leaves a GPU without a stage.
    TooFewLayers {
        /// Layers in the model.
        layers: usize,
        /// GPUs in the topology.
        gpus: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::StageTooLarge {
                stage,
                required,
                capacity,
            } => write!(
                f,
                "stage {stage} needs {:.2} GiB resident but the GPU has {:.2} GiB",
                *required as f64 / (1u64 << 30) as f64,
                *capacity as f64 / (1u64 << 30) as f64
            ),
            ScheduleError::MappingMismatch { mapped, stages } => {
                write!(f, "mapping covers {mapped} stages but {stages} were given")
            }
            ScheduleError::EmptyWorkload { what } => {
                write!(f, "nothing to schedule: zero {what}")
            }
            ScheduleError::GpuCountMismatch { mapped, topo } => {
                write!(
                    f,
                    "mapping addresses {mapped} GPUs but the topology has {topo}"
                )
            }
            ScheduleError::TooFewLayers { layers, gpus } => write!(
                f,
                "the model has {layers} layers but the topology has {gpus} GPUs; \
                 every GPU needs at least one stage"
            ),
        }
    }
}

impl Error for ScheduleError {}

/// Estimated PCIe traffic of one training step, in bytes.
///
/// Staged GPU↔GPU transfers (no P2P) cross the bus twice and are counted
/// twice, matching what a bus monitor would see.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrafficEstimate {
    /// DRAM→GPU parameter/activation uploads.
    pub upload_bytes: f64,
    /// GPU→DRAM activation checkpoint offloads.
    pub offload_bytes: f64,
    /// Inter-GPU boundary activation (and activation-gradient) traffic.
    pub act_transfer_bytes: f64,
    /// GPU→DRAM gradient offloads for the CPU optimizer.
    pub grad_bytes: f64,
}

impl TrafficEstimate {
    /// Total bytes.
    pub fn total(&self) -> f64 {
        self.upload_bytes + self.offload_bytes + self.act_transfer_bytes + self.grad_bytes
    }
}

/// The fully resolved timetable of one training step.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticSchedule {
    /// Step makespan: completion of the last backward microbatch.
    pub step_time: SimTime,
    /// `fwd_start[j][m]`: when stage `j` starts forward on microbatch `m`.
    pub fwd_start: Vec<Vec<SimTime>>,
    /// `bwd_start[j][m]`: likewise for backward.
    pub bwd_start: Vec<Vec<SimTime>>,
    /// Estimated step traffic.
    pub traffic: TrafficEstimate,
}

impl AnalyticSchedule {
    /// Total compute-busy time across all GPUs (for utilization reports).
    pub fn compute_time(&self, stages: &[StageCosts]) -> SimTime {
        let m = self.fwd_start.first().map_or(0, |v| v.len());
        stages
            .iter()
            .map(|s| {
                let per_mb = s.fwd + s.bwd;
                SimTime::from_nanos(per_mb.as_nanos() * m as u64)
            })
            .sum()
    }
}

fn xfer(bytes: u64, bandwidth: f64) -> SimTime {
    SimTime::from_secs_f64(bytes as f64 / bandwidth)
}

/// The bytes of a `load` that still upload after the current stage retires
/// (constraint 9): prefetching (constraints 5 and 6) moves at most the
/// memory the current stage leaves free, at bandwidth `B` over its
/// execution window.
fn residual(cfg: &PipelineConfig, load: u64, reserved: u64, window: SimTime) -> u64 {
    let window_cap = (cfg.bandwidth * window.as_secs_f64()) as u64;
    let prefetched = if cfg.prefetch {
        load.min(reserved).min(window_cap)
    } else {
        0
    };
    load - prefetched
}

/// The checks both evaluators make before they schedule anything, in this
/// order: no stages, zero microbatches, a mapping over a different number
/// of stages, and the first stage that does not fit in GPU memory
/// (constraint 4, [`StageCosts::required_bytes`]). The first one that
/// fails is the error. (A mapping covers at least one stage, so an empty
/// stage list always mismatches its mapping too; it reports no stages.)
pub(crate) fn check_workload(
    stages: &[StageCosts],
    mapping: &Mapping,
    cfg: &PipelineConfig,
) -> Result<(), ScheduleError> {
    let empty = |what: &str| ScheduleError::EmptyWorkload { what: what.into() };
    if stages.is_empty() {
        return Err(empty("stages"));
    }
    if cfg.num_microbatches == 0 {
        return Err(empty("microbatches"));
    }
    if mapping.num_stages() != stages.len() {
        return Err(ScheduleError::MappingMismatch {
            mapped: mapping.num_stages(),
            stages: stages.len(),
        });
    }
    for (j, st) in stages.iter().enumerate() {
        let required = st.required_bytes(cfg.num_microbatches);
        if required > cfg.gpu_mem_bytes {
            return Err(ScheduleError::StageTooLarge {
                stage: j,
                required,
                capacity: cfg.gpu_mem_bytes,
            });
        }
    }
    Ok(())
}

/// Working memory of the evaluator: each stage's neighbours on its GPU, the
/// start rows, and each stage's finish time and execution window.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// `prev[j]`: the stage that runs before `j` on `j`'s GPU.
    prev: Vec<Option<usize>>,
    /// `next[j]`: the stage that runs after `j` on `j`'s GPU.
    next: Vec<Option<usize>>,
    /// Per GPU, the last stage the neighbour pass has placed on it.
    last: Vec<Option<usize>>,
    /// Forward start times, row-major: `fwd[j·M + mb]`.
    fwd: Vec<SimTime>,
    /// Backward start times, laid out like `fwd`.
    bwd: Vec<SimTime>,
    fwd_finish: Vec<SimTime>,
    fwd_window: Vec<SimTime>,
    bwd_finish: Vec<SimTime>,
    bwd_window: Vec<SimTime>,
}

impl Scratch {
    /// Resolves constraints (4)–(11) for `stages` under `mapping` and
    /// returns the step makespan. The start rows stay in the scratch for
    /// [`evaluate_analytic`] to copy out. Every buffer is resized to the
    /// call's `S` and `M` before it is read, so one scratch serves any
    /// sequence of calls.
    pub(crate) fn evaluate(
        &mut self,
        stages: &[StageCosts],
        mapping: &Mapping,
        cfg: &PipelineConfig,
    ) -> Result<SimTime, ScheduleError> {
        check_workload(stages, mapping, cfg)?;
        let s = stages.len();
        let m = cfg.num_microbatches;
        let g_cap = cfg.gpu_mem_bytes;
        let b = cfg.bandwidth;
        let hetero = cfg.memory_mode == MemoryMode::Heterogeneous;

        // Each stage's neighbours on its GPU, in one pass.
        self.last.clear();
        self.last.resize(mapping.num_gpus(), None);
        self.prev.clear();
        self.next.clear();
        self.next.resize(s, None);
        for j in 0..s {
            let before = self.last[mapping.gpu_of(j)].replace(j);
            if let Some(p) = before {
                self.next[p] = Some(j);
            }
            self.prev.push(before);
        }
        // Every entry below is written before it is read.
        self.fwd.resize(s * m, SimTime::ZERO);
        self.bwd.resize(s * m, SimTime::ZERO);
        for v in [
            &mut self.fwd_finish,
            &mut self.fwd_window,
            &mut self.bwd_finish,
            &mut self.bwd_window,
        ] {
            v.resize(s, SimTime::ZERO);
        }
        // The activation hop into stage `j` (constraint 8), zero on one GPU.
        let hop = |j: usize| {
            if mapping.gpu_of(j - 1) == mapping.gpu_of(j) {
                SimTime::ZERO
            } else {
                xfer(stages[j].in_act_bytes, b) + cfg.act_latency
            }
        };

        // ---------------- Forward ----------------
        for j in 0..s {
            let st = &stages[j];
            // Constraints 5, 6, 9: prefetch into reserved memory during the
            // previous stage's window; the residual blocks.
            let ready = match (hetero, self.prev[j]) {
                (false, None) => SimTime::ZERO,
                (false, Some(p)) => self.fwd_finish[p],
                (true, None) => xfer(st.fwd_load_bytes(), b) + cfg.swap_overhead,
                (true, Some(p)) => {
                    let reserved = g_cap.saturating_sub(stages[p].resident_fwd());
                    let left = residual(cfg, st.fwd_load_bytes(), reserved, self.fwd_window[p]);
                    self.fwd_finish[p] + xfer(left, b) + cfg.swap_overhead
                }
            };
            let (done, rest) = self.fwd.split_at_mut(j * m);
            let row = &mut rest[..m];
            // Constraint 8: wait for the previous stage's activation.
            let upstream = (j > 0).then(|| (&done[(j - 1) * m..], stages[j - 1].fwd, hop(j)));
            for mb in 0..m {
                let mut t = if mb == 0 { ready } else { row[mb - 1] + st.fwd };
                if let Some((above, fwd, hop)) = upstream {
                    t = t.max(above[mb] + fwd + hop);
                }
                row[mb] = t;
            }
            self.fwd_finish[j] = row[m - 1] + st.fwd;
            self.fwd_window[j] = self.fwd_finish[j] - row[0];
        }

        // ---------------- Backward ----------------
        for j in (0..s).rev() {
            let st = &stages[j];
            // The GPU's last forward stage keeps its parameters for backward.
            let load = st.bwd_load_bytes(m, self.next[j].is_none());
            let ready = match (hetero, self.next[j]) {
                (false, None) => self.fwd_finish[j],
                (false, Some(n)) => self.bwd_finish[n],
                (true, None) => {
                    // Prefetch the checkpointed activations during the
                    // stage's own forward window.
                    let reserved = g_cap.saturating_sub(st.resident_fwd());
                    let left = residual(cfg, load, reserved, self.fwd_window[j]);
                    self.fwd_finish[j] + xfer(left, b) + cfg.swap_overhead
                }
                (true, Some(n)) => {
                    let reserved = g_cap.saturating_sub(stages[n].resident_bwd(m));
                    let left = residual(cfg, load, reserved, self.bwd_window[n]);
                    self.bwd_finish[n] + xfer(left, b) + cfg.swap_overhead
                }
            };
            let (row, done) = self.bwd.split_at_mut((j + 1) * m);
            let row = &mut row[j * m..];
            let downstream = (j + 1 < s).then(|| (&done[..m], stages[j + 1].bwd, hop(j + 1)));
            for mb in 0..m {
                let mut t = if mb == 0 { ready } else { row[mb - 1] + st.bwd };
                t = match downstream {
                    Some((below, bwd, hop)) => t.max(below[mb] + bwd + hop),
                    // Constraint 11: backward begins after the forward of the
                    // last stage completes on every microbatch.
                    None => t.max(self.fwd_finish[j]),
                };
                row[mb] = t;
            }
            self.bwd_finish[j] = row[m - 1] + st.bwd;
            self.bwd_window[j] = self.bwd_finish[j] - row[0];
        }

        Ok(self
            .bwd_finish
            .iter()
            .copied()
            .max()
            .expect("at least one stage"))
    }

    /// The PCIe traffic of the schedule last evaluated.
    fn traffic(
        &self,
        stages: &[StageCosts],
        mapping: &Mapping,
        cfg: &PipelineConfig,
    ) -> TrafficEstimate {
        let m = cfg.num_microbatches;
        let hetero = cfg.memory_mode == MemoryMode::Heterogeneous;
        let mut traffic = TrafficEstimate::default();
        for (j, st) in stages.iter().enumerate() {
            let load = if hetero { st.fwd_load_bytes() } else { 0 };
            traffic.upload_bytes += load as f64;
            if j > 0 {
                if hetero {
                    // Checkpoint offload of the stage inputs.
                    traffic.offload_bytes += (m as u64 * st.in_act_bytes) as f64;
                }
                if mapping.gpu_of(j - 1) != mapping.gpu_of(j) {
                    // Staged transfer crosses the bus twice, forward and
                    // again backward for the activation gradient.
                    traffic.act_transfer_bytes += (4 * m as u64 * st.in_act_bytes) as f64;
                }
            }
        }
        for (j, st) in stages.iter().enumerate().rev() {
            let load = if hetero {
                st.bwd_load_bytes(m, self.next[j].is_none())
            } else {
                0
            };
            traffic.upload_bytes += load as f64;
            traffic.grad_bytes += if hetero { st.grad_bytes as f64 } else { 0.0 };
        }
        traffic
    }
}

/// Evaluates the schedule under constraints (4)–(11). See the module docs.
///
/// # Errors
///
/// Returns [`ScheduleError`] when there are no stages or no microbatches,
/// the mapping does not match the stage list, or a stage cannot fit in GPU
/// memory; with several of these, the first in that order.
pub fn evaluate_analytic(
    stages: &[StageCosts],
    mapping: &Mapping,
    cfg: &PipelineConfig,
) -> Result<AnalyticSchedule, ScheduleError> {
    let mut scratch = Scratch::default();
    let step_time = scratch.evaluate(stages, mapping, cfg)?;
    let m = cfg.num_microbatches;
    let schedule = AnalyticSchedule {
        step_time,
        fwd_start: scratch.fwd.chunks(m).map(<[SimTime]>::to_vec).collect(),
        bwd_start: scratch.bwd.chunks(m).map(<[SimTime]>::to_vec).collect(),
        traffic: scratch.traffic(stages, mapping, cfg),
    };

    if cfg.strict_validation {
        if let Err(v) = crate::ScheduleValidator::new(stages, mapping, cfg).validate(&schedule) {
            panic!("analytic schedule violates its own constraints: {v}");
        }
    }

    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    const GB: u64 = 1 << 30;

    fn cfg(m: usize, mode: MemoryMode) -> PipelineConfig {
        PipelineConfig {
            num_microbatches: m,
            gpu_mem_bytes: 24 * GB,
            bandwidth: 13.1e9,
            memory_mode: mode,
            swap_overhead: SimTime::ZERO,
            act_latency: SimTime::ZERO,
            prefetch: true,
            prioritized_loads: true,
            strict_validation: false,
        }
    }

    #[test]
    fn gpipe_four_stage_pipeline_timing() {
        // 4 identical stages, resident memory, negligible activations:
        // classic GPipe fill-drain: step = (M + S - 1) * (Tf) + (M + S - 1) * Tb
        let stages: Vec<StageCosts> = (0..4).map(|_| stage(10, 1000, 0)).collect();
        let mapping = Mapping::sequential(4, 4);
        let sch = evaluate_analytic(&stages, &mapping, &cfg(4, MemoryMode::Resident)).unwrap();
        // fwd: last stage finishes at (4 + 3) * 10ms = 70ms
        // bwd: starts at 70, finishes at 70 + (4 + 3) * 20 = 210ms
        assert_eq!(sch.step_time, SimTime::from_millis(210));
    }

    #[test]
    fn resident_mode_has_no_upload_traffic() {
        let stages: Vec<StageCosts> = (0..4).map(|_| stage(10, GB, 1000)).collect();
        let mapping = Mapping::sequential(4, 4);
        let sch = evaluate_analytic(&stages, &mapping, &cfg(4, MemoryMode::Resident)).unwrap();
        assert_eq!(sch.traffic.upload_bytes, 0.0);
        assert_eq!(sch.traffic.grad_bytes, 0.0);
        assert!(sch.traffic.act_transfer_bytes > 0.0);
    }

    #[test]
    fn hetero_counts_two_param_copies() {
        // 8 stages on 4 GPUs: each stage uploads params for fwd; for bwd all
        // but the per-GPU-last re-upload.
        let stages: Vec<StageCosts> = (0..8).map(|_| stage(10, GB, 0)).collect();
        let mapping = Mapping::sequential(8, 4);
        let sch = evaluate_analytic(&stages, &mapping, &cfg(4, MemoryMode::Heterogeneous)).unwrap();
        let expected = (8 + 4) as f64 * GB as f64; // 8 fwd + 4 bwd re-uploads
        assert_eq!(sch.traffic.upload_bytes, expected);
        assert_eq!(sch.traffic.grad_bytes, 8.0 * GB as f64);
    }

    #[test]
    fn upload_delays_first_start() {
        let stages: Vec<StageCosts> = (0..4).map(|_| stage(10, 131 * GB / 100, 0)).collect();
        let mapping = Mapping::sequential(4, 4);
        let sch = evaluate_analytic(&stages, &mapping, &cfg(4, MemoryMode::Heterogeneous)).unwrap();
        let expected = (131 * GB / 100) as f64 / 13.1e9;
        let t0 = sch.fwd_start[0][0];
        assert!(
            (t0.as_secs_f64() - expected).abs() < 2e-3,
            "start was {t0}, expected {expected}s"
        );
    }

    #[test]
    fn prefetch_hides_second_round_upload() {
        // Two stages per GPU; during stage j's execution the next stage
        // prefetches. With a long window and plenty of reserved memory the
        // second-round stages must not stall.
        let mut stages: Vec<StageCosts> = (0..8).map(|_| stage(200, GB / 4, 0)).collect();
        // Give stage 4..8 small params so the window easily covers them.
        for s in stages.iter_mut().skip(4) {
            s.param_bytes = GB / 64;
        }
        let mapping = Mapping::sequential(8, 4);
        let sch = evaluate_analytic(&stages, &mapping, &cfg(4, MemoryMode::Heterogeneous)).unwrap();
        // Stage 4 on GPU 0 should start immediately after stage 0 finishes
        // (plus the activation hop from stage 3).
        let stage0_finish = sch.fwd_start[0][3] + stages[0].fwd;
        let gap = sch.fwd_start[4][0] - stage0_finish;
        assert!(
            gap.as_secs_f64() < 0.05,
            "stage 4 stalled {gap} after stage 0 retired"
        );
    }

    #[test]
    fn no_prefetch_memory_blocks_upload() {
        // Stages that fill GPU memory exactly: no reserved memory, so the
        // second stage's full load happens after the first finishes
        // (constraint 9).
        let big = StageCosts {
            fwd: SimTime::from_millis(10),
            bwd: SimTime::from_millis(20),
            param_bytes: 10 * GB,
            grad_bytes: 0,
            in_act_bytes: 0,
            out_act_bytes: 0,
            workspace_bytes: 14 * GB,
        };
        let stages = vec![big, big];
        let mapping = Mapping::from_table(vec![0, 0], 1);
        let sch = evaluate_analytic(&stages, &mapping, &cfg(2, MemoryMode::Heterogeneous)).unwrap();
        let stage0_finish = sch.fwd_start[0][1] + stages[0].fwd;
        let gap = (sch.fwd_start[1][0] - stage0_finish).as_secs_f64();
        let full_upload = 10.0 * GB as f64 / 13.1e9;
        assert!(
            (gap - full_upload).abs() < 0.02,
            "gap {gap}s vs expected {full_upload}s"
        );
    }

    #[test]
    fn oversized_stage_rejected() {
        let stages = vec![stage(10, 30 * GB, 0)];
        let mapping = Mapping::from_table(vec![0], 1);
        let err =
            evaluate_analytic(&stages, &mapping, &cfg(1, MemoryMode::Heterogeneous)).unwrap_err();
        assert!(matches!(err, ScheduleError::StageTooLarge { stage: 0, .. }));
    }

    #[test]
    fn mapping_mismatch_rejected() {
        let stages = vec![stage(10, GB, 0); 3];
        let mapping = Mapping::sequential(4, 2);
        let err =
            evaluate_analytic(&stages, &mapping, &cfg(1, MemoryMode::Heterogeneous)).unwrap_err();
        assert!(matches!(err, ScheduleError::MappingMismatch { .. }));
    }

    #[test]
    fn backward_waits_for_forward_barrier() {
        let stages: Vec<StageCosts> = (0..2).map(|_| stage(10, GB, 0)).collect();
        let mapping = Mapping::sequential(2, 2);
        let sch = evaluate_analytic(&stages, &mapping, &cfg(2, MemoryMode::Resident)).unwrap();
        let last_fwd = sch.fwd_start[1][1] + stages[1].fwd;
        assert!(sch.bwd_start[1][0] >= last_fwd);
    }

    #[test]
    fn more_microbatches_amortize_fill() {
        let stages: Vec<StageCosts> = (0..4).map(|_| stage(10, GB / 10, 0)).collect();
        let mapping = Mapping::sequential(4, 4);
        let t2 = evaluate_analytic(&stages, &mapping, &cfg(2, MemoryMode::Resident))
            .unwrap()
            .step_time;
        let t8 = evaluate_analytic(&stages, &mapping, &cfg(8, MemoryMode::Resident))
            .unwrap()
            .step_time;
        // Throughput per microbatch improves with more microbatches.
        assert!(t8.as_secs_f64() / 8.0 < t2.as_secs_f64() / 2.0);
    }
}
