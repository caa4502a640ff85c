//! GPipe baseline: pipeline parallelism with all parameters resident in
//! GPU memory (the paper's first baseline, §4).
//!
//! GPipe partitions the model into exactly one stage per GPU (balanced by
//! compute time), keeps parameters, gradients, and optimizer state on the
//! GPU, and therefore cannot train models whose per-GPU share exceeds GPU
//! memory — the OOM columns of Figure 5.

use mobius_mapping::Mapping;
use mobius_mip::chain_partition_dp;
use mobius_model::OPTIMIZER_BYTES_PER_PARAM;
use mobius_profiler::ModelProfile;
use mobius_sim::SimTime;

use crate::{
    evaluate_analytic, stage_costs, MemoryMode, Partition, PipelineConfig, ScheduleError,
    StageCosts, TrafficEstimate,
};

/// Result of planning a GPipe run.
#[derive(Debug, Clone, PartialEq)]
pub struct GpipePlan {
    /// The balanced one-stage-per-GPU partition.
    pub partition: Partition,
    /// Analytic step time.
    pub step_time: SimTime,
    /// Per-GPU memory requirement in bytes.
    pub mem_per_gpu: Vec<u64>,
    /// Estimated traffic (activations only; parameters never move).
    pub traffic: TrafficEstimate,
}

/// Per-GPU bytes GPipe needs resident: FP16 parameters and gradients, the
/// FP32 optimizer state, `m` checkpointed microbatch inputs, workspace, and
/// the boundary activations.
fn gpipe_memory(stage: &StageCosts, m: usize) -> u64 {
    let params = stage.param_bytes / 2; // parameter count (fp16 = 2 bytes)
    stage.param_bytes
        + stage.grad_bytes
        + params * OPTIMIZER_BYTES_PER_PARAM
        + m as u64 * stage.in_act_bytes
        + stage.workspace_bytes
        + stage.out_act_bytes
}

/// Plans and analytically evaluates GPipe on `n_gpus`.
///
/// # Errors
///
/// Returns [`ScheduleError::StageTooLarge`] when some GPU's share (with
/// optimizer state) exceeds memory — GPipe's OOM condition.
pub fn plan_gpipe(
    profile: &ModelProfile,
    n_gpus: usize,
    cfg: &PipelineConfig,
) -> Result<GpipePlan, ScheduleError> {
    assert!(n_gpus > 0, "need at least one GPU");
    // Balance stages by per-microbatch compute time.
    let weights: Vec<f64> = profile
        .layers()
        .iter()
        .map(|l| (l.fwd + l.bwd).as_secs_f64())
        .collect();
    let (mut sizes, _) = chain_partition_dp(&weights, n_gpus.min(profile.len()));
    // chain_partition_dp may use fewer parts; GPipe wants exactly n_gpus
    // when there are enough layers.
    while sizes.len() < n_gpus && sizes.iter().any(|&s| s > 1) {
        let (i, &biggest) = sizes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &s)| s)
            .expect("nonempty");
        sizes[i] = biggest / 2;
        sizes.insert(i + 1, biggest - biggest / 2);
    }
    let partition = Partition::from_sizes(sizes);
    let costs = stage_costs(profile, &partition);
    let m = cfg.num_microbatches;

    let mem_per_gpu: Vec<u64> = costs.iter().map(|c| gpipe_memory(c, m)).collect();
    for (j, &need) in mem_per_gpu.iter().enumerate() {
        if need > cfg.gpu_mem_bytes {
            return Err(ScheduleError::StageTooLarge {
                stage: j,
                required: need,
                capacity: cfg.gpu_mem_bytes,
            });
        }
    }

    let mapping = Mapping::sequential(partition.num_stages(), partition.num_stages());
    let resident_cfg = PipelineConfig {
        memory_mode: MemoryMode::Resident,
        ..*cfg
    };
    let schedule = evaluate_analytic(&costs, &mapping, &resident_cfg)?;
    Ok(GpipePlan {
        partition,
        step_time: schedule.step_time,
        mem_per_gpu,
        traffic: schedule.traffic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobius_model::{GptConfig, Model};
    use mobius_profiler::Profiler;
    use mobius_topology::GpuSpec;

    const GB: u64 = 1 << 30;

    fn cfg(m: usize) -> PipelineConfig {
        PipelineConfig::resident(m, 24 * GB, 13.1e9)
    }

    fn profile_of(c: &GptConfig, mbs: usize) -> ModelProfile {
        Profiler::new(GpuSpec::rtx3090ti()).profile(&Model::from_config(c), mbs)
    }

    #[test]
    fn gpipe_trains_3b_on_4_gpus() {
        // The paper: the 3B model is the largest GPipe can train.
        let p = profile_of(&GptConfig::gpt_3b(), 1);
        let plan = plan_gpipe(&p, 4, &cfg(4)).expect("3B fits");
        assert_eq!(plan.partition.num_stages(), 4);
        assert!(plan.step_time > SimTime::ZERO);
        assert!(plan.mem_per_gpu.iter().all(|&b| b <= 24 * GB));
    }

    #[test]
    fn gpipe_ooms_on_8b() {
        let p = profile_of(&GptConfig::gpt_8b(), 1);
        let err = plan_gpipe(&p, 4, &cfg(4)).unwrap_err();
        assert!(matches!(err, ScheduleError::StageTooLarge { .. }));
    }

    #[test]
    fn gpipe_ooms_on_everything_bigger() {
        for c in [GptConfig::gpt_15b(), GptConfig::gpt_51b()] {
            let p = profile_of(&c, 1);
            assert!(plan_gpipe(&p, 4, &cfg(4)).is_err(), "{} should OOM", c.name);
        }
    }

    #[test]
    fn no_parameter_traffic() {
        let p = profile_of(&GptConfig::gpt_3b(), 1);
        let plan = plan_gpipe(&p, 4, &cfg(4)).unwrap();
        assert_eq!(plan.traffic.upload_bytes, 0.0);
        assert_eq!(plan.traffic.grad_bytes, 0.0);
        assert!(plan.traffic.act_transfer_bytes > 0.0);
    }

    #[test]
    fn memory_includes_optimizer_state() {
        let p = profile_of(&GptConfig::gpt_3b(), 1);
        let plan = plan_gpipe(&p, 4, &cfg(4)).unwrap();
        let costs = stage_costs(&p, &plan.partition);
        for (mem, c) in plan.mem_per_gpu.iter().zip(costs.iter()) {
            // At least 8 bytes per parameter (2 fp16 + 2 grad + 12 opt per
            // param = 16 B/param = 8x the fp16 bytes).
            assert!(*mem >= 8 * c.param_bytes);
        }
    }
}
