//! Schedule-family comparison (extension): GPipe's all-forward-then-all-
//! backward vs 1F1B (PipeDream-flush) for resident pipelines — same
//! synchronous semantics and bubble structure, far lower activation
//! residency (the related-work trade-off the paper cites in §5).

use mobius_mapping::Mapping;
use mobius_model::{GptConfig, Model};
use mobius_pipeline::{
    evaluate_1f1b, evaluate_analytic, plan_gpipe, stage_costs, MemoryMode, PipelineConfig,
};
use mobius_profiler::Profiler;
use mobius_topology::GpuSpec;

use crate::{fmt_secs, Experiment};

/// GPipe vs 1F1B on the 3B model (the one that fits residently): step time
/// and peak activation bytes of stage 0 for `m` microbatches.
pub fn compare(m: usize) -> (f64, f64, u64, u64) {
    let model = Model::from_config(&GptConfig::gpt_3b());
    let profile = Profiler::new(GpuSpec::rtx3090ti()).profile(&model, 1);
    let cfg = PipelineConfig {
        memory_mode: MemoryMode::Resident,
        ..PipelineConfig::mobius(m, 24 * (1u64 << 30), 13.1e9)
    };
    let plan = plan_gpipe(&profile, 4, &cfg).expect("3B fits residently");
    let stages = stage_costs(&profile, &plan.partition);
    let mapping = Mapping::sequential(4, 4);

    let gpipe = evaluate_analytic(&stages, &mapping, &cfg).expect("gpipe evaluates");
    let ours = evaluate_1f1b(&stages, m, cfg.act_latency);

    let gpipe_act: u64 = m as u64 * stages[1].in_act_bytes;
    let ours_act = ours.act_memory_bytes(&stages, 1);
    (
        gpipe.step_time.as_secs_f64(),
        ours.step_time.as_secs_f64(),
        gpipe_act,
        ours_act,
    )
}

/// Runs the schedule comparison table.
pub fn run(_quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "schedules",
        "GPipe vs 1F1B for resident pipelines (3B, 4 GPUs)",
        "(extension) 1F1B keeps the synchronous update and bubble fraction \
         of GPipe while capping per-stage in-flight activations at the \
         pipeline depth instead of the microbatch count",
    )
    .columns([
        "microbatches",
        "GPipe step",
        "1F1B step",
        "GPipe act mem (stage 1)",
        "1F1B act mem (stage 1)",
    ]);
    for m in [4usize, 8, 16] {
        let (g, o, ga, oa) = compare(m);
        e.push_row([
            m.to_string(),
            fmt_secs(g),
            fmt_secs(o),
            format!("{:.0} MB", ga as f64 / 1e6),
            format!("{:.0} MB", oa as f64 / 1e6),
        ]);
    }
    e.note(
        "at 16 microbatches 1F1B holds 4x fewer checkpointed activations \
         while matching the step time — headroom Mobius could spend on \
         bigger stages"
            .to_string(),
    );
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_advantage_grows_with_microbatches() {
        let (_, _, g4, o4) = compare(4);
        let (_, _, g16, o16) = compare(16);
        assert!(o4 <= g4);
        assert!(o16 < g16, "1F1B must save memory at m=16");
        // GPipe's residency grows with m; 1F1B's does not.
        assert!(g16 == 4 * g4);
        assert_eq!(o16, o4);
    }

    #[test]
    fn step_times_comparable() {
        let (g, o, _, _) = compare(8);
        assert!(
            (o / g - 1.0).abs() < 0.15,
            "1F1B {o:.2}s should be close to GPipe {g:.2}s"
        );
    }
}
