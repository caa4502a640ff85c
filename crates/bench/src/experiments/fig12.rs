//! Figure 12: planning overhead — profiling, MIP solving, cross mapping.

use mobius::FineTuner;
use mobius_model::GptConfig;

use crate::{commodity, fmt_secs, Experiment};

/// Regenerates Figure 12 on the Topo 1+3 server, as in the paper.
pub fn run(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "fig12",
        "Planning overheads: profiling, MIP solve, cross mapping",
        "overheads are seconds — negligible against hours-to-days of \
         fine-tuning; 8B and 15B profile in similar time thanks to layer \
         similarity; smaller hidden sizes inflate the MIP search space",
    )
    .columns([
        "model",
        "profiling (similarity)",
        "profiling (naive)",
        "MIP solve",
        "cross mapping",
    ]);
    let models = if quick {
        vec![GptConfig::gpt_8b(), GptConfig::gpt_15b()]
    } else {
        vec![
            GptConfig::gpt_8b(),
            GptConfig::gpt_15b(),
            GptConfig::gpt_51b(),
        ]
    };
    for cfg in &models {
        let tuner = FineTuner::new(cfg.clone()).topology(commodity(&[1, 3]));
        let plan = tuner.plan().expect("planning succeeds");
        // Naive profiling time for the comparison column.
        let model = mobius_model::Model::from_config(cfg);
        let profiler = mobius_profiler::Profiler::new(mobius_topology::GpuSpec::rtx3090ti());
        let naive = profiler.profiling_time(&model, cfg.default_microbatch, false);
        e.push_row([
            cfg.name.clone(),
            fmt_secs(plan.overheads.profiling.as_secs_f64()),
            fmt_secs(naive.as_secs_f64()),
            // Explicit .secs() escape: Figure 12 is the one table documented
            // as machine-dependent wall-clock (see the note below).
            fmt_secs(plan.overheads.mip_solve_wall.secs()),
            fmt_secs(plan.overheads.cross_map_wall.secs()),
        ]);
    }
    e.note(
        "profiling columns are modelled hardware time; MIP solve and cross \
         mapping are measured wall-clock of this implementation"
            .to_string(),
    );
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobius_model::Model;
    use mobius_profiler::Profiler;
    use mobius_topology::GpuSpec;

    #[test]
    fn overheads_are_seconds_not_hours() {
        let plan = FineTuner::new(GptConfig::gpt_8b())
            .topology(commodity(&[1, 3]))
            .plan()
            .unwrap();
        assert!(plan.overheads.profiling.as_secs_f64() < 300.0);
        assert!(plan.overheads.mip_solve_wall.secs() < 30.0);
        assert!(plan.overheads.cross_map_wall.secs() < 5.0);
    }

    #[test]
    fn profiling_similarity_insensitive_to_depth() {
        // The paper: 8B and 15B have close profiling times because only
        // distinct layers are profiled.
        let p = Profiler::new(GpuSpec::rtx3090ti());
        let t8 = p.profiling_time(&Model::from_config(&GptConfig::gpt_8b()), 1, true);
        let t15 = p.profiling_time(&Model::from_config(&GptConfig::gpt_15b()), 1, true);
        let ratio = t15.as_secs_f64() / t8.as_secs_f64();
        assert!((0.4..2.5).contains(&ratio), "ratio {ratio:.2}");
    }
}
