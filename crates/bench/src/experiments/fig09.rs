//! Figure 9: per-step time under the three partition algorithms
//! (MIP vs maximum-stage vs minimum-stage), Topo 2+2.

use mobius::{FineTuner, System};
use mobius_model::GptConfig;
use mobius_pipeline::PartitionAlgo;

use crate::{commodity, Experiment};

/// Step time in seconds for one partition algorithm.
pub fn step_secs(cfg: &GptConfig, mbs: usize, algo: PartitionAlgo) -> f64 {
    FineTuner::new(cfg.clone())
        .topology(commodity(&[2, 2]))
        .system(System::Mobius)
        .partition_algo(algo)
        .microbatch_size(mbs)
        .run_step()
        .expect("all partition algorithms are feasible here")
        .step_time
        .as_secs_f64()
}

/// The paper's microbatch sweeps for this figure.
pub fn sweeps(quick: bool) -> Vec<(GptConfig, Vec<usize>)> {
    if quick {
        vec![(GptConfig::gpt_8b(), vec![2, 8])]
    } else {
        vec![
            (GptConfig::gpt_8b(), vec![2, 4, 8]),
            (GptConfig::gpt_15b(), vec![1, 2, 3]),
        ]
    }
}

/// Regenerates Figure 9 (normalized to the MIP algorithm).
pub fn run(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "fig09",
        "Partition algorithms: MIP vs max-stage vs min-stage",
        "MIP cuts step time by up to 51% vs the heuristics; max-stage is \
         worst (no prefetch headroom); min-stage converges to MIP when a \
         GPU can hold only one block / at large microbatches",
    )
    .columns(["model", "mbs", "MIP", "max-stage", "min-stage"]);
    for (cfg, mbss) in sweeps(quick) {
        for mbs in mbss {
            let mip = step_secs(&cfg, mbs, PartitionAlgo::Mip);
            let maxs = step_secs(&cfg, mbs, PartitionAlgo::MaxStage);
            let mins = step_secs(&cfg, mbs, PartitionAlgo::MinStage);
            e.push_row([
                cfg.name.clone(),
                mbs.to_string(),
                "1.00".to_string(),
                format!("{:.2}", maxs / mip),
                format!("{:.2}", mins / mip),
            ]);
        }
    }
    e.note("values are per-step time normalized to the MIP partition".to_string());
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_stage_is_much_worse() {
        let cfg = GptConfig::gpt_8b();
        let mip = step_secs(&cfg, 2, PartitionAlgo::Mip);
        let maxs = step_secs(&cfg, 2, PartitionAlgo::MaxStage);
        assert!(
            maxs / mip > 1.4,
            "max-stage should lose badly: {:.2}x",
            maxs / mip
        );
    }

    #[test]
    fn mip_at_least_matches_min_stage() {
        let cfg = GptConfig::gpt_8b();
        for mbs in [2usize, 8] {
            let mip = step_secs(&cfg, mbs, PartitionAlgo::Mip);
            let mins = step_secs(&cfg, mbs, PartitionAlgo::MinStage);
            // The MIP objective is the analytic model; allow a hair of
            // planner/simulator mismatch.
            assert!(
                mip <= mins * 1.02,
                "mbs {mbs}: MIP {mip:.3}s vs min-stage {mins:.3}s"
            );
        }
    }

    #[test]
    fn min_stage_converges_to_mip_at_large_mbs() {
        let cfg = GptConfig::gpt_8b();
        let gap_small =
            step_secs(&cfg, 2, PartitionAlgo::MinStage) / step_secs(&cfg, 2, PartitionAlgo::Mip);
        let gap_large =
            step_secs(&cfg, 8, PartitionAlgo::MinStage) / step_secs(&cfg, 8, PartitionAlgo::Mip);
        assert!(
            gap_large <= gap_small + 0.02,
            "gap should shrink with mbs: small {gap_small:.3} large {gap_large:.3}"
        );
    }
}
