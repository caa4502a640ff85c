//! The memory-capability ladder across all five systems (extends Figure 5
//! with the related-work ZeRO-Offload baseline, paper §5): which systems
//! can train which model on a 4×24 GiB server, and at what step time.

use mobius::{FineTuner, RunError, System};
use mobius_model::GptConfig;

use crate::{commodity, fmt_secs, Experiment};

const SYSTEMS: [System; 5] = [
    System::Gpipe,
    System::DeepSpeedPipeline,
    System::ZeroOffload,
    System::DeepSpeedHetero,
    System::Mobius,
];

/// Step time in seconds, or `None` for OOM (Topo 2+2).
pub fn step_secs(cfg: &GptConfig, system: System) -> Option<f64> {
    match FineTuner::new(cfg.clone())
        .topology(commodity(&[2, 2]))
        .system(system)
        .run_step()
    {
        Ok(r) => Some(r.step_time.as_secs_f64()),
        Err(RunError::OutOfMemory(_)) => None,
        Err(e) => panic!("unexpected failure: {e}"),
    }
}

/// Runs the ladder table.
pub fn run(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "baselines",
        "Memory-capability ladder across five systems (Topo 2+2)",
        "trainable scale: GPipe/DS-pipeline <= aggregated GPU memory with \
         optimizer; ZeRO-Offload <= one GPU's parameters; ZeRO-3 offload \
         and Mobius <= DRAM (paper §5 related work)",
    )
    .columns([
        "model",
        "GPipe",
        "DS-pipeline",
        "ZeRO-Offload",
        "DS-hetero",
        "Mobius",
    ]);
    let models = if quick {
        vec![
            GptConfig::gpt_3b(),
            GptConfig::gpt_8b(),
            GptConfig::gpt_15b(),
        ]
    } else {
        GptConfig::table3()
    };
    for cfg in &models {
        let mut row = vec![cfg.name.clone()];
        for &s in &SYSTEMS {
            row.push(step_secs(cfg, s).map_or("OOM".into(), fmt_secs));
        }
        e.push_row(row);
    }
    e.note(
        "each rung of the ladder unlocks larger models; Mobius matches the \
         hetero-memory reach at a fraction of the step time"
            .to_string(),
    );
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_shape() {
        // 3B: everyone. 8B: offload + hetero. 15B: hetero only.
        assert!(step_secs(&GptConfig::gpt_3b(), System::Gpipe).is_some());
        assert!(step_secs(&GptConfig::gpt_8b(), System::Gpipe).is_none());
        assert!(step_secs(&GptConfig::gpt_8b(), System::ZeroOffload).is_some());
        assert!(step_secs(&GptConfig::gpt_15b(), System::ZeroOffload).is_none());
        assert!(step_secs(&GptConfig::gpt_15b(), System::Mobius).is_some());
    }

    #[test]
    fn offload_between_zero3_and_mobius_on_8b() {
        let cfg = GptConfig::gpt_8b();
        let offload = step_secs(&cfg, System::ZeroOffload).unwrap();
        let zero3 = step_secs(&cfg, System::DeepSpeedHetero).unwrap();
        assert!(
            offload < zero3,
            "resident params must beat per-layer gathers: {offload:.2} vs {zero3:.2}"
        );
    }
}
