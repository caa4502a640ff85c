//! Figure 6: communication traffic of DeepSpeed and Mobius for the 8B,
//! 15B and 51B models, against the model-parameter size.

use mobius::{FineTuner, StepReport, System};
use mobius_model::GptConfig;

use crate::{commodity, fmt_gb, fmt_x, Experiment};

fn run_one(cfg: &GptConfig, system: System) -> StepReport {
    FineTuner::new(cfg.clone())
        .topology(commodity(&[2, 2]))
        .system(system)
        .run_step()
        .expect("both systems train these models")
}

/// Regenerates Figure 6.
pub fn run(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "fig06",
        "Communication traffic vs model size",
        "DeepSpeed moves ~7.3x the model size per step, Mobius ~1.8x \
         (model size = FP32 parameter bytes, the red line)",
    )
    .columns([
        "model",
        "fp32 params",
        "DeepSpeed traffic",
        "Mobius traffic",
        "DS ratio",
        "Mobius ratio",
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
        let ds = run_one(cfg, System::DeepSpeedHetero);
        let mb = run_one(cfg, System::Mobius);
        // The paper's "model size" reference is the FP32 parameter bytes
        // (2x the FP16 bytes the GPUs actually move).
        let fp32 = 2.0 * ds.model_size_bytes as f64;
        e.push_row([
            cfg.name.clone(),
            fmt_gb(fp32),
            fmt_gb(ds.traffic_total()),
            fmt_gb(mb.traffic_total()),
            fmt_x(ds.traffic_total() / fp32),
            fmt_x(mb.traffic_total() / fp32),
        ]);
    }
    e.note(
        "ratios are per-step traffic divided by FP32 parameter bytes; \
         paper: 7.3x vs 1.8x"
            .to_string(),
    );
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_match_paper_shape() {
        let cfg = GptConfig::gpt_8b();
        let ds = run_one(&cfg, System::DeepSpeedHetero);
        let mb = run_one(&cfg, System::Mobius);
        let fp32 = 2.0 * ds.model_size_bytes as f64;
        let ds_ratio = ds.traffic_total() / fp32;
        let mb_ratio = mb.traffic_total() / fp32;
        // Paper: 7.3x vs 1.8x. Accept the right ballpark.
        assert!(
            (5.0..9.5).contains(&ds_ratio),
            "DeepSpeed ratio {ds_ratio:.2} out of band"
        );
        assert!(
            (1.0..2.6).contains(&mb_ratio),
            "Mobius ratio {mb_ratio:.2} out of band"
        );
        assert!(ds_ratio / mb_ratio > 3.0);
    }
}
