//! Multi-step steady state (extension): the paper reports per-step times;
//! this table shows how the first step compares to the steady state once
//! cross-step prefetching and gradient-flush gating are in play.

use mobius::{FineTuner, System};
use mobius_model::GptConfig;

use crate::{commodity, fmt_secs, Experiment};

/// First-step and steady-state durations over a `k`-step run.
fn first_vs_steady(cfg: &GptConfig, system: System, quick: bool) -> (f64, f64) {
    let k = if quick { 3 } else { 5 };
    let rep = FineTuner::new(cfg.clone())
        .topology(commodity(&[2, 2]))
        .system(system)
        .run_steps(k)
        .expect("pipeline systems support multi-step runs");
    (
        rep.step_duration(0).as_secs_f64(),
        rep.steady_state_step().as_secs_f64(),
    )
}

/// Runs the steady-state table.
pub fn run(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "steady_state",
        "First step vs steady state over consecutive steps",
        "(extension) Mobius's next-step uploads prefetch during the current \
         backward tail but wait for each stage's gradient flush; GPipe \
         steps are identical by construction",
    )
    .columns(["model", "system", "first step", "steady step", "ratio"]);
    let models = if quick {
        vec![GptConfig::gpt_15b()]
    } else {
        vec![GptConfig::gpt_8b(), GptConfig::gpt_15b()]
    };
    for cfg in &models {
        {
            let system = System::Mobius;
            let (first, steady) = first_vs_steady(cfg, system, quick);
            e.push_row([
                cfg.name.clone(),
                system.label().to_string(),
                fmt_secs(first),
                fmt_secs(steady),
                format!("{:.2}", steady / first),
            ]);
        }
    }
    // GPipe on the 3B model (the only one it can hold).
    let (first, steady) = first_vs_steady(&GptConfig::gpt_3b(), System::Gpipe, quick);
    e.push_row([
        "3B".to_string(),
        "GPipe".to_string(),
        fmt_secs(first),
        fmt_secs(steady),
        format!("{:.2}", steady / first),
    ]);
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpipe_steps_are_identical() {
        let (first, steady) = first_vs_steady(&GptConfig::gpt_3b(), System::Gpipe, true);
        assert!(
            (steady / first - 1.0).abs() < 0.02,
            "GPipe first {first:.3}s vs steady {steady:.3}s"
        );
    }

    #[test]
    fn mobius_steady_state_is_bounded() {
        let (first, steady) = first_vs_steady(&GptConfig::gpt_15b(), System::Mobius, true);
        let ratio = steady / first;
        assert!(
            (0.8..1.3).contains(&ratio),
            "steady/first ratio {ratio:.2} out of band"
        );
    }
}
