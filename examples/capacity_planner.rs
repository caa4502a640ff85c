//! Capacity planner: the workload of a team lead budgeting a fine-tuning
//! job. Given a model and a per-step latency target, sweep candidate rigs
//! (commodity 4-GPU, commodity 8-GPU, NVLink DC box), pick the systems that
//! fit, and rank by price per step — the Figure 15 trade-off turned into a
//! decision procedure.
//!
//! Run with `cargo run --release --example capacity_planner [model]`
//! (model: any `mobius::parse_model` preset, e.g. 8b / llama13b; default
//! 15b).

use mobius::{FineTuner, RunError, System};
use mobius_model::{GptConfig, Model};
use mobius_topology::{GpuSpec, Topology};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "15b".into());
    let model =
        mobius::parse_model(&which).unwrap_or_else(|| Model::from_config(&GptConfig::gpt_15b()));
    let target_step_secs = 5.0;
    println!(
        "planning for {} ({:.1}B params), target <= {target_step_secs:.0}s per step\n",
        model.config().name,
        model.total_params() as f64 / 1e9,
    );

    let rigs: Vec<(&str, Topology)> = vec![
        (
            "4x3090-Ti (2+2)",
            Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]),
        ),
        (
            "8x3090-Ti (4+4)",
            Topology::commodity(GpuSpec::rtx3090ti(), &[4, 4]),
        ),
        ("4xV100 NVLink", Topology::data_center(GpuSpec::v100(), 4)),
    ];

    struct Candidate {
        rig: &'static str,
        system: &'static str,
        step: f64,
        price: f64,
        meets_target: bool,
    }
    let mut candidates: Vec<Candidate> = Vec::new();

    for (rig, topo) in &rigs {
        for system in [System::Mobius, System::DeepSpeedHetero, System::ZeroOffload] {
            let run = FineTuner::from_model(model.clone())
                .topology(topo.clone())
                .system(system)
                .run_step();
            match run {
                Ok(r) => candidates.push(Candidate {
                    rig,
                    system: r.system.label(),
                    step: r.step_time.as_secs_f64(),
                    price: r.price_usd,
                    meets_target: r.step_time.as_secs_f64() <= target_step_secs,
                }),
                Err(RunError::OutOfMemory(_)) => {
                    println!("{rig:<18} {:<18} OOM", system.label())
                }
                Err(e) => println!("{rig:<18} {:<18} error: {e}", system.label()),
            }
        }
    }

    candidates.sort_by(|a, b| a.price.total_cmp(&b.price));
    println!(
        "\n{:<18} {:<18} {:>9} {:>11} {:>8}",
        "rig", "system", "step", "$/step", "target"
    );
    for c in &candidates {
        println!(
            "{:<18} {:<18} {:>8.2}s {:>11.4} {:>8}",
            c.rig,
            c.system,
            c.step,
            c.price,
            if c.meets_target { "ok" } else { "miss" }
        );
    }
    if let Some(winner) = candidates.iter().find(|c| c.meets_target) {
        println!(
            "\ncheapest configuration meeting the target: {} on {} \
             (${:.4}/step, {:.2}s/step)",
            winner.system, winner.rig, winner.price, winner.step
        );
    } else {
        println!("\nno configuration meets the target; consider more GPUs.");
    }
}
