//! Figure 15: per-step time and price of DeepSpeed and Mobius on the
//! data-center (4×V100 NVLink) and commodity (4×3090-Ti) servers.

use mobius::{FineTuner, StepReport, System};
use mobius_model::GptConfig;
use mobius_topology::Topology;

use crate::{commodity, data_center, fmt_secs, Experiment};

/// One (system, server) cell of the figure.
pub fn run_one(cfg: &GptConfig, topo: &Topology, system: System) -> StepReport {
    FineTuner::new(cfg.clone())
        .topology(topo.clone())
        .system(system)
        .microbatch_size(2)
        .run_step()
        .expect("hetero systems run on both servers")
}

/// Regenerates Figure 15 (a: time, b: price).
pub fn run(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "fig15",
        "Data-center vs commodity: per-step time and price",
        "DeepSpeed wins on the NVLink server (all-to-all loves NVLink); \
         Mobius on the commodity server is ~42% slower than DeepSpeed-DC \
         but ~43% cheaper per step",
    )
    .columns(["model", "system", "server", "step time", "price/step"]);
    let models = if quick {
        vec![GptConfig::gpt_8b()]
    } else {
        vec![GptConfig::gpt_8b(), GptConfig::gpt_15b()]
    };
    for cfg in &models {
        for (server, topo) in [("DC", data_center()), ("commodity", commodity(&[2, 2]))] {
            for system in [System::DeepSpeedHetero, System::Mobius] {
                let r = run_one(cfg, &topo, system);
                e.push_row([
                    cfg.name.clone(),
                    r.system.label().to_string(),
                    server.to_string(),
                    fmt_secs(r.step_time.as_secs_f64()),
                    format!("${:.4}", r.price_usd),
                ]);
            }
        }
    }
    e.note(
        "prices: P3.8xlarge at $12.24/h (DC) vs a rented 4x3090-Ti at $5/h \
         (commodity)"
            .to_string(),
    );
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deepspeed_wins_on_nvlink() {
        let cfg = GptConfig::gpt_8b();
        let dc = data_center();
        let ds = run_one(&cfg, &dc, System::DeepSpeedHetero);
        let mb = run_one(&cfg, &dc, System::Mobius);
        assert!(
            ds.step_time <= mb.step_time,
            "on NVLink DeepSpeed ({}) should beat Mobius ({})",
            ds.step_time,
            mb.step_time
        );
    }

    #[test]
    fn both_faster_on_the_dc_server() {
        let cfg = GptConfig::gpt_8b();
        for system in [System::DeepSpeedHetero, System::Mobius] {
            let dc = run_one(&cfg, &data_center(), system);
            let c = run_one(&cfg, &commodity(&[2, 2]), system);
            assert!(
                dc.step_time < c.step_time,
                "{:?} should speed up on NVLink",
                system
            );
        }
    }

    #[test]
    fn mobius_commodity_trades_time_for_price() {
        let cfg = GptConfig::gpt_8b();
        let ds_dc = run_one(&cfg, &data_center(), System::DeepSpeedHetero);
        let mb_c = run_one(&cfg, &commodity(&[2, 2]), System::Mobius);
        assert!(mb_c.step_time > ds_dc.step_time, "slower on commodity");
        assert!(
            mb_c.price_usd < ds_dc.price_usd,
            "but cheaper per step: ${:.4} vs ${:.4}",
            mb_c.price_usd,
            ds_dc.price_usd
        );
    }
}
