//! Figure 7: GPU communication bandwidth CDFs of DeepSpeed and Mobius
//! across models and topologies.

use mobius::{FineTuner, System};
use mobius_model::GptConfig;
use mobius_topology::Topology;

use crate::{cdf_cells, paper_topologies, Experiment};

fn cdf_row(cfg: &GptConfig, topo: &Topology, system: System) -> Vec<String> {
    let report = FineTuner::new(cfg.clone())
        .topology(topo.clone())
        .system(system)
        .run_step()
        .expect("hetero systems train these models");
    let cells = cdf_cells(&report.bandwidth_cdf());
    let mut row = vec![cfg.name.clone(), topo.name(), report.system.label().into()];
    row.extend(cells);
    row
}

/// Regenerates Figure 7.
pub fn run(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "fig07",
        "Bandwidth CDFs: DeepSpeed vs Mobius across topologies",
        "Mobius transfers more than half its bytes above 12 GB/s (near the \
         13.1 GB/s peak); DeepSpeed moves most data below ~6 GB/s",
    )
    .columns([
        "model",
        "topology",
        "system",
        "median GB/s",
        "bytes <= half peak",
        "bytes > 12 GB/s",
    ]);
    let models = if quick {
        vec![GptConfig::gpt_15b()]
    } else {
        vec![
            GptConfig::gpt_8b(),
            GptConfig::gpt_15b(),
            GptConfig::gpt_51b(),
        ]
    };
    for cfg in &models {
        for topo in paper_topologies() {
            for system in [System::DeepSpeedHetero, System::Mobius] {
                e.push_row(cdf_row(cfg, &topo, system));
            }
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commodity;

    #[test]
    fn mobius_moves_bytes_faster_than_deepspeed() {
        let cfg = GptConfig::gpt_15b();
        let topo = commodity(&[2, 2]);
        let median = |system| {
            FineTuner::new(cfg.clone())
                .topology(topo.clone())
                .system(system)
                .run_step()
                .unwrap()
                .bandwidth_cdf()
                .median()
                .unwrap()
        };
        let mobius = median(System::Mobius);
        let deepspeed = median(System::DeepSpeedHetero);
        assert!(
            mobius > deepspeed * 1.4,
            "Mobius median {mobius:.1} GB/s vs DeepSpeed {deepspeed:.1} GB/s"
        );
    }

    #[test]
    fn deepspeed_worst_on_topo4() {
        let cfg = GptConfig::gpt_15b();
        let med = |groups: &[usize]| {
            FineTuner::new(cfg.clone())
                .topology(commodity(groups))
                .system(System::DeepSpeedHetero)
                .run_step()
                .unwrap()
                .bandwidth_cdf()
                .median()
                .unwrap()
        };
        assert!(med(&[4]) < med(&[2, 2]));
    }
}
