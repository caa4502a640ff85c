//! Figure 8: proportion of per-step time that is communication not
//! overlapped by computation.

use mobius::{FineTuner, System};
use mobius_model::GptConfig;
use mobius_topology::Topology;

use crate::{paper_topologies, Experiment};

fn fraction(cfg: &GptConfig, topo: &Topology, system: System) -> f64 {
    FineTuner::new(cfg.clone())
        .topology(topo.clone())
        .system(system)
        .run_step()
        .expect("hetero systems train these models")
        .non_overlapped_fraction()
}

/// Regenerates Figure 8.
pub fn run(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "fig08",
        "Non-overlapped communication proportion",
        "Mobius reduces the non-overlapped communication share by up to \
         46 percentage points vs DeepSpeed; the overlap is best on Topo 2+2",
    )
    .columns(["model", "topology", "DeepSpeed", "Mobius", "reduction"]);
    let models = if quick {
        vec![GptConfig::gpt_15b()]
    } else {
        vec![GptConfig::gpt_15b(), GptConfig::gpt_51b()]
    };
    for cfg in &models {
        for topo in paper_topologies() {
            let ds = fraction(cfg, &topo, System::DeepSpeedHetero);
            let mb = fraction(cfg, &topo, System::Mobius);
            e.push_row([
                cfg.name.clone(),
                topo.name(),
                format!("{:.0}%", ds * 100.0),
                format!("{:.0}%", mb * 100.0),
                format!("{:.0}pp", (ds - mb) * 100.0),
            ]);
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commodity;

    #[test]
    fn mobius_overlaps_much_more() {
        let cfg = GptConfig::gpt_15b();
        let topo = commodity(&[2, 2]);
        let ds = fraction(&cfg, &topo, System::DeepSpeedHetero);
        let mb = fraction(&cfg, &topo, System::Mobius);
        assert!(
            ds - mb > 0.3,
            "expected >30pp reduction, got DS {ds:.2} vs Mobius {mb:.2}"
        );
    }

    #[test]
    fn mobius_overlap_best_on_2_plus_2() {
        let cfg = GptConfig::gpt_15b();
        let relaxed = fraction(&cfg, &commodity(&[2, 2]), System::Mobius);
        let contended = fraction(&cfg, &commodity(&[4]), System::Mobius);
        assert!(relaxed < contended);
    }
}
