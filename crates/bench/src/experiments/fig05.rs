//! Figure 5: per-step time of GPipe, DeepSpeed (both modes) and Mobius for
//! the four Table 3 models across three GPU topologies.

use mobius::{FineTuner, RunError, System};
use mobius_model::GptConfig;
use mobius_topology::Topology;

use crate::{fmt_secs, paper_topologies, Experiment};

const SYSTEMS: [System; 4] = [
    System::Gpipe,
    System::DeepSpeedPipeline,
    System::DeepSpeedHetero,
    System::Mobius,
];

/// Step time in seconds, or `None` for OOM.
pub fn step_secs(cfg: &GptConfig, topo: &Topology, system: System) -> Option<f64> {
    let run = FineTuner::new(cfg.clone())
        .topology(topo.clone())
        .system(system)
        .run_step();
    match run {
        Ok(r) => Some(r.step_time.as_secs_f64()),
        Err(RunError::OutOfMemory(_)) => None,
        Err(e) => panic!("unexpected failure for {} / {system:?}: {e}", cfg.name),
    }
}

/// Regenerates Figure 5. In quick mode the 51B model is skipped.
pub fn run(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "fig05",
        "Per-step time: GPipe / DS-pipeline / DS-hetero / Mobius",
        "GPipe and DS-pipeline OOM beyond 3B; Mobius beats DS-hetero by \
         3.8-5.1x, with the largest gains under the most contended topology \
         (Topo 4); Mobius stays nearly stable across topologies",
    )
    .columns([
        "model",
        "topology",
        "GPipe",
        "DS-pipeline",
        "DS-hetero",
        "Mobius",
        "speedup",
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
        for topo in paper_topologies() {
            let cells: Vec<Option<f64>> =
                SYSTEMS.iter().map(|&s| step_secs(cfg, &topo, s)).collect();
            let speedup = match (cells[2], cells[3]) {
                (Some(ds), Some(mb)) => format!("{:.2}x", ds / mb),
                _ => "-".into(),
            };
            let mut row = vec![cfg.name.clone(), topo.name()];
            row.extend(cells.iter().map(|c| c.map_or("OOM".to_string(), fmt_secs)));
            row.push(speedup);
            e.push_row(row);
        }
    }
    e.note("speedup = DS-hetero / Mobius per-step time".to_string());
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commodity;

    #[test]
    fn ooms_match_paper() {
        let topo = commodity(&[2, 2]);
        assert!(step_secs(&GptConfig::gpt_3b(), &topo, System::Gpipe).is_some());
        assert!(step_secs(&GptConfig::gpt_8b(), &topo, System::Gpipe).is_none());
        assert!(step_secs(&GptConfig::gpt_8b(), &topo, System::DeepSpeedPipeline).is_none());
        assert!(step_secs(&GptConfig::gpt_8b(), &topo, System::DeepSpeedHetero).is_some());
    }

    #[test]
    fn mobius_wins_more_under_contention() {
        let cfg = GptConfig::gpt_15b();
        let speedup = |groups: &[usize]| {
            let topo = commodity(groups);
            let ds = step_secs(&cfg, &topo, System::DeepSpeedHetero).unwrap();
            let mb = step_secs(&cfg, &topo, System::Mobius).unwrap();
            ds / mb
        };
        let contended = speedup(&[4]);
        let relaxed = speedup(&[2, 2]);
        assert!(
            contended > relaxed,
            "Topo 4 speedup {contended:.2} should exceed Topo 2+2 {relaxed:.2}"
        );
        assert!(relaxed > 2.5, "headline speedup too small: {relaxed:.2}");
    }

    #[test]
    fn mobius_stable_across_topologies() {
        let cfg = GptConfig::gpt_8b();
        let t4 = step_secs(&cfg, &commodity(&[4]), System::Mobius).unwrap();
        let t22 = step_secs(&cfg, &commodity(&[2, 2]), System::Mobius).unwrap();
        // "Almost stable": within ~40% between best and worst topology,
        // versus DeepSpeed's ~2x swing.
        assert!(t4 / t22 < 1.45, "Mobius swing too large: {:.2}", t4 / t22);
        let d4 = step_secs(&cfg, &commodity(&[4]), System::DeepSpeedHetero).unwrap();
        let d22 = step_secs(&cfg, &commodity(&[2, 2]), System::DeepSpeedHetero).unwrap();
        assert!(d4 / d22 > t4 / t22, "DeepSpeed should swing more");
    }
}
