//! Figure 11: bandwidth CDFs under cross vs sequential mapping.

use mobius::{FineTuner, System};
use mobius_mapping::MappingAlgo;
use mobius_model::GptConfig;
use mobius_sim::Cdf;

use crate::{cdf_cells, commodity, Experiment};

fn cdf(cfg: &GptConfig, mbs: usize, algo: MappingAlgo) -> Cdf {
    FineTuner::new(cfg.clone())
        .topology(commodity(&[4, 4]))
        .system(System::Mobius)
        .mapping_algo(algo)
        .microbatch_size(mbs)
        .run_step()
        .expect("Mobius trains these models on 8 GPUs")
        .bandwidth_cdf()
}

/// Regenerates Figure 11.
pub fn run(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "fig11",
        "Bandwidth CDFs: cross vs sequential mapping",
        "with cross mapping more data is transferred at higher bandwidth",
    )
    .columns([
        "model",
        "mbs",
        "mapping",
        "median GB/s",
        "bytes <= half peak",
        "bytes > 12 GB/s",
    ]);
    let sweeps: Vec<(GptConfig, Vec<usize>)> = if quick {
        vec![(GptConfig::gpt_15b(), vec![1])]
    } else {
        vec![
            (GptConfig::gpt_8b(), vec![2, 4, 8]),
            (GptConfig::gpt_15b(), vec![1, 2, 3]),
        ]
    };
    for (cfg, mbss) in sweeps {
        for mbs in mbss {
            for (label, algo) in [
                ("sequential", MappingAlgo::Sequential),
                ("cross", MappingAlgo::Cross),
            ] {
                let c = cdf(&cfg, mbs, algo);
                let cells = cdf_cells(&c);
                let mut row = vec![cfg.name.clone(), mbs.to_string(), label.to_string()];
                row.extend(cells);
                e.push_row(row);
            }
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_moves_more_bytes_fast_when_contended() {
        // The clearest case (matching the paper's Figure 11): 15B at
        // microbatch size 1, where sequential mapping's prefetches collide.
        let cfg = GptConfig::gpt_15b();
        let seq = cdf(&cfg, 1, MappingAlgo::Sequential);
        let cross = cdf(&cfg, 1, MappingAlgo::Cross);
        let (s_med, c_med) = (seq.median().unwrap(), cross.median().unwrap());
        assert!(
            c_med > s_med,
            "cross median {c_med:.1} GB/s should beat sequential {s_med:.1} GB/s"
        );
        // And fewer bytes crawl at <= half the root-complex peak.
        assert!(cross.fraction_at(6.55) < seq.fraction_at(6.55));
    }
}
