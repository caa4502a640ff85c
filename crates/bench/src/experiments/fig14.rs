//! Figure 14: Mobius throughput scaling from 2 to 8 GPUs (15B model,
//! microbatch size 1, batch grows with the GPU count, half the GPUs per
//! root complex).

use mobius::{FineTuner, System};
use mobius_model::GptConfig;

use crate::{commodity, fmt_secs, Experiment};

/// Samples-per-second throughput at `n` GPUs.
pub fn throughput(n: usize) -> f64 {
    let half = n / 2;
    let groups: Vec<usize> = if half == 0 {
        vec![n]
    } else {
        vec![half, n - half]
    };
    let step = FineTuner::new(GptConfig::gpt_15b())
        .topology(commodity(&groups))
        .system(System::Mobius)
        .microbatch_size(1)
        .num_microbatches(n)
        .run_step()
        .expect("Mobius scales on the 15B model")
        .step_time
        .as_secs_f64();
    n as f64 / step
}

/// Regenerates Figure 14.
pub fn run(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "fig14",
        "Scalability: throughput from 2 to 8 GPUs (15B)",
        "Mobius scales ~linearly with GPU count (the paper reports slightly \
         super-linear); odd GPU counts dip because the two root complexes \
         are unevenly loaded",
    )
    .columns(["GPUs", "step time", "samples/s", "vs linear from N=2"]);
    let counts: Vec<usize> = if quick {
        vec![2, 4, 8]
    } else {
        (2..=8).collect()
    };
    let base = throughput(2) / 2.0;
    for &n in &counts {
        let t = throughput(n);
        e.push_row([
            n.to_string(),
            fmt_secs(n as f64 / t),
            format!("{t:.3}"),
            format!("{:.0}%", t / (base * n as f64) * 100.0),
        ]);
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_linear_scaling() {
        let t2 = throughput(2);
        let t8 = throughput(8);
        let efficiency = (t8 / t2) / 4.0;
        assert!(
            efficiency > 0.75,
            "8-GPU efficiency vs 2 GPUs is only {:.0}%",
            efficiency * 100.0
        );
        assert!(t8 > 2.5 * t2, "throughput must grow substantially");
    }

    #[test]
    fn uneven_split_dips() {
        // Per-GPU throughput at N=5 (2+3 split) is below N=4 (2+2).
        let t4 = throughput(4) / 4.0;
        let t5 = throughput(5) / 5.0;
        assert!(t5 < t4 * 1.02, "expected a dip at N=5: {t5:.3} vs {t4:.3}");
    }
}
