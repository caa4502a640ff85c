//! Ablations of Mobius's design choices beyond the paper's own figures:
//!
//! * **prefetch off** — every stage load blocks computation (§3.1's
//!   overlap design removed);
//! * **priorities off** — prefetches share bandwidth fairly instead of the
//!   §3.3 earliest-stage-first priorities;
//! * **SSD offload tier** — the paper confines offload to DRAM because SSD
//!   bandwidth bottlenecks a single server; this sweep measures exactly
//!   that claim.

use mobius::{FineTuner, System};
use mobius_model::GptConfig;
use mobius_topology::{GpuSpec, Topology};

use crate::{commodity, fmt_secs, Experiment};

fn base(cfg: &GptConfig) -> FineTuner {
    FineTuner::new(cfg.clone())
        .topology(commodity(&[2, 2]))
        .system(System::Mobius)
}

/// Step time with one design knob changed.
pub fn variants(cfg: &GptConfig) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let full = base(cfg).run_step().unwrap().step_time.as_secs_f64();
    out.push(("Mobius (full)".into(), full));
    let no_prefetch = base(cfg)
        .prefetch(false)
        .run_step()
        .unwrap()
        .step_time
        .as_secs_f64();
    out.push(("- prefetch".into(), no_prefetch));
    let no_prio = base(cfg)
        .prioritized_loads(false)
        .run_step()
        .unwrap()
        .step_time
        .as_secs_f64();
    out.push(("- load priorities".into(), no_prio));
    for ssd in [7.0, 3.0, 1.5] {
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]).with_ssd_offload(ssd);
        let t = FineTuner::new(cfg.clone())
            .topology(topo)
            .system(System::Mobius)
            .run_step()
            .unwrap()
            .step_time
            .as_secs_f64();
        out.push((format!("SSD offload @ {ssd} GB/s"), t));
    }
    out
}

/// Runs the ablation table.
pub fn run(_quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "ablations",
        "Design-choice ablations (15B, Topo 2+2)",
        "prefetching is the core of Mobius's overlap; DRAM (not SSD) offload \
         is what keeps the swap off the critical path (§3.1)",
    )
    .columns(["variant", "step time", "vs full"]);
    let cfg = GptConfig::gpt_15b();
    let rows = variants(&cfg);
    let full = rows[0].1;
    for (name, t) in rows {
        e.push_row([name, fmt_secs(t), format!("{:.2}x", t / full)]);
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ablation_hurts_or_ties() {
        let rows = variants(&GptConfig::gpt_15b());
        let full = rows[0].1;
        for (name, t) in &rows[1..] {
            assert!(
                *t >= full * 0.995,
                "{name} unexpectedly beat the full system: {t:.3}s vs {full:.3}s"
            );
        }
    }

    #[test]
    fn slower_ssd_hurts_more() {
        let rows = variants(&GptConfig::gpt_15b());
        let ssd: Vec<f64> = rows
            .iter()
            .filter(|(n, _)| n.starts_with("SSD"))
            .map(|&(_, t)| t)
            .collect();
        assert!(ssd.windows(2).all(|w| w[0] <= w[1] * 1.001), "{ssd:?}");
    }
}
