//! Figure 4: the paper's illustration of the Mobius pipeline — 8 stages on
//! 4 GPUs (two per root complex), sequential vs cross mapping — rendered
//! as actual schedules from the analytic evaluator.

use mobius_mapping::Mapping;
use mobius_pipeline::{evaluate_analytic, render_gantt, PipelineConfig, StageCosts};
use mobius_sim::SimTime;
use mobius_topology::{GpuSpec, Topology};

use crate::Experiment;

const GIB_BYTES: u64 = 1 << 30;

/// The figure's setting: 8 equal stages, 4 GPUs, M = 4 microbatches, with
/// uploads sized so prefetch windows are tight (communication visible).
pub fn stages() -> Vec<StageCosts> {
    (0..8)
        .map(|_| StageCosts {
            fwd: SimTime::from_millis(60),
            bwd: SimTime::from_millis(120),
            param_bytes: 3 * GIB_BYTES,
            grad_bytes: 3 * GIB_BYTES,
            in_act_bytes: 16 << 20,
            out_act_bytes: 16 << 20,
            workspace_bytes: GIB_BYTES,
        })
        .collect()
}

/// Step time under a mapping, plus the rendered timeline.
fn schedule_for(mapping: &Mapping) -> (f64, String) {
    let stages = stages();
    let cfg = PipelineConfig::mobius(4, 24 * GIB_BYTES, 13.1e9);
    let sch = evaluate_analytic(&stages, mapping, &cfg).expect("figure setting is feasible");
    let gantt = render_gantt(&sch, &stages, mapping, 96);
    (sch.step_time.as_secs_f64(), gantt)
}

/// Regenerates Figure 4.
pub fn run(_quick: bool) -> Experiment {
    let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
    let seq = Mapping::sequential(8, 4);
    let cross = Mapping::cross(&topo, 8);
    let (t_seq, g_seq) = schedule_for(&seq);
    let (t_cross, g_cross) = schedule_for(&cross);

    let mut e = Experiment::new(
        "fig04",
        "Mobius pipeline schedules: sequential vs cross mapping",
        "8 stages on 4 GPUs, M = 4; cross mapping moves adjacent stages to \
         different root complexes so their uploads (C boxes in the paper) \
         stop colliding, saving time units per step",
    )
    .columns(["mapping", "contention degree", "analytic step"]);
    e.push_row([
        "sequential".to_string(),
        format!("{:.1}", seq.contention_degree(&topo)),
        format!("{t_seq:.3}s"),
    ]);
    e.push_row([
        "cross".to_string(),
        format!("{:.1}", cross.contention_degree(&topo)),
        format!("{t_cross:.3}s"),
    ]);
    e.note(format!("sequential timeline:\n{g_seq}"));
    e.note(format!("cross timeline:\n{g_cross}"));
    e.note(
        "digits = forward stage id, letters = backward stage (a = stage 0); \
         the analytic model is contention-free, so the step times tie — the \
         contention-degree column is what cross mapping optimizes, and the \
         simulated effect is measured in fig10/fig11"
            .to_string(),
    );
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_mapping_reduces_contention_degree_by_half() {
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
        let seq = Mapping::sequential(8, 4).contention_degree(&topo);
        let cross = Mapping::cross(&topo, 8).contention_degree(&topo);
        assert!(
            cross < seq * 0.75,
            "cross {cross:.1} should be well under sequential {seq:.1}"
        );
    }

    #[test]
    fn timelines_cover_all_stages() {
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
        let (_, g) = schedule_for(&Mapping::cross(&topo, 8));
        for d in ['0', '3', '7'] {
            assert!(g.contains(d), "stage {d} missing from timeline:\n{g}");
        }
        assert_eq!(g.lines().count(), 4, "one row per GPU");
    }
}
