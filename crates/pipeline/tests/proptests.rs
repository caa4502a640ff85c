//! Property-based tests of schedule invariants: the analytic evaluator's
//! constraint system and its agreement with the event-driven executor, and
//! of GPipe's chain-partition DP.

use proptest::prelude::*;

use mobius_mapping::Mapping;
use mobius_pipeline::{
    chain_partition_dp, check_differential, evaluate_analytic, simulate_step, MemoryMode,
    PipelineConfig, StageCosts,
};
use mobius_sim::SimTime;
use mobius_topology::{GpuSpec, Topology};

const GB: u64 = 1 << 30;

fn arb_stage() -> impl Strategy<Value = StageCosts> {
    (5u64..80, 32u64..2048, 1u64..64).prop_map(|(ms, param_mb, act_mb)| StageCosts {
        fwd: SimTime::from_millis(ms),
        bwd: SimTime::from_millis(3 * ms),
        param_bytes: param_mb << 20,
        grad_bytes: param_mb << 20,
        in_act_bytes: act_mb << 20,
        out_act_bytes: act_mb << 20,
        workspace_bytes: 128 << 20,
    })
}

fn cfg(m: usize) -> PipelineConfig {
    PipelineConfig::mobius(m, 24 * GB, 13.1e9).with_strict_validation(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Constraint system sanity on random stage sets: microbatch starts
    /// are serialized per stage (constraint 10), forward precedes the
    /// dependent stage (constraint 8), and backward starts after the
    /// forward barrier (constraint 11).
    #[test]
    fn analytic_respects_ordering_constraints(
        stages in prop::collection::vec(arb_stage(), 4..12),
        m in 1usize..6,
    ) {
        let n = 4;
        let mapping = Mapping::sequential(stages.len(), n);
        let sch = evaluate_analytic(&stages, &mapping, &cfg(m)).unwrap();
        for j in 0..stages.len() {
            for mb in 1..m {
                prop_assert!(
                    sch.fwd_start[j][mb] >= sch.fwd_start[j][mb - 1] + stages[j].fwd,
                    "stage {j} forward microbatches overlap"
                );
                prop_assert!(
                    sch.bwd_start[j][mb] >= sch.bwd_start[j][mb - 1] + stages[j].bwd,
                    "stage {j} backward microbatches overlap"
                );
            }
            if j > 0 {
                for mb in 0..m {
                    prop_assert!(
                        sch.fwd_start[j][mb] >= sch.fwd_start[j - 1][mb] + stages[j - 1].fwd,
                        "stage {j} started before its input existed"
                    );
                }
            }
        }
        // Constraint 11: the last stage's backward starts after its own
        // forward completed on every microbatch.
        let last = stages.len() - 1;
        let fwd_done = sch.fwd_start[last][m - 1] + stages[last].fwd;
        prop_assert!(sch.bwd_start[last][0] >= fwd_done);
        // The makespan covers everything.
        prop_assert!(sch.step_time >= sch.bwd_start[0][m - 1] + stages[0].bwd);
    }

    /// The executor and the analytic evaluator agree within a band on an
    /// uncontended topology (one GPU per root complex).
    #[test]
    fn executor_tracks_analytic_without_contention(
        stages in prop::collection::vec(arb_stage(), 4..10),
        m in 1usize..5,
    ) {
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[1, 1, 1, 1]);
        let mapping = Mapping::sequential(stages.len(), 4);
        let c = cfg(m);
        let analytic = evaluate_analytic(&stages, &mapping, &c).unwrap().step_time;
        let sim = simulate_step(&stages, &mapping, &topo, &c).unwrap().step_time;
        prop_assert!(
            check_differential(analytic, sim).is_ok(),
            "analytic {analytic} vs sim {sim} outside the documented band"
        );
    }

    /// Contention can only slow a step down: Topo 4 >= per-GPU root
    /// complexes, for the same plan.
    #[test]
    fn contention_is_monotone(
        stages in prop::collection::vec(arb_stage(), 4..10),
    ) {
        let mapping = Mapping::sequential(stages.len(), 4);
        let c = cfg(4);
        let free = Topology::commodity(GpuSpec::rtx3090ti(), &[1, 1, 1, 1]);
        let jammed = Topology::commodity(GpuSpec::rtx3090ti(), &[4]);
        let t_free = simulate_step(&stages, &mapping, &free, &c).unwrap().step_time;
        let t_jammed = simulate_step(&stages, &mapping, &jammed, &c).unwrap().step_time;
        prop_assert!(
            t_jammed >= t_free,
            "shared root complex sped things up?! {t_jammed} < {t_free}"
        );
    }

    /// Resident mode is never slower than heterogeneous mode for the same
    /// stages (no uploads can only help).
    #[test]
    fn resident_never_slower(
        stages in prop::collection::vec(arb_stage(), 4..10),
        m in 1usize..5,
    ) {
        let mapping = Mapping::sequential(stages.len(), 4);
        let hetero = evaluate_analytic(&stages, &mapping, &cfg(m)).unwrap().step_time;
        let resident_cfg = PipelineConfig {
            memory_mode: MemoryMode::Resident,
            ..cfg(m)
        };
        let resident = evaluate_analytic(&stages, &mapping, &resident_cfg)
            .unwrap()
            .step_time;
        prop_assert!(resident <= hetero);
    }

    /// The executor never deadlocks: any valid stage→GPU assignment (every
    /// GPU gets at least one stage) runs to completion, on any grouping.
    #[test]
    fn executor_never_deadlocks(
        stages in prop::collection::vec(arb_stage(), 4..10),
        assignment_seed in 0u64..1_000,
        groups_pick in 0usize..3,
    ) {
        let s = stages.len();
        let n = 4;
        // Deterministic pseudo-random assignment covering all GPUs.
        let mut table: Vec<usize> = (0..s).map(|j| (j + assignment_seed as usize) % n).collect();
        // Shuffle deterministically.
        let mut x = assignment_seed;
        for i in (1..s).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (x >> 33) as usize % (i + 1);
            table.swap(i, j);
        }
        let mapping = Mapping::from_table(table, n);
        let groups: &[usize] = match groups_pick {
            0 => &[4],
            1 => &[1, 3],
            _ => &[2, 2],
        };
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), groups);
        let rep = simulate_step(&stages, &mapping, &topo, &cfg(3)).unwrap();
        prop_assert!(rep.step_time > SimTime::ZERO);
        prop_assert!(rep.drain_time >= rep.step_time);
    }

    /// Traffic accounting: heterogeneous uploads equal parameters once for
    /// forward plus re-uploads for all but each GPU's last stage, plus the
    /// backward activation refetches.
    #[test]
    fn upload_accounting_closed_form(
        stages in prop::collection::vec(arb_stage(), 4..12),
        m in 1usize..5,
    ) {
        let n = 4;
        let mapping = Mapping::sequential(stages.len(), n);
        let sch = evaluate_analytic(&stages, &mapping, &cfg(m)).unwrap();
        let total_params: u64 = stages.iter().map(|s| s.param_bytes).sum();
        let last_params: u64 = (0..n)
            .filter_map(|g| mapping.stages_of(g).last().map(|&j| stages[j].param_bytes))
            .sum();
        let act_refetch: u64 = stages
            .iter()
            .map(|s| m as u64 * s.in_act_bytes)
            .sum();
        let expected = (2 * total_params - last_params + act_refetch) as f64;
        prop_assert!(
            (sch.traffic.upload_bytes - expected).abs() < 1.0,
            "uploads {} vs closed form {expected}",
            sch.traffic.upload_bytes
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DP chain partition: the bottleneck never increases when more parts
    /// are allowed, and equals the max element when parts >= items.
    #[test]
    fn chain_partition_monotone(weights in prop::collection::vec(0.5f64..10.0, 1..12)) {
        let mut last = f64::INFINITY;
        for k in 1..=weights.len() {
            let (sizes, cost) = chain_partition_dp(&weights, k);
            prop_assert!(cost <= last + 1e-12, "cost rose with more parts");
            prop_assert_eq!(sizes.iter().sum::<usize>(), weights.len());
            last = cost;
        }
        let max_w = weights.iter().cloned().fold(0.0, f64::max);
        let (_, cost) = chain_partition_dp(&weights, weights.len());
        prop_assert!((cost - max_w).abs() < 1e-12);
    }

    /// The DP bottleneck lies between the average part weight and the total.
    #[test]
    fn chain_partition_bounds(
        weights in prop::collection::vec(0.5f64..10.0, 1..12),
        k in 1usize..6,
    ) {
        let total: f64 = weights.iter().sum();
        let (_, cost) = chain_partition_dp(&weights, k);
        let k_eff = k.min(weights.len());
        prop_assert!(cost >= total / k_eff as f64 - 1e-9);
        prop_assert!(cost <= total + 1e-9);
    }
}
