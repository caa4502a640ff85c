//! Byte-determinism regression tests for the wall-clock quarantine: two
//! identical seeded runs — solver lane included — must export
//! byte-identical Chrome traces.
//!
//! This is the regression net for the D001 fix in the partition search:
//! incumbent marks used to stamp `Instant::elapsed` nanoseconds into the
//! solver lane, so two in-process runs produced different trace bytes.
//! Timestamps are now the deterministic evaluated-leaf count and this test
//! locks that in.

use mobius::FineTuner;
use mobius_model::{GptConfig, Model};
use mobius_obs::Obs;
use mobius_pipeline::{mip_partition_opts, MipPartitionOpts, PipelineConfig};
use mobius_profiler::Profiler;
use mobius_topology::{GpuSpec, Topology};

/// One full plan + step with the MIP solver lane observed; returns the
/// exported Chrome trace bytes.
fn traced_plan_and_step() -> String {
    let obs = Obs::new();
    let tuner = FineTuner::new(GptConfig::gpt_3b()).observe(obs.clone());
    let plan = tuner.plan().expect("planning succeeds");
    assert!(plan.partition.num_stages() >= 1);
    tuner.run_step().expect("step succeeds");
    obs.chrome_trace_json()
}

#[test]
fn repeated_traced_runs_are_byte_identical() {
    let a = traced_plan_and_step();
    let b = traced_plan_and_step();
    assert!(
        a == b,
        "two identical runs exported different trace bytes — wall-clock (or \
         other nondeterminism) is leaking into an artifact lane"
    );
}

/// On a paper-scale preset the planner stops at its node budget, not at a
/// wall clock, so two observed steps record the same search: identical
/// `mip.*` counters in the metrics and identical trace bytes.
#[test]
fn paper_scale_observed_steps_are_byte_identical() {
    let observed_step = || {
        let obs = Obs::new();
        FineTuner::new(GptConfig::gpt_15b())
            .topology(Topology::commodity(GpuSpec::rtx3090ti(), &[4, 4]))
            .observe(obs.clone())
            .run_step()
            .expect("step succeeds");
        (obs.metrics_json(), obs.chrome_trace_json())
    };
    let (metrics_a, trace_a) = observed_step();
    let (metrics_b, trace_b) = observed_step();
    assert!(metrics_a.contains("mip.evaluated"));
    assert!(
        metrics_a == metrics_b,
        "two 15B 4+4 steps exported different metrics"
    );
    assert!(
        trace_a == trace_b,
        "two 15B 4+4 steps exported different traces"
    );
}

/// GPT-2 small on 2+2 improves on its near-uniform seed, so the solver
/// lane carries incumbent marks — the exact lane that used to stamp
/// wall-clock nanoseconds.
#[test]
fn solver_incumbent_marks_are_deterministic() {
    let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
    let config = GptConfig::gpt2_small();
    let profile = Profiler::new(topo.gpu().clone())
        .profile(&Model::from_config(&config), config.default_microbatch);
    let cfg = PipelineConfig::mobius(4, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth());
    let trace = |_: u32| {
        let obs = Obs::new();
        let opts = MipPartitionOpts::default();
        mip_partition_opts(&profile, 4, &cfg, &opts, Some(&obs)).expect("feasible");
        assert!(obs.gauge("mip.incumbent_gap").expect("seeded search") > 0.0);
        obs.chrome_trace_json()
    };
    let a = trace(0);
    assert!(
        a.contains("incumbent"),
        "the search must improve on its seed at least once"
    );
    assert_eq!(
        a,
        trace(1),
        "incumbent mark timestamps must not be wall-clock"
    );
}

#[test]
fn wall_overheads_are_reported_but_never_in_the_trace() {
    let obs = Obs::new();
    let tuner = FineTuner::new(GptConfig::gpt_3b()).observe(obs.clone());
    let plan = tuner.plan().expect("planning succeeds");
    // The wall-clock numbers exist for humans…
    assert!(plan.overheads.mip_solve_wall.secs() >= 0.0);
    assert!(plan.overheads.cross_map_wall.secs() >= 0.0);
    // …but the exported trace carries no free-running wall-clock field: a
    // second identical plan produces identical bytes even though its wall
    // timings certainly differ.
    let first = obs.chrome_trace_json();
    let obs2 = Obs::new();
    FineTuner::new(GptConfig::gpt_3b())
        .observe(obs2.clone())
        .plan()
        .expect("planning succeeds");
    assert_eq!(first, obs2.chrome_trace_json());
}
