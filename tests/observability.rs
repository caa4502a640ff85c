//! Integration tests for the `mobius-obs` observability layer: golden
//! Chrome-trace and JSONL bytes, metric/trace counter identity, timing
//! invariance, lane coverage, and the critical-path identity (including a
//! doctored-trace negative check).

use proptest::prelude::*;

use mobius::{ClusterConfig, FineTuner, System};
use mobius_mapping::Mapping;
use mobius_model::GptConfig;
use mobius_obs::{analyze, json, DagLog, Lane, Obs};
use mobius_pipeline::{
    simulate_step_traced, simulate_steps_traced, PartitionAlgo, PipelineConfig, StageCosts,
};
use mobius_sim::SimTime;
use mobius_topology::{GpuSpec, Topology};

fn stage(fwd_ms: u64, param_mb: u64, act_mb: u64) -> StageCosts {
    StageCosts {
        fwd: SimTime::from_millis(fwd_ms),
        bwd: SimTime::from_millis(3 * fwd_ms),
        param_bytes: param_mb << 20,
        grad_bytes: param_mb << 20,
        in_act_bytes: act_mb << 20,
        out_act_bytes: act_mb << 20,
        workspace_bytes: 64 << 20,
    }
}

/// A small fixed 2-GPU Mobius pipeline, fully deterministic: the executor
/// is event-driven over simulated time and the solver (the only wall-clock
/// lane) never runs.
fn two_gpu_obs() -> Obs {
    let stages = vec![
        stage(10, 256, 64),
        stage(12, 192, 64),
        stage(8, 320, 64),
        stage(11, 128, 64),
    ];
    let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2]);
    let mapping = Mapping::sequential(stages.len(), topo.num_gpus());
    let cfg = PipelineConfig::mobius(2, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth());
    let obs = Obs::new();
    simulate_step_traced(&stages, &mapping, &topo, &cfg, Some(&obs)).unwrap();
    obs
}

#[test]
fn golden_chrome_trace_2gpu() {
    let got = two_gpu_obs().chrome_trace_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_2gpu.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
    }
    let expected = std::fs::read_to_string(path).expect("golden file present");
    assert!(
        got == expected,
        "golden Chrome trace drifted (rerun with UPDATE_GOLDEN=1 to regenerate)"
    );
}

#[test]
fn golden_jsonl_trace_2gpu() {
    let got = two_gpu_obs().export_jsonl();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_2gpu.jsonl");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
    }
    let expected = std::fs::read_to_string(path).expect("golden file present");
    assert!(
        got == expected,
        "golden JSONL trace drifted (rerun with UPDATE_GOLDEN=1 to regenerate)"
    );
    // Every line is standalone JSON.
    for line in got.lines() {
        json::parse(line).unwrap();
    }
}

#[test]
fn attribution_tiles_the_fixture_step_exactly() {
    let obs = two_gpu_obs();
    obs.verify_dag_identity().unwrap();
    let a = obs.analyze().unwrap();
    assert_eq!(a.steps.len(), 1);
    let s = &a.steps[0];
    // The critical path is gapless and tiles [start, end] exactly.
    let mut t = s.start_ns;
    for seg in &s.path {
        assert_eq!(seg.start_ns, t, "gap before {seg:?}");
        t = seg.end_ns;
    }
    assert_eq!(t, s.end_ns);
    assert_eq!(a.total_ns, s.end_ns);
    // Compute sits on the path, and blame sums to the whole step.
    let blamed: u64 = s.class_blame.values().sum();
    assert_eq!(blamed, s.end_ns - s.start_ns);
    assert!(s.class_blame.get("gpu").copied().unwrap_or(0) > 0);
}

#[test]
fn doctored_trace_fails_the_identity() {
    // Round-trip the DAG through the Chrome trace bytes, then tamper with
    // it: the re-read DAG verifies, the doctored one must not.
    let obs = two_gpu_obs();
    let trace = obs.chrome_trace_json();
    let doc = json::parse(&trace).unwrap();
    let dag = DagLog::from_json_value(doc.get("mobiusDag").expect("dag embedded")).unwrap();
    analyze::verify_identity(&dag).unwrap();
    assert_eq!(
        dag.to_json(),
        obs.with_dag(|d| d.to_json()),
        "round-trip must be lossless"
    );

    let &(t, head) = dag.boundaries().first().expect("one step boundary");
    // (a) The head no longer ends at the boundary.
    let mut nodes = dag.nodes().to_vec();
    nodes[head as usize].end_ns = Some(t + 1);
    let doctored = DagLog::from_parts(
        nodes,
        dag.boundaries().to_vec(),
        dag.cluster_boundaries().to_vec(),
    );
    assert!(analyze::verify_identity(&doctored).is_err());

    // (b) An extra latency on the head's constraints: the binding
    // dependency no longer explains the head's start exactly, so the
    // backward walk cannot tile the step.
    let mut nodes = dag.nodes().to_vec();
    assert!(!nodes[head as usize].deps.is_empty());
    for d in &mut nodes[head as usize].deps {
        d.lat_ns += 1;
    }
    let doctored = DagLog::from_parts(
        nodes,
        dag.boundaries().to_vec(),
        dag.cluster_boundaries().to_vec(),
    );
    assert!(analyze::verify_identity(&doctored).is_err());
}

#[test]
fn tracing_does_not_change_timing() {
    let stages = vec![stage(10, 256, 64), stage(12, 192, 64), stage(8, 320, 64)];
    let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
    let mapping = Mapping::sequential(stages.len(), topo.num_gpus());
    let cfg = PipelineConfig::mobius(4, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth());
    let plain = simulate_steps_traced(&stages, &mapping, &topo, &cfg, 3, None).unwrap();
    let obs = Obs::new();
    let traced = simulate_steps_traced(&stages, &mapping, &topo, &cfg, 3, Some(&obs)).unwrap();
    assert_eq!(plain.step_boundaries, traced.step_boundaries);
    assert_eq!(plain.drain_time, traced.drain_time);
    assert!(obs.event_count() > 0, "the observer must have recorded");
}

#[test]
fn spans_cover_every_gpu_and_comm_kind() {
    let obs = Obs::new();
    let rep = FineTuner::new(GptConfig::gpt_15b())
        .topology(Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]))
        .system(System::Mobius)
        .mip_budget_ms(150)
        .observe(obs.clone())
        .run_step()
        .unwrap();
    obs.with_events(|log| {
        for g in 0..4 {
            assert!(
                log.events()
                    .iter()
                    .any(|e| e.lane == Lane::Gpu(g) && e.dur_ns.is_some()),
                "no span on GPU lane {g}"
            );
        }
        // Every traffic kind the run recorded shows up as a comm span.
        for kind in rep.trace.traffic_by_kind().keys() {
            assert!(
                log.events()
                    .iter()
                    .any(|e| e.cat == "comm" && e.name == kind.label()),
                "no span for CommKind {}",
                kind.label()
            );
        }
    });
    let json = obs.chrome_trace_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
}

#[test]
fn cluster_runs_emit_server_nic_spans_and_verify_the_identity() {
    let servers = 3;
    let obs = Obs::new();
    let rep = FineTuner::new(GptConfig::gpt_3b())
        .topology(Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]))
        .system(System::Mobius)
        .partition_algo(PartitionAlgo::MinStage)
        .strict_validation(true)
        .cluster(ClusterConfig::new(servers, 12.5))
        .observe(obs.clone())
        .run_step()
        .unwrap();
    assert!(rep.cluster.is_some());
    // Every server's ring participation shows up on its own lane.
    obs.with_events(|log| {
        for s in 0..servers {
            assert!(
                log.events()
                    .iter()
                    .any(|e| e.lane == Lane::Server(s) && e.cat == "comm" && e.dur_ns.is_some()),
                "no NIC span on server lane {s}"
            );
        }
    });
    // The synchronized boundary supersedes the local one and the combined
    // pipeline+ring DAG satisfies the critical-path identity end to end.
    obs.with_dag(|d| {
        assert_eq!(d.cluster_boundaries().len(), 1);
        assert_eq!(d.cluster_boundaries()[0].0, rep.step_time.as_nanos());
    });
    obs.verify_dag_identity().unwrap();
    let a = obs.analyze().unwrap();
    let s = a.steps.last().unwrap();
    assert!(s.cluster);
    assert_eq!(a.total_ns, rep.step_time.as_nanos());
    assert!(
        s.class_blame.get("nic").copied().unwrap_or(0) > 0,
        "gradient synchronization must appear on the critical path: {:?}",
        s.class_blame
    );
    // Idealizing the NIC bounds a real speedup for the synchronized step.
    let nic_whatif = a.whatif_total_ns["nic"];
    assert!(nic_whatif < a.total_ns, "{nic_whatif} vs {}", a.total_ns);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The metrics registry's `bytes.<kind>` counters receive the exact
    /// same `+=` sequence as the trace recorder's per-kind traffic map, so
    /// the sums must be bit-identical for any pipeline.
    #[test]
    fn byte_counters_match_trace_traffic(
        fwd in prop::collection::vec(5u64..20, 2..6),
        microbatches in 1usize..5,
    ) {
        let stages: Vec<_> = fwd.iter().map(|&f| stage(f, 64 + f, 32)).collect();
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
        let mapping = Mapping::sequential(stages.len(), topo.num_gpus());
        let cfg = PipelineConfig::mobius(
            microbatches,
            topo.gpu_mem_bytes(),
            topo.avg_gpu_bandwidth(),
        );
        let obs = Obs::new();
        let sim = simulate_step_traced(&stages, &mapping, &topo, &cfg, Some(&obs)).unwrap();
        for (kind, bytes) in sim.trace.traffic_by_kind() {
            let counter = obs.counter(&format!("bytes.{}", kind.label()));
            prop_assert_eq!(
                counter.to_bits(),
                bytes.to_bits(),
                "counter for {} diverged: {} vs {}",
                kind.label(),
                counter,
                bytes
            );
        }
    }
}
