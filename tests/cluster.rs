//! Workspace integration tests for the multi-server scale-out path:
//! single-server degeneracy (bit-identical to a plain run, traces
//! included), the ring all-reduce traffic identity end to end, the
//! validator's rejection of doctored traffic, the SSD-offload bandwidth
//! tier as a monotonic bottleneck, and a fabric too slow for the simulated
//! clock as a typed error.

use mobius::{ClusterConfig, FineTuner, RunError, System};
use mobius_cluster::{
    expected_ring_traffic, simulate_ring_allreduce, verify_ring_identity, ClusterDpConfig,
    ClusterSyncError, ReplicaTiming,
};
use mobius_model::GptConfig;
use mobius_obs::Obs;
use mobius_pipeline::PartitionAlgo;
use mobius_sim::SimTime;
use mobius_topology::{Cluster, GpuSpec, Topology};

fn commodity(groups: &[usize]) -> Topology {
    Topology::commodity(GpuSpec::rtx3090ti(), groups)
}

fn tuner(cfg: GptConfig, system: System) -> FineTuner {
    FineTuner::new(cfg)
        .topology(commodity(&[2, 2]))
        .system(system)
        .partition_algo(PartitionAlgo::MinStage)
        .num_microbatches(4)
        .strict_validation(true)
}

#[test]
fn one_server_cluster_is_bit_identical_including_the_trace() {
    // A 1-server "cluster" must take literally the single-server code path:
    // same step report and byte-identical Chrome trace.
    let run = |cluster: Option<ClusterConfig>| {
        let obs = Obs::new();
        let mut t = tuner(GptConfig::gpt_3b(), System::Mobius).observe(obs.clone());
        if let Some(c) = cluster {
            t = t.cluster(c);
        }
        let rep = t.run_step().unwrap();
        (rep, obs.chrome_trace_json())
    };
    let (plain, plain_trace) = run(None);
    let (one, one_trace) = run(Some(ClusterConfig::new(1, 12.5)));
    assert!(one.cluster.is_none(), "1 server is not a cluster");
    assert_eq!(plain.step_time, one.step_time);
    assert_eq!(plain.drain_time, one.drain_time);
    assert_eq!(plain.traffic_total(), one.traffic_total());
    assert_eq!(plain.price_usd, one.price_usd);
    assert_eq!(plain_trace, one_trace, "traces must be byte-identical");
}

#[test]
fn cross_server_traffic_matches_the_ring_identity_end_to_end() {
    // Acceptance: per-step cross-server gradient traffic per server equals
    // 2·(n−1)/n · grad_bytes within 1e-6, through the full FineTuner path.
    let rep = tuner(GptConfig::gpt_3b(), System::Mobius)
        .cluster(ClusterConfig::new(3, 12.5))
        .run_step()
        .unwrap();
    let cl = rep.cluster.expect("3 servers must report a cluster");
    assert_eq!(cl.num_servers, 3);
    let want = expected_ring_traffic(3, cl.grad_bytes);
    for s in &cl.servers {
        assert!((s.nic_tx_bytes - want).abs() <= 1e-6 * want);
        assert!((s.nic_rx_bytes - want).abs() <= 1e-6 * want);
    }
    assert!(rep.step_time >= cl.sync_done);
}

#[test]
fn doctored_traffic_is_rejected_by_the_validator() {
    // The strict layer's ring validator is independent of the simulation:
    // feed it a real report, then a doctored one.
    let cluster = Cluster::new(commodity(&[2, 2]), 3, 12.5);
    let replicas = vec![
        ReplicaTiming {
            bucket_bytes: vec![3e9, 2e9],
            ready: vec![SimTime::from_millis(50), SimTime::from_millis(110)],
            ready_sids: vec![],
        };
        3
    ];
    let cfg = ClusterDpConfig {
        strict_validation: false,
    };
    let mut rep = simulate_ring_allreduce(&cluster, &replicas, &cfg, None).unwrap();
    verify_ring_identity(&rep, 3, 5e9).expect("the honest report passes");
    rep.per_server_rx[1] -= 1e6;
    let v = verify_ring_identity(&rep, 3, 5e9).unwrap_err();
    assert_eq!(v.server, 1);
    assert_eq!(v.direction, "rx");
}

#[test]
fn ssd_offload_step_time_degrades_monotonically() {
    // §3.1 rationale for DRAM-only offload: the further the SSD tier falls
    // below the PCIe tier, the worse the step gets — monotonically.
    let step = |ssd_gbps: Option<f64>| {
        let topo = match ssd_gbps {
            Some(g) => commodity(&[2, 2]).with_ssd_offload(g),
            None => commodity(&[2, 2]),
        };
        FineTuner::new(GptConfig::gpt_8b())
            .topology(topo)
            .system(System::Mobius)
            .partition_algo(PartitionAlgo::MinStage)
            .num_microbatches(4)
            .strict_validation(true)
            .run_step()
            .unwrap()
            .step_time
    };
    let dram = step(None);
    let fast = step(Some(6.0));
    let mid = step(Some(3.0));
    let slow = step(Some(1.5));
    assert!(fast >= dram, "an SSD tier can never beat DRAM offload");
    assert!(mid > fast, "3 GB/s must be slower than 6 GB/s");
    assert!(slow > mid, "1.5 GB/s must be slower than 3 GB/s");
}

#[test]
fn a_fabric_too_slow_for_the_clock_is_a_typed_error() {
    // At 1e-12 GB/s a gradient chunk would take longer than the u64
    // nanosecond clock can count: its completion instant saturates at
    // SimTime::MAX with the chunk still pending. That is a typed error from
    // both the ring and the ZeRO-3 cluster simulation, never a panic.
    let replica = ReplicaTiming {
        bucket_bytes: vec![1e9],
        ready: vec![SimTime::ZERO],
        ready_sids: vec![],
    };
    let replicas = [replica.clone(), replica];
    let strict = ClusterDpConfig {
        strict_validation: true,
    };
    let slow_nic = Cluster::new(commodity(&[2, 2]), 2, 1e-12);
    let slow_switch = Cluster::new(commodity(&[2, 2]), 2, 12.5).with_switch_gbps(1e-12);
    for slow in [slow_nic, slow_switch] {
        match simulate_ring_allreduce(&slow, &replicas, &strict, None) {
            // Both first-round chunks stall alike; the tie goes to the
            // lower flow id, the chunk server 0 sends.
            Err(ClusterSyncError::ClockOverflow { server, remaining }) => {
                assert_eq!(server, 0, "{}", slow.name());
                assert!(remaining > 0.0);
            }
            other => panic!("{}: expected ClockOverflow, got {other:?}", slow.name()),
        }
    }
    for system in [System::Mobius, System::DeepSpeedHetero] {
        let res = tuner(GptConfig::gpt_3b(), system)
            .cluster(ClusterConfig::new(2, 1e-12))
            .run_step();
        assert!(
            matches!(res, Err(RunError::ClockOverflow { .. })),
            "{system:?}: {res:?}"
        );
    }
    let slow_switch = ClusterConfig::new(2, 12.5).switch_gbps(1e-12);
    let res = tuner(GptConfig::gpt_3b(), System::DeepSpeedHetero)
        .cluster(slow_switch)
        .run_step();
    assert!(
        matches!(res, Err(RunError::ClockOverflow { .. })),
        "{res:?}"
    );
}
