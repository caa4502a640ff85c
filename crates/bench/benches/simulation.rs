//! Criterion benchmarks for the simulation substrate: flow-network rate
//! solving and full training-step simulations for every system. These are
//! the "one bench per figure" end-to-end targets at reduced size — the
//! `mobius-bench <name>` binary (`mobius-bench fig05` …) produces the full
//! tables.
//!
//! The flow network solves lazily, at the first rate read after a
//! mutation, so a case solves as often as it reads.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use mobius::{ClusterConfig, FineTuner, System};
use mobius_model::GptConfig;
use mobius_sim::FlowNetwork;
use mobius_topology::{GpuSpec, ServerNetwork, Topology, COMMODITY_NIC_GBPS};

fn bench_flow_network(c: &mut Criterion) {
    // 32 starts, each read back: one solve per start, of 1 to 32 flows.
    c.bench_function("flow_network_32flows_solve_per_start", |b| {
        b.iter(|| {
            let mut net = FlowNetwork::new();
            let links: Vec<_> = (0..8)
                .map(|i| net.add_link(format!("l{i}"), 13.1e9))
                .collect();
            for i in 0..32u64 {
                let path = vec![links[(i % 8) as usize], links[((i + 1) % 8) as usize]];
                let id = net.start_flow(path, 1e9, (i % 3) as u8, i);
                std::hint::black_box(net.rate_of(id));
            }
            std::hint::black_box(net.next_completion())
        })
    });

    // The common executor regime: about three flows in flight, nearly each
    // in a priority class of its own, churning on a 4+4 server.
    let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[4, 4]);
    c.bench_function("flow_network_churn_3flows_many_classes", |b| {
        b.iter(|| {
            let mut server = ServerNetwork::new(&topo);
            for i in 0..256usize {
                let g = i % 8;
                let path = if i % 2 == 0 {
                    server.dram_to_gpu(g)
                } else {
                    server.gpu_to_dram(g)
                };
                let prio = (100 + i % 100) as u8;
                let net = server.net_mut();
                net.start_flow(path, 1e8 * (1 + i % 5) as f64, prio, 0);
                if net.active_flows() > 3 {
                    let (t, id) = net.next_completion().expect("flows are moving");
                    net.advance_to(t);
                    net.complete(id).expect("drained at its completion");
                }
            }
            std::hint::black_box(server.net_mut().next_completion())
        })
    });

    // The activation-hop regime: one priority-255 class of 96 flows,
    // drained to empty one completion at a time.
    c.bench_function("flow_network_96flows_one_class_drain", |b| {
        b.iter(|| {
            let mut server = ServerNetwork::new(&topo);
            for i in 0..96usize {
                let path = server
                    .gpu_to_gpu(i % 8, (i + 1) % 8)
                    .expect("distinct GPUs");
                server
                    .net_mut()
                    .start_flow(path, 1e6 * (1 + i % 7) as f64, 255, 0);
            }
            let net = server.net_mut();
            while let Some((t, id)) = net.next_completion() {
                net.advance_to(t);
                net.complete(id).expect("drained at its completion");
            }
            std::hint::black_box(net.now())
        })
    });
}

fn step(system: System) -> f64 {
    FineTuner::new(GptConfig::gpt_3b())
        .topology(Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]))
        .system(system)
        .run_step()
        .expect("3B runs on every system")
        .step_time
        .as_secs_f64()
}

fn bench_multi_step(c: &mut Criterion) {
    use mobius_mapping::Mapping;
    use mobius_pipeline::{evaluate_1f1b, simulate_steps_traced, PipelineConfig, StageCosts};
    use mobius_sim::SimTime;
    let stages: Vec<StageCosts> = (0..8)
        .map(|_| StageCosts {
            fwd: SimTime::from_millis(10),
            bwd: SimTime::from_millis(20),
            param_bytes: 1 << 30,
            grad_bytes: 1 << 30,
            in_act_bytes: 1 << 20,
            out_act_bytes: 1 << 20,
            workspace_bytes: 0,
        })
        .collect();
    let mapping = Mapping::sequential(8, 4);
    let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
    let cfg = PipelineConfig::mobius(4, 24 * (1u64 << 30), 13.1e9);
    c.bench_function("simulate_3_steps_8stages", |b| {
        b.iter(|| {
            std::hint::black_box(
                simulate_steps_traced(&stages, &mapping, &topo, &cfg, 3, None).unwrap(),
            )
        })
    });
    c.bench_function("evaluate_1f1b_8x16", |b| {
        b.iter(|| std::hint::black_box(evaluate_1f1b(&stages, 16, SimTime::ZERO).unwrap()))
    });
}

fn bench_systems(c: &mut Criterion) {
    // One end-to-end step per system (the Figure 5 cell at reduced size).
    c.bench_function("fig05_cell_mobius_3b", |b| {
        b.iter(|| std::hint::black_box(step(System::Mobius)))
    });
    c.bench_function("fig05_cell_deepspeed_3b", |b| {
        b.iter(|| std::hint::black_box(step(System::DeepSpeedHetero)))
    });
    c.bench_function("fig05_cell_gpipe_3b", |b| {
        b.iter(|| std::hint::black_box(step(System::Gpipe)))
    });
}

fn bench_cluster(c: &mut Criterion) {
    // ZeRO-3 across 12 servers: every layer slot starts and drains the
    // full mesh of 132 pairwise NIC gathers at one instant, the regime
    // where solves dominate a cluster run.
    let tuner = FineTuner::new(GptConfig::gpt2_small())
        .topology(Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]))
        .system(System::DeepSpeedHetero)
        .cluster(ClusterConfig::new(12, COMMODITY_NIC_GBPS));
    c.bench_function("cluster_ds_hetero_gpt2_12servers", |b| {
        b.iter(|| std::hint::black_box(tuner.run_step().expect("GPT-2 fits").step_time))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(5));
    targets = bench_flow_network, bench_multi_step, bench_systems, bench_cluster
}
criterion_main!(benches);
