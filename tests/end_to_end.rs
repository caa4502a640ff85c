//! End-to-end integration tests spanning the whole workspace: plan →
//! simulate → report for every system, and cross-crate consistency checks
//! between the analytic planner and the contention-aware simulator.

use mobius::{ClusterConfig, FineTuner, RunError, System};
use mobius_cluster::{simulate_ring_allreduce, ClusterDpConfig, ReplicaTiming};
use mobius_mapping::{Mapping, MappingAlgo};
use mobius_model::{GptConfig, Model};
use mobius_obs::Obs;
use mobius_pipeline::{
    check_differential, evaluate_analytic, mip_partition_opts, simulate_step,
    simulate_steps_traced, stage_costs, MipPartitionOpts, PartitionAlgo, PipelineConfig,
    ScheduleError, StageCosts,
};
use mobius_profiler::{LayerProfile, ModelProfile, Profiler};
use mobius_sim::{CommKind, SimTime};
use mobius_topology::{Cluster, GpuSpec, Topology, COMMODITY_NIC_GBPS};

fn commodity(groups: &[usize]) -> Topology {
    Topology::commodity(GpuSpec::rtx3090ti(), groups)
}

#[test]
fn figure5_oom_matrix() {
    // GPipe / DS-pipeline train only the 3B model; the heterogeneous-memory
    // systems train everything (Figure 5).
    let topo = commodity(&[2, 2]);
    let can = |cfg: &GptConfig, system| {
        FineTuner::new(cfg.clone())
            .topology(topo.clone())
            .system(system)
            .strict_validation(true)
            .run_step()
            .is_ok()
    };
    for cfg in GptConfig::table3() {
        assert!(
            can(&cfg, System::Mobius),
            "{} must train on Mobius",
            cfg.name
        );
        assert!(
            can(&cfg, System::DeepSpeedHetero),
            "{} must train on DS-hetero",
            cfg.name
        );
        let fits_resident = cfg.name == "3B";
        assert_eq!(
            can(&cfg, System::Gpipe),
            fits_resident,
            "GPipe OOM boundary wrong for {}",
            cfg.name
        );
        assert_eq!(
            can(&cfg, System::DeepSpeedPipeline),
            fits_resident,
            "DS-pipeline OOM boundary wrong for {}",
            cfg.name
        );
    }
}

#[test]
fn headline_speedup_band() {
    // The paper's headline: 3.8-5.1x over DeepSpeed-hetero. Our simulated
    // substrate lands in 2.2-5.2x across the same grid; assert every cell
    // shows a clear win and the grid maximum reaches the paper's band.
    let mut max_speedup: f64 = 0.0;
    for cfg in [GptConfig::gpt_15b()] {
        for groups in [vec![4usize], vec![1, 3], vec![2, 2]] {
            let topo = commodity(&groups);
            let mobius = FineTuner::new(cfg.clone())
                .topology(topo.clone())
                .system(System::Mobius)
                .strict_validation(true)
                .run_step()
                .unwrap();
            let ds = FineTuner::new(cfg.clone())
                .topology(topo)
                .system(System::DeepSpeedHetero)
                .strict_validation(true)
                .run_step()
                .unwrap();
            let speedup = ds.step_time.as_secs_f64() / mobius.step_time.as_secs_f64();
            assert!(speedup > 2.0, "{groups:?}: speedup only {speedup:.2}");
            max_speedup = max_speedup.max(speedup);
        }
    }
    assert!(
        max_speedup > 3.8,
        "grid max {max_speedup:.2} should reach the paper's band"
    );
}

#[test]
fn analytic_and_simulator_agree_without_contention() {
    // On a topology with one GPU per root complex the fluid simulator has
    // no shared bottleneck, so the analytic planner should predict the
    // simulated step closely across partition algorithms.
    let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[1, 1, 1, 1]);
    let model = Model::from_config(&GptConfig::gpt_8b());
    let profile = Profiler::new(topo.gpu().clone()).profile(&model, 2);
    let cfg = PipelineConfig::mobius(4, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth())
        .with_strict_validation(true);
    for algo in [PartitionAlgo::MinStage, PartitionAlgo::MaxStage] {
        let out = mobius_pipeline::partition_model(algo, &profile, 4, &cfg).unwrap();
        let costs = stage_costs(&profile, &out.partition);
        let mapping = Mapping::sequential(out.partition.num_stages(), 4);
        let analytic = evaluate_analytic(&costs, &mapping, &cfg).unwrap().step_time;
        let sim = simulate_step(&costs, &mapping, &topo, &cfg)
            .unwrap()
            .step_time;
        let ratio = sim.as_secs_f64() / analytic.as_secs_f64();
        assert!(
            (0.85..1.35).contains(&ratio),
            "{algo:?}: analytic {analytic} vs sim {sim} (ratio {ratio:.2})"
        );
        check_differential(analytic, sim).unwrap();
    }
}

/// A 12-layer profile with deterministically uneven layer times, small
/// enough for the unbudgeted partition search to finish in milliseconds.
fn uneven_profile() -> ModelProfile {
    ModelProfile::from_layers(
        (0..12u64)
            .map(|i| LayerProfile {
                fwd: SimTime::from_millis(20 + (i * 37) % 97),
                bwd: SimTime::from_millis(3 * (20 + (i * 37) % 97)),
                param_bytes: (1 << 30) + (i % 3) * (1 << 28),
                grad_bytes: 1 << 30,
                output_act_bytes: 4 << 20,
                workspace_bytes: 256 << 20,
            })
            .collect(),
        1,
    )
}

#[test]
fn node_budget_matches_the_unbudgeted_search() {
    // The node budget only cuts the search off: on a search that fits in
    // it, the budgeted solve must choose exactly what the unbudgeted one
    // chooses, after exactly the same work.
    let topo = commodity(&[2, 2]);
    let profile = uneven_profile();
    let cfg = PipelineConfig::mobius(4, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth());
    let opts = MipPartitionOpts {
        budgeted: true,
        warm_start: None,
    };
    let budgeted = mip_partition_opts(&profile, 4, &cfg, &opts, None).unwrap();
    let unbudgeted =
        mip_partition_opts(&profile, 4, &cfg, &MipPartitionOpts::default(), None).unwrap();
    let (b, u) = (budgeted.stats.unwrap(), unbudgeted.stats.unwrap());
    assert!(b.complete && u.complete, "both searches must finish");
    assert!(!b.warm_started && !u.warm_started);
    assert_eq!(budgeted.partition, unbudgeted.partition);
    assert_eq!(budgeted.predicted_step, unbudgeted.predicted_step);
    assert_eq!(
        (b.evaluated, b.pruned, b.nodes),
        (u.evaluated, u.pruned, u.nodes)
    );
}

#[test]
fn node_budget_proves_every_gpt2_small_plan() {
    // GPT-2 small (14 layers) is what the goldens, the crash-resume gates
    // and the planning service plan. Its full search tree has at most
    // 2^13 internal nodes, so on every topology and microbatch count the
    // default budgeted plan must be the unbudgeted plan, proved, after
    // the same work.
    let groups: [&[usize]; 11] = [
        &[2],
        &[1, 1],
        &[3],
        &[1, 2],
        &[2, 1],
        &[1, 1, 1],
        &[4],
        &[1, 3],
        &[2, 2],
        &[4, 4],
        &[8],
    ];
    let mut max_nodes = 0;
    for g in groups {
        let topo = commodity(g);
        let n = topo.num_gpus();
        let mut ms = vec![n, 2 * n, 4 * n, 4, 8, 16, 32];
        ms.sort_unstable();
        ms.dedup();
        for m in ms {
            let tuner = FineTuner::new(GptConfig::gpt2_small())
                .topology(topo.clone())
                .num_microbatches(m);
            let budgeted = tuner.plan().unwrap();
            let unbudgeted = tuner.unbudgeted_solver(true).plan().unwrap();
            let (b, u) = (budgeted.search.unwrap(), unbudgeted.search.unwrap());
            let case = format!("topo {} M={m}", topo.name());
            assert!(b.complete, "{case}: budget reached after {} nodes", b.nodes);
            assert_eq!(budgeted.partition, unbudgeted.partition, "{case}");
            assert_eq!(budgeted.predicted_step, unbudgeted.predicted_step, "{case}");
            assert_eq!(
                (b.evaluated, b.pruned, b.nodes),
                (u.evaluated, u.pruned, u.nodes),
                "{case}"
            );
            max_nodes = max_nodes.max(b.nodes);
        }
    }
    assert!(max_nodes <= mobius_pipeline::PLAN_NODE_BUDGET);
}

#[test]
fn mip_partition_observer_is_passive_and_reports_the_search() {
    let topo = commodity(&[2, 2]);
    let profile = uneven_profile();
    let cfg = PipelineConfig::mobius(4, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth());
    let opts = MipPartitionOpts::default();
    let plain = mip_partition_opts(&profile, 4, &cfg, &opts, None).unwrap();
    let obs = Obs::new();
    let traced = mip_partition_opts(&profile, 4, &cfg, &opts, Some(&obs)).unwrap();
    assert_eq!(plain.partition, traced.partition);
    assert_eq!(plain.predicted_step, traced.predicted_step);
    let stats = traced.stats.unwrap();
    assert_eq!(obs.counter("mip.evaluated"), stats.evaluated as f64);
    assert_eq!(obs.counter("mip.nodes"), stats.nodes as f64);
    assert_eq!(
        obs.gauge("mip.stages"),
        Some(traced.partition.num_stages() as f64)
    );
    assert_eq!(
        obs.gauge("mip.predicted_step_secs")
            .map(SimTime::from_secs_f64),
        Some(traced.predicted_step)
    );
}

#[test]
fn traffic_accounting_analytic_vs_simulated() {
    // The analytic traffic estimate and the simulator's recorded traffic
    // must agree on parameter upload bytes (same plan, same semantics).
    let topo = commodity(&[2, 2]);
    let model = Model::from_config(&GptConfig::gpt_15b());
    let profile = Profiler::new(topo.gpu().clone()).profile(&model, 1);
    let cfg = PipelineConfig::mobius(4, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth())
        .with_strict_validation(true);
    let out = mobius_pipeline::partition_model(PartitionAlgo::MinStage, &profile, 4, &cfg).unwrap();
    let costs = stage_costs(&profile, &out.partition);
    let mapping = Mapping::cross(&topo, out.partition.num_stages());
    let analytic = evaluate_analytic(&costs, &mapping, &cfg).unwrap();
    let sim = simulate_step(&costs, &mapping, &topo, &cfg).unwrap();
    let sim_uploads = sim.trace.traffic_by_kind()[&CommKind::StageUpload];
    let rel = (sim_uploads - analytic.traffic.upload_bytes).abs() / analytic.traffic.upload_bytes;
    assert!(
        rel < 0.02,
        "upload bytes disagree: analytic {:.2e} vs simulated {sim_uploads:.2e}",
        analytic.traffic.upload_bytes
    );
}

#[test]
fn mobius_plan_is_deterministic() {
    let t = || {
        FineTuner::new(GptConfig::gpt_8b())
            .topology(commodity(&[2, 2]))
            .strict_validation(true)
            .plan()
            .unwrap()
    };
    let (a, b) = (t(), t());
    assert_eq!(a.partition, b.partition);
    assert_eq!(a.mapping, b.mapping);
    assert_eq!(a.predicted_step, b.predicted_step);
}

#[test]
fn cross_mapping_used_by_default_beats_nothing_on_flat_topology() {
    // On Topo 4 every mapping has the same contention degree; the plan must
    // still be valid and run.
    let report = FineTuner::new(GptConfig::gpt_8b())
        .topology(commodity(&[4]))
        .mapping_algo(MappingAlgo::Cross)
        .strict_validation(true)
        .run_step()
        .unwrap();
    assert!(report.step_time.as_secs_f64() > 0.0);
}

#[test]
fn step_report_invariants() {
    let report = FineTuner::new(GptConfig::gpt_8b())
        .topology(commodity(&[2, 2]))
        .strict_validation(true)
        .run_step()
        .unwrap();
    assert!(report.drain_time >= report.step_time);
    assert!(report.traffic_total() > report.model_size_bytes as f64);
    assert!(report.price_usd > 0.0);
    let cdf = report.bandwidth_cdf();
    assert!(!cdf.is_empty());
    // No transfer can beat the root-complex peak on a commodity server.
    assert!(cdf.quantile(1.0).unwrap() <= mobius_topology::ROOT_COMPLEX_GBPS * 1.01);
    let f = report.non_overlapped_fraction();
    assert!((0.0..=1.0).contains(&f));
}

#[test]
fn more_microbatches_increase_step_but_improve_throughput() {
    let step = |m: usize| {
        FineTuner::new(GptConfig::gpt_8b())
            .topology(commodity(&[2, 2]))
            .num_microbatches(m)
            .strict_validation(true)
            .run_step()
            .unwrap()
            .step_time
            .as_secs_f64()
    };
    let t4 = step(4);
    let t8 = step(8);
    assert!(t8 > t4, "more microbatches take longer per step");
    assert!(t8 / 8.0 < t4 / 4.0, "but amortize the pipeline fill");
}

#[test]
fn run_error_reports_oom_reason() {
    let err = FineTuner::new(GptConfig::gpt_8b())
        .topology(commodity(&[2, 2]))
        .system(System::Gpipe)
        .strict_validation(true)
        .run_step()
        .unwrap_err();
    match err {
        RunError::OutOfMemory(cause) => assert!(cause.to_string().contains("GiB")),
        other => panic!("expected OOM, got {other:?}"),
    }
}

// Exact step-simulation outputs. The flow network's rate solve must stay
// bit-identical through any rewrite, so these pin the executor, ZeRO and
// ring all-reduce results of five step-simulation cases to the nanosecond
// and the byte: two Mobius pipelines, a ZeRO-Offload step, a 4-server
// DeepSpeed-hetero cluster step and an 8-server ring all-reduce.

/// A Mobius pipeline on the minimum-stage partition with cross mapping.
fn pinned_pipeline(
    cfg: &GptConfig,
    groups: &[usize],
    m: usize,
) -> (Vec<StageCosts>, Mapping, Topology, PipelineConfig) {
    let topo = commodity(groups);
    let model = Model::from_config(cfg);
    let profile =
        Profiler::new(topo.gpu().clone()).profile(&model, model.config().default_microbatch);
    let pcfg = PipelineConfig::mobius(m, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth());
    let out =
        mobius_pipeline::partition_model(PartitionAlgo::MinStage, &profile, topo.num_gpus(), &pcfg)
            .unwrap();
    let stages = stage_costs(&profile, &out.partition);
    let mapping = Mapping::cross(&topo, stages.len());
    (stages, mapping, topo, pcfg)
}

/// Two simulated steps: (step boundaries ns, drain ns, total traffic).
fn pinned_two_steps(cfg: &GptConfig, groups: &[usize], m: usize) -> (Vec<u64>, u64, f64) {
    let (stages, mapping, topo, pcfg) = pinned_pipeline(cfg, groups, m);
    let rep = simulate_steps_traced(&stages, &mapping, &topo, &pcfg, 2, None).unwrap();
    let steps = rep.step_boundaries.iter().map(|t| t.as_nanos()).collect();
    (steps, rep.drain_time.as_nanos(), rep.trace.total_traffic())
}

#[test]
fn pinned_mobius_15b_4p4_m32() {
    assert_eq!(
        pinned_two_steps(&GptConfig::gpt_15b(), &[4, 4], 32),
        (
            vec![6_945_325_043, 13_934_320_259],
            13_976_789_772,
            202_428_928_000.0
        )
    );
}

#[test]
fn pinned_mobius_3b_2p2_m4() {
    assert_eq!(
        pinned_two_steps(&GptConfig::gpt_3b(), &[2, 2], 4),
        (
            vec![1_589_488_130, 3_194_864_988],
            3_210_753_716,
            48_868_073_472.0
        )
    );
}

/// Work counters of two observed simulated steps: rate-changing flow
/// mutations (`flow.partition_rebuild`; the lazy solves they trigger are
/// fewer), engine events scheduled and popped, and stage swaps. A change
/// in how many mutations or events a run takes fails here, not only in
/// the benchmark's digests.
fn pinned_work_counts(cfg: &GptConfig, groups: &[usize], m: usize) -> [f64; 4] {
    let (stages, mapping, topo, pcfg) = pinned_pipeline(cfg, groups, m);
    let obs = Obs::new();
    simulate_steps_traced(&stages, &mapping, &topo, &pcfg, 2, Some(&obs)).unwrap();
    [
        "flow.partition_rebuild",
        "engine.scheduled",
        "engine.popped",
        "swap.count",
    ]
    .map(|name| obs.counter(name))
}

#[test]
fn pinned_work_counts_of_observed_runs() {
    assert_eq!(
        pinned_work_counts(&GptConfig::gpt2_small(), &[4, 4], 32),
        [5_160.0, 3_512.0, 3_512.0, 56.0]
    );
    assert_eq!(
        pinned_work_counts(&GptConfig::gpt_3b(), &[2, 2], 4),
        [3_912.0, 2_360.0, 2_360.0, 264.0]
    );
}

#[test]
fn pinned_zero_offload_8b_2p2() {
    let rep = FineTuner::from_model(Model::from_config(&GptConfig::gpt_8b()))
        .topology(commodity(&[2, 2]))
        .system(System::ZeroOffload)
        .run_step()
        .unwrap();
    assert_eq!(rep.step_time.as_nanos(), 4_507_069_178);
    assert_eq!(rep.drain_time.as_nanos(), 4_507_069_178);
    assert_eq!(rep.traffic_total(), 135_510_228_992.0);
}

#[test]
fn pinned_ds_hetero_cluster_gpt2_2p2_x4() {
    let rep = FineTuner::from_model(Model::from_config(&GptConfig::gpt2_small()))
        .topology(commodity(&[2, 2]))
        .system(System::DeepSpeedHetero)
        .cluster(ClusterConfig::new(4, COMMODITY_NIC_GBPS))
        .run_step()
        .unwrap();
    assert_eq!(rep.step_time.as_nanos(), 257_879_119);
    assert_eq!(rep.drain_time.as_nanos(), 257_879_119);
    assert_eq!(rep.traffic_total(), 16_965_249_280.0);
}

#[test]
fn pinned_ring_allreduce_3b_2p2_x8() {
    // Eight servers syncing the 3B model's per-stage gradient buckets,
    // ready when a 2+2 replica's stages flushed them.
    let (stages, mapping, topo, pcfg) = pinned_pipeline(&GptConfig::gpt_3b(), &[2, 2], 4);
    let sim = simulate_step(&stages, &mapping, &topo, &pcfg).unwrap();
    let replica = ReplicaTiming {
        bucket_bytes: stages.iter().map(|s| s.grad_bytes as f64).collect(),
        ready: sim.grad_flush,
        ready_sids: Vec::new(),
    };
    let servers = 8;
    let cluster = Cluster::new(topo, servers, COMMODITY_NIC_GBPS);
    let rep = simulate_ring_allreduce(
        &cluster,
        &vec![replica; servers],
        &ClusterDpConfig::default(),
        None,
    )
    .unwrap();
    assert_eq!(rep.sync_done.as_nanos(), 2_565_785_006);
    assert_eq!(rep.per_server_tx.iter().sum::<f64>(), 96_040_763_392.0);
}

#[test]
fn fewer_layers_than_gpus_is_a_scheduling_error_not_an_oom() {
    // GPT-2 small has 14 layers: no partition gives each of 16 GPUs a stage.
    let err = FineTuner::new(GptConfig::gpt2_small())
        .topology(commodity(&[16]))
        .plan()
        .unwrap_err();
    assert_eq!(
        err,
        RunError::Schedule(ScheduleError::TooFewLayers {
            layers: 14,
            gpus: 16
        })
    );
}

#[test]
fn plan_maps_eleven_and_twelve_gpu_servers_deterministically() {
    // Before cross mapping pruned by root-complex labels, these two plans
    // enumerated 11! and 12! round permutations (18 s and over a minute).
    // The overheads line carries wall times, so it is compared up to them.
    let plan = |topo: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_mobius-cli"))
            .args(["plan", "--model", "3b", "--topo", topo])
            .output()
            .expect("mobius-cli runs");
        assert!(out.status.success(), "plan --topo {topo}: {out:?}");
        String::from_utf8(out.stdout)
            .expect("stdout is UTF-8")
            .lines()
            .map(|l| l.split("; overheads:").next().unwrap_or(l).to_string())
            .collect::<Vec<_>>()
    };
    for topo in ["12", "3+3+3+2"] {
        let first = plan(topo);
        assert!(first[0].contains("GPUs (Topo "), "{first:?}");
        assert_eq!(first, plan(topo), "--topo {topo}");
    }
}
