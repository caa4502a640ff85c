//! Integration tests for deterministic fault injection and degraded-mode
//! recovery: bit-identity of the empty schedule, seeded reproducibility,
//! watchdog retries, elastic replan after GPU failure, and the OOM
//! degradation ladder. Strict validation stays on wherever a faulted
//! schedule runs, so recovery is checked against the paper's constraints,
//! not just for completion.

use std::error::Error as _;

use mobius::{ClusterConfig, DegradeAction, FineTuner, OomCause, RunError, StepReport, System};
use mobius_mapping::Mapping;
use mobius_model::GptConfig;
use mobius_obs::Obs;
use mobius_pipeline::{
    simulate_steps_faulted, simulate_steps_traced, ExecError, MultiStepReport, PartitionAlgo,
    PipelineConfig, StageCosts,
};
use mobius_sim::{FaultAbort, FaultSchedule, SimTime};
use mobius_topology::{GpuSpec, Topology};

fn commodity(groups: &[usize]) -> Topology {
    Topology::commodity(GpuSpec::rtx3090ti(), groups)
}

/// A Mobius tuner with a deterministic (non-MIP) partition so runs can be
/// compared bit-for-bit, and strict validation on.
fn tuner(cfg: GptConfig) -> FineTuner {
    FineTuner::new(cfg)
        .topology(commodity(&[2, 2]))
        .system(System::Mobius)
        .partition_algo(PartitionAlgo::MinStage)
        .strict_validation(true)
}

fn stage(fwd_ms: u64, param_mb: u64) -> StageCosts {
    StageCosts {
        fwd: SimTime::from_millis(fwd_ms),
        bwd: SimTime::from_millis(3 * fwd_ms),
        param_bytes: param_mb << 20,
        grad_bytes: param_mb << 20,
        in_act_bytes: 64 << 20,
        out_act_bytes: 64 << 20,
        workspace_bytes: 64 << 20,
    }
}

/// The acceptance gate of the fault subsystem: running through
/// `simulate_steps_faulted` with an *empty* schedule must be bit-identical
/// to a run that never heard of fault injection — step boundaries, drain,
/// traffic bytes, Chrome trace bytes, and the metrics registry.
#[test]
fn empty_schedule_is_bit_identical_to_no_subsystem() {
    let stages = vec![
        stage(10, 256),
        stage(12, 192),
        stage(8, 320),
        stage(11, 128),
    ];
    let topo = commodity(&[2]);
    let mapping = Mapping::sequential(stages.len(), topo.num_gpus());
    let cfg = PipelineConfig {
        strict_validation: true,
        ..PipelineConfig::mobius(2, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth())
    };

    let plain_obs = Obs::new();
    let plain = simulate_steps_traced(&stages, &mapping, &topo, &cfg, 2, Some(&plain_obs)).unwrap();

    let faulted_obs = Obs::new();
    let faulted = simulate_steps_faulted(
        &stages,
        &mapping,
        &topo,
        &cfg,
        2,
        &FaultSchedule::new(),
        Some(&faulted_obs),
    )
    .unwrap();

    assert_eq!(plain.step_boundaries, faulted.step_boundaries);
    assert_eq!(plain.drain_time, faulted.drain_time);
    assert_eq!(
        plain.trace.total_traffic().to_bits(),
        faulted.trace.total_traffic().to_bits(),
        "traffic must match to the last bit"
    );
    assert_eq!(faulted.faults, Default::default());
    assert_eq!(
        plain_obs.chrome_trace_json(),
        faulted_obs.chrome_trace_json(),
        "trace bytes must be identical"
    );
    assert_eq!(plain_obs.metrics_json(), faulted_obs.metrics_json());
}

/// Same gate one layer up: attaching an empty schedule to the fine-tuner
/// changes nothing, on every executor path the tuner drives — the step
/// times, the drain time, the Chrome trace and the metrics all match a run
/// without a schedule, byte for byte.
#[test]
fn empty_schedule_on_the_tuner_changes_nothing() {
    let gpipe = || tuner(GptConfig::gpt_3b()).system(System::Gpipe);
    let cases = [
        ("mobius step", tuner(GptConfig::gpt_3b()), 1),
        ("gpipe step", gpipe(), 1),
        (
            "ds-pipeline step",
            tuner(GptConfig::gpt_3b()).system(System::DeepSpeedPipeline),
            1,
        ),
        ("mobius 2 steps", tuner(GptConfig::gpt_3b()), 2),
        ("gpipe 2 steps", gpipe(), 2),
        (
            "2-server mobius step",
            tuner(GptConfig::gpt_3b()).cluster(ClusterConfig::new(2, 12.5)),
            1,
        ),
    ];
    for (label, base, steps) in cases {
        let faulted = base.clone().faults(FaultSchedule::new()).recover(true);
        assert_eq!(observed(base, steps), observed(faulted, steps), "{label}");
    }
}

/// Step boundaries, drain time, Chrome trace and metrics JSON of an
/// observed `run_step` (`steps == 1`) or `run_steps(steps)`, which must
/// report no fault activity.
fn observed(tuner: FineTuner, steps: usize) -> (Vec<SimTime>, SimTime, String, String) {
    let obs = Obs::new();
    let tuner = tuner.observe(obs.clone());
    let (boundaries, drain) = if steps == 1 {
        let rep = tuner.run_step().unwrap();
        assert!(rep.degradations.is_empty());
        assert_eq!(rep.faults, Default::default());
        (vec![rep.step_time], rep.drain_time)
    } else {
        let rep = tuner.run_steps(steps).unwrap();
        assert_eq!(rep.faults, Default::default());
        (rep.step_boundaries, rep.drain_time)
    };
    (
        boundaries,
        drain,
        obs.chrome_trace_json(),
        obs.metrics_json(),
    )
}

#[test]
fn seeded_faults_reproduce_bitwise() {
    let run = || {
        tuner(GptConfig::gpt_3b())
            .faults(FaultSchedule::random(99, 6, 4, SimTime::from_secs(2)))
            .run_step()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.step_time, b.step_time);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.step_time.as_nanos(), b.step_time.as_nanos());
}

#[test]
fn degraded_uplink_slows_the_tuned_step() {
    let clean = tuner(GptConfig::gpt_3b()).run_step().unwrap();
    let degraded = tuner(GptConfig::gpt_3b())
        .faults(FaultSchedule::new().degrade_link(
            "rc",
            0.25,
            SimTime::ZERO,
            SimTime::from_secs(30),
        ))
        .run_step()
        .unwrap();
    assert!(
        degraded.step_time > clean.step_time,
        "a quartered uplink must slow the step: {} vs {}",
        degraded.step_time,
        clean.step_time
    );
    assert_eq!(degraded.faults.link_degrades, 1);
}

#[test]
fn stalled_transfer_retries_and_completes_under_strict_validation() {
    let rep = tuner(GptConfig::gpt_3b())
        .faults(
            FaultSchedule::new()
                .stall(SimTime::from_millis(5), SimTime::from_millis(300))
                .with_watchdog(SimTime::from_millis(20))
                .with_retry(SimTime::from_millis(2), 20),
        )
        .run_step()
        .unwrap();
    assert_eq!(rep.faults.stalls, 1);
    assert!(rep.faults.retries >= 1, "the watchdog must have fired");
    assert_eq!(rep.faults.aborted_transfers, 0);
}

#[test]
fn gpu_failure_without_policy_is_a_typed_fault() {
    let err = tuner(GptConfig::gpt_3b())
        .faults(FaultSchedule::new().fail_gpu(1, SimTime::from_millis(100)))
        .run_step()
        .unwrap_err();
    match err {
        RunError::Fault(FaultAbort::GpuFailed { gpu, at }) => {
            assert_eq!(gpu, 1);
            assert_eq!(at, SimTime::from_millis(100));
        }
        other => panic!("expected a GPU failure, got {other:?}"),
    }
    // The source chain reaches the typed abort.
    assert!(err.source().expect("fault has a source").is::<FaultAbort>());
}

#[test]
fn gpu_failure_with_policy_replans_on_survivors() {
    let rep = tuner(GptConfig::gpt_3b())
        .num_microbatches(4)
        .faults(FaultSchedule::new().fail_gpu(1, SimTime::from_millis(100)))
        .recover(true)
        .run_step()
        .unwrap();
    assert_eq!(rep.faults.gpu_failures, 1);
    assert_eq!(rep.degradations.len(), 1);
    match &rep.degradations[0].action {
        DegradeAction::ElasticReplan {
            failed_gpu,
            surviving_gpus,
            ..
        } => {
            assert_eq!(*failed_gpu, 1);
            assert_eq!(*surviving_gpus, 3);
        }
        other => panic!("expected an elastic replan, got {other:?}"),
    }
    assert!(matches!(rep.degradations[0].cause, RunError::Fault(_)));
    assert!(rep.step_time > SimTime::ZERO);
}

/// The OOM degradation ladder, end to end: an absurd microbatch count
/// blows the pipeline's per-stage activation stash (`m` checkpointed
/// inputs) under *every* partition, while ZeRO (data-parallel, one
/// resident microbatch per GPU) is unaffected. Without recovery the run
/// is a typed OOM; with it, both rungs are recorded — a MaxStage
/// re-partition attempt, then the ZeRO-hetero fallback — and the step
/// completes.
#[test]
fn oom_degrades_through_the_ladder_to_zero_hetero() {
    let oversubscribed = || tuner(GptConfig::gpt_15b()).num_microbatches(8192);
    assert!(
        matches!(oversubscribed().run_step(), Err(RunError::OutOfMemory(_))),
        "8192 checkpointed microbatches must OOM without the ladder"
    );
    let rep = oversubscribed().recover(true).run_step().unwrap();
    let actions: Vec<_> = rep.degradations.iter().map(|d| &d.action).collect();
    assert_eq!(rep.degradations.len(), 2, "{actions:?}");
    assert!(matches!(
        actions[0],
        DegradeAction::MoreStages {
            algo: PartitionAlgo::MaxStage
        }
    ));
    assert!(matches!(actions[1], DegradeAction::ZeroHetero));
    for d in &rep.degradations {
        assert!(matches!(d.cause, RunError::OutOfMemory(_)), "{}", d);
    }
    // The report records what was asked for; the degradations say what ran.
    assert_eq!(rep.system, System::Mobius);
    assert!(rep.step_time > SimTime::ZERO);
}

/// A tuner already configured with the memory-greedy MaxStage partition
/// skips the re-partition rung: there is nothing smaller to try, so the
/// ladder goes straight to ZeRO-hetero.
#[test]
fn ladder_skips_more_stages_when_already_max_stage() {
    let rep = tuner(GptConfig::gpt_15b())
        .partition_algo(PartitionAlgo::MaxStage)
        .num_microbatches(8192)
        .recover(true)
        .run_step()
        .unwrap();
    assert_eq!(rep.degradations.len(), 1);
    assert!(matches!(
        rep.degradations[0].action,
        DegradeAction::ZeroHetero
    ));
}

/// A model whose embedding alone exceeds GPU memory OOMs on *every*
/// system — as a returned typed error, never a panic.
#[test]
fn every_system_returns_oom_for_an_oversized_layer() {
    // 2M vocab x 8192 hidden x 2 bytes = 32 GB in one layer.
    let monster = GptConfig::new("monster", 2_000_000, 8192, 64, 2, 512, 1);
    for system in [
        System::Mobius,
        System::Gpipe,
        System::DeepSpeedPipeline,
        System::DeepSpeedHetero,
        System::ZeroOffload,
    ] {
        let err = FineTuner::new(monster.clone())
            .topology(commodity(&[2, 2]))
            .system(system)
            .partition_algo(PartitionAlgo::MinStage)
            .strict_validation(true)
            .run_step()
            .unwrap_err();
        match &err {
            RunError::OutOfMemory(cause) => {
                // The cause keeps its type: schedule errors from the
                // pipeline systems, ZeRO errors from the ZeRO systems.
                match system {
                    System::DeepSpeedHetero => {
                        assert!(matches!(cause, OomCause::Zero(_)), "{system:?}: {cause:?}")
                    }
                    System::Gpipe | System::Mobius => {
                        assert!(
                            matches!(cause, OomCause::Schedule(_)),
                            "{system:?}: {cause:?}"
                        )
                    }
                    _ => {}
                }
            }
            other => panic!("{system:?} should OOM, got {other:?}"),
        }
        // Every OOM explains itself down to the root cause.
        let chain_root = err.source().and_then(|c| c.source());
        assert!(chain_root.is_some(), "{system:?} OOM has no root cause");
    }
}

#[test]
fn multi_step_runs_replay_faults_but_never_replan() {
    let degraded = tuner(GptConfig::gpt_3b())
        .faults(FaultSchedule::new().degrade_link(
            "rc",
            0.5,
            SimTime::from_millis(100),
            SimTime::from_secs(1),
        ))
        .run_steps(2)
        .unwrap();
    assert_eq!(degraded.faults.link_degrades, 1);
    assert_eq!(degraded.step_boundaries.len(), 2);

    // A GPU failure aborts a multi-step run even with recovery on:
    // replan is a per-step decision (run_step), not a mid-run one.
    let err = tuner(GptConfig::gpt_3b())
        .faults(FaultSchedule::new().fail_gpu(0, SimTime::from_millis(50)))
        .recover(true)
        .run_steps(2)
        .unwrap_err();
    assert!(matches!(err, RunError::Fault(_)), "{err}");
}

/// A root-complex link degraded by 1e-30 until past the end of the clock
/// leaves every transfer on it pending when the clock saturates. That is a
/// typed overflow from the executor and the tuner, never a panic, and
/// recovery does not replan around it.
#[test]
fn a_link_degraded_past_the_clock_is_a_typed_overflow() {
    let crawl = FaultSchedule::new().degrade_link("rc", 1e-30, SimTime::ZERO, SimTime::MAX);
    let stages = vec![stage(10, 256), stage(12, 192)];
    let topo = commodity(&[2, 2]);
    let mapping = Mapping::sequential(stages.len(), topo.num_gpus());
    let cfg = PipelineConfig {
        strict_validation: true,
        ..PipelineConfig::mobius(2, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth())
    };
    match simulate_steps_faulted(&stages, &mapping, &topo, &cfg, 1, &crawl, None) {
        Err(ExecError::ClockOverflow { remaining }) => assert!(remaining > 0.0),
        other => panic!("expected ClockOverflow, got {other:?}"),
    }
    for recover in [false, true] {
        let obs = Obs::new();
        let res = tuner(GptConfig::gpt2_small())
            .faults(crawl.clone())
            .recover(recover)
            .observe(obs.clone())
            .run_step();
        assert!(
            matches!(res, Err(RunError::ClockOverflow { .. })),
            "recover {recover}: {res:?}"
        );
        assert_eq!(obs.counter("fault.replans"), 0.0);
        assert_eq!(obs.counter("fault.degraded_to_zero"), 0.0);
    }
}

#[test]
fn zero_systems_reject_fault_schedules() {
    let err = FineTuner::new(GptConfig::gpt_8b())
        .topology(commodity(&[2, 2]))
        .system(System::DeepSpeedHetero)
        .faults(FaultSchedule::new().stall(SimTime::from_millis(1), SimTime::from_millis(5)))
        .run_step()
        .unwrap_err();
    assert!(matches!(err, RunError::Unsupported(_)), "{err}");
}

/// FNV-64 digests of everything an executor run leaves behind: the Chrome
/// trace and metrics JSON of its observer (0 when untraced), and the
/// report's step boundaries, drain time, gradient flushes, DAG node ids,
/// fault accounting and traffic map.
fn run_digests(rep: &MultiStepReport, obs: Option<&Obs>) -> [u64; 3] {
    let t = &rep.trace;
    let per_gpu: Vec<_> = t
        .gpus()
        .into_iter()
        .map(|g| (g, t.compute_time(g), t.non_overlapped_comm(g)))
        .collect();
    let report = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        rep.step_boundaries,
        rep.drain_time,
        rep.grad_flush,
        rep.step_heads,
        rep.grad_flush_sids,
        rep.faults,
        t.traffic_by_kind(),
        t.samples(),
        per_gpu,
    );
    let digest = |s: String| mobius::ckpt::fnv64(s.as_bytes());
    [
        obs.map_or(0, |o| digest(o.chrome_trace_json())),
        obs.map_or(0, |o| digest(o.metrics_json())),
        digest(report),
    ]
}

/// Pins the executor paths the 2-GPU golden trace does not reach, byte for
/// byte: the cross-step reload gate, same-GPU activation and gradient
/// handoffs, stall/watchdog/relaunch with a link degrade and a straggler,
/// and a strict untraced run that verifies a private DAG.
#[test]
fn executor_paths_beyond_the_golden_trace_are_pinned() {
    let stages = vec![
        stage(10, 256),
        stage(12, 192),
        stage(8, 320),
        stage(11, 128),
        stage(9, 224),
        stage(10, 160),
    ];
    let strict = |topo: &Topology, m: usize| PipelineConfig {
        strict_validation: true,
        ..PipelineConfig::mobius(m, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth())
    };
    let none = FaultSchedule::new();
    let run = |mapping: &Mapping, topo: &Topology, steps, faults: &FaultSchedule, traced| {
        let obs = Obs::new();
        let cfg = strict(topo, 3);
        let observer = if traced { Some(&obs) } else { None };
        let rep = simulate_steps_faulted(&stages, mapping, topo, &cfg, steps, faults, observer)
            .expect("pinned run completes");
        (rep, obs)
    };

    // Two hetero steps: step 1's reloads wait on step 0's gradient flush.
    let topo = commodity(&[2, 2]);
    let seq = Mapping::sequential(stages.len(), topo.num_gpus());
    let (gated, gated_obs) = run(&seq, &topo, 2, &none, true);
    assert!(gated_obs.chrome_trace_json().contains("reload-gate"));

    // Consecutive stages share a GPU: activations and gradients hand off
    // locally in both directions.
    let local = Mapping::from_table(vec![0, 0, 1, 1, 2, 3], 4);
    let (handoff, handoff_obs) = run(&local, &topo, 2, &none, true);
    assert!(handoff_obs.chrome_trace_json().contains("act-local"));

    // A stall the watchdog retries, a degraded root complex and a
    // straggler, all inside one run.
    let faults = FaultSchedule::new()
        .stall(SimTime::from_millis(1), SimTime::from_millis(400))
        .with_watchdog(SimTime::from_millis(20))
        .with_retry(SimTime::from_millis(2), 20)
        .degrade_link(
            "rc",
            0.5,
            SimTime::from_millis(5),
            SimTime::from_millis(300),
        )
        .slow_gpu(1, 2.0, SimTime::ZERO, SimTime::from_millis(200));
    let (faulted, faulted_obs) = run(&seq, &topo, 2, &faults, true);
    assert!(faulted.faults.retries > 0, "{:?}", faulted.faults);
    assert_eq!(faulted.faults.link_degrades, 1);
    assert_eq!(faulted.faults.slowdowns, 1);

    // Strict but untraced: the DAG is private, its ids stay out.
    let (private, _) = run(&seq, &topo, 2, &none, false);
    assert!(private.step_heads.iter().all(Option::is_none));

    let got = [
        run_digests(&gated, Some(&gated_obs)),
        run_digests(&handoff, Some(&handoff_obs)),
        run_digests(&faulted, Some(&faulted_obs)),
        run_digests(&private, None),
    ];
    assert_eq!(
        got,
        [
            [0xe15f874f5120cc6d, 0xe8f0733c898e24f0, 0x48829489400844b0],
            [0x1793d26dd4ba5402, 0xef7b33387b4e3c91, 0x0a95165d52fa708c],
            [0x30367d4c54778272, 0xf1c0fc2d504b5d79, 0xed7095d80d05dc55],
            [0, 0, 0x6b96b56b1c0dc8d1],
        ]
    );
}

/// FNV-64 digests of what an observed `run_step` leaves behind: the Chrome
/// trace, the metrics JSON, and the report's step, drain, price, traffic,
/// fault accounting, degradations (as displayed) and cluster accounting.
fn step_digests(tuner: FineTuner) -> ([u64; 3], StepReport) {
    let obs = Obs::new();
    let rep = tuner.observe(obs.clone()).run_step().expect("pinned step");
    let degradations: Vec<String> = rep.degradations.iter().map(ToString::to_string).collect();
    let report = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        rep.step_time,
        rep.drain_time,
        rep.price_usd,
        rep.traffic_total(),
        rep.trace.traffic_by_kind(),
        rep.faults,
        degradations,
        rep.cluster,
    );
    let digest = |s: String| mobius::ckpt::fnv64(s.as_bytes());
    let digests = [
        digest(obs.chrome_trace_json()),
        digest(obs.metrics_json()),
        digest(report),
    ];
    (digests, rep)
}

/// Pins the facade's recovery and scale-out paths byte for byte: the OOM
/// ladder down to ZeRO-hetero on a 2-server Mobius cluster, a GPU loss
/// replanned inside one server of a 2-server cluster, an observed
/// DeepSpeed-hetero step on 3 servers and a stalled GPipe step. Also pins
/// the config fingerprint of no, an empty, a crash-only and a degrade
/// schedule, each with and without a cluster.
#[test]
fn facade_paths_are_pinned() {
    let two = ClusterConfig::new(2, 12.5);
    let ladder = tuner(GptConfig::gpt_15b())
        .num_microbatches(8192)
        .cluster(two)
        .recover(true);
    let replanned = tuner(GptConfig::gpt_3b())
        .num_microbatches(4)
        .cluster(two)
        .faults(FaultSchedule::new().fail_gpu(3, SimTime::from_millis(1)))
        .recover(true);
    let zero = tuner(GptConfig::gpt_3b())
        .system(System::DeepSpeedHetero)
        .cluster(ClusterConfig::new(3, 12.5));
    // The first activation transfer is in flight from 48.455 ms to 48.775 ms.
    let stalled = tuner(GptConfig::gpt_3b()).system(System::Gpipe).faults(
        FaultSchedule::new()
            .stall(SimTime::from_micros(48_600), SimTime::from_millis(300))
            .with_watchdog(SimTime::from_millis(20))
            .with_retry(SimTime::from_millis(2), 20),
    );
    let [ladder, replanned, zero, stalled] = [ladder, replanned, zero, stalled].map(step_digests);
    // Each run takes the path it is named for.
    assert!(matches!(
        ladder.1.degradations.last().map(|d| &d.action),
        Some(DegradeAction::ZeroHetero)
    ));
    assert_eq!(ladder.1.cluster.as_ref().map(|c| c.num_servers), Some(2));
    assert!(matches!(
        replanned.1.degradations[0].action,
        DegradeAction::ElasticReplan { .. }
    ));
    assert_eq!(
        replanned.1.cluster.as_ref().map(|c| c.bucket_done.len()),
        Some(1)
    );
    assert_eq!(zero.1.cluster.as_ref().map(|c| c.num_servers), Some(3));
    assert_eq!(stalled.1.faults.stalls, 1);
    assert!(stalled.1.faults.retries >= 1);
    let got = [ladder.0, replanned.0, zero.0, stalled.0];
    assert_eq!(
        got,
        [
            [0xb1c9c73b91246b42, 0x697540da8af45807, 0x26533fd5c4dcef96],
            [0x64c33f25e27e4c03, 0x4bce6a22423fc3f8, 0xd93ab23c29baba5d],
            [0x73d94fd64d23152d, 0xb1e5adae9f2c32bc, 0xea29cd8feeef110e],
            [0x7594a77c805671d9, 0x11c5b7fb61bc843a, 0x22b9af18e0cec9c0],
        ]
    );

    let base = FineTuner::new(GptConfig::gpt2_small()).topology(commodity(&[2, 2]));
    let schedules = [
        None,
        Some(FaultSchedule::new()),
        Some(FaultSchedule::new().crash_at_step(3)),
        Some(FaultSchedule::new().degrade_link(
            "rc",
            0.5,
            SimTime::ZERO,
            SimTime::from_millis(100),
        )),
    ];
    let fingerprints = schedules.map(|schedule| {
        let t = match schedule {
            Some(s) => base.clone().faults(s),
            None => base.clone(),
        };
        [t.config_fingerprint(), t.cluster(two).config_fingerprint()]
    });
    // No, an empty and a crash-only schedule name the same run.
    assert_eq!(
        fingerprints,
        [
            [0x6780b048b9667db7, 0xe6c2d253d5e421c2],
            [0x6780b048b9667db7, 0xe6c2d253d5e421c2],
            [0x6780b048b9667db7, 0xe6c2d253d5e421c2],
            [0x2e98bc703bb2f5db, 0x0463426bffc3c4de],
        ]
    );
}
