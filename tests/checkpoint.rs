//! Crash-consistent checkpoint/restore, end to end at the library level:
//! a run crashed by a deterministic `crash:<k>` fault and then resumed
//! produces byte-identical concatenated trace/metrics/analysis chunks to
//! an uninterrupted reference, corrupt checkpoints fall back, and a
//! resume onto a shrunken topology routes through the elastic-replan
//! warm start.

use std::path::{Path, PathBuf};

use mobius::ckpt::{
    corrupt_newest, load_latest, write_checkpoint, CkptError, CorruptMode, RunState,
};
use mobius::{run_checkpointed, CheckpointOpts, FineTuner, RunOutcome, RunSinks, System};
use mobius_model::GptConfig;
use mobius_pipeline::PartitionAlgo;
use mobius_sim::FaultSchedule;
use mobius_topology::{GpuSpec, Topology};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mobius-wks-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tuner() -> FineTuner {
    FineTuner::new(GptConfig::gpt2_small())
        .topology(Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]))
        .system(System::Mobius)
        .partition_algo(PartitionAlgo::MinStage)
}

fn sinks(dir: &Path, tag: &str) -> RunSinks {
    RunSinks {
        trace_out: Some(dir.join(format!("{tag}-trace.json"))),
        metrics_out: Some(dir.join(format!("{tag}-metrics.json"))),
        analyze_out: Some(dir.join(format!("{tag}-analyze.json"))),
    }
}

fn read(p: &Option<PathBuf>) -> Vec<u8> {
    std::fs::read(p.as_ref().unwrap()).unwrap()
}

/// Runs `base` for `steps` steps uninterrupted, then crashed at step 3
/// and resumed, and asserts the concatenated per-step chunks of every
/// sink equal the uninterrupted reference's bytes exactly.
fn assert_crash_resume_stitches(base: FineTuner, steps: u64, tag: &str) {
    let dir = scratch(tag);
    let opts = |ckpt_dir: &Path| CheckpointOpts {
        steps,
        every: 2,
        dir: Some(ckpt_dir.to_path_buf()),
        ..CheckpointOpts::default()
    };

    let ref_sinks = sinks(&dir, "ref");
    match run_checkpointed(&base, &opts(&dir.join("ref")), &ref_sinks).unwrap() {
        RunOutcome::Completed(s) => assert_eq!(s.state.step, steps),
        RunOutcome::Crashed { at, .. } => panic!("unexpected crash at {at}"),
    }

    let crash_store = dir.join("crash");
    let crashed = base.faults(FaultSchedule::new().crash_at_step(3));
    let c_sinks = sinks(&dir, "c1");
    match run_checkpointed(&crashed, &opts(&crash_store), &c_sinks).unwrap() {
        RunOutcome::Crashed {
            lost_steps,
            summary,
            ..
        } => {
            assert_eq!(summary.state.step, 2, "committed through the step-2 ckpt");
            assert_eq!(lost_steps, 1, "step 2 (index) ran but never committed");
        }
        RunOutcome::Completed(_) => panic!("crash:3 must fire"),
    }

    let resume_opts = CheckpointOpts {
        resume: Some(crash_store.clone()),
        ..opts(&crash_store)
    };
    let r_sinks = sinks(&dir, "c2");
    match run_checkpointed(&crashed, &resume_opts, &r_sinks).unwrap() {
        RunOutcome::Completed(s) => {
            assert_eq!(s.start_step, 2);
            assert_eq!(s.state.step, steps);
            assert!(s.fallbacks.is_empty(), "{:?}", s.fallbacks);
        }
        RunOutcome::Crashed { at, .. } => panic!("consumed crash re-fired at {at}"),
    }

    for get in [
        |s: &RunSinks| s.trace_out.clone(),
        |s: &RunSinks| s.metrics_out.clone(),
        |s: &RunSinks| s.analyze_out.clone(),
    ] {
        let reference = read(&get(&ref_sinks));
        let mut stitched = read(&get(&c_sinks));
        stitched.extend(read(&get(&r_sinks)));
        assert!(
            stitched == reference,
            "concatenated crash+resume chunks must equal the reference bytes for {:?}",
            get(&ref_sinks)
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The headline validator: crash at step k, resume, and the concatenated
/// per-step chunks of every sink equal the uninterrupted reference's
/// bytes exactly.
#[test]
fn crash_then_resume_is_byte_identical_to_uninterrupted_run() {
    assert_crash_resume_stitches(tuner(), 5, "headline");
}

/// The same contract on a paper-scale model planned by the MIP: the
/// resumed invocation solves again, and its node-budgeted search must
/// reproduce the uninterrupted run's plan and `mip.*` record exactly.
#[test]
fn paper_scale_crash_then_resume_is_byte_identical() {
    let base = FineTuner::new(GptConfig::gpt_8b())
        .topology(Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]))
        .system(System::Mobius);
    assert_crash_resume_stitches(base, 4, "paper-scale");
}

/// A deliberately corrupted dying write (torn checkpoint) is skipped and
/// the run falls back to the previous valid checkpoint — and the stitched
/// bytes still match, because the fallback only re-executes more steps.
#[test]
fn corrupt_dying_write_falls_back_and_still_stitches_byte_identically() {
    let dir = scratch("corrupt");
    let store = dir.join("store");
    let base_opts = CheckpointOpts {
        steps: 5,
        every: 2,
        dir: Some(store.clone()),
        crash_corrupt: true,
        ..CheckpointOpts::default()
    };

    let ref_sinks = sinks(&dir, "ref");
    let ref_opts = CheckpointOpts {
        dir: Some(dir.join("ref")),
        crash_corrupt: false,
        ..base_opts.clone()
    };
    run_checkpointed(&tuner(), &ref_opts, &ref_sinks).unwrap();

    let crashed = tuner().faults(FaultSchedule::new().crash_at_step(3));
    let c_sinks = sinks(&dir, "c1");
    let ckpt_path = match run_checkpointed(&crashed, &base_opts, &c_sinks).unwrap() {
        RunOutcome::Crashed { ckpt_path, .. } => ckpt_path.unwrap(),
        RunOutcome::Completed(_) => panic!("crash:3 must fire"),
    };
    assert!(
        matches!(
            mobius::ckpt::RunState::decode(
                &std::fs::read_to_string(&ckpt_path).unwrap(),
                &ckpt_path
            ),
            Err(CkptError::Truncated { .. })
        ),
        "the dying write must be torn"
    );

    // Resume WITHOUT the crash clause (the fingerprint excludes crash
    // events precisely so a recovery invocation can drop them).
    let resume_opts = CheckpointOpts {
        resume: Some(store.clone()),
        crash_corrupt: false,
        ..base_opts.clone()
    };
    let r_sinks = sinks(&dir, "c2");
    match run_checkpointed(&tuner(), &resume_opts, &r_sinks).unwrap() {
        RunOutcome::Completed(s) => {
            assert_eq!(s.start_step, 2, "fell back to the step-2 checkpoint");
            assert_eq!(s.fallbacks.len(), 1, "{:?}", s.fallbacks);
            assert!(matches!(s.fallbacks[0].1, CkptError::Truncated { .. }));
        }
        RunOutcome::Crashed { at, .. } => panic!("no crash scheduled, fired at {at}"),
    }

    for get in [
        |s: &RunSinks| s.trace_out.clone(),
        |s: &RunSinks| s.metrics_out.clone(),
        |s: &RunSinks| s.analyze_out.clone(),
    ] {
        let reference = read(&get(&ref_sinks));
        let mut stitched = read(&get(&c_sinks));
        stitched.extend(read(&get(&r_sinks)));
        assert_eq!(stitched, reference);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Flipping a byte in the newest checkpoint trips the FNV checksum and
/// the loader falls back to the previous one.
#[test]
fn bitrot_fails_the_checksum_and_falls_back() {
    let dir = scratch("bitrot");
    let opts = CheckpointOpts {
        steps: 4,
        every: 2,
        dir: Some(dir.clone()),
        ..CheckpointOpts::default()
    };
    let t = tuner();
    run_checkpointed(&t, &opts, &RunSinks::default()).unwrap();
    corrupt_newest(&dir, CorruptMode::FlipByte).unwrap();

    let loaded = load_latest(&dir, Some(t.config_fingerprint())).unwrap();
    assert_eq!(loaded.state.step, 2, "fell back to the step-2 checkpoint");
    assert_eq!(loaded.skipped.len(), 1);
    assert!(matches!(
        loaded.skipped[0].1,
        CkptError::ChecksumMismatch { .. }
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint from a different run configuration is refused outright
/// (FingerprintMismatch), never silently resumed.
#[test]
fn foreign_checkpoint_is_refused_not_resumed() {
    let dir = scratch("foreign");
    let opts = CheckpointOpts {
        steps: 2,
        every: 1,
        dir: Some(dir.clone()),
        resume: None,
        ..CheckpointOpts::default()
    };
    run_checkpointed(&tuner(), &opts, &RunSinks::default()).unwrap();

    let other = tuner().num_microbatches(7);
    let resume_opts = CheckpointOpts {
        resume: Some(dir.clone()),
        ..opts
    };
    let err = run_checkpointed(&other, &resume_opts, &RunSinks::default()).unwrap_err();
    assert!(
        err.to_string().contains("different run"),
        "fingerprint mismatch must be loud: {err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Resume-after-GPU-loss: the server comes back with one GPU fewer, and
/// the resume composes with PR 6's elastic replan by warm-starting the
/// partition solve from the committed checkpoint's partition. The run
/// completes on the shrunken topology and the committed partition spans
/// fewer stages' worth of GPUs.
#[test]
fn resume_onto_shrunken_topology_warm_starts_the_elastic_replan() {
    let dir = scratch("shrink");
    let full = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
    let make = |topo: Topology| {
        FineTuner::new(GptConfig::gpt2_small())
            .topology(topo)
            .system(System::Mobius)
            .partition_algo(PartitionAlgo::MinStage)
    };
    let opts = CheckpointOpts {
        steps: 4,
        every: 2,
        dir: Some(dir.clone()),
        ..CheckpointOpts::default()
    };
    let crashed = make(full.clone()).faults(FaultSchedule::new().crash_at_step(3));
    match run_checkpointed(&crashed, &opts, &RunSinks::default()).unwrap() {
        RunOutcome::Crashed { summary, .. } => {
            assert_eq!(summary.state.step, 2);
            assert!(
                !summary.state.partition.is_empty(),
                "the committed checkpoint must carry the planned partition"
            );
        }
        RunOutcome::Completed(_) => panic!("crash:3 must fire"),
    }

    // The machine rebooted without GPU 3.
    let shrunken = full.without_gpu(3).expect("4-GPU topology shrinks to 3");
    let resume_opts = CheckpointOpts {
        resume: Some(dir.clone()),
        ..opts
    };
    let summary =
        match run_checkpointed(&make(shrunken), &resume_opts, &RunSinks::default()).unwrap() {
            RunOutcome::Completed(s) => s,
            RunOutcome::Crashed { at, .. } => panic!("consumed crash re-fired at {at}"),
        };
    assert_eq!(summary.start_step, 2);
    assert_eq!(summary.state.step, 4, "run completes on 3 GPUs");
    let rep = summary.last_report.expect("steps ran");
    assert!(rep.step_time > mobius_sim::SimTime::ZERO);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint's partition is untrusted input: one with an empty stage,
/// or with sizes whose sum overflows (wrapping to the layer count), must
/// leave the elastic replan cold instead of panicking the planner.
#[test]
fn malformed_checkpoint_partition_resumes_with_a_cold_replan() {
    let dir = scratch("bad-partition");
    let full = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
    let make = |topo: Topology| {
        FineTuner::new(GptConfig::gpt2_small())
            .topology(topo)
            .system(System::Mobius)
    };
    let opts = CheckpointOpts {
        steps: 4,
        every: 2,
        dir: Some(dir.clone()),
        ..CheckpointOpts::default()
    };
    let crashed = make(full.clone()).faults(FaultSchedule::new().crash_at_step(3));
    let committed = match run_checkpointed(&crashed, &opts, &RunSinks::default()).unwrap() {
        RunOutcome::Crashed { summary, .. } => summary.state,
        RunOutcome::Completed(_) => panic!("crash:3 must fire"),
    };
    let layers: u64 = committed.partition.iter().sum();
    assert!(
        layers > 2,
        "the committed checkpoint must carry the partition"
    );

    let shrunken = full.without_gpu(3).expect("4-GPU topology shrinks to 3");
    let cold = make(shrunken.clone()).plan().expect("cold plan on 3 GPUs");
    assert_eq!(cold.partition.num_layers() as u64, layers);
    let resume_opts = CheckpointOpts {
        resume: Some(dir.clone()),
        ..opts
    };
    // A zero-sized stage with fewer and with more stages than GPUs, and
    // sizes whose sum wraps to `L`.
    let candidates = [
        vec![0, layers],
        vec![0, 1, 1, layers - 2],
        vec![u64::MAX, layers + 1],
    ];
    for bad in candidates {
        // Newest on disk: a doctored copy of the step-2 commit.
        let newest = load_latest(&dir, Some(committed.fingerprint)).unwrap();
        let state = RunState {
            seq: newest.state.seq + 1,
            partition: bad.clone(),
            ..committed.clone()
        };
        write_checkpoint(&dir, &state, 8).unwrap();
        let loaded = load_latest(&dir, Some(state.fingerprint)).unwrap();
        assert_eq!(loaded.state, state, "the resume reads the doctored state");

        let summary =
            match run_checkpointed(&make(shrunken.clone()), &resume_opts, &RunSinks::default()) {
                Ok(RunOutcome::Completed(s)) => s,
                other => panic!("{bad:?}: resume must complete, got {other:?}"),
            };
        assert_eq!(summary.start_step, 2);
        assert_eq!(summary.state.step, 4, "{bad:?}: run completes on 3 GPUs");

        // The warm start is ignored: the replan is the cold plan, covering
        // every layer.
        let warm = make(shrunken.clone())
            .warm_start(bad.iter().map(|&s| s as usize).collect())
            .plan()
            .expect("a malformed warm start is ignored");
        assert_eq!(warm.partition.sizes(), cold.partition.sizes(), "{bad:?}");
        assert_eq!(warm.partition.num_layers() as u64, layers);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
