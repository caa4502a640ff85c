//! The checkpointed driver plans once per invocation: every step runs on
//! the plan solved at the first step, and the plan's observer record is
//! replayed into each step's observer. These tests pin what that must not
//! change — each step's trace, metrics and analysis chunk equals the chunk
//! of a `FineTuner::run_step` that solves in place — and what the plan
//! cache must not cover: an elastic replan after a GPU loss still solves
//! inside every step.

use std::path::{Path, PathBuf};

use mobius::ckpt::flow;
use mobius::obs::Obs;
use mobius::{
    run_checkpointed, CheckpointOpts, ClusterConfig, FineTuner, RunOutcome, RunSinks, RunSummary,
};
use mobius_model::GptConfig;
use mobius_sim::{FaultSchedule, SimTime};
use mobius_topology::{GpuSpec, Topology, COMMODITY_NIC_GBPS};

const STEPS: u64 = 4;
const EVERY: u64 = 2;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mobius-wks-plan-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn topo() -> Topology {
    Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2])
}

/// GPT-2 on 2+2 at `M = 4` with the default (MIP) partition search.
fn gpt2() -> FineTuner {
    FineTuner::new(GptConfig::gpt2_small())
        .topology(topo())
        .num_microbatches(4)
}

fn sinks(dir: &Path) -> RunSinks {
    RunSinks {
        trace_out: Some(dir.join("trace.json")),
        metrics_out: Some(dir.join("metrics.json")),
        analyze_out: Some(dir.join("analyze.json")),
    }
}

fn sink_files(s: &RunSinks) -> [String; 3] {
    [&s.trace_out, &s.metrics_out, &s.analyze_out]
        .map(|p| std::fs::read_to_string(p.as_ref().unwrap()).unwrap())
}

fn opts(dir: &Path) -> CheckpointOpts {
    CheckpointOpts {
        steps: STEPS,
        every: EVERY,
        dir: Some(dir.join("ckpt")),
        ..CheckpointOpts::default()
    }
}

fn completed(out: RunOutcome) -> RunSummary {
    match out {
        RunOutcome::Completed(s) => s,
        RunOutcome::Crashed { at, .. } => panic!("unexpected crash at {at}"),
    }
}

/// The sink files a `STEPS`-step run committing every `EVERY` steps must
/// write, built from one `run_step` per step: each with a fresh observer,
/// plus the simulated checkpoint write on commit steps, its chunks joined
/// with newlines. Also returns each step's `fault.replans` counter.
fn per_step_reference(tuner: &FineTuner) -> ([String; 3], Vec<f64>) {
    let mut files: [String; 3] = Default::default();
    let mut replans = Vec::new();
    for s in 0..STEPS {
        let obs = Obs::new();
        let rep = tuner.clone().observe(obs.clone()).run_step().unwrap();
        let committed = s + 1;
        if committed % EVERY == 0 || committed == STEPS {
            let bytes = flow::ckpt_bytes(rep.model_size_bytes);
            let dur = flow::simulate_ckpt_write(bytes, topo().ssd_gbps());
            flow::record_ckpt_write(&obs, s, bytes, dur);
        }
        let chunks = [
            obs.chrome_trace_json(),
            obs.metrics_json(),
            obs.analyze().unwrap().to_json(),
        ];
        for (file, chunk) in files.iter_mut().zip(chunks) {
            file.push_str(&chunk);
            file.push('\n');
        }
        replans.push(obs.counter("fault.replans"));
    }
    (files, replans)
}

/// Runs the driver on `tuner` and checks its three sink files against the
/// per-step `run_step` reference, byte for byte.
fn assert_driver_matches_run_step(tag: &str, tuner: &FineTuner) -> (RunSummary, Vec<f64>) {
    let dir = scratch(tag);
    let out = sinks(&dir);
    let summary = completed(run_checkpointed(tuner, &opts(&dir), &out).unwrap());
    assert_eq!(summary.state.step, STEPS);
    let (want, replans) = per_step_reference(tuner);
    let got = sink_files(&out);
    for (name, (g, w)) in ["trace", "metrics", "analysis"]
        .iter()
        .zip(got.iter().zip(&want))
    {
        assert!(
            g == w,
            "{tag}: the driver's {name} file differs from run_step's chunks"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
    (summary, replans)
}

#[test]
fn planned_once_steps_match_per_step_run_step_chunks() {
    let (single, _) = assert_driver_matches_run_step("single", &gpt2());
    assert_eq!(single.plan_solves, 1);
    assert!(
        !single.state.partition.is_empty(),
        "the partition is captured"
    );

    let cluster = gpt2().cluster(ClusterConfig::new(2, COMMODITY_NIC_GBPS));
    let (two, _) = assert_driver_matches_run_step("cluster", &cluster);
    assert_eq!(two.plan_solves, 1);
    assert!(two.last_report.unwrap().cluster.is_some());
}

/// `run_step` records its plan through a replay. What it replays must be
/// exactly what a `plan()` solving into the observer records, and at the
/// same place: before the step's first simulated event.
#[test]
fn run_step_replays_the_plan_record_where_the_solve_records_it() {
    let planned = Obs::new();
    let plan = gpt2().observe(planned.clone()).plan().unwrap();
    let stepped = Obs::new();
    gpt2().observe(stepped.clone()).run_step().unwrap();

    let want = planned.export_jsonl();
    assert!(want.contains("\"incumbent\"") && want.contains("mapping.decision"));
    assert!(
        stepped.export_jsonl().starts_with(&want),
        "the step's events must open with the plan's events"
    );
    let evaluated = plan.search.unwrap().evaluated as f64;
    assert_eq!(stepped.counter("mip.evaluated"), evaluated);
    for name in ["mip.evaluated", "mip.pruned", "mip.nodes"] {
        assert_eq!(stepped.counter(name), planned.counter(name), "{name}");
    }
    for name in ["mip.incumbent_gap", "mip.predicted_step_secs", "mip.stages"] {
        assert_eq!(stepped.gauge(name), planned.gauge(name), "{name}");
    }
}

#[test]
fn elastic_replans_still_solve_inside_every_step() {
    let faulted = gpt2()
        .faults(FaultSchedule::parse("gpufail:1:50", 0, 4, SimTime::from_secs_f64(1.0)).unwrap())
        .recover(true);
    let (summary, replans) = assert_driver_matches_run_step("gpufail", &faulted);
    assert_eq!(replans, vec![1.0; STEPS as usize], "one replan per step");
    // The replans are the steps' own; the driver solved the plan once.
    assert_eq!(summary.plan_solves, 1);
    assert_eq!(summary.state.faults.gpu_failures, STEPS);
}

#[test]
fn a_fresh_run_and_a_resumed_segment_each_solve_once() {
    let dir = scratch("solves");
    let fresh = completed(
        run_checkpointed(&gpt2(), &opts(&dir.join("fresh")), &RunSinks::default()).unwrap(),
    );
    assert_eq!(fresh.plan_solves, 1);

    let crashing = gpt2().faults(FaultSchedule::new().crash_at_step(3));
    let store = dir.join("crash");
    match run_checkpointed(&crashing, &opts(&store), &RunSinks::default()).unwrap() {
        RunOutcome::Crashed { summary, .. } => {
            assert_eq!(summary.state.step, 2);
            assert_eq!(summary.plan_solves, 1);
        }
        RunOutcome::Completed(_) => panic!("crash:3 must fire"),
    }
    let resume = CheckpointOpts {
        resume: Some(store.join("ckpt")),
        ..opts(&store)
    };
    let resumed = completed(run_checkpointed(&crashing, &resume, &RunSinks::default()).unwrap());
    assert_eq!(resumed.start_step, 2);
    assert_eq!(resumed.plan_solves, 1);
    assert_eq!(resumed.state.partition, fresh.state.partition);
    std::fs::remove_dir_all(&dir).unwrap();
}
