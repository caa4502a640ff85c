//! Recovery extension: checkpoint overhead vs commit cadence, and work
//! lost vs crash point under a fixed cadence.
//!
//! Both tables are bit-deterministic: the partition uses
//! `PartitionAlgo::MinStage`, the crash points are explicit, and no
//! wall-clock value enters a cell. `scripts/verify.sh` byte-compares the
//! JSON report of two runs.
//!
//! The overhead table runs the checkpointed driver with no checkpoint
//! directory: the simulated SSD write cost (the `ckpt` resource class)
//! still lands on the run clock, so the table isolates the simulated cost
//! of the cadence without touching the filesystem. The lost-work table
//! crashes the driver at increasing step indices and reads the committed
//! step and lost tail straight off the crash outcome.

use mobius::{run_checkpointed, CheckpointOpts, FineTuner, RunOutcome, RunSinks, System};
use mobius_model::GptConfig;
use mobius_pipeline::PartitionAlgo;
use mobius_sim::units::ns_to_secs;
use mobius_sim::FaultSchedule;

use crate::{commodity, fmt_secs, Experiment};

fn tuner(cfg: &GptConfig) -> FineTuner {
    FineTuner::new(cfg.clone())
        .topology(commodity(&[2, 2]))
        .system(System::Mobius)
        .partition_algo(PartitionAlgo::MinStage)
        .num_microbatches(4)
}

fn model(quick: bool) -> GptConfig {
    if quick {
        GptConfig::gpt_3b()
    } else {
        GptConfig::gpt_8b()
    }
}

/// Runs `steps` steps at the given commit cadence with no checkpoint
/// directory (simulated cost only) and returns `(cum_ns, overhead_ns)`.
fn timed(cfg: &GptConfig, steps: u64, every: u64) -> (u64, u64) {
    let opts = CheckpointOpts {
        steps,
        every,
        ..CheckpointOpts::default()
    };
    match run_checkpointed(&tuner(cfg), &opts, &RunSinks::default())
        .expect("a healthy run completes")
    {
        RunOutcome::Completed(s) => (s.state.cum_ns, s.ckpt_overhead_ns),
        RunOutcome::Crashed { at, .. } => panic!("no crash scheduled, fired at {at}"),
    }
}

/// Commits a run of `steps` steps makes at cadence `every` (cadence
/// commits plus the final commit; zero when nothing forces a commit).
fn commits(steps: u64, every: u64) -> u64 {
    if every == 0 {
        return 0;
    }
    (1..=steps)
        .filter(|c| c % every == 0 || *c == steps)
        .count() as u64
}

/// Checkpoint overhead vs `--checkpoint-every`: how much simulated run
/// clock the SSD checkpoint writes add at each cadence.
pub fn overhead(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "recovery-overhead",
        "Run-clock overhead vs checkpoint cadence",
        "extension (no paper counterpart): checkpoint writes are simulated \
         SSD flows on the run clock; tighter cadences buy a shorter lost \
         tail at a measurable, linear-in-commits clock overhead",
    )
    .columns(["every", "commits", "ckpt time", "run clock", "overhead"]);
    let cfg = model(quick);
    let steps: u64 = if quick { 4 } else { 8 };
    let (base_ns, base_overhead) = timed(&cfg, steps, 0);
    assert_eq!(
        base_overhead, 0,
        "every=0 without a dir simulates no writes"
    );
    for &every in &[0u64, 1, 2, 4] {
        let (cum_ns, overhead_ns) = timed(&cfg, steps, every);
        let pct = (cum_ns as f64 - base_ns as f64) / base_ns as f64 * 100.0;
        e.push_row([
            every.to_string(),
            commits(steps, every).to_string(),
            if overhead_ns == 0 {
                "-".to_string()
            } else {
                fmt_secs(ns_to_secs(overhead_ns as f64))
            },
            fmt_secs(ns_to_secs(cum_ns as f64)),
            format!("{pct:+.2}%"),
        ]);
    }
    e.note(format!(
        "model {}, Topo 2+2, min-stage partition, {steps} steps; every=0 \
         commits only at completion and, with no store configured, \
         simulates no writes",
        cfg.name
    ));
    e
}

/// Work lost vs crash point at a fixed cadence: an injected `crash:<k>`
/// terminates the run and the uncommitted tail since the last checkpoint
/// is lost; the resume restarts from the committed step.
fn lost_work(quick: bool) -> Experiment {
    const EVERY: u64 = 2;
    let mut e = Experiment::new(
        "recovery-lost-work",
        "Steps lost vs crash point at --checkpoint-every 2",
        "extension (no paper counterpart): a crash loses exactly the steps \
         since the last commit — never more (torn tails are detected and \
         dropped) and never less (committed state is never re-executed)",
    )
    .columns(["crash at", "committed", "lost", "resume from"]);
    let cfg = model(quick);
    let steps: u64 = 6;
    for &k in &[1u64, 2, 3, 5] {
        let opts = CheckpointOpts {
            steps,
            every: EVERY,
            ..CheckpointOpts::default()
        };
        let t = tuner(&cfg).faults(FaultSchedule::new().crash_at_step(k));
        let (committed, lost) = match run_checkpointed(&t, &opts, &RunSinks::default())
            .expect("an injected crash is an outcome, not an error")
        {
            RunOutcome::Crashed {
                lost_steps,
                summary,
                ..
            } => (summary.state.step, lost_steps),
            RunOutcome::Completed(_) => panic!("crash:{k} must fire"),
        };
        e.push_row([
            format!("crash:{k}"),
            committed.to_string(),
            lost.to_string(),
            format!("step {committed}"),
        ]);
    }
    e.note(format!(
        "model {}, Topo 2+2, min-stage partition, {steps}-step run, \
         --checkpoint-every {EVERY}; crash:<k> fires before step k executes",
        cfg.name
    ));
    e
}

/// Runs both recovery tables.
pub fn run(quick: bool) -> Vec<Experiment> {
    vec![overhead(quick), lost_work(quick)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_deterministic_and_grows_with_cadence() {
        let a = overhead(true);
        let b = overhead(true);
        assert_eq!(a.rows, b.rows);
        // every=0 is the no-write baseline; every=1 pays for the most
        // commits and must show the largest overhead.
        assert_eq!(a.rows[0][2], "-");
        assert_eq!(a.rows[0][4], "+0.00%");
        let pct = |r: &Vec<String>| {
            r[4].trim_end_matches('%')
                .trim_start_matches('+')
                .parse::<f64>()
                .unwrap()
        };
        assert!(pct(&a.rows[1]) >= pct(&a.rows[2]));
        assert!(pct(&a.rows[2]) >= pct(&a.rows[3]));
        assert!(pct(&a.rows[1]) > 0.0, "every=1 must cost something");
    }

    #[test]
    fn lost_work_matches_the_cadence_arithmetic() {
        let e = lost_work(true);
        for row in &e.rows {
            let k: u64 = row[0].trim_start_matches("crash:").parse().unwrap();
            let committed: u64 = row[1].parse().unwrap();
            let lost: u64 = row[2].parse().unwrap();
            assert_eq!(committed, (k / 2) * 2, "commit floor of crash:{k}");
            assert_eq!(lost, k - committed, "lost tail of crash:{k}");
        }
    }
}
