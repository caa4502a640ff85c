//! Solver & engine hot-path benchmark: warm-started MIP replans, a seeded
//! event storm, and a flow-network churn-and-drain script.
//!
//! Three deterministic workloads exercise the hot paths, counting work
//! units (branch-and-bound nodes, events popped, flows completed) rather
//! than wall time:
//!
//! 1. **warm-vs-cold replan** — the GPU-failure resilience workload: a
//!    heterogeneous 16-layer profile is partitioned for 4 GPUs, then
//!    re-partitioned for the 3-GPU survivor topology both cold and
//!    warm-started from the 4-GPU incumbent. The warm solve must reach the
//!    bit-identical predicted step while evaluating strictly fewer leaves.
//! 2. **event storm** — a seeded mixed-scale storm of schedules and pop
//!    bursts driven through [`mobius_sim::Engine`]; the FNV-1a checksum of
//!    the `(time, payload)` pop stream pins the engine's pop order.
//! 3. **flow churn** — a scripted capacity-wiggle/block/complete workload
//!    on [`mobius_sim::FlowNetwork`]; the FNV-1a checksum of the
//!    `(user, finish time)` completion stream pins the rate solver.
//!
//! The counters roll up into the `solver-counters` table, which is the
//! committed baseline (`BENCH_solver.json`) that `scripts/verify.sh` diffs
//! against with direction-aware rules: work counters may only shrink,
//! counts and checksums must match exactly. All
//! deterministic solves run unbudgeted (to the search's node cap), so the
//! counters cover the whole search. Wall timings live in a separate `solver-wall`
//! experiment that the baseline diff and the determinism gate both ignore.

use mobius_obs::WallTimer;
use mobius_pipeline::{mip_partition_opts, MipPartitionOpts, PartitionOutcome, PipelineConfig};
use mobius_profiler::{LayerProfile, ModelProfile};
use mobius_sim::{Engine, FlowNetwork, SimTime};

use super::baseline::{check_counters, counters_experiment, Metric, Rule};
use crate::{commodity, Experiment};

const GIB_BYTES: u64 = 1 << 30;

/// Stable id of the counter table the baseline gate diffs.
pub const COUNTERS_ID: &str = "solver-counters";

// ---------------------------------------------------------------------------
// Workload 1: warm vs cold replan (the resilience workload)
// ---------------------------------------------------------------------------

/// Deterministically non-uniform layer times: the balanced seed is far
/// from optimal, so the search has real work to do and warm starts have
/// room to prune.
fn replan_profile() -> ModelProfile {
    ModelProfile::from_layers(
        (0..16)
            .map(|i| LayerProfile {
                fwd: SimTime::from_millis(20 + ((i * 37) % 97) as u64),
                bwd: SimTime::from_millis(3 * (20 + ((i * 37) % 97) as u64)),
                param_bytes: GIB_BYTES + (i as u64 % 3) * (GIB_BYTES / 4),
                grad_bytes: GIB_BYTES,
                output_act_bytes: 4 << 20,
                workspace_bytes: 256 << 20,
            })
            .collect(),
        1,
    )
}

fn replan_cfg() -> PipelineConfig {
    let topo = commodity(&[2, 2]);
    PipelineConfig::mobius(4, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth())
}

fn solve(n_gpus: usize, warm: Option<Vec<usize>>) -> PartitionOutcome {
    let opts = MipPartitionOpts {
        // Unbudgeted: the node counts below cover the whole search.
        budgeted: false,
        warm_start: warm,
    };
    mip_partition_opts(&replan_profile(), n_gpus, &replan_cfg(), &opts, None)
        .expect("replan workload is feasible")
}

fn replan(metrics: &mut Vec<Metric>) -> Experiment {
    let mut e = Experiment::new(
        "solver-warm-replan",
        "Warm-started MIP replan vs cold solve (GPU-failure workload)",
        "extension (no paper counterpart): elastic replans prune from the \
         previous incumbent instead of solving cold, reaching the identical \
         optimum with strictly fewer leaf evaluations",
    )
    .columns([
        "scenario",
        "gpus",
        "evaluated",
        "bb nodes",
        "pruned",
        "warm",
        "predicted step",
    ]);

    let cold4 = solve(4, None);
    let cold3 = solve(3, None);
    let warm3 = solve(3, Some(cold4.partition.sizes().to_vec()));

    for (name, gpus, out) in [
        ("cold pre-failure", 4usize, &cold4),
        ("cold survivor", 3, &cold3),
        ("warm survivor", 3, &warm3),
    ] {
        let s = out.stats.as_ref().expect("MIP solves carry stats");
        e.push_row([
            name.to_string(),
            gpus.to_string(),
            s.evaluated.to_string(),
            s.nodes.to_string(),
            s.pruned.to_string(),
            if s.warm_started { "yes" } else { "no" }.to_string(),
            out.predicted_step.to_string(),
        ]);
    }

    let sc = cold3.stats.as_ref().expect("stats");
    let sw = warm3.stats.as_ref().expect("stats");
    metrics.push(Metric::new(
        "replan.cold.evaluated",
        sc.evaluated,
        Rule::AtMost,
    ));
    metrics.push(Metric::new("replan.cold.nodes", sc.nodes, Rule::AtMost));
    metrics.push(Metric::new(
        "replan.warm.evaluated",
        sw.evaluated,
        Rule::AtMost,
    ));
    metrics.push(Metric::new("replan.warm.nodes", sw.nodes, Rule::AtMost));
    metrics.push(Metric::new(
        "replan.warm_lt_cold",
        u8::from(sw.evaluated < sc.evaluated),
        Rule::Exact,
    ));
    metrics.push(Metric::new(
        "replan.cost_match",
        u8::from(warm3.predicted_step == cold3.predicted_step),
        Rule::Exact,
    ));

    e.note(format!(
        "warm start saves {} leaf evaluations ({} vs {}) at identical cost",
        sc.evaluated.saturating_sub(sw.evaluated),
        sw.evaluated,
        sc.evaluated
    ));
    e
}

// ---------------------------------------------------------------------------
// Workload 2: seeded event storm
// ---------------------------------------------------------------------------

/// xorshift64* — a tiny deterministic generator for the storm.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn fnv1a(acc: u64, word: u64) -> u64 {
    let mut h = acc;
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const STORM_EVENTS: usize = 20_000;

/// The seeded storm: dense ties early, a sparse millisecond horizon
/// mid-storm, dense again late, with pop bursts so the queue breathes
/// between growth and drain. The FNV-1a checksum of the pop stream and the
/// pop count land in the counter table, where the baseline pins both
/// exactly.
fn event_storm(seed: u64, metrics: &mut Vec<Metric>) {
    let mut e: Engine<u64> = Engine::new();
    let mut rng = seed | 1;
    let mut checksum = 0xCBF2_9CE4_8422_2325u64;
    let mut popped = 0u64;
    for i in 0..STORM_EVENTS {
        let r = xorshift(&mut rng);
        let delay = match i * 3 / STORM_EVENTS {
            0 => r % 50,
            1 => r % 5_000_000,
            _ => r % 10,
        };
        e.schedule(e.now() + SimTime::from_nanos(delay), r);
        if r % 7 < 3 {
            for _ in 0..(r % 4) {
                if let Some((at, payload)) = e.pop() {
                    checksum = fnv1a(fnv1a(checksum, at.as_nanos()), payload);
                    popped += 1;
                }
            }
        }
    }
    while let Some((at, payload)) = e.pop() {
        checksum = fnv1a(fnv1a(checksum, at.as_nanos()), payload);
        popped += 1;
    }
    metrics.push(Metric::new("engine.popped", popped, Rule::Exact));
    metrics.push(Metric::new(
        "engine.checksum",
        format!("{checksum:016x}"),
        Rule::Exact,
    ));
}

// ---------------------------------------------------------------------------
// Workload 3: flow-network churn and drain
// ---------------------------------------------------------------------------

/// A scripted fabric workload: flows of mixed priority draining across
/// three links while capacities wiggle and flows block/unblock. Every
/// completion instant depends on the rates solved along the way.
fn flow_churn(metrics: &mut Vec<Metric>) {
    let mut net = FlowNetwork::new();
    let links = [
        net.add_link("pcie-a", 10e9),
        net.add_link("pcie-b", 8e9),
        net.add_link("nic", 12e9),
    ];
    let mut ids = Vec::new();
    for i in 0..12u64 {
        let path = match i % 3 {
            0 => vec![links[0]],
            1 => vec![links[1], links[2]],
            _ => vec![links[0], links[2]],
        };
        ids.push(net.start_flow(path, (1.0 + i as f64) * 1e8, (i % 4) as u8, i));
    }

    // Churn: wiggle each link and freeze/thaw a third of the flows.
    for round in 0..8u64 {
        for (k, &l) in links.iter().enumerate() {
            let base = [10e9, 8e9, 12e9][k];
            net.set_link_capacity(l, base * (0.75 + 0.05 * ((round + k as u64) % 5) as f64));
        }
        for (j, &id) in ids.iter().enumerate() {
            if j as u64 % 3 == round % 3 {
                net.set_flow_blocked(id, round % 2 == 0);
            }
        }
    }
    for &id in &ids {
        net.set_flow_blocked(id, false);
    }

    // Drain: advance to each completion and retire the flow.
    let mut checksum = 0xCBF2_9CE4_8422_2325u64;
    let mut completed = 0u64;
    while let Some((_, rec, tag)) = mobius_sim::step_flows(&mut net).expect("churn links are fast")
    {
        checksum = fnv1a(fnv1a(checksum, tag), rec.finished.as_nanos());
        completed += 1;
    }

    metrics.push(Metric::new("flow.completed", completed, Rule::Exact));
    metrics.push(Metric::new(
        "flow.checksum",
        format!("{checksum:016x}"),
        Rule::Exact,
    ));
}

// ---------------------------------------------------------------------------
// Wall-clock experiment (machine-dependent; never baseline-diffed)
// ---------------------------------------------------------------------------

fn wall(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "solver-wall",
        "Hot-path wall timings (machine-dependent; excluded from baselines)",
        "extension (no paper counterpart): indicative speed of the \
         optimised paths on this machine — the committed baseline tracks \
         the deterministic counters above, never these numbers",
    )
    .columns(["workload", "variant", "wall"]);
    let reps = if quick { 1 } else { 3 };

    let cold4 = solve(4, None);
    let best = |f: &dyn Fn()| {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = WallTimer::start();
            f();
            best = best.min(t.elapsed().secs());
        }
        best
    };

    let cold = best(&|| {
        let _ = solve(3, None);
    });
    let warm_sizes = cold4.partition.sizes().to_vec();
    let warm = best(&|| {
        let _ = solve(3, Some(warm_sizes.clone()));
    });
    e.push_row([
        "mip replan".to_string(),
        "cold".to_string(),
        crate::fmt_secs(cold),
    ]);
    e.push_row([
        "mip replan".to_string(),
        "warm".to_string(),
        crate::fmt_secs(warm),
    ]);

    e.note(format!(
        "best of {reps} run(s); regenerate with `mobius-bench solver_perf`"
    ));
    e
}

// ---------------------------------------------------------------------------
// Assembly, baseline extraction, and the regression check
// ---------------------------------------------------------------------------

/// The deterministic experiments plus the rolled-up counter table. Two
/// calls with the same seed render byte-identical JSON (the determinism
/// gate of `scripts/verify.sh`); `quick` has no effect here by design.
pub fn deterministic(seed: u64) -> Vec<Experiment> {
    let mut metrics = Vec::new();
    let replan = replan(&mut metrics);
    event_storm(seed, &mut metrics);
    flow_churn(&mut metrics);

    let mut counters = counters_experiment(
        COUNTERS_ID,
        "Deterministic solver/engine work counters (the committed baseline)",
        "extension (no paper counterpart): the unit-of-work ledger \
         BENCH_solver.json pins; verify.sh fails when a counter regresses \
         against its direction rule",
        &metrics,
    );
    counters.note("regenerate the baseline with `UPDATE_BASELINE=1 scripts/verify.sh`");
    vec![replan, counters]
}

/// Full run: deterministic workloads plus the wall-clock table.
pub fn run(quick: bool, seed: u64) -> Vec<Experiment> {
    let mut all = deterministic(seed);
    all.push(wall(quick));
    all
}

/// Re-runs the deterministic workloads and diffs the counter table against
/// `baseline_json` (the committed `BENCH_solver.json`).
///
/// # Errors
///
/// Returns the rendered delta table as `Err` when any counter violates its
/// direction rule or the tables disagree structurally; returns it as `Ok`
/// when everything holds.
pub fn check_against(baseline_json: &str, seed: u64) -> Result<String, String> {
    let fresh = deterministic(seed);
    let doc = crate::render_json_report(fresh.iter());
    check_counters(
        baseline_json,
        &doc,
        COUNTERS_ID,
        "solver-baseline-delta",
        "Counter delta vs committed BENCH_solver.json",
    )
}

#[cfg(test)]
mod tests {
    use super::super::baseline::extract_rows;
    use super::*;
    use crate::render_json_report;

    #[test]
    fn warm_replan_beats_cold_at_identical_cost() {
        // The PR's acceptance criterion, pinned at bench level.
        let mut metrics = Vec::new();
        let _ = replan(&mut metrics);
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .value
                .clone()
        };
        assert_eq!(get("replan.warm_lt_cold"), "1");
        assert_eq!(get("replan.cost_match"), "1");
    }

    #[test]
    fn deterministic_runs_render_identically() {
        let a = render_json_report(deterministic(42).iter());
        let b = render_json_report(deterministic(42).iter());
        assert_eq!(a, b);
    }

    #[test]
    fn extract_rows_round_trips_the_report_grammar() {
        let doc = render_json_report(deterministic(42).iter());
        let rows = extract_rows(&doc, COUNTERS_ID).expect("counters present");
        assert!(rows.iter().all(|r| r.len() == 3));
        assert!(rows.iter().any(|r| r[0] == "replan.warm.evaluated"));
        assert!(extract_rows(&doc, "no-such-id").is_none());
    }

    #[test]
    fn check_passes_against_a_fresh_baseline() {
        let baseline = render_json_report(deterministic(42).iter());
        let table = check_against(&baseline, 42).expect("fresh baseline must pass");
        assert!(table.contains("replan.warm.evaluated"));
        assert!(!table.contains("REGRESSED"));
    }

    #[test]
    fn check_fails_on_a_work_counter_regression() {
        // Shrink the baseline's allowance for cold evaluations to below
        // what the workload spends: AtMost must flag the excess.
        let doc = render_json_report(deterministic(42).iter());
        let rows = extract_rows(&doc, COUNTERS_ID).unwrap();
        let spent = rows
            .iter()
            .find(|r| r[0] == "replan.cold.evaluated")
            .unwrap()[1]
            .clone();
        let tampered = doc.replace(
            &format!("[\"replan.cold.evaluated\",\"{spent}\""),
            "[\"replan.cold.evaluated\",\"0\"",
        );
        assert_ne!(doc, tampered, "tamper must hit");
        let err = check_against(&tampered, 42).expect_err("regression must fail");
        assert!(err.contains("REGRESSED"));
    }

    #[test]
    fn check_fails_on_a_missing_metric() {
        let doc = render_json_report(deterministic(42).iter());
        let tampered = doc.replace("flow.completed", "flow.completed_renamed");
        let err = check_against(&tampered, 42).expect_err("rename must fail");
        assert!(err.contains("<missing>"));
    }
}
