//! Integration tests for the discrete-event engine as the rest of the
//! workspace sees it: pop order on seeded storms at the three time scales
//! executors produce (µs-to-ms, tie-heavy ms, sparse ns horizons), past
//! clamping against the popped and advanced clock, the observer counters
//! and violation mirror, and the engine work a traced pipeline step does.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mobius_mapping::Mapping;
use mobius_obs::Obs;
use mobius_pipeline::{simulate_step_traced, PipelineConfig, StageCosts};
use mobius_sim::{Engine, SimTime};
use mobius_topology::{GpuSpec, Topology};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Drives `actions` seeded actions through a fresh engine — every fourth
/// one a pop, the rest schedules at `draw(rng)` — then drains it, and
/// checks the pop stream: time never decreases, ties pop in schedule
/// order, and every event pops exactly once at its past-clamped time.
/// Returns the number of pops that landed on an already-popped instant.
fn check_storm(seed: u64, actions: usize, mut draw: impl FnMut(&mut u64) -> SimTime) -> usize {
    let mut rng = seed;
    let mut engine = Engine::new();
    // Per schedule index: the time the event must pop at.
    let mut due: Vec<SimTime> = Vec::new();
    let mut popped: Vec<(SimTime, usize)> = Vec::new();
    for _ in 0..actions {
        if xorshift(&mut rng).is_multiple_of(4) {
            popped.extend(engine.pop());
        } else {
            let at = draw(&mut rng);
            due.push(at.max(engine.now()));
            engine.schedule(at, due.len() - 1);
        }
    }
    popped.extend(std::iter::from_fn(|| engine.pop()));

    assert_eq!(popped.len(), due.len(), "every scheduled event pops");
    let mut seen = vec![false; due.len()];
    let mut ties = 0;
    for (i, &(t, idx)) in popped.iter().enumerate() {
        assert!(!seen[idx], "event {idx} popped twice");
        seen[idx] = true;
        assert_eq!(t, due[idx], "event {idx} popped at the wrong time");
        if let Some(&(prev_t, prev_idx)) = i.checked_sub(1).map(|j| &popped[j]) {
            assert!(t >= prev_t, "clock went from {prev_t:?} back to {t:?}");
            if t == prev_t {
                ties += 1;
                assert!(
                    idx > prev_idx,
                    "tie at {t:?}: {idx} popped after {prev_idx}"
                );
            }
        }
    }
    ties
}

#[test]
fn seeded_mixed_scale_storm_pops_in_key_order() {
    // 1 µs .. 10 ms, the scale of kernel and transfer completions.
    let ties = check_storm(0x5eed_0001, 20_000, |rng| {
        SimTime::from_micros(1 + xorshift(rng) % 10_000)
    });
    assert!(
        ties > 0,
        "past clamping must produce some same-instant pops"
    );
}

#[test]
fn tie_heavy_storm_keeps_fifo_across_interleaved_pops() {
    // Sixteen instants for thousands of events: nearly every pop is a tie.
    let ties = check_storm(0x5eed_0002, 8_000, |rng| {
        SimTime::from_millis(xorshift(rng) % 16)
    });
    assert!(
        ties > 5_000,
        "the storm must be tie-dominated, got {ties} ties"
    );
}

#[test]
fn sparse_horizon_storm_orders_far_apart_events() {
    // Timestamps spread over half the u64 range: no two are near each other.
    check_storm(0x5eed_0003, 8_000, |rng| {
        SimTime::from_nanos(xorshift(rng) % (u64::MAX / 2))
    });
}

#[test]
fn clone_mid_run_pops_the_same_remaining_stream() {
    let mut engine = Engine::new();
    let mut rng = 0x5eed_0004u64;
    for i in 0..500u32 {
        engine.schedule(SimTime::from_micros(xorshift(&mut rng) % 2_000), i);
    }
    for _ in 0..100 {
        engine.pop();
    }
    let mut twin = engine.clone();
    let rest: Vec<_> = std::iter::from_fn(|| engine.pop()).collect();
    let twin_rest: Vec<_> = std::iter::from_fn(|| twin.pop()).collect();
    assert_eq!(rest.len(), 400);
    assert_eq!(rest, twin_rest);
}

#[test]
fn past_clamped_events_queue_behind_earlier_ties_at_now() {
    let mut engine = Engine::new();
    let t5 = SimTime::from_secs(5);
    engine.schedule(t5, "a");
    engine.schedule(t5, "b");
    engine.schedule(SimTime::from_secs(9), "later");
    assert_eq!(engine.pop(), Some((t5, "a")));
    // Both of these land on `now`; they were scheduled after "b".
    engine.schedule(SimTime::from_secs(1), "clamped");
    engine.schedule(t5, "at-now");
    let order: Vec<_> = std::iter::from_fn(|| engine.pop()).collect();
    assert_eq!(
        order,
        vec![
            (t5, "b"),
            (t5, "clamped"),
            (t5, "at-now"),
            (SimTime::from_secs(9), "later"),
        ]
    );
}

#[test]
fn advance_to_raises_the_clamp_floor() {
    let mut engine = Engine::new();
    engine.advance_to(SimTime::from_millis(40));
    assert_eq!(engine.now(), SimTime::from_millis(40));
    engine.schedule(SimTime::from_millis(10), "stale");
    engine.schedule_after(SimTime::from_millis(5), "relative");
    assert_eq!(engine.peek_time(), Some(SimTime::from_millis(40)));
    assert_eq!(engine.pop(), Some((SimTime::from_millis(40), "stale")));
    assert_eq!(engine.pop(), Some((SimTime::from_millis(45), "relative")));
    assert!(engine.is_empty());
}

#[test]
fn peek_time_leaves_clock_and_queue_untouched() {
    let mut engine = Engine::new();
    engine.schedule(SimTime::from_secs(3), 3u8);
    engine.schedule(SimTime::from_secs(2), 2u8);
    for _ in 0..3 {
        assert_eq!(engine.peek_time(), Some(SimTime::from_secs(2)));
    }
    assert_eq!(engine.now(), SimTime::ZERO);
    assert_eq!(engine.len(), 2);
    assert_eq!(engine.pop(), Some((SimTime::from_secs(2), 2)));
    assert_eq!(engine.peek_time(), Some(SimTime::from_secs(3)));
    engine.pop();
    assert_eq!(engine.peek_time(), None);
    assert_eq!(engine.now(), SimTime::from_secs(3));
}

#[test]
fn observer_counts_every_schedule_and_pop() {
    let obs = Obs::new();
    let mut engine = Engine::new();
    engine.set_obs(obs.clone());
    let mut rng = 0x5eed_0005u64;
    let mut pops = 0;
    for i in 0..1_000u32 {
        if i % 3 == 2 && engine.pop().is_some() {
            pops += 1;
        }
        engine.schedule(SimTime::from_micros(xorshift(&mut rng) % 500), i);
    }
    assert_eq!(obs.counter("engine.scheduled"), 1_000.0);
    assert_eq!(obs.counter("engine.popped"), f64::from(pops));
    while engine.pop().is_some() {}
    assert_eq!(obs.counter("engine.popped"), 1_000.0);
    assert_eq!(obs.counter("violations"), 0.0);
}

#[test]
fn backwards_clock_is_recorded_as_a_violation_before_panicking() {
    let obs = Obs::new();
    let mut engine = Engine::new();
    engine.set_obs(obs.clone());
    engine.schedule(SimTime::from_secs(1), ());
    engine.debug_force_now(SimTime::from_secs(10));
    let err = catch_unwind(AssertUnwindSafe(|| engine.pop())).expect_err("pop must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("backwards"), "panic message: {msg}");
    assert_eq!(obs.counter("violations"), 1.0);
    assert_eq!(
        obs.counter("engine.popped"),
        0.0,
        "a rejected pop is not counted"
    );
    assert!(obs.export_jsonl().contains("violation: engine"));
}

#[test]
fn traced_pipeline_step_counts_identical_engine_work() {
    let stage = |fwd_ms: u64, param_mb: u64| StageCosts {
        fwd: SimTime::from_millis(fwd_ms),
        bwd: SimTime::from_millis(3 * fwd_ms),
        param_bytes: param_mb << 20,
        grad_bytes: param_mb << 20,
        in_act_bytes: 64 << 20,
        out_act_bytes: 64 << 20,
        workspace_bytes: 64 << 20,
    };
    let stages = vec![
        stage(10, 256),
        stage(12, 192),
        stage(8, 320),
        stage(11, 128),
    ];
    let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
    let mapping = Mapping::sequential(stages.len(), topo.num_gpus());
    let cfg = PipelineConfig::mobius(4, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth());
    let run = || {
        let obs = Obs::new();
        let report = simulate_step_traced(&stages, &mapping, &topo, &cfg, Some(&obs)).unwrap();
        (
            report.step_time,
            obs.counter("engine.scheduled"),
            obs.counter("engine.popped"),
        )
    };
    let (step, scheduled, popped) = run();
    assert!(step > SimTime::ZERO);
    assert!(popped > 0.0, "a pipeline step is driven by engine events");
    assert!(
        popped <= scheduled,
        "{popped} pops from {scheduled} schedules"
    );
    assert_eq!(run(), (step, scheduled, popped));
}
