//! Cache-semantics and load-generator tests for `mobius-serve`.
//!
//! These pin the acceptance contract of the serving layer: a hit replays
//! byte-identical plan bytes and runs zero branch-and-bound leaves,
//! eviction order is deterministic under capacity pressure, `invalidate`
//! forces a re-solve, a near-miss warm start reaches the cold incumbent
//! with fewer leaf evaluations, and the closed-loop load generator is
//! byte-deterministic per seed with a > 0.5 hit rate under zipfian skew.

use mobius_obs::Obs;
use mobius_pipeline::PLAN_NODE_BUDGET;
use mobius_serve::{run_load, ServeConfig, Server, LEAF_COST_US, MISS_BASE_US};

fn server_with(obs: &Obs, capacity: usize, warm_seed: bool) -> Server {
    Server::new(ServeConfig {
        capacity,
        warm_seed,
        obs: Some(obs.clone()),
    })
}

fn payload_of(response: &str) -> &str {
    response
        .split_once(" | ")
        .expect("plan/estimate responses carry a payload")
        .1
}

#[test]
fn cache_hit_replays_byte_identical_plan_with_zero_leaf_evaluations() {
    let obs = Obs::new();
    let mut s = server_with(&obs, 4, true);

    let miss = s.handle("plan model=gpt2 topo=2+2").unwrap().unwrap();
    assert!(miss.starts_with("ok plan cache=miss "));
    let solved_leaves = obs.counter("mip.evaluated");
    assert!(solved_leaves > 0.0, "a cold solve evaluates leaves");

    let hit = s.handle("plan model=gpt2 topo=2+2").unwrap().unwrap();
    assert!(hit.starts_with("ok plan cache=hit "));
    // The content contract: byte-identical plan payload...
    assert_eq!(payload_of(&hit), payload_of(&miss));
    // ...and zero B&B leaf evaluations for the hit, per the obs counters.
    assert_eq!(obs.counter("mip.evaluated"), solved_leaves);
    assert_eq!(obs.counter("serve.cache.hit"), 1.0);
    assert_eq!(obs.counter("serve.cache.miss"), 1.0);

    // An estimate of the same tuple is served from the same entry.
    let est = s.handle("estimate model=gpt2 topo=2+2").unwrap().unwrap();
    assert!(est.starts_with("ok estimate cache=hit "));
    assert!(payload_of(&est).contains("price_usd_per_step="));
    assert_eq!(obs.counter("mip.evaluated"), solved_leaves);
}

#[test]
fn the_cache_is_keyed_by_model_and_topology() {
    let obs = Obs::new();
    let mut s = server_with(&obs, 8, false);
    s.handle("plan model=gpt2 topo=2+2").unwrap();
    let r = s.handle("plan model=gpt2 topo=4").unwrap().unwrap();
    assert!(
        r.starts_with("ok plan cache=miss "),
        "topology is part of the key"
    );
    let r = s.handle("plan model=gpt2-long topo=2+2").unwrap().unwrap();
    assert!(
        r.starts_with("ok plan cache=miss "),
        "model is part of the key"
    );
    // Nothing else is: the same pair, whatever the verb, is one entry.
    let r = s.handle("estimate model=gpt2 topo=2+2").unwrap().unwrap();
    assert!(r.starts_with("ok estimate cache=hit "), "{r}");
    assert_eq!(obs.counter("serve.cache.miss"), 3.0);
    assert_eq!(s.cache_len(), 3);
}

#[test]
fn eviction_order_is_deterministic_under_capacity_pressure() {
    let script = [
        "plan model=gpt2 topo=2+2",
        "plan model=gpt2 topo=1+3",
        // Touch 2+2 so 1+3 is the LRU victim when 4 arrives.
        "plan model=gpt2 topo=2+2",
        "plan model=gpt2 topo=4",
        // 1+3 was evicted: miss. Re-inserting it evicts 2+2 (its hit
        // recency predates 4's insert), so 2+2 misses too and bumps 4 out.
        "plan model=gpt2 topo=1+3",
        "plan model=gpt2 topo=2+2",
        "stats",
    ];
    let transcript = |_: usize| {
        let obs = Obs::new();
        // warm_seed off so every miss is a cold solve with stable tags.
        let mut s = server_with(&obs, 2, false);
        script
            .iter()
            .map(|l| s.handle(l).unwrap().unwrap())
            .collect::<Vec<String>>()
    };
    let t1 = transcript(0);
    assert!(t1[3].starts_with("ok plan cache=miss "));
    assert!(
        t1[4].starts_with("ok plan cache=miss "),
        "1+3 was evicted (LRU)"
    );
    assert!(
        t1[5].starts_with("ok plan cache=miss "),
        "2+2 was evicted in turn"
    );
    // 4 evicted 1+3; re-solving 1+3 evicted 2+2; re-solving 2+2 evicted 4
    // — three capacity evictions in total, deterministically.
    assert!(t1[6].contains("evictions=3"), "stats line: {}", t1[6]);

    // Byte-for-byte reproducible across fresh servers.
    assert_eq!(t1, transcript(1));
}

#[test]
fn invalidate_forces_a_resolve() {
    let obs = Obs::new();
    let mut s = server_with(&obs, 4, true);
    let first = s.handle("plan model=gpt2 topo=2+2").unwrap().unwrap();
    let after_first = obs.counter("mip.evaluated");

    let inv = s.handle("invalidate model=gpt2 topo=2+2").unwrap().unwrap();
    assert!(inv.starts_with("ok invalidated entries=1"));
    assert_eq!(obs.counter("serve.cache.invalidate"), 1.0);

    let second = s.handle("plan model=gpt2 topo=2+2").unwrap().unwrap();
    assert!(
        second.starts_with("ok plan cache=miss "),
        "invalidation forces a re-solve: {second}"
    );
    assert!(
        obs.counter("mip.evaluated") > after_first,
        "the re-solve ran the search again"
    );
    // Same configuration, same deterministic solver: same plan bytes.
    assert_eq!(payload_of(&second), payload_of(&first));

    // `topo=` alone removes that topology's entry for every model.
    s.handle("plan model=gpt2 topo=4").unwrap();
    let inv = s.handle("invalidate topo=2+2").unwrap().unwrap();
    assert!(inv.starts_with("ok invalidated entries=1"), "{inv}");
    let third = s.handle("plan model=gpt2 topo=2+2").unwrap().unwrap();
    assert!(!third.contains("cache=hit"), "{third}");
    let kept = s.handle("plan model=gpt2 topo=4").unwrap().unwrap();
    assert!(kept.starts_with("ok plan cache=hit "), "{kept}");
}

#[test]
fn near_miss_warm_start_reaches_the_cold_incumbent_with_fewer_leaves() {
    // Warm path: the long-sequence model's 2+2 plan is cached, then 2+1
    // arrives (same model, fewer GPUs) and solves seeded from it. The
    // compute-dominated gpt2-long profile is what gives the admissible
    // load bound pruning power; the 4-GPU incumbent beats the 3-GPU
    // near-uniform seed, so the warm search starts tighter and skips
    // hundreds of leaves the cold search must visit.
    let warm_obs = Obs::new();
    let mut warm_server = server_with(&warm_obs, 4, true);
    warm_server.handle("plan model=gpt2-long topo=2+2").unwrap();
    let before = warm_obs.counter("mip.evaluated");
    let warm = warm_server
        .handle("plan model=gpt2-long topo=2+1")
        .unwrap()
        .unwrap();
    assert!(
        warm.starts_with("ok plan cache=warm "),
        "near miss solves warm-seeded: {warm}"
    );
    assert_eq!(warm_obs.counter("serve.warm_seeded"), 1.0);
    let warm_leaves = warm_obs.counter("mip.evaluated") - before;

    // Cold control: a fresh server with seeding disabled.
    let cold_obs = Obs::new();
    let mut cold_server = server_with(&cold_obs, 4, false);
    let cold = cold_server
        .handle("plan model=gpt2-long topo=2+1")
        .unwrap()
        .unwrap();
    assert!(cold.starts_with("ok plan cache=miss "));
    let cold_leaves = cold_obs.counter("mip.evaluated");

    // Same incumbent, strictly cheaper search.
    assert_eq!(payload_of(&warm), payload_of(&cold));
    assert!(
        warm_leaves < cold_leaves,
        "warm start must prune: warm={warm_leaves} cold={cold_leaves}"
    );
}

#[test]
fn load_generator_is_byte_deterministic_and_cache_amortizes_zipf_skew() {
    let r1 = run_load(42).unwrap();
    let r2 = run_load(42).unwrap();
    // Full-report equality includes the response-stream FNV: two runs of
    // the same seed agreed on every response byte.
    assert_eq!(r1, r2);

    assert_eq!(r1.stats.requests, 256);
    assert!(
        r1.stats.hit_rate() > 0.5,
        "zipfian reuse must amortize: hit rate {}",
        r1.stats.hit_rate()
    );
    assert!(r1.stats.evictions > 0, "capacity pressure was exercised");
    assert!(r1.stats.invalidations > 0, "invalidations were exercised");
    assert!(r1.stats.warm_seeded > 0, "warm seeding was exercised");
    // Hits dominate, so the median lands in the hit bucket (the histogram
    // interpolates within it) and the tail is a solve.
    assert!(
        r1.p50_us > 0.0 && r1.p50_us <= mobius_serve::HIT_SERVICE_US as f64,
        "median should be hit-priced: p50 {}",
        r1.p50_us
    );
    assert!(r1.p99_us > r1.p50_us);
    assert!(r1.p999_us >= r1.p99_us);

    // A different seed reorders tenants and draws: different stream.
    let other = run_load(43).unwrap();
    assert_ne!(other.response_fnv, r1.response_fnv);
    assert!(other.stats.hit_rate() > 0.5);
}

fn protocol_error(line: &str) -> String {
    let mut s = Server::new(ServeConfig::default());
    s.handle(line).unwrap_err().to_string()
}

#[test]
fn protocol_errors_keep_their_precedence_and_wording() {
    // A malformed pair is reported before the command is even looked at.
    assert_eq!(
        protocol_error("frobnicate bad"),
        "protocol error: expected key=value, got `bad`"
    );
    assert_eq!(
        protocol_error("frobnicate model=gpt2"),
        "protocol error: unknown command `frobnicate` (try plan/estimate/invalidate/stats)"
    );
    assert_eq!(
        protocol_error("plan model=gpt2 topo=2+2 model=gpt2"),
        "protocol error: duplicate key `model`"
    );
    // Keys are checked in sorted order, not line order.
    assert_eq!(
        protocol_error("plan model=gpt2 topo=2+2 zeta=1 alpha=2"),
        "protocol error: unknown key `alpha` for `plan`"
    );
    // A solve reads only the model and the topology, so no other key is
    // accepted.
    assert_eq!(
        protocol_error("plan model=gpt2 topo=2+2 budget_ms=100"),
        "protocol error: unknown key `budget_ms` for `plan`"
    );
    assert_eq!(
        protocol_error("plan model=gpt2 topo=2+2 system=mobius"),
        "protocol error: unknown key `system` for `plan`"
    );
    assert_eq!(
        protocol_error("invalidate model=gpt2 budget_ms=100"),
        "protocol error: unknown key `budget_ms` for `invalidate`"
    );
    assert_eq!(
        protocol_error("invalidate model=gpt2 system=mobius"),
        "protocol error: unknown key `system` for `invalidate`"
    );
    assert_eq!(
        protocol_error("plan topo=2+2"),
        "protocol error: `plan` requires model="
    );
    assert_eq!(
        protocol_error("estimate model=GPT5 topo=2+2"),
        "protocol error: unknown model `gpt5`"
    );
    assert_eq!(
        protocol_error("plan model=gpt2 topo=2+x"),
        "protocol error: bad topology `2+x`"
    );
}

#[test]
fn oversized_and_underfilled_topologies_are_typed_errors() {
    assert_eq!(
        protocol_error("estimate model=gpt2 topo=300000000"),
        "protocol error: bad topology `300000000`: a server holds at most 16 GPUs"
    );
    // GPT-2 small has 14 layers: sixteen GPUs cannot each hold a stage.
    assert_eq!(
        protocol_error("plan model=gpt2 topo=16"),
        "plan error: scheduling failed: the model has 14 layers but the topology has \
         16 GPUs; every GPU needs at least one stage"
    );
}

#[test]
fn model_names_match_case_insensitively_onto_one_entry() {
    let obs = Obs::new();
    let mut s = server_with(&obs, 4, true);
    let miss = s.handle("plan model=gpt2 topo=2+2").unwrap().unwrap();
    let hit = s.handle("plan model=GPT2 topo=2+2").unwrap().unwrap();
    assert!(
        hit.starts_with("ok plan cache=hit latency_us=50 | "),
        "{hit}"
    );
    assert_eq!(payload_of(&hit), payload_of(&miss));
    // A miss under a mixed-case name renders the lowercase name.
    let est = s.handle("estimate model=Gpt2 topo=1+3").unwrap().unwrap();
    assert!(
        est.contains("cache=miss") || est.contains("cache=warm"),
        "{est}"
    );
    assert!(
        payload_of(&est).starts_with("model=gpt2 topo=Topo 1+3 "),
        "{est}"
    );
    assert_eq!(obs.counter("serve.cache.hit"), 1.0);
}

#[test]
fn an_eleven_gpu_plan_answers_and_its_repeat_is_a_byte_identical_hit() {
    // Cross mapping on 3+3+3+2 once enumerated 11! round permutations
    // (18 s) inside the request; the label-pruned search maps it at once.
    // A paper-scale model's miss solves under the planner's node budget,
    // so its (simulated) latency is bounded by that budget's leaves.
    let obs = Obs::new();
    let mut s = server_with(&obs, 4, true);
    let miss = s.handle("plan model=3b topo=3+3+3+2").unwrap().unwrap();
    assert!(miss.starts_with("ok plan cache=miss "), "{miss}");
    assert!(payload_of(&miss).contains("topo=Topo 3+3+3+2 "), "{miss}");
    let latency_us: u64 = miss
        .split_once("latency_us=")
        .and_then(|(_, rest)| rest.split_once(' '))
        .and_then(|(n, _)| n.parse().ok())
        .expect("a miss reports its latency");
    let cap = MISS_BASE_US + LEAF_COST_US * PLAN_NODE_BUDGET as u64;
    assert!(latency_us <= cap, "{latency_us} > {cap}: {miss}");
    let hit = s.handle("plan model=3b topo=3+3+3+2").unwrap().unwrap();
    assert!(hit.starts_with("ok plan cache=hit "), "{hit}");
    assert_eq!(payload_of(&hit), payload_of(&miss));
}
