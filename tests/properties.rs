//! Property-based tests on the core invariants of the simulation and
//! optimization substrates.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use mobius_mapping::Mapping;
use mobius_pipeline::{
    chain_partition_dp, check_differential, evaluate_analytic, simulate_step, PipelineConfig,
    StageCosts,
};
use mobius_sim::{Cdf, FlowId, FlowNetwork, IntervalSet, LinkId, Priority, SimTime};
use mobius_topology::{GpuSpec, Topology};

const GB: u64 = 1 << 30;

fn stage(fwd_ms: u64, param_mb: u64, act_mb: u64) -> StageCosts {
    StageCosts {
        fwd: SimTime::from_millis(fwd_ms),
        bwd: SimTime::from_millis(3 * fwd_ms),
        param_bytes: param_mb << 20,
        grad_bytes: param_mb << 20,
        in_act_bytes: act_mb << 20,
        out_act_bytes: act_mb << 20,
        workspace_bytes: 64 << 20,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Max-min fairness never oversubscribes any link.
    #[test]
    fn flow_rates_respect_capacities(
        caps in prop::collection::vec(1.0f64..20.0, 2..6),
        flows in prop::collection::vec((0usize..6, 0usize..6, 0.5f64..50.0, 0u8..4), 1..24),
    ) {
        let mut net = FlowNetwork::new();
        net.set_strict_validation(true);
        let links: Vec<_> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| net.add_link(format!("l{i}"), c * 1e9))
            .collect();
        let mut ids = Vec::new();
        for (a, b, gb, prio) in flows {
            let la = links[a % links.len()];
            let lb = links[b % links.len()];
            let path = if la == lb { vec![la] } else { vec![la, lb] };
            ids.push((net.start_flow(path.clone(), gb * 1e9, prio, 0), path));
        }
        let mut used = vec![0.0f64; links.len()];
        for (id, path) in &ids {
            let r = net.rate_of(*id).unwrap();
            prop_assert!(r >= 0.0);
            for l in path {
                used[l.index()] += r;
            }
        }
        for (u, &c) in used.iter().zip(caps.iter()) {
            prop_assert!(*u <= c * 1e9 * (1.0 + 1e-9), "link oversubscribed: {u} > {c}e9");
        }
    }

    /// Flows conserve bytes: what drains equals what was injected.
    #[test]
    fn flow_conservation(gbs in prop::collection::vec(0.1f64..8.0, 1..10)) {
        let mut net = FlowNetwork::new();
        net.set_strict_validation(true);
        let l = net.add_link("l", 10e9);
        let total: f64 = gbs.iter().sum::<f64>() * 1e9;
        for (i, gb) in gbs.iter().enumerate() {
            net.start_flow(vec![l], gb * 1e9, 0, i as u64);
        }
        let mut drained = 0.0;
        while let Some((t, id)) = net.next_completion() {
            net.advance_to(t);
            drained += net.complete(id).unwrap().0.bytes;
        }
        prop_assert!((drained - total).abs() < 1.0);
        prop_assert_eq!(net.active_flows(), 0);
    }

    /// Interval set measure is monotone under insertion and bounded by span.
    #[test]
    fn interval_set_invariants(spans in prop::collection::vec((0u64..1000, 1u64..100), 1..40)) {
        let mut set = IntervalSet::new();
        let mut last_measure = SimTime::ZERO;
        for (start, len) in spans {
            set.insert(SimTime::from_millis(start), SimTime::from_millis(start + len));
            let m = set.measure();
            prop_assert!(m >= last_measure, "measure shrank");
            last_measure = m;
        }
        // Disjointness and ordering.
        let spans = set.spans();
        for w in spans.windows(2) {
            prop_assert!(w[0].1 < w[1].0, "overlapping or touching spans survived");
        }
        let hull = set.end().unwrap() - set.start().unwrap();
        prop_assert!(set.measure() <= hull);
    }

    /// CDFs are monotone with range [0, 1].
    #[test]
    fn cdf_monotone(samples in prop::collection::vec((0.1f64..20.0, 0.01f64..5.0), 1..50)) {
        let samples: Vec<mobius_sim::BandwidthSample> = samples
            .into_iter()
            .map(|(gbps, gb)| mobius_sim::BandwidthSample {
                bytes: gb * 1e9,
                seconds: gb / gbps,
                gbps,
                kind: mobius_sim::CommKind::Other,
            })
            .collect();
        let cdf = Cdf::from_samples(samples.iter());
        let mut last = 0.0;
        for bw in [0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0] {
            let f = cdf.fraction_at(bw);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= last);
            last = f;
        }
        prop_assert!((cdf.fraction_at(25.0) - 1.0).abs() < 1e-9);
    }

    /// The DP chain partition is optimal: no composition of the weights
    /// into at most `k` contiguous parts has a lighter heaviest part, and
    /// the DP's own sizes are such a composition with the cost it reports.
    #[test]
    fn chain_partition_dp_is_optimal(
        weights in prop::collection::vec(0.5f64..10.0, 1..9),
        k in 1usize..5,
    ) {
        let (sizes, dp_cost) = chain_partition_dp(&weights, k);
        let bottleneck = |sizes: &[usize]| {
            let mut i = 0;
            let mut worst: f64 = 0.0;
            for &s in sizes {
                worst = worst.max(weights[i..i + s].iter().sum());
                i += s;
            }
            worst
        };
        prop_assert!(!sizes.is_empty() && sizes.len() <= k && !sizes.contains(&0));
        prop_assert_eq!(sizes.iter().sum::<usize>(), weights.len());
        prop_assert!((bottleneck(&sizes) - dp_cost).abs() < 1e-9);
        // Every composition is a bit mask of cuts between adjacent items.
        let n = weights.len();
        let mut best = f64::INFINITY;
        for mask in 0u32..1 << (n - 1) {
            if mask.count_ones() as usize >= k {
                continue;
            }
            let mut parts = vec![1];
            for i in 0..n - 1 {
                if mask & (1 << i) != 0 {
                    parts.push(1);
                } else {
                    *parts.last_mut().expect("nonempty") += 1;
                }
            }
            best = best.min(bottleneck(&parts));
        }
        prop_assert!((best - dp_cost).abs() < 1e-9, "exhaustive {} vs dp {}", best, dp_cost);
    }

    /// Analytic schedules: more bandwidth never hurts; more memory never
    /// hurts; more microbatches never make the step shorter.
    #[test]
    fn analytic_monotonicity(
        n_stages in 4usize..10,
        fwd_ms in 5u64..40,
        param_mb in 64u64..2048,
    ) {
        let stages: Vec<StageCosts> = (0..n_stages).map(|_| stage(fwd_ms, param_mb, 4)).collect();
        let mapping = Mapping::sequential(n_stages, 4);
        let base = PipelineConfig::mobius(4, 24 * GB, 13.1e9).with_strict_validation(true);
        let t = |cfg: &PipelineConfig| {
            evaluate_analytic(&stages, &mapping, cfg).unwrap().step_time
        };
        let t0 = t(&base);

        let mut faster = base;
        faster.bandwidth *= 2.0;
        prop_assert!(t(&faster) <= t0, "doubling bandwidth slowed the step");

        let mut bigger = base;
        bigger.gpu_mem_bytes *= 2;
        prop_assert!(t(&bigger) <= t0, "doubling memory slowed the step");

        let mut more_mb = base;
        more_mb.num_microbatches += 1;
        prop_assert!(t(&more_mb) >= t0, "an extra microbatch shortened the step");
    }

    /// Cross mapping never has a higher contention degree than sequential.
    #[test]
    fn cross_mapping_contention_never_worse(
        groups in prop::collection::vec(1usize..4, 1..4),
        rounds in 1usize..5,
    ) {
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &groups);
        let n = topo.num_gpus();
        let stages = n * rounds;
        let seq = Mapping::sequential(stages, n);
        let cross = Mapping::cross(&topo, stages);
        prop_assert!(
            cross.contention_degree(&topo) <= seq.contention_degree(&topo) + 1e-9
        );
    }

    /// Cross mapping is exact: no round permutation of the GPUs has a
    /// lower contention degree. (The mapping crate's unit tests also pin
    /// its tie-break against the exhaustive enumerator.)
    #[test]
    fn cross_mapping_is_optimal_over_round_permutations(
        groups in prop::collection::vec(1usize..4, 1..4),
        extra in 0usize..7,
    ) {
        let mut groups = groups;
        while groups.iter().sum::<usize>() > 7 {
            groups.pop();
        }
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &groups);
        let n = topo.num_gpus();
        let stages = n + extra;
        let cross = Mapping::cross(&topo, stages).contention_degree(&topo);
        let mut best = f64::INFINITY;
        each_permutation(&mut (0..n).collect(), 0, &mut |p| {
            let table = (0..stages).map(|j| p[j % n]).collect();
            best = best.min(Mapping::from_table(table, n).contention_degree(&topo));
        });
        prop_assert!(cross <= best + 1e-9 * best, "cross {cross} vs best {best} on {groups:?}");
    }

    /// The analytic evaluator and the event-driven executor agree within
    /// the documented tolerance band ([`mobius_pipeline::DIFFERENTIAL_RATIO_BAND`])
    /// on random uncontended pipelines — one GPU per root complex, so the
    /// closed form's no-contention assumption holds. Strict validation is
    /// on for both sides: the analytic schedule is re-checked against the
    /// paper's constraints and the executor's flow network asserts flow
    /// conservation at every event.
    #[test]
    fn analytic_and_executor_agree_on_uncontended_pipelines(
        rounds in 1usize..3,
        fwd_ms in 5u64..60,
        param_mb in 64u64..1024,
        act_mb in 1u64..32,
        m in 1usize..5,
    ) {
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[1, 1, 1, 1]);
        let n_stages = 4 * rounds;
        let stages: Vec<StageCosts> =
            (0..n_stages).map(|_| stage(fwd_ms, param_mb, act_mb)).collect();
        let mapping = Mapping::sequential(n_stages, 4);
        let cfg = PipelineConfig::mobius(m, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth())
            .with_strict_validation(true);
        let analytic = evaluate_analytic(&stages, &mapping, &cfg).unwrap().step_time;
        let sim = simulate_step(&stages, &mapping, &topo, &cfg).unwrap().step_time;
        prop_assert!(
            check_differential(analytic, sim).is_ok(),
            "analytic {analytic} vs sim {sim} (ratio {:.2}) outside the documented band",
            sim.as_secs_f64() / analytic.as_secs_f64()
        );
    }

    /// Round-permutation mappings always cover every GPU.
    #[test]
    fn mappings_cover_all_gpus(n in 1usize..9, rounds in 1usize..4) {
        let m = Mapping::sequential(n * rounds, n);
        for g in 0..n {
            prop_assert!(!m.stages_of(g).is_empty());
            // Stages of one GPU are strictly increasing.
            let s = m.stages_of(g);
            prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
        }
    }
}

/// Calls `f` on every permutation of `items[k..]`.
fn each_permutation(items: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        f(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        each_permutation(items, k + 1, f);
        items.swap(k, i);
    }
}

/// A flow as the oracle solver sees it, rebuilt from public state.
struct OracleFlow {
    path: Vec<LinkId>,
    priority: Priority,
    blocked: bool,
}

/// The flow network's rate solve as it was before the flow table became
/// an id-sorted `Vec` with scratch buffers: a `BTreeMap` flow table, one
/// filter pass over all flows per priority class, and a full recount of
/// link users in every water-filling round. It rebuilds every rate from
/// the network's public state.
fn oracle_rates(net: &FlowNetwork) -> BTreeMap<FlowId, f64> {
    let flows: BTreeMap<FlowId, OracleFlow> = net
        .active_flow_ids()
        .into_iter()
        .map(|id| {
            let f = OracleFlow {
                path: net.path_of(id).unwrap(),
                priority: net.priority_of(id).unwrap(),
                blocked: net.is_flow_blocked(id).unwrap(),
            };
            (id, f)
        })
        .collect();
    let mut residual: Vec<f64> = net
        .link_ids()
        .iter()
        .map(|&l| net.link_capacity(l))
        .collect();

    let mut prios: Vec<Priority> = flows.values().map(|f| f.priority).collect();
    prios.sort_unstable_by(|a, b| b.cmp(a));
    prios.dedup();
    let classes: Vec<(Priority, Vec<FlowId>)> = prios
        .into_iter()
        .map(|p| {
            let members: Vec<FlowId> = flows
                .iter()
                .filter(|(_, f)| f.priority == p)
                .map(|(&id, _)| id)
                .collect();
            (p, members)
        })
        .collect();

    let mut rates: BTreeMap<FlowId, f64> = flows.keys().map(|&id| (id, 0.0)).collect();
    for (_, members) in &classes {
        let ids: Vec<FlowId> = members
            .iter()
            .copied()
            .filter(|id| !flows[id].blocked)
            .collect();
        if ids.is_empty() {
            continue;
        }
        let class_rates = oracle_water_fill(&ids, &flows, &residual);
        for (id, rate) in ids.iter().zip(class_rates.iter()) {
            rates.insert(*id, *rate);
            for l in &flows[id].path {
                residual[l.index()] = (residual[l.index()] - rate).max(0.0);
            }
        }
    }
    rates
}

/// The oracle's max-min water-filling for one priority class; returns a
/// rate for each flow in `ids`, in order.
fn oracle_water_fill(
    ids: &[FlowId],
    flows: &BTreeMap<FlowId, OracleFlow>,
    residual: &[f64],
) -> Vec<f64> {
    let n = ids.len();
    let mut rates = vec![0.0f64; n];
    if n == 0 {
        return rates;
    }
    let mut frozen = vec![false; n];
    let mut link_residual = residual.to_vec();

    loop {
        // Count unfrozen flows per link.
        let mut users: Vec<usize> = vec![0; link_residual.len()];
        for (i, id) in ids.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            for l in &flows[id].path {
                users[l.index()] += 1;
            }
        }
        // Bottleneck link: minimal residual/users among used links.
        let mut bottleneck: Option<(usize, f64)> = None;
        for (li, (&res, &u)) in link_residual.iter().zip(users.iter()).enumerate() {
            if u == 0 {
                continue;
            }
            let share = res / u as f64;
            match bottleneck {
                Some((_, s)) if s <= share => {}
                _ => bottleneck = Some((li, share)),
            }
        }
        let Some((bl, share)) = bottleneck else {
            break; // every flow frozen
        };
        // Freeze all unfrozen flows crossing the bottleneck at `share`.
        let mut froze_any = false;
        for (i, id) in ids.iter().enumerate() {
            if frozen[i] || !flows[id].path.iter().any(|l| l.index() == bl) {
                continue;
            }
            rates[i] = share;
            frozen[i] = true;
            froze_any = true;
            for l in &flows[id].path {
                link_residual[l.index()] = (link_residual[l.index()] - share).max(0.0);
            }
        }
        if !froze_any {
            break; // defensive: should be unreachable
        }
    }
    rates
}

/// The oracle's next completion at `now`: earliest drain instant over the
/// oracle rates and each flow's `remaining` bytes, rounded up to the
/// nanosecond, smallest id on ties.
fn oracle_next_completion(
    now: SimTime,
    rates: &BTreeMap<FlowId, f64>,
    remaining: impl Fn(FlowId) -> f64,
) -> Option<(SimTime, FlowId)> {
    let mut best: Option<(SimTime, FlowId)> = None;
    for (&id, &rate) in rates {
        if rate <= 0.0 {
            continue;
        }
        let remaining = remaining(id);
        let dt = remaining / rate;
        let ns = mobius_sim::units::secs_to_ns(dt).ceil();
        let at = now
            + if ns >= u64::MAX as f64 {
                SimTime::MAX
            } else {
                SimTime::from_nanos(ns as u64)
            };
        let at = if remaining > 0.0 && at == now {
            now + SimTime::from_nanos(1)
        } else {
            at
        };
        match best {
            Some((t, _)) if t <= at => {}
            _ => best = Some((at, id)),
        }
    }
    best
}

/// `len` distinct links drawn from the bytes of `bits`.
fn distinct_links(links: &[LinkId], len: usize, bits: u64) -> Vec<LinkId> {
    let mut pool = links.to_vec();
    (0..len)
        .map(|k| pool.swap_remove((bits >> (8 * k)) as usize % pool.len()))
        .collect()
}

/// A flow priority for oracle mode `mode` from the raw draw `raw`:
/// mode 0 draws from 0–3, so equal priorities (and with them classes of
/// several flows) are common; mode 1 from the executor's spread (20 and 30
/// for offloads, 100–200 for stage loads, 255 for activation hops); mode 2
/// puts every flow in one priority-255 class.
fn oracle_priority(mode: u8, raw: u8) -> Priority {
    match (mode, raw % 4) {
        (0, p) => p,
        (1, 0) => 20,
        (1, 1) => 30,
        (1, 2) => 100 + raw % 101,
        _ => 255,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The flow network's rate solve is bit-identical to the oracle solver
    /// after every operation of a random schedule: starts, completions at
    /// `next_completion`, cancels at random positions of the flow table
    /// (and so of its priority class), block toggles and capacity changes.
    /// Whole-GB/s capacities make equal bottleneck shares, and so the
    /// tie-breaks, common. Mode 2 grows one class to up to 120 flows.
    #[test]
    fn flow_solver_matches_oracle(
        mode in 0u8..3,
        caps in prop::collection::vec(1u8..17, 1..13),
        ops in prop::collection::vec(
            (0u8..10, 0usize..1024, 0u64..u64::MAX, 0.1f64..10.0, 0u8..255),
            1..400,
        ),
    ) {
        let mut net = FlowNetwork::new();
        let links: Vec<LinkId> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| net.add_link(format!("l{i}"), c as f64 * 1e9))
            .collect();
        let max_flows = if mode == 2 { 120 } else { 40 };
        for (step, (kind, pick, bits, gb, raw)) in ops.into_iter().enumerate() {
            let ids = net.active_flow_ids();
            match kind {
                0..=5 if ids.len() < max_flows => {
                    let len = 1 + pick % links.len().min(4);
                    let prio = oracle_priority(mode, raw);
                    net.start_flow(distinct_links(&links, len, bits), gb * 1e9, prio, 0);
                }
                6 => {
                    if let Some((t, id)) = net.next_completion() {
                        net.advance_to(t);
                        prop_assert!(net.complete(id).is_ok(), "completion of {id:?} refused");
                    }
                }
                7 if !ids.is_empty() => {
                    // Drain part of the way to the next completion first,
                    // so the cancelled flow has moved some bytes.
                    if let Some((t, _)) = net.next_completion() {
                        let now = net.now().as_nanos();
                        net.advance_to(SimTime::from_nanos(now + (t.as_nanos() - now) / 2));
                    }
                    net.cancel(ids[pick % ids.len()]);
                }
                8 if !ids.is_empty() => {
                    let id = ids[pick % ids.len()];
                    net.set_flow_blocked(id, !net.is_flow_blocked(id).unwrap());
                }
                9 => {
                    let cap = if bits % 2 == 0 { (1 + bits % 16) as f64 } else { gb * 2.0 };
                    net.set_link_capacity(links[pick % links.len()], cap * 1e9);
                }
                _ => {}
            }
            let want = oracle_rates(&net);
            for (&id, &rate) in &want {
                prop_assert_eq!(
                    net.rate_of(id).unwrap().to_bits(),
                    rate.to_bits(),
                    "rate of {:?} after op {}", id, step
                );
            }
            prop_assert_eq!(
                net.next_completion(),
                oracle_next_completion(net.now(), &want, |id| net.remaining_of(id).unwrap()),
                "next completion after op {}", step
            );
        }
    }
}

/// What an eagerly solved network would hold for each in-flight flow:
/// its size and its remaining bytes, drained at the oracle's rates.
type Shadow = BTreeMap<FlowId, (f64, f64)>;

/// Advances `net` to `to` and drains `shadow` over the same interval at
/// the oracle's rates, with the network's own arithmetic.
fn advance_both(net: &mut FlowNetwork, shadow: &mut Shadow, to: SimTime) {
    if to > net.now() {
        let rates = oracle_rates(net);
        let dt = (to - net.now()).as_secs_f64();
        for (id, (_, remaining)) in shadow.iter_mut() {
            *remaining = (*remaining - rates[id] * dt).max(0.0);
        }
    }
    net.advance_to(to);
}

/// Completes `id` and checks the outcome against the oracle: the residue
/// tolerance is `max(64, 2e-9 · rate)` at the rate an eager solve of the
/// current state gives.
fn complete_both(
    net: &mut FlowNetwork,
    shadow: &mut Shadow,
    id: FlowId,
) -> Result<(), TestCaseError> {
    let rate = oracle_rates(net)[&id];
    let (total, remaining) = shadow[&id];
    let want_ok = remaining <= 64.0_f64.max(2e-9 * rate);
    match net.complete(id) {
        Ok((rec, _)) => {
            prop_assert!(
                want_ok,
                "{id:?} completed with {remaining} B left at {rate} B/s"
            );
            prop_assert_eq!(rec.bytes.to_bits(), total.to_bits());
            shadow.remove(&id);
        }
        Err(v) => prop_assert!(!want_ok, "{id:?} refused at {rate} B/s: {v}"),
    }
    Ok(())
}

/// Every rate, every remaining byte count and the next completion of
/// `net`, bit for bit against the oracle and the shadow.
fn check_against_oracle(
    net: &mut FlowNetwork,
    shadow: &Shadow,
    burst: usize,
) -> Result<(), TestCaseError> {
    let want = oracle_rates(net);
    prop_assert_eq!(
        net.active_flow_ids(),
        shadow.keys().copied().collect::<Vec<_>>()
    );
    for (&id, &rate) in &want {
        prop_assert_eq!(
            net.rate_of(id).unwrap().to_bits(),
            rate.to_bits(),
            "rate of {:?} after burst {}",
            id,
            burst
        );
        prop_assert_eq!(
            net.remaining_of(id).unwrap().to_bits(),
            shadow[&id].1.to_bits(),
            "remaining bytes of {:?} after burst {}",
            id,
            burst
        );
    }
    prop_assert_eq!(
        net.next_completion(),
        oracle_next_completion(net.now(), &want, |id| shadow[&id].1),
        "next completion after burst {}",
        burst
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lazy settling reads the bits an eager solve after every mutation
    /// would. Bursts of mutations — several per simulated instant, with
    /// no read between them — are read at a random point: first a
    /// `rate_of`, a `next_completion`, an `advance_to`, or a completion
    /// followed by a second one at the same instant, whose residue
    /// tolerance scales with a rate the first completion made stale. Then
    /// every rate, remaining byte count and the next completion must
    /// match the oracle, with remaining bytes drained in a shadow at the
    /// oracle's rates. Twin starts (one path and priority, sizes a few
    /// hundred bytes apart) on links of up to 600 GB/s put the second
    /// completion's residue between the stale and the settled tolerance.
    /// A quarter of the cases run in strict mode.
    #[test]
    fn lazy_settling_matches_oracle(
        strict in 0u8..4,
        caps in prop::collection::vec(1u16..601, 1..7),
        bursts in prop::collection::vec(
            (
                prop::collection::vec(
                    (0u8..7, 0usize..1024, 0u64..u64::MAX, 0.1f64..10.0, 0u8..255),
                    1..6,
                ),
                0u8..4,
                0usize..1024,
            ),
            1..60,
        ),
    ) {
        let mut net = FlowNetwork::new();
        net.set_strict_validation(strict == 0);
        let links: Vec<LinkId> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| net.add_link(format!("l{i}"), c as f64 * 1e9))
            .collect();
        let mut shadow = Shadow::new();
        for (burst, (mutations, read, pick)) in bursts.into_iter().enumerate() {
            for (kind, pick, bits, gb, raw) in mutations {
                let ids = net.active_flow_ids();
                let path = distinct_links(&links, 1 + pick % links.len().min(3), bits);
                let prio = oracle_priority(raw % 2, raw);
                match kind {
                    0 | 1 if ids.len() < 40 => {
                        let id = net.start_flow(path, gb * 1e9, prio, 0);
                        shadow.insert(id, (gb * 1e9, gb * 1e9));
                    }
                    2 if ids.len() < 40 => {
                        let delta = 200.0 + (bits >> 40) as f64 % 1000.0;
                        for bytes in [gb * 1e9, gb * 1e9 + delta] {
                            let id = net.start_flow(path.clone(), bytes, prio, 0);
                            shadow.insert(id, (bytes, bytes));
                        }
                    }
                    3 if !ids.is_empty() => {
                        let id = ids[pick % ids.len()];
                        let (moved, _) = net.cancel(id).unwrap();
                        let (total, remaining) = shadow.remove(&id).unwrap();
                        prop_assert_eq!(moved.to_bits(), (total - remaining).to_bits());
                    }
                    4 if !ids.is_empty() => {
                        let id = ids[pick % ids.len()];
                        net.set_flow_blocked(id, !net.is_flow_blocked(id).unwrap());
                    }
                    5 => {
                        let cap = (1 + bits % 600) as f64 * 1e9;
                        net.set_link_capacity(links[pick % links.len()], cap);
                    }
                    _ => {}
                }
            }
            let rates = oracle_rates(&net);
            let next = oracle_next_completion(net.now(), &rates, |id| shadow[&id].1);
            match read {
                0 if !rates.is_empty() => {
                    let ids: Vec<FlowId> = rates.keys().copied().collect();
                    let id = ids[pick % ids.len()];
                    prop_assert_eq!(net.rate_of(id).unwrap().to_bits(), rates[&id].to_bits());
                }
                1 => prop_assert_eq!(net.next_completion(), next),
                2 => {
                    // A quarter, half, three quarters or all of the way to
                    // the next completion; 1 µs when nothing moves.
                    let now = net.now().as_nanos();
                    let to = match next {
                        Some((t, _)) => now + (t.as_nanos() - now) * (1 + pick as u64 % 4) / 4,
                        None => now + 1_000,
                    };
                    advance_both(&mut net, &mut shadow, SimTime::from_nanos(to));
                }
                3 => {
                    if let Some((t, first)) = next {
                        advance_both(&mut net, &mut shadow, t);
                        complete_both(&mut net, &mut shadow, first)?;
                        // The flow closest to drained goes next, at the
                        // same instant.
                        let second = shadow
                            .iter()
                            .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
                            .map(|(&id, _)| id);
                        if let Some(id) = second {
                            complete_both(&mut net, &mut shadow, id)?;
                        }
                    }
                }
                _ => {}
            }
            check_against_oracle(&mut net, &shadow, burst)?;
        }
    }
}

/// Deterministic replay of the committed `cdf_monotone` proptest
/// regression (`tests/properties.proptest-regressions`): seven samples
/// share one bandwidth (the generator's range minimum, 0.1 GB/s). The
/// CDF must collapse duplicate-bandwidth points, stay monotone in
/// [0, 1], and pin its final cumulative point to exactly 1.0 so
/// `fraction_at` / `quantile` are well-defined.
#[test]
fn cdf_regression_seed_duplicate_bandwidths() {
    let seed: [(f64, f64); 9] = [
        (0.1, 0.01),
        (0.1, 4.570766401693746),
        (0.1, 4.2954065160047605),
        (0.1, 4.886714651271711),
        (0.1, 4.306976868800549),
        (0.1, 0.01),
        (4.639503578251093, 4.339163575624873),
        (0.1, 1.7333217044022236),
        (0.1, 0.01),
    ];
    let samples: Vec<mobius_sim::BandwidthSample> = seed
        .iter()
        .map(|&(gbps, gb)| mobius_sim::BandwidthSample {
            bytes: gb * 1e9,
            seconds: gb / gbps,
            gbps,
            kind: mobius_sim::CommKind::Other,
        })
        .collect();
    let cdf = Cdf::from_samples(samples.iter());

    // One point per distinct bandwidth.
    assert_eq!(cdf.points().len(), 2, "duplicate bandwidths must collapse");
    // Monotone, in range, and exactly 1.0 at the top.
    let mut last = 0.0;
    for bw in [0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0] {
        let f = cdf.fraction_at(bw);
        assert!((0.0..=1.0).contains(&f), "fraction_at({bw}) = {f}");
        assert!(f >= last);
        last = f;
    }
    assert_eq!(
        cdf.fraction_at(25.0),
        1.0,
        "final point must be pinned to 1.0"
    );
    // Quantiles are well-defined across the whole probability range.
    assert_eq!(cdf.quantile(1.0), Some(4.639503578251093));
    assert_eq!(cdf.quantile(0.5), Some(0.1));
    assert_eq!(cdf.quantile(0.0), Some(0.1));
}
