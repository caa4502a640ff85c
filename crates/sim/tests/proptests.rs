//! Property-based tests of the simulation substrate's core invariants.

use proptest::prelude::*;

use mobius_sim::{Cdf, Engine, FlowNetwork, IntervalSet, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The engine pops events in non-decreasing time order regardless of
    /// insertion order, same-time events pop FIFO, and every event pops
    /// exactly once at its (past-clamped) scheduled time.
    ///
    /// `shape` picks the time domain: microseconds up to 10 ms, a
    /// tie-heavy 16-instant millisecond domain where most instants carry
    /// several events, or sparse nanosecond horizons up to `u64::MAX / 2`.
    /// Every fourth action pops instead of scheduling, so the queue grows
    /// and drains while the clock moves.
    #[test]
    fn engine_pops_sorted(
        shape in 0u8..3,
        ops in prop::collection::vec((0u64..u64::MAX / 2, 0u8..4), 1..400),
    ) {
        let mut engine = Engine::new();
        // The time each schedule index must pop at: its requested time,
        // clamped to the clock at the moment it was scheduled.
        let mut due: Vec<Option<SimTime>> = vec![None; ops.len()];
        let mut popped = Vec::new();
        for (i, &(r, action)) in ops.iter().enumerate() {
            if action == 3 {
                popped.extend(engine.pop());
            } else {
                let at = match shape {
                    0 => SimTime::from_micros(r % 10_000),
                    1 => SimTime::from_millis(r % 16),
                    _ => SimTime::from_nanos(r),
                };
                due[i] = Some(at.max(engine.now()));
                engine.schedule(at, i);
            }
        }
        while let Some(ev) = engine.pop() {
            popped.push(ev);
        }
        prop_assert_eq!(popped.len(), due.iter().flatten().count());
        let mut last: Option<(SimTime, usize)> = None;
        for &(t, idx) in &popped {
            prop_assert_eq!(Some(t), due[idx].take(), "index {} popped at the wrong time or twice", idx);
            if let Some((prev_t, prev_idx)) = last {
                prop_assert!(t >= prev_t, "clock went backwards: {:?} after {:?}", t, prev_t);
                if t == prev_t {
                    // FIFO within a timestamp: schedule indices increase.
                    prop_assert!(idx > prev_idx, "tie at {:?}: {} popped after {}", t, idx, prev_idx);
                }
            }
            last = Some((t, idx));
        }
    }

    /// Completion times are consistent: the flow reported by
    /// `next_completion` really has (almost) nothing left at that instant.
    #[test]
    fn next_completion_is_tight(
        sizes in prop::collection::vec(0.01f64..5.0, 1..12),
        cap in 1.0f64..20.0,
    ) {
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", cap * 1e9);
        for (i, gb) in sizes.iter().enumerate() {
            net.start_flow(vec![l], gb * 1e9, 0, i as u64);
        }
        while let Some((t, id)) = net.next_completion() {
            net.advance_to(t);
            let left = net.remaining_of(id).unwrap();
            prop_assert!(left <= 64.0, "flow still has {left} bytes");
            net.complete(id).unwrap();
        }
        prop_assert_eq!(net.active_flows(), 0);
    }

    /// Higher-priority flows always finish no later than equal-size
    /// lower-priority flows started at the same time on the same path.
    #[test]
    fn priority_orders_completions(gb in 0.1f64..5.0, cap in 1.0f64..16.0) {
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", cap * 1e9);
        let hi = net.start_flow(vec![l], gb * 1e9, 5, 0);
        let lo = net.start_flow(vec![l], gb * 1e9, 1, 1);
        let mut hi_done = None;
        let mut lo_done = None;
        while let Some((t, id)) = net.next_completion() {
            net.advance_to(t);
            net.complete(id).unwrap();
            if id == hi {
                hi_done = Some(t);
            } else if id == lo {
                lo_done = Some(t);
            }
        }
        prop_assert!(hi_done.unwrap() <= lo_done.unwrap());
    }

    /// Union is commutative and associative on measure.
    #[test]
    fn interval_union_algebra(
        a in prop::collection::vec((0u64..500, 1u64..50), 0..10),
        b in prop::collection::vec((0u64..500, 1u64..50), 0..10),
    ) {
        let build = |v: &[(u64, u64)]| -> IntervalSet {
            v.iter()
                .map(|&(s, l)| (SimTime::from_millis(s), SimTime::from_millis(s + l)))
                .collect()
        };
        let (sa, sb) = (build(&a), build(&b));
        prop_assert_eq!(sa.union(&sb), sb.union(&sa));
        // |A ∪ B| >= max(|A|, |B|).
        let u = sa.union(&sb);
        prop_assert!(u.measure() >= sa.measure().max(sb.measure()));
        // Difference then intersect are disjoint partitions of A.
        let diff = sa.difference(&sb);
        let inter = sa.intersect(&sb);
        prop_assert_eq!(diff.measure() + inter.measure(), sa.measure());
    }

    /// Quantile is the inverse of fraction_at, up to discreteness.
    #[test]
    fn cdf_quantile_inverse(samples in prop::collection::vec((0.5f64..15.0, 0.1f64..4.0), 1..30)) {
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
        for p in [0.1, 0.5, 0.9] {
            let q = cdf.quantile(p).unwrap();
            prop_assert!(cdf.fraction_at(q) >= p - 1e-9);
        }
    }
}
