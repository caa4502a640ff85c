//! Property-based tests of the partition search and the chain-partition DP.

use proptest::prelude::*;

use mobius_mip::{chain_partition_dp, SegmentObjective, SegmentSearch};

/// Bottleneck (max stage weight) objective over contiguous segmentations,
/// capped at `max_parts` stages.
struct Bottleneck {
    weights: Vec<f64>,
    max_parts: usize,
}

impl SegmentObjective for Bottleneck {
    fn cost(&self, sizes: &[usize]) -> Option<f64> {
        if sizes.len() > self.max_parts {
            return None;
        }
        let mut i = 0;
        let mut worst: f64 = 0.0;
        for &s in sizes {
            worst = worst.max(self.weights[i..i + s].iter().sum());
            i += s;
        }
        Some(worst)
    }

    fn lower_bound(&self, prefix: &[usize]) -> f64 {
        let mut i = 0;
        let mut worst: f64 = 0.0;
        for &s in prefix {
            worst = worst.max(self.weights[i..i + s].iter().sum());
            i += s;
        }
        worst
    }
}

/// Turns sorted random breakpoints into stage sizes summing to `n`.
fn sizes_from_breaks(n: usize, mut breaks: Vec<usize>) -> Vec<usize> {
    breaks.retain(|&b| b > 0 && b < n);
    breaks.sort_unstable();
    breaks.dedup();
    let mut sizes = Vec::with_capacity(breaks.len() + 1);
    let mut prev = 0;
    for b in breaks {
        sizes.push(b - prev);
        prev = b;
    }
    sizes.push(n - prev);
    sizes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DP chain partition: the bottleneck never increases when more parts
    /// are allowed, and equals the max element when parts >= items.
    #[test]
    fn chain_partition_monotone(weights in prop::collection::vec(0.5f64..10.0, 1..12)) {
        let mut last = f64::INFINITY;
        for k in 1..=weights.len() {
            let (sizes, cost) = chain_partition_dp(&weights, k);
            prop_assert!(cost <= last + 1e-12, "cost rose with more parts");
            prop_assert_eq!(sizes.iter().sum::<usize>(), weights.len());
            last = cost;
        }
        let max_w = weights.iter().cloned().fold(0.0, f64::max);
        let (_, cost) = chain_partition_dp(&weights, weights.len());
        prop_assert!((cost - max_w).abs() < 1e-12);
    }

    /// Any segmentation's bottleneck lower-bounds at total/k and
    /// upper-bounds at the DP value times nothing — i.e. DP is at least
    /// avg and at most sum.
    #[test]
    fn chain_partition_bounds(
        weights in prop::collection::vec(0.5f64..10.0, 1..12),
        k in 1usize..6,
    ) {
        let total: f64 = weights.iter().sum();
        let (_, cost) = chain_partition_dp(&weights, k);
        let k_eff = k.min(weights.len());
        prop_assert!(cost >= total / k_eff as f64 - 1e-9);
        prop_assert!(cost <= total + 1e-9);
    }

    /// A warm start is a pure accelerant: whatever (possibly infeasible)
    /// candidate it is given, the search returns the bit-identical optimum
    /// the cold solve finds, without expanding more nodes.
    #[test]
    fn warm_start_never_changes_the_optimum(
        weights in prop::collection::vec(0.5f64..10.0, 3..12),
        max_parts in 1usize..6,
        breaks in prop::collection::vec(1usize..12, 0..5),
    ) {
        let n = weights.len();
        let obj = Bottleneck { weights, max_parts };
        let cold = SegmentSearch::new(n)
            .max_stages(max_parts)
            .solve(&obj)
            .expect("bottleneck instances are always feasible");
        // The candidate may exceed max_parts — then it must be ignored.
        let candidate = sizes_from_breaks(n, breaks);
        let warm = SegmentSearch::new(n)
            .max_stages(max_parts)
            .warm_start(candidate)
            .solve(&obj)
            .expect("warm start must not break feasibility");
        prop_assert_eq!(cold.cost.to_bits(), warm.cost.to_bits(), "cost diverged");
        // The returned segmentation must actually achieve that cost (an
        // optimal-cost warm candidate may legitimately be kept as-is).
        prop_assert_eq!(obj.cost(&warm.sizes), Some(warm.cost));
        prop_assert!(
            warm.stats.nodes <= cold.stats.nodes,
            "warm start expanded more nodes ({} > {})",
            warm.stats.nodes,
            cold.stats.nodes
        );
    }
}
