//! Optimal contiguous partitioning.
//!
//! The paper's partition program (§3.2) assigns model layers to pipeline
//! stages with boolean variables `B_{i,j}`. Because a pipeline stage is a
//! *contiguous* range of layers, the boolean program is equivalent to
//! searching over contiguous segmentations of the layer sequence. This
//! module provides:
//!
//! * [`SegmentSearch`] — exact branch-and-bound over segmentations with a
//!   caller-supplied objective (the pipeline crate plugs in the full
//!   schedule evaluator implementing constraints 4–11), an admissible lower
//!   bound, and per-stage memory caps. This is the production path of the
//!   pipeline crate's MIP partitioner.
//! * [`chain_partition_dp`] — the classic min-max chain partition solved
//!   exactly by dynamic programming (GPipe's balanced partitioner).

use mobius_obs::{WallSecs, WallTimer};

/// Objective supplied by the caller to [`SegmentSearch`].
pub trait SegmentObjective {
    /// Exact cost of a complete segmentation. `sizes` are the per-stage item
    /// counts, in order, summing to the item total. `None` marks an
    /// infeasible segmentation (e.g. a stage that cannot fit in GPU memory).
    fn cost(&self, sizes: &[usize]) -> Option<f64>;

    /// Admissible lower bound on the cost of *any* completion of `prefix`
    /// (never over-estimates). The default is no bound.
    fn lower_bound(&self, prefix: &[usize]) -> f64 {
        let _ = prefix;
        0.0
    }

    /// The largest permissible size of a stage starting at item
    /// `first_item`. Defaults to unbounded.
    fn max_stage_size(&self, first_item: usize) -> usize {
        let _ = first_item;
        usize::MAX
    }
}

/// Statistics from a [`SegmentSearch`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchStats {
    /// Leaves evaluated with the exact objective.
    pub evaluated: usize,
    /// Internal nodes pruned by the lower bound.
    pub pruned: usize,
    /// Internal branch-and-bound nodes expanded.
    pub nodes: usize,
    /// Whether a warm-start candidate was feasible and installed as the
    /// initial incumbent (see [`SegmentSearch::warm_start`]).
    pub warm_started: bool,
    /// Diagnostics-only wall-clock spent searching; machine-dependent, so
    /// it never reaches a byte-compared artifact (see
    /// [`mobius_obs::walltime`]).
    pub wall_elapsed: WallSecs,
    /// Whether the search ran to completion (`false` = node limit
    /// reached; the result is the best incumbent, not proved optimal).
    pub complete: bool,
}

/// The best segmentation found, its cost, and search statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentResult {
    /// Per-stage item counts, in order.
    pub sizes: Vec<usize>,
    /// Objective value of [`SegmentResult::sizes`].
    pub cost: f64,
    /// Search statistics.
    pub stats: SearchStats,
}

/// Exact branch-and-bound over contiguous segmentations of `n_items` items.
///
/// # Examples
///
/// Minimize the maximum segment sum of weights (a load balance objective):
///
/// ```
/// use mobius_mip::{SegmentObjective, SegmentSearch};
///
/// struct Balance(Vec<f64>, usize); // weights, max segments
/// impl SegmentObjective for Balance {
///     fn cost(&self, sizes: &[usize]) -> Option<f64> {
///         if sizes.len() > self.1 {
///             return None;
///         }
///         let mut i = 0;
///         let mut worst: f64 = 0.0;
///         for &s in sizes {
///             worst = worst.max(self.0[i..i + s].iter().sum());
///             i += s;
///         }
///         Some(worst)
///     }
/// }
///
/// let obj = Balance(vec![1.0, 2.0, 3.0, 4.0, 5.0], 3);
/// let best = SegmentSearch::new(5).solve(&obj).unwrap();
/// assert_eq!(best.cost, 6.0); // [1,2,3][4][5] or [1,2,3][4,5]... best max = 6
/// ```
#[derive(Debug, Clone)]
pub struct SegmentSearch {
    n_items: usize,
    max_stages: usize,
    node_limit: usize,
    seed: Option<(Vec<usize>, f64)>,
    warm: Option<Vec<usize>>,
    obs: Option<mobius_obs::Obs>,
}

impl SegmentSearch {
    /// Creates a search over segmentations of `n_items` items.
    ///
    /// # Panics
    ///
    /// Panics if `n_items == 0`.
    pub fn new(n_items: usize) -> Self {
        assert!(n_items > 0, "cannot segment zero items");
        SegmentSearch {
            n_items,
            max_stages: n_items,
            node_limit: 2_000_000,
            seed: None,
            warm: None,
            obs: None,
        }
    }

    /// Attaches an observer: each new incumbent is marked on the solver lane
    /// (wall-clock stamped) and `mip.evaluated` / `mip.pruned` counters plus
    /// the `mip.incumbent_gap` gauge (relative improvement over the seed)
    /// are filled in at the end of the solve.
    pub fn observe(mut self, obs: mobius_obs::Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Seeds the search with a known-feasible incumbent (its cost must come
    /// from the same objective); the search only reports something better
    /// or equal, and pruning bites from the first node.
    pub fn seed(mut self, sizes: Vec<usize>, cost: f64) -> Self {
        self.seed = Some((sizes, cost));
        self
    }

    /// Warm-starts the search from a previous solution's segmentation —
    /// the incremental re-solve path for elastic replans.
    ///
    /// Unlike [`SegmentSearch::seed`], the cost is *not* supplied: the
    /// candidate is re-evaluated under the **current** objective before the
    /// search begins, because the objective has typically changed since the
    /// sizes were optimal (fewer GPUs after a failure, different memory
    /// caps). An infeasible or ill-shaped candidate (empty, a zero-sized
    /// stage, more stages than allowed, or sizes not summing to the item
    /// count) is silently ignored and the solve falls back to cold; a
    /// feasible one becomes the initial incumbent so pruning bites from a
    /// near-optimal bound on the very first node. The optimum found
    /// is identical to a cold solve — only the number of nodes explored
    /// changes.
    pub fn warm_start(mut self, sizes: Vec<usize>) -> Self {
        self.warm = Some(sizes);
        self
    }

    /// Caps the number of stages (default: one per item).
    pub fn max_stages(mut self, s: usize) -> Self {
        self.max_stages = s.clamp(1, self.n_items);
        self
    }

    /// Caps the number of explored nodes (anytime behaviour).
    pub fn node_limit(mut self, n: usize) -> Self {
        self.node_limit = n;
        self
    }

    /// Runs the search; `None` means no feasible segmentation exists.
    pub fn solve<O: SegmentObjective>(&self, obj: &O) -> Option<SegmentResult> {
        let timer = WallTimer::start();
        let mut best: Option<(Vec<usize>, f64)> = self.seed.clone();
        let mut stats = SearchStats {
            complete: true,
            ..SearchStats::default()
        };
        // Warm start: re-evaluate the previous solution under the current
        // objective; if feasible and at least as good as any seed, it is
        // the initial incumbent.
        if let Some(sizes) = &self.warm {
            if self.well_shaped(sizes) {
                stats.evaluated += 1;
                if let Some(cost) = obj.cost(sizes) {
                    if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                        best = Some((sizes.clone(), cost));
                        stats.warm_started = true;
                    }
                }
            }
        }
        let mut prefix: Vec<usize> = Vec::new();
        let mut nodes = 0usize;
        self.dfs(obj, &mut prefix, 0, &mut best, &mut stats, &mut nodes);
        stats.nodes = nodes;
        stats.wall_elapsed = timer.elapsed();
        if let Some(obs) = &self.obs {
            obs.counter_add("mip.evaluated", stats.evaluated as f64);
            obs.counter_add("mip.pruned", stats.pruned as f64);
            obs.counter_add("mip.nodes", stats.nodes as f64);
            if stats.warm_started {
                obs.counter_add("mip.warm_started", 1.0);
            }
            if let (Some((_, seed_cost)), Some((_, final_cost))) = (&self.seed, &best) {
                // Relative incumbent improvement: how far the search moved
                // below the seed it started from (0 = seed was optimal). A
                // zero-cost seed cannot be improved on, so the gap is 0 by
                // definition — guarding the division keeps NaN out of the
                // metrics registry (it would survive until JSON export).
                let gap = if *seed_cost > 0.0 {
                    (seed_cost - final_cost) / seed_cost
                } else {
                    0.0
                };
                obs.gauge_set("mip.incumbent_gap", gap);
            }
        }
        best.map(|(sizes, cost)| SegmentResult { sizes, cost, stats })
    }

    /// Whether `sizes` is a segmentation this search could itself produce:
    /// at most `max_stages` non-empty stages covering exactly `n_items`.
    /// The sum is checked, so a corrupt candidate cannot overflow.
    fn well_shaped(&self, sizes: &[usize]) -> bool {
        !sizes.is_empty()
            && sizes.len() <= self.max_stages
            && !sizes.contains(&0)
            && sizes.iter().try_fold(0usize, |sum, &s| sum.checked_add(s)) == Some(self.n_items)
    }

    fn dfs<O: SegmentObjective>(
        &self,
        obj: &O,
        prefix: &mut Vec<usize>,
        covered: usize,
        best: &mut Option<(Vec<usize>, f64)>,
        stats: &mut SearchStats,
        nodes: &mut usize,
    ) {
        if covered == self.n_items {
            stats.evaluated += 1;
            if let Some(cost) = obj.cost(prefix) {
                if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                    if let Some(obs) = &self.obs {
                        // Solver-lane timestamps are the deterministic
                        // evaluated-leaf count, not wall-clock: traces must
                        // stay byte-identical across machines and runs.
                        obs.mark(
                            mobius_obs::Lane::Solver,
                            "solver",
                            "incumbent",
                            stats.evaluated as u64,
                            vec![
                                ("cost", mobius_obs::AttrValue::F64(cost)),
                                ("stages", mobius_obs::AttrValue::U64(prefix.len() as u64)),
                                (
                                    "evaluated",
                                    mobius_obs::AttrValue::U64(stats.evaluated as u64),
                                ),
                            ],
                        );
                    }
                    *best = Some((prefix.clone(), cost));
                }
            }
            return;
        }
        *nodes += 1;
        if *nodes > self.node_limit {
            stats.complete = false;
            return;
        }
        if prefix.len() >= self.max_stages {
            return;
        }
        // Bound pruning.
        if let Some((_, inc)) = best {
            if obj.lower_bound(prefix) >= *inc {
                stats.pruned += 1;
                return;
            }
        }
        let remaining = self.n_items - covered;
        let cap = obj.max_stage_size(covered).min(remaining);
        if cap == 0 {
            return; // next stage cannot hold even one item
        }
        // Candidate ordering: sizes near the balanced ideal first, so the
        // first incumbent is already strong and pruning bites early.
        let stages_left = self.max_stages - prefix.len();
        let ideal = (remaining as f64 / stages_left as f64).ceil() as usize;
        let mut sizes: Vec<usize> = (1..=cap).collect();
        sizes.sort_by_key(|&s| (s as i64 - ideal as i64).abs());
        for s in sizes {
            prefix.push(s);
            self.dfs(obj, prefix, covered + s, best, stats, nodes);
            prefix.pop();
            if !stats.complete {
                return;
            }
        }
    }
}

/// Exact min-max contiguous partition of `weights` into at most `k` parts by
/// dynamic programming. Returns the part sizes.
///
/// # Panics
///
/// Panics if `weights` is empty or `k == 0`.
pub fn chain_partition_dp(weights: &[f64], k: usize) -> (Vec<usize>, f64) {
    let n = weights.len();
    assert!(n > 0 && k > 0, "need items and parts");
    let k = k.min(n);
    // prefix sums
    let mut pre = vec![0.0; n + 1];
    for (i, w) in weights.iter().enumerate() {
        pre[i + 1] = pre[i] + w;
    }
    let seg = |a: usize, b: usize| pre[b] - pre[a]; // [a, b)
                                                    // dp[j][i]: best bottleneck partitioning first i items into j parts.
    let mut dp = vec![vec![f64::INFINITY; n + 1]; k + 1];
    let mut cut = vec![vec![0usize; n + 1]; k + 1];
    dp[0][0] = 0.0;
    for j in 1..=k {
        for i in 1..=n {
            for c in (j - 1)..i {
                let cost = dp[j - 1][c].max(seg(c, i));
                if cost < dp[j][i] {
                    dp[j][i] = cost;
                    cut[j][i] = c;
                }
            }
        }
    }
    // Best over exactly 1..=k parts (allowing fewer parts).
    let (best_j, best_cost) = (1..=k)
        .map(|j| (j, dp[j][n]))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("nonempty");
    let mut sizes = Vec::new();
    let (mut j, mut i) = (best_j, n);
    while j > 0 {
        let c = cut[j][i];
        sizes.push(i - c);
        i = c;
        j -= 1;
    }
    sizes.reverse();
    (sizes, best_cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Balance {
        weights: Vec<f64>,
        max_parts: usize,
    }

    impl SegmentObjective for Balance {
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
            // Bottleneck so far is a valid lower bound.
            let mut i = 0;
            let mut worst: f64 = 0.0;
            for &s in prefix {
                worst = worst.max(self.weights[i..i + s].iter().sum());
                i += s;
            }
            worst
        }
    }

    #[test]
    fn search_matches_dp_on_small_instances() {
        let weights = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        for k in 1..=5 {
            let (_, dp_cost) = chain_partition_dp(&weights, k);
            let obj = Balance {
                weights: weights.clone(),
                max_parts: k,
            };
            let res = SegmentSearch::new(weights.len())
                .max_stages(k)
                .solve(&obj)
                .expect("feasible");
            assert!(
                (res.cost - dp_cost).abs() < 1e-9,
                "k={k}: search {} vs dp {}",
                res.cost,
                dp_cost
            );
            assert!(res.stats.complete);
        }
    }

    #[test]
    fn dp_uses_fewer_parts_when_beneficial() {
        // One huge item: extra parts can't help beyond isolating it.
        let (sizes, cost) = chain_partition_dp(&[10.0, 1.0, 1.0], 3);
        assert_eq!(cost, 10.0);
        assert!(sizes.len() <= 3);
    }

    #[test]
    fn search_respects_max_stage_size() {
        struct Capped;
        impl SegmentObjective for Capped {
            fn cost(&self, sizes: &[usize]) -> Option<f64> {
                Some(sizes.len() as f64)
            }
            fn max_stage_size(&self, _first: usize) -> usize {
                2
            }
        }
        let res = SegmentSearch::new(7).solve(&Capped).unwrap();
        // Fewest stages with cap 2: ceil(7/2) = 4.
        assert_eq!(res.cost, 4.0);
        assert!(res.sizes.iter().all(|&s| s <= 2));
    }

    #[test]
    fn infeasible_returns_none() {
        struct Never;
        impl SegmentObjective for Never {
            fn cost(&self, _sizes: &[usize]) -> Option<f64> {
                None
            }
        }
        assert!(SegmentSearch::new(3).solve(&Never).is_none());
    }

    #[test]
    fn node_limit_yields_incumbent() {
        let weights: Vec<f64> = (0..14).map(|i| (i % 5) as f64 + 1.0).collect();
        let obj = Balance {
            weights: weights.clone(),
            max_parts: 7,
        };
        let res = SegmentSearch::new(weights.len())
            .max_stages(7)
            .node_limit(50)
            .solve(&obj);
        if let Some(r) = res {
            // Whatever was found must be a valid segmentation.
            assert_eq!(r.sizes.iter().sum::<usize>(), weights.len());
        }
    }

    #[test]
    fn single_item() {
        let (sizes, cost) = chain_partition_dp(&[42.0], 4);
        assert_eq!(sizes, vec![1]);
        assert_eq!(cost, 42.0);
    }

    #[test]
    fn warm_start_same_cost_fewer_nodes() {
        let weights: Vec<f64> = (0..16).map(|i| ((i * 7) % 5) as f64 + 1.0).collect();
        let obj = Balance {
            weights: weights.clone(),
            max_parts: 5,
        };
        let cold = SegmentSearch::new(weights.len())
            .max_stages(5)
            .solve(&obj)
            .expect("feasible");
        assert!(cold.stats.complete);
        let warm = SegmentSearch::new(weights.len())
            .max_stages(5)
            .warm_start(cold.sizes.clone())
            .solve(&obj)
            .expect("feasible");
        assert!(warm.stats.warm_started);
        // Bit-identical optimum, strictly less work.
        assert_eq!(warm.cost, cold.cost);
        assert!(
            warm.stats.evaluated < cold.stats.evaluated,
            "warm {} !< cold {}",
            warm.stats.evaluated,
            cold.stats.evaluated
        );
        assert!(warm.stats.nodes <= cold.stats.nodes);
    }

    #[test]
    fn infeasible_warm_start_falls_back_to_cold() {
        let weights = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let obj = Balance {
            weights: weights.clone(),
            max_parts: 3,
        };
        let cold = SegmentSearch::new(6).max_stages(3).solve(&obj).unwrap();
        // Wrong item total: ignored entirely.
        let bad_sum = SegmentSearch::new(6)
            .max_stages(3)
            .warm_start(vec![2, 2])
            .solve(&obj)
            .unwrap();
        assert!(!bad_sum.stats.warm_started);
        assert_eq!(bad_sum.cost, cold.cost);
        // Too many stages for the objective: evaluated, found infeasible,
        // search still reaches the cold optimum.
        let bad_stages = SegmentSearch::new(6)
            .max_stages(6)
            .warm_start(vec![1, 1, 1, 1, 1, 1])
            .solve(&obj)
            .unwrap();
        assert!(!bad_stages.stats.warm_started);
        assert_eq!(bad_stages.cost, cold.cost);
    }

    #[test]
    fn malformed_warm_start_is_ignored_not_a_panic() {
        // Candidates a corrupt checkpoint can carry: a zero-sized stage, and
        // sizes whose sum overflows `usize` (it wraps to the item count in
        // release builds). Both must leave the solve cold.
        let weights = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let obj = Balance {
            weights: weights.clone(),
            max_parts: 3,
        };
        let cold = SegmentSearch::new(6).max_stages(3).solve(&obj).unwrap();
        let wrapping = vec![usize::MAX, 7];
        assert_eq!(wrapping[0].wrapping_add(wrapping[1]), 6);
        for candidate in [vec![0, 3, 3], wrapping] {
            let warm = SegmentSearch::new(6)
                .max_stages(3)
                .warm_start(candidate.clone())
                .solve(&obj)
                .unwrap();
            assert!(!warm.stats.warm_started, "{candidate:?} was installed");
            assert_eq!(warm.sizes, cold.sizes, "{candidate:?}");
            assert_eq!(warm.cost.to_bits(), cold.cost.to_bits(), "{candidate:?}");
            assert_eq!(
                warm.stats,
                SearchStats {
                    wall_elapsed: warm.stats.wall_elapsed,
                    ..cold.stats
                }
            );
        }
    }

    #[test]
    fn zero_cost_seed_emits_finite_incumbent_gap() {
        // A zero-cost seeded incumbent must not divide the gap gauge into
        // NaN — the registry would carry it silently until JSON export.
        struct Free;
        impl SegmentObjective for Free {
            fn cost(&self, _sizes: &[usize]) -> Option<f64> {
                Some(0.0)
            }
        }
        let obs = mobius_obs::Obs::new();
        SegmentSearch::new(3)
            .seed(vec![3], 0.0)
            .observe(obs.clone())
            .solve(&Free)
            .expect("feasible");
        let gap = obs.gauge("mip.incumbent_gap").expect("gauge present");
        assert!(gap.is_finite(), "incumbent gap must be finite, got {gap}");
        assert_eq!(gap, 0.0);
    }
}
