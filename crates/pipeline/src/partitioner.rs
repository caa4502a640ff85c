//! Model partition algorithms (§3.2 and §4.3 of the paper).
//!
//! Three partitioners are provided, matching the paper's ablation:
//!
//! * [`mip_partition_opts`] — the paper's MIP partition algorithm: an exact
//!   branch-and-bound search over contiguous layer segmentations whose
//!   objective is the full analytic pipeline makespan (constraints 4–11),
//!   seeded with the best near-uniform segmentation and pruned with
//!   admissible load bounds. Layer similarity keeps the evaluation cheap.
//!   The paper states this program with boolean variables `B_{i,j}` and
//!   solves it with Gurobi; because a stage is a contiguous layer range,
//!   every feasible `B_{i,j}` assignment is one segmentation, so searching
//!   the segmentations reaches the same optimum.
//! * [`PartitionAlgo::MaxStage`] — each stage packs as many layers as fit in
//!   GPU memory (fewest, largest stages; no room to prefetch).
//! * [`PartitionAlgo::MinStage`] — one layer per stage (most, smallest stages;
//!   maximal activation traffic).

use mobius_mapping::Mapping;
use mobius_obs::{AttrValue, Lane, Obs, WallSecs, WallTimer};
use mobius_profiler::ModelProfile;
use mobius_sim::SimTime;

use crate::analytic::Scratch;
use crate::{evaluate_analytic, stage_costs, Partition, PipelineConfig, ScheduleError, StageCosts};

/// Node budget of a budgeted MIP partition search
/// ([`MipPartitionOpts::budgeted`]). 8,192 = 2^13 is the number of internal
/// nodes in the full search tree of any model with 14 or fewer layers, so
/// every such search (GPT-2 small included) runs to a proof.
pub const PLAN_NODE_BUDGET: usize = 8_192;

/// Node cap of an unbudgeted MIP partition search
/// ([`MipPartitionOpts::budgeted`] `false`).
const UNBUDGETED_NODE_CAP: usize = 2_000_000;

/// Which partition algorithm to run (selected by the `mobius` facade).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionAlgo {
    /// The paper's MIP partition algorithm.
    Mip,
    /// Maximum-stage heuristic (§4.3).
    MaxStage,
    /// Minimum-stage heuristic (§4.3).
    MinStage,
}

/// A chosen partition plus the predicted step time and solver statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionOutcome {
    /// The chosen partition.
    pub partition: Partition,
    /// Analytic step time under sequential mapping (the search objective).
    pub predicted_step: SimTime,
    /// Branch-and-bound statistics (only for [`PartitionAlgo::Mip`]).
    pub stats: Option<SearchStats>,
}

/// Statistics from one MIP partition search ([`mip_partition_opts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchStats {
    /// Leaves evaluated with the exact objective.
    pub evaluated: usize,
    /// Internal nodes pruned by the lower bound.
    pub pruned: usize,
    /// Internal branch-and-bound nodes expanded.
    pub nodes: usize,
    /// Whether a warm-start candidate was feasible and installed as the
    /// initial incumbent (see [`MipPartitionOpts::warm_start`]).
    pub warm_started: bool,
    /// Diagnostics-only wall-clock spent searching; machine-dependent, so
    /// it never reaches a byte-compared artifact (see
    /// [`mobius_obs::walltime`]).
    pub wall_elapsed: WallSecs,
    /// Whether the search ran to completion (`false` = node limit
    /// reached; the result is the best incumbent, not proved optimal).
    pub complete: bool,
}

/// Runs the selected partition algorithm.
///
/// # Errors
///
/// Returns [`ScheduleError`] when no feasible partition exists (some single
/// layer cannot fit in GPU memory).
pub fn partition_model(
    algo: PartitionAlgo,
    profile: &ModelProfile,
    n_gpus: usize,
    cfg: &PipelineConfig,
) -> Result<PartitionOutcome, ScheduleError> {
    match algo {
        PartitionAlgo::Mip => {
            let opts = MipPartitionOpts {
                budgeted: true,
                warm_start: None,
            };
            mip_partition_opts(profile, n_gpus, cfg, &opts, None)
        }
        PartitionAlgo::MaxStage => max_stage_partition(profile, n_gpus, cfg),
        PartitionAlgo::MinStage => min_stage_partition(profile, n_gpus, cfg),
    }
}

/// One layer per stage (§4.3's minimum-stage baseline).
///
/// # Errors
///
/// Propagates [`ScheduleError`] from the analytic evaluation.
fn min_stage_partition(
    profile: &ModelProfile,
    n_gpus: usize,
    cfg: &PipelineConfig,
) -> Result<PartitionOutcome, ScheduleError> {
    let partition = Partition::singletons(profile.len());
    let predicted = predict(&partition, profile, n_gpus, cfg)?;
    Ok(PartitionOutcome {
        partition,
        predicted_step: predicted,
        stats: None,
    })
}

/// Greedily packs as many layers per stage as fit in GPU memory (§4.3's
/// maximum-stage baseline). When that produces fewer stages than GPUs, the
/// largest stages are split so every GPU has work.
///
/// # Errors
///
/// Returns [`ScheduleError::StageTooLarge`] if a single layer exceeds GPU
/// memory.
fn max_stage_partition(
    profile: &ModelProfile,
    n_gpus: usize,
    cfg: &PipelineConfig,
) -> Result<PartitionOutcome, ScheduleError> {
    let l = profile.len();
    let mut sizes = Vec::new();
    let mut start = 0;
    while start < l {
        let c =
            max_feasible(profile, cfg, start).map_err(|required| ScheduleError::StageTooLarge {
                stage: sizes.len(),
                required,
                capacity: cfg.gpu_mem_bytes,
            })?;
        sizes.push(c);
        start += c;
    }
    fill_gpus(&mut sizes, n_gpus);
    let partition = Partition::from_sizes(sizes);
    let predicted = predict(&partition, profile, n_gpus, cfg)?;
    Ok(PartitionOutcome {
        partition,
        predicted_step: predicted,
        stats: None,
    })
}

/// Options for the MIP partition search ([`mip_partition_opts`]).
#[derive(Debug, Clone, Default)]
pub struct MipPartitionOpts {
    /// Stops the search after [`PLAN_NODE_BUDGET`] nodes. `false` (the
    /// default) searches to a 2,000,000-node cap. Either way the result and
    /// its statistics are a function of the inputs alone.
    pub budgeted: bool,
    /// A previous solution's per-stage sizes, used to warm-start the
    /// branch-and-bound. The elastic replan path passes the partition that
    /// was running when a GPU failed: a layer segmentation mentions no GPU
    /// indices, so it projects onto the survivor topology as-is — only the
    /// stage→GPU mapping and the objective change, so the candidate is
    /// re-costed under the new objective before it is trusted as the
    /// incumbent. An infeasible or ill-shaped candidate (empty, a
    /// zero-sized stage, or sizes not summing to the layer count) is
    /// ignored and the solve runs cold; a feasible one that beats the seed
    /// becomes the initial incumbent, so pruning bites from the first
    /// node. The optimum is the cold solve's; only the work changes.
    pub warm_start: Option<Vec<usize>>,
}

/// The paper's MIP partition algorithm: exact branch-and-bound over
/// contiguous segmentations, objective = analytic step time under
/// sequential mapping, with a near-uniform seed. [`MipPartitionOpts`] adds
/// an optional fixed node budget (anytime behaviour on big models, like a
/// MIP solver's node limit) and a warm-start incumbent (for incremental
/// re-solves after a topology change). With an observer attached, the
/// branch-and-bound search reports incumbent marks on the solver lane plus
/// `mip.*` counters, and the chosen partition's predicted step time lands
/// in the `mip.predicted_step_secs` gauge.
///
/// # Errors
///
/// When no feasible segmentation exists, returns the error the
/// maximum-stage packing meets: [`ScheduleError::StageTooLarge`] naming the
/// stage whose first layer cannot fit in GPU memory alone and the bytes
/// that layer needs resident.
pub fn mip_partition_opts(
    profile: &ModelProfile,
    n_gpus: usize,
    cfg: &PipelineConfig,
    opts: &MipPartitionOpts,
    obs: Option<&Obs>,
) -> Result<PartitionOutcome, ScheduleError> {
    let l = profile.len();
    if l < n_gpus {
        // Every partition has at most `l` stages, and the objective
        // rejects one that leaves a GPU idle: no memory limit is involved.
        return Err(ScheduleError::TooFewLayers {
            layers: l,
            gpus: n_gpus,
        });
    }
    let node_limit = if opts.budgeted {
        PLAN_NODE_BUDGET
    } else {
        UNBUDGETED_NODE_CAP
    };
    let search = Search::new(profile, n_gpus, cfg, node_limit, obs);
    match search.solve(opts.warm_start.as_deref()) {
        (Some((sizes, cost)), stats) => {
            let partition = Partition::from_sizes(sizes);
            if let Some(obs) = obs {
                obs.gauge_set("mip.predicted_step_secs", cost);
                obs.gauge_set("mip.stages", partition.num_stages() as f64);
            }
            Ok(PartitionOutcome {
                partition,
                predicted_step: SimTime::from_secs_f64(cost),
                stats: Some(stats),
            })
        }
        // No segmentation fits. The maximum-stage packing names the cause:
        // the stage whose first layer cannot fit alone and the bytes it
        // needs resident. Should that packing fit after all (the search
        // ran out of nodes before reaching a feasible leaf), it is the
        // plan.
        (None, _) => max_stage_partition(profile, n_gpus, cfg),
    }
}

/// Near-uniform composition of `l` layers into `s` stages (larger first).
fn balanced_sizes(l: usize, s: usize) -> Vec<usize> {
    let base = l / s;
    let extra = l % s;
    (0..s)
        .map(|i| if i < extra { base + 1 } else { base })
        .collect()
}

/// Splits the largest stage in two (the larger half second) until each of
/// `n_gpus` GPUs has a stage or every stage is a single layer.
pub(crate) fn fill_gpus(sizes: &mut Vec<usize>, n_gpus: usize) {
    while sizes.len() < n_gpus {
        let (i, &biggest) = sizes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &s)| s)
            .expect("nonempty");
        if biggest < 2 {
            break; // fewer layers than GPUs; nothing more to split
        }
        sizes[i] = biggest / 2;
        sizes.insert(i + 1, biggest - biggest / 2);
    }
}

/// Largest `c` such that layers `[start, start + c)` fit in GPU memory as
/// one stage ([`StageCosts::required_bytes`]), or, when layer `start` does
/// not fit even alone, the bytes that layer needs resident.
fn max_feasible(profile: &ModelProfile, cfg: &PipelineConfig, start: usize) -> Result<usize, u64> {
    let layers = profile.layers();
    let mut stage = StageCosts::opening_at(layers, start);
    for (c, layer) in layers[start..].iter().enumerate() {
        stage.push_layer(layer);
        let required = stage.required_bytes(cfg.num_microbatches);
        if required > cfg.gpu_mem_bytes {
            return if c == 0 { Err(required) } else { Ok(c) };
        }
    }
    Ok(layers.len() - start)
}

fn predict(
    partition: &Partition,
    profile: &ModelProfile,
    n_gpus: usize,
    cfg: &PipelineConfig,
) -> Result<SimTime, ScheduleError> {
    let costs = stage_costs(profile, partition);
    let mapping = Mapping::sequential(partition.num_stages(), n_gpus);
    evaluate_analytic(&costs, &mapping, cfg).map(|s| s.step_time)
}

/// Exact branch-and-bound over the contiguous segmentations of a model's
/// layers. The objective is the analytic makespan of a complete
/// segmentation under the sequential mapping, pruned with admissible
/// load-based lower bounds and capped per stage by GPU memory.
///
/// A leaf builds its stage costs (`O(L)` for `L` layers) and the
/// sequential mapping, then runs the analytic core in the one [`Scratch`]
/// the search keeps for the whole solve, so it costs `O(L + S·M)` time
/// and five small allocations (the sizes, the stage costs and three in
/// `Mapping::sequential`) and keeps only the makespan: no start rows are
/// copied out and no traffic is estimated (1.14 µs per leaf in traced
/// GPT-2 solves on a 2-vCPU VM). Under `strict_validation` each
/// leaf also runs through [`evaluate_analytic`], whose validator checks
/// the schedule, and the two makespans must agree.
struct Search<'a> {
    profile: &'a ModelProfile,
    n_gpus: usize,
    cfg: &'a PipelineConfig,
    /// The analytic core's working memory, reused by every leaf.
    scratch: Scratch,
    node_limit: usize,
    /// Receives incumbent marks on the solver lane and the `mip.*`
    /// counters.
    obs: Option<&'a Obs>,
    /// The best segmentation found so far and its cost.
    best: Option<(Vec<usize>, f64)>,
    stats: SearchStats,
}

impl<'a> Search<'a> {
    fn new(
        profile: &'a ModelProfile,
        n_gpus: usize,
        cfg: &'a PipelineConfig,
        node_limit: usize,
        obs: Option<&'a Obs>,
    ) -> Self {
        Search {
            profile,
            n_gpus,
            cfg,
            scratch: Scratch::default(),
            node_limit,
            obs,
            best: None,
            stats: SearchStats {
                complete: true,
                ..SearchStats::default()
            },
        }
    }

    /// Exact cost (step seconds) of a complete segmentation, or `None` when
    /// it is infeasible: a stage does not fit in GPU memory, or there are
    /// fewer stages than GPUs.
    fn cost(&mut self, sizes: &[usize]) -> Option<f64> {
        if sizes.len() < self.n_gpus {
            return None; // an idle GPU is never optimal and breaks mapping
        }
        let costs = stage_costs(self.profile, &Partition::from_sizes(sizes.to_vec()));
        let mapping = Mapping::sequential(sizes.len(), self.n_gpus);
        let step = self.scratch.evaluate(&costs, &mapping, self.cfg);
        if self.cfg.strict_validation {
            let checked = evaluate_analytic(&costs, &mapping, self.cfg).map(|s| s.step_time);
            assert_eq!(step, checked, "leaf scorer disagrees on {sizes:?}");
        }
        step.ok().map(SimTime::as_secs_f64)
    }

    /// Admissible lower bound on the cost of any completion of `prefix`
    /// (never over-estimates).
    fn lower_bound(&self, prefix: &[usize]) -> f64 {
        let m = self.cfg.num_microbatches as f64;
        let layers = self.profile.layers();
        // Bound 1: total compute work spread perfectly over N GPUs.
        let total_work: f64 = layers
            .iter()
            .map(|l| (l.fwd + l.bwd).as_secs_f64())
            .sum::<f64>()
            * m
            / self.n_gpus as f64;
        // Bound 2: the slowest stage created so far serializes M
        // microbatches forward and backward.
        let mut bottleneck: f64 = 0.0;
        // Bound 3: per-GPU compute load of the stages created so far under
        // sequential mapping.
        let mut gpu_load = vec![0.0f64; self.n_gpus];
        let mut start = 0;
        for (idx, &s) in prefix.iter().enumerate() {
            let t: f64 = layers[start..start + s]
                .iter()
                .map(|l| (l.fwd + l.bwd).as_secs_f64())
                .sum();
            bottleneck = bottleneck.max(m * t);
            gpu_load[idx % self.n_gpus] += m * t;
            start += s;
        }
        let max_gpu = gpu_load.iter().copied().fold(0.0, f64::max);
        total_work.max(bottleneck).max(max_gpu)
    }

    /// The largest stage that fits in GPU memory starting at layer
    /// `first_layer` (0 when that layer does not fit alone).
    fn max_stage_size(&self, first_layer: usize) -> usize {
        max_feasible(self.profile, self.cfg, first_layer).unwrap_or(0)
    }

    /// Runs the search from the best near-uniform seed and the optional
    /// warm-start candidate. Returns the best segmentation and its cost
    /// (`None` when no feasible one was found) with the search statistics.
    fn solve(mut self, warm: Option<&[usize]>) -> (Option<(Vec<usize>, f64)>, SearchStats) {
        let seed = self.seed();
        let timer = WallTimer::start();
        let seed_cost = seed.as_ref().map(|(_, cost)| *cost);
        self.best = seed;
        // Warm start: re-evaluate the previous solution under the current
        // objective; if feasible and better than the seed, it is the
        // initial incumbent.
        if let Some(sizes) = warm.filter(|sizes| self.well_shaped(sizes)) {
            self.stats.evaluated += 1;
            if let Some(cost) = self.cost(sizes) {
                if self.best.as_ref().is_none_or(|(_, c)| cost < *c) {
                    self.best = Some((sizes.to_vec(), cost));
                    self.stats.warm_started = true;
                }
            }
        }
        self.dfs(&mut Vec::new(), 0);
        self.stats.wall_elapsed = timer.elapsed();
        if let Some(obs) = self.obs {
            let stats = &self.stats;
            obs.counter_add("mip.evaluated", stats.evaluated as f64);
            obs.counter_add("mip.pruned", stats.pruned as f64);
            obs.counter_add("mip.nodes", stats.nodes as f64);
            if stats.warm_started {
                obs.counter_add("mip.warm_started", 1.0);
            }
            if let (Some(seed_cost), Some((_, final_cost))) = (seed_cost, &self.best) {
                // Relative incumbent improvement: how far the search moved
                // below the seed it started from (0 = seed was optimal). A
                // zero-cost seed cannot be improved on, so the gap is 0 by
                // definition — guarding the division keeps NaN out of the
                // metrics registry (it would survive until JSON export).
                let gap = if seed_cost > 0.0 {
                    (seed_cost - final_cost) / seed_cost
                } else {
                    0.0
                };
                obs.gauge_set("mip.incumbent_gap", gap);
            }
        }
        (self.best, self.stats)
    }

    /// The best near-uniform segmentation over all stage counts that are
    /// multiples of the GPU count (so every round is full), then every
    /// other stage count near the extremes.
    fn seed(&mut self) -> Option<(Vec<usize>, f64)> {
        let (l, n) = (self.profile.len(), self.n_gpus);
        let mut seed: Option<(Vec<usize>, f64)> = None;
        let multiples = (n..=l).step_by(n);
        let near = (n..=l.min(n * 2)).filter(|s| s % n != 0);
        for s in multiples.chain(near) {
            let sizes = balanced_sizes(l, s);
            if let Some(cost) = self.cost(&sizes) {
                if seed.as_ref().is_none_or(|(_, c)| cost < *c) {
                    seed = Some((sizes, cost));
                }
            }
        }
        seed
    }

    /// Whether `sizes` is a segmentation this search could itself produce:
    /// non-empty stages covering exactly the model's layers. The sum is
    /// checked, so a corrupt candidate cannot overflow.
    fn well_shaped(&self, sizes: &[usize]) -> bool {
        !sizes.is_empty()
            && !sizes.contains(&0)
            && sizes.iter().try_fold(0usize, |sum, &s| sum.checked_add(s))
                == Some(self.profile.len())
    }

    fn dfs(&mut self, prefix: &mut Vec<usize>, covered: usize) {
        let n_items = self.profile.len();
        if covered == n_items {
            self.stats.evaluated += 1;
            if let Some(cost) = self.cost(prefix) {
                if self.best.as_ref().is_none_or(|(_, c)| cost < *c) {
                    if let Some(obs) = self.obs {
                        // Solver-lane timestamps are the deterministic
                        // evaluated-leaf count, not wall-clock: traces must
                        // stay byte-identical across machines and runs.
                        let evaluated = self.stats.evaluated as u64;
                        obs.mark(
                            Lane::Solver,
                            "solver",
                            "incumbent",
                            evaluated,
                            vec![
                                ("cost", AttrValue::F64(cost)),
                                ("stages", AttrValue::U64(prefix.len() as u64)),
                                ("evaluated", AttrValue::U64(evaluated)),
                            ],
                        );
                    }
                    self.best = Some((prefix.clone(), cost));
                }
            }
            return;
        }
        self.stats.nodes += 1;
        if self.stats.nodes > self.node_limit {
            self.stats.complete = false;
            return;
        }
        // Bound pruning.
        if let Some((_, inc)) = &self.best {
            if self.lower_bound(prefix) >= *inc {
                self.stats.pruned += 1;
                return;
            }
        }
        let remaining = n_items - covered;
        let cap = self.max_stage_size(covered).min(remaining);
        if cap == 0 {
            return; // next stage cannot hold even one layer
        }
        // Candidate ordering: sizes near the balanced ideal first, so the
        // first incumbent is already strong and pruning bites early.
        let stages_left = n_items - prefix.len();
        let ideal = (remaining as f64 / stages_left as f64).ceil() as usize;
        let mut sizes: Vec<usize> = (1..=cap).collect();
        sizes.sort_by_key(|&s| (s as i64 - ideal as i64).abs());
        for s in sizes {
            prefix.push(s);
            self.dfs(prefix, covered + s);
            prefix.pop();
            if !self.stats.complete {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryMode;
    use mobius_profiler::LayerProfile;
    use proptest::prelude::*;

    const GB: u64 = 1 << 30;

    fn uniform_profile(n: usize, ms: u64, param: u64) -> ModelProfile {
        ModelProfile::from_layers(
            (0..n)
                .map(|_| LayerProfile {
                    fwd: SimTime::from_millis(ms),
                    bwd: SimTime::from_millis(3 * ms),
                    param_bytes: param,
                    grad_bytes: param,
                    output_act_bytes: 4 << 20,
                    workspace_bytes: 256 << 20,
                })
                .collect(),
            1,
        )
    }

    fn varied_profile(n: usize) -> ModelProfile {
        // Deterministically non-uniform layer times: the balanced seed is
        // far from optimal, so warm starts have room to prune.
        ModelProfile::from_layers(
            (0..n)
                .map(|i| LayerProfile {
                    fwd: SimTime::from_millis(20 + ((i * 37) % 97) as u64),
                    bwd: SimTime::from_millis(3 * (20 + ((i * 37) % 97) as u64)),
                    param_bytes: GB + (i as u64 % 3) * (GB / 4),
                    grad_bytes: GB,
                    output_act_bytes: 4 << 20,
                    workspace_bytes: 256 << 20,
                })
                .collect(),
            1,
        )
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig {
            num_microbatches: 4,
            gpu_mem_bytes: 24 * GB,
            bandwidth: 13.1e9,
            memory_mode: MemoryMode::Heterogeneous,
            swap_overhead: SimTime::from_millis(3),
            act_latency: SimTime::from_micros(1_500),
            prefetch: true,
            prioritized_loads: true,
            strict_validation: false,
        }
    }

    fn budgeted() -> MipPartitionOpts {
        MipPartitionOpts {
            budgeted: true,
            warm_start: None,
        }
    }

    #[test]
    fn min_stage_is_singletons() {
        let p = uniform_profile(12, 50, GB);
        let out = min_stage_partition(&p, 4, &cfg()).unwrap();
        assert_eq!(out.partition.num_stages(), 12);
        assert!(out.partition.sizes().iter().all(|&s| s == 1));
    }

    #[test]
    fn max_stage_packs_to_memory() {
        // 2 GB params + grads per layer + workspace: about 5 layers fit.
        let p = uniform_profile(20, 50, 2 * GB);
        let out = max_stage_partition(&p, 4, &cfg()).unwrap();
        for (j, &s) in out.partition.sizes().iter().enumerate() {
            assert!(s >= 1, "stage {j} empty");
        }
        // Stages should be as large as memory permits — bigger than 1.
        assert!(out.partition.sizes().iter().take(3).all(|&s| s > 1));
        assert_eq!(out.partition.num_layers(), 20);
    }

    #[test]
    fn max_stage_splits_for_idle_gpus() {
        // Tiny model, all layers fit in one stage: must still make 4.
        let p = uniform_profile(8, 50, GB / 8);
        let out = max_stage_partition(&p, 4, &cfg()).unwrap();
        assert!(out.partition.num_stages() >= 4);
    }

    #[test]
    fn mip_beats_or_ties_heuristics() {
        let p = uniform_profile(16, 60, 2 * GB);
        let c = cfg();
        let mip = mip_partition_opts(&p, 4, &c, &budgeted(), None).unwrap();
        let maxs = max_stage_partition(&p, 4, &c).unwrap();
        let mins = min_stage_partition(&p, 4, &c).unwrap();
        assert!(
            mip.predicted_step <= maxs.predicted_step,
            "mip {} vs max {}",
            mip.predicted_step,
            maxs.predicted_step
        );
        assert!(
            mip.predicted_step <= mins.predicted_step,
            "mip {} vs min {}",
            mip.predicted_step,
            mins.predicted_step
        );
        assert!(mip.stats.is_some());
    }

    /// Every composition of `n` items, in lexicographic order.
    fn compositions(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for first in 1..=n {
            for mut rest in compositions(n - first) {
                rest.insert(0, first);
                out.push(rest);
            }
        }
        out
    }

    /// A layer with independent forward time, backward/forward ratio,
    /// parameter bytes (up to a third of GPU memory, so some stages do not
    /// fit) and activation bytes.
    fn arb_layer() -> impl Strategy<Value = LayerProfile> {
        (5u64..100, 1u64..4, 128u64..8192, 1u64..64).prop_map(|(fwd, ratio, param_mb, act_mb)| {
            LayerProfile {
                fwd: SimTime::from_millis(fwd),
                bwd: SimTime::from_millis(ratio * fwd),
                param_bytes: param_mb << 20,
                grad_bytes: param_mb << 20,
                output_act_bytes: act_mb << 20,
                workspace_bytes: 256 << 20,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The unbudgeted search is exact and its bound admissible: on random
        /// small profiles the searched cost is the exhaustive minimum bit for
        /// bit, and no prefix of any feasible composition has a lower bound
        /// above that composition's cost. A warm start is a pure
        /// accelerant: whatever candidate it gets (the optimum, another
        /// feasible or an infeasible segmentation, or a malformed one a
        /// corrupt checkpoint can carry),
        /// the warm solve reaches the same optimum without expanding more
        /// nodes, and a malformed candidate is never installed.
        #[test]
        fn mip_matches_exhaustive_and_bound_is_admissible(
            layers in prop::collection::vec(arb_layer(), 3..8),
            n_gpus in 2usize..4,
            (kind, mask) in (0usize..8, prop::collection::vec(0usize..2, 7)),
        ) {
            let p = ModelProfile::from_layers(layers, 1);
            let c = cfg();
            let mut search = Search::new(&p, n_gpus, &c, UNBUDGETED_NODE_CAP, None);
            let mut best: Option<(Vec<usize>, f64)> = None;
            for comp in compositions(p.len()) {
                let Some(cost) = search.cost(&comp) else {
                    continue;
                };
                if best.as_ref().is_none_or(|(_, b)| cost < *b) {
                    best = Some((comp.clone(), cost));
                }
                for k in 0..=comp.len() {
                    let bound = search.lower_bound(&comp[..k]);
                    prop_assert!(
                        bound <= cost,
                        "bound {bound} > cost {cost} of {comp:?} at prefix {:?}",
                        &comp[..k]
                    );
                }
            }
            let l = p.len();
            let segmentation = sizes_from_mask(&mask, l);
            let (candidate, malformed) = match (kind, &best) {
                (0, _) => (vec![], true),
                (1, _) => ([&[0], &segmentation[..]].concat(), true),
                (2, _) => ([&[1], &segmentation[..]].concat(), true), // sums to l + 1
                (3, _) => (vec![usize::MAX, l + 1], true), // the sum wraps to l
                (4, _) => (vec![1; l + 1], true), // more stages than layers
                (5, Some((optimum, _))) => (optimum.clone(), false),
                _ => (segmentation, false),
            };
            let cold = mip_partition_opts(&p, n_gpus, &c, &MipPartitionOpts::default(), None);
            let warm_opts = MipPartitionOpts {
                budgeted: false,
                warm_start: Some(candidate.clone()),
            };
            let warm = mip_partition_opts(&p, n_gpus, &c, &warm_opts, None);
            let Some((_, best)) = best else {
                prop_assert!(cold.is_err(), "search found a plan exhaustion did not");
                prop_assert!(warm.is_err(), "warm search found a plan exhaustion did not");
                return Ok(());
            };
            let cold = cold.expect("a feasible composition exists");
            let warm = warm.expect("a warm start never loses feasibility");
            let (cs, ws) = (cold.stats.expect("search stats"), warm.stats.expect("search stats"));
            prop_assert!(cs.complete && ws.complete);
            for (name, out) in [("cold", &cold), ("warm", &warm)] {
                let cost = search.cost(out.partition.sizes()).expect("searched plan is feasible");
                prop_assert_eq!(
                    cost.to_bits(),
                    best.to_bits(),
                    "{} search {} vs exhaustive {}",
                    name,
                    cost,
                    best
                );
                prop_assert_eq!(out.predicted_step, SimTime::from_secs_f64(best));
            }
            prop_assert!(
                ws.nodes <= cs.nodes,
                "warm start {candidate:?} expanded more nodes ({} > {})",
                ws.nodes,
                cs.nodes
            );
            if malformed {
                // Ignored outright: not even evaluated, so the solve is the
                // cold one, counters included.
                let ws = SearchStats {
                    wall_elapsed: cs.wall_elapsed,
                    ..ws
                };
                prop_assert_eq!(ws, cs, "{:?} left a trace", candidate);
                prop_assert_eq!(warm.partition, cold.partition);
            }
        }
    }

    /// The stage sizes a cut mask selects: a cut after layer `i` wherever
    /// `mask[i] == 0`, over `l` layers.
    fn sizes_from_mask(mask: &[usize], l: usize) -> Vec<usize> {
        let mut sizes = vec![1];
        for &bit in &mask[..l - 1] {
            match sizes.last_mut() {
                Some(last) if bit != 0 => *last += 1,
                _ => sizes.push(1),
            }
        }
        sizes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One search scores up to 12 segmentations in turn, so its one
        /// scratch serves growing and shrinking stage counts with
        /// infeasible leaves in between, and each score is the step time a
        /// fresh `evaluate_analytic` gives the same stages under the
        /// sequential mapping, bit for bit; a stage that does not fit in
        /// memory scores `None` on both. Strict configs also run every
        /// leaf through the validator.
        #[test]
        fn leaf_scorer_matches_evaluate_analytic(
            layers in prop::collection::vec(arb_layer(), 2..16),
            masks in prop::collection::vec(prop::collection::vec(0usize..3, 15), 1..13),
            (m, n_gpus) in (1usize..9, 1usize..5),
            (flags, swap_ms, act_us) in (0u8..8, 0u64..20, 0u64..5_000),
        ) {
            let p = ModelProfile::from_layers(layers, 1);
            let c = PipelineConfig {
                num_microbatches: m,
                memory_mode: if flags & 1 == 0 {
                    MemoryMode::Heterogeneous
                } else {
                    MemoryMode::Resident
                },
                prefetch: flags & 2 == 0,
                swap_overhead: SimTime::from_millis(swap_ms),
                act_latency: SimTime::from_micros(act_us),
                strict_validation: flags & 4 != 0,
                ..cfg()
            };
            let mut search = Search::new(&p, n_gpus, &c, UNBUDGETED_NODE_CAP, None);
            for mask in &masks {
                let sizes = sizes_from_mask(mask, p.len());
                let scored = search.cost(&sizes).map(f64::to_bits);
                if sizes.len() < n_gpus {
                    prop_assert!(scored.is_none(), "{sizes:?} leaves a GPU idle");
                    continue;
                }
                let costs = stage_costs(&p, &Partition::from_sizes(sizes.clone()));
                let mapping = Mapping::sequential(sizes.len(), n_gpus);
                let expected = evaluate_analytic(&costs, &mapping, &c)
                    .ok()
                    .map(|s| s.step_time.as_secs_f64().to_bits());
                prop_assert_eq!(scored, expected, "sizes {:?}", sizes);
            }
        }
    }

    #[test]
    fn oversized_layer_errors() {
        let p = uniform_profile(4, 10, 30 * GB);
        assert!(max_stage_partition(&p, 2, &cfg()).is_err());
        assert!(mip_partition_opts(&p, 2, &cfg(), &budgeted(), None).is_err());
    }

    #[test]
    fn infeasible_search_names_what_does_not_fit() {
        // The first layer fits (it has no checkpointed input); every later
        // one must hold 8,192 microbatch inputs of 4 MiB, 32 GiB.
        let p = uniform_profile(4, 10, GB);
        let c = PipelineConfig {
            num_microbatches: 8192,
            ..cfg()
        };
        let err = mip_partition_opts(&p, 2, &c, &budgeted(), None).unwrap_err();
        assert_eq!(Err(err.clone()), max_stage_partition(&p, 2, &c));
        let ScheduleError::StageTooLarge {
            stage,
            required,
            capacity,
        } = err
        else {
            panic!("not a memory error: {err}");
        };
        assert_eq!(stage, 1);
        assert!(required > capacity, "{required} <= {capacity}");
    }

    #[test]
    fn partition_model_dispatches() {
        let p = uniform_profile(8, 50, GB);
        let c = cfg();
        for algo in [
            PartitionAlgo::Mip,
            PartitionAlgo::MaxStage,
            PartitionAlgo::MinStage,
        ] {
            let out = partition_model(algo, &p, 4, &c).unwrap();
            assert_eq!(out.partition.num_layers(), 8);
        }
    }

    #[test]
    fn warm_replan_matches_cold_with_less_work() {
        // The elastic-replan shape: solve for 4 GPUs, lose one, re-solve
        // for 3 warm-started from the 4-GPU segmentation. Unbudgeted — both
        // solves run to completion, so the comparison is exact.
        let p = varied_profile(14);
        let c = cfg();
        let cold_opts = MipPartitionOpts::default();
        let four = mip_partition_opts(&p, 4, &c, &cold_opts, None).unwrap();
        let cold = mip_partition_opts(&p, 3, &c, &cold_opts, None).unwrap();
        let warm_opts = MipPartitionOpts {
            budgeted: false,
            warm_start: Some(four.partition.sizes().to_vec()),
        };
        let warm = mip_partition_opts(&p, 3, &c, &warm_opts, None).unwrap();
        // Bit-identical optimum...
        assert_eq!(warm.predicted_step, cold.predicted_step);
        assert_eq!(warm.partition.sizes(), cold.partition.sizes());
        // ...for strictly fewer exact evaluations.
        let (ws, cs) = (warm.stats.unwrap(), cold.stats.unwrap());
        assert!(ws.complete && cs.complete);
        assert!(
            ws.evaluated < cs.evaluated,
            "warm {} !< cold {}",
            ws.evaluated,
            cs.evaluated
        );
    }

    #[test]
    fn zero_cost_seed_emits_finite_incumbent_gap() {
        // Zero-time, zero-byte layers, resident, with no swap overhead or
        // hop latency: every segmentation, the seed included, takes a zero
        // step, and the gap gauge must not divide that into NaN.
        let free = LayerProfile {
            fwd: SimTime::ZERO,
            bwd: SimTime::ZERO,
            param_bytes: 0,
            grad_bytes: 0,
            output_act_bytes: 0,
            workspace_bytes: 0,
        };
        let p = ModelProfile::from_layers(vec![free; 4], 1);
        let c = PipelineConfig {
            memory_mode: MemoryMode::Resident,
            swap_overhead: SimTime::ZERO,
            act_latency: SimTime::ZERO,
            ..cfg()
        };
        let obs = Obs::new();
        let out = mip_partition_opts(&p, 2, &c, &budgeted(), Some(&obs)).unwrap();
        assert_eq!(out.predicted_step, SimTime::ZERO);
        let gap = obs.gauge("mip.incumbent_gap").expect("gauge present");
        assert!(gap.is_finite(), "incumbent gap must be finite, got {gap}");
        assert_eq!(gap, 0.0);
    }

    #[test]
    fn balanced_sizes_sum() {
        assert_eq!(balanced_sizes(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(balanced_sizes(8, 4), vec![2, 2, 2, 2]);
    }
}
