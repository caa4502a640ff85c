//! Model partition algorithms (§3.2 and §4.3 of the paper).
//!
//! Three partitioners are provided, matching the paper's ablation:
//!
//! * [`mip_partition_opts`] — the paper's MIP partition algorithm: an exact
//!   branch-and-bound search over contiguous layer segmentations whose
//!   objective is the full analytic pipeline makespan (constraints 4–11),
//!   seeded with the best near-uniform segmentation and pruned with
//!   admissible load bounds. Layer similarity keeps the evaluation cheap.
//! * [`PartitionAlgo::MaxStage`] — each stage packs as many layers as fit in
//!   GPU memory (fewest, largest stages; no room to prefetch).
//! * [`PartitionAlgo::MinStage`] — one layer per stage (most, smallest stages;
//!   maximal activation traffic).

use mobius_mapping::Mapping;
use mobius_mip::{SearchStats, SegmentObjective, SegmentSearch};
use mobius_profiler::ModelProfile;
use mobius_sim::SimTime;

use crate::{evaluate_analytic, stage_costs, Partition, PipelineConfig, ScheduleError};

/// Node budget of a budgeted MIP partition search
/// ([`MipPartitionOpts::budgeted`]). 8,192 = 2^13 is the number of internal
/// nodes in the full search tree of any model with 14 or fewer layers, so
/// every such search (GPT-2 small included) runs to a proof.
pub const PLAN_NODE_BUDGET: usize = 8_192;

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
        let c = max_feasible(profile, cfg, start);
        if c == 0 {
            // Report what the single layer actually needs resident (the
            // same fwd/bwd peak `max_feasible` tested), not just its
            // parameters.
            let layers = profile.layers();
            let first = &layers[start];
            let in_act = if start == 0 {
                0
            } else {
                layers[start - 1].output_act_bytes
            };
            let m = cfg.num_microbatches as u64;
            let fwd = first.param_bytes + first.workspace_bytes + in_act + first.output_act_bytes;
            let bwd = first.param_bytes
                + first.grad_bytes
                + first.workspace_bytes
                + m * in_act
                + first.output_act_bytes;
            return Err(ScheduleError::StageTooLarge {
                stage: sizes.len(),
                required: fwd.max(bwd),
                capacity: cfg.gpu_mem_bytes,
            });
        }
        let c = c.min(l - start);
        sizes.push(c);
        start += c;
    }
    // Ensure at least one stage per GPU.
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
    /// default) searches to [`SegmentSearch`]'s 2,000,000-node cap. Either
    /// way the result and its statistics are a function of the inputs
    /// alone.
    pub budgeted: bool,
    /// A previous solution's per-stage sizes, used to warm-start the
    /// branch-and-bound (see [`SegmentSearch::warm_start`]). The elastic
    /// replan path passes the partition that was running when a GPU failed:
    /// a layer segmentation mentions no GPU indices, so it projects onto
    /// the survivor topology as-is — only the stage→GPU mapping and the
    /// objective change, and the candidate is re-costed under the new
    /// objective before it is trusted as the incumbent.
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
/// Returns [`ScheduleError::StageTooLarge`] when no feasible segmentation
/// exists.
pub fn mip_partition_opts(
    profile: &ModelProfile,
    n_gpus: usize,
    cfg: &PipelineConfig,
    opts: &MipPartitionOpts,
    obs: Option<&mobius_obs::Obs>,
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
    let objective = PipelineObjective {
        profile,
        n_gpus,
        cfg,
    };

    // Seed: the best near-uniform segmentation over all stage counts that
    // are multiples of the GPU count (so every round is full).
    let mut seed: Option<(Vec<usize>, f64)> = None;
    let mut s = n_gpus;
    while s <= l {
        let sizes = balanced_sizes(l, s);
        if let Some(cost) = objective.cost(&sizes) {
            if seed.as_ref().is_none_or(|(_, c)| cost < *c) {
                seed = Some((sizes, cost));
            }
        }
        s += n_gpus;
    }
    // Also consider every stage count near the extremes (non-multiples).
    for s in n_gpus..=l.min(n_gpus * 2) {
        let sizes = balanced_sizes(l, s);
        if let Some(cost) = objective.cost(&sizes) {
            if seed.as_ref().is_none_or(|(_, c)| cost < *c) {
                seed = Some((sizes, cost));
            }
        }
    }

    let mut search = SegmentSearch::new(l);
    if opts.budgeted {
        search = search.node_limit(PLAN_NODE_BUDGET);
    }
    if let Some((sizes, cost)) = &seed {
        search = search.seed(sizes.clone(), *cost);
    }
    if let Some(sizes) = &opts.warm_start {
        search = search.warm_start(sizes.clone());
    }
    if let Some(obs) = obs {
        search = search.observe(obs.clone());
    }
    match search.solve(&objective) {
        Some(result) => {
            let partition = Partition::from_sizes(result.sizes);
            if let Some(obs) = obs {
                obs.gauge_set("mip.predicted_step_secs", result.cost);
                obs.gauge_set("mip.stages", partition.num_stages() as f64);
            }
            Ok(PartitionOutcome {
                partition,
                predicted_step: SimTime::from_secs_f64(result.cost),
                stats: Some(result.stats),
            })
        }
        None => Err(ScheduleError::StageTooLarge {
            stage: 0,
            required: profile.layers().first().map_or(0, |p| p.param_bytes),
            capacity: cfg.gpu_mem_bytes,
        }),
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

/// Largest `c` such that layers `[start, start + c)` fit in GPU memory as
/// one stage (forward and backward residency).
fn max_feasible(profile: &ModelProfile, cfg: &PipelineConfig, start: usize) -> usize {
    let layers = profile.layers();
    let m = cfg.num_microbatches as u64;
    let g = cfg.gpu_mem_bytes;
    let in_act = if start == 0 {
        0
    } else {
        layers[start - 1].output_act_bytes
    };
    let mut params = 0u64;
    let mut grads = 0u64;
    let mut work = 0u64;
    let mut c = 0;
    for layer in &layers[start..] {
        params += layer.param_bytes;
        grads += layer.grad_bytes;
        work = work.max(layer.workspace_bytes);
        let out_act = layer.output_act_bytes;
        let fwd = params + work + in_act + out_act;
        let bwd = params + grads + work + m * in_act + out_act;
        if fwd.max(bwd) > g {
            break;
        }
        c += 1;
    }
    c
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

/// The branch-and-bound objective: exact analytic makespan of a complete
/// segmentation, with admissible load-based lower bounds for pruning.
struct PipelineObjective<'a> {
    profile: &'a ModelProfile,
    n_gpus: usize,
    cfg: &'a PipelineConfig,
}

impl SegmentObjective for PipelineObjective<'_> {
    fn cost(&self, sizes: &[usize]) -> Option<f64> {
        if sizes.len() < self.n_gpus {
            return None; // an idle GPU is never optimal and breaks mapping
        }
        let partition = Partition::from_sizes(sizes.to_vec());
        let costs = stage_costs(self.profile, &partition);
        let mapping = Mapping::sequential(sizes.len(), self.n_gpus);
        evaluate_analytic(&costs, &mapping, self.cfg)
            .ok()
            .map(|s| s.step_time.as_secs_f64())
    }

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

    fn max_stage_size(&self, first_item: usize) -> usize {
        max_feasible(self.profile, self.cfg, first_item)
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
        /// above that composition's cost.
        #[test]
        fn mip_matches_exhaustive_and_bound_is_admissible(
            layers in prop::collection::vec(arb_layer(), 3..8),
            n_gpus in 2usize..4,
        ) {
            let p = ModelProfile::from_layers(layers, 1);
            let c = cfg();
            let obj = PipelineObjective {
                profile: &p,
                n_gpus,
                cfg: &c,
            };
            let mut best: Option<f64> = None;
            for comp in compositions(p.len()) {
                let Some(cost) = obj.cost(&comp) else {
                    continue;
                };
                best = Some(best.map_or(cost, |b| b.min(cost)));
                for k in 0..=comp.len() {
                    let bound = obj.lower_bound(&comp[..k]);
                    prop_assert!(
                        bound <= cost,
                        "bound {bound} > cost {cost} of {comp:?} at prefix {:?}",
                        &comp[..k]
                    );
                }
            }
            let mip = mip_partition_opts(&p, n_gpus, &c, &MipPartitionOpts::default(), None);
            let Some(best) = best else {
                prop_assert!(mip.is_err(), "search found a plan exhaustion did not");
                return Ok(());
            };
            let mip = mip.expect("a feasible composition exists");
            prop_assert!(mip.stats.expect("search stats").complete);
            let cost = obj.cost(mip.partition.sizes()).expect("searched plan is feasible");
            prop_assert_eq!(cost.to_bits(), best.to_bits(), "search {} vs exhaustive {}", cost, best);
            prop_assert_eq!(mip.predicted_step, SimTime::from_secs_f64(best));
        }
    }

    #[test]
    fn oversized_layer_errors() {
        let p = uniform_profile(4, 10, 30 * GB);
        assert!(max_stage_partition(&p, 2, &cfg()).is_err());
        assert!(mip_partition_opts(&p, 2, &cfg(), &budgeted(), None).is_err());
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
    fn balanced_sizes_sum() {
        assert_eq!(balanced_sizes(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(balanced_sizes(8, 4), vec![2, 2, 2, 2]);
    }
}
