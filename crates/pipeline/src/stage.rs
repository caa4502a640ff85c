//! Stages: contiguous layer ranges with aggregated costs.

use mobius_profiler::{LayerProfile, ModelProfile};
use mobius_sim::SimTime;

/// A partition of a model's layers into contiguous stages.
///
/// # Examples
///
/// ```
/// use mobius_pipeline::Partition;
///
/// let p = Partition::from_sizes(vec![3, 2, 2]);
/// assert_eq!(p.num_stages(), 3);
/// assert_eq!(p.num_layers(), 7);
/// assert_eq!(p.sizes(), &[3, 2, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Partition {
    sizes: Vec<usize>,
}

impl Partition {
    /// Builds a partition from per-stage layer counts.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty or contains a zero.
    pub fn from_sizes(sizes: Vec<usize>) -> Self {
        assert!(!sizes.is_empty(), "a partition needs at least one stage");
        assert!(sizes.iter().all(|&s| s > 0), "empty stage");
        Partition { sizes }
    }

    /// One layer per stage.
    pub fn singletons(num_layers: usize) -> Self {
        Self::from_sizes(vec![1; num_layers])
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.sizes.len()
    }

    /// Total number of layers covered.
    pub fn num_layers(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// Per-stage layer counts.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }
}

/// Aggregated costs of one pipeline stage, everything the schedule
/// evaluators need. Activation quantities are per microbatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCosts {
    /// Forward time for one microbatch.
    pub fwd: SimTime,
    /// Backward time for one microbatch.
    pub bwd: SimTime,
    /// FP16 parameter bytes of the stage.
    pub param_bytes: u64,
    /// FP16 gradient bytes of the stage.
    pub grad_bytes: u64,
    /// Input boundary activation bytes (0 for the first stage — its input
    /// is the token batch, which is negligible).
    pub in_act_bytes: u64,
    /// Output boundary activation bytes (what is sent to the next stage).
    pub out_act_bytes: u64,
    /// Peak transient workspace bytes while computing the stage.
    pub workspace_bytes: u64,
}

impl StageCosts {
    /// A stage that begins at layer `start` of `layers` and holds no layer
    /// yet: its input is the previous layer's output (nothing for the
    /// first stage, whose input is the token batch). Add its layers in
    /// order with [`StageCosts::push_layer`].
    pub(crate) fn opening_at(layers: &[LayerProfile], start: usize) -> Self {
        StageCosts {
            fwd: SimTime::ZERO,
            bwd: SimTime::ZERO,
            param_bytes: 0,
            grad_bytes: 0,
            in_act_bytes: start
                .checked_sub(1)
                .map_or(0, |p| layers[p].output_act_bytes),
            out_act_bytes: 0,
            workspace_bytes: 0,
        }
    }

    /// Appends the stage's next layer: times and parameter and gradient
    /// bytes add up, the workspace is the largest layer's, and the layer's
    /// output becomes the stage's.
    pub(crate) fn push_layer(&mut self, layer: &LayerProfile) {
        self.fwd += layer.fwd;
        self.bwd += layer.bwd;
        self.param_bytes += layer.param_bytes;
        self.grad_bytes += layer.grad_bytes;
        self.workspace_bytes = self.workspace_bytes.max(layer.workspace_bytes);
        self.out_act_bytes = layer.output_act_bytes;
    }

    /// Bytes the stage needs resident to run at all with `m` microbatches
    /// (constraint 4): the larger of its forward and backward residency.
    /// For `m ≥ 1` that is [`StageCosts::resident_bwd`], which holds
    /// gradients and every stored input on top of what forward holds.
    /// Every memory check in the crate reads this, except the validator's
    /// independent statement of the constraints.
    pub(crate) fn required_bytes(&self, m: usize) -> u64 {
        self.resident_fwd().max(self.resident_bwd(m))
    }

    /// GPU bytes resident while the stage runs *forward* on one microbatch:
    /// parameters, workspace, and the in/out boundary activations.
    pub fn resident_fwd(&self) -> u64 {
        self.param_bytes + self.workspace_bytes + self.in_act_bytes + self.out_act_bytes
    }

    /// GPU bytes resident while the stage runs *backward*, with the
    /// checkpointed inputs of all `m` microbatches uploaded: parameters,
    /// gradients, workspace, `m` stored inputs, and the incoming activation
    /// gradient.
    pub fn resident_bwd(&self, m: usize) -> u64 {
        self.param_bytes
            + self.grad_bytes
            + self.workspace_bytes
            + m as u64 * self.in_act_bytes
            + self.out_act_bytes
    }

    /// Bytes uploaded from DRAM before forward execution (the parameters).
    pub fn fwd_load_bytes(&self) -> u64 {
        self.param_bytes
    }

    /// Bytes uploaded from DRAM before backward execution: parameters
    /// (unless still resident, which the caller decides) plus the `m`
    /// checkpointed microbatch inputs.
    pub fn bwd_load_bytes(&self, m: usize, params_resident: bool) -> u64 {
        let p = if params_resident { 0 } else { self.param_bytes };
        p + m as u64 * self.in_act_bytes
    }
}

/// Aggregates per-layer profiles into per-stage costs for `partition`.
///
/// # Panics
///
/// Panics if the partition does not cover exactly the profiled layers.
pub fn stage_costs(profile: &ModelProfile, partition: &Partition) -> Vec<StageCosts> {
    assert_eq!(
        partition.num_layers(),
        profile.len(),
        "partition covers {} layers, profile has {}",
        partition.num_layers(),
        profile.len()
    );
    let layers = profile.layers();
    let mut start = 0;
    let mut costs = Vec::with_capacity(partition.num_stages());
    for &size in partition.sizes() {
        let mut st = StageCosts::opening_at(layers, start);
        for layer in &layers[start..start + size] {
            st.push_layer(layer);
        }
        costs.push(st);
        start += size;
    }
    costs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(t_ms: u64, param: u64, act: u64) -> LayerProfile {
        LayerProfile {
            fwd: SimTime::from_millis(t_ms),
            bwd: SimTime::from_millis(3 * t_ms),
            param_bytes: param,
            grad_bytes: param,
            output_act_bytes: act,
            workspace_bytes: 10 * act,
        }
    }

    fn profile() -> ModelProfile {
        ModelProfile::from_layers(
            vec![
                layer(1, 100, 10),
                layer(2, 200, 20),
                layer(3, 300, 30),
                layer(4, 400, 40),
            ],
            1,
        )
    }

    #[test]
    fn stages_cover_consecutive_layer_ranges() {
        // Layers 0..2, 2..3 and 3..4: each boundary is the output of the
        // layer before it.
        let costs = stage_costs(&profile(), &Partition::from_sizes(vec![2, 1, 1]));
        let params: Vec<u64> = costs.iter().map(|c| c.param_bytes).collect();
        let ins: Vec<u64> = costs.iter().map(|c| c.in_act_bytes).collect();
        let outs: Vec<u64> = costs.iter().map(|c| c.out_act_bytes).collect();
        assert_eq!(params, [300, 300, 400]);
        assert_eq!(ins, [0, 20, 30]);
        assert_eq!(outs, [20, 30, 40]);
    }

    #[test]
    fn costs_aggregate_sums_and_boundaries() {
        let p = Partition::from_sizes(vec![2, 2]);
        let costs = stage_costs(&profile(), &p);
        assert_eq!(costs.len(), 2);
        assert_eq!(costs[0].param_bytes, 300);
        assert_eq!(costs[0].fwd, SimTime::from_millis(3));
        assert_eq!(costs[0].in_act_bytes, 0);
        assert_eq!(costs[0].out_act_bytes, 20);
        assert_eq!(costs[1].in_act_bytes, 20);
        assert_eq!(costs[1].out_act_bytes, 40);
        // Workspace is a max, not a sum.
        assert_eq!(costs[1].workspace_bytes, 400);
    }

    #[test]
    fn residency_accounting() {
        let p = Partition::singletons(4);
        let costs = stage_costs(&profile(), &p);
        let c = &costs[1];
        assert_eq!(
            c.resident_fwd(),
            c.param_bytes + c.workspace_bytes + c.in_act_bytes + c.out_act_bytes
        );
        assert!(c.resident_bwd(4) > c.resident_fwd());
        // From one microbatch on, backward residency is the requirement.
        for m in 1..6 {
            assert_eq!(c.required_bytes(m), c.resident_bwd(m));
        }
        // At zero, an input larger than the gradients makes forward the
        // larger of the two.
        let wide = StageCosts {
            in_act_bytes: c.grad_bytes + 1,
            ..*c
        };
        assert_eq!(wide.required_bytes(0), wide.resident_fwd());
        assert!(wide.resident_bwd(0) < wide.resident_fwd());
        assert_eq!(c.bwd_load_bytes(4, true), 4 * c.in_act_bytes);
        assert_eq!(
            c.bwd_load_bytes(4, false),
            c.param_bytes + 4 * c.in_act_bytes
        );
    }

    #[test]
    #[should_panic(expected = "partition covers")]
    fn mismatched_partition_rejected() {
        stage_costs(&profile(), &Partition::from_sizes(vec![2, 1]));
    }

    #[test]
    #[should_panic(expected = "empty stage")]
    fn zero_stage_rejected() {
        Partition::from_sizes(vec![1, 0, 2]);
    }
}
