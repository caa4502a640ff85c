//! Degraded-mode recovery policies for the fine-tuner.
//!
//! When a [`FaultSchedule`](mobius_sim::FaultSchedule) is attached, a run
//! can fail mid-step (a GPU dies, a transfer exhausts its retries) or a
//! configuration can turn out infeasible (OOM). A [`ResiliencePolicy`]
//! tells the [`FineTuner`](crate::FineTuner) what it may do about it:
//!
//! * **Elastic replan** — on a hard GPU failure, re-run the partition and
//!   cross-mapping search over the surviving topology and resume there.
//! * **Degradation ladder** — on persistent OOM, walk
//!   Mobius → more-stages Mobius ([`PartitionAlgo::MaxStage`]) →
//!   ZeRO-hetero, trading step time for feasibility.
//!
//! Every step taken down either path is recorded as a [`Degradation`] in
//! the final [`StepReport`](crate::StepReport), so a report always says
//! both what was asked for and what actually ran.

use mobius_pipeline::PartitionAlgo;
use mobius_sim::SimTime;

use crate::RunError;

/// What the fine-tuner may do when a step fails.
///
/// The default policy recovers nothing: faults and OOM surface as typed
/// errors exactly as without a policy. Use [`ResiliencePolicy::recover`]
/// (or set the fields) to opt in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct ResiliencePolicy {
    /// On a hard GPU failure, replan on the surviving topology (dropping
    /// GPU-addressed faults, whose indices no longer name the right
    /// device) and run the step there.
    pub elastic_replan: bool,
    /// On OOM, degrade along the ladder: the configured partition →
    /// [`PartitionAlgo::MaxStage`] (more, smaller stages) → ZeRO-hetero.
    /// The ZeRO fallback runs without fault injection (the fault subsystem
    /// drives the pipeline executor).
    pub degrade_ladder: bool,
}

impl ResiliencePolicy {
    /// A policy that recovers nothing (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// A policy with both recovery paths enabled.
    pub fn recover() -> Self {
        ResiliencePolicy {
            elastic_replan: true,
            degrade_ladder: true,
        }
    }
}

/// What a recovery policy switched to.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DegradeAction {
    /// Re-planned on the surviving topology after a GPU failure.
    ElasticReplan {
        /// The GPU that died.
        failed_gpu: usize,
        /// When it died (simulated time of the aborted attempt).
        at: SimTime,
        /// GPUs left after removal.
        surviving_gpus: usize,
    },
    /// Re-partitioned with more, smaller stages.
    MoreStages {
        /// The partition algorithm switched to.
        algo: PartitionAlgo,
    },
    /// Fell back to DeepSpeed ZeRO-hetero.
    ZeroHetero,
}

impl std::fmt::Display for DegradeAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeAction::ElasticReplan {
                failed_gpu,
                surviving_gpus,
                ..
            } => write!(
                f,
                "elastic replan after GPU {failed_gpu} failed ({surviving_gpus} GPUs left)"
            ),
            DegradeAction::MoreStages { algo } => {
                write!(f, "re-partitioned with {algo:?} (more, smaller stages)")
            }
            DegradeAction::ZeroHetero => write!(f, "fell back to ZeRO-hetero"),
        }
    }
}

/// One recorded recovery step: what the policy did and the typed error
/// that forced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// What the policy switched to.
    pub action: DegradeAction,
    /// The error that forced the switch.
    pub cause: RunError,
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (cause: {})", self.action, self.cause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_recovers_nothing() {
        let p = ResiliencePolicy::default();
        assert!(!p.elastic_replan);
        assert!(!p.degrade_ladder);
        assert_eq!(p, ResiliencePolicy::none());
    }

    #[test]
    fn recover_enables_both_paths() {
        let p = ResiliencePolicy::recover();
        assert!(p.elastic_replan && p.degrade_ladder);
    }

    #[test]
    fn degradation_displays_action_and_cause() {
        let d = Degradation {
            action: DegradeAction::ZeroHetero,
            cause: RunError::Unsupported("x".into()),
        };
        let s = d.to_string();
        assert!(s.contains("ZeRO-hetero") && s.contains("unsupported"));
    }
}
