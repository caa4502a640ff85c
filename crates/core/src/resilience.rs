//! Degraded-mode recovery for the fine-tuner.
//!
//! When a [`FaultSchedule`](mobius_sim::FaultSchedule) is attached, a run
//! can fail mid-step (a GPU dies, a transfer exhausts its retries) or a
//! configuration can turn out infeasible (OOM).
//! [`FineTuner::recover`](crate::FineTuner::recover) lets the step recover
//! instead of failing:
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

/// What a recovery switched to.
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

/// One recorded recovery step: what the recovery did and the typed error
/// that forced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// What the recovery switched to.
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
    fn degradation_displays_action_and_cause() {
        let d = Degradation {
            action: DegradeAction::ZeroHetero,
            cause: RunError::Unsupported("x".into()),
        };
        let s = d.to_string();
        assert!(s.contains("ZeRO-hetero") && s.contains("unsupported"));
    }
}
