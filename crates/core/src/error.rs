//! The facade error type.

use std::error::Error;
use std::fmt;

use mobius_cluster::ClusterSyncError;
use mobius_pipeline::ScheduleError;
use mobius_sim::FaultAbort;
use mobius_zero::ZeroError;

/// Why a configuration ran out of GPU memory. Keeps the underlying typed
/// error (no string flattening), so callers can still see *which* stage or
/// layer overflowed and by how much.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OomCause {
    /// A pipeline stage cannot fit ([`ScheduleError::StageTooLarge`], the
    /// GPipe/Mobius OOM mode).
    Schedule(ScheduleError),
    /// A ZeRO shard or layer cannot fit ([`ZeroError::LayerTooLarge`]).
    Zero(ZeroError),
}

impl fmt::Display for OomCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OomCause::Schedule(e) => write!(f, "{e}"),
            OomCause::Zero(e) => write!(f, "{e}"),
        }
    }
}

impl Error for OomCause {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OomCause::Schedule(e) => Some(e),
            OomCause::Zero(e) => Some(e),
        }
    }
}

/// Anything that can go wrong planning or running a training step.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RunError {
    /// The model cannot fit under the system's memory regime (the "OOM"
    /// entries of Figure 5). The cause keeps the underlying typed error.
    OutOfMemory(OomCause),
    /// An internal scheduling inconsistency (mapping mismatch etc.).
    Schedule(ScheduleError),
    /// The requested operation does not apply to the selected system.
    Unsupported(String),
    /// An injected hardware fault aborted the run and no recovery policy
    /// (or no surviving configuration) could absorb it.
    Fault(FaultAbort),
    /// A transfer cannot finish inside the simulated clock: a link (in
    /// practice a near-zero NIC or switch bandwidth, or a link or GPU a
    /// fault slowed to a crawl) is so slow that its completion instant
    /// saturates at `SimTime::MAX`.
    ClockOverflow {
        /// Bytes still pending when the clock saturated.
        remaining: f64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::OutOfMemory(cause) => write!(f, "out of GPU memory: {cause}"),
            RunError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            RunError::Unsupported(what) => write!(f, "unsupported: {what}"),
            // Also shown as a `Degradation` cause after a successful
            // recovery, so the wording must not presume the outcome.
            RunError::Fault(abort) => write!(f, "injected fault: {abort}"),
            RunError::ClockOverflow { remaining } => write!(
                f,
                "a transfer cannot finish inside the simulated clock: {remaining:.0} bytes \
                 still pending when it saturated (a link on its path is too slow)"
            ),
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::OutOfMemory(cause) => Some(cause),
            RunError::Schedule(e) => Some(e),
            RunError::Unsupported(_) | RunError::ClockOverflow { .. } => None,
            RunError::Fault(abort) => Some(abort),
        }
    }
}

impl From<ScheduleError> for RunError {
    fn from(e: ScheduleError) -> Self {
        match e {
            ScheduleError::StageTooLarge { .. } => RunError::OutOfMemory(OomCause::Schedule(e)),
            other => RunError::Schedule(other),
        }
    }
}

impl From<ZeroError> for RunError {
    fn from(e: ZeroError) -> Self {
        match e {
            ZeroError::ClockOverflow { remaining } => RunError::ClockOverflow { remaining },
            e @ ZeroError::LayerTooLarge { .. } => RunError::OutOfMemory(OomCause::Zero(e)),
        }
    }
}

/// A clock overflow keeps its class; every other synchronization error is
/// a cluster the run cannot apply to.
impl From<ClusterSyncError> for RunError {
    fn from(e: ClusterSyncError) -> Self {
        match e {
            ClusterSyncError::ClockOverflow { remaining, .. } => {
                RunError::ClockOverflow { remaining }
            }
            e => RunError::Unsupported(e.to_string()),
        }
    }
}

impl From<FaultAbort> for RunError {
    fn from(a: FaultAbort) -> Self {
        RunError::Fault(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobius_sim::SimTime;

    #[test]
    fn stage_too_large_becomes_oom() {
        let e: RunError = ScheduleError::StageTooLarge {
            stage: 1,
            required: 100,
            capacity: 10,
        }
        .into();
        assert!(matches!(e, RunError::OutOfMemory(_)));
        assert!(e.to_string().contains("out of GPU memory"));
    }

    #[test]
    fn mapping_mismatch_stays_schedule() {
        let e: RunError = ScheduleError::MappingMismatch {
            mapped: 2,
            stages: 3,
        }
        .into();
        assert!(matches!(e, RunError::Schedule(_)));
    }

    #[test]
    fn oom_keeps_the_typed_cause() {
        let inner = ScheduleError::StageTooLarge {
            stage: 3,
            required: 200,
            capacity: 50,
        };
        let e: RunError = inner.clone().into();
        match &e {
            RunError::OutOfMemory(OomCause::Schedule(s)) => assert_eq!(s, &inner),
            other => panic!("expected typed schedule cause, got {other:?}"),
        }
    }

    #[test]
    fn source_chain_reaches_the_root_cause() {
        let e: RunError = ScheduleError::StageTooLarge {
            stage: 0,
            required: 2,
            capacity: 1,
        }
        .into();
        let cause = e.source().expect("OOM has a cause");
        assert!(cause.is::<OomCause>());
        let root = cause.source().expect("cause has a root");
        assert!(root.is::<ScheduleError>());

        let f: RunError = FaultAbort::GpuFailed {
            gpu: 1,
            at: SimTime::from_millis(3),
        }
        .into();
        assert!(f.source().expect("fault has a source").is::<FaultAbort>());
        assert!(RunError::Unsupported("x".into()).source().is_none());
    }
}
