//! Traffic-identity validation for the ZeRO-3 baseline.
//!
//! The whole point of the ZeRO baseline is its communication volume: Eq. 2
//! of the paper predicts `≈ 1.5 N ×` the model size per step, versus
//! `≈ 1.5 ×` for Mobius (Eq. 1). [`expected_step_traffic`] computes the
//! exact byte counts the simulated data path must produce — a closed form
//! over the layer profile, derived independently from the event-driven
//! executor — and [`verify_traffic_identity`] checks a finished trace
//! against them. Any drift means the executor dropped, duplicated, or
//! misrouted a transfer.

use std::error::Error;
use std::fmt;

use mobius_profiler::ModelProfile;
use mobius_sim::{CommKind, TraceRecorder};
use mobius_topology::{Interconnect, Topology};

/// Closed-form per-step traffic of the ZeRO-3 data path, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExpectedZeroTraffic {
    /// All-gather traffic: parameter shards, host-staged publishes, and
    /// gathered remote shards (plus backward activation re-uploads, which
    /// ride the same blocking chain).
    pub param_gather: f64,
    /// Forward checkpoint offloads of boundary activations.
    pub activation_offload: f64,
    /// Gradient reduce-and-return traffic.
    pub gradient_reduce: f64,
}

impl ExpectedZeroTraffic {
    /// Total bytes across all three kinds.
    pub fn total(&self) -> f64 {
        self.param_gather + self.activation_offload + self.gradient_reduce
    }

    /// Parameter-path traffic (gather + reduce) as a multiple of
    /// `N × model size` — the quantity Eq. 2 of the paper bounds. With
    /// fp16 parameters and gradients of equal size the PCIe data path
    /// gives `2 + 2/N` model-sizes of gather and `1` of reduce per GPU,
    /// i.e. a ratio a little above 3 (the paper's `1.5 N ×` counts model
    /// size as parameters *plus* gradients).
    #[cfg(test)]
    pub(crate) fn eq2_ratio(&self, profile: &ModelProfile, num_gpus: usize) -> f64 {
        let model = profile.total_param_bytes() as f64;
        (self.param_gather + self.gradient_reduce) / (num_gpus as f64 * model)
    }
}

/// A measured traffic counter that does not match the closed form.
#[derive(Debug, Clone, PartialEq)]
pub struct ZeroTrafficViolation {
    /// Which traffic class diverged.
    pub kind: CommKind,
    /// Bytes the trace recorded.
    pub measured: f64,
    /// Bytes the data path must produce.
    pub expected: f64,
}

impl fmt::Display for ZeroTrafficViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ZeRO {:?} traffic is {:.0} B but the data path predicts {:.0} B \
             (off by {:+.3}%)",
            self.kind,
            self.measured,
            self.expected,
            (self.measured - self.expected) / self.expected.max(1.0) * 100.0
        )
    }
}

impl Error for ZeroTrafficViolation {}

/// Computes the exact traffic the simulated ZeRO-3 step must generate.
///
/// Mirrors the executor's data path from the layer profile alone:
///
/// * **PCIe-only servers** — per GPU per layer per phase, the all-gather
///   chain moves `(shard + act) + shard + (params − shard)` bytes, where
///   `shard = params / N` (integer division, as the executor shards) and
///   `act` is the re-uploaded checkpoint input on backward. Gradients
///   return in full through the CPU.
/// * **NVLink servers** — the DRAM fetch is only `shard + act`; the other
///   `params − shard` bytes arrive over the ring. Gradients ring-reduce
///   `(N−1)/N` and return a `1/N` shard to DRAM (at least one byte).
/// * Forward boundary activations offload once per GPU per layer.
pub fn expected_step_traffic(profile: &ModelProfile, topo: &Topology) -> ExpectedZeroTraffic {
    let n = topo.num_gpus() as u64;
    let nvlink = topo.interconnect() == Interconnect::NvLink;
    let mut out = ExpectedZeroTraffic::default();

    for (i, layer) in profile.layers().iter().enumerate() {
        let params = layer.param_bytes;
        let shard = params / n;
        // Backward re-uploads the previous layer's checkpointed output.
        let bwd_act = if i == 0 {
            0
        } else {
            profile.layers()[i - 1].output_act_bytes
        };

        for act in [0u64, bwd_act] {
            let per_gpu = if nvlink {
                // DRAM shard (+ activation) plus the ring share.
                (shard + act) + (params - shard)
            } else {
                // Fetch shard (+ act), publish shard, gather the rest.
                (shard + act) + shard + (params - shard)
            };
            out.param_gather += (n * per_gpu) as f64;
        }

        out.activation_offload += (n * layer.output_act_bytes) as f64;

        let grad = layer.grad_bytes;
        if grad > 0 {
            let per_gpu = if nvlink {
                grad * (n - 1) / n + (grad / n).max(1)
            } else {
                grad
            };
            out.gradient_reduce += (n * per_gpu) as f64;
        }
    }
    out
}

/// Checks a finished trace against [`expected_step_traffic`].
///
/// Byte counts are integers accumulated in `f64`, so the comparison is
/// near-exact; a relative tolerance of `1e-6` absorbs summation-order
/// effects only.
pub fn verify_traffic_identity(
    trace: &TraceRecorder,
    profile: &ModelProfile,
    topo: &Topology,
) -> Result<(), ZeroTrafficViolation> {
    let expected = expected_step_traffic(profile, topo);
    let by_kind = trace.traffic_by_kind();
    let measured = |kind: CommKind| by_kind.get(&kind).copied().unwrap_or(0.0);

    for (kind, want) in [
        (CommKind::ParamGather, expected.param_gather),
        (CommKind::ActivationOffload, expected.activation_offload),
        (CommKind::GradientReduce, expected.gradient_reduce),
    ] {
        let got = measured(kind);
        let tol = 1.0f64.max(1e-6 * want);
        if (got - want).abs() > tol {
            return Err(ZeroTrafficViolation {
                kind,
                measured: got,
                expected: want,
            });
        }
    }
    Ok(())
}
