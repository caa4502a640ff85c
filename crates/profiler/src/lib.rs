//! # mobius-profiler
//!
//! Produces the per-layer profiles the Mobius partition algorithm consumes
//! (§3.2 of the paper): forward/backward time, parameter and activation
//! bytes, and peak workspace.
//!
//! On real hardware these numbers come from instrumented runs; here they
//! come from a roofline cost model over the published GPU specs, which
//! preserves the ratios that drive partitioning. The crate also models the
//! *cost* of profiling itself — with and without the paper's
//! layer-similarity compression — for the overhead analysis of Figure 12.
//!
//! # Example
//!
//! ```
//! use mobius_model::{GptConfig, Model};
//! use mobius_profiler::Profiler;
//! use mobius_topology::GpuSpec;
//!
//! let model = Model::from_config(&GptConfig::gpt_8b());
//! let profile = Profiler::new(GpuSpec::rtx3090ti()).profile(&model, 2);
//! assert_eq!(profile.len(), model.num_layers());
//! assert!(profile.layers()[0].fwd.as_secs_f64() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mobius_model::{LayerKind, Model};
use mobius_sim::SimTime;
use mobius_topology::GpuSpec;

/// Measured (here: modelled) characteristics of one layer for one
/// microbatch, everything the MIP partition algorithm needs (Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerProfile {
    /// Forward time for one microbatch.
    pub fwd: SimTime,
    /// Backward time for one microbatch (includes recomputation when
    /// activation checkpointing is on).
    pub bwd: SimTime,
    /// FP16 parameter bytes.
    pub param_bytes: u64,
    /// FP16 gradient bytes.
    pub grad_bytes: u64,
    /// Output boundary activation bytes per microbatch.
    pub output_act_bytes: u64,
    /// Peak transient workspace bytes per microbatch.
    pub workspace_bytes: u64,
}

/// A profiled model: one [`LayerProfile`] per layer, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    layers: Vec<LayerProfile>,
    microbatch: usize,
}

impl ModelProfile {
    /// Builds a profile directly from per-layer entries (useful in tests).
    pub fn from_layers(layers: Vec<LayerProfile>, microbatch: usize) -> Self {
        assert!(microbatch > 0, "microbatch size must be positive");
        ModelProfile { layers, microbatch }
    }

    /// Profiles per layer, in execution order.
    pub fn layers(&self) -> &[LayerProfile] {
        &self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The microbatch size the profile was taken at.
    pub fn microbatch(&self) -> usize {
        self.microbatch
    }

    /// Total FP16 parameter bytes.
    pub fn total_param_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.param_bytes).sum()
    }
}

/// Fraction of a GPU's peak FP16 tensor throughput that large transformer
/// kernels achieve: every profiled compute time is derated by it.
const FLOP_EFFICIENCY: f64 = 0.45;

/// Roofline profiler for a GPU model.
///
/// Time per layer = `max(flops / achievable_flops, bytes / memory_bw)` plus
/// a fixed kernel-launch overhead. `achievable_flops` is the spec's FP16
/// peak derated to the 45 % that large transformer kernels achieve.
#[derive(Debug, Clone)]
pub struct Profiler {
    gpu: GpuSpec,
    kernel_overhead: SimTime,
    recompute: bool,
}

impl Profiler {
    /// Creates a profiler for `gpu` with activation checkpointing on, as
    /// the paper assumes for fine-tuning.
    pub fn new(gpu: GpuSpec) -> Self {
        Profiler {
            gpu,
            kernel_overhead: SimTime::from_micros(30),
            recompute: true,
        }
    }

    /// Enables or disables activation checkpointing (recompute in backward).
    pub fn recompute(mut self, on: bool) -> Self {
        self.recompute = on;
        self
    }

    /// The GPU being modelled.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Profiles a single layer at microbatch size `mbs`.
    fn profile_layer(&self, layer: &LayerKind, mbs: usize) -> LayerProfile {
        let fwd = self.kernel_time(layer.flops_fwd(mbs), layer, mbs);
        let bwd = self.kernel_time(layer.flops_bwd(mbs, self.recompute), layer, mbs);
        LayerProfile {
            fwd,
            bwd,
            param_bytes: layer.param_bytes(),
            grad_bytes: layer.grad_bytes(),
            output_act_bytes: layer.output_act_bytes(mbs),
            workspace_bytes: layer.workspace_bytes(mbs),
        }
    }

    /// Profiles every layer of `model` at microbatch size `mbs`.
    ///
    /// # Panics
    ///
    /// Panics if `mbs == 0`.
    pub fn profile(&self, model: &Model, mbs: usize) -> ModelProfile {
        assert!(mbs > 0, "microbatch size must be positive");
        ModelProfile {
            layers: model
                .layers()
                .iter()
                .map(|l| self.profile_layer(l, mbs))
                .collect(),
            microbatch: mbs,
        }
    }

    /// Models the wall-clock cost of *obtaining* the profile on real
    /// hardware (Figure 12). Profiling runs each distinct layer
    /// [`PROFILE_REPS`] times forward and backward with prefetching
    /// disabled, plus a fixed setup cost per profiled layer;
    /// `use_similarity` profiles one representative per similar-layer group
    /// instead of every layer.
    pub fn profiling_time(&self, model: &Model, mbs: usize, use_similarity: bool) -> SimTime {
        let per_layer_setup = SimTime::from_millis(250);
        let layers: Vec<LayerKind> = if use_similarity {
            model
                .similarity_groups()
                .into_iter()
                .map(|(k, _)| k)
                .collect()
        } else {
            model.layers().to_vec()
        };
        let mut total = SimTime::ZERO;
        for l in &layers {
            let p = self.profile_layer(l, mbs);
            // Profiling also pays the un-prefetched parameter upload.
            let upload = SimTime::from_secs_f64(p.param_bytes as f64 / (self.gpu.pcie_gbps * 1e9));
            for _ in 0..PROFILE_REPS {
                total += p.fwd + p.bwd + upload;
            }
            total += per_layer_setup;
        }
        total
    }

    fn kernel_time(&self, flops: f64, layer: &LayerKind, mbs: usize) -> SimTime {
        let compute_s = flops / (self.gpu.fp16_tflops * 1e12 * FLOP_EFFICIENCY);
        // Memory traffic: parameters are read once; activations are read and
        // written a handful of times across the fused kernels.
        let bytes = layer.param_bytes() as f64 + 4.0 * layer.output_act_bytes(mbs) as f64;
        let mem_s = bytes / (self.gpu.mem_bw_gbps * 1e9);
        SimTime::from_secs_f64(compute_s.max(mem_s)) + self.kernel_overhead
    }
}

/// Repetitions per layer while profiling (median-of-5 style measurement).
pub const PROFILE_REPS: u32 = 5;

#[cfg(test)]
mod tests {
    use super::*;
    use mobius_model::GptConfig;

    fn profiler() -> Profiler {
        Profiler::new(GpuSpec::rtx3090ti())
    }

    #[test]
    fn bigger_hidden_is_slower() {
        let p = profiler();
        let small = LayerKind::TransformerBlock {
            hidden: 2048,
            heads: 32,
            seq: 512,
        };
        let big = LayerKind::TransformerBlock {
            hidden: 9216,
            heads: 80,
            seq: 512,
        };
        assert!(p.profile_layer(&big, 1).fwd > p.profile_layer(&small, 1).fwd);
    }

    #[test]
    fn backward_slower_than_forward() {
        let p = profiler();
        let l = LayerKind::TransformerBlock {
            hidden: 4096,
            heads: 32,
            seq: 512,
        };
        let prof = p.profile_layer(&l, 2);
        assert!(prof.bwd > prof.fwd);
    }

    #[test]
    fn recompute_increases_backward() {
        let l = LayerKind::TransformerBlock {
            hidden: 4096,
            heads: 32,
            seq: 512,
        };
        let with = profiler().recompute(true).profile_layer(&l, 1).bwd;
        let without = profiler().recompute(false).profile_layer(&l, 1).bwd;
        assert!(with > without);
    }

    #[test]
    fn profile_covers_all_layers() {
        let m = Model::from_config(&GptConfig::gpt_3b());
        let prof = profiler().profile(&m, 2);
        assert_eq!(prof.len(), m.num_layers());
        assert_eq!(prof.total_param_bytes(), m.model_size_bytes());
    }

    #[test]
    fn similarity_profiling_is_much_cheaper() {
        let m = Model::from_config(&GptConfig::gpt_15b());
        let p = profiler();
        let fast = p.profiling_time(&m, 1, true);
        let slow = p.profiling_time(&m, 1, false);
        assert!(
            slow.as_secs_f64() / fast.as_secs_f64() > 5.0,
            "similarity should compress 40 identical blocks"
        );
    }

    #[test]
    fn similar_hidden_sizes_have_close_profiling_time() {
        // Figure 12's observation: the 8B and 15B models have similar
        // hidden dimensions, hence similar profiling time.
        let p = profiler();
        let t8 = p.profiling_time(&Model::from_config(&GptConfig::gpt_8b()), 1, true);
        let t15 = p.profiling_time(&Model::from_config(&GptConfig::gpt_15b()), 1, true);
        let ratio = t15.as_secs_f64() / t8.as_secs_f64();
        assert!((0.5..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn faster_gpu_profiles_faster() {
        let m = Model::from_config(&GptConfig::gpt_8b());
        let commodity = Profiler::new(GpuSpec::rtx3090ti()).profile(&m, 1);
        let dc = Profiler::new(GpuSpec::a100()).profile(&m, 1);
        let fwd = |p: &ModelProfile| p.layers().iter().map(|l| l.fwd).sum::<SimTime>();
        assert!(fwd(&dc) < fwd(&commodity));
    }
}
