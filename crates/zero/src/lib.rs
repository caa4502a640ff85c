//! # mobius-zero
//!
//! A faithful simulation of the paper's main baseline: **DeepSpeed ZeRO-3
//! with heterogeneous memory** (ZeRO-Infinity-style offload), §2.3 of the
//! paper.
//!
//! ZeRO-3 offload keeps parameter shards and optimizer state in DRAM. For
//! every layer, every GPU must materialize the *full* FP16 parameters
//! before computing (all-gather), forward **and** backward, and after
//! backward each GPU's gradients are reduced and returned to DRAM. Per
//! training step that is `≈ 1.5 N ×` the model size of traffic (Eq. 2) —
//! versus `≈ 1.5 ×` for the Mobius pipeline (Eq. 1) — and, because all `N`
//! GPUs transfer simultaneously, it suffers maximal root-complex contention
//! (Figure 2).
//!
//! On PCIe-only servers the all-gather follows the real ZeRO-3 data path:
//! each GPU (1) fetches its own offloaded shard from DRAM, (2) publishes it
//! back to host staging (no GPUDirect P2P), and (3) gathers the other
//! `(N−1)/N` of the layer — three dependent phases per layer, forward and
//! backward. One simplification is charitable to DeepSpeed: the CPU-side
//! Adam step is excluded (Mobius pays it identically; the paper's
//! comparison is about communication).
//!
//! On NVLink servers (§4.8) each GPU reads only its `1/N` shard from DRAM
//! and the remaining `(N−1)/N` arrives over the NVLink ring — which is why
//! DeepSpeed wins on data-center hardware (Figure 15).
//!
//! ZeRO-3, ZeRO-Offload and cluster-scale ZeRO-3 all run one slot walk
//! over the step's `2L` layer slots; each supplies only its loads, the
//! flows that follow a compute, and its own checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod offload;
mod validate;
mod walk;

pub use cluster::{
    expected_cluster_nic_traffic, simulate_cluster_zero_step, ClusterZeroConfig, ClusterZeroReport,
};
pub use offload::{check_offload_memory, simulate_zero_offload_step_traced};
pub use validate::{
    expected_step_traffic, verify_traffic_identity, ExpectedZeroTraffic, ZeroTrafficViolation,
};

use std::error::Error;
use std::fmt;

use mobius_profiler::{LayerProfile, ModelProfile};
use mobius_sim::{
    ClockOverflow, CommKind, FlowNetwork, FlowRecord, LinkId, SimTime, TraceRecorder,
};
use mobius_topology::{Interconnect, ServerNetwork, Topology};
use serde::{Deserialize, Serialize};
use walk::{slot_layer, trace_for, walk, Slots};

/// Multiplicative runtime overhead of DeepSpeed's pipeline-parallel engine
/// relative to a bare GPipe schedule (scheduling and communication glue).
/// Used by the facade crate to derive the "DeepSpeed with pipeline
/// parallelism" baseline of Figure 5 from the GPipe plan.
pub const DS_PIPELINE_OVERHEAD: f64 = 1.05;

/// Configuration of a simulated ZeRO-3 offload step. The next layer's
/// parameters always prefetch during the current layer's compute, as in
/// DeepSpeed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZeroConfig {
    /// Debug mode: after the step, check the recorded traffic against the
    /// closed-form Eq. 2 prediction ([`verify_traffic_identity`]) and run
    /// the flow network with invariant checking. Violations panic.
    pub strict_validation: bool,
}

/// Why ZeRO cannot run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ZeroError {
    /// One layer (plus its prefetch buddy) cannot fit on a GPU.
    LayerTooLarge {
        /// Offending layer index.
        layer: usize,
        /// Bytes required.
        required: u64,
        /// GPU capacity.
        capacity: u64,
    },
    /// A transfer cannot finish inside the simulated clock: a link on its
    /// path is so slow that its completion instant saturates at
    /// [`SimTime::MAX`] ([`ClockOverflow`]).
    ClockOverflow {
        /// Bytes still pending when the clock saturated.
        remaining: f64,
    },
}

impl fmt::Display for ZeroError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZeroError::LayerTooLarge {
                layer,
                required,
                capacity,
            } => write!(
                f,
                "layer {layer} needs {:.2} GiB but the GPU has {:.2} GiB",
                *required as f64 / (1u64 << 30) as f64,
                *capacity as f64 / (1u64 << 30) as f64
            ),
            ZeroError::ClockOverflow { remaining } => write!(
                f,
                "a transfer cannot finish inside the simulated clock: {remaining:.0} bytes \
                 still pending when it saturated (a link on its path is too slow)"
            ),
        }
    }
}

impl Error for ZeroError {}

impl<T> From<ClockOverflow<T>> for ZeroError {
    fn from(o: ClockOverflow<T>) -> Self {
        ZeroError::ClockOverflow {
            remaining: o.remaining,
        }
    }
}

/// Result of simulating one ZeRO-3 offload training step.
#[derive(Debug, Clone)]
pub struct ZeroReport {
    /// Per-step time: when the last gradient reaches DRAM (the all-reduce
    /// is synchronous in DeepSpeed).
    pub step_time: SimTime,
    /// Bandwidth samples, traffic counters, overlap intervals.
    pub trace: TraceRecorder,
}

/// Checks each layer fits on a GPU alongside its prefetched successor.
fn check_memory(profile: &ModelProfile, capacity: u64) -> Result<(), ZeroError> {
    let layers = profile.layers();
    for (i, l) in layers.iter().enumerate() {
        let next_params = layers.get(i + 1).map_or(0, |n| n.param_bytes);
        let required =
            l.param_bytes + l.grad_bytes + l.workspace_bytes + l.output_act_bytes + next_params;
        if required > capacity {
            return Err(ZeroError::LayerTooLarge {
                layer: i,
                required,
                capacity,
            });
        }
    }
    Ok(())
}

/// Simulates one ZeRO-3 offload training step on `topo`, with each GPU
/// training its own microbatch (data parallelism), with an optional
/// observer: transfers and compute intervals are emitted as spans on
/// GPU/link lanes, byte counters mirror the per-kind traffic map, and a
/// strict-mode traffic-identity failure is logged as a structured violation
/// event before the panic. Observation is passive — results are
/// bit-identical with or without it.
///
/// The `profile` should be taken at the per-GPU microbatch size.
///
/// # Examples
///
/// ```
/// use mobius_model::{GptConfig, Model};
/// use mobius_profiler::Profiler;
/// use mobius_topology::{GpuSpec, Topology};
/// use mobius_zero::{simulate_zero_step_traced, ZeroConfig};
///
/// let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
/// let model = Model::from_config(&GptConfig::gpt_3b());
/// let profile = Profiler::new(topo.gpu().clone()).profile(&model, 1);
/// let report = simulate_zero_step_traced(&profile, &topo, &ZeroConfig::default(), None)?;
/// assert!(report.step_time.as_secs_f64() > 0.0);
/// # Ok::<(), mobius_zero::ZeroError>(())
/// ```
///
/// # Errors
///
/// Returns [`ZeroError::LayerTooLarge`] if a layer cannot fit on the GPU,
/// [`ZeroError::ClockOverflow`] if a transfer cannot finish inside the
/// simulated clock.
pub fn simulate_zero_step_traced(
    profile: &ModelProfile,
    topo: &Topology,
    cfg: &ZeroConfig,
    obs: Option<&mobius_obs::Obs>,
) -> Result<ZeroReport, ZeroError> {
    check_memory(profile, topo.gpu_mem_bytes())?;
    let n = topo.num_gpus();
    assert!(!profile.is_empty() && n > 0, "need layers and GPUs");

    let mut server = ServerNetwork::new(topo);
    if cfg.strict_validation {
        server.net_mut().set_strict_validation(true);
    }
    let trace = trace_for(server.net_mut(), obs);
    let mut sim = Zero3 {
        layers: profile.layers(),
        server,
        trace,
        n,
        nvlink: topo.interconnect() == Interconnect::NvLink,
    };
    let step_time = walk(&mut sim, profile.layers(), n, obs)?;
    if cfg.strict_validation {
        if let Err(v) = verify_traffic_identity(&sim.trace, profile, topo) {
            if let Some(obs) = obs {
                obs.violation(
                    "zero-traffic-identity",
                    &v.to_string(),
                    step_time.as_nanos(),
                );
            }
            panic!("ZeRO traffic identity violated: {v}");
        }
    }
    Ok(ZeroReport {
        step_time,
        trace: sim.trace,
    })
}

/// A ZeRO-3 flow.
struct Flow {
    gpu: usize,
    /// The ring neighbour the flow comes from, traced with `gpu`.
    peer: Option<usize>,
    kind: CommKind,
    /// Bytes of the PCIe load chain's legs still to launch after this one.
    rest: [u64; 3],
}

impl Flow {
    fn new(gpu: usize, kind: CommKind) -> Self {
        Flow {
            gpu,
            peer: None,
            kind,
            rest: [0; 3],
        }
    }
}

/// ZeRO-3's side of the walk: every GPU is a unit, a parameter load blocks
/// its compute, and activations and gradients leave after it.
struct Zero3<'a> {
    layers: &'a [LayerProfile],
    server: ServerNetwork<Flow>,
    trace: TraceRecorder,
    n: usize,
    nvlink: bool,
}

impl Zero3<'_> {
    fn start(&mut self, path: Vec<LinkId>, bytes: u64, prio: u8, flow: Flow) {
        self.server
            .net_mut()
            .start_flow(path, bytes as f64, prio, flow);
    }

    /// Launches the first leg of the PCIe load chain `rest` that has bytes:
    /// fetch the own shard to the GPU, publish it back to host staging,
    /// gather the other shards to the GPU. The leg's flow carries the legs
    /// after it.
    fn next_leg(&mut self, gpu: usize, mut rest: [u64; 3]) {
        let Some(leg) = rest.iter().position(|&b| b > 0) else {
            return;
        };
        let bytes = std::mem::take(&mut rest[leg]);
        let path = if leg == 1 {
            self.server.gpu_to_dram(gpu)
        } else {
            self.server.dram_to_gpu(gpu)
        };
        let flow = Flow {
            rest,
            ..Flow::new(gpu, CommKind::ParamGather)
        };
        self.start(path, bytes, 100, flow);
    }
}

impl Slots for Zero3<'_> {
    type Tag = Flow;

    fn net(&mut self) -> &mut FlowNetwork<Flow> {
        self.server.net_mut()
    }

    /// The parameter (and, backward, activation) uploads a slot needs.
    fn load(&mut self, g: usize, slot: usize) -> usize {
        let (layer, backward) = slot_layer(slot, self.layers.len());
        let params = self.layers[layer].param_bytes;
        // Backward re-uploads the checkpointed input activation.
        let act = if backward && layer > 0 {
            self.layers[layer - 1].output_act_bytes
        } else {
            0
        };
        let shard = params / self.n as u64;
        if !self.nvlink {
            // Real ZeRO-3 data path without GPUDirect P2P: three dependent
            // legs, the first carrying the re-uploaded activation too.
            let rest = [shard + act, shard, params - shard];
            self.next_leg(g, rest);
            return rest.iter().filter(|&&b| b > 0).count();
        }
        // Shard from DRAM + the rest over the NVLink ring.
        let mut loads = 0;
        if shard + act > 0 {
            let path = self.server.dram_to_gpu(g);
            self.start(path, shard + act, 100, Flow::new(g, CommKind::ParamGather));
            loads += 1;
        }
        let prev = (g + self.n - 1) % self.n;
        if params > shard {
            if let Some(ring) = self.server.gpu_to_gpu(prev, g) {
                let flow = Flow {
                    peer: Some(prev),
                    ..Flow::new(g, CommKind::ParamGather)
                };
                self.start(ring, params - shard, 100, flow);
                loads += 1;
            }
        }
        loads
    }

    fn computed(&mut self, g: usize, slot: usize, started: SimTime, now: SimTime) {
        self.trace.record_compute(g, started, now);
        let (layer, backward) = slot_layer(slot, self.layers.len());
        let layer = &self.layers[layer];
        if !backward {
            // Checkpoint offload of the layer's boundary activation.
            if layer.output_act_bytes > 0 {
                let path = self.server.gpu_to_dram(g);
                let flow = Flow::new(g, CommKind::ActivationOffload);
                self.start(path, layer.output_act_bytes, 50, flow);
            }
            return;
        }
        // Gradient reduce + return to DRAM.
        let grad = layer.grad_bytes;
        if grad == 0 {
            return;
        }
        let reduce = CommKind::GradientReduce;
        if !self.nvlink {
            // Every GPU returns its full gradient through the CPU for
            // reduction.
            let path = self.server.gpu_to_dram(g);
            self.start(path, grad, 60, Flow::new(g, reduce));
            return;
        }
        // Ring all-reduce over NVLink, then shard to DRAM.
        let prev = (g + self.n - 1) % self.n;
        let bytes = grad * (self.n as u64 - 1) / self.n as u64;
        if let Some(ring) = self.server.gpu_to_gpu(prev, g).filter(|_| bytes > 0) {
            let flow = Flow {
                peer: Some(prev),
                ..Flow::new(g, reduce)
            };
            self.start(ring, bytes, 60, flow);
        }
        let path = self.server.gpu_to_dram(g);
        self.start(
            path,
            (grad / self.n as u64).max(1),
            60,
            Flow::new(g, reduce),
        );
    }

    fn landed(&mut self, rec: &FlowRecord, flow: Flow) -> Option<usize> {
        let pair = [flow.peer.unwrap_or(flow.gpu), flow.gpu];
        let traced = if flow.peer.is_some() {
            &pair[..]
        } else {
            &pair[1..]
        };
        self.trace.record_flow(rec, flow.kind, traced);
        if flow.kind != CommKind::ParamGather {
            return None;
        }
        self.next_leg(flow.gpu, flow.rest);
        Some(flow.gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobius_model::{GptConfig, Model};
    use mobius_profiler::Profiler;
    use mobius_topology::GpuSpec;

    fn profile(cfg: &GptConfig, mbs: usize) -> ModelProfile {
        Profiler::new(GpuSpec::rtx3090ti()).profile(&Model::from_config(cfg), mbs)
    }

    fn topo22() -> Topology {
        Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2])
    }

    #[test]
    fn zero_completes_a_step() {
        let p = profile(&GptConfig::gpt_3b(), 1);
        let rep = simulate_zero_step_traced(&p, &topo22(), &ZeroConfig::default(), None).unwrap();
        assert!(rep.step_time > SimTime::ZERO);
    }

    #[test]
    fn traffic_scales_with_gpu_count() {
        // Eq. 2: parameter traffic is ~2·N·P (each GPU reads every layer
        // twice).
        let p = profile(&GptConfig::gpt_3b(), 1);
        let model_fp16 = p.total_param_bytes() as f64;
        let rep = simulate_zero_step_traced(&p, &topo22(), &ZeroConfig::default(), None).unwrap();
        let gather = rep.trace.traffic_by_kind()[&CommKind::ParamGather];
        let n = 4.0;
        // 2·N·P in fp16 bytes, plus backward activation re-uploads.
        assert!(
            gather >= 2.0 * n * model_fp16,
            "gather {:.1} GB vs 2NP {:.1} GB",
            gather / 1e9,
            2.0 * n * model_fp16 / 1e9
        );
        let reduce = rep.trace.traffic_by_kind()[&CommKind::GradientReduce];
        assert!(reduce >= n * model_fp16 * 0.99);
    }

    #[test]
    fn contention_halves_effective_bandwidth() {
        // Figure 2: most bytes move at roughly half the root complex peak.
        let p = profile(&GptConfig::gpt_8b(), 1);
        let rep = simulate_zero_step_traced(&p, &topo22(), &ZeroConfig::default(), None).unwrap();
        let cdf = rep.trace.bandwidth_cdf_of(CommKind::ParamGather);
        let median = cdf.median().expect("samples exist");
        assert!(
            median < 8.0,
            "median gather bandwidth {median} GB/s should be well under the 13.1 peak"
        );
    }

    #[test]
    fn nvlink_server_is_faster() {
        let commodity = profile(&GptConfig::gpt_8b(), 1);
        let t_c = simulate_zero_step_traced(&commodity, &topo22(), &ZeroConfig::default(), None)
            .unwrap()
            .step_time;
        let dc_gpu = GpuSpec::v100();
        let dc_profile =
            Profiler::new(dc_gpu.clone()).profile(&Model::from_config(&GptConfig::gpt_8b()), 1);
        let dc = Topology::data_center(dc_gpu, 4);
        let t_dc = simulate_zero_step_traced(&dc_profile, &dc, &ZeroConfig::default(), None)
            .unwrap()
            .step_time;
        assert!(t_dc < t_c, "data center {t_dc} should beat commodity {t_c}");
    }

    #[test]
    fn memory_check_rejects_monster_layers() {
        // A hypothetical block far beyond 24 GiB.
        let cfg = GptConfig::new("huge", 1000, 32768, 64, 2, 512, 1);
        let p = profile(&cfg, 1);
        let err = simulate_zero_step_traced(&p, &topo22(), &ZeroConfig::default(), None);
        assert!(matches!(err, Err(ZeroError::LayerTooLarge { .. })));
    }

    #[test]
    fn step_time_tracks_contention() {
        // More GPUs behind one root complex -> slower ZeRO step.
        let p = profile(&GptConfig::gpt_8b(), 1);
        let t = |groups: &[usize]| {
            simulate_zero_step_traced(
                &p,
                &Topology::commodity(GpuSpec::rtx3090ti(), groups),
                &ZeroConfig::default(),
                None,
            )
            .unwrap()
            .step_time
        };
        let relaxed = t(&[1, 1, 1, 1]);
        let half = t(&[2, 2]);
        let jammed = t(&[4]);
        assert!(relaxed < half, "{relaxed} !< {half}");
        assert!(half < jammed, "{half} !< {jammed}");
    }

    #[test]
    fn gather_bandwidth_scales_inversely_with_group_size() {
        let p = profile(&GptConfig::gpt_8b(), 1);
        let median = |groups: &[usize]| {
            simulate_zero_step_traced(
                &p,
                &Topology::commodity(GpuSpec::rtx3090ti(), groups),
                &ZeroConfig::default(),
                None,
            )
            .unwrap()
            .trace
            .bandwidth_cdf_of(CommKind::ParamGather)
            .median()
            .unwrap()
        };
        let m22 = median(&[2, 2]);
        let m4 = median(&[4]);
        // Four-way sharing roughly halves the two-way share.
        assert!(m4 < m22 * 0.7, "median {m4} vs {m22}");
    }

    #[test]
    fn strict_mode_verifies_traffic_identity() {
        let strict = ZeroConfig {
            strict_validation: true,
        };
        // PCIe commodity server: the three-leg load chain.
        let p = profile(&GptConfig::gpt_3b(), 1);
        simulate_zero_step_traced(&p, &topo22(), &strict, None).unwrap();
        // NVLink data-center server exercises the ring path.
        let dc_gpu = GpuSpec::v100();
        let dc_profile =
            Profiler::new(dc_gpu.clone()).profile(&Model::from_config(&GptConfig::gpt_3b()), 1);
        let dc = Topology::data_center(dc_gpu, 4);
        simulate_zero_step_traced(&dc_profile, &dc, &strict, None).unwrap();
    }

    #[test]
    fn expected_traffic_matches_eq2_scale() {
        // Eq. 2: parameter-path traffic ≈ 1.5·N· (params + grads). With the
        // gather counted per phase and the 1/N shard overhead, the PCIe
        // ratio against N·P lands a little above 3.
        let p = profile(&GptConfig::gpt_3b(), 1);
        let topo = topo22();
        let expected = expected_step_traffic(&p, &topo);
        let ratio = expected.eq2_ratio(&p, topo.num_gpus());
        assert!(
            (3.0..8.0).contains(&ratio),
            "Eq. 2 ratio {ratio:.2} out of the expected band"
        );
    }

    #[test]
    fn doctored_trace_fails_traffic_identity() {
        let p = profile(&GptConfig::gpt_3b(), 1);
        let topo = topo22();
        let mut rep = simulate_zero_step_traced(&p, &topo, &ZeroConfig::default(), None).unwrap();
        assert!(verify_traffic_identity(&rep.trace, &p, &topo).is_ok());
        // Inject one spurious gather the data path never performs.
        let bogus = mobius_sim::FlowRecord {
            bytes: 123456789.0,
            started: SimTime::ZERO,
            finished: SimTime::from_millis(1),
            path: vec![],
        };
        rep.trace.record_flow(&bogus, CommKind::ParamGather, &[0]);
        let err = verify_traffic_identity(&rep.trace, &p, &topo).unwrap_err();
        assert_eq!(err.kind, CommKind::ParamGather);
        assert!(err.measured > err.expected);
    }

    #[test]
    fn largest_block_boundary() {
        // The 51B model's 9216-hidden block fits on a 24 GiB card beside
        // its prefetched successor; a 20480-hidden block does not.
        let cap = GpuSpec::rtx3090ti().mem_bytes;
        assert!(check_memory(&profile(&GptConfig::gpt_51b(), 1), cap).is_ok());
        let too_big = GptConfig::new("too-big", 1000, 20480, 80, 2, 512, 1);
        assert!(check_memory(&profile(&too_big, 1), cap).is_err());
    }
}
