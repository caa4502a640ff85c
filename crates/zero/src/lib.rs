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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod offload;
mod validate;

pub use cluster::{
    expected_cluster_nic_traffic, simulate_cluster_zero_step, ClusterZeroConfig, ClusterZeroReport,
};
pub use offload::{check_offload_memory, simulate_zero_offload_step_traced};
pub use validate::{
    expected_step_traffic, verify_traffic_identity, ExpectedZeroTraffic, ZeroTrafficViolation,
};

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use mobius_model::LayerKind;
use mobius_profiler::{LayerProfile, ModelProfile};
use mobius_sim::{ClockOverflow, CommKind, Engine, SimTime, Step, TraceRecorder};
use mobius_topology::{Interconnect, ServerNetwork, Topology};
use serde::{Deserialize, Serialize};

/// Multiplicative runtime overhead of DeepSpeed's pipeline-parallel engine
/// relative to a bare GPipe schedule (scheduling and communication glue).
/// Used by the facade crate to derive the "DeepSpeed with pipeline
/// parallelism" baseline of Figure 5 from the GPipe plan.
pub const DS_PIPELINE_OVERHEAD: f64 = 1.05;

/// Configuration of a simulated ZeRO-3 offload step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZeroConfig {
    /// Whether the next layer's parameters prefetch during the current
    /// layer's compute (DeepSpeed default: on).
    pub prefetch: bool,
    /// Debug mode: after the step, check the recorded traffic against the
    /// closed-form Eq. 2 prediction ([`verify_traffic_identity`]) and run
    /// the flow network with invariant checking. Violations panic.
    pub strict_validation: bool,
}

impl Default for ZeroConfig {
    fn default() -> Self {
        ZeroConfig {
            prefetch: true,
            strict_validation: false,
        }
    }
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Fwd,
    Bwd,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    H2d,
    D2h,
}

#[derive(Debug)]
struct GpuZ {
    /// Slot index: 0..L forward, L..2L backward (stage = reverse order).
    slot: usize,
    outstanding_loads: usize,
    launched_loads: Vec<bool>, // per slot
    computing: Option<SimTime>,
    /// Remaining sequential phases of the in-flight load chain
    /// (shard fetch → shard publish → gather on PCIe-only servers).
    chain: VecDeque<(Dir, u64)>,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    ComputeDone { gpu: usize },
}

struct ZeroExec<'a> {
    layers: &'a [LayerProfile],
    /// Flow tags: GPU, kind, traced GPUs, whether the flow blocks compute.
    server: ServerNetwork<(usize, CommKind, Vec<usize>, bool)>,
    engine: Engine<Ev>,
    trace: TraceRecorder,
    gpus: Vec<GpuZ>,
    cfg: ZeroConfig,
    num_layers: usize,
    n: usize,
    nvlink: bool,
    last_compute_done: SimTime,
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
    let l = profile.len();
    let n = topo.num_gpus();
    assert!(l > 0 && n > 0, "need layers and GPUs");

    let gpus = (0..n)
        .map(|_| GpuZ {
            slot: 0,
            outstanding_loads: 0,
            launched_loads: vec![false; 2 * l],
            computing: None,
            chain: VecDeque::new(),
        })
        .collect();

    let mut server = ServerNetwork::new(topo);
    if cfg.strict_validation {
        server.net_mut().set_strict_validation(true);
    }
    let mut engine = Engine::new();
    let mut trace = TraceRecorder::new();
    if let Some(obs) = obs {
        trace.set_obs(obs.clone());
        trace.set_link_labels(server.net().link_labels());
        server.net_mut().set_obs(obs.clone());
        engine.set_obs(obs.clone());
    }

    let mut exec = ZeroExec {
        layers: profile.layers(),
        server,
        engine,
        trace,
        gpus,
        cfg: *cfg,
        num_layers: l,
        n,
        nvlink: topo.interconnect() == Interconnect::NvLink,
        last_compute_done: SimTime::ZERO,
    };
    exec.run()?;
    if cfg.strict_validation {
        if let Err(v) = verify_traffic_identity(&exec.trace, profile, topo) {
            if let Some(obs) = obs {
                obs.violation(
                    "zero-traffic-identity",
                    &v.to_string(),
                    exec.engine.now().as_nanos(),
                );
            }
            panic!("ZeRO traffic identity violated: {v}");
        }
    }
    Ok(ZeroReport {
        step_time: exec.engine.now(),
        trace: exec.trace,
    })
}

impl ZeroExec<'_> {
    fn slot_layer(&self, slot: usize) -> (usize, Phase) {
        if slot < self.num_layers {
            (slot, Phase::Fwd)
        } else {
            (2 * self.num_layers - 1 - slot, Phase::Bwd)
        }
    }

    fn run(&mut self) -> Result<(), ZeroError> {
        for g in 0..self.n {
            self.launch_loads(g, 0);
        }
        self.pump();
        while let Some(step) = mobius_sim::step(self.server.net_mut(), &mut self.engine)? {
            match step {
                Step::Flow(_, rec, (gpu, kind, traced, blocks)) => {
                    self.trace.record_flow(&rec, kind, &traced);
                    if blocks {
                        self.load_done(gpu);
                    }
                }
                Step::Event(_, Ev::ComputeDone { gpu }) => self.compute_done(gpu),
            }
            self.pump();
        }
        debug_assert!(
            self.gpus.iter().all(|g| g.slot == 2 * self.num_layers),
            "a GPU did not finish its step"
        );
        Ok(())
    }

    /// A load flow of `gpu` landed: continue its sequential all-gather
    /// chain, if any.
    fn load_done(&mut self, gpu: usize) {
        self.launch_chain_head(gpu);
        self.gpus[gpu].outstanding_loads -= 1;
    }

    /// Launches the next phase of `g`'s load chain, if one is left.
    fn launch_chain_head(&mut self, g: usize) {
        let Some((dir, bytes)) = self.gpus[g].chain.pop_front() else {
            return;
        };
        let path = match dir {
            Dir::H2d => self.server.dram_to_gpu(g),
            Dir::D2h => self.server.gpu_to_dram(g),
        };
        self.launch(g, path, bytes, 100, CommKind::ParamGather, vec![g], true);
    }

    fn pump(&mut self) {
        for g in 0..self.n {
            let gpu = &self.gpus[g];
            if gpu.computing.is_some() || gpu.slot >= 2 * self.num_layers {
                continue;
            }
            if gpu.outstanding_loads > 0 || !gpu.launched_loads[gpu.slot] {
                continue;
            }
            // Start computing this slot.
            let (layer, phase) = self.slot_layer(gpu.slot);
            let duration = match phase {
                Phase::Fwd => self.layers[layer].fwd,
                Phase::Bwd => self.layers[layer].bwd,
            };
            let now = self.engine.now();
            self.gpus[g].computing = Some(now);
            self.engine
                .schedule_after(duration, Ev::ComputeDone { gpu: g });
            // Prefetch the next slot's parameters while computing.
            if self.cfg.prefetch {
                let next = self.gpus[g].slot + 1;
                self.launch_loads(g, next);
            }
        }
    }

    fn compute_done(&mut self, g: usize) {
        let started = self.gpus[g].computing.take().expect("no compute running");
        let now = self.engine.now();
        self.trace.record_compute(g, started, now);
        self.last_compute_done = now;
        let slot = self.gpus[g].slot;
        let (layer, phase) = self.slot_layer(slot);
        match phase {
            Phase::Fwd => {
                // Checkpoint offload of the layer's boundary activation.
                let act = self.layers[layer].output_act_bytes;
                if act > 0 {
                    let path = self.server.gpu_to_dram(g);
                    self.launch(
                        g,
                        path,
                        act,
                        50,
                        CommKind::ActivationOffload,
                        vec![g],
                        false,
                    );
                }
            }
            Phase::Bwd => {
                // Gradient reduce + return to DRAM.
                let grad = self.layers[layer].grad_bytes;
                if grad > 0 {
                    if self.nvlink {
                        // Ring all-reduce over NVLink, then shard to DRAM.
                        let prev = (g + self.n - 1) % self.n;
                        if let Some(ring) = self.server.gpu_to_gpu(prev, g) {
                            let bytes = grad * (self.n as u64 - 1) / self.n as u64;
                            if bytes > 0 {
                                self.launch(
                                    g,
                                    ring,
                                    bytes,
                                    60,
                                    CommKind::GradientReduce,
                                    vec![prev, g],
                                    false,
                                );
                            }
                        }
                        let path = self.server.gpu_to_dram(g);
                        self.launch(
                            g,
                            path,
                            (grad / self.n as u64).max(1),
                            60,
                            CommKind::GradientReduce,
                            vec![g],
                            false,
                        );
                    } else {
                        // Every GPU returns its full gradient through the
                        // CPU for reduction.
                        let path = self.server.gpu_to_dram(g);
                        self.launch(g, path, grad, 60, CommKind::GradientReduce, vec![g], false);
                    }
                }
            }
        }
        self.gpus[g].slot += 1;
        let next = self.gpus[g].slot;
        // Without prefetch (or if the prefetch never fired) launch now.
        self.launch_loads(g, next);
    }

    /// Launches the parameter (and, for backward, activation) uploads a slot
    /// needs before computing.
    fn launch_loads(&mut self, g: usize, slot: usize) {
        if slot >= 2 * self.num_layers || self.gpus[g].launched_loads[slot] {
            return;
        }
        self.gpus[g].launched_loads[slot] = true;
        let (layer, phase) = self.slot_layer(slot);
        let params = self.layers[layer].param_bytes;
        let act = match phase {
            Phase::Fwd => 0,
            // Backward re-uploads the checkpointed input activation.
            Phase::Bwd => {
                if layer == 0 {
                    0
                } else {
                    self.layers[layer - 1].output_act_bytes
                }
            }
        };
        if self.nvlink {
            // Shard from DRAM + the rest over the NVLink ring.
            let shard = params / self.n as u64 + act;
            if shard > 0 {
                let path = self.server.dram_to_gpu(g);
                self.launch(g, path, shard, 100, CommKind::ParamGather, vec![g], true);
            }
            let ring_bytes = params - params / self.n as u64;
            if ring_bytes > 0 {
                let prev = (g + self.n - 1) % self.n;
                if let Some(ring) = self.server.gpu_to_gpu(prev, g) {
                    self.launch(
                        g,
                        ring,
                        ring_bytes,
                        100,
                        CommKind::ParamGather,
                        vec![prev, g],
                        true,
                    );
                }
            }
        } else {
            // Real ZeRO-3 data path without GPUDirect P2P, three dependent
            // phases: fetch own offloaded shard, publish it to host staging
            // for the all-gather, then pull the other GPUs' shards.
            // The fetch carries the re-uploaded activation too.
            let shard = params / self.n as u64;
            let gather = params - shard;
            let chain: VecDeque<(Dir, u64)> = [
                (Dir::H2d, shard + act),
                (Dir::D2h, shard),
                (Dir::H2d, gather),
            ]
            .into_iter()
            .filter(|&(_, bytes)| bytes > 0)
            .collect();
            if !chain.is_empty() {
                self.gpus[g].chain = chain;
                self.launch_chain_head(g);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn launch(
        &mut self,
        gpu: usize,
        path: Vec<mobius_sim::LinkId>,
        bytes: u64,
        prio: u8,
        kind: CommKind,
        traced: Vec<usize>,
        blocks: bool,
    ) {
        if blocks {
            self.gpus[gpu].outstanding_loads += 1;
        }
        self.server
            .net_mut()
            .start_flow(path, bytes as f64, prio, (gpu, kind, traced, blocks));
    }
}

/// The largest single transformer block trainable on one GPU (the paper's
/// observation that hidden 9216 is the limit for a 24 GiB card): a helper
/// for tests and reports.
pub fn largest_block_fits(layer: &LayerKind, capacity: u64, mbs: usize) -> bool {
    2 * layer.param_bytes() + layer.grad_bytes() + layer.workspace_bytes(mbs) <= capacity
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
    fn prefetch_overlaps_and_speeds_up() {
        let p = profile(&GptConfig::gpt_3b(), 1);
        let with = simulate_zero_step_traced(&p, &topo22(), &ZeroConfig::default(), None)
            .unwrap()
            .step_time;
        let without = simulate_zero_step_traced(
            &p,
            &topo22(),
            &ZeroConfig {
                prefetch: false,
                ..ZeroConfig::default()
            },
            None,
        )
        .unwrap()
        .step_time;
        assert!(with < without, "prefetch {with} vs no prefetch {without}");
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
            ..ZeroConfig::default()
        };
        // PCIe commodity server, with and without prefetch (prefetch
        // reorders transfers but must not change a single byte).
        let p = profile(&GptConfig::gpt_3b(), 1);
        simulate_zero_step_traced(&p, &topo22(), &strict, None).unwrap();
        simulate_zero_step_traced(
            &p,
            &topo22(),
            &ZeroConfig {
                prefetch: false,
                strict_validation: true,
            },
            None,
        )
        .unwrap();
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
        // The 51B model's 9216-hidden block fits on a 24 GiB card; much
        // bigger does not.
        let ok = LayerKind::TransformerBlock {
            hidden: 9216,
            heads: 80,
            seq: 512,
        };
        let too_big = LayerKind::TransformerBlock {
            hidden: 20480,
            heads: 80,
            seq: 512,
        };
        let cap = GpuSpec::rtx3090ti().mem_bytes;
        assert!(largest_block_fits(&ok, cap, 1));
        assert!(!largest_block_fits(&too_big, cap, 1));
    }
}
