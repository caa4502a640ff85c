//! ZeRO-Offload (the paper's related work \[37\]): optimizer states and
//! gradients live in DRAM, but every GPU keeps a **full FP16 copy of the
//! parameters**, so the trainable model is bounded by a single GPU's
//! memory — the intermediate rung between GPipe (everything on GPU) and
//! ZeRO-3 offload / Mobius (parameters in DRAM).
//!
//! Per step and per GPU: compute forward (no parameter traffic), compute
//! backward streaming gradients to the CPU, then download the CPU-updated
//! FP16 parameters. Traffic ≈ `N · (G + P)` — less than ZeRO-3's
//! `≈ 1.5·N·model`, more than Mobius.

use mobius_profiler::{LayerProfile, ModelProfile};
use mobius_sim::{CommKind, FlowNetwork, FlowRecord, SimTime, TraceRecorder};
use mobius_topology::{ServerNetwork, Topology};

use crate::walk::{slot_layer, trace_for, walk, Slots};
use crate::{ZeroError, ZeroReport};

/// Checks ZeRO-Offload's memory bound: the full FP16 parameters plus the
/// largest layer's workspace and a gradient streaming buffer must fit.
pub fn check_offload_memory(profile: &ModelProfile, capacity: u64) -> Result<(), ZeroError> {
    let params: u64 = profile.layers().iter().map(|l| l.param_bytes).sum();
    let worst = profile
        .layers()
        .iter()
        .enumerate()
        .max_by_key(|(_, l)| l.workspace_bytes + l.grad_bytes)
        .expect("nonempty profile");
    let required = params + worst.1.workspace_bytes + worst.1.grad_bytes;
    if required > capacity {
        return Err(ZeroError::LayerTooLarge {
            layer: worst.0,
            required,
            capacity,
        });
    }
    Ok(())
}

/// Simulates one ZeRO-Offload training step (data parallel, one microbatch
/// per GPU; the profile is taken at the per-GPU microbatch size), with an
/// optional observer: gradient streams, parameter refreshes, and compute
/// intervals are emitted as spans on GPU/link lanes and byte counters mirror
/// the traffic map. Observation is passive — results are bit-identical with
/// or without it.
///
/// # Errors
///
/// Returns [`ZeroError::LayerTooLarge`] when the full parameter copy does
/// not fit on a GPU — ZeRO-Offload's defining limitation — and
/// [`ZeroError::ClockOverflow`] if a transfer cannot finish inside the
/// simulated clock.
pub fn simulate_zero_offload_step_traced(
    profile: &ModelProfile,
    topo: &Topology,
    obs: Option<&mobius_obs::Obs>,
) -> Result<ZeroReport, ZeroError> {
    check_offload_memory(profile, topo.gpu_mem_bytes())?;
    let mut server = ServerNetwork::new(topo);
    let trace = trace_for(server.net_mut(), obs);
    let mut sim = Offload {
        layers: profile.layers(),
        server,
        trace,
    };
    let step_time = walk(&mut sim, profile.layers(), topo.num_gpus(), obs)?;
    Ok(ZeroReport {
        step_time,
        trace: sim.trace,
    })
}

/// ZeRO-Offload's side of the walk: every GPU is a unit that never waits
/// on a load, streams each backward layer's gradient to the CPU, and pulls
/// the updated parameters after its last slot.
struct Offload<'a> {
    layers: &'a [LayerProfile],
    /// Flow tags: kind, GPU.
    server: ServerNetwork<(CommKind, usize)>,
    trace: TraceRecorder,
}

impl Slots for Offload<'_> {
    type Tag = (CommKind, usize);

    fn net(&mut self) -> &mut FlowNetwork<(CommKind, usize)> {
        self.server.net_mut()
    }

    /// The parameters are resident: nothing to load.
    fn load(&mut self, _: usize, _: usize) -> usize {
        0
    }

    fn computed(&mut self, g: usize, slot: usize, started: SimTime, now: SimTime) {
        self.trace.record_compute(g, started, now);
        let (layer, backward) = slot_layer(slot, self.layers.len());
        let grad = self.layers[layer].grad_bytes;
        if backward && grad > 0 {
            let path = self.server.gpu_to_dram(g);
            let tag = (CommKind::GradientOffload, g);
            self.server.net_mut().start_flow(path, grad as f64, 50, tag);
        }
        if slot + 1 == 2 * self.layers.len() {
            // Parameter refresh from the CPU optimizer.
            let params: u64 = self.layers.iter().map(|x| x.param_bytes).sum();
            let path = self.server.dram_to_gpu(g);
            let tag = (CommKind::StageUpload, g);
            self.server
                .net_mut()
                .start_flow(path, params as f64, 80, tag);
        }
    }

    fn landed(&mut self, rec: &FlowRecord, (kind, g): (CommKind, usize)) -> Option<usize> {
        self.trace.record_flow(rec, kind, &[g]);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobius_model::{GptConfig, Model};
    use mobius_profiler::Profiler;
    use mobius_topology::GpuSpec;

    fn profile(cfg: &GptConfig) -> ModelProfile {
        Profiler::new(GpuSpec::rtx3090ti()).profile(&Model::from_config(cfg), 1)
    }

    fn topo22() -> Topology {
        Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2])
    }

    #[test]
    fn trains_8b_but_not_15b() {
        // ZeRO-Offload's capability rung: full fp16 params must fit one GPU.
        assert!(
            simulate_zero_offload_step_traced(&profile(&GptConfig::gpt_8b()), &topo22(), None)
                .is_ok()
        );
        let err =
            simulate_zero_offload_step_traced(&profile(&GptConfig::gpt_15b()), &topo22(), None);
        assert!(matches!(err, Err(ZeroError::LayerTooLarge { .. })));
    }

    #[test]
    fn traffic_is_grads_plus_param_refresh() {
        let p = profile(&GptConfig::gpt_3b());
        let rep = simulate_zero_offload_step_traced(&p, &topo22(), None).unwrap();
        let params: f64 = p.total_param_bytes() as f64;
        let by_kind = rep.trace.traffic_by_kind();
        let grads = by_kind[&CommKind::GradientOffload];
        let refresh = by_kind[&CommKind::StageUpload];
        // N GPUs each stream a full gradient and refresh full params.
        assert!((grads - 4.0 * params).abs() / (4.0 * params) < 0.01);
        assert!((refresh - 4.0 * params).abs() / (4.0 * params) < 0.01);
        // No all-gather traffic at all.
        assert!(!by_kind.contains_key(&CommKind::ParamGather));
    }

    #[test]
    fn faster_than_zero3_on_small_models() {
        // With parameters resident, ZeRO-Offload moves far fewer bytes than
        // ZeRO-3 offload and must finish the step sooner.
        let p = profile(&GptConfig::gpt_3b());
        let offload = simulate_zero_offload_step_traced(&p, &topo22(), None).unwrap();
        let zero3 =
            crate::simulate_zero_step_traced(&p, &topo22(), &crate::ZeroConfig::default(), None)
                .unwrap();
        assert!(
            offload.step_time < zero3.step_time,
            "offload {} vs zero-3 {}",
            offload.step_time,
            zero3.step_time
        );
    }

    #[test]
    fn step_is_compute_plus_refresh_tail() {
        // Gradient streaming hides behind backward compute; the exposed
        // communication is the parameter refresh at the end of the step
        // (full fp16 params through a root complex shared by two GPUs).
        let p = profile(&GptConfig::gpt_3b());
        let rep = simulate_zero_offload_step_traced(&p, &topo22(), None).unwrap();
        let compute: f64 = p
            .layers()
            .iter()
            .map(|l| (l.fwd + l.bwd).as_secs_f64())
            .sum();
        let refresh = p.total_param_bytes() as f64 / (13.1e9 / 2.0);
        let expected = compute + refresh;
        let actual = rep.step_time.as_secs_f64();
        assert!(
            (actual / expected - 1.0).abs() < 0.2,
            "step {actual:.2}s vs expected compute+refresh {expected:.2}s"
        );
    }
}
