//! Cluster-scale ZeRO-3: parameter shards spanning every GPU of every
//! server, with the all-gather and reduce-scatter crossing the NIC fabric.
//!
//! With `S` servers of `g` GPUs each (`G = g·S` GPUs total), ZeRO-3 shards
//! every layer `G` ways. Materializing a layer therefore pulls
//! `(G−g)/G · Pℓ` bytes *per GPU* from remote servers — per server and
//! ordered server pair that is `g²·Pℓ/G` bytes of NIC traffic, forward and
//! backward; the backward reduce-scatter ships the same pairwise share of
//! the gradients back to their shard owners. Summed over a step:
//!
//! ```text
//! total NIC bytes ≈ 2·(S−1)·g·P  +  (S−1)·g·grad
//! ```
//!
//! — *linear* in the server count, while a hierarchical data-parallel ring
//! (one pipeline replica per server, [`mobius-cluster`]) keeps per-server
//! traffic below `2 · grad` regardless of `S`. This module simulates the
//! NIC side of that contrast on the shared [`ClusterNetwork`] so switch and
//! NIC contention are measured; the intra-server PCIe side is the existing
//! [`simulate_zero_step_traced`](crate::simulate_zero_step_traced).
//!
//! [`mobius-cluster`]: https://docs.rs/mobius-cluster

use mobius_obs::{AttrValue, Lane, Obs};
use mobius_profiler::{LayerProfile, ModelProfile};
use mobius_sim::{CommKind, FlowNetwork, FlowRecord, SimTime, TraceRecorder};
use mobius_topology::{Cluster, ClusterNetwork};

use crate::walk::{slot_layer, trace_for, walk, Slots};
use crate::{check_memory, ZeroError};

/// Configuration of a cluster-scale ZeRO-3 NIC simulation. The next
/// layer's remote shards always prefetch during the current layer's
/// compute, as in DeepSpeed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterZeroConfig {
    /// Debug mode: run the fabric with flow-conservation checking and
    /// verify the measured NIC traffic against the closed form
    /// ([`expected_cluster_nic_traffic`]). Violations panic.
    pub strict_validation: bool,
}

/// Result of simulating the NIC side of one cluster-scale ZeRO-3 step.
#[derive(Debug, Clone)]
pub struct ClusterZeroReport {
    /// When the last gradient shard reached its owner.
    pub step_time: SimTime,
    /// Bytes each server transmitted onto the fabric.
    pub nic_bytes_per_server: Vec<f64>,
    /// Total NIC bytes across all servers (the `≈ 3·g·P·(S−1)` quantity).
    pub total_nic_bytes: f64,
    /// Bandwidth samples and traffic counters for the fabric flows.
    pub trace: TraceRecorder,
}

/// Closed-form total NIC bytes of one cluster-ZeRO step: per layer, the
/// forward and backward all-gathers move `g²·Pℓ/G` bytes per ordered server
/// pair and the reduce-scatter moves `g²·gradℓ/G`, over `S·(S−1)` pairs.
pub fn expected_cluster_nic_traffic(profile: &ModelProfile, cluster: &Cluster) -> f64 {
    let s = cluster.num_servers();
    if s < 2 {
        return 0.0;
    }
    let g = cluster.server().num_gpus() as f64;
    let pairs = (s * (s - 1)) as f64;
    let mut sum = 0.0;
    for l in profile.layers() {
        let gather_pair = g * g * l.param_bytes as f64 / (g * s as f64);
        let reduce_pair = g * g * l.grad_bytes as f64 / (g * s as f64);
        sum += pairs * (2.0 * gather_pair + reduce_pair);
    }
    sum
}

/// Simulates the cross-server traffic of one ZeRO-3 step on `cluster`'s
/// NIC fabric. Servers move through the `2L` layer slots in lockstep (they
/// hold symmetric shards and identical microbatch shapes), so every slot
/// launches the full mesh of pairwise gather flows simultaneously — which
/// is exactly what saturates the switch as `S` grows.
///
/// A 1-server cluster has no remote shards: the report carries zero NIC
/// bytes and pure compute time. Callers comparing systems should
/// structurally skip that degenerate case.
///
/// # Errors
///
/// Returns [`ZeroError::LayerTooLarge`] if a layer cannot fit on a GPU,
/// [`ZeroError::ClockOverflow`] if a NIC transfer cannot finish inside the
/// simulated clock (a near-zero NIC or switch bandwidth).
///
/// # Panics
///
/// With `cfg.strict_validation`, panics when the measured NIC traffic
/// drifts from the closed form.
pub fn simulate_cluster_zero_step(
    profile: &ModelProfile,
    cluster: &Cluster,
    cfg: &ClusterZeroConfig,
    obs: Option<&Obs>,
) -> Result<ClusterZeroReport, ZeroError> {
    check_memory(profile, cluster.server().gpu_mem_bytes())?;
    let s = cluster.num_servers();
    let mut net = ClusterNetwork::new(cluster);
    if cfg.strict_validation {
        net.net_mut().set_strict_validation(true);
    }
    let trace = trace_for(net.net_mut(), obs);
    let mut sim = Mesh {
        layers: profile.layers(),
        net,
        trace,
        obs,
        g: cluster.server().num_gpus() as f64,
        tx: vec![0.0; s],
    };
    // The servers are one unit; the engine stays unobserved.
    let step_time = walk(&mut sim, profile.layers(), 1, None)?;

    let total: f64 = sim.tx.iter().sum();
    if cfg.strict_validation {
        let want = expected_cluster_nic_traffic(profile, cluster);
        let tol = 1.0f64.max(1e-6 * want);
        if (total - want).abs() > tol {
            let detail =
                format!("cluster ZeRO NIC traffic: measured {total:.0} B, expected {want:.0} B");
            if let Some(obs) = obs {
                obs.violation("cluster-zero-nic-traffic", &detail, step_time.as_nanos());
            }
            panic!("{detail}");
        }
    }
    Ok(ClusterZeroReport {
        step_time,
        nic_bytes_per_server: sim.tx,
        total_nic_bytes: total,
        trace: sim.trace,
    })
}

/// Cluster ZeRO-3's side of the walk: the servers are one lockstep unit
/// whose loads and gradient returns are pairwise meshes on the fabric.
struct Mesh<'a> {
    layers: &'a [LayerProfile],
    /// Flow tags: source server, kind.
    net: ClusterNetwork<(usize, CommKind)>,
    trace: TraceRecorder,
    obs: Option<&'a Obs>,
    /// GPUs per server.
    g: f64,
    /// Bytes each server transmitted.
    tx: Vec<f64>,
}

impl Mesh<'_> {
    /// Starts one flow per ordered server pair, each carrying that pair's
    /// `g²/G` share of a layer's `bytes`; returns how many it started.
    fn mesh(&mut self, bytes: u64, prio: u8, kind: CommKind) -> usize {
        let s = self.tx.len();
        let pair_bytes = self.g * self.g * bytes as f64 / (self.g * s as f64);
        if pair_bytes <= 0.0 {
            return 0;
        }
        let mut started = 0;
        for from in 0..s {
            for to in 0..s {
                if let Some(path) = self.net.server_to_server(from, to) {
                    self.net
                        .net_mut()
                        .start_flow(path, pair_bytes, prio, (from, kind));
                    started += 1;
                }
            }
        }
        started
    }
}

impl Slots for Mesh<'_> {
    type Tag = (usize, CommKind);

    fn net(&mut self) -> &mut FlowNetwork<(usize, CommKind)> {
        self.net.net_mut()
    }

    /// The pairwise gathers of the slot's remote shards.
    fn load(&mut self, _: usize, slot: usize) -> usize {
        let (layer, _) = slot_layer(slot, self.layers.len());
        self.mesh(self.layers[layer].param_bytes, 100, CommKind::ParamGather)
    }

    fn computed(&mut self, _: usize, slot: usize, started: SimTime, now: SimTime) {
        let (layer, backward) = slot_layer(slot, self.layers.len());
        if let Some(obs) = self.obs {
            let name = format!("{} L{layer}", if backward { "bwd" } else { "fwd" });
            for srv in 0..self.tx.len() {
                obs.span(
                    Lane::Server(srv),
                    "compute",
                    name.clone(),
                    started.as_nanos(),
                    now.as_nanos(),
                    vec![("layer", AttrValue::U64(layer as u64))],
                );
            }
        }
        if backward {
            // Reduce-scatter the layer's gradients back to shard owners;
            // does not block the next slot's compute.
            self.mesh(self.layers[layer].grad_bytes, 60, CommKind::GradientReduce);
        }
    }

    fn landed(&mut self, rec: &FlowRecord, (from, kind): (usize, CommKind)) -> Option<usize> {
        self.tx[from] += rec.bytes;
        self.trace.record_flow(rec, kind, &[]);
        (kind == CommKind::ParamGather).then_some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobius_model::{GptConfig, Model};
    use mobius_profiler::Profiler;
    use mobius_topology::{GpuSpec, Topology};

    fn profile() -> ModelProfile {
        Profiler::new(GpuSpec::rtx3090ti()).profile(&Model::from_config(&GptConfig::gpt_3b()), 1)
    }

    fn cluster(n: usize) -> Cluster {
        Cluster::new(Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]), n, 12.5)
    }

    fn strict() -> ClusterZeroConfig {
        ClusterZeroConfig {
            strict_validation: true,
        }
    }

    #[test]
    fn nic_traffic_matches_closed_form() {
        let p = profile();
        for n in [2usize, 4] {
            let rep = simulate_cluster_zero_step(&p, &cluster(n), &strict(), None).unwrap();
            let want = expected_cluster_nic_traffic(&p, &cluster(n));
            assert!(
                (rep.total_nic_bytes - want).abs() <= 1.0f64.max(1e-6 * want),
                "n={n}: {} vs {want}",
                rep.total_nic_bytes
            );
        }
    }

    #[test]
    fn total_traffic_grows_linearly_with_servers() {
        let p = profile();
        let t2 = expected_cluster_nic_traffic(&p, &cluster(2));
        let t4 = expected_cluster_nic_traffic(&p, &cluster(4));
        let t8 = expected_cluster_nic_traffic(&p, &cluster(8));
        // total ∝ S·(S−1)/S = (S−1): t4/t2 = 3, t8/t4 = 7/3.
        assert!((t4 / t2 - 3.0).abs() < 1e-9, "{}", t4 / t2);
        assert!((t8 / t4 - 7.0 / 3.0).abs() < 1e-9, "{}", t8 / t4);
    }

    #[test]
    fn per_server_traffic_saturates() {
        // Per server ≈ 2·g·P·(S−1)/S + …: grows sub-linearly, under 2× the
        // 2-server figure at any scale.
        let p = profile();
        let per = |n: usize| expected_cluster_nic_traffic(&p, &cluster(n)) / n as f64;
        assert!(per(8) < 2.0 * per(2));
        assert!(per(4) > per(2)); // still rising toward the asymptote
    }

    #[test]
    fn degenerate_single_server_has_no_nic_traffic() {
        let p = profile();
        let rep = simulate_cluster_zero_step(&p, &cluster(1), &strict(), None).unwrap();
        assert_eq!(rep.total_nic_bytes, 0.0);
        assert!(rep.step_time > SimTime::ZERO); // compute still happened
    }

    #[test]
    fn more_servers_is_slower_on_the_nic() {
        let p = profile();
        let t = |n: usize| {
            simulate_cluster_zero_step(&p, &cluster(n), &ClusterZeroConfig::default(), None)
                .unwrap()
                .step_time
        };
        assert!(t(4) > t(2), "{} !> {}", t(4), t(2));
    }

    #[test]
    fn server_lanes_appear_in_the_trace() {
        let p = profile();
        let obs = Obs::new();
        simulate_cluster_zero_step(&p, &cluster(2), &strict(), Some(&obs)).unwrap();
        let json = obs.chrome_trace_json();
        assert!(json.contains("\"name\":\"servers\""));
        assert!(json.contains("fwd L0"));
        assert!(json.contains("switch-fabric"));
    }
}
