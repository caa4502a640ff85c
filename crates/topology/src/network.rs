//! Instantiating a [`Topology`] as a live [`FlowNetwork`].
//!
//! Every PCIe segment is modelled as a pair of simplex links (PCIe and
//! NVLink are full duplex), so a parameter prefetch (DRAM→GPU) does not
//! contend with an activation offload (GPU→DRAM). The shared bottleneck of a
//! commodity server — the CPU root-complex uplink — is one link per
//! direction per root complex.

use mobius_sim::{FlowNetwork, LinkId};

use crate::{Interconnect, Topology, ROOT_COMPLEX_GBPS};

/// A topology realized as links in a [`FlowNetwork`] whose flows carry
/// `T` tags, with path lookup.
///
/// # Examples
///
/// ```
/// use mobius_topology::{GpuSpec, ServerNetwork, Topology};
///
/// let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
/// let mut server = ServerNetwork::new(&topo);
/// let path = server.dram_to_gpu(0);
/// assert_eq!(path.len(), 2); // root-complex downlink + GPU lane
/// let f = server.net_mut().start_flow(path, 1.0e9, 0, 0);
/// assert!(server.net_mut().rate_of(f).unwrap() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ServerNetwork<T = u64> {
    net: FlowNetwork<T>,
    topo: Topology,
    // Per GPU: PCIe lane, one link per direction.
    lane_h2d: Vec<LinkId>, // host (DRAM) -> device
    lane_d2h: Vec<LinkId>,
    // Per root complex: uplink to the memory system, per direction.
    rc_h2d: Vec<LinkId>,
    rc_d2h: Vec<LinkId>,
    // Per GPU NVLink port (only for NVLink interconnects), per direction.
    nv_out: Vec<LinkId>,
    nv_in: Vec<LinkId>,
    // Optional SSD offload tier shared by every GPU, per direction.
    storage_read: Option<LinkId>,
    storage_write: Option<LinkId>,
}

impl<T> ServerNetwork<T> {
    /// Builds the link network for `topo`.
    pub fn new(topo: &Topology) -> Self {
        let mut net = FlowNetwork::new();
        let n = topo.num_gpus();
        let lane_bw = topo.gpu().pcie_gbps * 1e9;
        let rc_bw = ROOT_COMPLEX_GBPS * 1e9;

        let mut lane_h2d = Vec::with_capacity(n);
        let mut lane_d2h = Vec::with_capacity(n);
        for g in 0..n {
            lane_h2d.push(net.add_link(format!("gpu{g}-lane-h2d"), lane_bw));
            lane_d2h.push(net.add_link(format!("gpu{g}-lane-d2h"), lane_bw));
        }
        let mut rc_h2d = Vec::new();
        let mut rc_d2h = Vec::new();
        for r in 0..topo.num_root_complexes() {
            rc_h2d.push(net.add_link(format!("rc{r}-h2d"), rc_bw));
            rc_d2h.push(net.add_link(format!("rc{r}-d2h"), rc_bw));
        }
        let (mut nv_out, mut nv_in) = (Vec::new(), Vec::new());
        if topo.interconnect() == Interconnect::NvLink {
            let nv_bw = topo
                .gpu()
                .nvlink_gbps
                .expect("NvLink interconnect without NVLink GPU")
                * 1e9;
            for g in 0..n {
                nv_out.push(net.add_link(format!("gpu{g}-nv-out"), nv_bw));
                nv_in.push(net.add_link(format!("gpu{g}-nv-in"), nv_bw));
            }
        }
        let (storage_read, storage_write) = match topo.ssd_gbps() {
            Some(gbps) => (
                Some(net.add_link("ssd-read", gbps * 1e9)),
                Some(net.add_link("ssd-write", gbps * 1e9)),
            ),
            None => (None, None),
        };
        ServerNetwork {
            net,
            topo: topo.clone(),
            lane_h2d,
            lane_d2h,
            rc_h2d,
            rc_d2h,
            nv_out,
            nv_in,
            storage_read,
            storage_write,
        }
    }

    /// The topology this network realizes.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Shared access to the flow network. Rate reads settle stale rates,
    /// so they go through [`ServerNetwork::net_mut`].
    pub fn net(&self) -> &FlowNetwork<T> {
        &self.net
    }

    /// Mutable access to the flow network (executors start/complete flows).
    pub fn net_mut(&mut self) -> &mut FlowNetwork<T> {
        &mut self.net
    }

    /// Path for an offload-tier → GPU transfer (parameter upload,
    /// activation upload). With an SSD tier configured the shared storage
    /// read link is the first hop.
    pub fn dram_to_gpu(&self, g: usize) -> Vec<LinkId> {
        let r = self.topo.root_complex_of(g);
        let mut path = Vec::with_capacity(3);
        if let Some(ssd) = self.storage_read {
            path.push(ssd);
        }
        path.push(self.rc_h2d[r]);
        path.push(self.lane_h2d[g]);
        path
    }

    /// Path for a GPU → offload-tier transfer (activation/gradient
    /// offload).
    pub fn gpu_to_dram(&self, g: usize) -> Vec<LinkId> {
        let r = self.topo.root_complex_of(g);
        let mut path = vec![self.lane_d2h[g], self.rc_d2h[r]];
        if let Some(ssd) = self.storage_write {
            path.push(ssd);
        }
        path
    }

    /// Path for a GPU → GPU transfer (activations between pipeline stages),
    /// or `None` when source and destination coincide (a free local move).
    ///
    /// Without GPUDirect P2P the transfer is staged through DRAM, crossing
    /// the *egress* root complex upstream and the *ingress* root complex
    /// downstream — the key contention the paper's cross mapping avoids.
    /// With NVLink the transfer uses the dedicated fabric.
    pub fn gpu_to_gpu(&self, from: usize, to: usize) -> Option<Vec<LinkId>> {
        if from == to {
            return None;
        }
        match self.topo.interconnect() {
            Interconnect::NvLink => Some(vec![self.nv_out[from], self.nv_in[to]]),
            Interconnect::PcieOnly => {
                let rf = self.topo.root_complex_of(from);
                let rt = self.topo.root_complex_of(to);
                Some(vec![
                    self.lane_d2h[from],
                    self.rc_d2h[rf],
                    self.rc_h2d[rt],
                    self.lane_h2d[to],
                ])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuSpec;
    use mobius_sim::SimTime;

    fn commodity22() -> ServerNetwork {
        ServerNetwork::new(&Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]))
    }

    #[test]
    fn lone_transfer_sees_root_complex_cap() {
        let mut s = commodity22();
        let p = s.dram_to_gpu(0);
        let f = s.net_mut().start_flow(p, 100e9, 0, 0);
        assert_eq!(s.net_mut().rate_of(f), Some(ROOT_COMPLEX_GBPS * 1e9));
    }

    #[test]
    fn same_rc_contention_halves_bandwidth() {
        let mut s = commodity22();
        let p0 = s.dram_to_gpu(0);
        let p1 = s.dram_to_gpu(1);
        let f0 = s.net_mut().start_flow(p0, 100e9, 0, 0);
        let f1 = s.net_mut().start_flow(p1, 100e9, 0, 1);
        let half = ROOT_COMPLEX_GBPS / 2.0 * 1e9;
        assert!((s.net_mut().rate_of(f0).unwrap() - half).abs() < 1.0);
        assert!((s.net_mut().rate_of(f1).unwrap() - half).abs() < 1.0);
    }

    #[test]
    fn different_rc_no_contention() {
        let mut s = commodity22();
        let p0 = s.dram_to_gpu(0);
        let p2 = s.dram_to_gpu(2);
        let f0 = s.net_mut().start_flow(p0, 100e9, 0, 0);
        let f2 = s.net_mut().start_flow(p2, 100e9, 0, 1);
        let full = ROOT_COMPLEX_GBPS * 1e9;
        assert!((s.net_mut().rate_of(f0).unwrap() - full).abs() < 1.0);
        assert!((s.net_mut().rate_of(f2).unwrap() - full).abs() < 1.0);
    }

    #[test]
    fn duplex_directions_do_not_contend() {
        let mut s = commodity22();
        let up = s.dram_to_gpu(0);
        let down = s.gpu_to_dram(0);
        let fu = s.net_mut().start_flow(up, 100e9, 0, 0);
        let fd = s.net_mut().start_flow(down, 100e9, 0, 1);
        let full = ROOT_COMPLEX_GBPS * 1e9;
        assert!((s.net_mut().rate_of(fu).unwrap() - full).abs() < 1.0);
        assert!((s.net_mut().rate_of(fd).unwrap() - full).abs() < 1.0);
    }

    #[test]
    fn gpu_to_gpu_staged_through_both_root_complexes() {
        let s = commodity22();
        let path = s.gpu_to_gpu(0, 2).unwrap();
        assert_eq!(path.len(), 4);
        assert!(s.gpu_to_gpu(1, 1).is_none());
    }

    #[test]
    fn p2p_transfer_within_one_rc_still_crosses_it_twice() {
        // GPUs 0 and 1 share rc0: staging through DRAM uses rc0 both ways,
        // but they are different simplex links, so rate is full duplex.
        let mut s = commodity22();
        let path = s.gpu_to_gpu(0, 1).unwrap();
        let f = s.net_mut().start_flow(path, 13.1e9, 0, 0);
        assert!((s.net_mut().rate_of(f).unwrap() - ROOT_COMPLEX_GBPS * 1e9).abs() < 1.0);
    }

    #[test]
    fn nvlink_path_bypasses_pcie() {
        let topo = Topology::data_center(GpuSpec::v100(), 4);
        let mut s = ServerNetwork::new(&topo);
        let path = s.gpu_to_gpu(0, 3).unwrap();
        assert_eq!(path.len(), 2);
        let f = s.net_mut().start_flow(path, 150e9, 0, 0);
        assert!((s.net_mut().rate_of(f).unwrap() - 150e9).abs() < 1.0);
        // It drains a 150 GB payload in one second.
        let (t, _) = s.net_mut().next_completion().unwrap();
        assert_eq!(t, SimTime::from_secs(1));
    }

    #[test]
    fn ssd_tier_appears_in_offload_paths() {
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]).with_ssd_offload(3.0);
        let s: ServerNetwork = ServerNetwork::new(&topo);
        assert_eq!(s.dram_to_gpu(0).len(), 3);
        assert_eq!(s.gpu_to_dram(0).len(), 3);
        // GPU-to-GPU staging does not touch the SSD.
        assert_eq!(s.gpu_to_gpu(0, 2).unwrap().len(), 4);
    }

    #[test]
    fn ssd_is_a_shared_bottleneck_across_root_complexes() {
        // GPUs 0 and 2 sit under different root complexes, but both loads
        // squeeze through the one SSD read link.
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]).with_ssd_offload(4.0);
        let mut s = ServerNetwork::new(&topo);
        let p0 = s.dram_to_gpu(0);
        let p2 = s.dram_to_gpu(2);
        let f0 = s.net_mut().start_flow(p0, 100e9, 0, 0);
        let f2 = s.net_mut().start_flow(p2, 100e9, 0, 1);
        assert!((s.net_mut().rate_of(f0).unwrap() - 2.0e9).abs() < 1.0);
        assert!((s.net_mut().rate_of(f2).unwrap() - 2.0e9).abs() < 1.0);
    }

    #[test]
    fn topo4_four_way_contention() {
        let mut s = ServerNetwork::new(&Topology::commodity(GpuSpec::rtx3090ti(), &[4]));
        let flows: Vec<_> = (0..4)
            .map(|g| {
                let p = s.dram_to_gpu(g);
                s.net_mut().start_flow(p, 100e9, 0, g as u64)
            })
            .collect();
        let quarter = ROOT_COMPLEX_GBPS / 4.0 * 1e9;
        for f in flows {
            assert!((s.net_mut().rate_of(f).unwrap() - quarter).abs() < 1.0);
        }
    }
}
