//! Server topologies: which GPUs hang off which CPU root complex, and
//! whether a high-bandwidth NVLink fabric exists.

use std::fmt;

use crate::GpuSpec;

/// Measured usable bandwidth of one CPU root complex in GB/s.
///
/// The paper reports a maximum measured bandwidth of 13.1 GB/s through a
/// root complex (§4.2, Figure 7) even though the PCIe 3.0 x16 lane nominally
/// carries 16 GB/s.
pub const ROOT_COMPLEX_GBPS: f64 = 13.1;

/// Interconnect class of a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interconnect {
    /// PCIe only; GPU↔GPU traffic is staged through DRAM (no GPUDirect P2P).
    PcieOnly,
    /// PCIe to host plus an NVLink fabric between GPUs with GPUDirect P2P.
    NvLink,
}

/// A GPU server: a GPU model, a grouping of GPUs under CPU root complexes,
/// and an interconnect class.
///
/// The paper's topologies are spelled `Topo 4` (all four GPUs under one
/// root complex), `Topo 2+2`, and `Topo 1+3`; they are built with
/// [`Topology::commodity`] by passing the group sizes.
///
/// # Examples
///
/// ```
/// use mobius_topology::{GpuSpec, Topology};
///
/// let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
/// assert_eq!(topo.num_gpus(), 4);
/// assert_eq!(topo.name(), "Topo 2+2");
/// assert!(topo.same_root_complex(0, 1));
/// assert!(!topo.same_root_complex(1, 2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    gpu: GpuSpec,
    groups: Vec<usize>,
    gpu_group: Vec<usize>,
    interconnect: Interconnect,
    ssd_gbps: Option<f64>,
}

impl Topology {
    /// Builds a commodity (PCIe-only) server. `groups[i]` is the number of
    /// GPUs under root complex `i`; GPUs are numbered group by group.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or contains a zero.
    pub fn commodity(gpu: GpuSpec, groups: &[usize]) -> Self {
        Self::build(gpu, groups, Interconnect::PcieOnly)
    }

    /// Builds a data-center server with `n` GPUs fully connected by NVLink
    /// and GPUDirect P2P, with the host PCIe tree split across two root
    /// complexes (as on EC2 P3 instances).
    ///
    /// # Panics
    ///
    /// Panics if the GPU has no NVLink, or `n == 0`.
    pub fn data_center(gpu: GpuSpec, n: usize) -> Self {
        assert!(
            gpu.nvlink_gbps.is_some() && gpu.gpudirect_p2p,
            "data-center topology requires an NVLink-capable GPU"
        );
        assert!(n > 0, "need at least one GPU");
        let half = n / 2;
        let groups: Vec<usize> = if half == 0 {
            vec![n]
        } else if n.is_multiple_of(2) {
            vec![half, half]
        } else {
            vec![half, n - half]
        };
        Self::build(gpu, &groups, Interconnect::NvLink)
    }

    fn build(gpu: GpuSpec, groups: &[usize], interconnect: Interconnect) -> Self {
        assert!(!groups.is_empty(), "at least one root complex required");
        assert!(groups.iter().all(|&g| g > 0), "empty GPU group");
        let mut gpu_group = Vec::new();
        for (gi, &size) in groups.iter().enumerate() {
            gpu_group.extend(std::iter::repeat_n(gi, size));
        }
        Topology {
            gpu,
            groups: groups.to_vec(),
            gpu_group,
            interconnect,
            ssd_gbps: None,
        }
    }

    /// Moves the offload tier from DRAM to an SSD with `gbps` GB/s of
    /// aggregate bandwidth per direction, shared by all GPUs. The paper
    /// confines Mobius to DRAM because "the limited bandwidth of SSDs is a
    /// performance bottleneck on a single server" (§3.1); this extension
    /// lets the claim be measured.
    ///
    /// # Panics
    ///
    /// Panics unless `gbps` is positive and finite.
    pub fn with_ssd_offload(mut self, gbps: f64) -> Self {
        assert!(
            gbps.is_finite() && gbps > 0.0,
            "SSD bandwidth must be positive"
        );
        self.ssd_gbps = Some(gbps);
        self
    }

    /// Bandwidth of the SSD offload tier, if one is configured.
    pub fn ssd_gbps(&self) -> Option<f64> {
        self.ssd_gbps
    }

    /// The surviving topology after GPU `g` dies: its root-complex group
    /// shrinks by one and an emptied group is dropped, so the remaining
    /// GPUs renumber contiguously (the elastic-replan input after a
    /// failure). Interconnect class and SSD offload carry over. Returns
    /// `None` when `g` is out of range or it was the last GPU.
    pub fn without_gpu(&self, g: usize) -> Option<Topology> {
        if g >= self.num_gpus() || self.num_gpus() == 1 {
            return None;
        }
        let mut groups = self.groups.clone();
        groups[self.gpu_group[g]] -= 1;
        let groups: Vec<usize> = groups.into_iter().filter(|&s| s > 0).collect();
        let mut t = Self::build(self.gpu.clone(), &groups, self.interconnect);
        t.ssd_gbps = self.ssd_gbps;
        Some(t)
    }

    /// The GPU model installed in this server.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Total number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.gpu_group.len()
    }

    /// Number of CPU root complexes.
    pub fn num_root_complexes(&self) -> usize {
        self.groups.len()
    }

    /// Sizes of the root-complex groups.
    pub fn groups(&self) -> &[usize] {
        &self.groups
    }

    /// Interconnect class.
    pub fn interconnect(&self) -> Interconnect {
        self.interconnect
    }

    /// Index of the root complex GPU `g` hangs off.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn root_complex_of(&self, g: usize) -> usize {
        self.gpu_group[g]
    }

    /// Whether two GPUs share a CPU root complex.
    pub fn same_root_complex(&self, a: usize, b: usize) -> bool {
        self.gpu_group[a] == self.gpu_group[b]
    }

    /// The `shared(i, j)` term of the paper's Equation 12: the number of
    /// GPUs under the root complex shared by GPUs `a` and `b`, or 0 when
    /// they are under different root complexes.
    pub fn shared(&self, a: usize, b: usize) -> usize {
        if self.same_root_complex(a, b) {
            self.groups[self.gpu_group[a]]
        } else {
            0
        }
    }

    /// Human name in the paper's style: `Topo 4`, `Topo 2+2`, `Topo 1+3`.
    pub fn name(&self) -> String {
        let mut name = String::new();
        self.write_name(&mut name)
            .expect("writing to a String cannot fail");
        name
    }

    /// Writes [`Topology::name`] to `out` without allocating.
    ///
    /// # Errors
    ///
    /// Whatever `out` returns.
    pub fn write_name(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str(match self.interconnect {
            Interconnect::PcieOnly => "Topo ",
            Interconnect::NvLink => "DC ",
        })?;
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                out.write_char('+')?;
            }
            write!(out, "{g}")?;
        }
        match self.interconnect {
            Interconnect::PcieOnly => Ok(()),
            Interconnect::NvLink => out.write_str(" (NVLink)"),
        }
    }

    /// Per-GPU memory capacity in bytes.
    pub fn gpu_mem_bytes(&self) -> u64 {
        self.gpu.mem_bytes
    }

    /// The average DRAM↔GPU bandwidth a single uncontended transfer sees, in
    /// bytes/second — the `B` constant of the paper's MIP (Table 2).
    pub fn avg_gpu_bandwidth(&self) -> f64 {
        self.gpu.pcie_gbps.min(ROOT_COMPLEX_GBPS) * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commodity_grouping() {
        let t = Topology::commodity(GpuSpec::rtx3090ti(), &[1, 3]);
        assert_eq!(t.name(), "Topo 1+3");
        assert_eq!(t.root_complex_of(0), 0);
        assert_eq!(t.root_complex_of(1), 1);
        assert_eq!(t.root_complex_of(3), 1);
        assert_eq!(t.shared(1, 2), 3);
        assert_eq!(t.shared(0, 1), 0);
        assert_eq!(t.shared(0, 0), 1);
    }

    #[test]
    fn topo4_everyone_shares() {
        let t = Topology::commodity(GpuSpec::rtx3090ti(), &[4]);
        assert_eq!(t.name(), "Topo 4");
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(t.shared(a, b), 4);
            }
        }
    }

    #[test]
    fn data_center_splits_host_tree() {
        let t = Topology::data_center(GpuSpec::v100(), 4);
        assert_eq!(t.num_gpus(), 4);
        assert_eq!(t.groups(), &[2, 2]);
        assert_eq!(t.interconnect(), Interconnect::NvLink);
        assert!(t.name().contains("NVLink"));
    }

    #[test]
    fn data_center_odd_count() {
        let t = Topology::data_center(GpuSpec::v100(), 5);
        assert_eq!(t.groups(), &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "NVLink-capable")]
    fn data_center_requires_nvlink() {
        Topology::data_center(GpuSpec::rtx3090ti(), 4);
    }

    #[test]
    #[should_panic(expected = "empty GPU group")]
    fn zero_group_rejected() {
        Topology::commodity(GpuSpec::rtx3090ti(), &[2, 0]);
    }

    #[test]
    fn ssd_builder_records_bandwidth() {
        let t = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
        assert_eq!(t.ssd_gbps(), None);
        let t = t.with_ssd_offload(3.5);
        assert_eq!(t.ssd_gbps(), Some(3.5));
    }

    #[test]
    #[should_panic(expected = "SSD bandwidth")]
    fn ssd_zero_bandwidth_rejected() {
        Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]).with_ssd_offload(0.0);
    }

    #[test]
    fn avg_bandwidth_capped_by_root_complex() {
        let t = Topology::commodity(GpuSpec::rtx3090ti(), &[4]);
        assert_eq!(t.avg_gpu_bandwidth(), ROOT_COMPLEX_GBPS * 1e9);
    }

    #[test]
    fn without_gpu_shrinks_the_group_and_renumbers() {
        let t = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
        let s = t.without_gpu(1).expect("GPU 1 exists");
        assert_eq!(s.num_gpus(), 3);
        assert_eq!(s.groups(), &[1, 2]);
        assert_eq!(s.interconnect(), t.interconnect());
        // Survivors renumber contiguously: old GPUs 2 and 3 are now 1 and
        // 2, still sharing their root complex.
        assert!(s.same_root_complex(1, 2));
        assert!(!s.same_root_complex(0, 1));
    }

    #[test]
    fn without_gpu_drops_an_emptied_group() {
        let t = Topology::commodity(GpuSpec::rtx3090ti(), &[1, 3]);
        let s = t.without_gpu(0).expect("GPU 0 exists");
        assert_eq!(s.groups(), &[3]);
        assert_eq!(s.num_root_complexes(), 1);
    }

    #[test]
    fn without_gpu_refuses_the_last_gpu_and_bad_indices() {
        let t = Topology::commodity(GpuSpec::rtx3090ti(), &[1]);
        assert!(t.without_gpu(0).is_none(), "cannot lose the last GPU");
        let t = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
        assert!(t.without_gpu(4).is_none(), "out of range");
    }

    #[test]
    fn without_gpu_preserves_ssd_tier() {
        let t = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]).with_ssd_offload(3.5);
        let s = t.without_gpu(3).unwrap();
        assert_eq!(s.ssd_gbps(), Some(3.5));
    }
}
