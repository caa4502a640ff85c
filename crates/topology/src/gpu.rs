//! GPU specifications (the paper's Table 1, plus the V100 used in §4.8).

/// Static description of a GPU model: compute, memory, connectivity, price.
///
/// The numbers mirror Table 1 of the paper plus public spec sheets. They
/// feed the roofline cost model (`mobius-profiler`) and the pricing
/// comparison of Figure 15.
///
/// # Examples
///
/// ```
/// use mobius_topology::GpuSpec;
///
/// let gpu = GpuSpec::rtx3090ti();
/// assert_eq!(gpu.name, "RTX 3090-Ti");
/// assert!(gpu.fp32_tflops > GpuSpec::a100().fp32_tflops); // Table 1
/// assert!(!gpu.gpudirect_p2p);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// On-board memory in bytes.
    pub mem_bytes: u64,
    /// Peak FP32 throughput in TFLOP/s.
    pub fp32_tflops: f64,
    /// Peak FP16/tensor-core throughput in TFLOP/s.
    pub fp16_tflops: f64,
    /// Number of tensor cores.
    pub tensor_cores: u32,
    /// Memory bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// Host-interface (PCIe) bandwidth per direction in GB/s.
    pub pcie_gbps: f64,
    /// NVLink bandwidth per direction in GB/s, when present.
    pub nvlink_gbps: Option<f64>,
    /// Whether GPUDirect peer-to-peer transfers are supported.
    pub gpudirect_p2p: bool,
    /// Retail or effective price in USD.
    pub price_usd: f64,
}

impl GpuSpec {
    /// NVIDIA GeForce RTX 3090-Ti — the commodity GPU of the paper.
    pub fn rtx3090ti() -> Self {
        GpuSpec {
            name: "RTX 3090-Ti",
            mem_bytes: 24 * GIB,
            fp32_tflops: 40.0,
            fp16_tflops: 80.0,
            tensor_cores: 336,
            mem_bw_gbps: 1008.0,
            pcie_gbps: 16.0,
            nvlink_gbps: None,
            gpudirect_p2p: false,
            price_usd: 2_000.0,
        }
    }

    /// NVIDIA A100 (SXM) — the data-center reference of Table 1.
    pub fn a100() -> Self {
        GpuSpec {
            name: "A100",
            mem_bytes: 80 * GIB,
            fp32_tflops: 19.0,
            fp16_tflops: 312.0,
            tensor_cores: 432,
            mem_bw_gbps: 2039.0,
            pcie_gbps: 32.0,
            nvlink_gbps: Some(300.0),
            gpudirect_p2p: true,
            price_usd: 14_000.0,
        }
    }

    /// NVIDIA V100 16 GB — the EC2 P3.8xlarge GPU used in §4.8.
    pub fn v100() -> Self {
        GpuSpec {
            name: "V100",
            mem_bytes: 16 * GIB,
            fp32_tflops: 15.7,
            fp16_tflops: 125.0,
            tensor_cores: 640,
            mem_bw_gbps: 900.0,
            pcie_gbps: 16.0,
            nvlink_gbps: Some(150.0),
            gpudirect_p2p: true,
            price_usd: 10_000.0,
        }
    }

    /// Memory capacity in GiB as a float (convenience for reports).
    pub fn mem_gib(&self) -> f64 {
        self.mem_bytes as f64 / GIB as f64
    }
}

/// One gibibyte.
pub const GIB: u64 = 1 << 30;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_relations_hold() {
        let commodity = GpuSpec::rtx3090ti();
        let dc = GpuSpec::a100();
        // Table 1: 7x price gap, 2x FP32 advantage for the 3090-Ti,
        // similar tensor core counts, no P2P / NVLink on commodity.
        assert!(dc.price_usd / commodity.price_usd >= 7.0);
        assert!(commodity.fp32_tflops / dc.fp32_tflops >= 2.0);
        assert!(commodity.nvlink_gbps.is_none());
        assert!(dc.nvlink_gbps.is_some());
        assert!(!commodity.gpudirect_p2p && dc.gpudirect_p2p);
    }

    #[test]
    fn v100_matches_p3_instance() {
        let v = GpuSpec::v100();
        assert_eq!(v.mem_bytes, 16 * GIB);
        assert!(v.gpudirect_p2p);
    }

    #[test]
    fn mem_gib_roundtrip() {
        assert_eq!(GpuSpec::rtx3090ti().mem_gib(), 24.0);
    }
}
