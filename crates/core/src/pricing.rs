//! Per-step training price (paper §4.8, Figure 15b).
//!
//! The paper prices the data-center run at the EC2 P3.8xlarge on-demand
//! rate and the commodity run at GPU-cloud rental rates (its references
//! \[1\] and \[8\]). Mobius on commodity hardware is ~42 % slower than
//! DeepSpeed on the data-center box but ~43 % cheaper per step.

use mobius_sim::SimTime;
use mobius_topology::{Interconnect, Topology};

/// On-demand hourly price of an EC2 P3.8xlarge (4×V100), USD.
pub const P3_8XLARGE_USD_PER_HOUR: f64 = 12.24;

/// Rental price of a commodity 4×3090-Ti server, USD per hour (GPU-cloud
/// rates in the paper's reference \[8\]).
pub const COMMODITY_4GPU_USD_PER_HOUR: f64 = 5.0;

/// Hourly rental price of a server with `topo`'s GPU count and class.
fn hourly_rate(topo: &Topology) -> f64 {
    let per4 = match topo.interconnect() {
        Interconnect::NvLink => P3_8XLARGE_USD_PER_HOUR,
        Interconnect::PcieOnly => COMMODITY_4GPU_USD_PER_HOUR,
    };
    per4 * topo.num_gpus() as f64 / 4.0
}

/// Price of one training step of duration `step` on `topo`.
pub fn step_price_usd(topo: &Topology, step: SimTime) -> f64 {
    hourly_rate(topo) * step.as_secs_f64() / 3600.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobius_topology::GpuSpec;

    #[test]
    fn commodity_cheaper_per_hour() {
        let c = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
        let dc = Topology::data_center(GpuSpec::v100(), 4);
        assert!(hourly_rate(&c) < hourly_rate(&dc));
    }

    #[test]
    fn rate_scales_with_gpu_count() {
        let four = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
        let eight = Topology::commodity(GpuSpec::rtx3090ti(), &[4, 4]);
        assert!((hourly_rate(&eight) - 2.0 * hourly_rate(&four)).abs() < 1e-9);
    }

    #[test]
    fn step_price_is_linear_in_time() {
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
        let p1 = step_price_usd(&topo, SimTime::from_secs(10));
        let p2 = step_price_usd(&topo, SimTime::from_secs(20));
        assert!((p2 - 2.0 * p1).abs() < 1e-12);
    }

    #[test]
    fn paper_price_tradeoff_shape() {
        // Mobius 42% slower on commodity but cheaper per step than
        // DeepSpeed on the DC box (Figure 15b).
        let c = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
        let dc = Topology::data_center(GpuSpec::v100(), 4);
        let t_dc = SimTime::from_secs_f64(10.0);
        let t_c = SimTime::from_secs_f64(14.2);
        assert!(step_price_usd(&c, t_c) < step_price_usd(&dc, t_dc));
    }
}
