//! Cluster scale-out extension: cross-server NIC traffic and step time as
//! the server count grows, Mobius hierarchical data parallelism vs
//! cluster-scale ZeRO-3.
//!
//! The headline shape: Mobius-DP synchronizes gradients with a ring
//! all-reduce, so each server's NIC traffic is `2·(n−1)/n · grad` — flat
//! (bounded by `2·grad`) no matter how many servers join. Cluster-ZeRO
//! shards parameters across every GPU of every server, so its *total* NIC
//! traffic grows linearly in the server count (`≈ 3·g·P·(S−1)` for `g`
//! GPUs per server), several times more than the gradient-sized bytes the
//! ring moves.
//!
//! Deterministic: min-stage partition, pinned microbatches, no random
//! draws and no wall-clock in any cell. `scripts/verify.sh` byte-compares
//! the JSON of two runs.

use mobius::{ClusterConfig, FineTuner, System};
use mobius_model::GptConfig;
use mobius_pipeline::PartitionAlgo;
use mobius_topology::COMMODITY_NIC_GBPS;

use crate::{commodity, fmt_gb, fmt_secs, Experiment};

fn tuner(cfg: &GptConfig, system: System) -> FineTuner {
    FineTuner::new(cfg.clone())
        .topology(commodity(&[2, 2]))
        .system(system)
        .partition_algo(PartitionAlgo::MinStage)
        .num_microbatches(4)
        .strict_validation(true)
}

/// One row of the sweep: both systems at `servers` servers.
struct ScalingPoint {
    mobius_step: f64,
    mobius_per_server: f64,
    mobius_total: f64,
    zero_step: f64,
    zero_per_server: f64,
    zero_total: f64,
}

fn nic_stats(rep: &mobius::StepReport) -> (f64, f64) {
    match &rep.cluster {
        Some(cl) => {
            let total: f64 = cl.servers.iter().map(|s| s.nic_tx_bytes).sum();
            let per = cl
                .servers
                .iter()
                .map(|s| s.nic_tx_bytes)
                .fold(0.0, f64::max);
            (per, total)
        }
        None => (0.0, 0.0),
    }
}

fn measure(cfg: &GptConfig, servers: usize) -> ScalingPoint {
    let cluster = ClusterConfig::new(servers, COMMODITY_NIC_GBPS);
    let mobius = tuner(cfg, System::Mobius)
        .cluster(cluster)
        .run_step()
        .expect("mobius cluster step");
    let zero = tuner(cfg, System::DeepSpeedHetero)
        .cluster(cluster)
        .run_step()
        .expect("cluster-zero step");
    let (m_per, m_total) = nic_stats(&mobius);
    let (z_per, z_total) = nic_stats(&zero);
    ScalingPoint {
        mobius_step: mobius.step_time.as_secs_f64(),
        mobius_per_server: m_per,
        mobius_total: m_total,
        zero_step: zero.step_time.as_secs_f64(),
        zero_per_server: z_per,
        zero_total: z_total,
    }
}

/// The scale-out sweep: both systems at 1, 2, 4 (and 8) servers.
pub fn sweep(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "cluster-scaling",
        "Cross-server NIC traffic vs server count (Mobius-DP vs cluster-ZeRO)",
        "extension (no paper counterpart): ring all-reduce keeps Mobius's \
         per-server NIC traffic flat below 2x the gradient bytes while \
         cluster-ZeRO's total traffic grows linearly with the server count",
    )
    .columns([
        "servers",
        "mobius step",
        "mobius NIC/srv",
        "mobius NIC total",
        "zero step",
        "zero NIC/srv",
        "zero NIC total",
    ]);
    let cfg = if quick {
        GptConfig::gpt_3b()
    } else {
        GptConfig::gpt_8b()
    };
    let counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    for &n in counts {
        let p = measure(&cfg, n);
        e.push_row([
            n.to_string(),
            fmt_secs(p.mobius_step),
            fmt_gb(p.mobius_per_server),
            fmt_gb(p.mobius_total),
            fmt_secs(p.zero_step),
            fmt_gb(p.zero_per_server),
            fmt_gb(p.zero_total),
        ]);
    }
    e.note(format!(
        "model {}, Topo 2+2 per server, {COMMODITY_NIC_GBPS} GB/s NICs, \
         non-blocking switch, min-stage partition",
        cfg.name
    ));
    e
}

/// Runs the scale-out table.
pub fn run(quick: bool) -> Vec<Experiment> {
    vec![sweep(quick)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic() {
        let a = sweep(true);
        let b = sweep(true);
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn mobius_per_server_traffic_stays_flat() {
        let cfg = GptConfig::gpt_3b();
        let p2 = measure(&cfg, 2);
        let p4 = measure(&cfg, 4);
        // Ring identity: 2·(n−1)/n · grad — the 4-server figure is exactly
        // 1.5× the 2-server one, and both stay under 2× the gradient bytes.
        let ratio = p4.mobius_per_server / p2.mobius_per_server;
        assert!((ratio - 1.5).abs() < 1e-6, "per-server ratio {ratio}");
        assert!(p4.mobius_per_server < 2.0 * p2.mobius_per_server);
    }

    #[test]
    fn zero_total_traffic_grows_linearly() {
        let cfg = GptConfig::gpt_3b();
        let p2 = measure(&cfg, 2);
        let p4 = measure(&cfg, 4);
        // Total cluster-ZeRO NIC traffic ∝ (S−1): 4 servers = 3× 2 servers.
        let ratio = p4.zero_total / p2.zero_total;
        assert!((ratio - 3.0).abs() < 1e-6, "total ratio {ratio}");
        // And it exceeds the ring's gradient-sized traffic by
        // g·(2P+G)/(2G) ≈ 6× for 4 GPUs per server.
        assert!(p4.zero_total > 4.0 * p4.mobius_total);
    }

    #[test]
    fn one_server_rows_have_no_nic_traffic() {
        let p = measure(&GptConfig::gpt_3b(), 1);
        assert_eq!(p.mobius_total, 0.0);
        assert_eq!(p.zero_total, 0.0);
        assert!(p.mobius_step > 0.0 && p.zero_step > 0.0);
    }
}
