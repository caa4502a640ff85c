//! Topology explorer: the workload of a practitioner deciding which shared
//! server slice to rent. Sweeps GPU allocations (the paper's Topo 4, 1+3,
//! 2+2 plus an 8-GPU box and the NVLink alternative) and reports per-step
//! time, price, and communication health for each system.
//!
//! Run with `cargo run --release --example topology_explorer`.

use mobius::{FineTuner, RunError, System};
use mobius_model::GptConfig;
use mobius_topology::{GpuSpec, Topology};

fn main() {
    let model = GptConfig::gpt_8b();
    let servers: Vec<Topology> = vec![
        Topology::commodity(GpuSpec::rtx3090ti(), &[4]),
        Topology::commodity(GpuSpec::rtx3090ti(), &[1, 3]),
        Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]),
        Topology::commodity(GpuSpec::rtx3090ti(), &[4, 4]),
        Topology::data_center(GpuSpec::v100(), 4),
    ];
    println!(
        "{:<18} {:<18} {:>10} {:>12} {:>14} {:>10}",
        "server", "system", "step", "traffic", "median BW", "$/step"
    );
    for topo in &servers {
        for system in [System::Mobius, System::DeepSpeedHetero] {
            let run = FineTuner::new(model.clone())
                .topology(topo.clone())
                .system(system)
                .run_step();
            match run {
                Ok(r) => println!(
                    "{:<18} {:<18} {:>10} {:>10.1}GB {:>11.1}GB/s {:>10.4}",
                    topo.name(),
                    r.system.label(),
                    r.step_time.to_string(),
                    r.traffic_total() / 1e9,
                    r.bandwidth_cdf().median().unwrap_or(0.0),
                    r.price_usd,
                ),
                Err(RunError::OutOfMemory(_)) => {
                    println!("{:<18} {:<18} {:>10}", topo.name(), system.label(), "OOM")
                }
                Err(e) => println!("{:<18} {:<18} error: {e}", topo.name(), system.label()),
            }
        }
    }
    println!(
        "\nTakeaway: on PCIe-only boxes Mobius wins regardless of the \
         root-complex split; on the NVLink box DeepSpeed's all-to-all is \
         at home — but look at the price column."
    );
}
