//! Figure 16: GPU↔CPU communication bandwidth CDF on the data-center
//! server (§4.8): NVLink absorbs the all-to-all, so the contention gap
//! between DeepSpeed and Mobius narrows — but Mobius still contends less.

use mobius::{FineTuner, System};
use mobius_model::GptConfig;
use mobius_sim::{Cdf, CommKind};

use crate::{cdf_cells, data_center, Experiment};

/// The PCIe-only (GPU↔CPU) bandwidth CDF of a system on the DC server.
fn host_cdf(system: System) -> Cdf {
    let report = FineTuner::new(GptConfig::gpt_8b())
        .topology(data_center())
        .system(system)
        .microbatch_size(2)
        .run_step()
        .expect("both systems run on the DC server");
    // Restrict to host transfers: stage/param movement and offloads, not
    // NVLink activation hops.
    let mut samples: Vec<mobius_sim::BandwidthSample> = Vec::new();
    for kind in [
        CommKind::StageUpload,
        CommKind::ParamGather,
        CommKind::ActivationOffload,
        CommKind::ActivationUpload,
        CommKind::GradientOffload,
        CommKind::GradientReduce,
    ] {
        samples.extend(
            report
                .trace
                .samples()
                .iter()
                .filter(|s| s.kind == kind && s.gbps < 50.0),
        );
    }
    Cdf::from_samples(samples.iter())
}

/// Regenerates Figure 16.
pub fn run(_quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "fig16",
        "GPU-CPU bandwidth CDF on the data-center server",
        "the contention gap between DeepSpeed and Mobius narrows on NVLink \
         hardware, but Mobius's host traffic still sees less contention",
    )
    .columns([
        "system",
        "median GB/s",
        "bytes <= half peak",
        "bytes > 12 GB/s",
    ]);
    for system in [System::DeepSpeedHetero, System::Mobius] {
        let cdf = host_cdf(system);
        let cells = cdf_cells(&cdf);
        let mut row = vec![match system {
            System::DeepSpeedHetero => "DeepSpeed".to_string(),
            _ => "Mobius".to_string(),
        }];
        row.extend(cells);
        e.push_row(row);
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobius_host_traffic_less_contended() {
        let ds = host_cdf(System::DeepSpeedHetero);
        let mb = host_cdf(System::Mobius);
        let (dsm, mbm) = (ds.median().unwrap_or(0.0), mb.median().unwrap_or(0.0));
        assert!(
            mbm >= dsm * 0.95,
            "Mobius host median {mbm:.1} GB/s vs DeepSpeed {dsm:.1} GB/s"
        );
    }
}
