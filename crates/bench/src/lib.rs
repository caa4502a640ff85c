//! # mobius-bench
//!
//! The experiment harness: one module per table and figure of the Mobius
//! paper's evaluation (§4), each regenerating the corresponding result on
//! the simulated substrate. The `mobius-bench` binary runs one by name
//! (`mobius-bench fig05`) from the table in [`experiments::ENTRIES`];
//! `mobius-bench all` regenerates everything and writes the markdown
//! digest behind `EXPERIMENTS.md`.
//!
//! Each experiment returns a structured [`Experiment`] so tests can assert
//! the paper's qualitative claims (who wins, by roughly what factor, where
//! crossovers fall) rather than scrape stdout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod report;

pub use report::{fmt_gb, fmt_secs, fmt_x, render_json_report, Experiment, REPORT_SCHEMA_VERSION};

use mobius_sim::Cdf;
use mobius_topology::{GpuSpec, Topology, ROOT_COMPLEX_GBPS};

/// A commodity 4×3090-Ti server with the given root-complex grouping.
pub fn commodity(groups: &[usize]) -> Topology {
    Topology::commodity(GpuSpec::rtx3090ti(), groups)
}

/// The paper's three 4-GPU topologies, most- to least-contended.
pub fn paper_topologies() -> Vec<Topology> {
    vec![commodity(&[4]), commodity(&[1, 3]), commodity(&[2, 2])]
}

/// The EC2 P3.8xlarge-like data-center server (§4.8).
pub fn data_center() -> Topology {
    Topology::data_center(GpuSpec::v100(), 4)
}

/// Summary cells for a bandwidth CDF: median, fraction of bytes at or below
/// half the root-complex peak, and fraction above 12 GB/s (near peak).
pub fn cdf_cells(cdf: &Cdf) -> [String; 3] {
    let half = ROOT_COMPLEX_GBPS / 2.0;
    let median = cdf
        .median()
        .map_or_else(|| "-".into(), |m| format!("{m:.1}"));
    [
        median,
        format!("{:.0}%", cdf.fraction_at(half) * 100.0),
        format!("{:.0}%", (1.0 - cdf.fraction_at(12.0)) * 100.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobius_sim::{BandwidthSample, CommKind};

    #[test]
    fn topologies_have_four_gpus() {
        for t in paper_topologies() {
            assert_eq!(t.num_gpus(), 4);
        }
        assert_eq!(data_center().num_gpus(), 4);
    }

    #[test]
    fn cdf_cells_formats() {
        let samples = [BandwidthSample {
            bytes: 1e9,
            seconds: 0.1,
            gbps: 10.0,
            kind: CommKind::Other,
        }];
        let cdf = Cdf::from_samples(samples.iter());
        let cells = cdf_cells(&cdf);
        assert_eq!(cells[0], "10.0");
        assert_eq!(cells[1], "0%");
        assert_eq!(cells[2], "0%");
    }
}
