//! Attribution extension: where one simulated step's time goes, per
//! system — critical-path blame by hardware class and COZ-style what-if
//! bounds, both recomputed from the recorded dependency DAG (`mobius-obs`'s
//! analyze engine) rather than re-simulated.
//!
//! Deterministic: min-stage partitions (no wall-clock MIP budget), strict
//! validation on — so every run of this table also re-proves the
//! critical-path identity on each system's DAG — and no wall-clock value
//! enters a cell. `scripts/verify.sh` byte-compares two runs.

use mobius::obs::Obs;
use mobius::{FineTuner, System};
use mobius_model::GptConfig;
use mobius_pipeline::PartitionAlgo;
use mobius_sim::units::ns_to_secs;

use crate::{commodity, fmt_secs, fmt_x, Experiment};

fn pct(part: u64, total: u64) -> String {
    if total == 0 {
        return "-".to_string();
    }
    format!("{:.1}%", part as f64 / total as f64 * 100.0)
}

/// Critical-path blame and what-if bounds per system on one topology.
pub fn blame(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "attribution-blame",
        "Critical-path blame and what-if bounds per system",
        "extension (no paper counterpart): the dependency DAG recorded during \
         simulation reconstructs each step's critical path exactly (the \
         segments tile the step — verified under --strict), attributes it to \
         GPU/PCIe/latency, and bounds the speedup of idealizing one resource \
         class without re-simulating",
    )
    .columns([
        "system",
        "step",
        "gpu",
        "pcie",
        "latency",
        "gpu=ideal",
        "pcie=ideal",
    ]);
    let cfg = if quick {
        GptConfig::gpt_3b()
    } else {
        GptConfig::gpt_8b()
    };
    for system in [System::Gpipe, System::DeepSpeedPipeline, System::Mobius] {
        let obs = Obs::new();
        let run = FineTuner::new(cfg.clone())
            .topology(commodity(&[2, 2]))
            .system(system)
            .partition_algo(PartitionAlgo::MinStage)
            .strict_validation(true)
            .observe(obs.clone())
            .run_step();
        let rep = match run {
            Ok(rep) => rep,
            // Resident baselines can't hold the larger full-mode models on
            // a 24 GB card — the memory-capability point of Fig. 5. The
            // row stays so the table shape is mode-independent.
            Err(mobius::RunError::OutOfMemory(_)) => {
                e.push_row([
                    system.label().to_string(),
                    "OOM".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]);
                continue;
            }
            Err(other) => panic!("pipeline step failed: {other}"),
        };
        let a = obs.analyze().expect("observed runs record a DAG");
        let total = a.total_ns;
        let mut gpu = 0u64;
        let mut pcie = 0u64;
        let mut lat = 0u64;
        for s in &a.steps {
            gpu += s.class_blame.get("gpu").copied().unwrap_or(0);
            pcie += s.class_blame.get("pcie").copied().unwrap_or(0);
            lat += s.class_blame.get("latency").copied().unwrap_or(0);
        }
        let speedup = |class: &str| {
            let w = a.whatif_total_ns.get(class).copied().unwrap_or(total);
            fmt_x(total as f64 / w.max(1) as f64)
        };
        e.push_row([
            rep.system.label().to_string(),
            fmt_secs(ns_to_secs(total as f64)),
            pct(gpu, total),
            pct(pcie, total),
            pct(lat, total),
            speedup("gpu"),
            speedup("pcie"),
        ]);
    }
    e.note(format!(
        "model {}, Topo 2+2, min-stage partition, strict validation; `step` \
         is the DAG's analyzed boundary (unscaled simulator time); what-if \
         columns are upper bounds from re-walking the DAG with that class's \
         occupancies zeroed",
        cfg.name
    ));
    e
}

/// Runs the attribution table.
pub fn run(quick: bool) -> Vec<Experiment> {
    vec![blame(quick)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blame_table_is_deterministic() {
        let a = blame(true);
        let b = blame(true);
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn shares_and_bounds_are_sane() {
        let e = blame(true);
        assert_eq!(e.rows.len(), 3);
        for row in &e.rows {
            // What-if speedups are ≥ 1 (zeroing a resource cannot slow the
            // run) and finite.
            for cell in &row[5..] {
                let x: f64 = cell.trim_end_matches('x').parse().unwrap();
                assert!(x >= 1.0, "{row:?}");
            }
        }
        // GPipe holds every stage resident, so its critical path is almost
        // pure compute; Mobius swaps stages through PCIe, which puts real
        // PCIe time on its path (the contention the paper's cross mapping
        // is about).
        let share =
            |r: &Vec<String>, i: usize| r[i].trim_end_matches('%').parse::<f64>().unwrap_or(0.0);
        assert!(
            share(&e.rows[0], 2) > 80.0,
            "gpipe gpu share {:?}",
            e.rows[0]
        );
        assert!(
            share(&e.rows[2], 3) > share(&e.rows[0], 3),
            "mobius pcie share should exceed gpipe's: {:?} vs {:?}",
            e.rows[2],
            e.rows[0]
        );
        for row in &e.rows {
            let sum = share(row, 2) + share(row, 3) + share(row, 4);
            assert!(sum <= 100.5, "shares overflow the step: {row:?}");
        }
    }
}
