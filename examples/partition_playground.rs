//! Partition playground: inspect what the three partition algorithms do to
//! a model that does not fit in GPU memory, and how well the analytic
//! planner predicts the contention-aware simulation.
//!
//! Run with `cargo run --release --example partition_playground [model]`
//! where model is any `mobius::parse_model` preset, e.g. 3b / 8b / 15b
//! (default 51b — the one that truly needs stage swapping).

use mobius_mapping::Mapping;
use mobius_model::{GptConfig, Model};
use mobius_pipeline::{
    evaluate_analytic, partition_model, render_gantt, simulate_step, stage_costs, PartitionAlgo,
    PipelineConfig,
};
use mobius_profiler::Profiler;
use mobius_topology::{GpuSpec, Topology};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "51b".into());
    let model =
        mobius::parse_model(&which).unwrap_or_else(|| Model::from_config(&GptConfig::gpt_51b()));
    let cfg = model.config();
    let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
    let profile = Profiler::new(topo.gpu().clone()).profile(&model, cfg.default_microbatch);
    let pcfg = PipelineConfig::mobius(
        topo.num_gpus(),
        topo.gpu_mem_bytes(),
        topo.avg_gpu_bandwidth(),
    );

    println!(
        "{}: {} layers, {:.1} GB fp16 parameters, {} GPUs x {:.0} GiB\n",
        cfg.name,
        model.num_layers(),
        model.model_size_bytes() as f64 / 1e9,
        topo.num_gpus(),
        topo.gpu().mem_gib(),
    );

    for algo in [
        PartitionAlgo::Mip,
        PartitionAlgo::MaxStage,
        PartitionAlgo::MinStage,
    ] {
        match partition_model(algo, &profile, topo.num_gpus(), &pcfg) {
            Ok(out) => {
                let costs = stage_costs(&profile, &out.partition);
                let mapping = Mapping::cross(&topo, out.partition.num_stages());
                let analytic = evaluate_analytic(&costs, &mapping, &pcfg)
                    .expect("feasible partition evaluates");
                let sim = simulate_step(&costs, &mapping, &topo, &pcfg)
                    .expect("feasible partition simulates");
                let histogram = summarize(out.partition.sizes());
                println!(
                    "{:<10} stages {:>3} {:<24} analytic {:>8} sim {:>8} (gap {:+.1}%)",
                    format!("{algo:?}"),
                    out.partition.num_stages(),
                    histogram,
                    analytic.step_time.to_string(),
                    sim.step_time.to_string(),
                    (sim.step_time.as_secs_f64() / analytic.step_time.as_secs_f64() - 1.0) * 100.0,
                );
                if let Some(stats) = out.stats {
                    println!(
                        "{:<10} search: {} leaves evaluated, {} pruned, {:.2}s, complete={}",
                        "",
                        stats.evaluated,
                        stats.pruned,
                        stats.wall_elapsed.secs(),
                        stats.complete
                    );
                }
                if matches!(algo, PartitionAlgo::Mip) {
                    println!("\nschedule (digits = forward stage, letters = backward):");
                    print!("{}", render_gantt(&analytic, &costs, &mapping, 100));
                    println!();
                }
            }
            Err(e) => println!("{algo:?}: infeasible ({e})"),
        }
    }
}

/// Compact "sizes histogram" like `1x2 40x1` (40 stages of one layer…).
fn summarize(sizes: &[usize]) -> String {
    let mut runs: Vec<(usize, usize)> = Vec::new(); // (size, count)
    for &s in sizes {
        match runs.iter_mut().find(|(sz, _)| *sz == s) {
            Some((_, c)) => *c += 1,
            None => runs.push((s, 1)),
        }
    }
    runs.iter()
        .map(|(s, c)| format!("{c}x{s}"))
        .collect::<Vec<_>>()
        .join(" ")
}
