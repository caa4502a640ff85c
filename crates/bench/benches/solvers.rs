//! Criterion micro-benchmarks for the planner's search kernels: the
//! chain-partition DP, the segmentation search used by the MIP partitioner,
//! and the cross-mapping branch-and-bound.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mobius_mapping::Mapping;
use mobius_model::{GptConfig, Model};
use mobius_pipeline::{chain_partition_dp, mip_partition_opts, MipPartitionOpts, PipelineConfig};
use mobius_profiler::Profiler;
use mobius_topology::{GpuSpec, Topology};

fn bench_dp(c: &mut Criterion) {
    c.bench_function("chain_partition_dp_64x8", |b| {
        let w: Vec<f64> = (0..64).map(|i| 1.0 + (i % 7) as f64).collect();
        b.iter(|| std::hint::black_box(chain_partition_dp(&w, 8)))
    });
}

fn bench_partition_search(c: &mut Criterion) {
    let model = Model::from_config(&GptConfig::gpt_8b());
    let profile = Profiler::new(GpuSpec::rtx3090ti()).profile(&model, 2);
    let cfg = PipelineConfig::mobius(4, 24 * (1u64 << 30), 13.1e9);
    let opts = MipPartitionOpts {
        budgeted: true,
        warm_start: None,
    };
    c.bench_function("mip_partition_8b_node_budget", |b| {
        b.iter(|| std::hint::black_box(mip_partition_opts(&profile, 4, &cfg, &opts, None)))
    });
}

fn bench_cross_mapping(c: &mut Criterion) {
    let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[4, 4]);
    c.bench_function("cross_mapping_8gpus_42stages", |b| {
        b.iter_batched(
            || topo.clone(),
            |t| std::hint::black_box(Mapping::cross(&t, 42)),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3));
    targets = bench_dp, bench_partition_search, bench_cross_mapping
}
criterion_main!(benches);
