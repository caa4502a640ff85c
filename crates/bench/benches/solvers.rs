//! Criterion micro-benchmarks for the optimization machinery: the simplex
//! LP kernel, the branch-and-bound MIP, the segmentation search used by the
//! MIP partitioner, and the cross-mapping permutation search.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mobius_mapping::Mapping;
use mobius_mip::{chain_partition_dp, chain_partition_mip, Cmp, Lp, Sense};
use mobius_model::{GptConfig, Model};
use mobius_pipeline::{mip_partition_opts, MipPartitionOpts, PipelineConfig};
use mobius_profiler::Profiler;
use mobius_topology::{GpuSpec, Topology};

fn bench_simplex(c: &mut Criterion) {
    // A dense random-ish LP with 20 vars and 30 constraints.
    let n = 20;
    let mut lp = Lp::new(n, Sense::Maximize);
    let obj: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    lp.set_objective(&obj);
    for r in 0..30 {
        let row: Vec<f64> = (0..n)
            .map(|i| ((i * 7 + r * 3) % 11) as f64 / 10.0 + 0.1)
            .collect();
        lp.add_constraint(&row, Cmp::Le, 50.0 + r as f64);
    }
    c.bench_function("simplex_20x30", |b| {
        b.iter(|| std::hint::black_box(lp.solve()))
    });
}

fn bench_mip(c: &mut Criterion) {
    c.bench_function("chain_partition_mip_6x3", |b| {
        let w = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        b.iter(|| std::hint::black_box(chain_partition_mip(&w, 3)))
    });
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
        budget: Some(Duration::from_millis(100)),
        warm_start: None,
    };
    c.bench_function("mip_partition_8b_100ms_budget", |b| {
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
    targets = bench_simplex, bench_mip, bench_partition_search, bench_cross_mapping
}
criterion_main!(benches);
