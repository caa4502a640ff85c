//! # mobius-pipeline
//!
//! The Mobius pipeline (§3 of the ASPLOS '23 paper): heterogeneous-memory
//! pipeline parallelism with stage swapping and prefetching.
//!
//! * [`Partition`] / [`StageCosts`] — stages as contiguous layer ranges
//!   with aggregated time/byte costs.
//! * [`evaluate_analytic`] — the paper's MIP constraints (4)–(11) as a fast
//!   deterministic schedule evaluator (no contention).
//! * [`partition_model`] — the MIP partition algorithm (an exact
//!   branch-and-bound over contiguous layer segmentations, standing in for
//!   the paper's Gurobi solve) plus the maximum-stage and minimum-stage
//!   baselines of §4.3.
//! * [`simulate_step`] — event-driven execution on a simulated server with
//!   root-complex contention, prefetch priorities, and full tracing.
//! * [`plan_gpipe`] — the GPipe baseline (GPU-memory-only), including its
//!   OOM behaviour, balanced by the min-max [`chain_partition_dp`].
//!
//! # Example
//!
//! ```
//! use mobius_mapping::Mapping;
//! use mobius_model::{GptConfig, Model};
//! use mobius_pipeline::{
//!     partition_model, simulate_step, stage_costs, PartitionAlgo, PipelineConfig,
//! };
//! use mobius_profiler::Profiler;
//! use mobius_topology::{GpuSpec, Topology};
//!
//! let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
//! let model = Model::from_config(&GptConfig::gpt_8b());
//! let profile = Profiler::new(topo.gpu().clone()).profile(&model, 2);
//! let cfg = PipelineConfig::mobius(4, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth());
//!
//! let out = partition_model(PartitionAlgo::MinStage, &profile, 4, &cfg)?;
//! let costs = stage_costs(&profile, &out.partition);
//! let mapping = Mapping::cross(&topo, out.partition.num_stages());
//! let report = simulate_step(&costs, &mapping, &topo, &cfg)?;
//! assert!(report.step_time.as_secs_f64() > 0.0);
//! # Ok::<(), mobius_pipeline::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops are intentional in the dense numeric kernels: the index
// couples multiple arrays and the iterator forms obscure the math.
#![allow(clippy::needless_range_loop)]

mod analytic;
mod executor;
mod gantt;
mod gpipe;
mod one_f_one_b;
mod partitioner;
mod stage;
mod validate;

pub use analytic::{
    evaluate_analytic, AnalyticSchedule, MemoryMode, PipelineConfig, ScheduleError,
    TrafficEstimate, DEFAULT_ACT_LATENCY, DEFAULT_SWAP_OVERHEAD,
};
pub use executor::{
    simulate_step, simulate_step_traced, simulate_steps_faulted, simulate_steps_traced, ExecError,
    MultiStepReport, SimStepReport,
};
pub use gantt::{render_gantt, utilization};
pub use gpipe::{chain_partition_dp, plan_gpipe, GpipePlan};
pub use one_f_one_b::{evaluate_1f1b, OneFOneBSchedule};
pub use partitioner::{
    mip_partition_opts, partition_model, MipPartitionOpts, PartitionAlgo, PartitionOutcome,
    SearchStats, PLAN_NODE_BUDGET,
};
pub use stage::{stage_costs, Partition, StageCosts};
pub use validate::{
    check_differential, ScheduleValidator, ScheduleViolation, DIFFERENTIAL_RATIO_BAND,
};
