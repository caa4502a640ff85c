//! # mobius
//!
//! A reproduction of **"Mobius: Fine Tuning Large-Scale Models on Commodity
//! GPU Servers"** (ASPLOS 2023) as a Rust library.
//!
//! Mobius fine-tunes models that do not fit in GPU memory on PCIe-only
//! commodity servers by (1) a heterogeneous-memory pipeline that swaps
//! stages between DRAM and GPUs with prefetching, (2) a mixed-integer
//! partition algorithm balancing compute against communication, and (3) a
//! topology-aware *cross mapping* that keeps adjacent stages off shared CPU
//! root complexes.
//!
//! This crate is the facade over the workspace: build a [`FineTuner`],
//! pick a [`System`], and run simulated training steps with full
//! contention modelling. Sub-crates are re-exported for direct access.
//!
//! # Quickstart
//!
//! ```
//! use mobius::{FineTuner, System};
//! use mobius_model::GptConfig;
//! use mobius_topology::{GpuSpec, Topology};
//!
//! let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
//!
//! let mobius = FineTuner::new(GptConfig::gpt_8b())
//!     .topology(topo.clone())
//!     .system(System::Mobius)
//!     .run_step()?;
//! let deepspeed = FineTuner::new(GptConfig::gpt_8b())
//!     .topology(topo)
//!     .system(System::DeepSpeedHetero)
//!     .run_step()?;
//!
//! // The headline result: Mobius is severalfold faster on commodity
//! // servers (the paper reports 3.8–5.1x).
//! assert!(mobius.step_time < deepspeed.step_time);
//! # Ok::<(), mobius::RunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod error;
mod finetuner;
pub mod fingerprint;
pub mod pricing;
mod resilience;
mod topo_spec;

pub use checkpoint::{
    run_checkpointed, CheckpointOpts, CkptRunError, RunOutcome, RunSinks, RunSummary,
};
pub use error::{OomCause, RunError};
pub use finetuner::{
    ClusterConfig, ClusterStepReport, FineTuner, Overheads, Plan, ServerStepBreakdown, StepReport,
    System,
};
pub use resilience::{Degradation, DegradeAction};
pub use topo_spec::{parse_model, parse_system, parse_topology, TopoSpecError, MAX_SERVER_GPUS};

// Re-export the sub-crates so downstream users need a single dependency.
pub use mobius_ckpt as ckpt;
pub use mobius_cluster as cluster;
pub use mobius_mapping as mapping;
pub use mobius_model as model;
pub use mobius_obs as obs;
pub use mobius_pipeline as pipeline;
pub use mobius_profiler as profiler;
pub use mobius_sim as sim;
pub use mobius_tensor as tensor;
pub use mobius_topology as topology;
pub use mobius_zero as zero;
