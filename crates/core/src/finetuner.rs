//! The high-level API: pick a model, a server, and a system; get a plan
//! and a measured training step.

use mobius_cluster::{simulate_ring_allreduce, ClusterDpConfig, ReplicaTiming};
use mobius_mapping::{Mapping, MappingAlgo};
use mobius_model::{GptConfig, Model};
use mobius_obs::{AttrValue, Lane, Obs, Recording, WallSecs, WallTimer};
use mobius_pipeline::{
    partition_model, plan_gpipe, simulate_steps_faulted, stage_costs, ExecError, MemoryMode,
    MultiStepReport, Partition, PartitionAlgo, PipelineConfig, SearchStats, SimStepReport,
    StageCosts,
};
use mobius_profiler::{ModelProfile, Profiler};
use mobius_sim::{Cdf, FaultAbort, FaultSchedule, FaultStats, SimTime, TraceRecorder};
use mobius_topology::{Cluster, Topology};
use mobius_zero::{
    simulate_cluster_zero_step, simulate_zero_offload_step_traced, simulate_zero_step_traced,
    ClusterZeroConfig, ZeroConfig, DS_PIPELINE_OVERHEAD,
};

use crate::resilience::{Degradation, DegradeAction};
use crate::{pricing, RunError};

/// Which training system to run (the four bars of Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// The paper's system: heterogeneous-memory pipeline with MIP
    /// partitioning and cross mapping.
    Mobius,
    /// GPipe: pipeline parallelism, all parameters resident in GPU memory.
    Gpipe,
    /// DeepSpeed in pipeline-parallel mode (GPU memory only).
    DeepSpeedPipeline,
    /// DeepSpeed ZeRO-3 with heterogeneous memory — the primary baseline.
    DeepSpeedHetero,
    /// ZeRO-Offload (related work \[37\]): optimizer in DRAM, a full FP16
    /// parameter copy on every GPU — bounded by single-GPU memory.
    ZeroOffload,
}

impl System {
    /// Display label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            System::Mobius => "Mobius",
            System::Gpipe => "GPipe",
            System::DeepSpeedPipeline => "DeepSpeed-pipeline",
            System::DeepSpeedHetero => "DeepSpeed-hetero",
            System::ZeroOffload => "ZeRO-Offload",
        }
    }
}

/// Planning overheads (Figure 12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overheads {
    /// Simulated wall-clock cost of profiling the model on hardware, with
    /// layer similarity enabled.
    pub profiling: SimTime,
    /// Diagnostics-only wall-clock of the MIP partition search.
    /// Machine-dependent: never serialized into a byte-compared artifact
    /// (see [`mobius_obs::walltime`]); Figure 12 prints it as an explicitly
    /// wall-clock table.
    pub mip_solve_wall: WallSecs,
    /// Diagnostics-only wall-clock of the cross-mapping search (same
    /// contract as [`Overheads::mip_solve_wall`]).
    pub cross_map_wall: WallSecs,
}

/// Multi-server scale-out configuration: `servers` identical replicas of
/// the configured server topology, joined by per-server NICs through a
/// cluster switch. Mobius runs one pipeline replica per server with a
/// bucketed ring all-reduce for gradients (hierarchical data parallelism);
/// DeepSpeed-hetero shards ZeRO-3 across every GPU of every server.
///
/// A 1-server cluster is treated exactly as no cluster at all, so attaching
/// one cannot perturb a single-server run (bit-identical results).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of servers (each running the configured [`Topology`]).
    pub servers: usize,
    /// Per-server NIC bandwidth in GB/s, each direction.
    pub nic_gbps: f64,
    /// Switch fabric capacity in GB/s; `None` means non-blocking
    /// (`nic_gbps × servers`).
    pub switch_gbps: Option<f64>,
}

impl ClusterConfig {
    /// A cluster of `servers` servers with `nic_gbps` NICs and a
    /// non-blocking switch.
    pub fn new(servers: usize, nic_gbps: f64) -> Self {
        ClusterConfig {
            servers,
            nic_gbps,
            switch_gbps: None,
        }
    }

    /// Caps the switch fabric (models an oversubscribed cluster switch).
    pub fn switch_gbps(mut self, gbps: f64) -> Self {
        self.switch_gbps = Some(gbps);
        self
    }
}

/// One server's share of a cluster step.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStepBreakdown {
    /// The replica's local pipeline (or ZeRO) step time.
    pub local_step: SimTime,
    /// Bytes the server transmitted onto the NIC fabric.
    pub nic_tx_bytes: f64,
    /// Bytes the server received from the NIC fabric.
    pub nic_rx_bytes: f64,
}

/// The cross-server portion of a cluster step: gradient-synchronization
/// timing and per-server NIC accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStepReport {
    /// Servers in the cluster.
    pub num_servers: usize,
    /// When cross-server gradient synchronization finished.
    pub sync_done: SimTime,
    /// FP16 gradient bytes synchronized per server (the `G` of the ring
    /// identity `2·(n−1)/n · G`).
    pub grad_bytes: f64,
    /// Per gradient bucket, when its collective completed (empty for the
    /// ZeRO path, whose collectives are per layer, not per bucket).
    pub bucket_done: Vec<SimTime>,
    /// Per-server breakdown, indexed by server.
    pub servers: Vec<ServerStepBreakdown>,
}

/// A resolved Mobius execution plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The chosen partition.
    pub partition: Partition,
    /// Aggregated per-stage costs.
    pub stages: Vec<StageCosts>,
    /// The stage→GPU mapping.
    pub mapping: Mapping,
    /// Analytic step-time prediction (the partition search objective).
    pub predicted_step: SimTime,
    /// Contention degree of the mapping (Eq. 13).
    pub contention_degree: f64,
    /// Planning overheads.
    pub overheads: Overheads,
    /// Partition-search accounting (evaluated/pruned leaves, warm-start
    /// flag). `None` for non-MIP partition algorithms, whose closed-form
    /// splits evaluate no search tree.
    pub search: Option<SearchStats>,
}

/// The measurements of one simulated training step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Which system produced it.
    pub system: System,
    /// Per-step time (completion of the last backward microbatch for
    /// pipeline systems; full drain for ZeRO, whose all-reduce is
    /// synchronous).
    pub step_time: SimTime,
    /// Time until every transfer drained.
    pub drain_time: SimTime,
    /// Transfers, traffic and overlap recorded during the step.
    pub trace: TraceRecorder,
    /// Price of this step at the server's rental rate (Figure 15b).
    pub price_usd: f64,
    /// FP16 parameter bytes of the model (the "model size" reference).
    pub model_size_bytes: u64,
    /// Fault-injection accounting, summed over every attempt of the step
    /// (aborted attempts included). All zeros when no schedule is attached.
    pub faults: FaultStats,
    /// Recovery steps taken to complete this step under
    /// [`FineTuner::recover`], in the order taken. Empty when the step ran
    /// as configured.
    pub degradations: Vec<Degradation>,
    /// Cross-server accounting of a multi-server run. `None` for
    /// single-server runs (including a configured 1-server cluster).
    pub cluster: Option<ClusterStepReport>,
    /// Partition-search accounting of the plan the step ran on ([`Plan::search`]).
    /// `None` when no partition search ran (non-Mobius systems, non-MIP
    /// partition algorithms, or a step degraded to ZeRO-hetero).
    pub search: Option<SearchStats>,
}

impl StepReport {
    /// Total PCIe/NVLink bytes moved in the step.
    pub fn traffic_total(&self) -> f64 {
        self.trace.total_traffic()
    }

    /// Traffic as a multiple of the FP16 model size (Figure 6's ratio;
    /// DeepSpeed lands around `3·N×`, Mobius around `2–3×`).
    pub fn traffic_ratio(&self) -> f64 {
        self.traffic_total() / self.model_size_bytes as f64
    }

    /// Byte-weighted bandwidth CDF of all transfers (Figures 2, 7, 11, 16).
    pub fn bandwidth_cdf(&self) -> Cdf {
        self.trace.bandwidth_cdf()
    }

    /// Fraction of the step that is communication not overlapped by
    /// computation, averaged over GPUs (Figure 8).
    pub fn non_overlapped_fraction(&self) -> f64 {
        self.trace.non_overlapped_comm_fraction(self.step_time)
    }
}

/// Builder for planning and running fine-tuning steps.
///
/// # Examples
///
/// ```
/// use mobius::{FineTuner, System};
/// use mobius_model::GptConfig;
/// use mobius_topology::{GpuSpec, Topology};
///
/// let report = FineTuner::new(GptConfig::gpt_8b())
///     .topology(Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]))
///     .system(System::Mobius)
///     .run_step()?;
/// assert!(report.step_time.as_secs_f64() > 0.0);
/// # Ok::<(), mobius::RunError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FineTuner {
    model: Model,
    topo: Topology,
    system: System,
    partition_algo: PartitionAlgo,
    mapping_algo: MappingAlgo,
    microbatch_size: Option<usize>,
    num_microbatches: Option<usize>,
    unbudgeted_solver: bool,
    prefetch: bool,
    prioritized_loads: bool,
    strict_validation: bool,
    obs: Option<Obs>,
    pub(crate) faults: FaultSchedule,
    recover: bool,
    cluster: Option<ClusterConfig>,
    warm_start: Option<Vec<usize>>,
}

impl FineTuner {
    /// Starts a fine-tuner for `model_cfg` with the paper's defaults:
    /// a 4×3090-Ti Topo 2+2 server, the Mobius system, MIP partitioning,
    /// cross mapping, and Table 3's microbatch size.
    pub fn new(model_cfg: GptConfig) -> Self {
        Self::from_model(Model::from_config(&model_cfg))
    }

    /// Starts a fine-tuner for an explicit layer-level [`Model`] (e.g. the
    /// LLaMA presets `Model::llama2_7b()`), with the same defaults.
    pub fn from_model(model: Model) -> Self {
        FineTuner {
            model,
            topo: Topology::commodity(mobius_topology::GpuSpec::rtx3090ti(), &[2, 2]),
            system: System::Mobius,
            partition_algo: PartitionAlgo::Mip,
            mapping_algo: MappingAlgo::Cross,
            microbatch_size: None,
            num_microbatches: None,
            unbudgeted_solver: false,
            prefetch: true,
            prioritized_loads: true,
            strict_validation: false,
            obs: None,
            faults: FaultSchedule::default(),
            recover: false,
            cluster: None,
            warm_start: None,
        }
    }

    /// Sets the server topology.
    pub fn topology(mut self, topo: Topology) -> Self {
        self.topo = topo;
        self
    }

    /// Sets the system to simulate.
    pub fn system(mut self, system: System) -> Self {
        self.system = system;
        self
    }

    /// Sets the partition algorithm (Mobius only).
    pub fn partition_algo(mut self, algo: PartitionAlgo) -> Self {
        self.partition_algo = algo;
        self
    }

    /// Sets the stage→GPU mapping policy (Mobius only).
    pub fn mapping_algo(mut self, algo: MappingAlgo) -> Self {
        self.mapping_algo = algo;
        self
    }

    /// Overrides the microbatch size (default: the model's Table 3 value).
    pub fn microbatch_size(mut self, mbs: usize) -> Self {
        self.microbatch_size = Some(mbs);
        self
    }

    /// Overrides the number of microbatches per step (default: one per
    /// GPU, the paper's `M = N`).
    pub fn num_microbatches(mut self, m: usize) -> Self {
        self.num_microbatches = Some(m);
        self
    }

    /// Runs the MIP partition search to its 2,000,000-node cap instead of
    /// stopping at [`PLAN_NODE_BUDGET`] nodes: slower on big models, and it
    /// may prove optimal a plan the budgeted search only found. Both are
    /// deterministic.
    /// Deliberately excluded from [`Self::config_fingerprint`] — it changes
    /// how long the search runs, never which run the config names (and the
    /// hashed bytes must stay stable for old checkpoints).
    ///
    /// [`PLAN_NODE_BUDGET`]: mobius_pipeline::PLAN_NODE_BUDGET
    pub fn unbudgeted_solver(mut self, on: bool) -> Self {
        self.unbudgeted_solver = on;
        self
    }

    /// Ablation: disables Mobius stage prefetching (every load blocks, §3.1).
    /// The ZeRO baselines always prefetch, as DeepSpeed does.
    pub fn prefetch(mut self, on: bool) -> Self {
        self.prefetch = on;
        self
    }

    /// Ablation: disables the §3.3 prefetch priorities.
    pub fn prioritized_loads(mut self, on: bool) -> Self {
        self.prioritized_loads = on;
        self
    }

    /// Debug mode: validates every schedule against an independent
    /// transcription of the paper's constraints, runs the simulated flow
    /// network with conservation checking, and verifies the ZeRO traffic
    /// identity. Violations panic. Intended for tests and CI.
    pub fn strict_validation(mut self, on: bool) -> Self {
        self.strict_validation = on;
        self
    }

    /// Attaches an [`Obs`] observer: planning decisions, compute cells,
    /// transfers and strict validation violations are recorded as spans,
    /// marks and metrics. Observation is passive — every simulated result
    /// is bit-identical with or without it. The handle shares state with
    /// its clones, so export from the caller's copy after the run.
    pub fn observe(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Attaches a deterministic fault schedule. Pipeline systems (Mobius,
    /// GPipe, DeepSpeed-pipeline) replay it during simulation; an empty
    /// schedule behaves exactly as no schedule at all (bit-identical
    /// results). ZeRO systems reject non-empty schedules with
    /// [`RunError::Unsupported`].
    pub fn faults(mut self, schedule: FaultSchedule) -> Self {
        self.faults = schedule;
        self
    }

    /// Lets a failed Mobius step recover instead of surfacing its typed
    /// error (default: off). A hard GPU failure replans on the surviving
    /// topology, dropping GPU-addressed faults, whose indices no longer
    /// name the right device. An OOM walks the degradation ladder: the
    /// configured partition → [`PartitionAlgo::MaxStage`] (more, smaller
    /// stages) → ZeRO-hetero, which runs without fault injection. Every
    /// step taken is recorded in [`StepReport::degradations`].
    pub fn recover(mut self, on: bool) -> Self {
        self.recover = on;
        self
    }

    /// Seeds the next Mobius plan with a previous run's partition stage
    /// sizes (the warm-start path of the elastic replan, PR 6's
    /// incremental re-solve). Used when resuming a checkpointed run onto
    /// a changed topology: the committed segmentation names no GPU
    /// indices, so it projects onto the new topology unchanged and the
    /// MIP prunes from that near-optimal bound instead of solving cold.
    /// Non-MIP partition algorithms ignore the hint.
    pub fn warm_start(mut self, sizes: Vec<usize>) -> Self {
        self.warm_start = Some(sizes);
        self
    }

    /// Scales the run out to a multi-server cluster ([`ClusterConfig`]).
    /// Mobius and DeepSpeed-hetero have cluster paths; other systems
    /// reject a multi-server config with [`RunError::Unsupported`].
    pub fn cluster(mut self, cfg: ClusterConfig) -> Self {
        self.cluster = Some(cfg);
        self
    }

    /// The effective microbatch size.
    pub fn mbs(&self) -> usize {
        self.microbatch_size
            .unwrap_or(self.model.config().default_microbatch)
    }

    /// The effective number of microbatches per step.
    pub fn microbatches(&self) -> usize {
        self.microbatches_on(&self.topo)
    }

    fn microbatches_on(&self, topo: &Topology) -> usize {
        self.num_microbatches.unwrap_or(topo.num_gpus())
    }

    /// FNV fingerprint of the run configuration, identifying which
    /// checkpoints belong to this run. Covers the model, system,
    /// batching, planning knobs, cluster shape, and the *non-crash* fault
    /// events; deliberately excludes the topology (so a checkpointed run
    /// can resume onto a shrunken server) and the crash events themselves
    /// (so a resume may drop or keep its crash clauses).
    pub fn config_fingerprint(&self) -> u64 {
        let crashless = self.faults.without_crashes();
        let faults = (!crashless.is_empty()).then_some(crashless.events());
        crate::fingerprint::Fingerprint::new()
            .part(format_args!("{}", self.model.config().name))
            .part(format_args!("mbs={}", self.mbs()))
            .part(format_args!("m={:?}", self.num_microbatches))
            .part(format_args!("sys={}", self.system.label()))
            .part(format_args!("part={:?}", self.partition_algo))
            .part(format_args!("map={:?}", self.mapping_algo))
            // Fixed literals for two deleted knobs (the wall-clock budget
            // and the FLOP efficiency): every checkpoint persists this hash,
            // including tests/golden/checkpoint_gpt2.mckpt and mobius-perf's
            // train-ckpt digests.
            .part(format_args!("budget=3s"))
            .part(format_args!("eff=None"))
            .part(format_args!(
                "pf={} pl={} sv={}",
                self.prefetch, self.prioritized_loads, self.strict_validation
            ))
            .part(format_args!("faults={faults:?}"))
            .part(format_args!("cluster={:?}", self.cluster))
            .finish()
    }

    pub(crate) fn topo_ref(&self) -> &Topology {
        &self.topo
    }

    /// The effective cluster, if genuinely multi-server. A 1-server cluster
    /// is treated exactly as none — the single-server code path runs
    /// unchanged — so that scale-out configuration cannot perturb a
    /// single-server run.
    fn active_cluster(&self) -> Option<Cluster> {
        self.cluster.as_ref().filter(|c| c.servers > 1).map(|c| {
            let cl = Cluster::new(self.topo.clone(), c.servers, c.nic_gbps);
            match c.switch_gbps {
                Some(g) => cl.with_switch_gbps(g),
                None => cl,
            }
        })
    }

    fn profile(&self) -> ModelProfile {
        Profiler::new(self.topo.gpu().clone()).profile(&self.model, self.mbs())
    }

    fn pipeline_cfg(&self, topo: &Topology, mode: MemoryMode) -> PipelineConfig {
        PipelineConfig {
            memory_mode: mode,
            prefetch: self.prefetch,
            prioritized_loads: self.prioritized_loads,
            strict_validation: self.strict_validation,
            ..PipelineConfig::mobius(
                self.microbatches_on(topo),
                topo.gpu_mem_bytes(),
                topo.avg_gpu_bandwidth(),
            )
        }
    }

    /// Produces the Mobius plan: profile → MIP partition → cross mapping.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::OutOfMemory`] when no feasible partition exists.
    pub fn plan(&self) -> Result<Plan, RunError> {
        self.plan_on_warm(&self.topo, self.partition_algo, self.warm_start.clone())
    }

    /// [`FineTuner::plan`] generalised over the topology and partition
    /// algorithm, with an optional warm-start incumbent: the
    /// partition that was running before a topology change. A layer
    /// segmentation names no GPU indices, so the previous sizes project
    /// onto the survivor topology unchanged; the MIP re-costs them under
    /// the survivor objective and prunes from that near-optimal bound
    /// instead of solving cold. Non-MIP algorithms ignore the hint.
    fn plan_on_warm(
        &self,
        topo: &Topology,
        algo: PartitionAlgo,
        warm_start: Option<Vec<usize>>,
    ) -> Result<Plan, RunError> {
        let profile = self.profile();
        let cfg = self.pipeline_cfg(topo, MemoryMode::Heterogeneous);
        let n = topo.num_gpus();

        let solve_timer = WallTimer::start();
        let outcome = match algo {
            PartitionAlgo::Mip => {
                let opts = mobius_pipeline::MipPartitionOpts {
                    budgeted: !self.unbudgeted_solver,
                    warm_start,
                };
                mobius_pipeline::mip_partition_opts(&profile, n, &cfg, &opts, self.obs.as_ref())?
            }
            other => partition_model(other, &profile, n, &cfg)?,
        };
        let mip_solve_wall = solve_timer.elapsed();

        let map_timer = WallTimer::start();
        let mapping = Mapping::with_algo(self.mapping_algo, topo, outcome.partition.num_stages());
        let cross_map_wall = map_timer.elapsed();

        let stages = stage_costs(&profile, &outcome.partition);
        let contention_degree = mapping.contention_degree(topo);
        if let Some(obs) = &self.obs {
            obs.mark(
                Lane::Run,
                "plan",
                "mapping.decision",
                0,
                vec![
                    ("algo", AttrValue::Str(format!("{:?}", self.mapping_algo))),
                    (
                        "stages",
                        AttrValue::U64(outcome.partition.num_stages() as u64),
                    ),
                    ("contention_degree", AttrValue::F64(contention_degree)),
                ],
            );
        }
        let profiling =
            Profiler::new(self.topo.gpu().clone()).profiling_time(&self.model, self.mbs(), true);

        Ok(Plan {
            partition: outcome.partition,
            stages,
            mapping,
            predicted_step: outcome.predicted_step,
            contention_degree,
            overheads: Overheads {
                profiling,
                mip_solve_wall,
                cross_map_wall,
            },
            search: outcome.stats,
        })
    }

    /// Simulates one training step of the selected system.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::OutOfMemory`] for configurations the system
    /// cannot train (the OOM entries of Figure 5) and [`RunError::Fault`]
    /// when an attached [`FaultSchedule`] kills the step and
    /// [`FineTuner::recover`] cannot (or may not) recover it.
    pub fn run_step(&self) -> Result<StepReport, RunError> {
        self.run_step_with(self.solve_step_plan().as_ref())
    }

    /// The Mobius plan every step of this configuration starts from,
    /// solved once into a private recorder so that its observer record
    /// (solver-lane incumbent marks, `mip.*` counters and gauges, the
    /// `mapping.decision` mark) can be replayed into each step's observer.
    /// `None` for the systems that do not plan through the partition
    /// search.
    pub(crate) fn solve_step_plan(&self) -> Option<SolvedPlan> {
        if self.system != System::Mobius {
            return None;
        }
        let recorder = Obs::new();
        let mut quiet = self.clone();
        quiet.obs = Some(recorder.clone());
        let plan = quiet.plan();
        Some(SolvedPlan {
            plan,
            record: recorder.recording(),
        })
    }

    /// [`FineTuner::run_step`] on a plan solved beforehand by
    /// [`FineTuner::solve_step_plan`] for this configuration: the plan's
    /// record replays into the attached observer where the solve would
    /// have recorded, so the step's trace and metrics match a
    /// [`FineTuner::run_step`] that solved in place. Replans after a GPU
    /// loss or an OOM still solve inside the step.
    pub(crate) fn run_step_with(
        &self,
        planned: Option<&SolvedPlan>,
    ) -> Result<StepReport, RunError> {
        let model_size = self.model.model_size_bytes();
        if self.active_cluster().is_some()
            && !matches!(self.system, System::Mobius | System::DeepSpeedHetero)
        {
            return Err(RunError::Unsupported(format!(
                "multi-server scale-out is modeled for Mobius and DeepSpeed-hetero; \
                 {} has no cluster path",
                self.system.label()
            )));
        }
        match self.system {
            System::Mobius => match planned {
                Some(solved) => self.run_mobius_step(model_size, solved),
                // `run_step` solves the plan and comes back with it.
                None => self.run_step(),
            },
            System::Gpipe | System::DeepSpeedPipeline => {
                let (stages, mapping, cfg) = self.gpipe_plan()?;
                // No recovery here: GPipe has no swap machinery to replan
                // around, so aborts surface typed.
                let sim = simulate_steps_faulted(
                    &stages,
                    &mapping,
                    &self.topo,
                    &cfg,
                    1,
                    &self.faults,
                    self.obs.as_ref(),
                )
                .map(SimStepReport::from)
                .map_err(AttemptError::from)?;
                let factor = if self.system == System::DeepSpeedPipeline {
                    DS_PIPELINE_OVERHEAD
                } else {
                    1.0
                };
                let step = SimTime::from_secs_f64(sim.step_time.as_secs_f64() * factor);
                let drain = SimTime::from_secs_f64(sim.drain_time.as_secs_f64() * factor);
                let mut rep = self.report(step, drain, sim.trace, model_size);
                rep.faults = sim.faults;
                Ok(rep)
            }
            System::DeepSpeedHetero => {
                self.reject_faults()?;
                let mut rep = self.zero_hetero_step(&self.topo, model_size)?;
                if let Some(cluster) = self.active_cluster() {
                    self.attach_cluster_zero(&mut rep, &cluster)?;
                }
                Ok(rep)
            }
            System::ZeroOffload => {
                self.reject_faults()?;
                let rep = simulate_zero_offload_step_traced(
                    &self.profile(),
                    &self.topo,
                    self.obs.as_ref(),
                )?;
                Ok(self.report(rep.step_time, rep.step_time, rep.trace, model_size))
            }
        }
    }

    /// The GPipe and DeepSpeed-pipeline plan: stage costs of
    /// [`plan_gpipe`]'s partition (which performs the OOM check with
    /// optimizer state) on the resident pipeline configuration, mapped to
    /// the GPUs in order.
    fn gpipe_plan(&self) -> Result<(Vec<StageCosts>, Mapping, PipelineConfig), RunError> {
        let profile = self.profile();
        let cfg = self.pipeline_cfg(&self.topo, MemoryMode::Resident);
        let plan = plan_gpipe(&profile, self.topo.num_gpus(), &cfg)?;
        let stages = stage_costs(&profile, &plan.partition);
        let mapping = Mapping::sequential(plan.partition.num_stages(), self.topo.num_gpus());
        Ok((stages, mapping, cfg))
    }

    /// The Mobius step with fault injection and recovery: run → on GPU
    /// failure, replan on the surviving topology → on OOM, walk the
    /// degradation ladder (more stages, then ZeRO-hetero). Every recovery
    /// step is recorded in the report's `degradations`.
    fn run_mobius_step(
        &self,
        model_size: u64,
        solved: &SolvedPlan,
    ) -> Result<StepReport, RunError> {
        let mut degradations: Vec<Degradation> = Vec::new();
        let mut carried = FaultStats::default();
        let mut topo = self.topo.clone();
        let mut faults = self.faults.clone();
        let mut algo = self.partition_algo;
        // The first attempt runs on the plan solved before the step (a
        // resumed checkpointed run's solve already used its committed
        // partition as the warm start); only a replan solves here. The
        // partition running when a GPU fails warm-starts the replan's MIP
        // on the survivor topology (incremental re-solve).
        let mut first = Some(solved);
        let mut warm: Option<Vec<usize>> = None;
        // Only a GPU loss desynchronizes this replica from the rest of the
        // cluster; planning degradations (MoreStages) hit every server
        // identically.
        let mut replanned = false;

        // The step that ran, with its gradient-ready timing and the DAG
        // node ending its backward pass, for the cluster ring.
        let (mut rep, timing, local_head) = loop {
            let mut planned_sizes: Option<Vec<usize>> = None;
            let mut search = None;
            let plan = match first.take() {
                Some(solved) => {
                    if let Some(obs) = &self.obs {
                        obs.replay(&solved.record);
                    }
                    solved.plan.clone()
                }
                None => self.plan_on_warm(&topo, algo, warm.take()),
            };
            let attempt = plan.map_err(AttemptError::Run).and_then(|plan| {
                planned_sizes = Some(plan.partition.sizes().to_vec());
                search = plan.search;
                let cfg = self.pipeline_cfg(&topo, MemoryMode::Heterogeneous);
                let sim = simulate_steps_faulted(
                    &plan.stages,
                    &plan.mapping,
                    &topo,
                    &cfg,
                    1,
                    &faults,
                    self.obs.as_ref(),
                )?;
                Ok((SimStepReport::from(sim), plan.stages))
            });
            match attempt {
                Ok((sim, stages)) => {
                    carried.absorb(&sim.faults);
                    let mut rep = self.report(sim.step_time, sim.drain_time, sim.trace, model_size);
                    rep.search = search;
                    let timing = ReplicaTiming {
                        bucket_bytes: grad_buckets(&stages),
                        ready: sim.grad_flush,
                        ready_sids: sim.grad_flush_sids,
                    };
                    break (rep, timing, sim.step_head);
                }
                Err(AttemptError::Fault { abort, stats }) => {
                    carried.absorb(&stats);
                    let FaultAbort::GpuFailed { gpu, at } = abort else {
                        // Exhausted retries have already consumed their
                        // budget; there is nothing sensible to replan.
                        return Err(RunError::Fault(abort));
                    };
                    if !self.recover {
                        return Err(RunError::Fault(abort));
                    }
                    let Some(survivor) = topo.without_gpu(gpu) else {
                        return Err(RunError::Fault(abort));
                    };
                    if let Some(obs) = &self.obs {
                        obs.counter_add("fault.replans", 1.0);
                    }
                    replanned = true;
                    degradations.push(Degradation {
                        action: DegradeAction::ElasticReplan {
                            failed_gpu: gpu,
                            at,
                            surviving_gpus: survivor.num_gpus(),
                        },
                        cause: RunError::Fault(abort),
                    });
                    topo = survivor;
                    // GPU indices renumber on the survivor; only
                    // link-addressed faults still mean what they said. The
                    // segmentation names no GPUs, so it carries over as the
                    // warm start for the re-solve.
                    warm = planned_sizes;
                    faults = faults.link_faults_only();
                }
                Err(AttemptError::Run(err @ RunError::OutOfMemory(_))) if self.recover => {
                    if algo != PartitionAlgo::MaxStage {
                        degradations.push(Degradation {
                            action: DegradeAction::MoreStages {
                                algo: PartitionAlgo::MaxStage,
                            },
                            cause: err,
                        });
                        algo = PartitionAlgo::MaxStage;
                    } else {
                        degradations.push(Degradation {
                            action: DegradeAction::ZeroHetero,
                            cause: err,
                        });
                        if let Some(obs) = &self.obs {
                            obs.counter_add("fault.degraded_to_zero", 1.0);
                        }
                        let rep = self.zero_hetero_step(&topo, model_size)?;
                        // ZeRO gives no per-stage flush times: the whole
                        // gradient is one bucket, ready at step end.
                        let timing = ReplicaTiming {
                            bucket_bytes: vec![self.model.total_grad_bytes() as f64],
                            ready: vec![rep.step_time],
                            ready_sids: vec![None],
                        };
                        break (rep, timing, None);
                    }
                }
                Err(AttemptError::Run(e)) => return Err(e),
            }
        };
        rep.faults = carried;
        if let Some(cluster) = self.active_cluster() {
            self.attach_cluster_sync(
                &mut rep,
                &cluster,
                timing,
                local_head,
                replanned.then_some(solved),
            )?;
        }
        rep.degradations = degradations;
        Ok(rep)
    }

    /// Runs the cross-server ring all-reduce for one step of this replica
    /// and folds it into the report ([`FineTuner::fold_cluster`]).
    ///
    /// When `degraded` carries the step's solved plan, this server
    /// replanned around a lost GPU and its bucket structure no longer
    /// matches the healthy replicas', so every replica collapses to one
    /// whole-model bucket ([`ReplicaTiming::collapsed`]) and the healthy
    /// servers' timing comes from an unfaulted shadow simulation of that
    /// plan.
    fn attach_cluster_sync(
        &self,
        rep: &mut StepReport,
        cluster: &Cluster,
        this: ReplicaTiming,
        local_head: Option<u64>,
        degraded: Option<&SolvedPlan>,
    ) -> Result<(), RunError> {
        let n = cluster.num_servers();
        let local_step = rep.step_time;
        let (replicas, local_steps) = match degraded {
            Some(solved) => {
                let (healthy_timing, healthy_step) = self.healthy_shadow(solved)?;
                let mut replicas = vec![healthy_timing; n];
                replicas[0] = this.collapsed();
                let mut steps = vec![healthy_step; n];
                steps[0] = local_step;
                (replicas, steps)
            }
            None => (vec![this; n], vec![local_step; n]),
        };
        let grad_bytes = replicas[0].total_bytes();
        let cfg = ClusterDpConfig {
            strict_validation: self.strict_validation,
        };
        let sync = simulate_ring_allreduce(cluster, &replicas, &cfg, self.obs.as_ref())?;
        let servers = (0..n)
            .map(|s| ServerStepBreakdown {
                local_step: local_steps[s],
                nic_tx_bytes: sync.per_server_tx[s],
                nic_rx_bytes: sync.per_server_rx[s],
            })
            .collect();
        let step = self.fold_cluster(
            rep,
            &sync.trace,
            sync.sync_done,
            sync.bucket_done,
            servers,
            grad_bytes,
        );
        // Commit the synchronized boundary to the dependency DAG (it
        // supersedes the pipeline's local boundary): the head must be a
        // node ending exactly at the cluster step time — the final ring
        // barrier when synchronization binds, this replica's own step head
        // when its backward pass does. An unobserved healthy replica can
        // also bind (degraded mode); no node ends there, so no cluster
        // boundary is committed and the locally verified windows stand.
        if let Some(obs) = &self.obs {
            let head = if step == sync.sync_done {
                sync.head_sid
            } else if step == local_step {
                local_head
            } else {
                None
            };
            if let Some(h) = head {
                obs.dag_cluster_boundary(step.as_nanos(), h);
                if self.strict_validation {
                    obs.assert_dag_identity("cluster critical-path identity", step.as_nanos());
                }
            }
        }
        Ok(())
    }

    /// Runs the NIC side of a cluster-scale ZeRO-3 step and folds it into
    /// the local report, the intra-server PCIe side
    /// ([`FineTuner::fold_cluster`]).
    fn attach_cluster_zero(&self, rep: &mut StepReport, cluster: &Cluster) -> Result<(), RunError> {
        let cfg = ClusterZeroConfig {
            strict_validation: self.strict_validation,
        };
        let nic = simulate_cluster_zero_step(&self.profile(), cluster, &cfg, self.obs.as_ref())?;
        let local_step = rep.step_time;
        let servers = nic
            .nic_bytes_per_server
            .iter()
            .map(|&bytes| ServerStepBreakdown {
                local_step,
                nic_tx_bytes: bytes,
                // The pairwise mesh is symmetric: each server receives
                // exactly what it transmits.
                nic_rx_bytes: bytes,
            })
            .collect();
        self.fold_cluster(
            rep,
            &nic.trace,
            nic.step_time,
            Vec::new(),
            servers,
            self.model.total_grad_bytes() as f64,
        );
        Ok(())
    }

    /// Folds one step's cross-server side into this replica's report: the
    /// cluster trace merges in, step and drain extend to the slowest
    /// server or to `sync_done`, whichever ends last, and the price covers
    /// every server. Returns the cluster step time.
    fn fold_cluster(
        &self,
        rep: &mut StepReport,
        trace: &TraceRecorder,
        sync_done: SimTime,
        bucket_done: Vec<SimTime>,
        servers: Vec<ServerStepBreakdown>,
        grad_bytes: f64,
    ) -> SimTime {
        let n = servers.len();
        let step = servers
            .iter()
            .map(|s| s.local_step)
            .fold(sync_done, SimTime::max);
        rep.trace.merge(trace);
        rep.cluster = Some(ClusterStepReport {
            num_servers: n,
            sync_done,
            grad_bytes,
            bucket_done,
            servers,
        });
        rep.step_time = step;
        rep.drain_time = rep.drain_time.max(step);
        rep.price_usd = pricing::step_price_usd(&self.topo, step) * n as f64;
        step
    }

    /// The collapsed ring timing and local step time of the cluster's
    /// healthy replicas after this server degraded: an unfaulted,
    /// unobserved step of the step's solved plan — the plan the healthy
    /// replicas run — on the originally configured server. Runs without
    /// the observer so the shadow leaves no spans in this server's trace.
    fn healthy_shadow(&self, solved: &SolvedPlan) -> Result<(ReplicaTiming, SimTime), RunError> {
        let plan = solved.plan.as_ref().map_err(RunError::clone)?;
        let cfg = self.pipeline_cfg(&self.topo, MemoryMode::Heterogeneous);
        let sim = simulate_steps_faulted(
            &plan.stages,
            &plan.mapping,
            &self.topo,
            &cfg,
            1,
            &FaultSchedule::default(),
            None,
        )
        .map(SimStepReport::from)
        .map_err(AttemptError::from)?;
        // The shadow ran unobserved, so its flush nodes do not exist in
        // this server's DAG: the ring mirrors the healthy replicas.
        let timing = ReplicaTiming {
            bucket_bytes: grad_buckets(&plan.stages),
            ready: sim.grad_flush,
            ready_sids: Vec::new(),
        }
        .collapsed();
        Ok((timing, sim.step_time))
    }

    /// The ZeRO-hetero step on an arbitrary topology (also the last rung
    /// of the degradation ladder). Fault injection does not apply: the
    /// fault subsystem drives the pipeline executor.
    fn zero_hetero_step(&self, topo: &Topology, model_size: u64) -> Result<StepReport, RunError> {
        let zero_cfg = ZeroConfig {
            strict_validation: self.strict_validation,
        };
        let rep = simulate_zero_step_traced(&self.profile(), topo, &zero_cfg, self.obs.as_ref())?;
        Ok(self.report(rep.step_time, rep.step_time, rep.trace, model_size))
    }

    fn reject_faults(&self) -> Result<(), RunError> {
        if self.faults.is_empty() {
            return Ok(());
        }
        Err(RunError::Unsupported(format!(
            "fault injection drives the pipeline executor; {} does not replay a schedule",
            self.system.label()
        )))
    }

    /// Simulates `k` consecutive training steps (pipeline systems only:
    /// Mobius, GPipe, DeepSpeed-pipeline). Across steps, Mobius prefetches
    /// the next step's uploads during the current backward tail, gated on
    /// each stage's gradient flush.
    ///
    /// # Examples
    ///
    /// ```
    /// use mobius::FineTuner;
    /// use mobius_model::GptConfig;
    ///
    /// let run = FineTuner::new(GptConfig::gpt_8b())
    ///     .run_steps(2)?;
    /// assert!(run.steady_state_step().as_secs_f64() > 0.0);
    /// # Ok::<(), mobius::RunError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`RunError::OutOfMemory`] when the system cannot hold the
    /// model, [`RunError::Unsupported`] for the ZeRO systems, whose
    /// steps are independent (use [`FineTuner::run_step`] instead), and
    /// [`RunError::Fault`] when an attached schedule aborts the run
    /// (multi-step runs never replan — recovery is per-step, see
    /// [`FineTuner::run_step`]).
    pub fn run_steps(&self, k: usize) -> Result<MultiStepReport, RunError> {
        if self.active_cluster().is_some() {
            return Err(RunError::Unsupported(
                "multi-step cluster runs are not modeled; run_step() per step instead".into(),
            ));
        }
        let (stages, mapping, cfg) = match self.system {
            System::Mobius => {
                let plan = self.plan()?;
                let cfg = self.pipeline_cfg(&self.topo, MemoryMode::Heterogeneous);
                (plan.stages, plan.mapping, cfg)
            }
            System::Gpipe | System::DeepSpeedPipeline => self.gpipe_plan()?,
            other => {
                return Err(RunError::Unsupported(format!(
                    "{} steps are independent; run_step() per step instead",
                    other.label()
                )))
            }
        };
        simulate_steps_faulted(
            &stages,
            &mapping,
            &self.topo,
            &cfg,
            k,
            &self.faults,
            self.obs.as_ref(),
        )
        .map_err(|e| AttemptError::from(e).into())
    }

    fn report(
        &self,
        step_time: SimTime,
        drain_time: SimTime,
        trace: TraceRecorder,
        model_size_bytes: u64,
    ) -> StepReport {
        StepReport {
            system: self.system,
            step_time,
            drain_time,
            price_usd: pricing::step_price_usd(&self.topo, step_time),
            trace,
            model_size_bytes,
            faults: FaultStats::default(),
            degradations: Vec::new(),
            cluster: None,
            search: None,
        }
    }
}

/// A Mobius plan solved once, with the observer record of its solve
/// ([`FineTuner::solve_step_plan`]). Failed solves keep their error: the
/// search records its counters either way, and the degradation ladder
/// starts from the error.
#[derive(Debug, Clone)]
pub(crate) struct SolvedPlan {
    pub(crate) plan: Result<Plan, RunError>,
    record: Recording,
}

/// Per stage, FP16 gradient bytes — the cluster ring's bucket sizes.
fn grad_buckets(stages: &[StageCosts]) -> Vec<f64> {
    stages.iter().map(|s| s.grad_bytes as f64).collect()
}

/// Why one attempt failed: an ordinary planning/scheduling error, or an
/// injected fault abort carrying the attempt's accounting.
enum AttemptError {
    Run(RunError),
    Fault {
        abort: FaultAbort,
        stats: FaultStats,
    },
}

impl From<ExecError> for AttemptError {
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::Schedule(e) => AttemptError::Run(e.into()),
            ExecError::Fault { abort, stats } => AttemptError::Fault { abort, stats },
            ExecError::ClockOverflow { remaining } => {
                AttemptError::Run(RunError::ClockOverflow { remaining })
            }
        }
    }
}

/// Outside the recovery loop a fault abort surfaces typed, without its
/// accounting.
impl From<AttemptError> for RunError {
    fn from(e: AttemptError) -> Self {
        match e {
            AttemptError::Run(e) => e,
            AttemptError::Fault { abort, .. } => RunError::Fault(abort),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobius_topology::GpuSpec;

    fn commodity(groups: &[usize]) -> Topology {
        Topology::commodity(GpuSpec::rtx3090ti(), groups)
    }

    fn tuner(cfg: GptConfig, system: System) -> FineTuner {
        FineTuner::new(cfg)
            .topology(commodity(&[2, 2]))
            .system(system)
    }

    #[test]
    fn mobius_trains_all_table3_models() {
        for cfg in GptConfig::table3() {
            let rep = tuner(cfg.clone(), System::Mobius)
                .run_step()
                .unwrap_or_else(|e| panic!("{} failed: {e}", cfg.name));
            assert!(rep.step_time > SimTime::ZERO);
        }
    }

    #[test]
    fn gpipe_ooms_beyond_3b() {
        assert!(tuner(GptConfig::gpt_3b(), System::Gpipe).run_step().is_ok());
        for cfg in [GptConfig::gpt_8b(), GptConfig::gpt_15b()] {
            let err = tuner(cfg, System::Gpipe).run_step().unwrap_err();
            assert!(matches!(err, RunError::OutOfMemory(_)));
        }
    }

    #[test]
    fn mobius_beats_deepspeed_hetero() {
        let cfg = GptConfig::gpt_8b();
        let mobius = tuner(cfg.clone(), System::Mobius).run_step().unwrap();
        let ds = tuner(cfg, System::DeepSpeedHetero).run_step().unwrap();
        let speedup = ds.step_time.as_secs_f64() / mobius.step_time.as_secs_f64();
        assert!(
            speedup > 2.0,
            "expected a large speedup, got {speedup:.2}x \
             (mobius {}, deepspeed {})",
            mobius.step_time,
            ds.step_time
        );
    }

    #[test]
    fn traffic_ratio_shape_matches_paper() {
        let cfg = GptConfig::gpt_8b();
        let mobius = tuner(cfg.clone(), System::Mobius).run_step().unwrap();
        let ds = tuner(cfg, System::DeepSpeedHetero).run_step().unwrap();
        // DeepSpeed moves ~N x more data than Mobius (Figure 6).
        assert!(
            ds.traffic_ratio() / mobius.traffic_ratio() > 2.5,
            "ds {:.2}x vs mobius {:.2}x",
            ds.traffic_ratio(),
            mobius.traffic_ratio()
        );
    }

    #[test]
    fn ds_pipeline_is_slightly_slower_than_gpipe() {
        let cfg = GptConfig::gpt_3b();
        let gp = tuner(cfg.clone(), System::Gpipe).run_step().unwrap();
        let dsp = tuner(cfg, System::DeepSpeedPipeline).run_step().unwrap();
        assert!(dsp.step_time > gp.step_time);
        let ratio = dsp.step_time.as_secs_f64() / gp.step_time.as_secs_f64();
        assert!((1.0..1.2).contains(&ratio));
    }

    #[test]
    fn plan_reports_overheads() {
        let plan = tuner(GptConfig::gpt_8b(), System::Mobius).plan().unwrap();
        assert!(plan.overheads.profiling > SimTime::ZERO);
        assert!(plan.overheads.mip_solve_wall.secs() >= 0.0);
        assert!(plan.partition.num_stages() >= 4);
        assert!(plan.contention_degree >= 0.0);
    }

    #[test]
    fn price_cheaper_on_commodity() {
        let c = tuner(GptConfig::gpt_8b(), System::Mobius)
            .run_step()
            .unwrap();
        assert!(c.price_usd > 0.0);
    }

    #[test]
    fn prefetch_ablation_slows_mobius() {
        let cfg = GptConfig::gpt_15b();
        let with = tuner(cfg.clone(), System::Mobius).run_step().unwrap();
        let without = tuner(cfg, System::Mobius)
            .prefetch(false)
            .run_step()
            .unwrap();
        assert!(
            without.step_time > with.step_time,
            "disabling prefetch must hurt: {} vs {}",
            without.step_time,
            with.step_time
        );
    }

    #[test]
    fn ssd_offload_tier_is_a_bottleneck() {
        // The paper's §3.1 rationale for DRAM-only offload.
        let cfg = GptConfig::gpt_15b();
        let dram = tuner(cfg.clone(), System::Mobius).run_step().unwrap();
        let ssd_topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]).with_ssd_offload(3.0);
        let ssd = FineTuner::new(cfg)
            .topology(ssd_topo)
            .system(System::Mobius)
            .run_step()
            .unwrap();
        assert!(
            ssd.step_time.as_secs_f64() > dram.step_time.as_secs_f64() * 1.5,
            "a 3 GB/s SSD should clearly bottleneck: {} vs {}",
            ssd.step_time,
            dram.step_time
        );
    }

    #[test]
    fn llama_models_train_on_mobius() {
        for (model, should_fit_offload) in [(Model::llama2_7b(), true), (Model::llama2_13b(), true)]
        {
            let name = model.config().name.clone();
            let rep = FineTuner::from_model(model.clone())
                .topology(commodity(&[2, 2]))
                .system(System::Mobius)
                .run_step()
                .unwrap_or_else(|e| panic!("{name} failed: {e}"));
            assert!(rep.step_time > SimTime::ZERO, "{name}");
            // 7B (13.5 GB fp16) and 13B (26 GB > 24 GB) differ on
            // ZeRO-Offload's single-GPU bound.
            let offload = FineTuner::from_model(model)
                .topology(commodity(&[2, 2]))
                .system(System::ZeroOffload)
                .run_step();
            if name.contains("7B") {
                assert_eq!(offload.is_ok(), should_fit_offload, "{name}");
            } else {
                assert!(offload.is_err(), "{name} must OOM on ZeRO-Offload");
            }
        }
    }

    #[test]
    fn memory_capability_ladder() {
        // GPipe (<=3B) < ZeRO-Offload (<=8B) < hetero systems (everything).
        let trains = |cfg: GptConfig, s| tuner(cfg, s).run_step().is_ok();
        assert!(trains(GptConfig::gpt_3b(), System::ZeroOffload));
        assert!(trains(GptConfig::gpt_8b(), System::ZeroOffload));
        assert!(!trains(GptConfig::gpt_15b(), System::ZeroOffload));
        assert!(!trains(GptConfig::gpt_8b(), System::Gpipe));
        assert!(trains(GptConfig::gpt_15b(), System::DeepSpeedHetero));
    }

    #[test]
    fn run_steps_steady_state_within_band() {
        let rep = tuner(GptConfig::gpt_15b(), System::Mobius)
            .run_steps(3)
            .unwrap();
        assert_eq!(rep.step_boundaries.len(), 3);
        let first = rep.step_duration(0).as_secs_f64();
        let steady = rep.steady_state_step().as_secs_f64();
        assert!(
            (0.8..1.3).contains(&(steady / first)),
            "first {first:.2}s vs steady {steady:.2}s"
        );
    }

    #[test]
    fn run_steps_rejected_for_zero_systems() {
        let err = tuner(GptConfig::gpt_8b(), System::DeepSpeedHetero)
            .run_steps(2)
            .unwrap_err();
        assert!(matches!(err, RunError::Unsupported(_)), "{err}");
    }

    #[test]
    fn defaults_follow_table3() {
        let t = FineTuner::new(GptConfig::gpt_15b());
        assert_eq!(t.mbs(), 1);
        assert_eq!(t.microbatches(), 4);
    }

    /// A deterministic tuner for cluster tests: cheap partitioning, pinned
    /// microbatches, strict validation.
    fn cluster_tuner(system: System) -> FineTuner {
        FineTuner::new(GptConfig::gpt_3b())
            .topology(commodity(&[2, 2]))
            .system(system)
            .partition_algo(PartitionAlgo::MinStage)
            .num_microbatches(4)
            .strict_validation(true)
    }

    #[test]
    fn one_server_cluster_is_identical_to_no_cluster() {
        let plain = cluster_tuner(System::Mobius).run_step().unwrap();
        let one = cluster_tuner(System::Mobius)
            .cluster(ClusterConfig::new(1, 12.5))
            .run_step()
            .unwrap();
        assert_eq!(plain.step_time, one.step_time);
        assert_eq!(plain.traffic_total(), one.traffic_total());
        assert!(one.cluster.is_none());
    }

    #[test]
    fn mobius_cluster_traffic_obeys_the_ring_identity() {
        let rep = cluster_tuner(System::Mobius)
            .cluster(ClusterConfig::new(4, 12.5))
            .run_step()
            .unwrap();
        let cl = rep.cluster.as_ref().expect("cluster accounting");
        assert_eq!(cl.num_servers, 4);
        let want = 2.0 * 3.0 / 4.0 * cl.grad_bytes;
        for srv in &cl.servers {
            assert!(
                (srv.nic_tx_bytes - want).abs() <= 1e-6 * want,
                "tx {} vs {want}",
                srv.nic_tx_bytes
            );
        }
        // Sync can only extend the step, never shrink it.
        assert!(rep.step_time >= cl.servers[0].local_step);
    }

    #[test]
    fn slow_nic_stretches_the_cluster_step() {
        let t = |nic: f64| {
            cluster_tuner(System::Mobius)
                .cluster(ClusterConfig::new(4, nic))
                .run_step()
                .unwrap()
                .step_time
        };
        assert!(t(1.0) > t(12.5), "{} !> {}", t(1.0), t(12.5));
    }

    #[test]
    fn hetero_cluster_nic_traffic_grows_with_servers() {
        let tx = |n: usize| {
            let rep = cluster_tuner(System::DeepSpeedHetero)
                .cluster(ClusterConfig::new(n, 12.5))
                .run_step()
                .unwrap();
            let cl = rep.cluster.unwrap();
            cl.servers.iter().map(|s| s.nic_tx_bytes).sum::<f64>()
        };
        let t2 = tx(2);
        let t4 = tx(4);
        // Total cluster-ZeRO NIC traffic ∝ (S−1): 4 servers ≈ 3× 2 servers.
        assert!((t4 / t2 - 3.0).abs() < 1e-6, "{}", t4 / t2);
    }

    #[test]
    fn cluster_rejected_for_systems_without_a_path() {
        for system in [
            System::Gpipe,
            System::DeepSpeedPipeline,
            System::ZeroOffload,
        ] {
            let err = cluster_tuner(system)
                .cluster(ClusterConfig::new(2, 12.5))
                .run_step()
                .unwrap_err();
            assert!(matches!(err, RunError::Unsupported(_)), "{system:?}: {err}");
        }
        let err = cluster_tuner(System::Mobius)
            .cluster(ClusterConfig::new(2, 12.5))
            .run_steps(2)
            .unwrap_err();
        assert!(matches!(err, RunError::Unsupported(_)), "{err}");
    }

    #[test]
    fn warm_started_replan_matches_cold_plan_on_survivors() {
        // A hard GPU failure replans the step on the 3-GPU survivor
        // topology, warm-started from the 4-GPU partition. The warm start
        // must be a pure accelerant: the recovered step must land on the
        // exact plan a cold solve on the survivors produces.
        let cfg = GptConfig::gpt_3b();
        let obs = Obs::new();
        let faulted = FineTuner::new(cfg.clone())
            .topology(commodity(&[2, 2]))
            .system(System::Mobius)
            .num_microbatches(4)
            .faults(FaultSchedule::new().fail_gpu(2, SimTime::from_millis(50)))
            .recover(true)
            .observe(obs.clone())
            .run_step()
            .unwrap();
        assert_eq!(obs.counter("fault.replans"), 1.0);
        assert!(faulted
            .degradations
            .iter()
            .any(|d| matches!(d.action, DegradeAction::ElasticReplan { .. })));

        let survivor = commodity(&[2, 2]).without_gpu(2).expect("3 GPUs remain");
        let cold = FineTuner::new(cfg)
            .topology(survivor)
            .system(System::Mobius)
            .num_microbatches(4)
            .run_step()
            .unwrap();
        assert_eq!(
            faulted.step_time, cold.step_time,
            "warm-started replan must reproduce the cold survivor plan"
        );
    }

    #[test]
    fn gpu_loss_inside_one_server_still_synchronizes() {
        let schedule = FaultSchedule::new().fail_gpu(3, SimTime::from_millis(1));
        let rep = cluster_tuner(System::Mobius)
            .cluster(ClusterConfig::new(2, 12.5))
            .faults(schedule)
            .recover(true)
            .run_step()
            .unwrap();
        assert!(!rep.degradations.is_empty());
        let cl = rep.cluster.as_ref().expect("cluster accounting");
        // Degraded replicas collapse to one whole-model bucket.
        assert_eq!(cl.bucket_done.len(), 1);
        let want = cl.grad_bytes; // 2·(2−1)/2 · G = G
        for srv in &cl.servers {
            assert!((srv.nic_tx_bytes - want).abs() <= 1e-6 * want);
        }
    }
}
