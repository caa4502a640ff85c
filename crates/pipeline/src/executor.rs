//! Event-driven execution of a pipeline schedule on a simulated server.
//!
//! Unlike the analytic evaluator, this executor runs every transfer as a
//! flow on the server's [`mobius_topology::ServerNetwork`], so concurrent
//! prefetches contend for root-complex bandwidth exactly as the paper
//! describes (§2.2), prefetch priorities follow the cross-mapping rule
//! (§3.3), and the trace records bandwidth samples and compute/comm overlap
//! for Figures 6–8 and 11.
//!
//! The executor simulates one step ([`simulate_step`]) or a whole run of
//! consecutive steps ([`simulate_steps_traced`]). Across steps the Mobius
//! pipeline keeps flowing: the next step's first stage uploads prefetch
//! during the current step's backward tail — but a stage's parameters may
//! only reload after its gradients reached DRAM and the CPU optimizer
//! refreshed them (the cross-step data dependency).
//!
//! # Fault injection
//!
//! [`simulate_steps_faulted`] attaches a [`FaultSchedule`]: its events are
//! replayed as ordinary engine events (degraded links re-solve the flow
//! network mid-run, stragglers stretch compute, transfer stalls freeze a
//! flow), a watchdog retries stalled transfers with exponential backoff,
//! and a hard GPU failure aborts the run with [`ExecError::Fault`] so a
//! recovery policy above can replan on the surviving topology. An *empty*
//! schedule arms nothing — no watchdogs, no events, no counters — so the
//! result is bit-identical to [`simulate_steps_traced`]. Transfers
//! cancelled by a retry account only their relaunched remainder in the
//! traffic map (the abandoned partial attempt is dropped, like a failed
//! DMA whose buffer is re-queued).

use mobius_mapping::Mapping;
use mobius_obs::{AttrValue, DagDep, DagRecorder, Lane, Obs, ResourceId};
use mobius_sim::units::secs_to_ms;
use mobius_sim::{
    ClockOverflow, CommKind, Engine, FaultAbort, FaultKind, FaultSchedule, FaultStats, FlowId,
    FlowRecord, LinkId, SimTime, Step, TraceRecorder,
};
use mobius_topology::{ServerNetwork, Topology};

use crate::analytic::check_workload;
use crate::{MemoryMode, PipelineConfig, ScheduleError, StageCosts};

/// Result of simulating one training step.
#[derive(Debug, Clone)]
pub struct SimStepReport {
    /// Completion time of the last backward microbatch (the paper's
    /// per-step time, Eq. 3).
    pub step_time: SimTime,
    /// Time at which every flow (gradient offloads included) drained.
    pub drain_time: SimTime,
    /// Bandwidth samples, traffic counters, overlap intervals.
    pub trace: TraceRecorder,
    /// Fault/recovery accounting (all-zero without a fault schedule).
    pub faults: FaultStats,
    /// Per stage: when its gradients finished flushing to DRAM — the
    /// moment a data-parallel replica could start synchronizing that
    /// stage's gradient bucket. In resident-memory modes (no gradient
    /// offload flows) this is the step boundary.
    pub grad_flush: Vec<SimTime>,
    /// Dependency-DAG node whose end is the step boundary (the last
    /// backward compute). `None` when no observer was attached — node ids
    /// are only meaningful in the caller's observer.
    pub step_head: Option<u64>,
    /// Per stage: DAG node of the gradient flush (the offload flow, or the
    /// step head where no offload ran). `None`s without an observer.
    pub grad_flush_sids: Vec<Option<u64>>,
}

/// Result of simulating several consecutive training steps.
#[derive(Debug, Clone)]
pub struct MultiStepReport {
    /// Completion time of each step's last backward microbatch.
    pub step_boundaries: Vec<SimTime>,
    /// Time at which every flow drained.
    pub drain_time: SimTime,
    /// Trace across the whole run.
    pub trace: TraceRecorder,
    /// Fault/recovery accounting (all-zero without a fault schedule).
    pub faults: FaultStats,
    /// `grad_flush[step][stage]`: when that stage's gradients finished
    /// flushing to DRAM in that step (the step boundary in
    /// resident-memory modes, which never launch gradient offloads).
    pub grad_flush: Vec<Vec<SimTime>>,
    /// Per step: the DAG node whose end is the boundary. `None`s without
    /// an attached observer (ids index the caller's observer).
    pub step_heads: Vec<Option<u64>>,
    /// `grad_flush_sids[step][stage]`: DAG node of the gradient flush.
    pub grad_flush_sids: Vec<Vec<Option<u64>>>,
}

/// Why a (possibly faulted) simulation could not produce a report.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The schedule itself is invalid (stage too large, mismatched
    /// mapping, empty workload) — the run never started.
    Schedule(ScheduleError),
    /// An injected fault aborted the run mid-step.
    Fault {
        /// Why the run aborted.
        abort: FaultAbort,
        /// Fault accounting up to the abort (so recovery policies can
        /// stitch the failed attempt into their final report).
        stats: FaultStats,
    },
    /// A transfer cannot finish inside the simulated clock: a link on its
    /// path (in practice one a fault degraded to near zero) is so slow
    /// that its completion instant saturates at [`SimTime::MAX`].
    ClockOverflow {
        /// Bytes still pending when the clock saturated.
        remaining: f64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Schedule(e) => write!(f, "schedule error: {e}"),
            ExecError::Fault { abort, .. } => write!(f, "fault aborted the run: {abort}"),
            ExecError::ClockOverflow { remaining } => write!(
                f,
                "a transfer cannot finish inside the simulated clock: {remaining:.0} bytes \
                 still pending when it saturated (a link on its path is too slow)"
            ),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Schedule(e) => Some(e),
            ExecError::Fault { abort, .. } => Some(abort),
            ExecError::ClockOverflow { .. } => None,
        }
    }
}

impl From<ScheduleError> for ExecError {
    fn from(e: ScheduleError) -> Self {
        ExecError::Schedule(e)
    }
}

impl<T> From<ClockOverflow<T>> for ExecError {
    fn from(o: ClockOverflow<T>) -> Self {
        ExecError::ClockOverflow {
            remaining: o.remaining,
        }
    }
}

impl MultiStepReport {
    /// Duration of step `s` (boundary-to-boundary).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn step_duration(&self, s: usize) -> SimTime {
        if s == 0 {
            self.step_boundaries[0]
        } else {
            self.step_boundaries[s] - self.step_boundaries[s - 1]
        }
    }

    /// The steady-state step time: the duration of the last step, where
    /// cross-step prefetching is fully warmed up.
    pub fn steady_state_step(&self) -> SimTime {
        self.step_duration(self.step_boundaries.len() - 1)
    }
}

/// The first step of a run: the whole report of a one-step run.
impl From<MultiStepReport> for SimStepReport {
    fn from(mut multi: MultiStepReport) -> Self {
        SimStepReport {
            step_time: multi.step_boundaries[0],
            drain_time: multi.drain_time,
            trace: multi.trace,
            faults: multi.faults,
            grad_flush: std::mem::take(&mut multi.grad_flush[0]),
            step_head: multi.step_heads[0],
            grad_flush_sids: std::mem::take(&mut multi.grad_flush_sids[0]),
        }
    }
}

/// The direction a pipeline pass runs: forward hands each stage's output
/// activation to its successor, backward hands the input gradient to its
/// predecessor. Indexes the per-direction input table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Fwd,
    Bwd,
}

impl Phase {
    /// The stage that consumes what `stage` computes in this phase, if any.
    fn next_stage(self, stage: usize, num_stages: usize) -> Option<usize> {
        match self {
            Phase::Fwd => Some(stage + 1).filter(|&to| to < num_stages),
            Phase::Bwd => stage.checked_sub(1),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Purpose {
    Load {
        gpu: usize,
        idx: usize,
        residual: bool,
    },
    ActTransfer(InputKey),
    GradOffload {
        step: usize,
        stage: usize,
    },
    Bookkeeping,
}

/// One microbatch input of a stage in one phase: the activation forward,
/// the gradient backward.
#[derive(Debug, Clone, Copy)]
struct Input {
    arrived: bool,
    /// The DAG node whose end explains the arrival.
    via: Option<Via>,
}

/// How an input reached its stage.
#[derive(Debug, Clone, Copy)]
enum Via {
    /// Handed over on one GPU when the producing compute ended.
    Local(u64),
    /// A transfer flow, plus the activation latency after it.
    Transfer(u64),
}

/// Names an entry of the input table.
#[derive(Debug, Clone, Copy)]
struct InputKey {
    step: usize,
    stage: usize,
    mb: usize,
    phase: Phase,
}

/// A stage's gradients reached DRAM in one step.
#[derive(Debug, Clone, Copy)]
struct Flush {
    at: SimTime,
    /// The gradient-offload flow's DAG node.
    sid: Option<u64>,
}

/// Progress of one of a slot's two uploads (the prefetch and the blocking
/// residual).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Upload {
    /// Not requested yet.
    Idle,
    /// Requested while shut behind the previous step's gradient flush. A
    /// prefetch keeps the reserved-byte budget it was granted.
    Gated(u64),
    InFlight,
    Done,
}

impl Upload {
    fn started(self) -> bool {
        matches!(self, Upload::InFlight | Upload::Done)
    }
}

/// A slot's stage upload: a prefetch into reserved memory, then the
/// residual. Starting the residual rules out a later prefetch.
#[derive(Debug, Clone, Copy)]
struct LoadRt {
    total_bytes: u64,
    prefetch_bytes: u64,
    prefetch: Upload,
    residual: Upload,
    /// All bytes arrived *and* the swap overhead elapsed.
    usable: bool,
}

impl LoadRt {
    fn new(total_bytes: u64) -> Self {
        let state = if total_bytes == 0 {
            Upload::Done
        } else {
            Upload::Idle
        };
        LoadRt {
            total_bytes,
            prefetch_bytes: 0,
            prefetch: state,
            residual: state,
            usable: total_bytes == 0,
        }
    }

    fn transferred(&self) -> bool {
        self.prefetch == Upload::Done && self.residual == Upload::Done
    }
}

#[derive(Debug, Clone)]
struct Slot {
    step: usize,
    stage: usize,
    phase: Phase,
    load: LoadRt,
    /// Constraints the slot's compute inherits from its uploads: each
    /// upload's end plus the swap overhead.
    deps: Vec<DagDep>,
    /// GPU bytes resident while this slot computes (for prefetch budgets).
    resident: u64,
}

/// One GPU's walk through its slots: it computes microbatch `mb` of
/// `slots[cur]`.
#[derive(Debug)]
struct GpuRt {
    slots: Vec<Slot>,
    cur: usize,
    mb: usize,
    /// Start of the running compute, if one runs.
    running: Option<SimTime>,
    /// DAG node of the running (or else the last) compute: it serializes
    /// the GPU's compute chain.
    last_sid: Option<u64>,
}

#[derive(Debug, Clone)]
enum Ev {
    ComputeDone {
        gpu: usize,
    },
    ActArrived(InputKey),
    LoadUsable {
        gpu: usize,
        idx: usize,
    },
    /// Event `idx` of the attached fault schedule fires.
    Fault {
        idx: usize,
    },
    /// The degradation/straggler window opened by fault `idx` closes.
    FaultEnd {
        idx: usize,
    },
    /// A stalled flow's freeze window ends (natural recovery).
    StallEnd {
        fid: FlowId,
    },
    /// Progress check on a transfer hit by a stall.
    Watchdog {
        fid: FlowId,
        /// Remaining bytes when the watchdog was armed.
        remaining: f64,
        /// Retries performed so far on this logical transfer.
        attempt: u32,
        /// End of the stall window that armed this watchdog.
        stalled_until: SimTime,
    },
    /// Relaunch of a cancelled transfer after its backoff elapsed. Boxed:
    /// the largest payload would otherwise size every event the engine's
    /// heap moves, and retries only happen under faults.
    Relaunch(Box<RetrySpec>),
}

/// Everything needed to relaunch a cancelled transfer as a fresh flow.
#[derive(Debug, Clone)]
struct RetrySpec {
    path: Vec<LinkId>,
    bytes: f64,
    prio: u8,
    /// The cancelled attempt's transfer. Its `sid` is the attempt's DAG
    /// node; the relaunch chains after it with the backoff as the edge
    /// latency.
    transfer: Transfer,
    /// Retries performed so far, this relaunch included.
    attempt: u32,
    /// End of the stall window that triggered the retry: relaunching
    /// inside it freezes again (the outage is still on).
    stalled_until: SimTime,
    /// Backoff separating the cancel from this relaunch.
    backoff: SimTime,
}

/// What an in-flight flow carries for the executor: its tag in the flow
/// network.
#[derive(Debug, Clone)]
struct Transfer {
    purpose: Purpose,
    kind: CommKind,
    /// GPUs whose PCIe lanes the transfer occupies.
    gpus: Vec<usize>,
    /// The flow's DAG node.
    sid: Option<u64>,
}

struct Executor<'a> {
    stages: &'a [StageCosts],
    mapping: &'a Mapping,
    cfg: &'a PipelineConfig,
    server: ServerNetwork<Transfer>,
    engine: Engine<Ev>,
    trace: TraceRecorder,
    gpus: Vec<GpuRt>,
    /// `inputs[step][stage][mb][phase]`. A stage with no producer in a
    /// phase (the first forward, the last backward) starts arrived.
    inputs: Vec<Vec<Vec<[Input; 2]>>>,
    /// `flushes[step][stage]`: the gradient flush, once it landed; the
    /// stage may then reload in step `step + 1`.
    flushes: Vec<Vec<Option<Flush>>>,
    /// `fwd_slot_of[step][stage]`: the `(gpu, slot)` of the stage's
    /// forward load, for gate unblocking.
    fwd_slot_of: Vec<Vec<Option<(usize, usize)>>>,
    bwd_done: Vec<usize>,
    step_boundaries: Vec<SimTime>,
    hetero: bool,
    num_stages: usize,
    m: usize,
    obs: Option<Obs>,
    dag: DagRecorder,
    /// Per step: the node whose end is the step boundary.
    step_heads: Vec<Option<u64>>,
    /// Attached fault schedule; an empty one arms nothing, so the run is
    /// bit-identical to an unfaulted one.
    faults: &'a FaultSchedule,
    fault_stats: FaultStats,
    /// Original link capacities, indexed by [`LinkId::index`].
    base_caps: Vec<f64>,
    /// Product of active degradation factors per link.
    link_factor: Vec<f64>,
    /// Product of active straggler factors per GPU (1.0 = full speed).
    gpu_slow: Vec<f64>,
    /// Retries cancelled-and-scheduled but not yet relaunched.
    pending_relaunches: usize,
    abort: Option<FaultAbort>,
}

/// Simulates one training step of the pipeline on `topo` with full
/// contention modelling.
///
/// # Errors
///
/// Returns [`ScheduleError`] when a stage cannot fit in GPU memory or the
/// mapping mismatches the stage list.
pub fn simulate_step(
    stages: &[StageCosts],
    mapping: &Mapping,
    topo: &Topology,
    cfg: &PipelineConfig,
) -> Result<SimStepReport, ScheduleError> {
    simulate_step_traced(stages, mapping, topo, cfg, None)
}

/// [`simulate_step`] with an optional observer. When `obs` is given, every
/// compute cell and transfer is recorded as a span (GPU and link lanes),
/// byte counters mirror the traffic map, and prefetch/swap/bubble metrics
/// land in the registry. Observation is passive: results are bit-identical
/// with or without it.
///
/// # Errors
///
/// Returns [`ScheduleError`] when a stage cannot fit in GPU memory or the
/// mapping mismatches the stage list.
pub fn simulate_step_traced(
    stages: &[StageCosts],
    mapping: &Mapping,
    topo: &Topology,
    cfg: &PipelineConfig,
    obs: Option<&Obs>,
) -> Result<SimStepReport, ScheduleError> {
    simulate_steps_traced(stages, mapping, topo, cfg, 1, obs).map(SimStepReport::from)
}

/// Simulates `steps` consecutive training steps with an optional observer
/// (see [`simulate_step_traced`] for what gets recorded). Step `s + 1`'s
/// uploads prefetch during step `s`'s backward tail, gated per stage on the
/// gradient flush (the DRAM parameters must be refreshed before reloading).
///
/// # Errors
///
/// Returns [`ScheduleError`] when the workload is empty or cannot run;
/// when several checks fail, the first of: `steps == 0`, a mapping over a
/// different GPU count than the topology, then
/// [`evaluate_analytic`](crate::evaluate_analytic)'s checks in its order
/// (no stages, no microbatches, a stage-count mismatch, a stage too large
/// for GPU memory).
pub fn simulate_steps_traced(
    stages: &[StageCosts],
    mapping: &Mapping,
    topo: &Topology,
    cfg: &PipelineConfig,
    steps: usize,
    obs: Option<&Obs>,
) -> Result<MultiStepReport, ScheduleError> {
    let none = FaultSchedule::new();
    match simulate_steps_inner(stages, mapping, topo, cfg, steps, &none, obs) {
        Ok(rep) => Ok(rep),
        Err(ExecError::Schedule(e)) => Err(e),
        Err(ExecError::Fault { .. }) => {
            unreachable!("an empty schedule fires no faults")
        }
        // Only a fault degrades a link enough to outlast the clock.
        Err(e @ ExecError::ClockOverflow { .. }) => panic!("{e}"),
    }
}

/// [`simulate_steps_traced`] with a [`FaultSchedule`] attached: its events
/// replay as ordinary engine events, stalled transfers are watched and
/// retried with exponential backoff, and the report carries the fault
/// accounting. An empty schedule arms nothing, so the report is
/// bit-identical to [`simulate_steps_traced`].
///
/// # Errors
///
/// [`ExecError::Schedule`] when the schedule itself is invalid;
/// [`ExecError::Fault`] when a GPU failure or an exhausted retry budget
/// aborted the run; [`ExecError::ClockOverflow`] when a degraded link
/// leaves a transfer unable to finish inside the simulated clock.
pub fn simulate_steps_faulted(
    stages: &[StageCosts],
    mapping: &Mapping,
    topo: &Topology,
    cfg: &PipelineConfig,
    steps: usize,
    faults: &FaultSchedule,
    obs: Option<&Obs>,
) -> Result<MultiStepReport, ExecError> {
    simulate_steps_inner(stages, mapping, topo, cfg, steps, faults, obs)
}

fn simulate_steps_inner(
    stages: &[StageCosts],
    mapping: &Mapping,
    topo: &Topology,
    cfg: &PipelineConfig,
    steps: usize,
    faults: &FaultSchedule,
    obs: Option<&Obs>,
) -> Result<MultiStepReport, ExecError> {
    // The run's own arguments first, then what the analytic core checks.
    if steps == 0 {
        return Err(ScheduleError::EmptyWorkload {
            what: "steps".into(),
        }
        .into());
    }
    if mapping.num_gpus() != topo.num_gpus() {
        return Err(ScheduleError::GpuCountMismatch {
            mapped: mapping.num_gpus(),
            topo: topo.num_gpus(),
        }
        .into());
    }
    check_workload(stages, mapping, cfg)?;
    let s = stages.len();
    let m = cfg.num_microbatches;

    let hetero = cfg.memory_mode == MemoryMode::Heterogeneous;
    let n = topo.num_gpus();

    let mut fwd_slot_of = vec![vec![None; s]; steps];
    let gpus: Vec<GpuRt> = (0..n)
        .map(|g| {
            let fwd = mapping.stages_of(g);
            let last_fwd = fwd.last().copied();
            let mut slots = Vec::new();
            for step in 0..steps {
                for &j in &fwd {
                    let total = if hetero {
                        stages[j].fwd_load_bytes()
                    } else {
                        0
                    };
                    fwd_slot_of[step][j] = Some((g, slots.len()));
                    slots.push(Slot {
                        step,
                        stage: j,
                        phase: Phase::Fwd,
                        load: LoadRt::new(total),
                        deps: Vec::new(),
                        resident: stages[j].resident_fwd(),
                    });
                }
                for &j in fwd.iter().rev() {
                    let total = if hetero {
                        stages[j].bwd_load_bytes(m, Some(j) == last_fwd)
                    } else {
                        0
                    };
                    slots.push(Slot {
                        step,
                        stage: j,
                        phase: Phase::Bwd,
                        load: LoadRt::new(total),
                        deps: Vec::new(),
                        resident: stages[j].resident_bwd(m),
                    });
                }
            }
            GpuRt {
                slots,
                cur: 0,
                mb: 0,
                running: None,
                last_sid: None,
            }
        })
        .collect();

    let mut server = ServerNetwork::new(topo);
    if cfg.strict_validation {
        // Re-check flow conservation on every rate solve and time advance.
        server.net_mut().set_strict_validation(true);
    }
    let mut engine = Engine::new();
    let mut trace = TraceRecorder::new();
    // Link labels and base capacities always feed the recorder: the DAG
    // attributes each flow to its path's bottleneck link, which must work
    // on untraced strict runs (private identity check) too.
    let caps: Vec<f64> = {
        let net = server.net();
        net.link_ids()
            .iter()
            .map(|&l| net.link_capacity(l))
            .collect()
    };
    trace.set_link_labels(server.net().link_labels());
    trace.set_link_capacities(caps.clone());
    if let Some(obs) = obs {
        trace.set_obs(obs.clone());
        server.net_mut().set_obs(obs.clone());
        engine.set_obs(obs.clone());
    }

    // An empty schedule must be indistinguishable from no schedule at all:
    // it arms no events and keeps no link-capacity bookkeeping.
    let (base_caps, link_factor) = if !faults.is_empty() {
        let factors = vec![1.0; caps.len()];
        (caps, factors)
    } else {
        (Vec::new(), Vec::new())
    };

    let inputs = (0..s)
        .map(|j| {
            let input = |arrived| Input { arrived, via: None };
            vec![[input(j == 0), input(j + 1 == s)]; m]
        })
        .collect();

    let mut exec = Executor {
        stages,
        mapping,
        cfg,
        server,
        engine,
        trace,
        gpus,
        inputs: vec![inputs; steps],
        flushes: vec![vec![None; s]; steps],
        fwd_slot_of,
        bwd_done: vec![0; steps],
        step_boundaries: vec![SimTime::ZERO; steps],
        hetero,
        num_stages: s,
        m,
        obs: obs.cloned(),
        dag: DagRecorder::new(obs, cfg.strict_validation),
        step_heads: vec![None; steps],
        faults,
        fault_stats: FaultStats::default(),
        base_caps,
        link_factor,
        gpu_slow: vec![1.0; n],
        pending_relaunches: 0,
        abort: None,
    };
    for (idx, ev) in faults.events().iter().enumerate() {
        exec.engine.schedule(ev.at, Ev::Fault { idx });
    }
    exec.run()?;
    if let Some(abort) = exec.abort {
        return Err(ExecError::Fault {
            abort,
            stats: exec.fault_stats,
        });
    }
    let drain_time = exec.engine.now();
    // Boundaries are committed only on successful runs: an aborted attempt
    // leaves its nodes in the caller's DAG, but without boundaries they are
    // unreachable from any verified head and stay inert under analysis.
    if let Some(dag) = exec.dag.obs() {
        for (i, &b) in exec.step_boundaries.iter().enumerate() {
            if let Some(sid) = exec.step_heads[i] {
                dag.dag_boundary(b.as_nanos(), sid);
            }
        }
        if cfg.strict_validation {
            // Cross-layer validator: the recorded dependency DAG must
            // reconstruct every step boundary as an exact critical-path
            // tiling. A failure means the executor started work at a time
            // its recorded constraints cannot explain.
            dag.assert_dag_identity("critical-path identity", drain_time.as_nanos());
        }
    }
    if let Some(obs) = obs {
        for (i, &b) in exec.step_boundaries.iter().enumerate() {
            let mut attrs = vec![("step", AttrValue::U64(i as u64))];
            if let Some(sid) = exec.step_heads[i] {
                attrs.push(("sid", AttrValue::U64(sid)));
            }
            obs.mark(Lane::Run, "pipeline", "step-boundary", b.as_nanos(), attrs);
        }
        // Bubble fraction: GPU time not spent computing, relative to the
        // whole run (drain included) — the quantity behind Figure 8's
        // exposed-communication story.
        let total = drain_time.as_secs_f64();
        if total > 0.0 {
            let mut sum = 0.0;
            for g in 0..topo.num_gpus() {
                let busy = exec.trace.compute_time(g).as_secs_f64();
                let bubble = (1.0 - busy / total).max(0.0);
                obs.gauge_set(&format!("bubble.gpu{g}"), bubble);
                sum += bubble;
            }
            obs.gauge_set("bubble.mean", sum / topo.num_gpus() as f64);
        }
    }
    // Stages that never launched a gradient offload (resident-memory
    // modes) have their gradients ready at the step boundary, flushed by
    // the step head; a flush stamped at t = 0 takes the boundary time too.
    // Private (strict-untraced) node ids must not leak into the report.
    let step_heads: Vec<Option<u64>> = exec
        .step_heads
        .iter()
        .map(|&h| exec.dag.public(h))
        .collect();
    let (grad_flush, grad_flush_sids) = exec
        .flushes
        .iter()
        .zip(exec.step_boundaries.iter().zip(&step_heads))
        .map(|(row, (&boundary, &head))| {
            row.iter()
                .map(|f| {
                    let at = f.map_or(SimTime::ZERO, |f| f.at);
                    let at = if at == SimTime::ZERO { boundary } else { at };
                    (at, exec.dag.public(f.and_then(|f| f.sid)).or(head))
                })
                .unzip()
        })
        .unzip();
    Ok(MultiStepReport {
        step_boundaries: exec.step_boundaries,
        drain_time,
        trace: exec.trace,
        faults: exec.fault_stats,
        grad_flush,
        step_heads,
        grad_flush_sids,
    })
}

/// Edges chaining a transfer after the end of the compute that produced
/// its data (none without a DAG).
fn produced_by(producer: Option<u64>) -> Vec<DagDep> {
    producer
        .map(|p| DagDep::after_end(p, 0, "produce"))
        .into_iter()
        .collect()
}

impl Executor<'_> {
    fn run(&mut self) -> Result<(), ClockOverflow<Transfer>> {
        // Kick off the first slot's load on every GPU.
        for g in 0..self.gpus.len() {
            self.start_residual_for_slot(g, 0, None);
        }
        self.pump();
        loop {
            // Faulted runs may hold bookkeeping events (watchdogs, window
            // closes) past the end of real work; don't let them stretch the
            // drain time. Unfaulted runs never take this branch, keeping
            // their loop byte-identical to before.
            if !self.faults.is_empty() && self.work_complete() {
                break;
            }
            match mobius_sim::step(self.server.net_mut(), &mut self.engine)? {
                None => break,
                Some(Step::Flow(_, rec, transfer)) => self.complete_flow(rec, transfer),
                Some(Step::Event(_, ev)) => self.handle_event(ev),
            }
            if self.abort.is_some() {
                break;
            }
            self.pump();
        }
        debug_assert!(
            self.abort.is_some() || self.bwd_done.iter().all(|&d| d == self.num_stages * self.m),
            "simulation ended before all backward work completed"
        );
        Ok(())
    }

    /// All compute retired, no flow in flight, no retry pending: anything
    /// left in the event queue is fault bookkeeping.
    fn work_complete(&self) -> bool {
        self.pending_relaunches == 0
            && self.server.net().active_flows() == 0
            && self.bwd_done.iter().all(|&d| d == self.num_stages * self.m)
    }

    fn handle_event(&mut self, ev: Ev) {
        match ev {
            Ev::ComputeDone { gpu } => self.compute_done(gpu),
            Ev::ActArrived(key) => self.input_mut(key).arrived = true,
            Ev::LoadUsable { gpu, idx } => {
                self.gpus[gpu].slots[idx].load.usable = true;
            }
            Ev::Fault { idx } => self.apply_fault(idx),
            Ev::FaultEnd { idx } => self.end_fault(idx),
            Ev::StallEnd { fid } => self.server.net_mut().set_flow_blocked(fid, false),
            Ev::Watchdog {
                fid,
                remaining,
                attempt,
                stalled_until,
            } => self.watchdog_check(fid, remaining, attempt, stalled_until),
            Ev::Relaunch(spec) => {
                self.pending_relaunches -= 1;
                self.relaunch(*spec);
            }
        }
    }

    /// Replays scheduled fault `idx` at the current instant.
    fn apply_fault(&mut self, idx: usize) {
        let faults = self.faults;
        let kind = faults.events()[idx].kind.clone();
        let now = self.engine.now();
        self.fault_stats.injected += 1;
        if let Some(obs) = &self.obs {
            obs.counter_add("fault.injected", 1.0);
        }
        match kind {
            FaultKind::LinkDegrade {
                link,
                factor,
                until,
            } => {
                self.fault_stats.link_degrades += 1;
                self.scale_matching_links(&link, factor);
                if let Some(obs) = &self.obs {
                    obs.counter_add("fault.link_degrade", 1.0);
                    obs.mark(
                        Lane::Run,
                        "fault",
                        "link-degrade",
                        now.as_nanos(),
                        vec![
                            ("link", AttrValue::Str(link.clone())),
                            ("factor", AttrValue::F64(factor)),
                        ],
                    );
                }
                self.engine.schedule(until, Ev::FaultEnd { idx });
            }
            FaultKind::GpuSlowdown { gpu, factor, until } => {
                if gpu < self.gpu_slow.len() {
                    self.fault_stats.slowdowns += 1;
                    self.gpu_slow[gpu] *= factor;
                    if let Some(obs) = &self.obs {
                        obs.counter_add("fault.slowdown", 1.0);
                        obs.mark(
                            Lane::Gpu(gpu),
                            "fault",
                            "straggler",
                            now.as_nanos(),
                            vec![("factor", AttrValue::F64(factor))],
                        );
                    }
                    self.engine.schedule(until, Ev::FaultEnd { idx });
                }
            }
            FaultKind::TransferStall { duration } => {
                // Deterministic victim: the oldest (smallest-id) in-flight
                // flow not already frozen.
                let victim = self
                    .server
                    .net()
                    .active_flow_ids()
                    .into_iter()
                    .find(|&f| self.server.net().is_flow_blocked(f) == Some(false));
                if let Some(fid) = victim {
                    self.fault_stats.stalls += 1;
                    self.server.net_mut().set_flow_blocked(fid, true);
                    let stalled_until = now + duration;
                    self.engine.schedule(stalled_until, Ev::StallEnd { fid });
                    let remaining = self.server.net().remaining_of(fid).unwrap_or(0.0);
                    self.engine.schedule_after(
                        faults.watchdog_timeout,
                        Ev::Watchdog {
                            fid,
                            remaining,
                            attempt: 0,
                            stalled_until,
                        },
                    );
                    if let Some(obs) = &self.obs {
                        obs.counter_add("fault.stall", 1.0);
                        obs.mark(
                            Lane::Run,
                            "fault",
                            "transfer-stall",
                            now.as_nanos(),
                            vec![(
                                "duration_ms",
                                AttrValue::F64(secs_to_ms(duration.as_secs_f64())),
                            )],
                        );
                    }
                }
            }
            FaultKind::GpuFail { gpu } => {
                self.fault_stats.gpu_failures += 1;
                if let Some(obs) = &self.obs {
                    obs.counter_add("fault.gpu_fail", 1.0);
                    obs.mark(
                        Lane::Run,
                        "fault",
                        "gpu-fail",
                        now.as_nanos(),
                        vec![("gpu", AttrValue::U64(gpu as u64))],
                    );
                }
                self.abort = Some(FaultAbort::GpuFailed { gpu, at: now });
            }
            // Process crashes are consumed by the checkpointing driver
            // above the executor (which strips them before handing the
            // schedule down); inside a step they are inert so a crash-only
            // schedule leaves in-step timings untouched.
            FaultKind::Crash { .. } => {
                self.fault_stats.injected -= 1;
            }
        }
    }

    /// Closes the degradation/straggler window of fault `idx`.
    fn end_fault(&mut self, idx: usize) {
        let faults = self.faults;
        match &faults.events()[idx].kind {
            FaultKind::LinkDegrade { link, factor, .. } => {
                let (link, factor) = (link.clone(), *factor);
                self.scale_matching_links(&link, 1.0 / factor);
            }
            FaultKind::GpuSlowdown { gpu, factor, .. } if *gpu < self.gpu_slow.len() => {
                self.gpu_slow[*gpu] /= factor;
            }
            _ => {}
        }
    }

    /// Multiplies the degradation factor of every link whose label contains
    /// `pat` and re-applies capacities (rates re-solve at the next read).
    fn scale_matching_links(&mut self, pat: &str, factor: f64) {
        let ids = self.server.net().link_ids();
        let labels = self.server.net().link_labels();
        for (l, label) in ids.into_iter().zip(labels) {
            if label.contains(pat) {
                self.link_factor[l.index()] *= factor;
                let cap = self.base_caps[l.index()] * self.link_factor[l.index()];
                self.server.net_mut().set_link_capacity(l, cap);
            }
        }
    }

    /// Progress check on a transfer hit by a stall: retry if still frozen,
    /// keep watching if merely preempted, stand down once it moves again.
    fn watchdog_check(
        &mut self,
        fid: FlowId,
        remaining: f64,
        attempt: u32,
        stalled_until: SimTime,
    ) {
        let faults = self.faults;
        let Some(rem_now) = self.server.net().remaining_of(fid) else {
            return; // completed or already retried under a new id
        };
        if rem_now < remaining {
            return; // moving again; a fresh stall arms a fresh watchdog
        }
        if self.server.net().is_flow_blocked(fid) != Some(true) {
            // Zero progress but not frozen: legitimately preempted by
            // higher-priority traffic. Keep watching.
            self.engine.schedule_after(
                faults.watchdog_timeout,
                Ev::Watchdog {
                    fid,
                    remaining: rem_now,
                    attempt,
                    stalled_until,
                },
            );
            return;
        }
        let now = self.engine.now();
        let next = attempt + 1;
        if next > faults.max_retries {
            self.fault_stats.aborted_transfers += 1;
            if let Some(obs) = &self.obs {
                obs.counter_add("retry.aborted", 1.0);
            }
            self.abort = Some(FaultAbort::RetriesExhausted {
                attempts: attempt,
                at: now,
            });
            return;
        }
        let path = self.server.net().path_of(fid).expect("retried flow path");
        let prio = self
            .server
            .net()
            .priority_of(fid)
            .expect("retried flow priority");
        let (_, transfer) = self.server.net_mut().cancel(fid).expect("retried flow");
        // The cancelled attempt's occupancy ends here; the relaunch node
        // chains after it with the backoff as the edge latency.
        if let (Some(dag), Some(sid)) = (self.dag.obs(), transfer.sid) {
            dag.dag_close(sid, now.as_nanos());
        }
        self.fault_stats.retries += 1;
        if let Some(obs) = &self.obs {
            obs.counter_add("retry.count", 1.0);
            obs.mark(
                Lane::Run,
                "fault",
                "retry",
                now.as_nanos(),
                vec![("attempt", AttrValue::U64(u64::from(next)))],
            );
        }
        // Attempt k backs off retry_base × 2^(k-1).
        let backoff = SimTime::from_nanos(
            faults
                .retry_base
                .as_nanos()
                .saturating_mul(1u64 << (next - 1).min(32)),
        );
        self.pending_relaunches += 1;
        self.engine.schedule_after(
            backoff,
            Ev::Relaunch(Box::new(RetrySpec {
                path,
                bytes: rem_now.max(1.0),
                prio,
                transfer,
                attempt: next,
                stalled_until,
                backoff,
            })),
        );
    }

    /// Re-queues a cancelled transfer as a fresh flow. If the stall window
    /// that killed it is still open, the relaunch freezes too and the
    /// watchdog keeps counting toward the retry budget.
    fn relaunch(&mut self, mut spec: RetrySpec) {
        let faults = self.faults;
        if self.abort.is_some() {
            return;
        }
        let deps = match spec.transfer.sid {
            Some(p) => vec![DagDep::after_end(
                p,
                spec.backoff.as_nanos(),
                "retry-backoff",
            )],
            None => Vec::new(),
        };
        spec.transfer.sid = self.open_flow_node(&spec.path, spec.transfer.kind, deps);
        let fid = self
            .server
            .net_mut()
            .start_flow(spec.path, spec.bytes, spec.prio, spec.transfer);
        let now = self.engine.now();
        if now < spec.stalled_until {
            self.server.net_mut().set_flow_blocked(fid, true);
            self.engine
                .schedule(spec.stalled_until, Ev::StallEnd { fid });
            self.engine.schedule_after(
                faults.watchdog_timeout,
                Ev::Watchdog {
                    fid,
                    remaining: spec.bytes,
                    attempt: spec.attempt,
                    stalled_until: spec.stalled_until,
                },
            );
        }
    }

    fn complete_flow(&mut self, rec: FlowRecord, transfer: Transfer) {
        let sid = transfer.sid;
        self.trace.record_flow(&rec, transfer.kind, &transfer.gpus);
        // A flow has a node exactly when a DAG is recorded.
        if let (Some(dag), Some(fsid)) = (self.dag.obs(), sid) {
            dag.dag_close(fsid, self.engine.now().as_nanos());
        }
        match transfer.purpose {
            Purpose::Load { gpu, idx, residual } => {
                let overhead = self.cfg.swap_overhead;
                if let Some(fsid) = sid {
                    // The slot's compute may only start once this upload
                    // landed and the swap overhead elapsed. With both a
                    // prefetch and a residual flow, the later one binds.
                    self.gpus[gpu].slots[idx].deps.push(DagDep::after_end(
                        fsid,
                        overhead.as_nanos(),
                        "swap-overhead",
                    ));
                }
                let l = &mut self.gpus[gpu].slots[idx].load;
                if residual {
                    l.residual = Upload::Done;
                } else {
                    l.prefetch = Upload::Done;
                }
                // Each upload completes once, so this fires once per slot.
                if l.transferred() {
                    self.engine
                        .schedule_after(overhead, Ev::LoadUsable { gpu, idx });
                }
            }
            Purpose::ActTransfer(key) => {
                if let Some(fsid) = sid {
                    self.input_mut(key).via = Some(Via::Transfer(fsid));
                }
                self.engine
                    .schedule_after(self.cfg.act_latency, Ev::ActArrived(key));
            }
            Purpose::GradOffload { step, stage } => {
                self.flushes[step][stage] = Some(Flush {
                    at: self.engine.now(),
                    sid,
                });
                self.unblock_gated_load(step, stage, sid);
            }
            Purpose::Bookkeeping => {}
        }
    }

    /// Gradients of `(step, stage)` reached DRAM: the stage may reload for
    /// step `step + 1` if its load was waiting on the gate. `flush_sid` is
    /// the gradient-offload flow's DAG node — unblocked loads chain after
    /// its end (the reload-gate dependency of §3, constraint 4).
    fn unblock_gated_load(&mut self, step: usize, stage: usize, flush_sid: Option<u64>) {
        let Some((g, idx)) = self.fwd_slot_of.get(step + 1).and_then(|row| row[stage]) else {
            return;
        };
        let l = self.gpus[g].slots[idx].load;
        let trig = || flush_sid.map(|s| DagDep::after_end(s, 0, "reload-gate"));
        if let Upload::Gated(reserved) = l.prefetch {
            self.launch_prefetch(g, idx, reserved, trig());
        }
        if let Upload::Gated(_) = l.residual {
            self.launch_residual(g, idx, trig());
        }
    }

    /// Whether the load of slot `(g, idx)` is allowed to move data yet.
    fn load_gate_open(&self, g: usize, idx: usize) -> bool {
        let slot = &self.gpus[g].slots[idx];
        if slot.phase != Phase::Fwd || slot.step == 0 || !self.hetero {
            return true;
        }
        self.flushes[slot.step - 1][slot.stage].is_some()
    }

    /// Starts every compute that has become ready.
    fn pump(&mut self) {
        for g in 0..self.gpus.len() {
            let gpu = &self.gpus[g];
            if gpu.running.is_some() || gpu.cur >= gpu.slots.len() {
                continue;
            }
            let (cur, mb) = (gpu.cur, gpu.mb);
            let slot = &gpu.slots[cur];
            let input = &self.inputs[slot.step][slot.stage][mb][slot.phase as usize];
            if !slot.load.usable || !input.arrived {
                continue;
            }
            let duration = match slot.phase {
                Phase::Fwd => self.stages[slot.stage].fwd,
                Phase::Bwd => self.stages[slot.stage].bwd,
            };
            // Straggler windows stretch tasks *starting* inside them. The
            // exact-1.0 guard keeps unfaulted runs off the float round trip.
            let duration = if self.gpu_slow[g] == 1.0 {
                duration
            } else {
                SimTime::from_secs_f64(duration.as_secs_f64() * self.gpu_slow[g])
            };
            let now = self.engine.now();
            let sid = self.dag.obs().map(|dag| {
                let mut deps = Vec::new();
                if let Some(prev) = gpu.last_sid {
                    deps.push(DagDep::after_end(prev, 0, "gpu-serial"));
                }
                deps.extend(slot.deps.iter().cloned());
                deps.extend(input.via.map(|via| match via {
                    Via::Local(p) => DagDep::after_end(p, 0, "act-local"),
                    Via::Transfer(f) => {
                        DagDep::after_end(f, self.cfg.act_latency.as_nanos(), "act-latency")
                    }
                }));
                let phase_s = match slot.phase {
                    Phase::Fwd => "fwd",
                    Phase::Bwd => "bwd",
                };
                dag.dag_open(
                    "compute",
                    format!("{phase_s} s{} mb{} step{}", slot.stage, mb, slot.step),
                    ResourceId::Gpu(g),
                    now.as_nanos(),
                    deps,
                )
            });
            let gpu = &mut self.gpus[g];
            gpu.running = Some(now);
            gpu.last_sid = sid;
            self.engine
                .schedule_after(duration, Ev::ComputeDone { gpu: g });
            if mb == 0 {
                self.request_prefetch_for_next_slot(g, cur);
            }
        }
    }

    fn compute_done(&mut self, g: usize) {
        let gpu = &mut self.gpus[g];
        let started = gpu.running.take().expect("no compute running");
        let head_sid = gpu.last_sid;
        let finished_slot = gpu.cur;
        let Slot {
            step,
            stage: j,
            phase,
            ..
        } = gpu.slots[finished_slot];
        let mb = gpu.mb;
        let slot_done = mb + 1 == self.m;
        if slot_done {
            gpu.cur += 1;
            gpu.mb = 0;
        } else {
            gpu.mb = mb + 1;
        }
        let now = self.engine.now();
        self.trace.record_compute(g, started, now);
        if let (Some(dag), Some(sid)) = (self.dag.obs(), head_sid) {
            dag.dag_close(sid, now.as_nanos());
        }

        if phase == Phase::Bwd {
            self.bwd_done[step] += 1;
            if self.bwd_done[step] == self.num_stages * self.m {
                self.step_boundaries[step] = now;
                self.step_heads[step] = head_sid;
            }
        }
        if let Some(stage) = phase.next_stage(j, self.num_stages) {
            let to = InputKey {
                step,
                stage,
                mb,
                phase,
            };
            self.send(j, to, head_sid);
        }
        match phase {
            Phase::Fwd if self.hetero && j > 0 && self.stages[j].in_act_bytes > 0 => {
                // Checkpoint offload of this microbatch's stage input.
                let path = self.server.gpu_to_dram(g);
                self.launch(
                    path,
                    self.stages[j].in_act_bytes,
                    30,
                    Purpose::Bookkeeping,
                    CommKind::ActivationOffload,
                    vec![g],
                    produced_by(head_sid),
                );
            }
            Phase::Bwd if self.hetero && slot_done => {
                let path = self.server.gpu_to_dram(g);
                self.launch(
                    path,
                    self.stages[j].grad_bytes.max(1),
                    20,
                    Purpose::GradOffload { step, stage: j },
                    CommKind::GradientOffload,
                    vec![g],
                    produced_by(head_sid),
                );
            }
            _ => {}
        }
        if slot_done {
            // Memory of the finished slot is free: start the next slot's
            // residual upload.
            let trig = head_sid.map(|s| DagDep::after_end(s, 0, "slot-retire"));
            self.start_residual_for_slot(g, finished_slot + 1, trig);
        }
    }

    /// Hands stage `from`'s output to input `to`: the activation forward,
    /// the gradient backward. Both carry the later stage's input
    /// activation size; a same-GPU handoff moves nothing.
    fn send(&mut self, from: usize, to: InputKey, producer: Option<u64>) {
        let g_from = self.mapping.gpu_of(from);
        let g_to = self.mapping.gpu_of(to.stage);
        match self.server.gpu_to_gpu(g_from, g_to) {
            None => {
                let input = self.input_mut(to);
                input.arrived = true;
                input.via = producer.map(Via::Local);
            }
            Some(path) => self.launch(
                path,
                self.stages[from.max(to.stage)].in_act_bytes.max(1),
                255,
                Purpose::ActTransfer(to),
                CommKind::ActivationTransfer,
                vec![g_from, g_to],
                produced_by(producer),
            ),
        }
    }

    fn input_mut(&mut self, k: InputKey) -> &mut Input {
        &mut self.inputs[k.step][k.stage][k.mb][k.phase as usize]
    }

    /// When slot `idx` starts computing its first microbatch, the next
    /// slot's data may prefetch into the reserved memory (constraint 5),
    /// unless gated on a pending gradient flush.
    fn request_prefetch_for_next_slot(&mut self, g: usize, idx: usize) {
        let next = idx + 1;
        if next >= self.gpus[g].slots.len() || !self.cfg.prefetch {
            return;
        }
        let reserved = self
            .cfg
            .gpu_mem_bytes
            .saturating_sub(self.gpus[g].slots[idx].resident);
        if self.gpus[g].slots[next].load.prefetch.started() {
            return;
        }
        if self.load_gate_open(g, next) {
            // The prefetch window opens the moment the covering compute
            // *starts* (constraint 5 reserves memory next to it).
            let trig = self.gpus[g]
                .last_sid
                .map(|s| DagDep::after_start(s, 0, "prefetch-window"));
            self.launch_prefetch(g, next, reserved, trig);
        } else {
            self.gpus[g].slots[next].load.prefetch = Upload::Gated(reserved);
        }
    }

    fn launch_prefetch(&mut self, g: usize, idx: usize, reserved: u64, trigger: Option<DagDep>) {
        let l = &mut self.gpus[g].slots[idx].load;
        if l.prefetch.started() {
            return;
        }
        let p = l.total_bytes.min(reserved);
        l.prefetch_bytes = p;
        if p == 0 {
            l.prefetch = Upload::Done; // everything uploads as residual
            return;
        }
        l.prefetch = Upload::InFlight;
        if self.cfg.strict_validation {
            // Constraint 5: the prefetch must fit next to whatever the GPU
            // is currently computing on. Recomputed from the live GPU
            // state, independently of the `reserved` budget we were handed.
            let gpu = &self.gpus[g];
            let computing = if gpu.running.is_some() {
                gpu.slots[gpu.cur].resident
            } else {
                0
            };
            if computing + p > self.cfg.gpu_mem_bytes {
                let msg = format!(
                    "prefetch of {p} B for slot {idx} on GPU {g} oversubscribes memory: \
                     {computing} B already resident of {} B capacity (constraint 5)",
                    self.cfg.gpu_mem_bytes
                );
                if let Some(obs) = &self.obs {
                    obs.violation("pipeline-constraint-5", &msg, self.engine.now().as_nanos());
                }
                panic!("{msg}");
            }
        }
        self.launch_upload(g, idx, p, false, trigger);
    }

    /// When slot `idx - 1` retires (or at t = 0 for the first slot), the
    /// slot's remaining bytes upload, blocking its computation — again
    /// gated on the previous step's gradient flush.
    fn start_residual_for_slot(&mut self, g: usize, idx: usize, trigger: Option<DagDep>) {
        if idx >= self.gpus[g].slots.len() {
            return;
        }
        if self.load_gate_open(g, idx) {
            self.launch_residual(g, idx, trigger);
        } else {
            // A slot with nothing to upload is done already.
            let l = &mut self.gpus[g].slots[idx].load;
            if l.residual == Upload::Idle {
                l.residual = Upload::Gated(0);
            }
        }
    }

    fn launch_residual(&mut self, g: usize, idx: usize, trigger: Option<DagDep>) {
        let l = &mut self.gpus[g].slots[idx].load;
        if l.residual.started() {
            return;
        }
        // The residual takes whatever has not prefetched (everything on the
        // first slot); no prefetch may start after it.
        if !l.prefetch.started() {
            l.prefetch = Upload::Done;
        }
        let bytes = l.total_bytes - l.prefetch_bytes;
        if let (Some(obs), true) = (&self.obs, l.total_bytes > 0) {
            // A slot swap whose bytes all arrived by prefetch never
            // blocks compute — the paper's prefetch win. Any residual
            // left to upload synchronously is a (partial) miss.
            obs.counter_add("swap.count", 1.0);
            obs.counter_add(
                if bytes == 0 {
                    "prefetch.hit"
                } else {
                    "prefetch.miss"
                },
                1.0,
            );
        }
        if bytes > 0 {
            l.residual = Upload::InFlight;
        } else {
            l.residual = Upload::Done;
            if l.transferred() {
                let overhead = self.cfg.swap_overhead;
                self.engine
                    .schedule_after(overhead, Ev::LoadUsable { gpu: g, idx });
                // Full prefetch hit: usability is trigger + overhead
                // (no residual flow node exists to carry the edge).
                if let Some(t) = trigger {
                    self.gpus[g].slots[idx].deps.push(DagDep {
                        lat_ns: t.lat_ns + overhead.as_nanos(),
                        label: "swap-overhead".to_string(),
                        ..t
                    });
                }
            }
            return;
        }
        self.launch_upload(g, idx, bytes, true, trigger);
    }

    /// Starts slot `idx`'s prefetch or residual upload flow.
    fn launch_upload(
        &mut self,
        g: usize,
        idx: usize,
        bytes: u64,
        residual: bool,
        trigger: Option<DagDep>,
    ) {
        let slot = &self.gpus[g].slots[idx];
        let prio = self.load_priority(slot.stage, slot.phase);
        let path = self.server.dram_to_gpu(g);
        self.launch(
            path,
            bytes,
            prio,
            Purpose::Load {
                gpu: g,
                idx,
                residual,
            },
            CommKind::StageUpload,
            vec![g],
            trigger.into_iter().collect(),
        );
    }

    /// Prefetch priority (§3.3): the stage that executes earlier gets the
    /// higher priority. Forward slots precede backward slots; backward runs
    /// in reverse stage order.
    fn load_priority(&self, stage: usize, phase: Phase) -> u8 {
        if !self.cfg.prioritized_loads {
            return 100;
        }
        let s = self.num_stages;
        let rank = match phase {
            Phase::Fwd => stage,
            Phase::Bwd => s + (s - 1 - stage),
        };
        (200usize.saturating_sub(rank)).max(1) as u8
    }

    /// Opens the flow's DAG node on its path's bottleneck link (by base
    /// capacity — the stable attribution target even while a fault window
    /// temporarily degrades some other link).
    fn open_flow_node(&self, path: &[LinkId], kind: CommKind, deps: Vec<DagDep>) -> Option<u64> {
        let dag = self.dag.obs()?;
        let label = self.trace.bottleneck_label(path).unwrap_or("unknown");
        Some(dag.dag_open(
            "flow",
            kind.label(),
            ResourceId::Link(label.to_string()),
            self.engine.now().as_nanos(),
            deps,
        ))
    }

    #[allow(clippy::too_many_arguments)] // one flat call site per transfer kind
    fn launch(
        &mut self,
        path: Vec<mobius_sim::LinkId>,
        bytes: u64,
        prio: u8,
        purpose: Purpose,
        kind: CommKind,
        gpus: Vec<usize>,
        deps: Vec<DagDep>,
    ) {
        let sid = self.open_flow_node(&path, kind, deps);
        let transfer = Transfer {
            purpose,
            kind,
            gpus,
            sid,
        };
        self.server
            .net_mut()
            .start_flow(path, bytes as f64, prio, transfer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PipelineConfig;
    use mobius_topology::GpuSpec;

    const GB: u64 = 1 << 30;

    fn stage(ms: u64, param: u64, act: u64) -> StageCosts {
        StageCosts {
            fwd: SimTime::from_millis(ms),
            bwd: SimTime::from_millis(2 * ms),
            param_bytes: param,
            grad_bytes: param,
            in_act_bytes: act,
            out_act_bytes: act,
            workspace_bytes: 0,
        }
    }

    fn topo22() -> Topology {
        Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2])
    }

    fn cfg(m: usize, mode: MemoryMode) -> PipelineConfig {
        PipelineConfig {
            num_microbatches: m,
            gpu_mem_bytes: 24 * GB,
            bandwidth: 13.1e9,
            memory_mode: mode,
            swap_overhead: SimTime::ZERO,
            act_latency: SimTime::ZERO,
            prefetch: true,
            prioritized_loads: true,
            strict_validation: false,
        }
    }

    #[test]
    fn resident_mode_matches_gpipe_analytic() {
        // 4 equal stages with negligible communication: the event-driven
        // executor must land exactly on the GPipe fill/drain makespan.
        let stages: Vec<StageCosts> = (0..4).map(|_| stage(10, 100, 1)).collect();
        let mapping = Mapping::sequential(4, 4);
        let rep =
            simulate_step(&stages, &mapping, &topo22(), &cfg(4, MemoryMode::Resident)).unwrap();
        // fwd drain at 70ms, bwd at 70 + 140 = 210ms (act hops ~ns).
        let t = rep.step_time.as_secs_f64();
        assert!((t - 0.210).abs() < 1e-3, "step {t}");
    }

    #[test]
    fn hetero_uploads_generate_traffic() {
        let stages: Vec<StageCosts> = (0..8).map(|_| stage(10, GB, 1 << 20)).collect();
        let mapping = Mapping::sequential(8, 4);
        let rep = simulate_step(
            &stages,
            &mapping,
            &topo22(),
            &cfg(4, MemoryMode::Heterogeneous),
        )
        .unwrap();
        let by_kind = rep.trace.traffic_by_kind();
        // 8 fwd loads + 4 bwd re-loads (per-GPU-last stages keep params).
        let uploads = by_kind[&CommKind::StageUpload];
        assert!(
            uploads >= 12.0 * GB as f64,
            "uploads {} GiB",
            uploads / GB as f64
        );
        assert!(by_kind.contains_key(&CommKind::GradientOffload));
        assert!(rep.drain_time >= rep.step_time);
    }

    #[test]
    fn contention_slows_topo4_relative_to_2_plus_2() {
        let stages: Vec<StageCosts> = (0..8).map(|_| stage(30, 2 * GB, 1 << 20)).collect();
        let mapping = Mapping::sequential(8, 4);
        let c = cfg(4, MemoryMode::Heterogeneous);
        let t22 = simulate_step(&stages, &mapping, &topo22(), &c)
            .unwrap()
            .step_time;
        let t4 = simulate_step(
            &stages,
            &mapping,
            &Topology::commodity(GpuSpec::rtx3090ti(), &[4]),
            &c,
        )
        .unwrap()
        .step_time;
        assert!(
            t4 > t22,
            "Topo 4 ({t4}) should be slower than Topo 2+2 ({t22})"
        );
    }

    #[test]
    fn cross_mapping_helps_under_contention() {
        // Communication-heavy stages on 8 GPUs, 4+4 topology (the paper's
        // Figure 10 setting).
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[4, 4]);
        let stages: Vec<StageCosts> = (0..16).map(|_| stage(25, 2 * GB, 8 << 20)).collect();
        let c = cfg(8, MemoryMode::Heterogeneous);
        let seq = Mapping::sequential(16, 8);
        let cross = Mapping::cross(&topo, 16);
        let t_seq = simulate_step(&stages, &seq, &topo, &c).unwrap().step_time;
        let t_cross = simulate_step(&stages, &cross, &topo, &c).unwrap().step_time;
        assert!(
            t_cross <= t_seq,
            "cross {t_cross} should not lose to sequential {t_seq}"
        );
    }

    #[test]
    fn all_microbatches_complete() {
        let stages: Vec<StageCosts> = (0..8).map(|_| stage(5, GB / 2, 1 << 20)).collect();
        let mapping = Mapping::sequential(8, 4);
        let rep = simulate_step(
            &stages,
            &mapping,
            &topo22(),
            &cfg(3, MemoryMode::Heterogeneous),
        )
        .unwrap();
        assert!(rep.step_time > SimTime::ZERO);
        // Every GPU computed 2 stages × 3 mb × (fwd + bwd).
        for g in 0..4 {
            assert!(rep.trace.compute_time(g) > SimTime::ZERO);
        }
    }

    #[test]
    fn oom_rejected() {
        let stages: Vec<StageCosts> = (0..4).map(|_| stage(10, 30 * GB, 0)).collect();
        let mapping = Mapping::sequential(4, 4);
        let err = simulate_step(
            &stages,
            &mapping,
            &topo22(),
            &cfg(1, MemoryMode::Heterogeneous),
        );
        assert!(matches!(err, Err(ScheduleError::StageTooLarge { .. })));
    }

    #[test]
    fn step_time_close_to_analytic_when_uncontended() {
        // 4 GPUs, one stage each, different root complexes → no contention;
        // executor and analytic should agree closely.
        let stages: Vec<StageCosts> = (0..4).map(|_| stage(50, GB, 1 << 20)).collect();
        let mapping = Mapping::sequential(4, 4);
        let c = cfg(4, MemoryMode::Heterogeneous);
        let analytic = crate::evaluate_analytic(&stages, &mapping, &c)
            .unwrap()
            .step_time;
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[1, 1, 1, 1]);
        let sim = simulate_step(&stages, &mapping, &topo, &c)
            .unwrap()
            .step_time;
        let ratio = sim.as_secs_f64() / analytic.as_secs_f64();
        assert!(
            (0.8..1.25).contains(&ratio),
            "sim {sim} vs analytic {analytic} (ratio {ratio})"
        );
    }

    // ----- multi-step -----

    #[test]
    fn multi_step_boundaries_increase() {
        let stages: Vec<StageCosts> = (0..8).map(|_| stage(10, GB / 2, 1 << 20)).collect();
        let mapping = Mapping::sequential(8, 4);
        let rep = simulate_steps_traced(
            &stages,
            &mapping,
            &topo22(),
            &cfg(4, MemoryMode::Heterogeneous),
            3,
            None,
        )
        .unwrap();
        assert_eq!(rep.step_boundaries.len(), 3);
        assert!(rep.step_boundaries.windows(2).all(|w| w[0] < w[1]));
        assert!(rep.drain_time >= rep.step_boundaries[2]);
    }

    #[test]
    fn steady_state_stays_within_band_of_first_step() {
        // Cross-step prefetching hides the next step's first uploads behind
        // the current step's backward tail, but the steady-state step also
        // pays the gradient-flush dependency (stage 0's gradients land last
        // and gate its reload), so it sits near — not below — the first
        // step.
        let stages: Vec<StageCosts> = (0..8).map(|_| stage(40, 2 * GB, 1 << 20)).collect();
        let mapping = Mapping::sequential(8, 4);
        let rep = simulate_steps_traced(
            &stages,
            &mapping,
            &topo22(),
            &cfg(4, MemoryMode::Heterogeneous),
            4,
            None,
        )
        .unwrap();
        let first = rep.step_duration(0).as_secs_f64();
        let steady = rep.steady_state_step().as_secs_f64();
        let ratio = steady / first;
        assert!(
            (0.85..1.25).contains(&ratio),
            "steady {steady:.2}s vs first {first:.2}s (ratio {ratio:.2})"
        );
        // Later steps are consistent with each other (within 5%).
        let s2 = rep.step_duration(2).as_secs_f64();
        let s3 = rep.step_duration(3).as_secs_f64();
        assert!(
            (s2 / s3 - 1.0).abs() < 0.05,
            "steps 2/3 diverge: {s2} vs {s3}"
        );
    }

    #[test]
    fn multi_step_traffic_scales_linearly() {
        let stages: Vec<StageCosts> = (0..8).map(|_| stage(10, GB, 1 << 20)).collect();
        let mapping = Mapping::sequential(8, 4);
        let c = cfg(2, MemoryMode::Heterogeneous);
        let one = simulate_steps_traced(&stages, &mapping, &topo22(), &c, 1, None)
            .unwrap()
            .trace
            .total_traffic();
        let three = simulate_steps_traced(&stages, &mapping, &topo22(), &c, 3, None)
            .unwrap()
            .trace
            .total_traffic();
        let ratio = three / one;
        assert!(
            (2.9..3.1).contains(&ratio),
            "3 steps should move 3x the bytes, got {ratio:.2}x"
        );
    }

    #[test]
    fn gradient_gate_orders_reload_after_flush() {
        // One GPU, one stage, two steps: step 1's forward load may only run
        // after step 0's gradient offload.
        let s = StageCosts {
            fwd: SimTime::from_millis(10),
            bwd: SimTime::from_millis(20),
            param_bytes: GB,
            grad_bytes: 4 * GB,
            in_act_bytes: 0,
            out_act_bytes: 0,
            workspace_bytes: 0,
        };
        let mapping = Mapping::from_table(vec![0], 1);
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[1]);
        let rep = simulate_steps_traced(
            &[s],
            &mapping,
            &topo,
            &cfg(1, MemoryMode::Heterogeneous),
            2,
            None,
        )
        .unwrap();
        // Step 1 cannot finish before: step 0 compute (30ms) + gradient
        // offload (4 GiB) + parameter reload (1 GiB) + compute (30ms).
        let lower_bound = 0.030 + 4.0 * GB as f64 / 13.1e9 + GB as f64 / 13.1e9 + 0.030;
        let total = rep.step_boundaries[1].as_secs_f64();
        assert!(
            total >= lower_bound * 0.98,
            "step 1 finished at {total:.3}s, before the gradient flush allows \
             ({lower_bound:.3}s)"
        );
    }

    // ----- fault injection -----

    fn hetero_setup() -> (Vec<StageCosts>, Mapping, Topology, PipelineConfig) {
        let stages: Vec<StageCosts> = (0..8).map(|_| stage(10, GB, 1 << 20)).collect();
        let mapping = Mapping::sequential(8, 4);
        let c = cfg(4, MemoryMode::Heterogeneous).with_strict_validation(true);
        (stages, mapping, topo22(), c)
    }

    #[test]
    fn empty_schedule_matches_unfaulted_run() {
        let (stages, mapping, topo, c) = hetero_setup();
        let plain = simulate_steps_traced(&stages, &mapping, &topo, &c, 2, None).unwrap();
        let faulted =
            simulate_steps_faulted(&stages, &mapping, &topo, &c, 2, &FaultSchedule::new(), None)
                .unwrap();
        assert_eq!(plain.step_boundaries, faulted.step_boundaries);
        assert_eq!(plain.drain_time, faulted.drain_time);
        assert_eq!(faulted.faults, FaultStats::default());
    }

    #[test]
    fn degraded_uplink_slows_the_step() {
        let (stages, mapping, topo, c) = hetero_setup();
        let base = simulate_steps_traced(&stages, &mapping, &topo, &c, 1, None)
            .unwrap()
            .step_boundaries[0];
        // Both root complexes at 20% capacity for most of the step.
        let faults =
            FaultSchedule::new().degrade_link("rc", 0.2, SimTime::ZERO, SimTime::from_secs(30));
        let rep = simulate_steps_faulted(&stages, &mapping, &topo, &c, 1, &faults, None).unwrap();
        assert!(
            rep.step_boundaries[0] > base,
            "degraded {:?} should exceed healthy {base:?}",
            rep.step_boundaries[0]
        );
        assert_eq!(rep.faults.link_degrades, 1);
        assert_eq!(rep.faults.injected, 1);
    }

    #[test]
    fn straggler_gpu_stretches_the_step() {
        let (stages, mapping, topo, c) = hetero_setup();
        let base = simulate_steps_traced(&stages, &mapping, &topo, &c, 1, None)
            .unwrap()
            .step_boundaries[0];
        let faults = FaultSchedule::new().slow_gpu(0, 4.0, SimTime::ZERO, SimTime::from_secs(60));
        let rep = simulate_steps_faulted(&stages, &mapping, &topo, &c, 1, &faults, None).unwrap();
        assert!(rep.step_boundaries[0] > base);
        assert_eq!(rep.faults.slowdowns, 1);
    }

    #[test]
    fn stall_retry_churn_keeps_flow_completion_typed() {
        // Regression: `FlowNetwork::complete` used to panic on a flow the
        // watchdog had already cancelled and relaunched. Composing repeated
        // stalls with a tight retry policy across multiple steps maximises
        // cancel/relaunch churn; the run must stay panic-free, finish all
        // work, and report any stale completion through the typed path
        // (obs counter) rather than by unwinding.
        let (stages, mapping, topo, c) = hetero_setup();
        let mut faults = FaultSchedule::new()
            .with_watchdog(SimTime::from_millis(15))
            .with_retry(SimTime::from_millis(1), 30);
        for k in 0..6u64 {
            faults = faults.stall(SimTime::from_millis(1 + 7 * k), SimTime::from_millis(300));
        }
        let obs = Obs::new();
        let rep = simulate_steps_faulted(&stages, &mapping, &topo, &c, 2, &faults, Some(&obs))
            .expect("stall/retry churn must stay recoverable");
        // Not every window finds an in-flight upload to freeze, but most do.
        assert!(rep.faults.stalls >= 3, "got {} stalls", rep.faults.stalls);
        assert!(rep.faults.retries > 0, "watchdog should have retried");
        assert_eq!(rep.faults.aborted_transfers, 0);
        // No invariant violation was ever emitted.
        assert_eq!(obs.counter("violations"), 0.0);
    }

    #[test]
    fn stalled_transfer_is_retried_and_completes() {
        let (stages, mapping, topo, c) = hetero_setup();
        // Freeze the oldest in-flight upload for a long time; a tight
        // watchdog retries it well before the stall would naturally end.
        let faults = FaultSchedule::new()
            .stall(SimTime::from_millis(1), SimTime::from_millis(400))
            .with_watchdog(SimTime::from_millis(20))
            .with_retry(SimTime::from_millis(2), 20);
        let rep = simulate_steps_faulted(&stages, &mapping, &topo, &c, 1, &faults, None).unwrap();
        assert_eq!(rep.faults.stalls, 1);
        assert!(rep.faults.retries > 0, "watchdog should have retried");
        assert_eq!(rep.faults.aborted_transfers, 0);
    }

    #[test]
    fn exhausted_retries_abort_the_run() {
        let (stages, mapping, topo, c) = hetero_setup();
        // Stall longer than the whole retry budget can cover: watchdog
        // 5ms, base 1ms, 3 retries → gives up inside the 10s outage.
        let faults = FaultSchedule::new()
            .stall(SimTime::from_millis(1), SimTime::from_secs(10))
            .with_watchdog(SimTime::from_millis(5))
            .with_retry(SimTime::from_millis(1), 3);
        let err =
            simulate_steps_faulted(&stages, &mapping, &topo, &c, 1, &faults, None).unwrap_err();
        match err {
            ExecError::Fault { abort, stats } => {
                assert!(matches!(abort, FaultAbort::RetriesExhausted { .. }));
                assert_eq!(stats.aborted_transfers, 1);
                assert_eq!(stats.retries, 3);
            }
            other => panic!("expected fault abort, got {other:?}"),
        }
    }

    #[test]
    fn gpu_failure_aborts_with_typed_error() {
        let (stages, mapping, topo, c) = hetero_setup();
        let faults = FaultSchedule::new().fail_gpu(2, SimTime::from_millis(50));
        let err =
            simulate_steps_faulted(&stages, &mapping, &topo, &c, 1, &faults, None).unwrap_err();
        match err {
            ExecError::Fault { abort, stats } => {
                assert_eq!(
                    abort,
                    FaultAbort::GpuFailed {
                        gpu: 2,
                        at: SimTime::from_millis(50)
                    }
                );
                assert_eq!(stats.gpu_failures, 1);
            }
            other => panic!("expected fault abort, got {other:?}"),
        }
    }

    #[test]
    fn faulted_run_is_deterministic_in_the_schedule() {
        let (stages, mapping, topo, c) = hetero_setup();
        let faults = FaultSchedule::random(42, 6, 4, SimTime::from_secs(20));
        let a = simulate_steps_faulted(&stages, &mapping, &topo, &c, 2, &faults, None).unwrap();
        let b = simulate_steps_faulted(&stages, &mapping, &topo, &c, 2, &faults, None).unwrap();
        assert_eq!(a.step_boundaries, b.step_boundaries);
        assert_eq!(a.drain_time, b.drain_time);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn empty_workload_is_a_typed_error() {
        let (stages, mapping, topo, c) = hetero_setup();
        let err = simulate_steps_traced(&stages, &mapping, &topo, &c, 0, None).unwrap_err();
        assert!(matches!(err, ScheduleError::EmptyWorkload { .. }));
        let err = simulate_steps_traced(&[], &mapping, &topo, &c, 1, None).unwrap_err();
        assert!(matches!(err, ScheduleError::EmptyWorkload { .. }));
    }

    #[test]
    fn gpu_count_mismatch_is_a_typed_error() {
        let (stages, _, topo, c) = hetero_setup();
        let mapping = Mapping::sequential(8, 2); // topology has 4 GPUs
        let err = simulate_steps_traced(&stages, &mapping, &topo, &c, 1, None).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::GpuCountMismatch { mapped: 2, topo: 4 }
        ));
    }

    /// With several rules broken, the executor reports zero steps, then a
    /// GPU-count mismatch, then what the shared workload check finds first:
    /// no stages, zero microbatches, a stage-count mismatch, a stage too
    /// large. Each case breaks the rule it expects and, where it can, every
    /// rule after it; the analytic evaluator, which checks no steps and no
    /// topology, agrees from the third case on.
    #[test]
    fn the_first_broken_rule_in_precedence_order_is_reported() {
        let (mut stages, _, topo, c) = hetero_setup();
        stages[3].param_bytes = 100 * GB;
        let zero_m = PipelineConfig {
            num_microbatches: 0,
            ..c
        };
        let wrong_gpus = Mapping::sequential(9, 2);
        let wrong_stages = Mapping::sequential(9, 4);
        let empty = |what: &str| ScheduleError::EmptyWorkload { what: what.into() };
        let cases: [(
            &[StageCosts],
            &Mapping,
            PipelineConfig,
            usize,
            ScheduleError,
        ); 6] = [
            (&stages, &wrong_gpus, zero_m, 0, empty("steps")),
            (
                &stages,
                &wrong_gpus,
                zero_m,
                1,
                ScheduleError::GpuCountMismatch { mapped: 2, topo: 4 },
            ),
            (&[], &wrong_stages, zero_m, 1, empty("stages")),
            (&stages, &wrong_stages, zero_m, 1, empty("microbatches")),
            (
                &stages,
                &wrong_stages,
                c,
                1,
                ScheduleError::MappingMismatch {
                    mapped: 9,
                    stages: 8,
                },
            ),
            (
                &stages,
                &Mapping::sequential(8, 4),
                c,
                1,
                ScheduleError::StageTooLarge {
                    stage: 3,
                    required: stages[3].required_bytes(4),
                    capacity: c.gpu_mem_bytes,
                },
            ),
        ];
        for (i, (st, mapping, cfg, steps, want)) in cases.into_iter().enumerate() {
            let got = simulate_steps_traced(st, mapping, &topo, &cfg, steps, None).unwrap_err();
            assert_eq!(got, want, "case {i}");
            if i >= 2 {
                let analytic = crate::evaluate_analytic(st, mapping, &cfg).unwrap_err();
                assert_eq!(analytic, want, "analytic, case {i}");
            }
        }
    }

    #[test]
    fn dag_identity_holds_and_analyze_attributes_steps() {
        let (stages, mapping, topo, c) = hetero_setup();
        let obs = Obs::new();
        let rep = simulate_steps_traced(&stages, &mapping, &topo, &c, 2, Some(&obs)).unwrap();
        assert!(obs.dag_len() > 0, "traced run must record a DAG");
        obs.verify_dag_identity().unwrap();
        let analysis = obs.analyze().unwrap();
        assert_eq!(analysis.steps.len(), 2);
        assert_eq!(analysis.total_ns, rep.step_boundaries[1].as_nanos());
        // Each step's critical path tiles the step window exactly.
        for (i, s) in analysis.steps.iter().enumerate() {
            let tiled: u64 = s.path.iter().map(|seg| seg.end_ns - seg.start_ns).sum();
            assert_eq!(tiled, s.end_ns - s.start_ns, "step {i} tiling");
            // Heterogeneous steps spend critical-path time on both compute
            // and PCIe transfers.
            assert!(s.class_blame.get("gpu").copied().unwrap_or(0) > 0);
        }
        // A pipeline this upload-bound must blame some PCIe time overall.
        let pcie: u64 = analysis
            .steps
            .iter()
            .map(|s| s.class_blame.get("pcie").copied().unwrap_or(0))
            .sum();
        assert!(pcie > 0, "expected PCIe on the critical path");
        // Zeroing a class can only help, and zeroing GPU compute must help.
        let gpu_whatif = analysis.whatif_total_ns["gpu"];
        assert!(gpu_whatif < analysis.total_ns);
        // Reports surface the heads and per-stage flush nodes.
        assert!(rep.step_heads.iter().all(Option::is_some));
        assert!(rep.grad_flush_sids.iter().flatten().all(Option::is_some));
    }

    #[test]
    fn untraced_reports_carry_no_private_sids() {
        let (stages, mapping, topo, c) = hetero_setup();
        // Strict but untraced: the identity is verified internally, yet no
        // private node id may leak into the report.
        let rep = simulate_steps_traced(&stages, &mapping, &topo, &c, 2, None).unwrap();
        assert!(rep.step_heads.iter().all(Option::is_none));
        assert!(rep.grad_flush_sids.iter().flatten().all(Option::is_none));
    }

    #[test]
    fn observation_does_not_perturb_the_dagged_run() {
        let (stages, mapping, topo, c) = hetero_setup();
        let obs = Obs::new();
        let traced = simulate_steps_traced(&stages, &mapping, &topo, &c, 2, Some(&obs)).unwrap();
        let plain = simulate_steps_traced(&stages, &mapping, &topo, &c, 2, None).unwrap();
        assert_eq!(traced.step_boundaries, plain.step_boundaries);
        assert_eq!(traced.drain_time, plain.drain_time);
    }

    #[test]
    fn resident_multi_step_has_no_gating() {
        let stages: Vec<StageCosts> = (0..4).map(|_| stage(10, 100, 1)).collect();
        let mapping = Mapping::sequential(4, 4);
        let rep = simulate_steps_traced(
            &stages,
            &mapping,
            &topo22(),
            &cfg(4, MemoryMode::Resident),
            2,
            None,
        )
        .unwrap();
        // Two identical GPipe steps back to back.
        let d0 = rep.step_duration(0).as_secs_f64();
        let d1 = rep.step_duration(1).as_secs_f64();
        assert!((d0 / d1 - 1.0).abs() < 0.02, "{d0} vs {d1}");
    }
}
