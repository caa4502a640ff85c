//! `step-sim`: one op is one simulated step on a plan fixed at set-up,
//! with no observer. The executor, event engine, flow network and the
//! ZeRO and cluster simulators do all the work; the planner does none.
//!
//! Cases: a 2-step Mobius pipeline for each Table 3 preset on 2+2 and 4+4
//! with `M = N` and `M = 4N` on the minimum-stage partition (the exact
//! MIP's own choice for 15B), GPT-2 on 4+4 at `M = 32` (flow-contended),
//! `FineTuner::run_step` for the three baselines (an expected OOM counts
//! as a success), DeepSpeed-hetero on 4-server clusters, and a ring
//! all-reduce over 8 servers. With these 29 cases the median of a run of
//! whole rounds falls in the middle of one case's samples.

use mobius::cluster::{simulate_ring_allreduce, ClusterDpConfig, ClusterSyncReport, ReplicaTiming};
use mobius::mapping::Mapping;
use mobius::model::{GptConfig, Model};
use mobius::obs::Obs;
use mobius::pipeline::{
    partition_model, plan_gpipe, simulate_step, simulate_step_traced, simulate_steps_traced,
    stage_costs, MultiStepReport, PartitionAlgo, PipelineConfig, ScheduleError, StageCosts,
};
use mobius::profiler::{ModelProfile, Profiler};
use mobius::sim::SimTime;
use mobius::topology::{Cluster, Topology, COMMODITY_NIC_GBPS};
use mobius::zero::{
    simulate_cluster_zero_step, simulate_zero_offload_step_traced, simulate_zero_step_traced,
    ClusterZeroConfig, ZeroConfig,
};
use mobius::{ClusterConfig, FineTuner, RunError, System};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{absorb_counters, commodity, shuffled, topo_label};
use crate::reference::Observed;
use crate::runner::Workload;
use crate::tracer::Tracer;

/// Simulated steps per pipeline op (the second overlaps the first's
/// backward tail).
const PIPELINE_STEPS: usize = 2;

enum Kind {
    /// `simulate_steps_traced` on a precomputed plan.
    Pipeline {
        stages: Vec<StageCosts>,
        mapping: Mapping,
        topo: Topology,
        cfg: PipelineConfig,
    },
    /// `FineTuner::run_step` of a baseline system.
    Facade {
        tuner: Box<FineTuner>,
        model: Model,
        topo: Topology,
        system: System,
        servers: usize,
    },
    /// `simulate_ring_allreduce` over identical replicas.
    Ring {
        cluster: Cluster,
        replicas: Vec<ReplicaTiming>,
    },
}

struct Case {
    key: String,
    kind: Kind,
}

/// The `step-sim` workload.
pub struct StepSim {
    cases: Vec<Case>,
    rng: StdRng,
}

fn step_value(step: SimTime, drain: SimTime, traffic: f64) -> String {
    format!(
        "step_ns={} drain_ns={} traffic={traffic:?}",
        step.as_nanos(),
        drain.as_nanos()
    )
}

fn steps_value(rep: &MultiStepReport) -> String {
    let steps: Vec<u64> = rep.step_boundaries.iter().map(|t| t.as_nanos()).collect();
    format!(
        "steps_ns={steps:?} drain_ns={} traffic={:?}",
        rep.drain_time.as_nanos(),
        rep.trace.total_traffic()
    )
}

fn ring_value(rep: &ClusterSyncReport) -> String {
    format!(
        "sync_ns={} tx={:?}",
        rep.sync_done.as_nanos(),
        rep.per_server_tx.iter().sum::<f64>()
    )
}

fn pipeline_case(name: &str, model: &Model, groups: &[usize], m: usize) -> Result<Case, String> {
    let topo = commodity(groups);
    let n = topo.num_gpus();
    let profile =
        Profiler::new(topo.gpu().clone()).profile(model, model.config().default_microbatch);
    let cfg = PipelineConfig::mobius(m, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth());
    let out =
        partition_model(PartitionAlgo::MinStage, &profile, n, &cfg).map_err(|e| e.to_string())?;
    let stages = stage_costs(&profile, &out.partition);
    let mapping = Mapping::cross(&topo, stages.len());
    Ok(Case {
        key: format!(
            "{}/mobius/{name}@{}/m{m}",
            StepSim::NAME,
            topo_label(groups)
        ),
        kind: Kind::Pipeline {
            stages,
            mapping,
            topo,
            cfg,
        },
    })
}

fn facade_case(
    name: &str,
    model: &Model,
    groups: &[usize],
    system: System,
    servers: usize,
) -> Case {
    let topo = commodity(groups);
    let mut tuner = FineTuner::from_model(model.clone())
        .topology(topo.clone())
        .system(system);
    let key = if servers > 1 {
        tuner = tuner.cluster(ClusterConfig::new(servers, COMMODITY_NIC_GBPS));
        format!(
            "{}/cluster/ds-hetero/{name}@{}x{servers}",
            StepSim::NAME,
            topo_label(groups)
        )
    } else {
        let label = match system {
            System::DeepSpeedHetero => "ds-hetero",
            System::ZeroOffload => "zero-offload",
            _ => "gpipe",
        };
        format!(
            "{}/run_step/{label}/{name}@{}",
            StepSim::NAME,
            topo_label(groups)
        )
    };
    Case {
        key,
        kind: Kind::Facade {
            tuner: Box::new(tuner),
            model: model.clone(),
            topo,
            system,
            servers,
        },
    }
}

/// Eight servers syncing the 3B model's per-stage gradient buckets, ready
/// when a 2+2 replica's stages flushed them.
fn ring_case() -> Result<Case, String> {
    let model = Model::from_config(&GptConfig::gpt_3b());
    let Case { kind, .. } = pipeline_case("3b", &model, &[2, 2], 4)?;
    let Kind::Pipeline {
        stages,
        mapping,
        topo,
        cfg,
    } = kind
    else {
        return Err("pipeline case expected".into());
    };
    let sim = simulate_step(&stages, &mapping, &topo, &cfg).map_err(|e| e.to_string())?;
    let replica = ReplicaTiming {
        bucket_bytes: stages.iter().map(|s| s.grad_bytes as f64).collect(),
        ready: sim.grad_flush,
        ready_sids: Vec::new(),
    };
    let servers = 8;
    Ok(Case {
        key: format!("{}/ring/3b@2+2x{servers}", StepSim::NAME),
        kind: Kind::Ring {
            cluster: Cluster::new(topo, servers, COMMODITY_NIC_GBPS),
            replicas: vec![replica; servers],
        },
    })
}

impl Workload for StepSim {
    const NAME: &'static str = "step-sim";
    const TRACE_ROUNDS: usize = 4;
    type Out = String;

    fn setup(seed: u64, _traced: bool) -> Result<Self, String> {
        let presets = [
            ("3b", GptConfig::gpt_3b()),
            ("8b", GptConfig::gpt_8b()),
            ("15b", GptConfig::gpt_15b()),
            ("51b", GptConfig::gpt_51b()),
        ];
        let mut cases = Vec::new();
        for (name, cfg) in &presets {
            let model = Model::from_config(cfg);
            for groups in [&[2, 2][..], &[4, 4]] {
                let n: usize = groups.iter().sum();
                for m in [n, 4 * n] {
                    cases.push(pipeline_case(name, &model, groups, m)?);
                }
            }
        }
        let gpt2 = Model::from_config(&GptConfig::gpt2_small());
        cases.push(pipeline_case("gpt2", &gpt2, &[4, 4], 32)?);
        for system in [System::DeepSpeedHetero, System::ZeroOffload, System::Gpipe] {
            for (name, cfg) in &presets[..3] {
                cases.push(facade_case(
                    name,
                    &Model::from_config(cfg),
                    &[2, 2],
                    system,
                    1,
                ));
            }
        }
        for groups in [&[2, 2][..], &[4, 4]] {
            cases.push(facade_case(
                "gpt2",
                &gpt2,
                groups,
                System::DeepSpeedHetero,
                4,
            ));
        }
        cases.push(ring_case()?);
        Ok(StepSim {
            cases,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    fn warm_up_ops(&mut self, smoke: bool) -> Vec<usize> {
        let n = if smoke { 1 } else { self.cases.len() };
        (0..n).collect()
    }

    fn label(&self, op: usize) -> String {
        self.cases[op].key.clone()
    }

    fn next_round(&mut self) -> Vec<usize> {
        shuffled(self.cases.len(), &mut self.rng)
    }

    fn run(&mut self, op: usize) -> Result<String, String> {
        match &self.cases[op].kind {
            Kind::Pipeline {
                stages,
                mapping,
                topo,
                cfg,
            } => {
                let rep = simulate_steps_traced(stages, mapping, topo, cfg, PIPELINE_STEPS, None)
                    .map_err(|e| e.to_string())?;
                Ok(steps_value(&rep))
            }
            Kind::Facade { tuner, .. } => match tuner.run_step() {
                Ok(rep) => Ok(step_value(
                    rep.step_time,
                    rep.drain_time,
                    rep.traffic_total(),
                )),
                Err(RunError::OutOfMemory(_)) => Ok("oom".into()),
                Err(e) => Err(e.to_string()),
            },
            Kind::Ring { cluster, replicas } => {
                let rep =
                    simulate_ring_allreduce(cluster, replicas, &ClusterDpConfig::default(), None)
                        .map_err(|e| e.to_string())?;
                Ok(ring_value(&rep))
            }
        }
    }

    /// Pipeline and ring ops are one layer call already. The facade ops
    /// are taken apart the way `FineTuner::run_step` composes them; the
    /// reference check proves the pieces give the facade's result.
    fn run_traced(&mut self, op: usize, t: &mut Tracer) -> Result<String, String> {
        match &self.cases[op].kind {
            Kind::Pipeline {
                stages,
                mapping,
                topo,
                cfg,
            } => t
                .span("pipeline.simulate_steps", |_| {
                    simulate_steps_traced(stages, mapping, topo, cfg, PIPELINE_STEPS, None)
                        .map(|rep| steps_value(&rep))
                })
                .map_err(|e| e.to_string()),
            Kind::Facade {
                model,
                topo,
                system,
                servers,
                ..
            } => {
                let mbs = model.config().default_microbatch;
                let profile = t.span("profiler.profile", |_| {
                    Profiler::new(topo.gpu().clone()).profile(model, mbs)
                });
                baseline_step(t, &profile, topo, *system, *servers)
            }
            Kind::Ring { cluster, replicas } => {
                let rep = t
                    .span("cluster.ring_allreduce", |_| {
                        simulate_ring_allreduce(
                            cluster,
                            replicas,
                            &ClusterDpConfig::default(),
                            None,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                Ok(ring_value(&rep))
            }
        }
    }

    /// The executor's event, swap and flow counters, from a second run
    /// of a pipeline op with an `Obs` attached (recording roughly doubles
    /// the executor's time, so the timed run goes without).
    fn count_work(&mut self, op: usize, t: &mut Tracer) -> Result<(), String> {
        let Kind::Pipeline {
            stages,
            mapping,
            topo,
            cfg,
        } = &self.cases[op].kind
        else {
            return Ok(());
        };
        let obs = Obs::new();
        let rep = simulate_steps_traced(stages, mapping, topo, cfg, PIPELINE_STEPS, Some(&obs))
            .map_err(|e| e.to_string())?;
        absorb_counters(t, &obs, &mut Default::default());
        t.count("pipeline.steps", PIPELINE_STEPS as f64);
        let simulated = rep.step_boundaries.last().copied().unwrap_or(SimTime::ZERO);
        t.count("pipeline.sim_s", simulated.as_secs_f64());
        Ok(())
    }

    fn observe(&mut self, op: usize, out: String) -> Result<Observed, String> {
        Ok(Observed::new(&self.cases[op].key, out))
    }
}

/// A baseline system's step composed from its layer calls, as
/// `FineTuner::run_step` composes it.
fn baseline_step(
    t: &mut Tracer,
    profile: &ModelProfile,
    topo: &Topology,
    system: System,
    servers: usize,
) -> Result<String, String> {
    match system {
        System::DeepSpeedHetero => {
            let local = t.span("zero.simulate_step", |_| {
                simulate_zero_step_traced(profile, topo, &ZeroConfig::default(), None)
            });
            let Ok(local) = local else {
                return Ok("oom".into());
            };
            if servers < 2 {
                return Ok(step_value(
                    local.step_time,
                    local.step_time,
                    local.trace.total_traffic(),
                ));
            }
            let cluster = Cluster::new(topo.clone(), servers, COMMODITY_NIC_GBPS);
            let nic = t.span("zero.simulate_cluster_step", |_| {
                simulate_cluster_zero_step(profile, &cluster, &ClusterZeroConfig::default(), None)
            });
            let Ok(nic) = nic else {
                return Ok("oom".into());
            };
            let mut trace = local.trace;
            trace.merge(&nic.trace);
            let step = local.step_time.max(nic.step_time);
            Ok(step_value(step, step, trace.total_traffic()))
        }
        System::ZeroOffload => {
            let rep = t.span("zero.simulate_offload_step", |_| {
                simulate_zero_offload_step_traced(profile, topo, None)
            });
            Ok(rep.map_or("oom".into(), |r| {
                step_value(r.step_time, r.step_time, r.trace.total_traffic())
            }))
        }
        _ => {
            let n = topo.num_gpus();
            let cfg = PipelineConfig::resident(n, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth());
            let plan = match t.span("pipeline.plan_gpipe", |_| plan_gpipe(profile, n, &cfg)) {
                Ok(plan) => plan,
                Err(ScheduleError::StageTooLarge { .. }) => return Ok("oom".into()),
                Err(e) => return Err(e.to_string()),
            };
            let stages = t.span("pipeline.stage_costs", |_| {
                stage_costs(profile, &plan.partition)
            });
            let mapping = t.span("mapping.sequential", |_| {
                Mapping::sequential(stages.len(), n)
            });
            let sim = t
                .span("pipeline.simulate_step", |_| {
                    simulate_step_traced(&stages, &mapping, topo, &cfg, None)
                })
                .map_err(|e| e.to_string())?;
            // GPipe's step carries no overhead factor, but the facade
            // still rounds it through seconds.
            let step = SimTime::from_secs_f64(sim.step_time.as_secs_f64());
            let drain = SimTime::from_secs_f64(sim.drain_time.as_secs_f64());
            Ok(step_value(step, drain, sim.trace.total_traffic()))
        }
    }
}
