//! Pins what the stage-residency rule and the workload check decide: the
//! maximum- and minimum-stage partitions, GPipe plans (or their OOM), the
//! infeasible-plan report, and the error each evaluator returns for an
//! input that breaks exactly one rule. The rule and the check feed the
//! planner and both evaluators, so a change to either that moves a
//! partition, a byte count, a step time or an error fails here.

use mobius_mapping::Mapping;
use mobius_model::{GptConfig, Model};
use mobius_pipeline::{
    evaluate_analytic, partition_model, plan_gpipe, simulate_steps_traced, stage_costs, Partition,
    PartitionAlgo, PipelineConfig, StageCosts,
};
use mobius_profiler::{ModelProfile, Profiler};
use mobius_topology::{GpuSpec, Topology};

const GROUPS: [&[usize]; 3] = [&[2, 2], &[1, 3], &[4, 4]];

fn setup(model: &GptConfig, groups: &[usize]) -> (Topology, ModelProfile) {
    let topo = Topology::commodity(GpuSpec::rtx3090ti(), groups);
    let profile = Profiler::new(topo.gpu().clone())
        .profile(&Model::from_config(model), model.default_microbatch);
    (topo, profile)
}

/// Every model on every topology at `M = N`, then GPT-2 on 2+2 at zero
/// microbatches; `f` formats the outcome of one case from the profile,
/// the topology and `M`.
fn sweep(f: impl Fn(&ModelProfile, &Topology, usize) -> String) -> Vec<String> {
    let models = [
        GptConfig::gpt2_small(),
        GptConfig::gpt_3b(),
        GptConfig::gpt_8b(),
        GptConfig::gpt_15b(),
        GptConfig::gpt_51b(),
    ];
    let mut out = Vec::new();
    for model in &models {
        for groups in GROUPS {
            let (topo, profile) = setup(model, groups);
            let n = topo.num_gpus();
            out.push(format!(
                "{}@{groups:?} {}",
                model.name,
                f(&profile, &topo, n)
            ));
        }
    }
    let (topo, profile) = setup(&models[0], &[2, 2]);
    out.push(format!("{} m=0 {}", models[0].name, f(&profile, &topo, 0)));
    out
}

fn heuristic(algo: PartitionAlgo) -> Vec<String> {
    sweep(|profile, topo, m| {
        let cfg = PipelineConfig::mobius(m, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth());
        match partition_model(algo, profile, topo.num_gpus(), &cfg) {
            Ok(out) => format!(
                "sizes={:?} step_ns={}",
                out.partition.sizes(),
                out.predicted_step.as_nanos()
            ),
            Err(e) => format!("{e:?}"),
        }
    })
}

#[test]
fn max_stage_outcomes_are_pinned() {
    assert_eq!(heuristic(PartitionAlgo::MaxStage), MAX_STAGE);
}

#[test]
fn min_stage_outcomes_are_pinned() {
    assert_eq!(heuristic(PartitionAlgo::MinStage), MIN_STAGE);
}

#[test]
fn gpipe_plans_are_pinned() {
    let got = sweep(|profile, topo, m| {
        let cfg = PipelineConfig::resident(m, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth());
        match plan_gpipe(profile, topo.num_gpus(), &cfg) {
            Ok(plan) => format!(
                "sizes={:?} mem={:?} step_ns={}",
                plan.partition.sizes(),
                plan.mem_per_gpu,
                plan.step_time.as_nanos()
            ),
            Err(e) => format!("{e:?}"),
        }
    });
    assert_eq!(got, GPIPE);
}

#[test]
fn the_infeasible_max_stage_report_is_pinned() {
    let model = GptConfig::gpt_15b();
    let (topo, profile) = setup(&model, &[2, 2]);
    let cfg = PipelineConfig::mobius(8192, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth());
    let err = partition_model(PartitionAlgo::MaxStage, &profile, 4, &cfg).unwrap_err();
    assert_eq!(format!("{err:?}"), INFEASIBLE);
}

/// GPT-2 on 2+2 as `[5, 4, 4, 1]` on the sequential mapping: a valid
/// input that each case below breaks in exactly one way.
fn valid() -> (Vec<StageCosts>, Mapping, Topology, PipelineConfig) {
    let (topo, profile) = setup(&GptConfig::gpt2_small(), &[2, 2]);
    let stages = stage_costs(&profile, &Partition::from_sizes(vec![5, 4, 4, 1]));
    let cfg = PipelineConfig::mobius(4, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth());
    (stages, Mapping::sequential(4, 4), topo, cfg)
}

/// The inputs that break one rule each, by name, with the number of
/// steps. A mapping covers at least one stage, so the empty stage list
/// also differs from its mapping; the empty-stages error is the one both
/// evaluators report for it.
fn broken_inputs() -> Vec<(
    &'static str,
    Vec<StageCosts>,
    Mapping,
    PipelineConfig,
    usize,
)> {
    let (stages, mapping, _, cfg) = valid();
    let mut huge = stages.clone();
    huge[2].param_bytes = 100 << 30;
    vec![
        ("valid", stages.clone(), mapping.clone(), cfg, 1),
        ("no stages", Vec::new(), mapping.clone(), cfg, 1),
        (
            "zero microbatches",
            stages.clone(),
            mapping.clone(),
            PipelineConfig {
                num_microbatches: 0,
                ..cfg
            },
            1,
        ),
        (
            "mapping mismatch",
            stages.clone(),
            Mapping::sequential(5, 4),
            cfg,
            1,
        ),
        ("stage too large", huge, mapping.clone(), cfg, 1),
        ("zero steps", stages.clone(), mapping, cfg, 0),
        (
            "gpu count mismatch",
            stages,
            Mapping::sequential(4, 2),
            cfg,
            1,
        ),
    ]
}

#[test]
fn single_rule_errors_are_pinned() {
    let (_, _, topo, _) = valid();
    let mut got = Vec::new();
    for (name, stages, mapping, cfg, steps) in broken_inputs() {
        let analytic = match evaluate_analytic(&stages, &mapping, &cfg) {
            Ok(s) => format!("step_ns={}", s.step_time.as_nanos()),
            Err(e) => format!("{e:?}"),
        };
        let executor = match simulate_steps_traced(&stages, &mapping, &topo, &cfg, steps, None) {
            Ok(r) => format!("drain_ns={}", r.drain_time.as_nanos()),
            Err(e) => format!("{e:?}"),
        };
        got.push(format!("{name}: analytic {analytic}; executor {executor}"));
    }
    assert_eq!(got, SINGLE_RULE);
}

const MAX_STAGE: &[&str] = &[
    "GPT-2@[2, 2] sizes=[3, 4, 3, 4] step_ns=368846913",
    "GPT-2@[1, 3] sizes=[3, 4, 3, 4] step_ns=368846913",
    "GPT-2@[4, 4] sizes=[1, 2, 2, 2, 1, 2, 2, 2] step_ns=535556755",
    "3B@[2, 2] sizes=[16, 17, 16, 17] step_ns=1620585871",
    "3B@[1, 3] sizes=[16, 17, 16, 17] step_ns=1620585871",
    "3B@[4, 4] sizes=[8, 8, 8, 9, 8, 8, 8, 9] step_ns=1791578165",
    "8B@[2, 2] sizes=[15, 8, 8, 11] step_ns=4406655161",
    "8B@[1, 3] sizes=[15, 8, 8, 11] step_ns=4406655161",
    "8B@[4, 4] sizes=[7, 8, 4, 4, 4, 4, 5, 6] step_ns=4858544147",
    "15B@[2, 2] sizes=[20, 10, 10, 2] step_ns=4574165868",
    "15B@[1, 3] sizes=[20, 10, 10, 2] step_ns=4574165868",
    "15B@[4, 4] sizes=[10, 5, 5, 5, 5, 5, 5, 2] step_ns=4360225942",
    "51B@[2, 2] sizes=[6, 6, 6, 6, 6, 6, 6, 6, 4] step_ns=10067523888",
    "51B@[1, 3] sizes=[6, 6, 6, 6, 6, 6, 6, 6, 4] step_ns=10067523888",
    "51B@[4, 4] sizes=[6, 6, 6, 6, 6, 6, 6, 6, 4] step_ns=11788948358",
    "GPT-2 m=0 EmptyWorkload { what: \"microbatches\" }",
];
const MIN_STAGE: &[&str] = &[
    "GPT-2@[2, 2] sizes=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] step_ns=404880994",
    "GPT-2@[1, 3] sizes=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] step_ns=404880994",
    "GPT-2@[4, 4] sizes=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] step_ns=545781174",
    "3B@[2, 2] sizes=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] step_ns=1589421088",
    "3B@[1, 3] sizes=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] step_ns=1589421088",
    "3B@[4, 4] sizes=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] step_ns=1683434540",
    "8B@[2, 2] sizes=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] step_ns=2576122606",
    "8B@[1, 3] sizes=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] step_ns=2576122606",
    "8B@[4, 4] sizes=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] step_ns=2763909514",
    "15B@[2, 2] sizes=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] step_ns=2108786253",
    "15B@[1, 3] sizes=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] step_ns=2108786253",
    "15B@[4, 4] sizes=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] step_ns=2248437698",
    "51B@[2, 2] sizes=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] step_ns=7320386402",
    "51B@[1, 3] sizes=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] step_ns=7320386402",
    "51B@[4, 4] sizes=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] step_ns=7481765950",
    "GPT-2 m=0 EmptyWorkload { what: \"microbatches\" }",
];
const GPIPE: &[&str] = &[
    "GPT-2@[2, 2] sizes=[5, 4, 4, 1] mem=[1367457792, 761905152, 761905152, 2291687488] step_ns=269257408",
    "GPT-2@[1, 3] sizes=[5, 4, 4, 1] mem=[1367457792, 761905152, 761905152, 2291687488] step_ns=269257408",
    "GPT-2@[4, 4] sizes=[2, 1, 2, 2, 2, 2, 2, 1] mem=[1027239936, 446853120, 560259072, 560259072, 560259072, 560259072, 560259072, 2316853312] step_ns=453999700",
    "3B@[2, 2] sizes=[17, 16, 17, 16] mem=[14678491136, 13030129664, 13835862016, 14163279936] step_ns=1434834162",
    "3B@[1, 3] sizes=[17, 16, 17, 16] mem=[14678491136, 13030129664, 13835862016, 14163279936] step_ns=1434834162",
    "3B@[4, 4] sizes=[9, 8, 8, 8, 8, 9, 8, 8] mem=[8232632320, 6601048064, 6601048064, 6601048064, 6601048064, 7406780416, 6601048064, 7734198336] step_ns=1621281150",
    "8B@[2, 2] StageTooLarge { stage: 0, required: 35727212544, capacity: 25769803776 }",
    "8B@[1, 3] StageTooLarge { stage: 0, required: 35727212544, capacity: 25769803776 }",
    "8B@[4, 4] sizes=[6, 5, 5, 5, 5, 5, 6, 5] mem=[19616825344, 16353656832, 16353656832, 16353656832, 16353656832, 16353656832, 19575734272, 16664363072] step_ns=3966712715",
    "15B@[2, 2] StageTooLarge { stage: 0, required: 54640410624, capacity: 25769803776 }",
    "15B@[1, 3] StageTooLarge { stage: 0, required: 54640410624, capacity: 25769803776 }",
    "15B@[4, 4] StageTooLarge { stage: 0, required: 29469261824, capacity: 25769803776 }",
    "51B@[2, 2] StageTooLarge { stage: 0, required: 203412144128, capacity: 25769803776 }",
    "51B@[1, 3] StageTooLarge { stage: 0, required: 203412144128, capacity: 25769803776 }",
    "51B@[4, 4] StageTooLarge { stage: 0, required: 105555918848, capacity: 25769803776 }",
    "GPT-2 m=0 EmptyWorkload { what: \"microbatches\" }",
];
/// 41.30 GiB: the figure `mobius-cli step --model 15b --topo 2+2
/// --microbatches 8192` prints.
const INFEASIBLE: &str = "StageTooLarge { stage: 1, required: 44343496704, capacity: 25769803776 }";
const SINGLE_RULE: &[&str] = &[
    "valid: analytic step_ns=299604185; executor drain_ns=309950964",
    "no stages: analytic EmptyWorkload { what: \"stages\" }; executor EmptyWorkload { what: \"stages\" }",
    "zero microbatches: analytic EmptyWorkload { what: \"microbatches\" }; executor EmptyWorkload { what: \"microbatches\" }",
    "mapping mismatch: analytic MappingMismatch { mapped: 5, stages: 4 }; executor MappingMismatch { mapped: 5, stages: 4 }",
    "stage too large: analytic StageTooLarge { stage: 2, required: 107739166720, capacity: 25769803776 }; executor StageTooLarge { stage: 2, required: 107739166720, capacity: 25769803776 }",
    "zero steps: analytic step_ns=299604185; executor EmptyWorkload { what: \"steps\" }",
    "gpu count mismatch: analytic step_ns=361955065; executor GpuCountMismatch { mapped: 2, topo: 4 }",
];
