//! Pins the MIP partition search's outcomes: the chosen stage sizes, the
//! predicted step in nanoseconds and every deterministic `SearchStats`
//! counter, on the configurations the planner meets in practice (cold and
//! warm GPT-2 solves, a budgeted paper-scale solve, the prefetch and
//! resident ablations and strict validation). A change to the leaf scorer,
//! the seed or the bound that moves any of these numbers fails here.

use mobius_model::{GptConfig, Model};
use mobius_pipeline::{
    mip_partition_opts, MemoryMode, MipPartitionOpts, PartitionOutcome, PipelineConfig, SearchStats,
};
use mobius_profiler::Profiler;
use mobius_topology::{GpuSpec, Topology};

/// One solve: model, topology groups, how the config and options differ
/// from a cold unbudgeted Mobius solve at `M = N`.
struct Case {
    name: &'static str,
    model: GptConfig,
    groups: &'static [usize],
    budgeted: bool,
    warm_start: Option<Vec<usize>>,
    tweak: fn(PipelineConfig) -> PipelineConfig,
}

fn same(cfg: PipelineConfig) -> PipelineConfig {
    cfg
}

/// Solves `case`, with strict validation forced to `strict` when given.
fn outcome(case: &Case, strict: Option<bool>) -> PartitionOutcome {
    let topo = Topology::commodity(GpuSpec::rtx3090ti(), case.groups);
    let model = Model::from_config(&case.model);
    let profile = Profiler::new(topo.gpu().clone()).profile(&model, case.model.default_microbatch);
    let n = topo.num_gpus();
    let mut cfg = (case.tweak)(PipelineConfig::mobius(
        n,
        topo.gpu_mem_bytes(),
        topo.avg_gpu_bandwidth(),
    ));
    if let Some(on) = strict {
        cfg = cfg.with_strict_validation(on);
    }
    let opts = MipPartitionOpts {
        budgeted: case.budgeted,
        warm_start: case.warm_start.clone(),
    };
    mip_partition_opts(&profile, n, &cfg, &opts, None).expect("feasible plan")
}

fn solve(case: &Case) -> String {
    let out = outcome(case, None);
    let st = out.stats.expect("MIP stats");
    format!(
        "{} sizes={:?} step_ns={} evaluated={} pruned={} nodes={} complete={} warm={}",
        case.name,
        out.partition.sizes(),
        out.predicted_step.as_nanos(),
        st.evaluated,
        st.pruned,
        st.nodes,
        st.complete,
        st.warm_started
    )
}

fn cases() -> Vec<Case> {
    let gpt2 = GptConfig::gpt2_small;
    vec![
        Case {
            name: "gpt2@2",
            model: gpt2(),
            groups: &[2],
            budgeted: false,
            warm_start: None,
            tweak: same,
        },
        Case {
            name: "gpt2@2+2",
            model: gpt2(),
            groups: &[2, 2],
            budgeted: false,
            warm_start: None,
            tweak: same,
        },
        Case {
            name: "gpt2@4+4",
            model: gpt2(),
            groups: &[4, 4],
            budgeted: false,
            warm_start: None,
            tweak: same,
        },
        // The elastic-replan shape: the 2+2 optimum re-solved on the three
        // survivors.
        Case {
            name: "gpt2@2+1 warm",
            model: gpt2(),
            groups: &[2, 1],
            budgeted: false,
            warm_start: Some(vec![5, 4, 4, 1]),
            tweak: same,
        },
        Case {
            name: "15b@4+4 budgeted",
            model: GptConfig::gpt_15b(),
            groups: &[4, 4],
            budgeted: true,
            warm_start: None,
            tweak: same,
        },
        Case {
            name: "gpt2@2+2 no-prefetch",
            model: gpt2(),
            groups: &[2, 2],
            budgeted: false,
            warm_start: None,
            tweak: |c| PipelineConfig {
                prefetch: false,
                ..c
            },
        },
        Case {
            name: "gpt2@2+2 resident",
            model: gpt2(),
            groups: &[2, 2],
            budgeted: false,
            warm_start: None,
            tweak: |c| PipelineConfig {
                memory_mode: MemoryMode::Resident,
                ..c
            },
        },
        Case {
            name: "gpt2@2+2 strict",
            model: gpt2(),
            groups: &[2, 2],
            budgeted: true,
            warm_start: None,
            tweak: |c| c.with_strict_validation(true),
        },
    ]
}

/// `sizes=[1; 42]` on 15B is the all-singletons partition the budget cut
/// short; the GPT-2 solves prove their optimum (`complete=true`).
const PINNED: &[&str] = &[
    "gpt2@2 sizes=[5, 4, 4, 1] step_ns=229154095 evaluated=8192 pruned=0 nodes=8192 complete=true warm=false",
    "gpt2@2+2 sizes=[5, 4, 4, 1] step_ns=299604185 evaluated=8169 pruned=13 nodes=8182 complete=true warm=false",
    "gpt2@4+4 sizes=[1, 1, 1, 1, 1, 4, 4, 1] step_ns=480018006 evaluated=8032 pruned=62 nodes=8094 complete=true warm=false",
    "gpt2@2+1 warm sizes=[5, 4, 4, 1] step_ns=264379140 evaluated=8191 pruned=2 nodes=8192 complete=true warm=true",
    "15b@4+4 budgeted sizes=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1] step_ns=2248437698 evaluated=7168 pruned=987 nodes=8193 complete=false warm=false",
    "gpt2@2+2 no-prefetch sizes=[5, 4, 4, 1] step_ns=301525240 evaluated=8172 pruned=11 nodes=8183 complete=true warm=false",
    "gpt2@2+2 resident sizes=[5, 4, 4, 1] step_ns=269257408 evaluated=8128 pruned=35 nodes=8163 complete=true warm=false",
    "gpt2@2+2 strict sizes=[5, 4, 4, 1] step_ns=299604185 evaluated=8169 pruned=13 nodes=8182 complete=true warm=false",
];

#[test]
fn mip_outcomes_are_pinned() {
    let got: Vec<String> = cases().iter().map(solve).collect();
    assert_eq!(got, PINNED);
}

/// Strict validation re-checks every leaf through `evaluate_analytic` while
/// the search ranks leaves by the objective's own scratch: on every GPT-2
/// case the two modes choose the same sizes with the same predicted step
/// and the same search statistics (wall time aside).
#[test]
fn strict_validation_changes_no_gpt2_solve() {
    let deterministic = |out: &PartitionOutcome| SearchStats {
        wall_elapsed: Default::default(),
        ..out.stats.expect("MIP stats")
    };
    for case in cases().iter().filter(|c| c.name.starts_with("gpt2")) {
        let [fast, strict] = [false, true].map(|on| outcome(case, Some(on)));
        assert_eq!(fast.partition, strict.partition, "{}", case.name);
        assert_eq!(fast.predicted_step, strict.predicted_step, "{}", case.name);
        assert_eq!(
            deterministic(&fast),
            deterministic(&strict),
            "{}",
            case.name
        );
    }
}
