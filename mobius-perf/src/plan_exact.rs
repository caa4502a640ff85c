//! `plan-exact`: one op is a cold `FineTuner::plan()` with the unbudgeted
//! solver, so the partition search runs to a proof of optimality.
//!
//! The search does nearly all the work, and every result is exactly
//! checkable. The cases vary what its cost depends on: search depth
//! (14 to 17 layers), GPU count (2 to 8) and the compute-vs-PCIe balance
//! (sequence 1024 vs 8192). Table 3 presets do not finish unbudgeted
//! within the 2M-node cap, so they are left out.
//!
//! Fifteen cases put the median and the 90th percentile of a run of whole
//! rounds in the middle of one case's samples, not on the boundary between
//! two cases of different cost.

use mobius::mapping::{Mapping, MappingAlgo};
use mobius::model::{GptConfig, Model};
use mobius::obs::Obs;
use mobius::pipeline::{mip_partition_opts, MipPartitionOpts, PipelineConfig};
use mobius::profiler::Profiler;
use mobius::topology::Topology;
use mobius::FineTuner;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{absorb_counters, commodity, gpt2_variant, shuffled, topo_label};
use crate::reference::Observed;
use crate::runner::Workload;
use crate::tracer::Tracer;

/// `(name, blocks, sequence, microbatch)` of the GPT-2 family planned.
const MODELS: [(&str, usize, usize, usize); 5] = [
    ("gpt2", 12, 1024, 4),
    ("gpt2-8k", 12, 8192, 1),
    ("gpt2x13", 13, 1024, 4),
    ("gpt2x14", 14, 1024, 4),
    ("gpt2x15-8k", 15, 8192, 1),
];

const TOPOLOGIES: [&[usize]; 3] = [&[2], &[2, 2], &[4, 4]];

struct Case {
    key: String,
    model: Model,
    topo: Topology,
}

/// A solved plan, in the reference's terms.
pub struct Solved {
    sizes: Vec<usize>,
    predicted_ns: u64,
    proved: bool,
}

/// The `plan-exact` workload.
pub struct PlanExact {
    cases: Vec<Case>,
    rng: StdRng,
}

impl Workload for PlanExact {
    const NAME: &'static str = "plan-exact";
    const TRACE_ROUNDS: usize = 2;
    type Out = Solved;

    fn setup(seed: u64, _traced: bool) -> Result<Self, String> {
        let mut cases = Vec::new();
        for (name, blocks, seq, mbs) in MODELS {
            let model = if name == "gpt2" {
                Model::from_config(&GptConfig::gpt2_small())
            } else {
                gpt2_variant(name, blocks, seq, mbs)
            };
            for groups in TOPOLOGIES {
                cases.push(Case {
                    key: format!("{}/{name}@{}", Self::NAME, topo_label(groups)),
                    model: model.clone(),
                    topo: commodity(groups),
                });
            }
        }
        Ok(PlanExact {
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

    fn run(&mut self, op: usize) -> Result<Solved, String> {
        let c = &self.cases[op];
        let plan = FineTuner::from_model(c.model.clone())
            .topology(c.topo.clone())
            .unbudgeted_solver(true)
            .plan()
            .map_err(|e| e.to_string())?;
        Ok(Solved {
            sizes: plan.partition.sizes().to_vec(),
            predicted_ns: plan.predicted_step.as_nanos(),
            proved: plan.search.is_some_and(|s| s.complete),
        })
    }

    /// The facade's plan, one layer call at a time: profile, partition
    /// search, cross mapping. The reference check proves the pieces give
    /// the facade's partition and cost.
    fn run_traced(&mut self, op: usize, t: &mut Tracer) -> Result<Solved, String> {
        let c = &self.cases[op];
        let n = c.topo.num_gpus();
        let mbs = c.model.config().default_microbatch;
        let profile = t.span("profiler.profile", |_| {
            Profiler::new(c.topo.gpu().clone()).profile(&c.model, mbs)
        });
        let cfg = PipelineConfig::mobius(n, c.topo.gpu_mem_bytes(), c.topo.avg_gpu_bandwidth());
        let obs = Obs::new();
        let outcome = t
            .span("mip.partition", |_| {
                mip_partition_opts(&profile, n, &cfg, &MipPartitionOpts::default(), Some(&obs))
            })
            .map_err(|e| e.to_string())?;
        let stats = outcome
            .stats
            .ok_or("the MIP search returned no statistics")?;
        let stages = outcome.partition.num_stages();
        let mapping = t.span("mapping.with_algo", |_| {
            Mapping::with_algo(MappingAlgo::Cross, &c.topo, stages)
        });
        std::hint::black_box(mapping);
        absorb_counters(t, &obs, &mut Default::default());
        t.count("mip.span_leaves", stats.evaluated as f64);
        t.count("mip.solves", 1.0);
        t.count("mip.proof_checked", 1.0);
        t.count("mip.proved", f64::from(u8::from(stats.complete)));
        Ok(Solved {
            sizes: outcome.partition.sizes().to_vec(),
            predicted_ns: outcome.predicted_step.as_nanos(),
            proved: stats.complete,
        })
    }

    fn observe(&mut self, op: usize, out: Solved) -> Result<Observed, String> {
        Ok(Observed::new(
            &self.cases[op].key,
            format!(
                "proved={} predicted_ns={} sizes={:?}",
                out.proved, out.predicted_ns, out.sizes
            ),
        ))
    }
}
