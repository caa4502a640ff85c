//! Inputs the workloads share.

use mobius::model::{GptConfig, Model};
use mobius::obs::Obs;
use mobius::topology::{GpuSpec, Topology};
use rand::rngs::StdRng;
use rand::Rng;

use crate::tracer::Tracer;

/// A commodity 3090-Ti server with these root-complex groups.
pub fn commodity(groups: &[usize]) -> Topology {
    Topology::commodity(GpuSpec::rtx3090ti(), groups)
}

/// `2+2`-style label of a group list, as the CLI spells topologies.
pub fn topo_label(groups: &[usize]) -> String {
    let parts: Vec<String> = groups.iter().map(|g| g.to_string()).collect();
    parts.join("+")
}

/// GPT-2 small's dimensions with another block count, sequence length and
/// microbatch.
pub fn gpt2_variant(name: &str, blocks: usize, seq: usize, mbs: usize) -> Model {
    let base = GptConfig::gpt2_small();
    Model::from_config(&GptConfig::new(
        name,
        base.vocab,
        base.hidden,
        base.heads,
        blocks,
        seq,
        mbs,
    ))
}

/// A seeded Fisher-Yates permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..(i + 1));
        p.swap(i, j);
    }
    p
}

/// `Obs` counters the per-layer metrics read, and the tracer counter each
/// one feeds.
const OBS_COUNTERS: [(&str, &str); 15] = [
    ("mip.evaluated", "mip.leaves"),
    ("mip.nodes", "mip.nodes"),
    ("mip.pruned", "mip.pruned"),
    ("mip.warm_started", "mip.warm_started"),
    ("engine.popped", "engine.popped"),
    ("swap.count", "swap.count"),
    ("flow.partition_rebuild", "flow.partition_rebuild"),
    ("flow.partition_reuse", "flow.partition_reuse"),
    ("ckpt.writes", "ckpt.writes"),
    ("ckpt.bytes", "ckpt.bytes"),
    ("serve.cache.hit", "serve.hits"),
    ("serve.cache.miss", "serve.misses"),
    ("serve.cache.eviction", "serve.evictions"),
    ("serve.cache.invalidate", "serve.invalidations"),
    ("serve.warm_seeded", "serve.warm_seeded"),
];

/// What an `Obs` had counted when last absorbed, so a long-lived handle
/// contributes only its growth.
#[derive(Debug, Clone, Default)]
pub struct ObsBaseline([f64; OBS_COUNTERS.len()]);

impl ObsBaseline {
    /// The counters `obs` holds now.
    pub fn of(obs: &Obs) -> Self {
        let mut b = ObsBaseline::default();
        for ((from, _), seen) in OBS_COUNTERS.iter().zip(b.0.iter_mut()) {
            *seen = obs.counter(from);
        }
        b
    }
}

/// Adds `obs`'s counter growth since `baseline` to the tracer and moves
/// the baseline forward. A fresh handle takes `&mut Default::default()`.
pub fn absorb_counters(t: &mut Tracer, obs: &Obs, baseline: &mut ObsBaseline) {
    for ((from, to), seen) in OBS_COUNTERS.iter().zip(baseline.0.iter_mut()) {
        let now = obs.counter(from);
        t.count(to, now - *seen);
        *seen = now;
    }
}
