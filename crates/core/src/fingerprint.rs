//! Configuration fingerprinting shared by checkpointing and the plan cache.
//!
//! Extracted from `mobius-ckpt` so that the checkpoint store (run identity,
//! [`crate::FineTuner::config_fingerprint`]) and the `mobius-serve` plan
//! cache (content-addressed keys) frame content the same way. The byte
//! layout is frozen: each part is terminated by the ASCII unit separator
//! (`\u{1f}`) and the concatenation is FNV-1a-64 hashed — changing either
//! would orphan every committed checkpoint (the golden
//! `tests/golden/checkpoint_gpt2.mckpt` pins the bytes).

use std::fmt::{self, Write as _};

use mobius_ckpt::Fnv64;
use mobius_model::Model;
use mobius_topology::Topology;

/// Terminates every fingerprint part.
const SEPARATOR: u8 = 0x1f;

/// Streams separator-framed descriptor parts (model, system, schedule, …)
/// straight into FNV-1a-64, so `["ab","c"]` and `["a","bc"]` hash
/// differently and no part is ever built as a `String`.
///
/// Text written through [`fmt::Write`] extends the current part;
/// [`Fingerprint::end_part`] terminates it. [`Fingerprint::part`] does
/// both for one formatted part.
#[derive(Debug, Clone, Default)]
pub struct Fingerprint(Fnv64);

impl Fingerprint {
    /// A fingerprint of no parts.
    pub const fn new() -> Self {
        Fingerprint(Fnv64::new())
    }

    /// Appends one formatted part, e.g. `fp.part(format_args!("seq={n}"))`.
    pub fn part(&mut self, args: fmt::Arguments<'_>) -> &mut Self {
        // Hashing never fails, and neither do the workspace's formatters.
        let _ = self.0.write_fmt(args);
        self.end_part()
    }

    /// Terminates the part written so far.
    pub fn end_part(&mut self) -> &mut Self {
        self.0.write(&[SEPARATOR]);
        self
    }

    /// The hash of every part so far.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

impl fmt::Write for Fingerprint {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write_str(s)
    }
}

/// Content fingerprint of a model: preset name plus every shape field that
/// determines its layer graph, so two presets that happen to share a name
/// but differ in shape (or vice versa) address different cache entries.
pub fn model_fingerprint(model: &Model) -> u64 {
    let c = model.config();
    Fingerprint::new()
        .part(format_args!("{}", c.name))
        .part(format_args!("vocab={}", c.vocab))
        .part(format_args!("hidden={}", c.hidden))
        .part(format_args!("heads={}", c.heads))
        .part(format_args!("blocks={}", c.num_layers))
        .part(format_args!("seq={}", c.seq_len))
        .part(format_args!("mbs={}", c.default_microbatch))
        .part(format_args!("layers={}", model.num_layers()))
        .finish()
}

/// Content fingerprint of a topology: the name (which encodes GPU model,
/// count, and root-complex grouping) plus the planner-visible capacity
/// figures, so a cache entry never survives a hardware change that would
/// alter the plan.
pub fn topology_fingerprint(topo: &Topology) -> u64 {
    let mut fp = Fingerprint::new();
    let _ = topo.write_name(&mut fp);
    fp.end_part()
        .part(format_args!("gpus={}", topo.num_gpus()))
        .part(format_args!("groups={:?}", topo.groups()))
        .part(format_args!("mem={}", topo.gpu_mem_bytes()))
        .part(format_args!("bw={:?}", topo.avg_gpu_bandwidth()))
        .part(format_args!("ssd={:?}", topo.ssd_gbps()))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobius_ckpt::fnv64;
    use mobius_model::GptConfig;
    use mobius_topology::{GpuSpec, Topology};

    fn parts(parts: &[&str]) -> u64 {
        let mut fp = Fingerprint::new();
        for p in parts {
            fp.part(format_args!("{p}"));
        }
        fp.finish()
    }

    #[test]
    fn fingerprint_is_framing_sensitive() {
        assert_ne!(parts(&["ab", "c"]), parts(&["a", "bc"]));
        assert_eq!(parts(&["a", "b"]), parts(&["a", "b"]));
        // A part may be written in pieces before it is terminated.
        let mut fp = Fingerprint::new();
        fp.write_str("a").unwrap();
        fp.end_part().part(format_args!("{}", 'b'));
        assert_eq!(fp.finish(), parts(&["a", "b"]));
    }

    #[test]
    fn fingerprint_bytes_match_the_ckpt_era_layout() {
        // The exact value `mobius_ckpt::fingerprint_of` produced before the
        // extraction: separator-framed FNV-1a 64. Pinning it here keeps the
        // checkpoint wire format honest across the move.
        assert_eq!(parts(&["a", "b"]), fnv64("a\u{1f}b\u{1f}".as_bytes()));
        assert_eq!(parts(&[]), fnv64(b""));
    }

    #[test]
    fn model_fingerprint_separates_presets() {
        let gpt2 = Model::from_config(&GptConfig::gpt2_small());
        let gpt3b = Model::from_config(&GptConfig::gpt_3b());
        assert_ne!(model_fingerprint(&gpt2), model_fingerprint(&gpt3b));
        assert_eq!(model_fingerprint(&gpt2), model_fingerprint(&gpt2));
    }

    #[test]
    fn topology_fingerprint_separates_shapes_and_hardware() {
        let t22 = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
        let t13 = Topology::commodity(GpuSpec::rtx3090ti(), &[1, 3]);
        let dc = Topology::data_center(GpuSpec::v100(), 4);
        assert_ne!(topology_fingerprint(&t22), topology_fingerprint(&t13));
        assert_ne!(topology_fingerprint(&t22), topology_fingerprint(&dc));
        assert_eq!(topology_fingerprint(&t22), topology_fingerprint(&t22));
        // SSD offload changes planner-visible capacity, so it must change
        // the fingerprint too.
        let ssd = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]).with_ssd_offload(3.0);
        assert_ne!(topology_fingerprint(&t22), topology_fingerprint(&ssd));
    }
}
