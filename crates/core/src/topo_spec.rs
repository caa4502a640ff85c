//! The preset names and topology spec shared by `mobius-cli`'s
//! `--model`/`--system`/`--topo` and the planning service's
//! `model=`/`system=`/`topo=` keys.

use std::fmt;

use mobius_model::{GptConfig, Model};
use mobius_topology::{GpuSpec, Topology};

use crate::System;

/// The most GPUs one server spec may name: commodity servers hold 8–10
/// GPUs and the largest single NVLink boxes 16. The bound is fixed, and it
/// exists so that a spec like `400000000` is a typed error instead of an
/// allocation abort.
pub const MAX_SERVER_GPUS: usize = 16;

/// Why a topology spec was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoSpecError {
    /// Neither `dc` nor `+`-separated positive group sizes.
    Malformed,
    /// Well formed, but more than [`MAX_SERVER_GPUS`] GPUs in total.
    TooManyGpus,
}

impl fmt::Display for TopoSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoSpecError::Malformed => {
                write!(f, "expected `dc` or `+`-separated positive group sizes")
            }
            TopoSpecError::TooManyGpus => {
                write!(f, "a server holds at most {MAX_SERVER_GPUS} GPUs")
            }
        }
    }
}

impl std::error::Error for TopoSpecError {}

/// Parses a topology spec: `dc` (4×V100 over NVLink, any case) or the
/// GPUs under each root complex of a commodity 3090-Ti server, joined by
/// `+` (`2+2`, `1+3`, `4`, `4+4`), at most [`MAX_SERVER_GPUS`] in all.
///
/// # Errors
///
/// [`TopoSpecError::Malformed`] for anything else, which takes precedence
/// over [`TopoSpecError::TooManyGpus`].
pub fn parse_topology(s: &str) -> Result<Topology, TopoSpecError> {
    if s.eq_ignore_ascii_case("dc") {
        return Ok(Topology::data_center(GpuSpec::v100(), 4));
    }
    let groups: Vec<usize> = s
        .split('+')
        .map(|g| g.parse().ok().filter(|&n| n > 0))
        .collect::<Option<_>>()
        .ok_or(TopoSpecError::Malformed)?;
    let gpus = groups.iter().try_fold(0usize, |sum, &g| sum.checked_add(g));
    if gpus.is_none_or(|n| n > MAX_SERVER_GPUS) {
        return Err(TopoSpecError::TooManyGpus);
    }
    Ok(Topology::commodity(GpuSpec::rtx3090ti(), &groups))
}

/// Parses a model preset name in any case, without allocating: the
/// paper's GPTs `3b`, `8b`, `15b` and `51b`, `gpt2`, `gpt2-long`,
/// `llama7b` and `llama13b`; `None` for any other name. `gpt2-long` is a
/// long-sequence GPT-2 variant whose compute-dominated profile gives the
/// branch-and-bound's admissible load bound real pruning power: the regime
/// where warm-start seeding visibly saves leaf evaluations.
pub fn parse_model(s: &str) -> Option<Model> {
    let is = |name: &str| s.eq_ignore_ascii_case(name);
    let config = match s {
        _ if is("3b") => GptConfig::gpt_3b(),
        _ if is("8b") => GptConfig::gpt_8b(),
        _ if is("15b") => GptConfig::gpt_15b(),
        _ if is("51b") => GptConfig::gpt_51b(),
        _ if is("gpt2") => GptConfig::gpt2_small(),
        _ if is("gpt2-long") => {
            let base = GptConfig::gpt2_small();
            GptConfig::new(
                "GPT-2-long",
                base.vocab,
                base.hidden,
                base.heads,
                base.num_layers,
                8192,
                1,
            )
        }
        _ if is("llama7b") => return Some(Model::llama2_7b()),
        _ if is("llama13b") => return Some(Model::llama2_13b()),
        _ => return None,
    };
    Some(Model::from_config(&config))
}

/// Parses a system name in any case, without allocating: `mobius`,
/// `gpipe`, `ds-pipe` (or `deepspeed-pipeline`), `ds-hetero` (or
/// `deepspeed`, `deepspeed-hetero`) and `zero-offload` (or `offload`);
/// `None` for any other name.
pub fn parse_system(s: &str) -> Option<System> {
    let is = |name: &str| s.eq_ignore_ascii_case(name);
    match s {
        _ if is("mobius") => Some(System::Mobius),
        _ if is("gpipe") => Some(System::Gpipe),
        _ if is("ds-pipe") || is("deepspeed-pipeline") => Some(System::DeepSpeedPipeline),
        _ if is("ds-hetero") || is("deepspeed") || is("deepspeed-hetero") => {
            Some(System::DeepSpeedHetero)
        }
        _ if is("zero-offload") || is("offload") => Some(System::ZeroOffload),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_groups_and_dc() {
        assert_eq!(parse_topology("2+2").unwrap().groups(), &[2, 2]);
        assert_eq!(parse_topology("1+1+1").unwrap().groups(), &[1, 1, 1]);
        assert!(parse_topology("DC").unwrap().name().contains("NVLink"));
        let max = MAX_SERVER_GPUS.to_string();
        assert_eq!(parse_topology(&max).unwrap().num_gpus(), MAX_SERVER_GPUS);
    }

    #[test]
    fn refuses_malformed_and_oversized_specs() {
        for bad in ["", "x+y", "2+0", "2+", "-1", "2 +2"] {
            assert_eq!(parse_topology(bad), Err(TopoSpecError::Malformed), "{bad}");
        }
        let over = (MAX_SERVER_GPUS + 1).to_string();
        for big in [over.as_str(), "400000000", "8+9", "18446744073709551615+1"] {
            assert_eq!(
                parse_topology(big),
                Err(TopoSpecError::TooManyGpus),
                "{big}"
            );
        }
        // A malformed group wins over an oversized one.
        assert_eq!(parse_topology("400000000+x"), Err(TopoSpecError::Malformed));
    }
}
