//! The topology spec shared by `mobius-cli --topo` and the planning
//! service's `topo=` key.

use std::fmt;

use mobius_topology::{GpuSpec, Topology};

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
