//! D007 — dimension-aware unit consistency.
//!
//! Drives [`crate::expr`] over cleaned source and turns every unit
//! conflict into a finding. The rule applies only to simulation-affecting
//! code (crate `src/` trees), with `#[cfg(test)]` regions exempt — tests
//! deliberately juggle raw literals.

use crate::expr::{self, Mismatch};
use crate::scan::Cleaned;
use crate::types::{Code, Finding};

/// Identifiers recognized as sanctioned unit conversions: routing a term
/// through one of these makes it unit-agnostic, so migrating an ad-hoc
/// `* 1e9` to the named helper is how a real D007 finding gets fixed.
/// This list mirrors the exports of `mobius_sim::units`.
pub const CONVERSION_IDENTS: &[&str] = &[
    "NS_PER_SEC",
    "NS_PER_MS",
    "NS_PER_US",
    "MS_PER_SEC",
    "US_PER_SEC",
    "BYTES_PER_GB",
    "NS_PER_SEC_U64",
    "NS_PER_MS_U64",
    "NS_PER_US_U64",
    "secs_to_ns",
    "ns_to_secs",
    "ns_to_ms",
    "ms_to_ns",
    "secs_to_ms",
    "secs_to_us",
    "gb_to_bytes",
    "bytes_to_gb",
    "gbps_to_bytes_per_sec",
    "bytes_per_sec_to_gbps",
    "gbps_to_bytes_per_ns",
];

/// Is `name` a recognized conversion constant or helper? Besides the
/// explicit [`CONVERSION_IDENTS`] list, any identifier containing `_per_`
/// (case-insensitive) qualifies: `X_PER_Y` names a ratio, and multiplying
/// or dividing by a ratio is a dimension change by construction.
#[must_use]
fn is_conversion_ident(name: &str) -> bool {
    CONVERSION_IDENTS.contains(&name) || name.to_ascii_lowercase().contains("_per_")
}

fn render(m: &Mismatch) -> String {
    format!(
        "mixed units across {}: `{}` ({}) vs `{}` ({}); convert explicitly \
         via mobius_sim::units (NS_PER_SEC, bytes_to_gb, …)",
        m.context,
        m.left.0,
        m.left.1.label(),
        m.right.0,
        m.right.1.label()
    )
}

/// Runs the D007 analysis over cleaned source. `in_test` masks
/// `#[cfg(test)]` regions. Findings are deduplicated by line.
pub fn findings(path: &str, cleaned: &Cleaned, in_test: &[bool]) -> Vec<Finding> {
    let mismatches = expr::analyze(&cleaned.text, &is_conversion_ident, &|line| {
        in_test
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    });
    let mut out: Vec<Finding> = Vec::new();
    for m in &mismatches {
        if out.iter().any(|f| f.line == m.line) {
            continue;
        }
        out.push(Finding {
            code: Code::D007,
            path: path.to_string(),
            line: m.line,
            message: render(m),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_recognition() {
        assert!(is_conversion_ident("NS_PER_SEC"));
        assert!(is_conversion_ident("bytes_to_gb"));
        assert!(is_conversion_ident("TOKENS_PER_STEP"), "_PER_ generic");
        assert!(!is_conversion_ident("start_ns"));
        assert!(!is_conversion_ident("percent"));
    }
}
