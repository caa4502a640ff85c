//! D005 — crate-layering violations, checked against the machine-readable
//! DESIGN.md dependency-flow table.

use crate::scan::{is_ident, Cleaned};
use crate::types::{Code, Finding};

/// The DESIGN.md dependency-flow table, machine-readable: each workspace
/// crate and the full set of workspace crates it may depend on
/// (transitively closed, `[dependencies]` and `[dev-dependencies]` alike).
/// D005 fails any `crates/*/Cargo.toml` whose `mobius*` dependencies leave
/// this set, so the layer diagram is checked, not aspirational — in
/// particular `mobius-obs` and `mobius-sim` can never grow a dependency on
/// `mobius` (core). Keep in sync with DESIGN.md § Static analysis.
pub const LAYERING: &[(&str, &[&str])] = &[
    ("mobius-obs", &[]),
    ("mobius-model", &[]),
    ("mobius-tensor", &[]),
    ("mobius-lint", &["mobius-obs"]),
    ("mobius-sim", &["mobius-obs"]),
    ("mobius-ckpt", &["mobius-sim", "mobius-obs"]),
    ("mobius-topology", &["mobius-sim", "mobius-obs"]),
    (
        "mobius-mapping",
        &["mobius-topology", "mobius-sim", "mobius-obs"],
    ),
    (
        "mobius-cluster",
        &["mobius-topology", "mobius-sim", "mobius-obs"],
    ),
    (
        "mobius-profiler",
        &[
            "mobius-model",
            "mobius-topology",
            "mobius-sim",
            "mobius-obs",
        ],
    ),
    (
        "mobius-zero",
        &[
            "mobius-profiler",
            "mobius-model",
            "mobius-topology",
            "mobius-sim",
            "mobius-obs",
        ],
    ),
    (
        "mobius-pipeline",
        &[
            "mobius-mapping",
            "mobius-profiler",
            "mobius-model",
            "mobius-topology",
            "mobius-sim",
            "mobius-obs",
        ],
    ),
    (
        "mobius",
        &[
            "mobius-ckpt",
            "mobius-tensor",
            "mobius-cluster",
            "mobius-zero",
            "mobius-pipeline",
            "mobius-mapping",
            "mobius-profiler",
            "mobius-model",
            "mobius-topology",
            "mobius-sim",
            "mobius-obs",
        ],
    ),
    (
        "mobius-serve",
        &[
            "mobius",
            "mobius-ckpt",
            "mobius-tensor",
            "mobius-cluster",
            "mobius-zero",
            "mobius-pipeline",
            "mobius-mapping",
            "mobius-profiler",
            "mobius-model",
            "mobius-topology",
            "mobius-sim",
            "mobius-obs",
        ],
    ),
    (
        "mobius-bench",
        &[
            "mobius",
            "mobius-serve",
            "mobius-ckpt",
            "mobius-tensor",
            "mobius-cluster",
            "mobius-zero",
            "mobius-pipeline",
            "mobius-mapping",
            "mobius-profiler",
            "mobius-model",
            "mobius-topology",
            "mobius-sim",
            "mobius-obs",
        ],
    ),
];

/// Checks one cleaned `crates/*/Cargo.toml` against [`LAYERING`],
/// returning raw (pre-suppression) D005 findings.
pub fn check_manifest(path: &str, cleaned: &Cleaned) -> Vec<Finding> {
    let mut package: Option<(String, usize)> = None;
    let mut section = String::new();
    let mut deps: Vec<(String, usize)> = Vec::new(); // (dep name, line)
    for (idx, line) in cleaned.text.lines().enumerate() {
        let line_no = idx + 1;
        let t = line.trim();
        if let Some(name) = t.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = name.trim().to_string();
            // `[dependencies.mobius-obs]` style table headers.
            for sec in ["dependencies.", "dev-dependencies."] {
                if let Some(dep) = section.strip_prefix(sec) {
                    deps.push((dep.trim().to_string(), line_no));
                }
            }
            continue;
        }
        if section == "package" && package.is_none() {
            if let Some(v) = t.strip_prefix("name") {
                let v = v.trim_start();
                if let Some(v) = v.strip_prefix('=') {
                    let name = v.trim().trim_matches('"').to_string();
                    package = Some((name, line_no));
                }
            }
        }
        if (section == "dependencies" || section == "dev-dependencies") && !t.is_empty() {
            let key: String = t.chars().take_while(|&c| is_ident(c) || c == '-').collect();
            if !key.is_empty() {
                deps.push((key, line_no));
            }
        }
    }

    let mut raw = Vec::new();
    let Some((pkg, pkg_line)) = package else {
        raw.push(Finding {
            code: Code::D005,
            path: path.to_string(),
            line: 1,
            message: "no [package] name found".to_string(),
        });
        return raw;
    };
    let allowed = LAYERING.iter().find(|(name, _)| *name == pkg);
    match allowed {
        None => raw.push(Finding {
            code: Code::D005,
            path: path.to_string(),
            line: pkg_line,
            message: format!(
                "package `{pkg}` is missing from the D005 layering table; add it to \
                 DESIGN.md's dependency-flow table and to LAYERING in crates/lint"
            ),
        }),
        Some((_, allowed)) => {
            for (dep, line) in &deps {
                let is_mobius = dep == "mobius" || dep.starts_with("mobius-");
                if is_mobius && !allowed.contains(&dep.as_str()) {
                    raw.push(Finding {
                        code: Code::D005,
                        path: path.to_string(),
                        line: *line,
                        message: format!(
                            "layering violation: `{pkg}` may not depend on `{dep}` \
                             (DESIGN.md dependency flow; see LAYERING in crates/lint)"
                        ),
                    });
                }
            }
        }
    }
    raw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layering_table_is_transitively_closed() {
        // If a crate may depend on X, it may depend on everything X may
        // depend on — otherwise the table would reject legal indirect use.
        for (name, allowed) in LAYERING {
            for dep in *allowed {
                let (_, dep_allowed) = LAYERING
                    .iter()
                    .find(|(n, _)| n == dep)
                    .unwrap_or_else(|| panic!("`{dep}` (allowed for `{name}`) missing from table"));
                for t in *dep_allowed {
                    assert!(
                        allowed.contains(t),
                        "table not closed: {name} allows {dep} but not {dep}'s dep {t}"
                    );
                }
            }
        }
    }
}
