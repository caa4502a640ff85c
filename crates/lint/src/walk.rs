//! Workspace walking and the multi-pass driver.
//!
//! Per-file rules (D001–D004, D006, D007) resolve inside
//! [`scan_rust_source`]; the workspace pass adds the cross-file state the
//! newer rules need: obs-name uses flow into the D009 registry
//! cross-check, and suppression staleness (D008) is judged once *all*
//! findings — including workspace-stage D009 ones — are known. An
//! `allow(D009)` in a file is therefore *pending* until the registry
//! check has run; every other unused allow is stale immediately.

use std::fs;
use std::io;
use std::path::Path;

use crate::rules::registry::{self, ObsUse};
use crate::rules::{determinism, layering, units};
use crate::scan::{clean_rust, clean_toml, test_region_mask};
use crate::suppress::{apply_suppressions, resolve_directives, stale_finding, Suppression};
use crate::types::{Code, Finding};

/// The result of scanning one Rust file inside a workspace pass.
struct FileScan {
    /// Findings after per-file suppression; D008 for non-D009 stale
    /// allows already included.
    findings: Vec<Finding>,
    /// Counter/gauge/lane uses (empty outside crate `src/` trees).
    uses: Vec<ObsUse>,
    /// Unused `allow(D009)` directives, judged after the registry pass.
    pending_d009: Vec<(String, Suppression)>,
}

fn scan_rust_file(path: &str, src: &str, d002_applies: bool) -> FileScan {
    let cleaned = clean_rust(src);
    let (supps, mut findings) = resolve_directives(&cleaned, path);
    let in_test = if d002_applies {
        test_region_mask(&cleaned.text)
    } else {
        Vec::new()
    };

    let mut raw = determinism::findings(path, &cleaned, d002_applies, &in_test);
    let uses = if d002_applies {
        raw.extend(units::findings(path, &cleaned, &in_test));
        registry::collect_uses(path, &cleaned, &in_test)
    } else {
        Vec::new()
    };

    let used = apply_suppressions(&mut raw, &supps);
    let mut pending_d009 = Vec::new();
    for (supp, used) in supps.into_iter().zip(used) {
        if used {
            continue;
        }
        if supp.code == Code::D009 {
            pending_d009.push((path.to_string(), supp));
        } else {
            findings.push(stale_finding(path, &supp));
        }
    }
    findings.extend(raw);
    FileScan {
        findings,
        uses,
        pending_d009,
    }
}

/// Scans one Rust source file in isolation. `path` is the repo-relative
/// label used in findings; `d002_applies` marks simulation-affecting code
/// (crate `src/` trees), where hash-ordered collections, unit mixing, and
/// obs-name collection apply.
///
/// Stale suppressions (D008) are reported here for every code except
/// D009: whether an `allow(D009)` is stale can only be judged by
/// [`scan_workspace`], which owns the registry cross-check.
#[must_use]
pub fn scan_rust_source(path: &str, src: &str, d002_applies: bool) -> Vec<Finding> {
    let mut scan = scan_rust_file(path, src, d002_applies);
    scan.findings.sort_by_key(|f| (f.line, f.code));
    scan.findings
}

/// Scans one `crates/*/Cargo.toml` for layering violations (D005) against
/// [`crate::LAYERING`]. `path` is the repo-relative label used in
/// findings. Unused allows are stale (D008) immediately — no
/// workspace-stage rule applies to manifests.
#[must_use]
pub fn scan_cargo_toml(path: &str, src: &str) -> Vec<Finding> {
    let cleaned = clean_toml(src);
    let (supps, mut findings) = resolve_directives(&cleaned, path);
    let mut raw = layering::check_manifest(path, &cleaned);
    let used = apply_suppressions(&mut raw, &supps);
    for (supp, used) in supps.iter().zip(used) {
        if !used {
            findings.push(stale_finding(path, supp));
        }
    }
    findings.extend(raw);
    findings.sort_by_key(|f| (f.line, f.code));
    findings
}

struct WorkspaceState {
    findings: Vec<Finding>,
    uses: Vec<ObsUse>,
    pending_d009: Vec<(String, Suppression)>,
}

fn sorted_entries(dir: &Path) -> io::Result<Vec<std::path::PathBuf>> {
    let mut v: Vec<_> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    v.sort();
    Ok(v)
}

fn walk_rs(
    root: &Path,
    dir: &Path,
    d002_src_root: Option<&Path>,
    state: &mut WorkspaceState,
) -> io::Result<()> {
    for entry in sorted_entries(dir)? {
        let name = entry
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if entry.is_dir() {
            // `fixtures` trees hold deliberate violations for the lint's own
            // tests; `target`/`golden` hold build products and artifacts.
            if matches!(name.as_str(), "target" | "fixtures" | "golden" | ".git") {
                continue;
            }
            walk_rs(root, &entry, d002_src_root, state)?;
        } else if name.ends_with(".rs") {
            let src = fs::read_to_string(&entry)?;
            let label = rel_label(root, &entry);
            let d002 = d002_src_root.is_some_and(|s| entry.starts_with(s));
            let scan = scan_rust_file(&label, &src, d002);
            state.findings.extend(scan.findings);
            state.uses.extend(scan.uses);
            state.pending_d009.extend(scan.pending_d009);
        }
    }
    Ok(())
}

fn rel_label(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Scans the whole workspace rooted at `root`: every `.rs` file under
/// `crates/`, `src/`, `tests/`, and `examples/` (skipping `target/`,
/// fixture trees, and golden artifacts; `shims/` stand-ins are external
/// code and exempt), plus every `crates/*/Cargo.toml` for D005, plus the
/// DESIGN.md obs-registry cross-check (D009) and workspace-stage
/// suppression staleness (D008). Findings come back sorted by
/// `(path, line, code)` — deterministic by construction.
///
/// # Errors
///
/// Propagates I/O errors from reading the tree.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut state = WorkspaceState {
        findings: Vec::new(),
        uses: Vec::new(),
        pending_d009: Vec::new(),
    };
    let crates = root.join("crates");
    if crates.is_dir() {
        for krate in sorted_entries(&crates)? {
            if !krate.is_dir() {
                continue;
            }
            let manifest = krate.join("Cargo.toml");
            if manifest.is_file() {
                let src = fs::read_to_string(&manifest)?;
                state
                    .findings
                    .extend(scan_cargo_toml(&rel_label(root, &manifest), &src));
            }
            let src_root = krate.join("src");
            walk_rs(root, &krate, Some(&src_root), &mut state)?;
        }
    }
    // Root package: src/ is simulation-affecting (facade code), tests/ and
    // examples/ are not (their output is never a byte-compared artifact).
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs(root, &root_src, Some(&root_src), &mut state)?;
    }
    for dir in ["tests", "examples"] {
        let d = root.join(dir);
        if d.is_dir() {
            walk_rs(root, &d, None, &mut state)?;
        }
    }

    // D009: registry cross-check, then settle pending allow(D009)s.
    let design = root.join("DESIGN.md");
    let mut d009 = Vec::new();
    if design.is_file() {
        let markdown = fs::read_to_string(&design)?;
        let (reg, bad) = registry::parse_registry("DESIGN.md", &markdown);
        d009.extend(bad);
        d009.extend(registry::check("DESIGN.md", &reg, &state.uses));
    }
    for (path, supp) in &state.pending_d009 {
        let before = d009.len();
        d009.retain(|f| !(f.path == *path && f.line == supp.target_line));
        if d009.len() == before {
            state.findings.push(stale_finding(path, supp));
        }
    }
    state.findings.extend(d009);

    state
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.code).cmp(&(&b.path, b.line, b.code)));
    Ok(state.findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_directive_suppresses_same_line() {
        let src = "let t = Instant::now(); // mobius-lint: allow(D001, reason = \"test only\")\n";
        assert!(scan_rust_source("x.rs", src, false).is_empty());
    }

    #[test]
    fn own_line_directive_suppresses_next_code_line() {
        let src =
            "// mobius-lint: allow(D001, reason = \"test only\")\n\nlet t = Instant::now();\n";
        assert!(scan_rust_source("x.rs", src, false).is_empty());
    }

    #[test]
    fn suppression_does_not_leak_to_other_lines() {
        let src = "// mobius-lint: allow(D001, reason = \"first only\")\nlet a = Instant::now();\nlet b = Instant::now();\n";
        let f = scan_rust_source("x.rs", src, false);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].code, f[0].line), (Code::D001, 3));
    }

    #[test]
    fn unused_allow_is_stale() {
        let src = "// mobius-lint: allow(D001, reason = \"nothing here\")\nlet x = 1;\n";
        let f = scan_rust_source("x.rs", src, false);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].code, f[0].line), (Code::D008, 1));
        assert!(f[0].message.contains("stale suppression"));
    }

    #[test]
    fn pending_d009_allow_is_not_judged_per_file() {
        // Whether an allow(D009) is stale needs the workspace registry
        // pass; standalone scanning must not guess.
        let src = "// mobius-lint: allow(D009, reason = \"pending\")\nlet x = 1;\n";
        assert!(scan_rust_source("crates/x/src/a.rs", src, true).is_empty());
    }

    #[test]
    fn allowlist_exempts_walltime_module() {
        let src = "let t = Instant::now();\n";
        assert!(scan_rust_source("crates/obs/src/walltime.rs", src, false).is_empty());
        assert_eq!(
            scan_rust_source("crates/obs/src/chrome.rs", src, false).len(),
            1
        );
    }

    #[test]
    fn d002_only_in_simulation_affecting_code() {
        let src = "let m: HashMap<u32, u32> = HashMap::new();\n";
        assert_eq!(scan_rust_source("crates/sim/src/x.rs", src, true).len(), 1);
        assert!(scan_rust_source("tests/x.rs", src, false).is_empty());
    }

    #[test]
    fn d002_use_lines_are_exempt() {
        let src = "use std::collections::HashMap;\n";
        assert!(scan_rust_source("crates/sim/src/x.rs", src, true).is_empty());
    }

    #[test]
    fn d002_flags_iteration_of_declared_map() {
        let src = "\
// mobius-lint: allow(D002, reason = \"claimed lookup-only\")
let mut flows: HashMap<u32, u32> = HashMap::new();
for (k, v) in flows.iter() {
    let _ = (k, v);
}
";
        let f = scan_rust_source("crates/sim/src/x.rs", src, true);
        // The declaration is suppressed, but the iteration is its own
        // finding: a stale \"lookup-only\" claim cannot hide new iteration.
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].code, f[0].line), (Code::D002, 3));
    }

    #[test]
    fn d003_flags_partial_cmp_calls_only() {
        let src = "impl PartialOrd for X {\n    fn partial_cmp(&self, o: &X) -> Option<Ordering> { Some(self.cmp(o)) }\n}\nxs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n";
        let f = scan_rust_source("x.rs", src, false);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].code, f[0].line), (Code::D003, 4));
    }

    #[test]
    fn d007_flags_only_simulation_affecting_code() {
        let src = "let t_secs = dur_ns * 1e9;\n";
        let f = scan_rust_source("crates/sim/src/x.rs", src, true);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, Code::D007);
        assert!(scan_rust_source("tests/x.rs", src, false).is_empty());
    }

    #[test]
    fn toml_layering_violation_found_and_suppressible() {
        let bad = "[package]\nname = \"mobius-obs\"\n\n[dependencies]\nmobius.workspace = true\n";
        let f = scan_cargo_toml("crates/obs/Cargo.toml", bad);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].code, f[0].line), (Code::D005, 5));

        let ok = "[package]\nname = \"mobius-obs\"\n\n[dependencies]\n# mobius-lint: allow(D005, reason = \"fixture\")\nmobius.workspace = true\n";
        assert!(scan_cargo_toml("crates/obs/Cargo.toml", ok).is_empty());
    }

    #[test]
    fn toml_unused_allow_is_stale() {
        let src = "[package]\nname = \"mobius-obs\"\n\n[dependencies]\n# mobius-lint: allow(D005, reason = \"nothing\")\nunused_shim = { path = \"x\" }\n";
        let f = scan_cargo_toml("crates/obs/Cargo.toml", src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].code, f[0].line), (Code::D008, 5));
    }
}
