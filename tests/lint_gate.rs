//! Tier-1 gate: the live workspace must self-lint clean under
//! `mobius-lint` — zero unsuppressed determinism or layering findings.
//! This is the same check `scripts/verify.sh` runs as a hard gate; having
//! it in the root test suite means plain `cargo test` enforces it too.
//! A second gate keeps every package's manifest free of dependencies and
//! dev-dependencies that none of its sources name.

use std::path::Path;

use mobius_lint::{render_human, scan_workspace};

#[test]
fn workspace_has_zero_unsuppressed_lint_findings() {
    let root = env!("CARGO_MANIFEST_DIR");
    let findings = scan_workspace(Path::new(root)).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "mobius-lint found unsuppressed findings (every suppression needs a \
         non-empty reason):\n{}",
        render_human(&findings)
    );
}

/// The `[dependencies]` and `[dev-dependencies]` keys of a manifest, in
/// file order.
fn dependencies(manifest: &str) -> Vec<String> {
    let mut in_deps = false;
    let mut names = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]" || line == "[dev-dependencies]";
        } else if in_deps && !line.is_empty() && !line.starts_with('#') {
            let key = line.split(['.', '=', ' ']).next().unwrap_or(line);
            names.push(key.to_string());
        }
    }
    names
}

/// Every `.rs` file under `dir`, read into one string.
fn rust_sources(dir: &Path, out: &mut String) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push_str(&std::fs::read_to_string(&path).expect("readable source"));
            out.push('\n');
        }
    }
}

/// Whether `name` occurs in `text` with no identifier character on either
/// side.
fn names(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(name)
        .any(|(at, _)| !text[..at].ends_with(ident) && !text[at + name.len()..].starts_with(ident))
}

#[test]
fn every_declared_dependency_is_named_by_its_package() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut packages = vec![root.to_path_buf()];
    let crates = std::fs::read_dir(root.join("crates")).expect("crates directory");
    packages.extend(crates.map(|e| e.expect("crate entry").path()));
    let mut unused = Vec::new();
    for package in packages {
        let Ok(manifest) = std::fs::read_to_string(package.join("Cargo.toml")) else {
            continue;
        };
        // A package's own sources: the member crates are packages of their
        // own, so the root package reads only its top-level target dirs.
        let mut text = String::new();
        for dir in ["src", "tests", "examples", "benches"] {
            rust_sources(&package.join(dir), &mut text);
        }
        for dep in dependencies(&manifest) {
            if !names(&text, &dep.replace('-', "_")) {
                unused.push(format!("{}: {dep}", package.display()));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "[dependencies] and [dev-dependencies] entries no source of their \
         package names:\n{}",
        unused.join("\n")
    );
}
