//! D009 — observability-registry drift.
//!
//! DESIGN.md carries a machine-readable registry of every counter, gauge,
//! and span lane the workspace emits, fenced by HTML-comment markers:
//!
//! ```text
//! <!-- obs-registry:begin -->
//! | kind    | name            | meaning |
//! |---------|-----------------|---------|
//! | counter | `ckpt.bytes`    | … |
//! | gauge   | `bubble.mean`   | … |
//! | lane    | `Solver`        | … |
//! <!-- obs-registry:end -->
//! ```
//!
//! The rule cross-checks the table against the code **both ways**: a
//! counter/gauge name emitted (or `Lane::` variant used) in shipping crate
//! code that has no registry row is a finding at the first use site, and a
//! registry row naming something never emitted is a finding at the row —
//! dead documentation is drift too. Dynamic name segments
//! (`format!("bytes.{}", label)`) are normalized to `*`, so the registry
//! documents name *patterns*, one row per family. A name built once for
//! reuse with `counter_name!("link.{label}.bytes")` counts as a counter
//! use at the macro call.

use crate::scan::{is_ident, Cleaned};
use crate::types::{Code, Finding};

/// What kind of observability artifact a name identifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsKind {
    /// A `counter_add` name.
    Counter,
    /// A `gauge_set` name.
    Gauge,
    /// A `histogram_record` name.
    Histogram,
    /// A span `Lane::` variant.
    Lane,
}

impl ObsKind {
    /// The registry-table spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ObsKind::Counter => "counter",
            ObsKind::Gauge => "gauge",
            ObsKind::Histogram => "histogram",
            ObsKind::Lane => "lane",
        }
    }

    fn parse(s: &str) -> Option<ObsKind> {
        match s {
            "counter" => Some(ObsKind::Counter),
            "gauge" => Some(ObsKind::Gauge),
            "histogram" => Some(ObsKind::Histogram),
            "lane" => Some(ObsKind::Lane),
            _ => None,
        }
    }
}

/// One use of an observability name in code.
#[derive(Debug, Clone)]
pub struct ObsUse {
    /// Counter, gauge, or lane.
    pub kind: ObsKind,
    /// Normalized name pattern (`{…}` segments become `*`).
    pub name: String,
    /// Repo-relative path of the use site.
    pub path: String,
    /// 1-based line of the use site.
    pub line: usize,
}

/// One row of the DESIGN.md obs-registry table.
#[derive(Debug, Clone)]
pub struct RegistryRow {
    /// Counter, gauge, or lane.
    pub kind: ObsKind,
    /// Documented name pattern.
    pub name: String,
    /// 1-based line of the row in DESIGN.md.
    pub line: usize,
}

/// The parsed registry: rows plus whether the marker fence was found.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// Parsed, well-formed rows.
    pub rows: Vec<RegistryRow>,
    /// Both `obs-registry:begin` and `obs-registry:end` markers present.
    pub found: bool,
}

/// Start-of-table marker line (an HTML comment, invisible in rendering).
pub const MARKER_BEGIN: &str = "<!-- obs-registry:begin -->";
/// End-of-table marker line.
pub const MARKER_END: &str = "<!-- obs-registry:end -->";

/// Parses the obs-registry table out of `markdown` (normally DESIGN.md).
/// Malformed rows (unknown kind) become D009 findings at `doc_path`.
pub fn parse_registry(doc_path: &str, markdown: &str) -> (Registry, Vec<Finding>) {
    let mut reg = Registry::default();
    let mut bad = Vec::new();
    let mut inside = false;
    let mut saw_begin = false;
    let mut saw_end = false;
    for (idx, line) in markdown.lines().enumerate() {
        let line_no = idx + 1;
        let t = line.trim();
        if t == MARKER_BEGIN {
            inside = true;
            saw_begin = true;
            continue;
        }
        if t == MARKER_END {
            inside = false;
            saw_end = true;
            continue;
        }
        if !inside || !t.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = t.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 2 {
            continue;
        }
        let kind_cell = cells[0];
        // Header and separator rows.
        if kind_cell == "kind" || kind_cell.chars().all(|c| c == '-' || c == ':') {
            continue;
        }
        let name = cells[1].trim_matches('`').to_string();
        match ObsKind::parse(kind_cell) {
            Some(kind) => reg.rows.push(RegistryRow {
                kind,
                name,
                line: line_no,
            }),
            None => bad.push(Finding {
                code: Code::D009,
                path: doc_path.to_string(),
                line: line_no,
                message: format!(
                    "obs-registry row has unknown kind `{kind_cell}` \
                     (expected counter, gauge, histogram, or lane)"
                ),
            }),
        }
    }
    reg.found = saw_begin && saw_end;
    (reg, bad)
}

/// Line number (1-based) of byte offset `at` in `s`.
fn line_of(s: &str, at: usize) -> usize {
    s.as_bytes()[..at].iter().filter(|&&b| b == b'\n').count() + 1
}

/// Normalizes a counter/gauge format string to a name pattern: every
/// `{…}` placeholder collapses to `*`.
fn normalize_pattern(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c == '{' {
            for d in chars.by_ref() {
                if d == '}' {
                    break;
                }
            }
            out.push('*');
        } else {
            out.push(c);
        }
    }
    out
}

/// Extracts a literal (or `format!`-literal) first-argument string from
/// the text following a `counter_add`/`gauge_set` identifier. Non-literal
/// first arguments (wrapper definitions, pass-through variables) yield
/// `None` — those sites are the registry's blind spot by design; the
/// `format!` call that *built* the name is the one that gets collected.
fn literal_first_arg(after: &str) -> Option<String> {
    let r = after.trim_start();
    let mut r = r.strip_prefix('(')?.trim_start();
    if let Some(x) = r.strip_prefix('&') {
        r = x.trim_start();
    }
    if let Some(x) = r.strip_prefix("format!") {
        r = x.trim_start().strip_prefix('(')?.trim_start();
    }
    let r = r.strip_prefix('"')?;
    let end = r.find('"')?;
    Some(normalize_pattern(&r[..end]))
}

/// Finds every occurrence of `pat` in `hay` with no identifier character
/// immediately before it (and, when `check_after`, none immediately
/// after), yielding byte offsets. `Lane::Solver` needs the left boundary
/// only — the variant ident legitimately hugs the pattern's right edge.
fn bounded_occurrences(hay: &str, pat: &str, check_after: bool) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = hay[from..].find(pat) {
        let at = from + rel;
        let before_ok = hay[..at].chars().next_back().is_none_or(|c| !is_ident(c));
        let after_ok = !check_after
            || hay[at + pat.len()..]
                .chars()
                .next()
                .is_none_or(|c| !is_ident(c));
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + pat.len();
    }
    out
}

/// Collects counter/gauge emissions and `Lane::` uses from one cleaned
/// file. `in_test` masks `#[cfg(test)]` regions — test-only names are not
/// part of the shipping observability surface.
pub fn collect_uses(path: &str, cleaned: &Cleaned, in_test: &[bool]) -> Vec<ObsUse> {
    let masked = |line: usize| in_test.get(line - 1).copied().unwrap_or(false);
    let mut uses = Vec::new();
    for (pat, kind) in [
        ("counter_add", ObsKind::Counter),
        ("counter_name!", ObsKind::Counter),
        ("gauge_set", ObsKind::Gauge),
        ("histogram_record", ObsKind::Histogram),
    ] {
        for at in bounded_occurrences(&cleaned.text_strings, pat, true) {
            let line = line_of(&cleaned.text_strings, at);
            if masked(line) {
                continue;
            }
            if let Some(name) = literal_first_arg(&cleaned.text_strings[at + pat.len()..]) {
                uses.push(ObsUse {
                    kind,
                    name,
                    path: path.to_string(),
                    line,
                });
            }
        }
    }
    for at in bounded_occurrences(&cleaned.text, "Lane::", false) {
        let line = line_of(&cleaned.text, at);
        if masked(line) {
            continue;
        }
        let variant: String = cleaned.text[at + "Lane::".len()..]
            .chars()
            .take_while(|&c| is_ident(c))
            .collect();
        if !variant.is_empty() {
            uses.push(ObsUse {
                kind: ObsKind::Lane,
                name: variant,
                path: path.to_string(),
                line,
            });
        }
    }
    uses
}

/// Cross-checks registry rows against collected uses, both ways. Use-site
/// findings are deduplicated per `(kind, name)`, anchored at the first
/// collected use (collection order is the walker's sorted file order, so
/// output is deterministic).
pub fn check(doc_path: &str, registry: &Registry, uses: &[ObsUse]) -> Vec<Finding> {
    let mut out = Vec::new();
    if !registry.found {
        out.push(Finding {
            code: Code::D009,
            path: doc_path.to_string(),
            line: 1,
            message: format!(
                "obs-registry table not found: DESIGN.md must fence it between \
                 `{MARKER_BEGIN}` and `{MARKER_END}`"
            ),
        });
        return out;
    }
    for row in &registry.rows {
        let alive = uses
            .iter()
            .any(|u| u.kind == row.kind && u.name == row.name);
        if !alive {
            out.push(Finding {
                code: Code::D009,
                path: doc_path.to_string(),
                line: row.line,
                message: format!(
                    "dead obs-registry row: {} `{}` is documented but never emitted \
                     in shipping code; delete the row or restore the emission",
                    row.kind.as_str(),
                    row.name
                ),
            });
        }
    }
    let mut reported: Vec<(ObsKind, &str)> = Vec::new();
    for u in uses {
        let documented = registry
            .rows
            .iter()
            .any(|r| r.kind == u.kind && r.name == u.name);
        if documented || reported.contains(&(u.kind, u.name.as_str())) {
            continue;
        }
        reported.push((u.kind, &u.name));
        out.push(Finding {
            code: Code::D009,
            path: u.path.clone(),
            line: u.line,
            message: format!(
                "undocumented {} `{}`: add a row to DESIGN.md's obs-registry table \
                 (between the obs-registry markers) or stop emitting it",
                u.kind.as_str(),
                u.name
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::clean_rust;

    const DOC: &str = "\
# design

<!-- obs-registry:begin -->
| kind    | name         | meaning |
|---------|--------------|---------|
| counter | `ckpt.bytes` | bytes checkpointed |
| counter | `bytes.*`    | per-stage upload bytes |
| gauge   | `bubble.mean`| mean pipeline bubble |
| lane    | `Solver`     | solver spans |
<!-- obs-registry:end -->
";

    #[test]
    fn registry_parses_rows_and_markers() {
        let (reg, bad) = parse_registry("DESIGN.md", DOC);
        assert!(reg.found);
        assert!(bad.is_empty());
        assert_eq!(reg.rows.len(), 4);
        assert_eq!(reg.rows[1].name, "bytes.*");
        assert_eq!(reg.rows[3].kind, ObsKind::Lane);
    }

    #[test]
    fn format_names_normalize_to_patterns() {
        let src = "obs.counter_add(&format!(\"bytes.{}\", stage), b);\nobs.counter_add(\"ckpt.bytes\", b);\nlet l = Lane::Solver;\nobs.gauge_set(\"bubble.mean\", v);\n";
        let uses = collect_uses("x.rs", &clean_rust(src), &[]);
        let names: Vec<&str> = uses.iter().map(|u| u.name.as_str()).collect();
        // Collection order: counters, then gauges, then lanes.
        assert_eq!(
            names,
            vec!["bytes.*", "ckpt.bytes", "bubble.mean", "Solver"]
        );
    }

    #[test]
    fn names_built_ahead_count_as_counter_uses() {
        let src = "let n = counter_name!(\"link.{label}.bytes\");\nobs.counter_add(&n, b);\n";
        let uses = collect_uses("x.rs", &clean_rust(src), &[]);
        let names: Vec<&str> = uses.iter().map(|u| u.name.as_str()).collect();
        assert_eq!(names, vec!["link.*.bytes"]);
        assert_eq!(uses[0].kind, ObsKind::Counter);
    }

    #[test]
    fn non_literal_first_args_are_skipped() {
        let src = "fn counter_add(&mut self, name: &str, v: f64) {}\nself.counter_add(name, v);\n";
        assert!(collect_uses("x.rs", &clean_rust(src), &[]).is_empty());
    }

    #[test]
    fn drift_is_flagged_both_ways() {
        let (reg, _) = parse_registry("DESIGN.md", DOC);
        // `bubble.mean`, `bytes.*`, `Solver` unused; `swap.count` undocumented.
        let uses = vec![
            ObsUse {
                kind: ObsKind::Counter,
                name: "ckpt.bytes".into(),
                path: "a.rs".into(),
                line: 3,
            },
            ObsUse {
                kind: ObsKind::Counter,
                name: "swap.count".into(),
                path: "a.rs".into(),
                line: 9,
            },
        ];
        let f = check("DESIGN.md", &reg, &uses);
        assert_eq!(f.len(), 4, "{f:?}");
        assert!(f
            .iter()
            .any(|x| x.message.contains("dead obs-registry row")
                && x.message.contains("bubble.mean")));
        assert!(f
            .iter()
            .any(|x| x.message.contains("undocumented counter `swap.count`") && x.line == 9));
    }

    #[test]
    fn missing_fence_is_one_finding() {
        let (reg, _) = parse_registry("DESIGN.md", "# no table\n");
        let f = check("DESIGN.md", &reg, &[]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("not found"));
    }

    #[test]
    fn test_regions_do_not_count_as_uses() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(o: &mut Obs) { o.counter_add(\"fake.name\", 1.0); }\n}\n";
        let c = clean_rust(src);
        let mask = crate::scan::test_region_mask(&c.text);
        assert!(collect_uses("x.rs", &c, &mask).is_empty());
    }
}
