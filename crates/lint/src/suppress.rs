//! Suppression directives: parsing, targeting, and staleness tracking.
//!
//! A finding is suppressible only with an in-source comment carrying a
//! non-empty reason:
//!
//! ```text
//! // mobius-lint: allow(D002, reason = "lookup-only; never iterated")
//! ```
//!
//! A directive on its own line covers the next source line; a trailing
//! directive covers its own line. Malformed directives are D000 findings;
//! directives that suppress *nothing* become D008 findings (resolved in
//! [`crate::walk`], since D009 suppressions can only be judged once the
//! whole workspace has been scanned).

use crate::scan::Cleaned;
use crate::types::{Code, Finding};

/// What a comment contained, directive-wise.
pub enum Directive {
    /// No lint-directive marker in this comment.
    None,
    /// A well-formed `allow(Dxxx, reason = "…")`.
    Allow(Code),
    /// Marker present but malformed — a D000 finding.
    Malformed(String),
}

/// Parses one comment body for a `mobius-lint:` directive.
fn parse_directive(comment: &str) -> Directive {
    let Some(pos) = comment.find("mobius-lint:") else {
        return Directive::None;
    };
    let rest = comment[pos + "mobius-lint:".len()..].trim();
    let Some(inner) = rest
        .strip_prefix("allow(")
        .and_then(|r| r.rfind(')').map(|e| &r[..e]))
    else {
        return Directive::Malformed(
            "unrecognized mobius-lint directive; expected `allow(Dxxx, reason = \"…\")`"
                .to_string(),
        );
    };
    let (code_str, tail) = match inner.find(',') {
        Some(comma) => (inner[..comma].trim(), Some(inner[comma + 1..].trim())),
        None => (inner.trim(), None),
    };
    let Some(code) = Code::parse_allowable(code_str) else {
        return Directive::Malformed(format!(
            "`allow({code_str})` names no suppressible lint (D001–D007, D009)"
        ));
    };
    let Some(tail) = tail else {
        return Directive::Malformed(format!(
            "allow({code}) carries no reason; a non-empty `reason = \"…\"` is mandatory"
        ));
    };
    let reason_ok = tail
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('='))
        .map(str::trim)
        .and_then(|t| t.strip_prefix('"'))
        .and_then(|t| t.strip_suffix('"'))
        .is_some_and(|r| !r.trim().is_empty());
    if !reason_ok {
        return Directive::Malformed(format!(
            "allow({code}) has a malformed or empty reason; a non-empty `reason = \"…\"` is mandatory"
        ));
    }
    Directive::Allow(code)
}

/// A validated suppression, the line it applies to, and where it was
/// written (D008 findings point at the directive itself).
pub struct Suppression {
    /// The code this directive suppresses.
    pub code: Code,
    /// The source line the suppression covers.
    pub target_line: usize,
    /// The line the directive itself sits on.
    pub directive_line: usize,
}

/// Extracts suppressions (and D000 findings for malformed ones) from the
/// collected comments. A trailing directive targets its own line; an
/// own-line directive targets the next line with any code on it.
pub fn resolve_directives(cleaned: &Cleaned, path: &str) -> (Vec<Suppression>, Vec<Finding>) {
    let lines: Vec<&str> = cleaned.text.lines().collect();
    let has_code = |line_no: usize| lines.get(line_no - 1).is_some_and(|l| !l.trim().is_empty());
    let mut supps = Vec::new();
    let mut bad = Vec::new();
    for (line_no, body) in &cleaned.comments {
        // Doc comments are documentation, not annotations: a directive
        // *example* in `///`/`//!` text must not become a live (and
        // instantly stale) suppression.
        if body.starts_with("///") || body.starts_with("//!") {
            continue;
        }
        match parse_directive(body) {
            Directive::None => {}
            Directive::Malformed(message) => bad.push(Finding {
                code: Code::D000,
                path: path.to_string(),
                line: *line_no,
                message,
            }),
            Directive::Allow(code) => {
                let target_line = if has_code(*line_no) {
                    *line_no
                } else {
                    // Next line carrying code (skipping blank/comment-only).
                    ((*line_no + 1)..=lines.len())
                        .find(|&l| has_code(l))
                        .unwrap_or(*line_no)
                };
                supps.push(Suppression {
                    code,
                    target_line,
                    directive_line: *line_no,
                });
            }
        }
    }
    (supps, bad)
}

/// Applies `supps` to `raw` findings in place, returning a used-flag per
/// suppression (same order). A suppression is *used* when it removed at
/// least one finding.
pub fn apply_suppressions(raw: &mut Vec<Finding>, supps: &[Suppression]) -> Vec<bool> {
    let mut used = vec![false; supps.len()];
    raw.retain(|f| {
        let mut keep = true;
        for (i, s) in supps.iter().enumerate() {
            if s.code == f.code && s.target_line == f.line {
                used[i] = true;
                keep = false;
            }
        }
        keep
    });
    used
}

/// The D008 finding for a suppression that suppressed nothing.
pub fn stale_finding(path: &str, supp: &Suppression) -> Finding {
    Finding {
        code: Code::D008,
        path: path.to_string(),
        line: supp.directive_line,
        message: format!(
            "stale suppression: allow({}) suppresses no finding on line {}; \
             delete the directive (a dead allow hides future regressions)",
            supp.code, supp.target_line
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directive_requires_reason() {
        assert!(matches!(
            parse_directive("// mobius-lint: allow(D001, reason = \"x\")"),
            Directive::Allow(Code::D001)
        ));
        assert!(matches!(
            parse_directive("// mobius-lint: allow(D001)"),
            Directive::Malformed(_)
        ));
        assert!(matches!(
            parse_directive("// mobius-lint: allow(D001, reason = \"  \")"),
            Directive::Malformed(_)
        ));
        assert!(matches!(
            parse_directive("// mobius-lint: allow(D999, reason = \"x\")"),
            Directive::Malformed(_)
        ));
        assert!(matches!(
            parse_directive("// mobius-lint: allow(D000, reason = \"x\")"),
            Directive::Malformed(_)
        ));
        assert!(matches!(
            parse_directive("// mobius-lint: allow(D008, reason = \"x\")"),
            Directive::Malformed(_),
        ));
        assert!(matches!(
            parse_directive("// plain comment"),
            Directive::None
        ));
    }

    #[test]
    fn d007_and_d009_are_allowable() {
        assert!(matches!(
            parse_directive("// mobius-lint: allow(D007, reason = \"x\")"),
            Directive::Allow(Code::D007)
        ));
        assert!(matches!(
            parse_directive("// mobius-lint: allow(D009, reason = \"x\")"),
            Directive::Allow(Code::D009)
        ));
    }
}
