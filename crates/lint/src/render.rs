//! Deterministic human and JSON rendering of findings.

use mobius_obs::json::push_string;

use crate::types::Finding;

/// Renders findings as `path:line: CODE message` lines plus a summary.
#[must_use]
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: {} {}\n",
            f.path, f.line, f.code, f.message
        ));
    }
    if findings.is_empty() {
        out.push_str("mobius-lint: clean\n");
    } else {
        out.push_str(&format!("mobius-lint: {} finding(s)\n", findings.len()));
    }
    out
}

/// Renders findings as a deterministic JSON document: sorted input order is
/// preserved, keys are fixed, and nothing machine-dependent (timestamps,
/// absolute paths) is emitted — two runs over the same tree are
/// byte-identical.
#[must_use]
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"code\":\"{}\",\"path\":", f.code));
        push_string(&mut out, &f.path);
        out.push_str(&format!(",\"line\":{},\"message\":", f.line));
        push_string(&mut out, &f.message);
        out.push('}');
    }
    out.push_str(&format!("],\"total\":{}}}\n", findings.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Code;

    #[test]
    fn json_is_deterministic_and_escaped() {
        let f = vec![Finding {
            code: Code::D001,
            path: "a\"b.rs".to_string(),
            line: 3,
            message: "x\ny".to_string(),
        }];
        let a = render_json(&f);
        assert_eq!(a, render_json(&f));
        assert!(a.contains("a\\\"b.rs"));
        assert!(a.contains("x\\ny"));
        assert!(a.ends_with("\"total\":1}\n"));
    }

    #[test]
    fn json_bytes_are_pinned() {
        let f = vec![Finding {
            code: Code::D003,
            path: "a\"b\\c.rs".to_string(),
            line: 7,
            message: "x\ny\u{1}z".to_string(),
        }];
        assert_eq!(
            render_json(&f),
            concat!(
                r#"{"findings":[{"code":"D003","path":"a\"b\\c.rs","line":7,"#,
                r#""message":"x\ny\u0001z"}],"total":1}"#,
                "\n"
            )
        );
    }
}
