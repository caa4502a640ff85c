//! Experiment results as printable tables and markdown.

use mobius_sim::units::{bytes_to_gb, secs_to_ms};
use std::fmt::Write as _;

use mobius_obs::json;

/// One regenerated table or figure.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Stable id, e.g. `fig05`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// What the paper reports for this table/figure.
    pub paper_claim: &'static str,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form observations comparing against the paper.
    pub notes: Vec<String>,
}

impl Experiment {
    /// Creates an empty experiment shell.
    pub fn new(id: &'static str, title: &'static str, paper_claim: &'static str) -> Self {
        Experiment {
            id,
            title,
            paper_claim,
            columns: Vec::new(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Sets the column headers.
    pub fn columns<S: Into<String>, I: IntoIterator<Item = S>>(mut self, cols: I) -> Self {
        self.columns = cols.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Appends an observation.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Renders a fixed-width text table.
    pub fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let _ = writeln!(out, "paper: {}", self.paper_claim);
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::from("|");
            for (w, c) in widths.iter().zip(cells) {
                let _ = write!(s, " {c:<w$} |");
            }
            let _ = writeln!(out, "{s}");
        };
        line(&mut out, &self.columns);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(&mut out, &sep);
        for row in &self.rows {
            line(&mut out, row);
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// Renders a GitHub-flavoured markdown section.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = writeln!(out, "*Paper:* {}\n", self.paper_claim);
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out);
            for n in &self.notes {
                let _ = writeln!(out, "- {n}");
            }
        }
        out
    }

    /// Appends the experiment as a JSON object. Written through the
    /// [`mobius_obs::json`] helpers: all JSON in the tree is emitted by
    /// hand.
    fn push_json(&self, out: &mut String) {
        let strings = |out: &mut String, items: &[String]| {
            json::push_array(out, items, |out, c| json::push_string(out, c));
        };
        out.push_str("{\"id\":");
        json::push_string(out, self.id);
        out.push_str(",\"title\":");
        json::push_string(out, self.title);
        out.push_str(",\"paper_claim\":");
        json::push_string(out, self.paper_claim);
        out.push_str(",\"columns\":");
        strings(out, &self.columns);
        out.push_str(",\"rows\":");
        json::push_array(out, &self.rows, |out, r| strings(out, r));
        out.push_str(",\"notes\":");
        strings(out, &self.notes);
        out.push('}');
    }

    /// Prints the text rendering to stdout.
    pub fn print(&self) {
        println!("{}", self.render_text());
    }
}

/// Version of the JSON report layout. Bump when the shape of the document
/// produced by [`render_json_report`] changes incompatibly, so downstream
/// consumers can detect what they are parsing.
pub const REPORT_SCHEMA_VERSION: u64 = 1;

/// Renders a set of experiments as one JSON document:
/// `{"schema_version":1,"experiments":[...]}`.
pub fn render_json_report<'a, I: IntoIterator<Item = &'a Experiment>>(experiments: I) -> String {
    let mut s = format!("{{\"schema_version\":{REPORT_SCHEMA_VERSION},\"experiments\":");
    json::push_array(&mut s, experiments, |out, e| e.push_json(out));
    s.push_str("}\n");
    s
}

/// Formats seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 10.0 {
        format!("{s:.1}s")
    } else if s >= 0.01 {
        format!("{s:.2}s")
    } else {
        format!("{:.2}ms", secs_to_ms(s))
    }
}

/// Formats bytes as GB (10^9).
pub fn fmt_gb(bytes: f64) -> String {
    format!("{:.1}GB", bytes_to_gb(bytes))
}

/// Formats a ratio like `4.2x`.
pub fn fmt_x(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Experiment {
        let mut e = Experiment::new("figXX", "demo", "a claim").columns(["a", "b"]);
        e.push_row(["1", "2"]);
        e.note("observation");
        e
    }

    #[test]
    fn text_contains_everything() {
        let t = sample().render_text();
        assert!(t.contains("figXX"));
        assert!(t.contains("a claim"));
        assert!(t.contains("| 1 | 2 |"));
        assert!(t.contains("note: observation"));
    }

    #[test]
    fn markdown_is_valid_table() {
        let m = sample().render_markdown();
        assert!(m.contains("| a | b |"));
        assert!(m.contains("|---|---|"));
    }

    #[test]
    fn json_is_wellformed() {
        let j = render_json_report([&sample()]);
        assert_eq!(
            j,
            "{\"schema_version\":1,\"experiments\":[\
             {\"id\":\"figXX\",\"title\":\"demo\",\"paper_claim\":\"a claim\",\
             \"columns\":[\"a\",\"b\"],\"rows\":[[\"1\",\"2\"]],\
             \"notes\":[\"observation\"]}]}\n"
        );
        let report = render_json_report([&sample(), &sample()]);
        assert!(report.starts_with("{\"schema_version\":1,\"experiments\":["));
        assert!(report.ends_with("]}\n"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_row_rejected() {
        let mut e = Experiment::new("x", "y", "z").columns(["a", "b"]);
        e.push_row(["only-one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(12.34), "12.3s");
        assert_eq!(fmt_secs(1.234), "1.23s");
        assert_eq!(fmt_secs(0.00123), "1.23ms");
        assert_eq!(fmt_gb(2.5e9), "2.5GB");
        assert_eq!(fmt_x(3.456), "3.46x");
    }
}
