//! Direction-aware counter baselines, shared by the perf experiments.
//!
//! `solver_perf` (→ `BENCH_solver.json`) and `serve` (→ `BENCH_serve.json`)
//! both roll their deterministic work counters into a table that is
//! committed to the repo and diffed by `scripts/verify.sh`. This module
//! holds the shared mechanism: the [`Rule`] vocabulary (exact / at-most /
//! at-least), the [`Metric`] rows, the hand-rolled row extractor for our
//! own JSON report grammar, and the [`check_counters`] diff that renders a
//! delta table and fails when any counter violates its direction rule.

use crate::Experiment;

/// How a counter is compared against the committed baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Must match the baseline byte-for-byte (checksums, event totals).
    Exact,
    /// Work counter: regression = growing past the baseline.
    AtMost,
    /// Reuse counter: regression = shrinking below the baseline.
    AtLeast,
}

impl Rule {
    /// The label rendered into the counters table (and parsed back by the
    /// baseline check).
    pub fn label(self) -> &'static str {
        match self {
            Rule::Exact => "exact",
            Rule::AtMost => "<= baseline",
            Rule::AtLeast => ">= baseline",
        }
    }

    /// Inverse of [`Rule::label`].
    fn from_label(s: &str) -> Option<Rule> {
        match s {
            "exact" => Some(Rule::Exact),
            "<= baseline" => Some(Rule::AtMost),
            ">= baseline" => Some(Rule::AtLeast),
            _ => None,
        }
    }
}

/// One named counter destined for a baseline table.
pub struct Metric {
    /// Stable dotted name (`replan.cold.evaluated`, `serve.hit_rate`, …).
    pub name: &'static str,
    /// Rendered value; numeric for directional rules, free-form for exact.
    pub value: String,
    /// The direction rule the baseline diff applies.
    pub rule: Rule,
}

impl Metric {
    /// Builds a metric row.
    pub fn new(name: &'static str, value: impl ToString, rule: Rule) -> Self {
        Metric {
            name,
            value: value.to_string(),
            rule,
        }
    }
}

/// Rolls a metric list into the `[metric, value, rule]` counters table the
/// baseline gate diffs.
pub fn counters_experiment(
    id: &'static str,
    title: &'static str,
    claim: &'static str,
    metrics: &[Metric],
) -> Experiment {
    let mut e = Experiment::new(id, title, claim).columns(["metric", "value", "rule"]);
    for m in metrics {
        e.push_row([
            m.name.to_string(),
            m.value.clone(),
            m.rule.label().to_string(),
        ]);
    }
    e
}

/// Extracts the row cells of the experiment `id` from a JSON report
/// produced by [`crate::render_json_report`]. Hand-rolled on purpose: the
/// workspace `serde` is a marker shim and the report grammar is our own
/// emitter's, whose strings (counter names, integers, hex digests) never
/// contain escapes.
pub fn extract_rows(doc: &str, id: &str) -> Option<Vec<Vec<String>>> {
    let start = doc.find(&format!("\"id\":\"{id}\""))?;
    let key = "\"rows\":[";
    let mut i = start + doc[start..].find(key)? + key.len();
    let bytes = doc.as_bytes();
    let mut rows = Vec::new();
    let mut cur = Vec::new();
    let mut depth = 1usize;
    while i < bytes.len() {
        match bytes[i] {
            b'[' => {
                depth += 1;
                cur = Vec::new();
            }
            b']' => {
                depth -= 1;
                if depth == 1 {
                    rows.push(std::mem::take(&mut cur));
                }
                if depth == 0 {
                    return Some(rows);
                }
            }
            b'"' => {
                let end = i + 1 + doc[i + 1..].find('"')?;
                cur.push(doc[i + 1..end].to_string());
                i = end;
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// One line of the delta table the check prints.
struct Delta {
    metric: String,
    baseline: String,
    current: String,
    rule: Rule,
    ok: bool,
}

/// Diffs the `counters_id` table of `current_doc` (a freshly rendered JSON
/// report) against the same table in `baseline_json` (the committed
/// baseline file), applying each row's direction rule.
///
/// # Errors
///
/// Returns the rendered delta table as `Err` when any counter violates its
/// direction rule or the tables disagree structurally; returns it as `Ok`
/// when everything holds.
pub fn check_counters(
    baseline_json: &str,
    current_doc: &str,
    counters_id: &str,
    delta_id: &'static str,
    delta_title: &'static str,
) -> Result<String, String> {
    let baseline = extract_rows(baseline_json, counters_id).ok_or_else(|| {
        format!("baseline has no `{counters_id}` experiment — regenerate with UPDATE_BASELINE=1")
    })?;
    let current = extract_rows(current_doc, counters_id).expect("caller rendered this table");

    let lookup: std::collections::BTreeMap<&str, (&str, &str)> = baseline
        .iter()
        .filter(|r| r.len() == 3)
        .map(|r| (r[0].as_str(), (r[1].as_str(), r[2].as_str())))
        .collect();

    let mut deltas = Vec::new();
    let mut failed = false;
    for row in &current {
        let (metric, value, rule_label) = (&row[0], &row[1], &row[2]);
        let rule = Rule::from_label(rule_label).expect("rules are emitted by this module");
        let (ok, base) = match lookup.get(metric.as_str()) {
            None => (false, "<missing>".to_string()),
            Some((bv, brule)) => {
                let structural = *brule == rule_label.as_str();
                let holds = match rule {
                    Rule::Exact => value == bv,
                    Rule::AtMost | Rule::AtLeast => {
                        match (value.parse::<f64>(), bv.parse::<f64>()) {
                            (Ok(c), Ok(b)) if rule == Rule::AtMost => c <= b,
                            (Ok(c), Ok(b)) => c >= b,
                            _ => false,
                        }
                    }
                };
                (structural && holds, (*bv).to_string())
            }
        };
        failed |= !ok;
        deltas.push(Delta {
            metric: metric.clone(),
            baseline: base,
            current: value.clone(),
            rule,
            ok,
        });
    }
    for r in &baseline {
        if r.len() == 3 && !current.iter().any(|c| c[0] == r[0]) {
            failed = true;
            deltas.push(Delta {
                metric: r[0].clone(),
                baseline: r[1].clone(),
                current: "<missing>".to_string(),
                rule: Rule::from_label(&r[2]).unwrap_or(Rule::Exact),
                ok: false,
            });
        }
    }

    let mut table = Experiment::new(delta_id, delta_title, "internal check table")
        .columns(["metric", "baseline", "current", "rule", "status"]);
    for d in &deltas {
        table.push_row([
            d.metric.clone(),
            d.baseline.clone(),
            d.current.clone(),
            d.rule.label().to_string(),
            if d.ok { "ok" } else { "REGRESSED" }.to_string(),
        ]);
    }
    let rendered = table.render_text();
    if failed {
        Err(rendered)
    } else {
        Ok(rendered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render_json_report;

    fn table(id: &'static str, rows: &[(&'static str, &str, Rule)]) -> String {
        let metrics: Vec<Metric> = rows.iter().map(|(n, v, r)| Metric::new(n, v, *r)).collect();
        let e = counters_experiment(id, "t", "c", &metrics);
        render_json_report(std::iter::once(&e))
    }

    #[test]
    fn direction_rules_hold_and_fail_as_documented() {
        let base = table(
            "x",
            &[
                ("a.work", "10", Rule::AtMost),
                ("a.reuse", "5", Rule::AtLeast),
                ("a.sum", "deadbeef", Rule::Exact),
            ],
        );
        // Less work, more reuse, same checksum: all rules hold.
        let good = table(
            "x",
            &[
                ("a.work", "9", Rule::AtMost),
                ("a.reuse", "6", Rule::AtLeast),
                ("a.sum", "deadbeef", Rule::Exact),
            ],
        );
        assert!(check_counters(&base, &good, "x", "d", "t").is_ok());
        // More work: AtMost regresses.
        let bad = table(
            "x",
            &[
                ("a.work", "11", Rule::AtMost),
                ("a.reuse", "5", Rule::AtLeast),
                ("a.sum", "deadbeef", Rule::Exact),
            ],
        );
        let err = check_counters(&base, &bad, "x", "d", "t").unwrap_err();
        assert!(err.contains("REGRESSED"));
    }

    #[test]
    fn missing_and_renamed_metrics_are_structural_failures() {
        let base = table("x", &[("a.work", "10", Rule::AtMost)]);
        let renamed = table("x", &[("a.labour", "10", Rule::AtMost)]);
        let err = check_counters(&base, &renamed, "x", "d", "t").unwrap_err();
        assert!(err.contains("<missing>"));
        // A rule change on the same name is also a failure.
        let flipped = table("x", &[("a.work", "10", Rule::AtLeast)]);
        assert!(check_counters(&base, &flipped, "x", "d", "t").is_err());
    }

    #[test]
    fn a_missing_counters_table_is_reported_not_panicked() {
        let base = table("x", &[("a.work", "10", Rule::AtMost)]);
        let err = check_counters(&base, &base, "y", "d", "t");
        assert!(matches!(err, Err(ref m) if m.contains("`y`")), "{err:?}");
        let err = check_counters("{}", &base, "x", "d", "t").unwrap_err();
        assert!(err.contains("UPDATE_BASELINE"));
    }
}
