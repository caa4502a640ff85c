//! Direction-aware counter baselines, shared by the perf experiments.
//!
//! `solver_perf` (→ `BENCH_solver.json`) and `serve` (→ `BENCH_serve.json`)
//! both roll their deterministic work counters into a table that is
//! committed to the repo and diffed by `scripts/verify.sh`. This module
//! holds the shared mechanism: the [`Rule`] vocabulary (exact / at-most /
//! at-least), the [`Metric`] rows, and the [`check`] diff that renders a
//! delta table and fails when any counter violates its direction rule.

use mobius_obs::json;

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

/// The row cells of the experiment `id` in a JSON report rendered by
/// [`crate::render_json_report`]; `None` when the document does not parse
/// or holds no such experiment.
pub fn table_rows(doc: &str, id: &str) -> Option<Vec<Vec<String>>> {
    let doc = json::parse(doc).ok()?;
    let table = doc
        .get("experiments")?
        .as_array()?
        .iter()
        .find(|e| e.get("id").and_then(json::Value::as_str) == Some(id))?;
    table
        .get("rows")?
        .as_array()?
        .iter()
        .map(|row| {
            row.as_array()?
                .iter()
                .map(|cell| cell.as_str().map(str::to_string))
                .collect()
        })
        .collect()
}

/// One line of the delta table the check prints.
struct Delta {
    metric: String,
    baseline: String,
    current: String,
    rule: Rule,
    ok: bool,
}

/// Diffs the `counters_id` table of the `fresh` experiments against the
/// same table in `baseline_json` (the committed baseline file), applying
/// each row's direction rule.
///
/// # Errors
///
/// Returns the rendered delta table as `Err` when any counter violates its
/// direction rule or the tables disagree structurally; returns it as `Ok`
/// when everything holds.
///
/// # Panics
///
/// Panics when `fresh` holds no `counters_id` table.
pub fn check(
    baseline_json: &str,
    fresh: &[Experiment],
    counters_id: &str,
) -> Result<String, String> {
    let baseline = table_rows(baseline_json, counters_id).ok_or_else(|| {
        format!("baseline has no `{counters_id}` experiment — regenerate with UPDATE_BASELINE=1")
    })?;
    let current = &fresh
        .iter()
        .find(|e| e.id == counters_id)
        .expect("the fresh run renders its counters table")
        .rows;

    let lookup: std::collections::BTreeMap<&str, (&str, &str)> = baseline
        .iter()
        .filter(|r| r.len() == 3)
        .map(|r| (r[0].as_str(), (r[1].as_str(), r[2].as_str())))
        .collect();

    let mut deltas = Vec::new();
    let mut failed = false;
    for row in current {
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

    let mut table = Experiment::new(
        "baseline-delta",
        "Counter delta vs the committed baseline",
        "internal check table",
    )
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

    fn table(id: &'static str, rows: &[(&'static str, &str, Rule)]) -> Vec<Experiment> {
        let metrics: Vec<Metric> = rows.iter().map(|(n, v, r)| Metric::new(n, v, *r)).collect();
        vec![counters_experiment(id, "t", "c", &metrics)]
    }

    #[test]
    fn direction_rules_hold_and_fail_as_documented() {
        let base = render_json_report(&table(
            "x",
            &[
                ("a.work", "10", Rule::AtMost),
                ("a.reuse", "5", Rule::AtLeast),
                ("a.sum", "deadbeef", Rule::Exact),
            ],
        ));
        // Less work, more reuse, same checksum: all rules hold.
        let good = table(
            "x",
            &[
                ("a.work", "9", Rule::AtMost),
                ("a.reuse", "6", Rule::AtLeast),
                ("a.sum", "deadbeef", Rule::Exact),
            ],
        );
        assert!(check(&base, &good, "x").is_ok());
        // More work: AtMost regresses.
        let bad = table(
            "x",
            &[
                ("a.work", "11", Rule::AtMost),
                ("a.reuse", "5", Rule::AtLeast),
                ("a.sum", "deadbeef", Rule::Exact),
            ],
        );
        let err = check(&base, &bad, "x").unwrap_err();
        assert!(err.contains("REGRESSED"));
    }

    #[test]
    fn missing_and_renamed_metrics_are_structural_failures() {
        let base = render_json_report(&table("x", &[("a.work", "10", Rule::AtMost)]));
        let renamed = table("x", &[("a.labour", "10", Rule::AtMost)]);
        let err = check(&base, &renamed, "x").unwrap_err();
        assert!(err.contains("<missing>"));
        // A rule change on the same name is also a failure.
        let flipped = table("x", &[("a.work", "10", Rule::AtLeast)]);
        assert!(check(&base, &flipped, "x").is_err());
    }

    #[test]
    fn a_missing_counters_table_is_reported_not_panicked() {
        let fresh = table("x", &[("a.work", "10", Rule::AtMost)]);
        let base = render_json_report(&fresh);
        let err = check(&base, &fresh, "y");
        assert!(matches!(err, Err(ref m) if m.contains("`y`")), "{err:?}");
        let err = check("{}", &fresh, "x").unwrap_err();
        assert!(err.contains("UPDATE_BASELINE"));
    }
}
