//! Metrics report rendering: human-readable text and JSON.

use std::fmt::Write as _;

use crate::json;
use crate::metrics::MetricsRegistry;

/// Renders the registry as `{"counters":…,"gauges":…,"histograms":…}`.
pub fn render_json(m: &MetricsRegistry) -> String {
    let mut out = String::from("{\"counters\":");
    json::push_object(&mut out, m.counters(), |out, v| json::push_number(out, *v));
    out.push_str(",\"gauges\":");
    json::push_object(&mut out, m.gauges(), |out, v| json::push_number(out, *v));
    out.push_str(",\"histograms\":");
    json::push_object(&mut out, m.histograms(), |out, h| {
        out.push_str("{\"bounds\":");
        json::push_array(out, h.bounds(), |out, b| json::push_number(out, *b));
        out.push_str(",\"counts\":");
        json::push_array(out, h.counts(), |out, c| json::push_u64(out, *c));
        out.push_str(",\"sum\":");
        json::push_number(out, h.sum());
        out.push_str(",\"count\":");
        json::push_u64(out, h.count());
        out.push('}');
    });
    out.push('}');
    out
}

/// Renders the registry as an aligned, sectioned text report.
pub fn render_text(m: &MetricsRegistry) -> String {
    let mut out = String::from("== metrics ==\n");
    if !m.counters().is_empty() {
        out.push_str("counters:\n");
        let width = m.counters().keys().map(String::len).max().unwrap_or(0);
        for (k, v) in m.counters() {
            let _ = writeln!(out, "  {k:<width$}  {}", fmt_value(*v));
        }
    }
    if !m.gauges().is_empty() {
        out.push_str("gauges:\n");
        let width = m.gauges().keys().map(String::len).max().unwrap_or(0);
        for (k, v) in m.gauges() {
            let _ = writeln!(out, "  {k:<width$}  {}", fmt_value(*v));
        }
    }
    if !m.histograms().is_empty() {
        out.push_str("histograms:\n");
        for (k, h) in m.histograms() {
            let _ = writeln!(
                out,
                "  {k}: count={} sum={} mean={}",
                h.count(),
                fmt_value(h.sum()),
                fmt_value(h.mean()),
            );
            for (i, c) in h.counts().iter().enumerate() {
                let label = match h.bounds().get(i) {
                    Some(b) => format!("le {b}"),
                    None => "inf".to_string(),
                };
                let _ = writeln!(out, "    {label:<10} {c}");
            }
        }
    }
    if out == "== metrics ==\n" {
        out.push_str("(empty)\n");
    }
    out
}

/// Compact value formatting: integers print bare, large magnitudes get
/// scientific-ish readability via plain `{}` otherwise.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter_add("bytes.stage-upload", 1.5e9);
        m.counter_add("prefetch.hit", 3.0);
        m.gauge_set("bubble.mean", 0.125);
        m.histogram_record("flow.gbps", &[4.0, 16.0], 6.5);
        m.histogram_record("flow.gbps", &[4.0, 16.0], 1.0);
        m
    }

    #[test]
    fn json_report_has_all_sections() {
        let j = render_json(&sample());
        assert!(j.contains("\"counters\":{"));
        assert!(j.contains("\"bytes.stage-upload\":1500000000"));
        assert!(j.contains("\"bubble.mean\":0.125"));
        assert!(j.contains("\"flow.gbps\":{\"bounds\":[4,16],\"counts\":[1,1,0]"));
    }

    #[test]
    fn text_report_is_sectioned_and_aligned() {
        let t = render_text(&sample());
        assert!(t.contains("counters:"));
        assert!(t.contains("gauges:"));
        assert!(t.contains("flow.gbps: count=2"));
        assert!(t.contains("le 4"));
        assert!(t.contains("inf"));
    }

    #[test]
    fn empty_registry_says_so() {
        assert!(render_text(&MetricsRegistry::new()).contains("(empty)"));
    }
}
