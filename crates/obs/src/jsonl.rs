//! JSONL event-log export: one deterministic JSON object per line, in
//! recording order — streaming-friendly (a consumer can tail the file and
//! parse line by line) where the Chrome export is a single document.

use std::fmt::Write as _;

use crate::json;
use crate::span::{EventLog, Lane};

/// Appends the lane as its compact JSON string (`"gpu1"`, `"link:rc0-h2d"`).
fn push_lane(out: &mut String, lane: &Lane) {
    match lane {
        Lane::Run => out.push_str("\"run\""),
        Lane::Gpu(g) => {
            let _ = write!(out, "\"gpu{g}\"");
        }
        Lane::Link(name) => {
            out.push_str("\"link:");
            json::push_escaped(out, name);
            out.push('"');
        }
        Lane::Solver => out.push_str("\"solver\""),
        Lane::Server(s) => {
            let _ = write!(out, "\"server{s}\"");
        }
        Lane::Serve => out.push_str("\"serve\""),
    }
}

/// Renders the log as JSONL: one object per event, `\n`-terminated lines.
/// Spans carry `durNs`; instants omit it. `attrs` appears only when
/// non-empty, mirroring the Chrome exporter's `args` behavior.
pub fn export(log: &EventLog) -> String {
    let mut out = String::new();
    for e in log.events() {
        out.push_str("{\"lane\":");
        push_lane(&mut out, &e.lane);
        out.push_str(",\"cat\":");
        json::push_string(&mut out, e.cat);
        out.push_str(",\"name\":");
        json::push_string(&mut out, &e.name);
        let _ = write!(out, ",\"startNs\":{}", e.start_ns);
        if let Some(d) = e.dur_ns {
            let _ = write!(out, ",\"durNs\":{d}");
        }
        if !e.attrs.is_empty() {
            out.push_str(",\"attrs\":");
            json::push_object(
                &mut out,
                e.attrs.iter().map(|(k, v)| (*k, v)),
                json::push_attr,
            );
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{AttrValue, Event};

    #[test]
    fn one_line_per_event_in_recording_order() {
        let mut log = EventLog::new();
        log.push(Event {
            lane: Lane::Gpu(1),
            cat: "compute",
            name: "fwd".into(),
            start_ns: 5,
            dur_ns: Some(10),
            attrs: vec![("mb", AttrValue::U64(2))],
        });
        log.push(Event {
            lane: Lane::Run,
            cat: "pipeline",
            name: "step-boundary".into(),
            start_ns: 15,
            dur_ns: None,
            attrs: vec![],
        });
        let out = export(&log);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"lane":"gpu1","cat":"compute","name":"fwd","startNs":5,"durNs":10,"attrs":{"mb":2}}"#
        );
        assert_eq!(
            lines[1],
            r#"{"lane":"run","cat":"pipeline","name":"step-boundary","startNs":15}"#
        );
        assert!(out.ends_with('\n'));
        // Every line parses standalone.
        for line in lines {
            json::parse(line).unwrap();
        }
    }

    #[test]
    fn lanes_encode_compactly() {
        for (lane, want) in [
            (Lane::Link("rc0-h2d".into()), "\"link:rc0-h2d\""),
            (Lane::Server(3), "\"server3\""),
            (Lane::Solver, "\"solver\""),
            (Lane::Serve, "\"serve\""),
        ] {
            let mut out = String::new();
            push_lane(&mut out, &lane);
            assert_eq!(out, want);
        }
    }
}
