//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Lanes map to process/thread pairs: pid 0 is the run lane, pid 1 groups
//! the GPUs (one thread per device), pid 2 groups the links (one thread per
//! named simplex link, sorted by name), and pid 3 is the solver. Spans
//! become `"X"` complete events, instants become `"i"` events; timestamps
//! are microseconds with nanosecond precision.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::dag::DagLog;
use crate::json;
use crate::span::{EventLog, Lane};

const PID_RUN: u32 = 0;
const PID_GPU: u32 = 1;
const PID_LINK: u32 = 2;
const PID_SOLVER: u32 = 3;
const PID_SERVER: u32 = 4;
const PID_SERVE: u32 = 5;

/// Bytes a typical event takes in the document; sizes the buffer so one
/// export does not regrow it.
const EVENT_BYTES: usize = 160;
/// Bytes a typical dependency-DAG node takes.
const DAG_NODE_BYTES: usize = 120;

fn push_meta(out: &mut String, pid: u32, tid: u32, which: &str, name: &str) {
    out.push_str("{\"name\":");
    json::push_string(out, which);
    let _ = write!(
        out,
        ",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":"
    );
    json::push_string(out, name);
    out.push_str("}},");
}

/// Renders the whole log as a Chrome trace JSON document. When `dag` is
/// non-empty it is embedded under a top-level `mobiusDag` key (viewers
/// ignore unknown keys; `mobius-cli analyze --trace-in` reads it back).
pub fn export(log: &EventLog, dag: &DagLog) -> String {
    // Assign link lanes stable thread ids in name order so output does not
    // depend on which link happened to carry the first flow.
    let mut link_tids: BTreeMap<&str, u32> = BTreeMap::new();
    for e in log.events() {
        if let Lane::Link(name) = &e.lane {
            link_tids.insert(name.as_str(), 0);
        }
    }
    for (i, tid) in link_tids.values_mut().enumerate() {
        *tid = i as u32;
    }

    let mut out = String::with_capacity(256 + log.len() * EVENT_BYTES + dag.len() * DAG_NODE_BYTES);
    out.push_str("{\"traceEvents\":[");
    push_meta(&mut out, PID_RUN, 0, "process_name", "run");
    push_meta(&mut out, PID_GPU, 0, "process_name", "GPUs");
    push_meta(&mut out, PID_LINK, 0, "process_name", "PCIe links");
    push_meta(&mut out, PID_SOLVER, 0, "process_name", "solver");
    let mut gpu_tids: Vec<u32> = log
        .events()
        .iter()
        .filter_map(|e| match e.lane {
            Lane::Gpu(g) => Some(g as u32),
            _ => None,
        })
        .collect();
    gpu_tids.sort_unstable();
    gpu_tids.dedup();
    for g in &gpu_tids {
        push_meta(&mut out, PID_GPU, *g, "thread_name", &format!("gpu{g}"));
    }
    for (name, tid) in &link_tids {
        push_meta(&mut out, PID_LINK, *tid, "thread_name", name);
    }
    // The servers process exists only when a cluster run recorded server
    // events, so single-server traces stay byte-identical.
    let mut server_tids: Vec<u32> = log
        .events()
        .iter()
        .filter_map(|e| match e.lane {
            Lane::Server(s) => Some(s as u32),
            _ => None,
        })
        .collect();
    server_tids.sort_unstable();
    server_tids.dedup();
    if !server_tids.is_empty() {
        push_meta(&mut out, PID_SERVER, 0, "process_name", "servers");
        for s in &server_tids {
            push_meta(
                &mut out,
                PID_SERVER,
                *s,
                "thread_name",
                &format!("server{s}"),
            );
        }
    }
    // Likewise the serve process appears only when the planning service
    // recorded request spans, keeping all pre-serve goldens byte-identical.
    if log.events().iter().any(|e| e.lane == Lane::Serve) {
        push_meta(&mut out, PID_SERVE, 0, "process_name", "serve");
    }

    for e in log.events() {
        let (pid, tid) = match &e.lane {
            Lane::Run => (PID_RUN, 0),
            Lane::Gpu(g) => (PID_GPU, *g as u32),
            Lane::Link(name) => (PID_LINK, link_tids[name.as_str()]),
            Lane::Solver => (PID_SOLVER, 0),
            Lane::Server(s) => (PID_SERVER, *s as u32),
            Lane::Serve => (PID_SERVE, 0),
        };
        out.push_str("{\"name\":");
        json::push_string(&mut out, &e.name);
        out.push_str(",\"cat\":");
        json::push_string(&mut out, e.cat);
        match e.dur_ns {
            Some(d) => {
                out.push_str(",\"ph\":\"X\",\"ts\":");
                json::push_timestamp(&mut out, e.start_ns);
                out.push_str(",\"dur\":");
                json::push_timestamp(&mut out, d);
            }
            None => {
                out.push_str(",\"ph\":\"i\",\"ts\":");
                json::push_timestamp(&mut out, e.start_ns);
                out.push_str(",\"s\":\"t\"");
            }
        }
        let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid}");
        if !e.attrs.is_empty() {
            out.push_str(",\"args\":");
            json::push_object(
                &mut out,
                e.attrs.iter().map(|(k, v)| (*k, v)),
                json::push_attr,
            );
        }
        out.push_str("},");
    }
    // Every event above ends in a comma; the last one closes the array.
    out.pop();
    out.push_str("],\"displayTimeUnit\":\"ms\"");
    // Dag-less traces keep their exact historical bytes: the key only
    // appears when a dependency DAG was recorded.
    if !dag.is_empty() {
        out.push_str(",\"mobiusDag\":");
        dag.write_json(&mut out);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{AttrValue, Event};

    fn sample_log() -> EventLog {
        let mut log = EventLog::new();
        log.push(Event {
            lane: Lane::Link("rc0-h2d".into()),
            cat: "comm",
            name: "stage-upload".into(),
            start_ns: 1_500,
            dur_ns: Some(2_000),
            attrs: vec![("bytes", AttrValue::U64(4096))],
        });
        log.push(Event {
            lane: Lane::Link("gpu0-lane-h2d".into()),
            cat: "comm",
            name: "stage-upload".into(),
            start_ns: 1_500,
            dur_ns: Some(2_000),
            attrs: vec![],
        });
        log.push(Event {
            lane: Lane::Gpu(0),
            cat: "compute",
            name: "fwd".into(),
            start_ns: 0,
            dur_ns: Some(1_000),
            attrs: vec![],
        });
        log.push(Event {
            lane: Lane::Solver,
            cat: "solver",
            name: "incumbent".into(),
            start_ns: 7,
            dur_ns: None,
            attrs: vec![("cost", AttrValue::F64(1.25))],
        });
        log
    }

    #[test]
    fn dag_is_embedded_only_when_recorded() {
        use crate::dag::ResourceId;
        let without = export(&sample_log(), &DagLog::new());
        assert!(!without.contains("mobiusDag"));
        assert!(without.ends_with("\"displayTimeUnit\":\"ms\"}"));

        let mut dag = DagLog::new();
        let sid = dag.open("compute", "fwd", ResourceId::Gpu(0), 0, vec![]);
        dag.close(sid, 1_000);
        dag.mark_boundary(1_000, sid);
        let with = export(&sample_log(), &dag);
        assert!(with.contains(",\"mobiusDag\":{\"nodes\":["));
        assert!(with.contains("\"boundaries\":[[1000,0]]"));
        // Everything before the dag key is unchanged.
        assert!(with.starts_with(without.trim_end_matches('}')));
    }

    #[test]
    fn exports_complete_and_instant_events() {
        let out = export(&sample_log(), &DagLog::new());
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"ph\":\"i\""));
        assert!(out.contains("\"dur\":\"2.000\"") || out.contains("\"dur\":2.000"));
        assert!(out.contains("\"args\":{\"bytes\":4096}"));
        assert!(out.contains("\"args\":{\"cost\":1.25}"));
    }

    #[test]
    fn link_threads_are_sorted_by_name() {
        let out = export(&sample_log(), &DagLog::new());
        // gpu0-lane-h2d sorts before rc0-h2d, so it gets tid 0.
        let lane = out.find("\"name\":\"gpu0-lane-h2d\"").unwrap();
        let rc = out.find("\"name\":\"rc0-h2d\"").unwrap();
        assert!(lane < rc);
    }

    #[test]
    fn every_lane_kind_has_a_process() {
        let out = export(&sample_log(), &DagLog::new());
        for p in ["run", "GPUs", "PCIe links", "solver"] {
            assert!(out.contains(&format!("\"args\":{{\"name\":\"{p}\"}}")));
        }
        assert!(out.contains("\"name\":\"gpu0\""));
    }

    #[test]
    fn server_lanes_get_their_own_process_only_when_present() {
        // Single-server traces must stay byte-identical: no "servers"
        // process without a Server event.
        let out = export(&sample_log(), &DagLog::new());
        assert!(!out.contains("\"name\":\"servers\""));

        let mut log = sample_log();
        log.push(Event {
            lane: Lane::Server(2),
            cat: "comm",
            name: "allreduce".into(),
            start_ns: 10,
            dur_ns: Some(100),
            attrs: vec![("bytes", AttrValue::U64(1024))],
        });
        let out = export(&log, &DagLog::new());
        assert!(out.contains("\"args\":{\"name\":\"servers\"}"));
        assert!(out.contains("\"name\":\"server2\""));
        assert!(out.contains("\"name\":\"allreduce\""));
    }

    #[test]
    fn serve_lane_gets_its_own_process_only_when_present() {
        // Pre-serve traces must stay byte-identical: no "serve" process
        // without a Serve event.
        let out = export(&sample_log(), &DagLog::new());
        assert!(!out.contains("\"args\":{\"name\":\"serve\"}"));

        let mut log = sample_log();
        log.push(Event {
            lane: Lane::Serve,
            cat: "serve",
            name: "plan".into(),
            start_ns: 5_000,
            dur_ns: Some(50_000),
            attrs: vec![("cache", AttrValue::Str("hit".into()))],
        });
        let out = export(&log, &DagLog::new());
        assert!(out.contains("\"args\":{\"name\":\"serve\"}"));
        assert!(out.contains("\"args\":{\"cache\":\"hit\"}"));
    }
}
