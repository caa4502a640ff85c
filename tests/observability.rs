//! Integration tests for the `mobius-obs` observability layer: golden
//! Chrome-trace and JSONL bytes, metric/trace counter identity, timing
//! invariance, lane coverage, and the critical-path identity (including a
//! doctored-trace negative check).

use proptest::prelude::*;

use mobius::{ClusterConfig, FineTuner, System};
use mobius_mapping::Mapping;
use mobius_model::GptConfig;
use mobius_obs::{analyze, json, DagLog, Lane, Obs};
use mobius_pipeline::{
    simulate_step_traced, simulate_steps_traced, PartitionAlgo, PipelineConfig, StageCosts,
};
use mobius_sim::SimTime;
use mobius_topology::{GpuSpec, Topology};

fn stage(fwd_ms: u64, param_mb: u64, act_mb: u64) -> StageCosts {
    StageCosts {
        fwd: SimTime::from_millis(fwd_ms),
        bwd: SimTime::from_millis(3 * fwd_ms),
        param_bytes: param_mb << 20,
        grad_bytes: param_mb << 20,
        in_act_bytes: act_mb << 20,
        out_act_bytes: act_mb << 20,
        workspace_bytes: 64 << 20,
    }
}

/// A small fixed 2-GPU Mobius pipeline, fully deterministic: the executor
/// is event-driven over simulated time and the solver (the only wall-clock
/// lane) never runs.
fn two_gpu_obs() -> Obs {
    let stages = vec![
        stage(10, 256, 64),
        stage(12, 192, 64),
        stage(8, 320, 64),
        stage(11, 128, 64),
    ];
    let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2]);
    let mapping = Mapping::sequential(stages.len(), topo.num_gpus());
    let cfg = PipelineConfig::mobius(2, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth());
    let obs = Obs::new();
    simulate_step_traced(&stages, &mapping, &topo, &cfg, Some(&obs)).unwrap();
    obs
}

#[test]
fn golden_chrome_trace_2gpu() {
    let got = two_gpu_obs().chrome_trace_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_2gpu.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
    }
    let expected = std::fs::read_to_string(path).expect("golden file present");
    assert!(
        got == expected,
        "golden Chrome trace drifted (rerun with UPDATE_GOLDEN=1 to regenerate)"
    );
}

#[test]
fn golden_jsonl_trace_2gpu() {
    let got = two_gpu_obs().export_jsonl();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_2gpu.jsonl");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
    }
    let expected = std::fs::read_to_string(path).expect("golden file present");
    assert!(
        got == expected,
        "golden JSONL trace drifted (rerun with UPDATE_GOLDEN=1 to regenerate)"
    );
    // Every line is standalone JSON.
    for line in got.lines() {
        json::parse(line).unwrap();
    }
}

#[test]
fn attribution_tiles_the_fixture_step_exactly() {
    let obs = two_gpu_obs();
    obs.verify_dag_identity().unwrap();
    let a = obs.analyze().unwrap();
    assert_eq!(a.steps.len(), 1);
    let s = &a.steps[0];
    // The critical path is gapless and tiles [start, end] exactly.
    let mut t = s.start_ns;
    for seg in &s.path {
        assert_eq!(seg.start_ns, t, "gap before {seg:?}");
        t = seg.end_ns;
    }
    assert_eq!(t, s.end_ns);
    assert_eq!(a.total_ns, s.end_ns);
    // Compute sits on the path, and blame sums to the whole step.
    let blamed: u64 = s.class_blame.values().sum();
    assert_eq!(blamed, s.end_ns - s.start_ns);
    assert!(s.class_blame.get("gpu").copied().unwrap_or(0) > 0);
}

#[test]
fn doctored_trace_fails_the_identity() {
    // Round-trip the DAG through the Chrome trace bytes, then tamper with
    // it: the re-read DAG verifies, the doctored one must not.
    let obs = two_gpu_obs();
    let trace = obs.chrome_trace_json();
    let doc = json::parse(&trace).unwrap();
    let dag = DagLog::from_json_value(doc.get("mobiusDag").expect("dag embedded")).unwrap();
    analyze::verify_identity(&dag).unwrap();
    assert_eq!(
        dag.to_json(),
        obs.with_dag(|d| d.to_json()),
        "round-trip must be lossless"
    );

    let &(t, head) = dag.boundaries().first().expect("one step boundary");
    // (a) The head no longer ends at the boundary.
    let mut nodes = dag.nodes().to_vec();
    nodes[head as usize].end_ns = Some(t + 1);
    let doctored = DagLog::from_parts(
        nodes,
        dag.boundaries().to_vec(),
        dag.cluster_boundaries().to_vec(),
    );
    assert!(analyze::verify_identity(&doctored).is_err());

    // (b) An extra latency on the head's constraints: the binding
    // dependency no longer explains the head's start exactly, so the
    // backward walk cannot tile the step.
    let mut nodes = dag.nodes().to_vec();
    assert!(!nodes[head as usize].deps.is_empty());
    for d in &mut nodes[head as usize].deps {
        d.lat_ns += 1;
    }
    let doctored = DagLog::from_parts(
        nodes,
        dag.boundaries().to_vec(),
        dag.cluster_boundaries().to_vec(),
    );
    assert!(analyze::verify_identity(&doctored).is_err());
}

#[test]
fn tracing_does_not_change_timing() {
    let stages = vec![stage(10, 256, 64), stage(12, 192, 64), stage(8, 320, 64)];
    let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
    let mapping = Mapping::sequential(stages.len(), topo.num_gpus());
    let cfg = PipelineConfig::mobius(4, topo.gpu_mem_bytes(), topo.avg_gpu_bandwidth());
    let plain = simulate_steps_traced(&stages, &mapping, &topo, &cfg, 3, None).unwrap();
    let obs = Obs::new();
    let traced = simulate_steps_traced(&stages, &mapping, &topo, &cfg, 3, Some(&obs)).unwrap();
    assert_eq!(plain.step_boundaries, traced.step_boundaries);
    assert_eq!(plain.drain_time, traced.drain_time);
    assert!(obs.event_count() > 0, "the observer must have recorded");
}

#[test]
fn spans_cover_every_gpu_and_comm_kind() {
    let obs = Obs::new();
    let rep = FineTuner::new(GptConfig::gpt_15b())
        .topology(Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]))
        .system(System::Mobius)
        .observe(obs.clone())
        .run_step()
        .unwrap();
    obs.with_events(|log| {
        for g in 0..4 {
            assert!(
                log.events()
                    .iter()
                    .any(|e| e.lane == Lane::Gpu(g) && e.dur_ns.is_some()),
                "no span on GPU lane {g}"
            );
        }
        // Every traffic kind the run recorded shows up as a comm span.
        for kind in rep.trace.traffic_by_kind().keys() {
            assert!(
                log.events()
                    .iter()
                    .any(|e| e.cat == "comm" && e.name == kind.label()),
                "no span for CommKind {}",
                kind.label()
            );
        }
    });
    let json = obs.chrome_trace_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
}

#[test]
fn cluster_runs_emit_server_nic_spans_and_verify_the_identity() {
    let servers = 3;
    let obs = Obs::new();
    let rep = FineTuner::new(GptConfig::gpt_3b())
        .topology(Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]))
        .system(System::Mobius)
        .partition_algo(PartitionAlgo::MinStage)
        .strict_validation(true)
        .cluster(ClusterConfig::new(servers, 12.5))
        .observe(obs.clone())
        .run_step()
        .unwrap();
    assert!(rep.cluster.is_some());
    // Every server's ring participation shows up on its own lane.
    obs.with_events(|log| {
        for s in 0..servers {
            assert!(
                log.events()
                    .iter()
                    .any(|e| e.lane == Lane::Server(s) && e.cat == "comm" && e.dur_ns.is_some()),
                "no NIC span on server lane {s}"
            );
        }
    });
    // The synchronized boundary supersedes the local one and the combined
    // pipeline+ring DAG satisfies the critical-path identity end to end.
    obs.with_dag(|d| {
        assert_eq!(d.cluster_boundaries().len(), 1);
        assert_eq!(d.cluster_boundaries()[0].0, rep.step_time.as_nanos());
    });
    obs.verify_dag_identity().unwrap();
    let a = obs.analyze().unwrap();
    let s = a.steps.last().unwrap();
    assert!(s.cluster);
    assert_eq!(a.total_ns, rep.step_time.as_nanos());
    assert!(
        s.class_blame.get("nic").copied().unwrap_or(0) > 0,
        "gradient synchronization must appear on the critical path: {:?}",
        s.class_blame
    );
    // Idealizing the NIC bounds a real speedup for the synchronized step.
    let nic_whatif = a.whatif_total_ns["nic"];
    assert!(nic_whatif < a.total_ns, "{nic_whatif} vs {}", a.total_ns);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The metrics registry's `bytes.<kind>` counters receive the exact
    /// same `+=` sequence as the trace recorder's per-kind traffic map, so
    /// the sums must be bit-identical for any pipeline.
    #[test]
    fn byte_counters_match_trace_traffic(
        fwd in prop::collection::vec(5u64..20, 2..6),
        microbatches in 1usize..5,
    ) {
        let stages: Vec<_> = fwd.iter().map(|&f| stage(f, 64 + f, 32)).collect();
        let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
        let mapping = Mapping::sequential(stages.len(), topo.num_gpus());
        let cfg = PipelineConfig::mobius(
            microbatches,
            topo.gpu_mem_bytes(),
            topo.avg_gpu_bandwidth(),
        );
        let obs = Obs::new();
        let sim = simulate_step_traced(&stages, &mapping, &topo, &cfg, Some(&obs)).unwrap();
        for (kind, bytes) in sim.trace.traffic_by_kind() {
            let counter = obs.counter(&format!("bytes.{}", kind.label()));
            prop_assert_eq!(
                counter.to_bits(),
                bytes.to_bits(),
                "counter for {} diverged: {} vs {}",
                kind.label(),
                counter,
                bytes
            );
        }
    }
}

/// The exporters as they were before they wrote into one buffer: every
/// field, event and join built its own `String`. Kept only as the oracle
/// the single-buffer exporters must match byte for byte.
mod join_oracle {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    use mobius_obs::{AttrValue, DagEdge, DagLog, EventLog, Lane, MetricsRegistry, ResourceId};

    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    fn string(s: &str) -> String {
        format!("\"{}\"", escape(s))
    }

    fn number(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    fn array<I: IntoIterator<Item = String>>(items: I) -> String {
        let body: Vec<String> = items.into_iter().collect();
        format!("[{}]", body.join(","))
    }

    fn object<'a, I: IntoIterator<Item = (&'a str, String)>>(fields: I) -> String {
        let body: Vec<String> = fields
            .into_iter()
            .map(|(k, v)| format!("{}:{v}", string(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    fn attr_json(v: &AttrValue) -> String {
        match v {
            AttrValue::U64(x) => format!("{x}"),
            AttrValue::I64(x) => format!("{x}"),
            AttrValue::F64(x) => number(*x),
            AttrValue::Str(s) => string(s),
            AttrValue::Bool(b) => format!("{b}"),
        }
    }

    fn us(ns: u64) -> String {
        format!("{}.{:03}", ns / 1_000, ns % 1_000)
    }

    fn meta(pid: u32, tid: u32, which: &str, name: &str) -> String {
        object([
            ("name", string(which)),
            ("ph", string("M")),
            ("pid", format!("{pid}")),
            ("tid", format!("{tid}")),
            ("args", object([("name", string(name))])),
        ])
    }

    pub fn chrome(log: &EventLog, dag: &DagLog) -> String {
        let mut link_tids: BTreeMap<&str, u32> = BTreeMap::new();
        for e in log.events() {
            if let Lane::Link(name) = &e.lane {
                let next = link_tids.len() as u32;
                link_tids.entry(name.as_str()).or_insert(next);
            }
        }
        let mut sorted: Vec<&str> = link_tids.keys().copied().collect();
        sorted.sort_unstable();
        for (i, name) in sorted.iter().enumerate() {
            link_tids.insert(name, i as u32);
        }
        let mut events: Vec<String> = vec![
            meta(0, 0, "process_name", "run"),
            meta(1, 0, "process_name", "GPUs"),
            meta(2, 0, "process_name", "PCIe links"),
            meta(3, 0, "process_name", "solver"),
        ];
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
            events.push(meta(1, *g, "thread_name", &format!("gpu{g}")));
        }
        for name in &sorted {
            events.push(meta(2, link_tids[name], "thread_name", name));
        }
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
            events.push(meta(4, 0, "process_name", "servers"));
            for s in &server_tids {
                events.push(meta(4, *s, "thread_name", &format!("server{s}")));
            }
        }
        if log.events().iter().any(|e| e.lane == Lane::Serve) {
            events.push(meta(5, 0, "process_name", "serve"));
        }
        for e in log.events() {
            let (pid, tid) = match &e.lane {
                Lane::Run => (0, 0),
                Lane::Gpu(g) => (1, *g as u32),
                Lane::Link(name) => (2, link_tids[name.as_str()]),
                Lane::Solver => (3, 0),
                Lane::Server(s) => (4, *s as u32),
                Lane::Serve => (5, 0),
            };
            let mut fields = vec![("name", string(&e.name)), ("cat", string(e.cat))];
            match e.dur_ns {
                Some(d) => {
                    fields.push(("ph", string("X")));
                    fields.push(("ts", us(e.start_ns)));
                    fields.push(("dur", us(d)));
                }
                None => {
                    fields.push(("ph", string("i")));
                    fields.push(("ts", us(e.start_ns)));
                    fields.push(("s", string("t")));
                }
            }
            fields.push(("pid", format!("{pid}")));
            fields.push(("tid", format!("{tid}")));
            if !e.attrs.is_empty() {
                fields.push((
                    "args",
                    object(e.attrs.iter().map(|(k, v)| (*k, attr_json(v)))),
                ));
            }
            events.push(object(fields));
        }
        let dag_field = if dag.is_empty() {
            String::new()
        } else {
            format!(",\"mobiusDag\":{}", dag_json(dag))
        };
        format!(
            "{{\"traceEvents\":{},\"displayTimeUnit\":\"ms\"{dag_field}}}",
            array(events)
        )
    }

    fn encode(r: &ResourceId) -> String {
        match r {
            ResourceId::Gpu(g) => format!("gpu:{g}"),
            ResourceId::Link(l) => format!("link:{l}"),
            ResourceId::Server(s) => format!("server:{s}"),
            ResourceId::Barrier(b) => format!("barrier:{b}"),
        }
    }

    pub fn dag_json(dag: &DagLog) -> String {
        let nodes = array(dag.nodes().iter().map(|n| {
            let deps = array(n.deps.iter().map(|d| {
                array([
                    format!("{}", d.pred),
                    format!("{}", d.lat_ns),
                    string(match d.edge {
                        DagEdge::AfterEnd => "e",
                        DagEdge::AfterStart => "s",
                    }),
                    string(&d.label),
                ])
            }));
            let mut fields = vec![
                ("sid", format!("{}", n.sid)),
                ("cat", string(&n.cat)),
                ("name", string(&n.name)),
                ("res", string(&encode(&n.resource))),
                ("start", format!("{}", n.start_ns)),
            ];
            if let Some(end) = n.end_ns {
                fields.push(("end", format!("{end}")));
            }
            fields.push(("deps", deps));
            object(fields)
        }));
        let pairs = |v: &[(u64, u64)]| {
            array(
                v.iter()
                    .map(|&(t, sid)| array([format!("{t}"), format!("{sid}")])),
            )
        };
        object([
            ("nodes", nodes),
            ("boundaries", pairs(dag.boundaries())),
            ("cluster", pairs(dag.cluster_boundaries())),
        ])
    }

    fn lane_str(lane: &Lane) -> String {
        match lane {
            Lane::Run => "run".to_string(),
            Lane::Gpu(g) => format!("gpu{g}"),
            Lane::Link(name) => format!("link:{name}"),
            Lane::Solver => "solver".to_string(),
            Lane::Server(s) => format!("server{s}"),
            Lane::Serve => "serve".to_string(),
        }
    }

    pub fn jsonl(log: &EventLog) -> String {
        let mut out = String::new();
        for e in log.events() {
            let mut fields = vec![
                ("lane", string(&lane_str(&e.lane))),
                ("cat", string(e.cat)),
                ("name", string(&e.name)),
                ("startNs", format!("{}", e.start_ns)),
            ];
            if let Some(d) = e.dur_ns {
                fields.push(("durNs", format!("{d}")));
            }
            if !e.attrs.is_empty() {
                fields.push((
                    "attrs",
                    object(e.attrs.iter().map(|(k, v)| (*k, attr_json(v)))),
                ));
            }
            out.push_str(&object(fields));
            out.push('\n');
        }
        out
    }

    pub fn metrics(m: &MetricsRegistry) -> String {
        let counters = object(m.counters().iter().map(|(k, v)| (k.as_str(), number(*v))));
        let gauges = object(m.gauges().iter().map(|(k, v)| (k.as_str(), number(*v))));
        let histograms = object(m.histograms().iter().map(|(k, h)| {
            let body = object([
                ("bounds", array(h.bounds().iter().map(|b| number(*b)))),
                ("counts", array(h.counts().iter().map(|c| format!("{c}")))),
                ("sum", number(h.sum())),
                ("count", format!("{}", h.count())),
            ]);
            (k.as_str(), body)
        }));
        object([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }
}

/// Fragments the drawn names are made of: quotes, backslashes, control
/// characters, a solidus and multi-byte text next to plain ASCII.
const FRAGMENTS: [&str; 16] = [
    "a", "gpu0", "-h2d", "\"", "\\", "\u{1}", "\n", "\u{1f}", "\t", "\r", "/", " ", "é", "日本",
    "😀", "\u{7f}",
];

/// Up to seven fragments picked by the nibbles of `bits`.
fn drawn_text(bits: u64) -> String {
    (0..bits % 8)
        .map(|k| FRAGMENTS[(bits >> (4 + 4 * k)) as usize % FRAGMENTS.len()])
        .collect()
}

fn drawn_f64(bits: u64) -> f64 {
    match bits % 8 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.1,
        5 => 1e300,
        6 => (bits >> 3) as f64 / 7.0,
        _ => f64::from_bits(bits),
    }
}

/// Attribute keys are `&'static str`, so they come from a fixed list that
/// still needs escaping.
const ATTR_KEYS: [&str; 5] = ["bytes", "cost", "k\"ey", "back\\slash", "ünï"];
const CATS: [&str; 4] = ["compute", "comm", "solver", "q\"uote\u{1}"];

fn drawn_attrs(bits: u64) -> Vec<(&'static str, mobius_obs::AttrValue)> {
    use mobius_obs::AttrValue;
    (0..bits % 4)
        .map(|k| {
            let b = bits.rotate_right(8 * k as u32 + 2);
            let v = match b % 5 {
                0 => AttrValue::U64(b >> 3),
                1 => AttrValue::I64((b >> 3) as i64 - (1 << 59)),
                2 => AttrValue::F64(drawn_f64(b >> 3)),
                3 => AttrValue::Str(drawn_text(b >> 3)),
                _ => AttrValue::Bool(b & 8 != 0),
            };
            (ATTR_KEYS[(b >> 5) as usize % ATTR_KEYS.len()], v)
        })
        .collect()
}

fn drawn_lane(bits: u64) -> Lane {
    match bits % 6 {
        0 => Lane::Run,
        1 => Lane::Gpu((bits >> 3) as usize % 4),
        2 => Lane::Link(drawn_text(bits >> 3)),
        3 => Lane::Solver,
        4 => Lane::Server((bits >> 3) as usize % 3),
        _ => Lane::Serve,
    }
}

fn drawn_resource(bits: u64) -> mobius_obs::ResourceId {
    use mobius_obs::ResourceId;
    match bits % 4 {
        0 => ResourceId::Gpu((bits >> 2) as usize % 4),
        1 => ResourceId::Link(drawn_text(bits >> 2)),
        2 => ResourceId::Server((bits >> 2) as usize % 3),
        _ => ResourceId::Barrier(drawn_text(bits >> 2)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The single-buffer Chrome, JSONL and metrics exporters write the
    /// same bytes as the join-based oracle for random logs, DAGs and
    /// registries; the Chrome document parses and its embedded DAG
    /// round-trips.
    #[test]
    fn exporters_match_the_join_oracle(
        events in prop::collection::vec(
            (0u64..u64::MAX, 0u64..u64::MAX, 0u64..1 << 50, 0u64..1 << 40, 0u64..u64::MAX),
            0..24,
        ),
        nodes in prop::collection::vec(
            (0u64..u64::MAX, 0u64..u64::MAX, 0u64..1 << 50, 0u64..1 << 40, 0u64..u64::MAX),
            0..16,
        ),
        metrics in prop::collection::vec((0u8..3, 0u64..u64::MAX, 0u64..u64::MAX), 0..12),
        boundary_bits in 0u64..u64::MAX,
    ) {
        use mobius_obs::{DagDep, DagEdge};

        let obs = Obs::new();
        for (i, &(lane, name, start, dur, attrs)) in events.iter().enumerate() {
            let cat = CATS[i % CATS.len()];
            let (lane, name, attrs) = (drawn_lane(lane), drawn_text(name), drawn_attrs(attrs));
            if dur % 3 == 0 {
                obs.mark(lane, cat, name, start, attrs);
            } else {
                obs.span(lane, cat, name, start, start + dur, attrs);
            }
        }
        for (i, &(res, name, start, dur, deps)) in nodes.iter().enumerate() {
            let deps: Vec<DagDep> = (0..if i == 0 { 0 } else { deps % 4 })
                .map(|k| {
                    let b = deps.rotate_right(16 * k as u32 + 2);
                    DagDep {
                        pred: b % i as u64,
                        lat_ns: (b >> 8) % 5_000,
                        edge: if b & (1 << 40) == 0 { DagEdge::AfterEnd } else { DagEdge::AfterStart },
                        label: drawn_text(b >> 20),
                    }
                })
                .collect();
            let sid = obs.dag_open(CATS[i % CATS.len()], drawn_text(name), drawn_resource(res), start, deps);
            if dur % 4 != 0 {
                obs.dag_close(sid, start + dur);
            }
        }
        // Boundary times stay below 2^53 like every simulated time: the
        // parser holds numbers as f64.
        let n = nodes.len() as u64;
        if n > 0 {
            for k in 0..boundary_bits % 4 {
                let b = boundary_bits.rotate_right(8 * k as u32 + 2);
                if b & 1 == 0 {
                    obs.dag_boundary(b >> 11, b % n);
                } else {
                    obs.dag_cluster_boundary(b >> 11, b % n);
                }
            }
        }
        for &(kind, name, value) in &metrics {
            let (name, v) = (drawn_text(name), drawn_f64(value));
            match kind {
                0 => obs.counter_add(&name, v),
                1 => obs.gauge_set(&name, v),
                _ => obs.histogram_record(&name, &[0.5, 4.0, 16.0], v),
            }
        }

        let chrome = obs.chrome_trace_json();
        let want = obs.with_events(|log| obs.with_dag(|dag| join_oracle::chrome(log, dag)));
        prop_assert!(chrome == want, "Chrome trace differs from the oracle:\n{chrome}\n{want}");
        let jsonl = obs.export_jsonl();
        let want = obs.with_events(join_oracle::jsonl);
        prop_assert!(jsonl == want, "JSONL differs from the oracle:\n{jsonl}\n{want}");
        let metrics_json = obs.metrics_json();
        let want = obs.with_metrics(join_oracle::metrics);
        prop_assert!(metrics_json == want, "metrics differ from the oracle:\n{metrics_json}\n{want}");
        let dag_json = obs.with_dag(DagLog::to_json);
        prop_assert_eq!(&dag_json, &obs.with_dag(join_oracle::dag_json));

        let doc = json::parse(&chrome).map_err(|e| TestCaseError::fail(e.to_string()))?;
        for line in jsonl.lines() {
            prop_assert!(json::parse(line).is_ok(), "JSONL line does not parse: {line}");
        }
        prop_assert!(json::parse(&metrics_json).is_ok());
        match doc.get("mobiusDag") {
            None => prop_assert!(nodes.is_empty()),
            Some(v) => {
                let back = DagLog::from_json_value(v).map_err(TestCaseError::fail)?;
                obs.with_dag(|dag| {
                    prop_assert_eq!(format!("{:?}", back.nodes()), format!("{:?}", dag.nodes()));
                    prop_assert_eq!(back.boundaries(), dag.boundaries());
                    prop_assert_eq!(back.cluster_boundaries(), dag.cluster_boundaries());
                    Ok(())
                })?;
            }
        }
    }
}
