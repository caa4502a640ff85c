use mobius::obs::json::{self, Value};
use mobius::obs::WallTimer;

use crate::metrics::{self, Def, END_TO_END, PER_LAYER};
use crate::plan_exact::PlanExact;
use crate::reference::{Reference, EMBEDDED};
use crate::runner::{Settings, Workload};
use crate::serve_zipf::ServeZipf;
use crate::stats::percentile;
use crate::step_sim::StepSim;
use crate::train_ckpt::TrainCkpt;
use crate::{parse_args, result_json, run_workload, WORKLOADS};

fn smoke(ops: usize, trace: bool) -> Settings {
    Settings {
        seed: 42,
        seconds: 1.0,
        trace,
        ops: Some(ops),
    }
}

fn embedded() -> Reference {
    Reference::parse(EMBEDDED).expect("the embedded reference parses")
}

/// The labels of the first `rounds` rounds a seed produces.
fn stream<W: Workload>(seed: u64, rounds: usize) -> Vec<String> {
    let mut w = W::setup(seed, false).expect("set-up succeeds");
    w.warm_up_ops(false);
    let mut labels = Vec::new();
    for _ in 0..rounds {
        for op in w.next_round() {
            labels.push(w.label(op));
        }
    }
    labels
}

fn assert_seeded<W: Workload>() {
    assert_eq!(stream::<W>(42, 3), stream::<W>(42, 3), "{}", W::NAME);
    assert_ne!(stream::<W>(42, 3), stream::<W>(7, 3), "{}", W::NAME);
}

#[test]
fn op_streams_are_deterministic_per_seed_and_differ_across_seeds() {
    assert_seeded::<PlanExact>();
    assert_seeded::<StepSim>();
    assert_seeded::<ServeZipf>();
    assert_seeded::<TrainCkpt>();
}

#[test]
fn rounds_visit_every_case_once() {
    let mut labels = stream::<StepSim>(3, 1);
    let n = labels.len();
    labels.sort();
    labels.dedup();
    assert_eq!(labels.len(), n);
}

#[test]
fn no_percentile_without_ten_samples_beyond_it() {
    let samples = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
    assert_eq!(percentile(&samples(99), 900), None);
    assert!(percentile(&samples(100), 900).is_some());
    assert_eq!(percentile(&samples(999), 990), None);
    assert!(percentile(&samples(1000), 990).is_some());
    assert_eq!(percentile(&samples(19), 500), None);
    assert_eq!(percentile(&samples(21), 500), Some(10.0));
    assert_eq!(percentile(&[], 500), None);
}

#[test]
fn a_doctored_reference_fails_ops() {
    let doctored = Reference::parse(&EMBEDDED.replace("proved=true", "proved=false"))
        .expect("the doctored reference parses");
    let out =
        run_workload(PlanExact::NAME, &smoke(1, false), &doctored).expect("the run completes");
    assert!(out.attempted >= 2);
    assert_eq!(out.failed, out.attempted, "every op must mismatch");

    let out =
        run_workload(PlanExact::NAME, &smoke(1, false), &embedded()).expect("the run completes");
    assert_eq!(out.failed, 0);
}

#[test]
fn smoke_runs_of_every_workload_pass_within_two_seconds() {
    let reference = embedded();
    let timer = WallTimer::start();
    for name in WORKLOADS {
        let out = run_workload(name, &smoke(2, false), &reference).expect("the run completes");
        assert_eq!(out.failed, 0, "{name}");
    }
    let secs = timer.elapsed().secs();
    assert!(secs < 2.0, "smoke runs took {secs:.2} s");
}

#[test]
fn traced_runs_match_the_facade_and_emit_every_per_layer_metric() {
    let reference = embedded();
    for name in WORKLOADS {
        let out = run_workload(name, &smoke(2, true), &reference).expect("the run completes");
        assert_eq!(
            out.failed, 0,
            "{name}: the traced pieces must reproduce the facade"
        );
        let names: Vec<&str> = out.metrics.iter().map(|m| m.def.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names, want, "{name}");
        let tracer = out.tracer.expect("a traced run keeps its tracer");
        let jsonl = tracer.jsonl();
        assert_eq!(jsonl.lines().count(), tracer.spans().len());
        for line in jsonl.lines() {
            json::parse(line).expect("every span line is JSON");
        }
    }
}

type Row = (String, String, String, Option<f64>);

fn rows_of_json(list: Option<&[Value]>) -> Vec<Row> {
    let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    list.expect("a metric list")
        .iter()
        .map(|v| {
            let bound = v.get("bound").and_then(Value::as_f64);
            (
                field(v, "name"),
                field(v, "unit"),
                field(v, "better"),
                bound,
            )
        })
        .collect()
}

fn rows_of(defs: &[Def]) -> Vec<Row> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into(), d.bound))
        .collect()
}

#[test]
fn benchmark_json_names_exactly_what_the_binary_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");

    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(
        rows_of_json(doc.get("end_to_end").and_then(Value::as_array)),
        rows_of(&END_TO_END)
    );
    assert_eq!(
        rows_of_json(doc.get("per_layer").and_then(Value::as_array)),
        rows_of(&PER_LAYER)
    );

    // A full untraced run emits every end-to-end metric.
    let e2e = metrics::end_to_end(1.0, 2.0, Some(3.0), Some(4.0), 5.0);
    let names: Vec<&str> = e2e.iter().map(|m| m.def.name).collect();
    let want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(names, want);

    // The run-seconds budget and the default agree.
    let seconds = doc.get("run_seconds").and_then(Value::as_f64);
    let args = parse_args(&["--workload".into(), "plan-exact".into()]).expect("parses");
    assert_eq!(seconds, Some(args.settings.seconds));
}

#[test]
fn the_result_line_has_exactly_the_contract_keys() {
    let e2e = metrics::end_to_end(1.0, 2.0, Some(3.0), Some(4.0), 5.0);
    let doc = json::parse(&result_json(&e2e, 10, 1)).expect("the result parses");
    let Value::Obj(fields) = &doc else {
        panic!("the result is an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
    let latency = doc.get("metrics").and_then(|m| m.get("latency_p50_ms"));
    assert_eq!(
        latency.and_then(|l| l.get("unit")).and_then(Value::as_str),
        Some("ms")
    );
}

#[test]
fn bad_arguments_are_rejected() {
    let parse = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    assert!(parse(&[]).is_err());
    assert!(parse(&["--workload", "nope"]).is_err());
    assert!(parse(&["--workload", "step-sim", "--trace", "2"]).is_err());
    assert!(parse(&["--workload", "step-sim", "--seconds", "0"]).is_err());
    assert!(parse(&["--workload", "step-sim", "--frobnicate", "1"]).is_err());
    assert!(parse(&["--workload", "step-sim", "--seed"]).is_err());
    assert!(parse(&["--workload", "step-sim", "--spans", "s.jsonl"]).is_err());
    let ok = parse(&["--workload", "step-sim", "--seed", "7", "--trace", "1"]).expect("parses");
    assert_eq!((ok.settings.seed, ok.settings.trace), (7, true));
}

#[test]
fn the_reference_is_sorted_and_complete() {
    let reference = embedded();
    assert_eq!(
        reference.render(),
        EMBEDDED,
        "reference.txt is not in --bless form"
    );
}
