//! `mobius-perf`: the host-time benchmark of the Mobius reproduction.
//!
//! ```text
//! mobius-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!             [--repeat K] [--ops N] [--json FILE] [--spans FILE]
//! mobius-perf --bless
//! ```
//!
//! Each run is one process, one thread and a closed loop of one client.
//! Every op goes through a public entry point, is timed from outside, and
//! has its output checked against the committed `reference.txt`. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics, or with `--trace 1`
//! the per-layer ones. See README.md for the workloads and metrics.

mod calibrate;
mod inputs;
mod metrics;
mod plan_exact;
mod reference;
mod runner;
mod serve_zipf;
mod stats;
mod step_sim;
mod tracer;
mod train_ckpt;

#[cfg(test)]
mod tests;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use mobius::obs::json;

use crate::metrics::Metric;
use crate::plan_exact::PlanExact;
use crate::reference::{Reference, EMBEDDED};
use crate::runner::{Outcome, Settings, Workload};
use crate::serve_zipf::ServeZipf;
use crate::step_sim::StepSim;
use crate::train_ckpt::TrainCkpt;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    PlanExact::NAME,
    StepSim::NAME,
    ServeZipf::NAME,
    TrainCkpt::NAME,
];

const USAGE: &str = "usage: mobius-perf --workload plan-exact|step-sim|serve-zipf|train-ckpt \
[--seed N] [--seconds S] [--trace 0|1] [--repeat K] [--ops N] [--json FILE] [--spans FILE]\n\
       mobius-perf --bless";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run (`None` with `--bless`).
    pub workload: Option<String>,
    /// How each run is driven.
    pub settings: Settings,
    /// Runs of the workload; metrics report their median.
    pub repeat: usize,
    /// Also write the result object here.
    pub json: Option<PathBuf>,
    /// Write the traced run's spans here as JSONL.
    pub spans: Option<PathBuf>,
    /// Regenerate `reference.txt` instead of measuring.
    pub bless: bool,
}

/// Parses `argv` (without the program name).
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        settings: Settings {
            seed: 42,
            seconds: 15.0,
            trace: false,
            ops: None,
        },
        repeat: 1,
        json: None,
        spans: None,
        bless: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` expects a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload `{value}`"));
                }
                args.workload = Some(value.clone());
            }
            "--seed" => args.settings.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                args.settings.seconds = s;
            }
            "--trace" => {
                args.settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--ops" => match value.parse() {
                Ok(n) if n > 0 => args.settings.ops = Some(n),
                _ => return Err(bad()),
            },
            "--repeat" => match value.parse() {
                Ok(k) if k > 0 => args.repeat = k,
                _ => return Err(bad()),
            },
            "--json" => args.json = Some(PathBuf::from(value)),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload.is_none() && !args.bless {
        return Err("missing --workload".into());
    }
    if args.spans.is_some() && !args.settings.trace {
        return Err("--spans needs --trace 1".into());
    }
    Ok(args)
}

/// Runs one named workload.
pub fn run_workload(
    name: &str,
    settings: &Settings,
    reference: &Reference,
) -> Result<Outcome, String> {
    match name {
        n if n == PlanExact::NAME => runner::run::<PlanExact>(settings, reference),
        n if n == StepSim::NAME => runner::run::<StepSim>(settings, reference),
        n if n == ServeZipf::NAME => runner::run::<ServeZipf>(settings, reference),
        n if n == TrainCkpt::NAME => runner::run::<TrainCkpt>(settings, reference),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Observations of every case of every workload.
fn bless(seed: u64) -> Result<Reference, String> {
    let mut reference = Reference::default();
    for got in runner::bless::<PlanExact>(seed)?
        .into_iter()
        .chain(runner::bless::<StepSim>(seed)?)
        .chain(runner::bless::<ServeZipf>(seed)?)
        .chain(runner::bless::<TrainCkpt>(seed)?)
    {
        reference.insert(got);
    }
    Ok(reference)
}

/// The result object printed as the last line of standard output.
pub fn result_json(metrics: &[Metric], attempted: u64, failed: u64) -> String {
    let body = metrics.iter().map(|m| {
        (
            m.def.name,
            json::object([
                ("value", json::number(m.value)),
                ("unit", json::string(m.def.unit)),
            ]),
        )
    });
    json::object([
        ("correct", (failed == 0).to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", json::object(body)),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mobius-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mobius-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the command; `Ok(false)` when an op failed.
fn run(args: &Args) -> Result<bool, String> {
    if args.bless {
        let reference = bless(args.settings.seed)?;
        let path = reference::source_path();
        std::fs::write(&path, reference.render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}; rebuild to embed it", path.display());
        return Ok(true);
    }
    let reference = Reference::parse(EMBEDDED)?;
    let name = args.workload.as_deref().ok_or("missing --workload")?;

    let mut runs = Vec::with_capacity(args.repeat);
    for _ in 0..args.repeat {
        runs.push(run_workload(name, &args.settings, &reference)?);
    }
    let attempted = runs.iter().map(|r| r.attempted).sum();
    let failed = runs.iter().map(|r| r.failed).sum();

    // Per metric, its value in every run (a metric some run lacked, such
    // as a percentile of a short smoke run, is left out).
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in &runs {
        for m in &r.metrics {
            by_name.entry(m.def.name).or_default().push(m.value);
        }
    }
    let metrics: Vec<Metric> = runs[0]
        .metrics
        .iter()
        .filter(|m| by_name[m.def.name].len() == runs.len())
        .map(|m| Metric {
            def: m.def,
            value: stats::median(&by_name[m.def.name]),
        })
        .collect();

    let mode = if args.settings.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!(
        "mobius-perf {name} seed {} ({mode}, {} run(s))",
        args.settings.seed, args.repeat
    );
    for m in &metrics {
        let spread = if args.repeat > 1 {
            format!("  spread {:.4}", stats::spread(&by_name[m.def.name]))
        } else {
            String::new()
        };
        println!(
            "  {:<26} {:>16.6} {}{spread}",
            m.def.name, m.value, m.def.unit
        );
    }
    for r in &runs {
        for note in &r.notes {
            println!("  {note}");
        }
    }
    println!("  ops attempted {attempted}, failed {failed}");

    if let Some(path) = &args.spans {
        let tracer = runs
            .last()
            .and_then(|r| r.tracer.as_ref())
            .ok_or("a traced run keeps its spans")?;
        std::fs::write(path, tracer.jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let result = result_json(&metrics, attempted, failed);
    if let Some(path) = &args.json {
        std::fs::write(path, format!("{result}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{result}");
    Ok(failed == 0)
}
