//! `mobius-cli` — plan and simulate fine-tuning runs from the command line.
//!
//! ```text
//! mobius-cli plan    --model 15b --topo 2+2 [--mbs N] [--microbatches M]
//! mobius-cli step    --model 15b --topo 2+2 --system mobius|gpipe|ds-pipe|ds-hetero|zero-offload
//! mobius-cli report  --model 15b --topo 2+2 --system mobius
//! mobius-cli compare --model 15b --topo 2+2
//! mobius-cli cluster --model 15b --topo 2+2 --servers 4 --nic-gbps 12.5
//! mobius-cli serve   --script requests.txt [--capacity N]
//! ```
//!
//! Topologies: `4`, `1+3`, `2+2`, `4+4`, … (commodity 3090-Ti groups) or
//! `dc` (4×V100 NVLink). `step --trace-out FILE` writes a Chrome
//! trace-event timeline loadable in Perfetto or `chrome://tracing`;
//! `--metrics-out FILE` writes the metrics registry as JSON; `report`
//! prints the metrics in human-readable form.

use std::path::PathBuf;
use std::process::ExitCode;

use mobius::obs::Obs;
use mobius::sim::{FaultSchedule, SimTime};
use mobius::{
    run_checkpointed, CheckpointOpts, CkptRunError, ClusterConfig, FineTuner, ResiliencePolicy,
    RunError, RunOutcome, RunSinks, System, TopoSpecError,
};
use mobius_mip::SearchStats;
use mobius_model::Model;
use mobius_pipeline::{evaluate_analytic, render_gantt, MemoryMode, PipelineConfig};
use mobius_topology::Topology;

/// What went wrong, classed for the exit code: bad usage exits 2, OOM 3,
/// scheduling errors 4, unrecovered faults 5, an injected crash 6, a
/// checkpoint store problem 7, a serve protocol/planner failure 8, a
/// transfer that cannot finish inside the simulated clock 9, anything
/// else 1.
#[derive(Debug)]
enum CliError {
    /// The invocation itself is wrong (unknown flag, bad value).
    Usage(String),
    /// A typed error from the library.
    Run(RunError),
    /// A deterministic `crash:`/`crashat:` fault terminated the run.
    Crash(String),
    /// The checkpoint store failed: unreadable, corrupt with no valid
    /// fallback, or unwritable.
    Ckpt(String),
    /// The serve request loop aborted: malformed request line or a
    /// planner rejection while serving a script.
    Serve(String),
    /// I/O and other environmental failures.
    Other(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Run(RunError::OutOfMemory(_)) => 3,
            CliError::Run(RunError::Schedule(_)) => 4,
            CliError::Run(RunError::Fault(_)) => 5,
            CliError::Crash(_) => 6,
            CliError::Ckpt(_) => 7,
            CliError::Serve(_) => 8,
            CliError::Run(RunError::ClockOverflow { .. }) => 9,
            CliError::Run(_) | CliError::Other(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg)
            | CliError::Crash(msg)
            | CliError::Ckpt(msg)
            | CliError::Serve(msg)
            | CliError::Other(msg) => write!(f, "{msg}"),
            CliError::Run(e) => write!(f, "{e}"),
        }
    }
}

impl From<CkptRunError> for CliError {
    fn from(e: CkptRunError) -> Self {
        match e {
            CkptRunError::Run(e) => CliError::Run(e),
            CkptRunError::Ckpt(e) => CliError::Ckpt(e.to_string()),
            CkptRunError::Sink { path, msg } => {
                CliError::Other(format!("writing {}: {msg}", path.display()))
            }
            CkptRunError::Analyze(msg) => {
                CliError::Other(format!("attribution analysis failed: {msg}"))
            }
        }
    }
}

impl From<RunError> for CliError {
    fn from(e: RunError) -> Self {
        CliError::Run(e)
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // A deterministic injected crash is a scheduled outcome, not a
            // malfunction — no "error:" prefix.
            if matches!(e, CliError::Crash(_)) {
                eprintln!("{e}");
            } else {
                eprintln!("error: {e}");
            }
            if matches!(e, CliError::Usage(_)) {
                eprintln!("{USAGE}");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "\
usage:
  mobius-cli plan    --model <3b|8b|15b|51b|gpt2|gpt2-long|llama7b|llama13b> --topo <GROUPS|dc> [--mbs N] [--microbatches M]
  mobius-cli step    --model <..> --topo <..> --system <mobius|gpipe|ds-pipe|ds-hetero|zero-offload>
                     [--trace-out FILE] [--metrics-out FILE] [--analyze-out FILE] [--timeline]
                     [--faults SPEC] [--seed N] [--recover]
                     [--steps N] [--checkpoint-out DIR] [--checkpoint-every K]
                     [--checkpoint-keep J] [--resume DIR] [--crash-corrupt]
  mobius-cli report  --model <..> --topo <..> --system <..>
  mobius-cli compare --model <..> --topo <..>
  mobius-cli cluster --model <..> --topo <..> --servers N [--nic-gbps G] [--switch-gbps S]
                     [--system <mobius|ds-hetero>] [--trace-out FILE] [--analyze-out FILE]
                     [--steps N] [--checkpoint-out DIR] [--checkpoint-every K]
                     [--checkpoint-keep J] [--resume DIR] [--crash-corrupt]
  mobius-cli analyze --trace-in FILE [--analyze-out FILE]
  mobius-cli serve   --script FILE [--capacity N] [--no-warm-seed]
topology GROUPS like 2+2, 1+3, 4, 4+4 (commodity 3090-Ti), at most 16 GPUs
  per server; dc = 4xV100 NVLink
cluster scales the server out N ways: Mobius runs one pipeline replica per
  server with a ring all-reduce over the NICs; ds-hetero shards ZeRO-3
  across every GPU of every server
analyze re-reads a recorded trace's dependency DAG (the mobiusDag key) and
  prints the per-step critical path, per-resource blame, and what-if bounds
plan, step, report, compare and cluster also take --mbs, --microbatches,
  --strict, --faults, --seed and --recover; a flag its command does not read
  is a usage error
add --strict to re-check every schedule and trace against the paper's constraints
--trace-out writes a Chrome trace-event JSON (open in Perfetto or chrome://tracing)
--analyze-out prints the attribution table and writes it as deterministic JSON;
  ds-hetero and zero-offload record no dependency DAG, so they reject it
--faults injects a deterministic fault schedule; SPEC is comma-separated
  clauses (times in ms): degrade:<link>:<factor>:<t0>:<t1>  slow:<gpu>:<factor>:<t0>:<t1>
  stall:<t>:<dur>  gpufail:<gpu>:<t>  crash:<step>  crashat:<t_ms>  random:<n>
  (--seed resolves random:<n>)
--recover enables elastic replan + the OOM degradation ladder
--steps runs a multi-step checkpointed run; --checkpoint-out DIR persists a
  rotated (--checkpoint-keep, default 3) checkpoint every --checkpoint-every
  steps; --resume DIR restores the newest valid checkpoint (falling back past
  corrupt ones) and continues; a crash:<step>/crashat:<t_ms> fault terminates
  the run with exit 6 after persisting the checkpoint (--crash-corrupt
  deliberately corrupts that dying write, for recovery testing); the
  concatenated --trace-out/--metrics-out/--analyze-out chunks of a crashed
  run plus its resume are byte-identical to an uninterrupted run
serve runs the planning service one-shot over a request script (one
  plan/estimate/invalidate/stats line per line; blank lines and # comments
  skipped), answering from a content-addressed LRU plan cache of
  --capacity entries (default 64); responses go to stdout; --no-warm-seed
  disables near-miss warm-start seeding
exit codes: 0 ok, 1 other, 2 usage, 3 OOM, 4 scheduling, 5 unrecovered fault,
  6 injected crash, 7 checkpoint store failure, 8 serve protocol error,
  9 a transfer cannot finish inside the simulated clock (e.g. --nic-gbps 1e-12)";

/// Flags that consume the following token as their value.
const VALUE_FLAGS: &[&str] = &[
    "--model",
    "--topo",
    "--mbs",
    "--microbatches",
    "--system",
    "--trace-out",
    "--trace-in",
    "--metrics-out",
    "--analyze-out",
    "--faults",
    "--seed",
    "--servers",
    "--nic-gbps",
    "--switch-gbps",
    "--steps",
    "--checkpoint-out",
    "--checkpoint-every",
    "--checkpoint-keep",
    "--resume",
    "--script",
    "--capacity",
];

/// Flags that stand alone.
const BOOL_FLAGS: &[&str] = &[
    "--strict",
    "--strict-validation",
    "--timeline",
    "--recover",
    "--crash-corrupt",
    "--no-warm-seed",
];

/// Horizon over which `random:<n>` fault clauses are spread. Generous
/// enough to cover any single simulated step of the Table 3 models.
const FAULT_HORIZON: SimTime = SimTime::from_secs(10);

/// Flags every planning command (`plan`, `step`, `report`, `compare`,
/// `cluster`) reads to build its tuner.
const TUNER_FLAGS: &[&str] = &[
    "--model",
    "--topo",
    "--mbs",
    "--microbatches",
    "--strict",
    "--strict-validation",
    "--faults",
    "--seed",
    "--recover",
];

/// The flags `cmd` reads besides the tuner flags, and whether it reads
/// those.
fn command_flags(cmd: &str) -> Result<(&'static [&'static str], bool), CliError> {
    Ok(match cmd {
        "plan" | "compare" => (&[], true),
        "report" => (&["--system"], true),
        "step" => (
            &[
                "--system",
                "--trace-out",
                "--metrics-out",
                "--analyze-out",
                "--timeline",
                "--steps",
                "--checkpoint-out",
                "--checkpoint-every",
                "--checkpoint-keep",
                "--resume",
                "--crash-corrupt",
            ],
            true,
        ),
        "cluster" => (
            &[
                "--system",
                "--servers",
                "--nic-gbps",
                "--switch-gbps",
                "--trace-out",
                "--analyze-out",
                "--steps",
                "--checkpoint-out",
                "--checkpoint-every",
                "--checkpoint-keep",
                "--resume",
                "--crash-corrupt",
            ],
            true,
        ),
        "analyze" => (&["--trace-in", "--analyze-out"], false),
        "serve" => (&["--script", "--capacity", "--no-warm-seed"], false),
        other => return Err(usage(format!("unknown command `{other}`"))),
    })
}

/// Rejects anything that is not a flag of `args[0]`, the command. A
/// silently ignored flag — a typo like `--sttrict`, or `--metrics-out` on a
/// command that writes no metrics — would otherwise run while the user
/// believes it took effect.
fn validate_flags(args: &[String]) -> Result<(), CliError> {
    let cmd = args[0].as_str();
    let (own, tuner) = command_flags(cmd)?;
    let mut i = 1;
    while i < args.len() {
        let a = args[i].as_str();
        let takes_value = VALUE_FLAGS.contains(&a);
        if !takes_value && !BOOL_FLAGS.contains(&a) {
            return Err(usage(if a.starts_with("--") {
                format!("unknown flag `{a}`")
            } else {
                format!("unexpected argument `{a}`")
            }));
        }
        let reads = own.contains(&a) || (tuner && TUNER_FLAGS.contains(&a));
        if !reads {
            return Err(usage(format!("flag `{a}` does not apply to `{cmd}`")));
        }
        if !takes_value {
            i += 1;
            continue;
        }
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => i += 2,
            _ => return Err(usage(format!("flag `{a}` expects a value"))),
        }
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), CliError> {
    let cmd = args.first().ok_or_else(|| usage("missing command"))?;
    validate_flags(args)?;
    let model = parse_model(&flag(args, "--model").unwrap_or_else(|| "15b".into()))?;
    let topo = parse_topo(&flag(args, "--topo").unwrap_or_else(|| "2+2".into()))?;
    let mut tuner = FineTuner::from_model(model).topology(topo.clone());
    if let Some(mbs) = flag(args, "--mbs") {
        tuner = tuner.microbatch_size(mbs.parse().map_err(|_| usage("bad --mbs"))?);
    }
    if let Some(m) = flag(args, "--microbatches") {
        tuner = tuner.num_microbatches(m.parse().map_err(|_| usage("bad --microbatches"))?);
    }
    if args
        .iter()
        .any(|a| a == "--strict" || a == "--strict-validation")
    {
        tuner = tuner.strict_validation(true);
    }
    if let Some(spec) = flag(args, "--faults") {
        let seed: u64 = flag(args, "--seed")
            .map(|s| s.parse().map_err(|_| usage("bad --seed")))
            .transpose()?
            .unwrap_or(0);
        let schedule = FaultSchedule::parse(&spec, seed, topo.num_gpus(), FAULT_HORIZON)
            .map_err(|e| usage(format!("bad --faults: {e}")))?;
        tuner = tuner.faults(schedule);
    }
    if args.iter().any(|a| a == "--recover") {
        tuner = tuner.resilience(ResiliencePolicy::recover());
    }
    match cmd.as_str() {
        "plan" => plan(tuner, &topo),
        "step" => {
            let system = system_flag(args)?;
            if wants_checkpointing(args) {
                return checkpointed_run(
                    tuner.system(system),
                    args,
                    RunSinks {
                        trace_out: flag(args, "--trace-out").map(PathBuf::from),
                        metrics_out: flag(args, "--metrics-out").map(PathBuf::from),
                        analyze_out: flag(args, "--analyze-out").map(PathBuf::from),
                    },
                );
            }
            let timeline = args.iter().any(|a| a == "--timeline");
            step(
                tuner.system(system),
                timeline,
                flag(args, "--trace-out").as_deref(),
                flag(args, "--metrics-out").as_deref(),
                flag(args, "--analyze-out").as_deref(),
            )
        }
        "analyze" => {
            let path =
                flag(args, "--trace-in").ok_or_else(|| usage("analyze needs --trace-in FILE"))?;
            analyze_trace(&path, flag(args, "--analyze-out").as_deref())
        }
        "serve" => {
            let path = flag(args, "--script").ok_or_else(|| usage("serve needs --script FILE"))?;
            let capacity: usize = flag(args, "--capacity")
                .map(|s| s.parse().map_err(|_| usage("bad --capacity")))
                .transpose()?
                .unwrap_or(64);
            if capacity == 0 {
                return Err(usage("bad --capacity: need room for at least one plan"));
            }
            let warm_seed = !args.iter().any(|a| a == "--no-warm-seed");
            serve_script(&path, capacity, warm_seed)
        }
        "report" => {
            let system = system_flag(args)?;
            report(tuner.system(system))
        }
        "compare" => compare(tuner),
        "cluster" => {
            let system = system_flag(args)?;
            let servers: usize = flag(args, "--servers")
                .ok_or_else(|| usage("cluster needs --servers"))?
                .parse()
                .map_err(|_| usage("bad --servers"))?;
            if servers == 0 {
                return Err(usage("bad --servers: need at least one server"));
            }
            let nic: f64 = flag(args, "--nic-gbps")
                .map(|s| s.parse().map_err(|_| usage("bad --nic-gbps")))
                .transpose()?
                .unwrap_or(mobius_topology::COMMODITY_NIC_GBPS);
            if !(nic.is_finite() && nic > 0.0) {
                return Err(usage("bad --nic-gbps: need a positive bandwidth"));
            }
            let mut cfg = ClusterConfig::new(servers, nic);
            if let Some(s) = flag(args, "--switch-gbps") {
                let gbps: f64 = s.parse().map_err(|_| usage("bad --switch-gbps"))?;
                if !(gbps.is_finite() && gbps > 0.0) {
                    return Err(usage("bad --switch-gbps: need a positive bandwidth"));
                }
                cfg = cfg.switch_gbps(gbps);
            }
            if wants_checkpointing(args) {
                return checkpointed_run(
                    tuner.system(system).cluster(cfg),
                    args,
                    RunSinks {
                        trace_out: flag(args, "--trace-out").map(PathBuf::from),
                        metrics_out: None,
                        analyze_out: flag(args, "--analyze-out").map(PathBuf::from),
                    },
                );
            }
            cluster_step(
                tuner.system(system).cluster(cfg),
                flag(args, "--trace-out").as_deref(),
                flag(args, "--analyze-out").as_deref(),
            )
        }
        other => Err(usage(format!("unknown command `{other}`"))),
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Any checkpoint-driver flag routes `step`/`cluster` through the chunked
/// multi-step driver; without them the legacy single-step path runs
/// byte-unchanged.
fn wants_checkpointing(args: &[String]) -> bool {
    [
        "--steps",
        "--checkpoint-out",
        "--checkpoint-every",
        "--resume",
    ]
    .iter()
    .any(|f| args.iter().any(|a| a == f))
}

/// The checkpointed multi-step path of `step` and `cluster`.
fn checkpointed_run(tuner: FineTuner, args: &[String], sinks: RunSinks) -> Result<(), CliError> {
    let steps: u64 = flag(args, "--steps")
        .map(|s| s.parse().map_err(|_| usage("bad --steps")))
        .transpose()?
        .unwrap_or(1);
    if steps == 0 {
        return Err(usage("bad --steps: need at least one step"));
    }
    let every: u64 = flag(args, "--checkpoint-every")
        .map(|s| s.parse().map_err(|_| usage("bad --checkpoint-every")))
        .transpose()?
        .unwrap_or(0);
    let keep: usize = flag(args, "--checkpoint-keep")
        .map(|s| s.parse().map_err(|_| usage("bad --checkpoint-keep")))
        .transpose()?
        .unwrap_or(mobius::ckpt::DEFAULT_KEEP);
    if keep == 0 {
        return Err(usage("bad --checkpoint-keep: must keep at least one"));
    }
    let opts = CheckpointOpts {
        steps,
        every,
        keep,
        dir: flag(args, "--checkpoint-out").map(PathBuf::from),
        resume: flag(args, "--resume").map(PathBuf::from),
        crash_corrupt: args.iter().any(|a| a == "--crash-corrupt"),
    };

    let summary = match run_checkpointed(&tuner, &opts, &sinks)? {
        RunOutcome::Completed(s) => s,
        RunOutcome::Crashed {
            at,
            lost_steps,
            ckpt_path,
            summary,
        } => {
            let mut msg = format!(
                "run terminated by injected crash at {at}: {} step(s) committed, \
                 {lost_steps} step(s) since the last checkpoint lost",
                summary.state.step,
            );
            match ckpt_path {
                Some(p) => {
                    let tag = if opts.crash_corrupt {
                        " (deliberately corrupted)"
                    } else {
                        ""
                    };
                    msg.push_str(&format!(
                        "; checkpoint {}{tag} — resume with --resume {}",
                        p.display(),
                        p.parent().unwrap_or(&p).display(),
                    ));
                }
                None => msg.push_str("; no --checkpoint-out directory, nothing persisted"),
            }
            return Err(CliError::Crash(msg));
        }
    };

    if let Some(p) = &summary.resumed_from {
        println!(
            "resumed from {} at step {}",
            p.display(),
            summary.start_step
        );
        for (path, why) in &summary.fallbacks {
            println!("  skipped corrupt checkpoint {}: {why}", path.display());
        }
    }
    let label = summary
        .last_report
        .as_ref()
        .map_or("run", |r| r.system.label());
    let search = summary.last_report.as_ref().and_then(|r| r.search.as_ref());
    println!(
        "{label}: {} step(s) committed  run clock {}  ${:.4} total{}",
        summary.state.step,
        SimTime::from_nanos(summary.state.cum_ns),
        summary.state.price_usd,
        search_outcome(search, "  plan "),
    );
    if summary.ckpt_writes > 0 || summary.ckpt_overhead_ns > 0 {
        println!(
            "checkpoints: {} written, simulated write overhead {}",
            summary.ckpt_writes,
            SimTime::from_nanos(summary.ckpt_overhead_ns),
        );
    }
    for (label, path) in [
        ("Chrome trace chunks", &sinks.trace_out),
        ("metrics chunks", &sinks.metrics_out),
        ("attribution chunks", &sinks.analyze_out),
    ] {
        if let Some(p) = path {
            println!("wrote {label} to {}", p.display());
        }
    }
    Ok(())
}

fn parse_model(s: &str) -> Result<Model, CliError> {
    mobius::parse_model(s).ok_or_else(|| {
        usage(format!(
            "unknown model `{}` (try 3b/8b/15b/51b/gpt2/gpt2-long/llama7b/llama13b)",
            s.to_ascii_lowercase()
        ))
    })
}

fn parse_topo(s: &str) -> Result<Topology, CliError> {
    mobius::parse_topology(s).map_err(|e| match e {
        TopoSpecError::Malformed => {
            usage(format!("bad topology `{s}` (try 2+2, 1+3, 4, 4+4 or dc)"))
        }
        TopoSpecError::TooManyGpus => usage(format!("bad topology `{s}`: {e}")),
    })
}

fn parse_system(s: &str) -> Result<System, CliError> {
    mobius::parse_system(s)
        .ok_or_else(|| usage(format!("unknown system `{}`", s.to_ascii_lowercase())))
}

/// The `--system` flag (mobius when absent). `--analyze-out` with a ZeRO
/// system is a usage error, reported before anything runs: their
/// simulators record no dependency DAG to analyze.
fn system_flag(args: &[String]) -> Result<System, CliError> {
    let name = flag(args, "--system").unwrap_or_else(|| "mobius".into());
    let system = parse_system(&name)?;
    if matches!(system, System::DeepSpeedHetero | System::ZeroOffload)
        && flag(args, "--analyze-out").is_some()
    {
        return Err(usage(format!(
            "flag `--analyze-out` does not apply to `--system {}`: it records no \
             dependency DAG",
            name.to_ascii_lowercase()
        )));
    }
    Ok(system)
}

fn plan(tuner: FineTuner, topo: &Topology) -> Result<(), CliError> {
    let plan = tuner.plan()?;
    println!(
        "{} stages over {} GPUs ({}), contention degree {:.1}{}",
        plan.partition.num_stages(),
        topo.num_gpus(),
        topo.name(),
        plan.contention_degree,
        search_outcome(plan.search.as_ref(), ", "),
    );
    println!(
        "predicted step {}; overheads: profiling {}, MIP {:.2}s, mapping {:.3}s",
        plan.predicted_step,
        plan.overheads.profiling,
        plan.overheads.mip_solve_wall.secs(),
        plan.overheads.cross_map_wall.secs(),
    );
    // Re-evaluate analytically for the timeline.
    let cfg = PipelineConfig {
        memory_mode: MemoryMode::Heterogeneous,
        ..PipelineConfig::mobius(
            tuner.microbatches(),
            topo.gpu_mem_bytes(),
            topo.avg_gpu_bandwidth(),
        )
    };
    let sch = evaluate_analytic(&plan.stages, &plan.mapping, &cfg)
        .map_err(|e| CliError::Run(e.into()))?;
    println!("\ntimeline (digits = forward stage, letters = backward):");
    print!("{}", render_gantt(&sch, &plan.stages, &plan.mapping, 100));
    Ok(())
}

/// Why the partition search stopped, after `sep`; empty when no search
/// ran. Printed on stdout only, never recorded in an artifact.
fn search_outcome(search: Option<&SearchStats>, sep: &str) -> String {
    match search {
        Some(s) if s.complete => format!("{sep}proved optimal ({} leaves)", s.evaluated),
        Some(s) => format!(
            "{sep}node budget reached after {} leaves (best found, not proved)",
            s.evaluated
        ),
        None => String::new(),
    }
}

fn step(
    tuner: FineTuner,
    timeline: bool,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
    analyze_out: Option<&str>,
) -> Result<(), CliError> {
    let obs = Obs::new();
    let tuner = if trace_out.is_some() || metrics_out.is_some() || analyze_out.is_some() {
        tuner.observe(obs.clone())
    } else {
        tuner
    };
    let r = tuner.run_step()?;
    println!(
        "{}: step {}  drain {}  traffic {:.1} GB ({:.1}x fp16 model)  \
         non-overlapped {:.0}%  ${:.4}/step{}",
        r.system.label(),
        r.step_time,
        r.drain_time,
        r.traffic_total() / 1e9,
        r.traffic_ratio(),
        r.non_overlapped_fraction() * 100.0,
        r.price_usd,
        search_outcome(r.search.as_ref(), "  plan "),
    );
    if r.faults.injected > 0 {
        println!(
            "faults: {} injected ({} degrades, {} stragglers, {} stalls, {} GPU failures), \
             {} retries, {} aborted transfers",
            r.faults.injected,
            r.faults.link_degrades,
            r.faults.slowdowns,
            r.faults.stalls,
            r.faults.gpu_failures,
            r.faults.retries,
            r.faults.aborted_transfers,
        );
    }
    for d in &r.degradations {
        println!("recovery: {d}");
    }
    if timeline {
        println!("\nmeasured timeline ('#' compute, '=' communication):");
        print!("{}", r.trace.render_timeline(r.drain_time, 100));
    }
    if let Some(path) = trace_out {
        std::fs::write(path, obs.chrome_trace_json())
            .map_err(|e| CliError::Other(format!("writing {path}: {e}")))?;
        println!("wrote Chrome trace to {path} (open in Perfetto or chrome://tracing)");
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, obs.metrics_json())
            .map_err(|e| CliError::Other(format!("writing {path}: {e}")))?;
        println!("wrote metrics to {path}");
    }
    if let Some(path) = analyze_out {
        write_analysis(&obs, path)?;
    }
    Ok(())
}

fn cluster_step(
    tuner: FineTuner,
    trace_out: Option<&str>,
    analyze_out: Option<&str>,
) -> Result<(), CliError> {
    let obs = Obs::new();
    let tuner = if trace_out.is_some() || analyze_out.is_some() {
        tuner.observe(obs.clone())
    } else {
        tuner
    };
    let r = tuner.run_step()?;
    println!(
        "{}: step {}  traffic {:.1} GB total  ${:.4}/step",
        r.system.label(),
        r.step_time,
        r.traffic_total() / 1e9,
        r.price_usd,
    );
    match &r.cluster {
        Some(cl) => {
            println!(
                "cluster: {} servers, sync done {}, {:.2} GB gradients/server",
                cl.num_servers,
                cl.sync_done,
                cl.grad_bytes / 1e9,
            );
            println!(
                "{:<8} {:>12} {:>12} {:>12}",
                "server", "local step", "NIC tx", "NIC rx"
            );
            for (s, srv) in cl.servers.iter().enumerate() {
                println!(
                    "{:<8} {:>12} {:>10.2}GB {:>10.2}GB",
                    s,
                    srv.local_step.to_string(),
                    srv.nic_tx_bytes / 1e9,
                    srv.nic_rx_bytes / 1e9,
                );
            }
        }
        None => println!("cluster: 1 server — identical to a single-server run"),
    }
    if let Some(path) = trace_out {
        std::fs::write(path, obs.chrome_trace_json())
            .map_err(|e| CliError::Other(format!("writing {path}: {e}")))?;
        println!("wrote Chrome trace to {path} (open in Perfetto or chrome://tracing)");
    }
    if let Some(path) = analyze_out {
        write_analysis(&obs, path)?;
    }
    Ok(())
}

/// Prints the attribution table for this run's dependency DAG and writes
/// the analysis as deterministic JSON.
fn write_analysis(obs: &Obs, path: &str) -> Result<(), CliError> {
    let analysis = obs
        .analyze()
        .map_err(|e| CliError::Other(format!("attribution analysis failed: {e}")))?;
    print!("{}", analysis.render_table());
    std::fs::write(path, analysis.to_json())
        .map_err(|e| CliError::Other(format!("writing {path}: {e}")))?;
    println!("wrote attribution JSON to {path}");
    Ok(())
}

/// Re-analyzes a recorded Chrome trace: reads the embedded `mobiusDag`
/// dependency DAG back and recomputes critical path, blame, and what-if
/// bounds without re-simulating.
fn analyze_trace(path: &str, out: Option<&str>) -> Result<(), CliError> {
    use mobius::obs::{analyze, json, DagLog};
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Other(format!("reading {path}: {e}")))?;
    let doc = json::parse(&text).map_err(|e| CliError::Other(format!("{path}: bad JSON: {e}")))?;
    let dag_v = doc.get("mobiusDag").ok_or_else(|| {
        CliError::Other(format!(
            "{path}: no mobiusDag key — record the trace with --trace-out on an observed run"
        ))
    })?;
    let dag =
        DagLog::from_json_value(dag_v).map_err(|e| CliError::Other(format!("{path}: {e}")))?;
    let analysis = analyze::analyze(&dag)
        .map_err(|e| CliError::Other(format!("attribution analysis failed: {e}")))?;
    print!("{}", analysis.render_table());
    if let Some(p) = out {
        std::fs::write(p, analysis.to_json())
            .map_err(|e| CliError::Other(format!("writing {p}: {e}")))?;
        println!("wrote attribution JSON to {p}");
    }
    Ok(())
}

/// One-shot planning service: replays a request script through the
/// [`mobius_serve::Server`] loop, answering on stdout. The loop aborts on
/// the first malformed request or planner rejection — exit code 8 — so a
/// scripted deployment can't silently skip half its requests.
fn serve_script(path: &str, capacity: usize, warm_seed: bool) -> Result<(), CliError> {
    let file =
        std::fs::File::open(path).map_err(|e| CliError::Other(format!("reading {path}: {e}")))?;
    let mut server = mobius_serve::Server::new(mobius_serve::ServeConfig {
        capacity,
        warm_seed,
        obs: None,
    });
    let stdout = std::io::stdout();
    server
        .run(std::io::BufReader::new(file), stdout.lock())
        .map_err(|e| CliError::Serve(e.to_string()))
}

fn report(tuner: FineTuner) -> Result<(), CliError> {
    let obs = Obs::new();
    let r = tuner.observe(obs.clone()).run_step()?;
    println!(
        "{}: step {}  drain {}",
        r.system.label(),
        r.step_time,
        r.drain_time
    );
    print!("{}", obs.metrics_text());
    Ok(())
}

fn compare(tuner: FineTuner) -> Result<(), CliError> {
    println!(
        "{:<20} {:>10} {:>12} {:>10}",
        "system", "step", "traffic", "$/step"
    );
    for system in [
        System::Gpipe,
        System::DeepSpeedPipeline,
        System::ZeroOffload,
        System::DeepSpeedHetero,
        System::Mobius,
    ] {
        match tuner.clone().system(system).run_step() {
            Ok(r) => println!(
                "{:<20} {:>10} {:>10.1}GB {:>10.4}",
                r.system.label(),
                r.step_time.to_string(),
                r.traffic_total() / 1e9,
                r.price_usd,
            ),
            // compare is a survey: an OOM cell is a result, not a failure.
            Err(RunError::OutOfMemory(_)) => {
                println!("{:<20} {:>10}", system.label(), "OOM")
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_models() {
        assert_eq!(parse_model("8B").unwrap().config().name, "8B");
        assert!(parse_model("llama7b").unwrap().config().name.contains("7B"));
        // The planning service's long-sequence variant, from the same table.
        assert_eq!(
            parse_model("GPT2-long").unwrap().config().name,
            "GPT-2-long"
        );
        assert!(parse_model("70b").is_err());
    }

    #[test]
    fn parses_topologies() {
        assert_eq!(parse_topo("2+2").unwrap().groups(), &[2, 2]);
        assert_eq!(parse_topo("4").unwrap().groups(), &[4]);
        assert!(parse_topo("dc").unwrap().name().contains("NVLink"));
        assert!(parse_topo("x+y").is_err());
        assert!(parse_topo("2+0").is_err());
    }

    #[test]
    fn oversized_topologies_are_usage_errors_and_the_limit_is_documented() {
        let err = run(&argv(&["plan", "--model", "gpt2", "--topo", "400000000"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert_eq!(
            err.to_string(),
            "bad topology `400000000`: a server holds at most 16 GPUs"
        );
        let limit = format!("at most {} GPUs", mobius::MAX_SERVER_GPUS);
        assert!(USAGE.contains(&limit), "--help must state the GPU limit");
    }

    #[test]
    fn fewer_layers_than_gpus_is_a_scheduling_error() {
        // GPT-2 small has 14 layers; 16 GPUs leave some without a stage.
        let err = run(&argv(&["plan", "--model", "gpt2", "--topo", "16"])).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().contains("14 layers"), "{err}");
    }

    #[test]
    fn parses_systems() {
        assert_eq!(parse_system("mobius").unwrap(), System::Mobius);
        assert_eq!(parse_system("ds-hetero").unwrap(), System::DeepSpeedHetero);
        assert_eq!(parse_system("zero-offload").unwrap(), System::ZeroOffload);
        assert!(parse_system("pytorch").is_err());
    }

    #[test]
    fn flag_extraction() {
        let args: Vec<String> = ["step", "--model", "8b", "--topo", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag(&args, "--model").as_deref(), Some("8b"));
        assert_eq!(flag(&args, "--missing"), None);
    }

    #[test]
    fn unknown_command_errors() {
        let args: Vec<String> = vec!["bogus".into()];
        assert!(run(&args).is_err());
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // A typo like `--sttrict` must error out, not silently run
        // without validation.
        let err = run(&argv(&["step", "--sttrict"])).unwrap_err();
        assert!(err.to_string().contains("--sttrict"), "{err}");
        let err = run(&argv(&["plan", "--modle", "8b"])).unwrap_err();
        assert!(err.to_string().contains("unknown flag"), "{err}");
    }

    #[test]
    fn flags_a_command_ignores_are_rejected() {
        // `cluster` writes no metrics file.
        let err = run(&argv(&[
            "cluster",
            "--model",
            "gpt2",
            "--topo",
            "2+2",
            "--servers",
            "2",
            "--metrics-out",
            "m.json",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert_eq!(
            err.to_string(),
            "flag `--metrics-out` does not apply to `cluster`"
        );
        // `plan` plans Mobius on one server and draws no timeline.
        let err = run(&argv(&[
            "plan",
            "--system",
            "gpipe",
            "--servers",
            "9",
            "--timeline",
            "--script",
            "x",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert_eq!(err.to_string(), "flag `--system` does not apply to `plan`");
        // Tuner flags stay off the commands that build no tuner.
        let err = run(&argv(&["serve", "--script", "x", "--model", "gpt2"])).unwrap_err();
        assert!(err.to_string().contains("`--model`"), "{err}");
    }

    #[test]
    fn analyze_out_on_a_zero_system_fails_before_running() {
        let dir = std::env::temp_dir().join(format!("mobius-cli-zero-dag-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.join("a.json");
        let out_s = out.to_str().unwrap();
        let ckpt_s = dir.join("ckpt");
        let ckpt_s = ckpt_s.to_str().unwrap();
        let base = ["--model", "gpt2", "--topo", "2+2", "--analyze-out", out_s];
        for (cmd, system, extra) in [
            ("step", "ds-hetero", &[][..]),
            ("step", "zero-offload", &[][..]),
            (
                "step",
                "ds-hetero",
                &["--steps", "2", "--checkpoint-out", ckpt_s][..],
            ),
            ("cluster", "ds-hetero", &["--servers", "2"][..]),
            (
                "cluster",
                "ds-hetero",
                &["--servers", "2", "--steps", "2"][..],
            ),
        ] {
            let mut args = vec![cmd, "--system", system];
            args.extend(base);
            args.extend(extra);
            let err = run(&argv(&args)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{args:?}: {err}");
            assert!(
                err.to_string().contains(&format!("`--system {system}`")),
                "{err}"
            );
            assert!(!dir.exists(), "{args:?} created {}", dir.display());
        }
    }

    #[test]
    fn stray_positional_arguments_are_rejected() {
        let err = run(&argv(&["step", "extra"])).unwrap_err();
        assert!(err.to_string().contains("unexpected argument"), "{err}");
    }

    #[test]
    fn value_flags_require_a_value() {
        let err = run(&argv(&["step", "--model"])).unwrap_err();
        assert!(err.to_string().contains("expects a value"), "{err}");
        // A following flag does not count as the value.
        let err = run(&argv(&["step", "--model", "--strict"])).unwrap_err();
        assert!(err.to_string().contains("expects a value"), "{err}");
    }

    #[test]
    fn known_flag_combinations_validate() {
        assert!(validate_flags(&argv(&[
            "step",
            "--model",
            "8b",
            "--topo",
            "2+2",
            "--system",
            "mobius",
            "--strict",
            "--trace-out",
            "/tmp/t.json",
            "--metrics-out",
            "/tmp/m.json",
            "--faults",
            "random:2",
            "--seed",
            "7",
            "--recover",
            "--analyze-out",
            "/tmp/a.json",
        ]))
        .is_ok());
        assert!(validate_flags(&argv(&[
            "analyze",
            "--trace-in",
            "/tmp/t.json",
            "--analyze-out",
            "/tmp/a.json",
        ]))
        .is_ok());
    }

    #[test]
    fn analyze_requires_a_trace() {
        let err = run(&argv(&["analyze"])).unwrap_err();
        assert!(err.to_string().contains("--trace-in"), "{err}");
        let err = run(&argv(&["analyze", "--trace-in", "/nonexistent/x.json"])).unwrap_err();
        assert!(matches!(err, CliError::Other(_)), "{err}");
    }

    #[test]
    fn analyze_round_trips_a_recorded_trace() {
        let dir = std::env::temp_dir();
        let trace = dir.join("mobius-cli-analyze-rt-trace.json");
        let attr = dir.join("mobius-cli-analyze-rt-attr.json");
        let trace_s = trace.to_str().unwrap().to_string();
        let attr_s = attr.to_str().unwrap().to_string();
        run(&argv(&[
            "step",
            "--model",
            "gpt2",
            "--system",
            "gpipe",
            "--strict",
            "--trace-out",
            &trace_s,
        ]))
        .unwrap();
        run(&argv(&[
            "analyze",
            "--trace-in",
            &trace_s,
            "--analyze-out",
            &attr_s,
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&attr).unwrap();
        assert!(json.contains("criticalPath"), "{json}");
        assert!(json.contains("whatifTotalNs"), "{json}");
        let _ = std::fs::remove_file(trace);
        let _ = std::fs::remove_file(attr);
    }

    #[test]
    fn error_classes_map_to_distinct_exit_codes() {
        use mobius::sim::FaultAbort;
        use mobius_pipeline::ScheduleError;

        assert_eq!(usage("x").exit_code(), 2);
        let oom: RunError = ScheduleError::StageTooLarge {
            stage: 0,
            required: 2,
            capacity: 1,
        }
        .into();
        assert_eq!(CliError::Run(oom).exit_code(), 3);
        let sched: RunError = ScheduleError::MappingMismatch {
            mapped: 1,
            stages: 2,
        }
        .into();
        assert_eq!(CliError::Run(sched).exit_code(), 4);
        let fault: RunError = FaultAbort::GpuFailed {
            gpu: 0,
            at: SimTime::from_millis(1),
        }
        .into();
        assert_eq!(CliError::Run(fault).exit_code(), 5);
        assert_eq!(CliError::Other("io".into()).exit_code(), 1);
        assert_eq!(
            CliError::Run(RunError::Unsupported("x".into())).exit_code(),
            1
        );
        let overflow = RunError::ClockOverflow { remaining: 1.0 };
        assert_eq!(CliError::Run(overflow).exit_code(), 9);
    }

    #[test]
    fn a_fabric_too_slow_for_the_clock_exits_9() {
        for (flag, system) in [
            ("--nic-gbps", "mobius"),
            ("--nic-gbps", "ds-hetero"),
            ("--switch-gbps", "mobius"),
        ] {
            let err = run(&argv(&[
                "cluster",
                "--model",
                "gpt2",
                "--servers",
                "2",
                flag,
                "1e-12",
                "--system",
                system,
            ]))
            .unwrap_err();
            assert_eq!(err.exit_code(), 9, "{flag} {system}: {err}");
            assert!(err.to_string().contains("simulated clock"), "{err}");
        }
        // A fault can make a pipeline step's link or GPU just as slow.
        for spec in ["degrade:rc:1e-30:0:99999999999999999", "slow:0:1e30:0:1000"] {
            let err = run(&argv(&[
                "step", "--model", "gpt2", "--topo", "2+2", "--faults", spec,
            ]))
            .unwrap_err();
            assert_eq!(err.exit_code(), 9, "{spec}: {err}");
            assert!(err.to_string().contains("simulated clock"), "{err}");
        }
    }

    #[test]
    fn bad_fault_specs_are_usage_errors() {
        let err = run(&argv(&["step", "--faults", "explode:3"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("bad --faults"), "{err}");
        let err = run(&argv(&["step", "--faults", "random:2", "--seed", "pi"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn gpu_failure_without_recovery_is_a_fault_error() {
        // Small model so the step is quick; GPU 1 dies 5 ms in.
        let err = run(&argv(&[
            "step",
            "--model",
            "gpt2",
            "--faults",
            "gpufail:1:5",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");
    }

    #[test]
    fn cluster_flag_validation() {
        let err = run(&argv(&["cluster", "--model", "gpt2"])).unwrap_err();
        assert!(err.to_string().contains("--servers"), "{err}");
        let err = run(&argv(&["cluster", "--servers", "0"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let err = run(&argv(&["cluster", "--servers", "2", "--nic-gbps", "-1"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        // Systems without a cluster path surface the library error.
        let err = run(&argv(&[
            "cluster",
            "--model",
            "gpt2",
            "--servers",
            "2",
            "--system",
            "gpipe",
        ]))
        .unwrap_err();
        assert!(
            matches!(err, CliError::Run(RunError::Unsupported(_))),
            "{err}"
        );
    }

    #[test]
    fn cluster_step_runs_end_to_end() {
        run(&argv(&[
            "cluster",
            "--model",
            "gpt2",
            "--servers",
            "2",
            "--nic-gbps",
            "12.5",
        ]))
        .unwrap();
        // 1-server clusters are valid and fall back to the plain path.
        run(&argv(&["cluster", "--model", "gpt2", "--servers", "1"])).unwrap();
    }

    #[test]
    fn crash_and_ckpt_errors_have_their_own_exit_codes() {
        assert_eq!(CliError::Crash("boom".into()).exit_code(), 6);
        assert_eq!(CliError::Ckpt("bad store".into()).exit_code(), 7);
        assert_eq!(CliError::Serve("bad request".into()).exit_code(), 8);
    }

    #[test]
    fn serve_flag_validation_and_exit_codes() {
        let err = run(&argv(&["serve"])).unwrap_err();
        assert!(err.to_string().contains("--script"), "{err}");
        assert_eq!(err.exit_code(), 2);
        let err = run(&argv(&["serve", "--script", "x", "--capacity", "0"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        // A missing script file is environmental, not a protocol error.
        let err = run(&argv(&["serve", "--script", "/nonexistent/requests.txt"])).unwrap_err();
        assert_eq!(err.exit_code(), 1, "{err}");
    }

    #[test]
    fn serve_replays_a_script_and_rejects_protocol_errors_with_exit_8() {
        let dir = std::env::temp_dir();
        let p = dir.join(format!("mobius-cli-serve-{}.txt", std::process::id()));
        let p_s = p.to_str().unwrap().to_string();

        // Comments and blank lines are skipped; `stats` needs no solve.
        std::fs::write(&p, "# smoke script\n\nstats\n").unwrap();
        run(&argv(&["serve", "--script", &p_s])).unwrap();

        // An unknown verb aborts the loop with the serve exit code.
        std::fs::write(&p, "frobnicate model=gpt2 topo=2+2\n").unwrap();
        let err = run(&argv(&["serve", "--script", &p_s])).unwrap_err();
        assert_eq!(err.exit_code(), 8, "{err}");
        assert!(matches!(err, CliError::Serve(_)), "{err}");

        // So does a topology no server could hold.
        std::fs::write(&p, "estimate model=gpt2 topo=300000000\n").unwrap();
        let err = run(&argv(&["serve", "--script", &p_s])).unwrap_err();
        assert_eq!(err.exit_code(), 8, "{err}");
        assert!(err.to_string().contains("at most 16 GPUs"), "{err}");

        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn checkpoint_flag_validation() {
        let err = run(&argv(&["step", "--model", "gpt2", "--steps", "0"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let err = run(&argv(&["step", "--model", "gpt2", "--steps", "x"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let err = run(&argv(&[
            "step",
            "--model",
            "gpt2",
            "--steps",
            "2",
            "--checkpoint-every",
            "nope",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let err = run(&argv(&[
            "step",
            "--model",
            "gpt2",
            "--steps",
            "2",
            "--checkpoint-keep",
            "0",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn injected_crash_maps_to_exit_6_and_resume_needs_a_valid_store() {
        let dir = std::env::temp_dir().join(format!("mobius-cli-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_string();
        let err = run(&argv(&[
            "step",
            "--model",
            "gpt2",
            "--steps",
            "4",
            "--checkpoint-every",
            "2",
            "--checkpoint-out",
            &dir_s,
            "--faults",
            "crash:3",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err}");

        // Trash every checkpoint: resume must fail with the store code.
        for e in std::fs::read_dir(&dir).unwrap() {
            std::fs::write(e.unwrap().path(), b"\x00\xff garbage").unwrap();
        }
        let err = run(&argv(&[
            "step",
            "--model",
            "gpt2",
            "--steps",
            "4",
            "--checkpoint-every",
            "2",
            "--resume",
            &dir_s,
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 7, "{err}");
        assert!(err.to_string().contains("no valid checkpoint"), "{err}");

        // Resuming from a directory that does not exist is also a store
        // error, not a panic.
        let err = run(&argv(&[
            "step",
            "--model",
            "gpt2",
            "--steps",
            "2",
            "--resume",
            "/nonexistent/mobius-ckpts",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 7, "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_trace_input_is_a_typed_error_never_a_panic() {
        let dir = std::env::temp_dir();
        let p = dir.join(format!("mobius-cli-garbage-{}.json", std::process::id()));
        let p_s = p.to_str().unwrap().to_string();

        // Binary junk: not UTF-8 JSON.
        std::fs::write(&p, [0u8, 159, 146, 150, 255, 0, 7]).unwrap();
        let err = run(&argv(&["analyze", "--trace-in", &p_s])).unwrap_err();
        assert!(matches!(err, CliError::Other(_)), "{err}");

        // Truncated JSON document.
        std::fs::write(&p, "{\"traceEvents\":[{\"name\":\"x\"").unwrap();
        let err = run(&argv(&["analyze", "--trace-in", &p_s])).unwrap_err();
        assert!(matches!(err, CliError::Other(_)), "{err}");
        assert!(err.to_string().contains("bad JSON"), "{err}");

        // Valid JSON with no mobiusDag key.
        std::fs::write(&p, "{\"traceEvents\":[]}").unwrap();
        let err = run(&argv(&["analyze", "--trace-in", &p_s])).unwrap_err();
        assert!(err.to_string().contains("mobiusDag"), "{err}");

        // mobiusDag present but structurally wrong.
        std::fs::write(&p, "{\"mobiusDag\":{\"nodes\":42}}").unwrap();
        let err = run(&argv(&["analyze", "--trace-in", &p_s])).unwrap_err();
        assert!(matches!(err, CliError::Other(_)), "{err}");

        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn gpu_failure_with_recovery_completes() {
        let args = argv(&[
            "step",
            "--model",
            "gpt2",
            "--faults",
            "gpufail:1:5",
            "--recover",
        ]);
        run(&args).unwrap();
    }
}
