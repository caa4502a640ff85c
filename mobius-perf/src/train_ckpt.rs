//! `train-ckpt`: one op is one `run_checkpointed` call, the library form
//! of `mobius-cli step|cluster --steps 4 --checkpoint-every 2
//! --checkpoint-out D --trace-out T --metrics-out M --analyze-out A`, each
//! in a fresh working directory.
//!
//! This is the only path that records an `Obs`, serialises a trace of
//! 0.2–3 MB per op and writes checkpoints. It also re-plans every step,
//! because `run_step` calls `plan`. The traced run replays
//! `run_checkpointed`'s steps one layer call at a time; the reference
//! check proves the replay's files are byte-identical to its files.

use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use mobius::ckpt::{flow, load_latest, write_checkpoint, RunState, DEFAULT_KEEP};
use mobius::model::{GptConfig, Model};
use mobius::obs::Obs;
use mobius::sim::FaultStats;
use mobius::topology::{Topology, COMMODITY_NIC_GBPS};
use mobius::{run_checkpointed, CheckpointOpts, ClusterConfig, FineTuner, RunOutcome, RunSinks};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{absorb_counters, commodity, shuffled, topo_label};
use crate::reference::{digest, Observed};
use crate::runner::Workload;
use crate::tracer::Tracer;

const STEPS: u64 = 4;
const EVERY: u64 = 2;

/// `(groups, microbatches, servers)` of each GPT-2 run. Five cases put the
/// median and the 90th percentile of a run of whole rounds in the middle
/// of one case's samples; 4+4 at `M = 8` runs as a 2-server cluster only.
const CASES: [(&[usize], usize, usize); 5] = [
    (&[2, 2], 4, 1),
    (&[2, 2], 16, 1),
    (&[4, 4], 32, 1),
    (&[2, 2], 4, 2),
    (&[4, 4], 8, 2),
];

/// Output file names inside an op's working directory, in sink order.
const SINKS: [&str; 3] = ["trace.json", "metrics.json", "analyze.json"];
const CKPT_DIR: &str = "ckpt";

/// Distinguishes the working roots of workloads alive at once.
static INSTANCES: AtomicU64 = AtomicU64::new(0);

struct Case {
    key: String,
    tuner: FineTuner,
    topo: Topology,
}

/// A finished run: its working directory and committed state.
pub struct Done {
    dir: PathBuf,
    state: RunState,
}

/// The `train-ckpt` workload.
pub struct TrainCkpt {
    cases: Vec<Case>,
    rng: StdRng,
    work_root: PathBuf,
    ops: u64,
}

impl Drop for TrainCkpt {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.work_root);
    }
}

fn io_err(path: &Path, e: std::io::Error) -> String {
    format!("{}: {e}", path.display())
}

impl TrainCkpt {
    /// A fresh, empty directory for the next op.
    fn fresh_dir(&mut self) -> Result<PathBuf, String> {
        self.ops += 1;
        let dir = self.work_root.join(format!("op-{}", self.ops));
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(dir)
    }
}

/// Appends each buffered chunk to its sink file and empties the buffer,
/// as `run_checkpointed` flushes on commit.
fn flush_sinks(dir: &Path, bufs: &mut [String; 3]) -> Result<(), String> {
    for (name, buf) in SINKS.iter().zip(bufs.iter_mut()) {
        let path = dir.join(name);
        let mut f = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        f.write_all(buf.as_bytes()).map_err(|e| io_err(&path, e))?;
        buf.clear();
    }
    Ok(())
}

impl Workload for TrainCkpt {
    const NAME: &'static str = "train-ckpt";
    const TRACE_ROUNDS: usize = 2;
    type Out = Done;

    fn setup(seed: u64, _traced: bool) -> Result<Self, String> {
        let model = Model::from_config(&GptConfig::gpt2_small());
        let cases = CASES
            .iter()
            .map(|&(groups, m, servers)| {
                let topo = commodity(groups);
                let mut tuner = FineTuner::from_model(model.clone())
                    .topology(topo.clone())
                    .num_microbatches(m);
                let mut key = format!("{}/gpt2@{}/m{m}", Self::NAME, topo_label(groups));
                if servers > 1 {
                    tuner = tuner.cluster(ClusterConfig::new(servers, COMMODITY_NIC_GBPS));
                    key.push_str(&format!("x{servers}"));
                }
                Case { key, tuner, topo }
            })
            .collect();
        // Working directories live beside the binary, inside the build
        // directory.
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
        let work_root = exe
            .parent()
            .ok_or("the binary has no parent directory")?
            .join("mobius-perf-work")
            .join(format!(
                "{}-{}",
                std::process::id(),
                INSTANCES.fetch_add(1, Ordering::Relaxed)
            ));
        Ok(TrainCkpt {
            cases,
            rng: StdRng::seed_from_u64(seed),
            work_root,
            ops: 0,
        })
    }

    fn warm_up_ops(&mut self, smoke: bool) -> Vec<usize> {
        let n = if smoke { 1 } else { self.cases.len() };
        (0..n).collect()
    }

    fn label(&self, op: usize) -> String {
        self.cases[op].key.clone()
    }

    fn next_round(&mut self) -> Vec<usize> {
        shuffled(self.cases.len(), &mut self.rng)
    }

    fn run(&mut self, op: usize) -> Result<Done, String> {
        let dir = self.fresh_dir()?;
        let sinks = RunSinks {
            trace_out: Some(dir.join(SINKS[0])),
            metrics_out: Some(dir.join(SINKS[1])),
            analyze_out: Some(dir.join(SINKS[2])),
        };
        let opts = CheckpointOpts {
            steps: STEPS,
            every: EVERY,
            dir: Some(dir.join(CKPT_DIR)),
            ..CheckpointOpts::default()
        };
        match run_checkpointed(&self.cases[op].tuner, &opts, &sinks).map_err(|e| e.to_string())? {
            RunOutcome::Completed(summary) => Ok(Done {
                dir,
                state: summary.state,
            }),
            RunOutcome::Crashed { at, .. } => Err(format!("unexpected crash at {at}")),
        }
    }

    /// `run_checkpointed`'s steps, one layer call at a time: each step's
    /// `run_step` with a fresh `Obs`, the simulated checkpoint flow, the
    /// three exporters, and on commit the partition capture, the
    /// checkpoint write and the sink flush.
    fn run_traced(&mut self, op: usize, t: &mut Tracer) -> Result<Done, String> {
        let dir = self.fresh_dir()?;
        let case = &self.cases[op];
        let ckpt_dir = dir.join(CKPT_DIR);
        t.span("core.open_sinks", |_| {
            SINKS.iter().try_for_each(|name| {
                let path = dir.join(name);
                fs::write(&path, "").map_err(|e| io_err(&path, e))
            })
        })?;
        let mut state = RunState::fresh(case.tuner.config_fingerprint(), case.topo.name());
        let mut bufs: [String; 3] = Default::default();
        let mut pending_ns = 0u64;
        let mut pending_price = 0.0f64;
        let mut pending_traffic = 0.0f64;
        let mut pending_faults = FaultStats::default();
        for s in 0..STEPS {
            let obs = Obs::new();
            let tuner = case.tuner.clone().observe(obs.clone());
            let rep = t
                .span("core.run_step", |_| tuner.run_step())
                .map_err(|e| e.to_string())?;
            let committed = s + 1;
            let do_commit = committed.is_multiple_of(EVERY) || committed == STEPS;
            let ckpt_ns = if do_commit {
                t.span("ckpt.simulate_write", |_| {
                    let bytes = flow::ckpt_bytes(rep.model_size_bytes);
                    let dur = flow::simulate_ckpt_write(bytes, case.topo.ssd_gbps());
                    flow::record_ckpt_write(&obs, s, bytes, dur);
                    dur.as_nanos()
                })
            } else {
                0
            };
            let chunks = [
                t.span("obs.export_trace", |_| obs.chrome_trace_json()),
                t.span("obs.export_metrics", |_| obs.metrics_json()),
                t.span("obs.analyze", |_| obs.analyze().map(|a| a.to_json()))
                    .map_err(|e| format!("analysis failed: {e:?}"))?,
            ];
            absorb_counters(t, &obs, &mut Default::default());
            t.count("core.step_leaves", obs.counter("mip.evaluated"));
            t.count("mip.solves", 1.0);
            t.count("obs.events", obs.event_count() as f64);
            t.count("obs.dag_nodes", obs.dag_len() as f64);
            for (buf, chunk) in bufs.iter_mut().zip(chunks) {
                t.count("obs.export_bytes", chunk.len() as f64);
                buf.push_str(&chunk);
                buf.push('\n');
            }

            pending_ns += rep.step_time.as_nanos() + ckpt_ns;
            pending_price += rep.price_usd;
            pending_traffic += rep.traffic_total();
            pending_faults.absorb(&rep.faults);
            if do_commit {
                state.step = committed;
                state.cum_ns += pending_ns;
                state.price_usd += pending_price;
                state.traffic_bytes += pending_traffic;
                state.faults.absorb(&pending_faults);
                pending_ns = 0;
                pending_price = 0.0;
                pending_traffic = 0.0;
                pending_faults = FaultStats::default();
                if state.partition.is_empty() {
                    if let Ok(plan) = t.span("core.plan", |_| case.tuner.plan()) {
                        state.partition =
                            plan.partition.sizes().iter().map(|&s| s as u64).collect();
                        let stats = plan.search.unwrap_or_default();
                        t.count("mip.leaves", stats.evaluated as f64);
                        t.count("mip.nodes", stats.nodes as f64);
                        t.count("mip.pruned", stats.pruned as f64);
                        t.count("mip.solves", 1.0);
                        t.count("mip.proof_checked", 1.0);
                        t.count("mip.proved", f64::from(u8::from(stats.complete)));
                        t.count("core.plan_leaves", (stats.evaluated as u64 * STEPS) as f64);
                    }
                }
                state.seq += 1;
                t.span("ckpt.write", |_| {
                    write_checkpoint(&ckpt_dir, &state, DEFAULT_KEEP)
                })
                .map_err(|e| e.to_string())?;
                t.span("core.flush_sinks", |_| flush_sinks(&dir, &mut bufs))?;
            }
        }
        Ok(Done { dir, state })
    }

    /// Digests of the three sink files and the newest checkpoint, after a
    /// `load_latest` round trip of that checkpoint.
    fn observe(&mut self, op: usize, done: Done) -> Result<Observed, String> {
        let case = &self.cases[op];
        let mut value = String::new();
        for name in SINKS {
            let path = done.dir.join(name);
            let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
            value.push_str(&format!("{name}={} ", digest(&bytes)));
        }
        let loaded = load_latest(
            &done.dir.join(CKPT_DIR),
            Some(case.tuner.config_fingerprint()),
        )
        .map_err(|e| e.to_string())?;
        if loaded.state != done.state {
            return Err("load_latest returned a different state than the run committed".into());
        }
        let newest = fs::read(&loaded.path).map_err(|e| io_err(&loaded.path, e))?;
        if loaded.state.encode().as_bytes() != newest.as_slice() {
            return Err("the re-encoded checkpoint differs from its file".into());
        }
        value.push_str(&format!(
            "ckpt={} step={} seq={}",
            digest(&newest),
            loaded.state.step,
            loaded.state.seq
        ));
        fs::remove_dir_all(&done.dir).map_err(|e| io_err(&done.dir, e))?;
        Ok(Observed::new(&case.key, value))
    }
}
