//! Solver & engine hot-path benchmark: warm-started MIP replans, a seeded
//! event storm, and a flow-network churn-and-drain script.
//!
//! Flags:
//! * `--quick` — fewer wall-clock repetitions (the deterministic counter
//!   workloads are unaffected by design).
//! * `--seed N` — reseed the engine storm (default 42).
//! * `--json <path>` — also write the JSON report.
//! * `--deterministic` — omit the machine-dependent `solver-wall`
//!   experiment so two identically seeded runs are byte-identical (what
//!   the determinism gate of `scripts/verify.sh` byte-compares).
//! * `--check <baseline.json>` — re-run the deterministic workloads and
//!   diff the counters against the committed baseline
//!   (`BENCH_solver.json`) with direction-aware rules; prints the delta
//!   table and exits non-zero on any regression.
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let deterministic = args.iter().any(|a| a == "--deterministic");
    let seed = mobius_bench::seed_flag();

    if mobius_bench::check_flag("solver", |baseline| {
        mobius_bench::experiments::solver_perf::check_against(baseline, seed)
    }) {
        return;
    }

    let experiments = if deterministic {
        mobius_bench::experiments::solver_perf::deterministic(seed)
    } else {
        mobius_bench::experiments::solver_perf::run(quick, seed)
    };
    if let Err(msg) = mobius_bench::emit(&experiments) {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}
