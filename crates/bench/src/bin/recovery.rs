//! Regenerates the recovery extension tables (checkpoint overhead vs
//! cadence and work lost vs crash point). Pass `--quick` for a reduced
//! run, `--seed N` for CLI symmetry with the other extensions (the tables
//! are seed-independent), and `--json <path>` to also write the result as
//! a JSON report.
//!
//! Deterministic: two runs produce byte-identical JSON (the recovery
//! determinism gate of `scripts/verify.sh`).
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = mobius_bench::seed_flag();
    let experiments = mobius_bench::experiments::recovery::run(quick, seed);
    if let Err(msg) = mobius_bench::emit(&experiments) {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}
