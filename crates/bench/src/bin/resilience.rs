//! Regenerates the resilience extension tables (fault-intensity sweep and
//! GPU-loss elastic replan). Pass `--quick` for a reduced run, `--seed N`
//! to reseed the fault draws, and `--json <path>` to also write the result
//! as a JSON report.
//!
//! Deterministic: two runs with the same `--seed` produce byte-identical
//! JSON (the determinism gate of `scripts/verify.sh`). Wall-clock replan
//! latency goes to stderr only.
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = mobius_bench::seed_flag();
    let experiments = mobius_bench::experiments::resilience::run(quick, seed);
    if let Err(msg) = mobius_bench::emit(&experiments) {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}
