//! Regenerates the attribution extension table (critical-path blame and
//! what-if bounds per system). Pass `--quick` for a reduced run, `--seed N`
//! for CLI uniformity with the other extensions (nothing here draws
//! randomness), and `--json <path>` to also write the result as a JSON
//! report.
//!
//! Deterministic: two runs produce byte-identical JSON (the determinism
//! gate of `scripts/verify.sh`).
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = mobius_bench::seed_flag();
    let experiments = mobius_bench::experiments::attribution::run(quick, seed);
    if let Err(msg) = mobius_bench::emit(&experiments) {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}
