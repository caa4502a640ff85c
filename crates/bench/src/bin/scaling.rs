//! Regenerates the cluster scale-out table (Mobius hierarchical data
//! parallelism vs cluster-scale ZeRO-3 as the server count grows). Pass
//! `--quick` for a reduced run, `--seed N` for CLI symmetry with the other
//! determinism-gated binaries, and `--json <path>` to also write the
//! result as a JSON report.
//!
//! Deterministic: two runs with the same `--seed` produce byte-identical
//! JSON (the determinism gate of `scripts/verify.sh`).
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = mobius_bench::seed_flag();
    let experiments = mobius_bench::experiments::scaling::run(quick, seed);
    if let Err(msg) = mobius_bench::emit(&experiments) {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}
