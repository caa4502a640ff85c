//! Planning-service benchmark: deterministic closed-loop zipfian load on
//! the `mobius-serve` plan cache.
//!
//! Flags:
//! * `--seed N` — reseed the load generator (default 42).
//! * `--json <path>` — also write the JSON report.
//! * `--deterministic` — accepted for symmetry with the solver benchmark;
//!   every experiment here is already deterministic (latency is simulated
//!   from leaf counts, never measured), so it changes nothing.
//! * `--check <baseline.json>` — re-run the load and diff the counters
//!   against the committed baseline (`BENCH_serve.json`) with
//!   direction-aware rules; prints the delta table and exits non-zero on
//!   any regression.
fn main() {
    let seed = mobius_bench::seed_flag();
    if mobius_bench::check_flag("serve", |baseline| {
        mobius_bench::experiments::serve::check_against(baseline, seed)
    }) {
        return;
    }

    let experiments = mobius_bench::experiments::serve::deterministic(seed);
    if let Err(msg) = mobius_bench::emit(&experiments) {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}
