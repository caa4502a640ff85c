//! Planning-service benchmark: the deterministic closed-loop load
//! generator from `mobius-serve`.
//!
//! Four synthetic tenants with zipfian favourites share one planning
//! service: a content-addressed plan cache smaller than the request
//! catalog, periodic invalidations, and near-miss warm-start seeding. The
//! run is byte-deterministic per seed — service latency is simulated from
//! branch-and-bound leaf counts, never measured — so its counters roll
//! into the `serve-counters` table that `scripts/verify.sh` diffs against
//! the committed `BENCH_serve.json` with direction-aware rules: the hit
//! rate and warm-seed count may only grow, misses / evictions / latency
//! percentiles may only shrink, and the response-stream checksum must
//! match byte-for-byte.

use mobius_serve::run_load;

use super::baseline::{counters_experiment, Metric, Rule};
use crate::Experiment;

/// Stable id of the counter table the baseline gate diffs.
pub const COUNTERS_ID: &str = "serve-counters";

fn load(seed: u64, metrics: &mut Vec<Metric>) -> Experiment {
    let r = run_load(seed).expect("the built-in catalog is well-formed");
    let hit_rate = r.stats.hit_rate();

    let mut e = Experiment::new(
        "serve-load",
        "Closed-loop zipfian load on the planning service",
        "extension (no paper counterpart): under skewed tenant popularity \
         the plan cache answers most requests in the hit constant while \
         cold solves pay thousands of simulated microseconds — planning \
         amortizes across requests instead of being re-paid per user",
    )
    .columns(["metric", "value"]);
    for (name, value) in [
        ("requests", r.stats.requests.to_string()),
        ("hits", r.stats.hits.to_string()),
        ("misses", r.stats.misses.to_string()),
        ("hit rate", format!("{hit_rate:.4}")),
        ("evictions", r.stats.evictions.to_string()),
        ("invalidations", r.stats.invalidations.to_string()),
        ("warm-seeded solves", r.stats.warm_seeded.to_string()),
        ("entries at end", r.entries.to_string()),
        ("p50 latency (us)", format!("{:.3}", r.p50_us)),
        ("p99 latency (us)", format!("{:.3}", r.p99_us)),
        ("p99.9 latency (us)", format!("{:.3}", r.p999_us)),
        ("response checksum", format!("{:016x}", r.response_fnv)),
    ] {
        e.push_row([name.to_string(), value]);
    }

    metrics.push(Metric::new("serve.requests", r.stats.requests, Rule::Exact));
    metrics.push(Metric::new("serve.hits", r.stats.hits, Rule::AtLeast));
    metrics.push(Metric::new(
        "serve.hit_rate",
        format!("{hit_rate:.4}"),
        Rule::AtLeast,
    ));
    metrics.push(Metric::new("serve.misses", r.stats.misses, Rule::AtMost));
    metrics.push(Metric::new(
        "serve.evictions",
        r.stats.evictions,
        Rule::AtMost,
    ));
    metrics.push(Metric::new(
        "serve.invalidations",
        r.stats.invalidations,
        Rule::Exact,
    ));
    metrics.push(Metric::new(
        "serve.warm_seeded",
        r.stats.warm_seeded,
        Rule::AtLeast,
    ));
    metrics.push(Metric::new(
        "serve.p50_us",
        format!("{:.3}", r.p50_us),
        Rule::AtMost,
    ));
    metrics.push(Metric::new(
        "serve.p99_us",
        format!("{:.3}", r.p99_us),
        Rule::AtMost,
    ));
    metrics.push(Metric::new(
        "serve.p999_us",
        format!("{:.3}", r.p999_us),
        Rule::AtMost,
    ));
    metrics.push(Metric::new(
        "serve.response_fnv",
        format!("{:016x}", r.response_fnv),
        Rule::Exact,
    ));

    e.note(format!(
        "{} requests from 4 tenants, seed {seed}, cache capacity 6 over an \
         8-entry catalog, zipf s=1.2",
        r.stats.requests,
    ));
    e
}

/// The load experiment plus the rolled-up counter table. Two calls with
/// the same seed render byte-identical JSON (the determinism gate of
/// `scripts/verify.sh`).
pub fn deterministic(seed: u64) -> Vec<Experiment> {
    let mut metrics = Vec::new();
    let load = load(seed, &mut metrics);
    let mut counters = counters_experiment(
        COUNTERS_ID,
        "Deterministic planning-service counters (the committed baseline)",
        "extension (no paper counterpart): the cache-effectiveness ledger \
         BENCH_serve.json pins; verify.sh fails when the hit rate drops, \
         misses or latency grow, or the response stream changes",
        &metrics,
    );
    counters.note("regenerate the baseline with `UPDATE_BASELINE=1 scripts/verify.sh`");
    vec![load, counters]
}

#[cfg(test)]
mod tests {
    use super::super::baseline::{check, table_rows};
    use super::*;
    use crate::render_json_report;

    #[test]
    fn deterministic_runs_render_identically_and_amortize() {
        let a = render_json_report(deterministic(42).iter());
        let b = render_json_report(deterministic(42).iter());
        assert_eq!(a, b);

        let rows = table_rows(&a, COUNTERS_ID).expect("counters present");
        let get = |name: &str| {
            rows.iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("{name} missing"))[1]
                .clone()
        };
        // The PR's acceptance criterion, pinned at bench level.
        let hit_rate: f64 = get("serve.hit_rate").parse().unwrap();
        assert!(hit_rate > 0.5, "zipfian reuse must amortize: {hit_rate}");
        assert!(get("serve.warm_seeded").parse::<u64>().unwrap() > 0);
    }

    #[test]
    fn check_passes_fresh_and_fails_on_a_hit_rate_regression() {
        let fresh = deterministic(42);
        let baseline = render_json_report(fresh.iter());
        let table = check(&baseline, &fresh, COUNTERS_ID).expect("fresh baseline must pass");
        assert!(table.contains("serve.hit_rate"));
        assert!(!table.contains("REGRESSED"));

        // Raise the baseline's hit-rate floor above what the run achieves:
        // AtLeast must flag the shortfall.
        let rows = table_rows(&baseline, COUNTERS_ID).unwrap();
        let achieved = rows.iter().find(|r| r[0] == "serve.hit_rate").unwrap()[1].clone();
        let tampered = baseline.replace(
            &format!("[\"serve.hit_rate\",\"{achieved}\""),
            "[\"serve.hit_rate\",\"0.9999\"",
        );
        assert_ne!(baseline, tampered, "tamper must hit");
        let err = check(&tampered, &fresh, COUNTERS_ID).expect_err("regression must fail");
        assert!(err.contains("REGRESSED"));
    }
}
