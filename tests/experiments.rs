//! Integration tests over the experiment harness: every table/figure
//! regenerates in quick mode and carries the paper's qualitative shape.

use mobius_bench::experiments;

#[test]
fn every_experiment_regenerates() {
    let all = experiments::run_all(true);
    assert_eq!(
        all.len(),
        25,
        "15 paper tables/figures plus 10 extension tables"
    );
    for e in &all {
        assert!(!e.columns.is_empty(), "{} has no columns", e.id);
        assert!(!e.rows.is_empty(), "{} has no rows", e.id);
        // Markdown and text renderings must mention the id.
        assert!(e.render_text().contains(e.id));
        assert!(e.render_markdown().contains(e.id));
    }
    // Ids are unique and ordered.
    let ids: Vec<&str> = all.iter().map(|e| e.id).collect();
    let mut dedup = ids.clone();
    dedup.dedup();
    assert_eq!(ids, dedup);
}

#[test]
fn fig05_table_contains_oom_and_speedups() {
    let e = experiments::fig05::run(true);
    let text = e.render_text();
    assert!(text.contains("OOM"), "GPipe should OOM somewhere:\n{text}");
    // Every Mobius column entry parses and some speedup exceeds 3x.
    let best = e
        .rows
        .iter()
        .filter_map(|r| {
            r.last()
                .and_then(|s| s.trim_end_matches('x').parse::<f64>().ok())
        })
        .fold(0.0f64, f64::max);
    assert!(best > 3.0, "best speedup in the table is only {best:.2}");
}

#[test]
fn fig09_normalized_to_mip() {
    let e = experiments::fig09::run(true);
    for row in &e.rows {
        assert_eq!(row[2], "1.00", "MIP column is the unit");
        let max_stage: f64 = row[3].parse().unwrap();
        assert!(max_stage >= 1.0, "max-stage must not beat MIP: {max_stage}");
    }
}

#[test]
fn fig13_reports_tiny_gap() {
    let e = experiments::fig13::run(true);
    let note = &e.notes[0];
    // "max |gap| between the curves: 0.0xxxx"
    let gap: f64 = note
        .split(':')
        .nth(1)
        .unwrap()
        .split(';')
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert!(gap < 0.05, "convergence gap too large: {gap}");
}

#[test]
fn solver_counters_hold_against_the_committed_baseline() {
    // The same diff `scripts/verify.sh` runs: work counters may not grow,
    // and the event-storm pop count and checksum must match exactly.
    let baseline = include_str!("../BENCH_solver.json");
    let fresh = experiments::solver_perf::deterministic(42);
    let table =
        experiments::baseline::check(baseline, &fresh, experiments::solver_perf::COUNTERS_ID)
            .unwrap_or_else(|delta| panic!("solver counters regressed:\n{delta}"));
    for pinned in ["engine.popped", "engine.checksum"] {
        assert!(table.contains(pinned), "{pinned} missing from:\n{table}");
    }
}

#[test]
fn fig14_reports_scaling() {
    let e = experiments::fig14::run(true);
    assert!(e.rows.len() >= 3);
    let first: f64 = e.rows[0].cells_samples();
    let last: f64 = e.rows[e.rows.len() - 1].cells_samples();
    assert!(last > first * 2.0, "throughput must grow with GPUs");
}

trait SamplesCell {
    fn cells_samples(&self) -> f64;
}

impl SamplesCell for Vec<String> {
    fn cells_samples(&self) -> f64 {
        self[2].parse().expect("samples/s cell parses")
    }
}
