//! The metric catalogue (names, units, directions, bounds) and how each
//! metric is computed. `BENCHMARK.json` mirrors these tables; a unit test
//! keeps the two in step.

use std::collections::BTreeMap;

use crate::stats::median;
use crate::tracer::{Tracer, OP_SPAN};

/// A metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression (per-layer metrics have
    /// none).
    pub bound: Option<f64>,
}

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Its definition.
    pub def: Def,
    /// The value, as measured.
    pub value: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, from the untraced run.
pub const END_TO_END: [Def; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput_ops_s", "ops/s", "higher", 0.25),
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("latency_p90_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.20),
];

/// Per-layer metrics, from the traced run. Counts and times are totals
/// over the traced run's fixed op count (`trace.ops`).
pub const PER_LAYER: [Def; 44] = [
    layer("mip.leaves", "count", "lower"),
    layer("mip.nodes", "count", "lower"),
    layer("mip.pruned", "count", "higher"),
    layer("mip.prune_frac", "fraction", "higher"),
    layer("mip.proved_frac", "fraction", "higher"),
    layer("mip.warm_frac", "fraction", "higher"),
    layer("mip.busy_ms", "ms", "lower"),
    layer("mip.us_per_leaf", "us", "lower"),
    layer("mapping.calls", "count", "lower"),
    layer("mapping.busy_ms", "ms", "lower"),
    layer("profiler.calls", "count", "lower"),
    layer("profiler.busy_ms", "ms", "lower"),
    layer("pipeline.steps", "count", "higher"),
    layer("pipeline.busy_ms", "ms", "lower"),
    layer("pipeline.sim_s_per_host_s", "s/s", "higher"),
    layer("engine.popped", "count", "lower"),
    layer("swap.count", "count", "lower"),
    layer("flow.partition_rebuild", "count", "lower"),
    layer("flow.partition_reuse", "count", "higher"),
    layer("flow.reuse_frac", "fraction", "higher"),
    layer("zero.steps", "count", "higher"),
    layer("zero.busy_ms", "ms", "lower"),
    layer("cluster.ring_calls", "count", "higher"),
    layer("cluster.busy_ms", "ms", "lower"),
    layer("obs.events", "count", "lower"),
    layer("obs.dag_nodes", "count", "lower"),
    layer("obs.export_bytes", "bytes", "lower"),
    layer("obs.export_ms", "ms", "lower"),
    layer("obs.analyze_ms", "ms", "lower"),
    layer("ckpt.writes", "count", "lower"),
    layer("ckpt.bytes", "bytes", "lower"),
    layer("ckpt.busy_ms", "ms", "lower"),
    layer("core.plans_per_step", "count", "lower"),
    layer("core.busy_ms", "ms", "lower"),
    layer("serve.hit_frac", "fraction", "higher"),
    layer("serve.evictions", "count", "lower"),
    layer("serve.invalidations", "count", "lower"),
    layer("serve.warm_seeded", "count", "higher"),
    layer("serve.hit_p50_us", "us", "lower"),
    layer("serve.miss_p50_ms", "ms", "lower"),
    layer("trace.ops", "count", "higher"),
    layer("trace.overhead_frac", "fraction", "lower"),
    layer("trace.span_cover_frac", "fraction", "higher"),
    layer("trace.op_ms", "ms", "lower"),
];

/// The end-to-end metrics of one untraced run. A percentile with too few
/// samples beyond it (a `--ops` smoke run) is left out.
pub fn end_to_end(
    setup_s: f64,
    throughput_ops_s: f64,
    p50_ms: Option<f64>,
    p90_ms: Option<f64>,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let values: [Option<f64>; END_TO_END.len()] = [
        Some(setup_s),
        Some(throughput_ops_s),
        p50_ms,
        p90_ms,
        Some(peak_rss_mb),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .filter_map(|(def, v)| v.map(|value| Metric { def: *def, value }))
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The per-layer metrics of one traced run; `overhead_frac` compares its
/// throughput with the untraced twin's.
pub fn per_layer(t: &Tracer, overhead_frac: f64) -> Vec<Metric> {
    let c = |name: &str| t.counter(name);
    let busy = |prefix: &str| t.busy_ms(prefix);
    let op_ms = t.op_ms();
    let hits = c("serve.hits");
    let values: [f64; PER_LAYER.len()] = [
        c("mip.leaves"),
        c("mip.nodes"),
        c("mip.pruned"),
        ratio(c("mip.pruned"), c("mip.nodes")),
        ratio(c("mip.proved"), c("mip.proof_checked")),
        ratio(c("mip.warm_started"), c("mip.solves")),
        busy("mip."),
        ratio(busy("mip.") * 1e3, c("mip.span_leaves")),
        t.calls("mapping.") as f64,
        busy("mapping."),
        t.calls("profiler.") as f64,
        busy("profiler."),
        c("pipeline.steps"),
        busy("pipeline."),
        ratio(c("pipeline.sim_s"), busy("pipeline.") / 1e3),
        c("engine.popped"),
        c("swap.count"),
        c("flow.partition_rebuild"),
        c("flow.partition_reuse"),
        ratio(
            c("flow.partition_reuse"),
            c("flow.partition_reuse") + c("flow.partition_rebuild"),
        ),
        t.calls("zero.") as f64,
        busy("zero."),
        t.calls("cluster.ring_allreduce") as f64,
        busy("cluster."),
        c("obs.events"),
        c("obs.dag_nodes"),
        c("obs.export_bytes"),
        busy("obs.export"),
        busy("obs.analyze"),
        c("ckpt.writes"),
        c("ckpt.bytes"),
        busy("ckpt."),
        ratio(c("core.step_leaves"), c("core.plan_leaves")),
        busy("core."),
        ratio(hits, hits + c("serve.misses")),
        c("serve.evictions"),
        c("serve.invalidations"),
        c("serve.warm_seeded"),
        median_or_zero(&t.durations_ms("serve.handle", "hit")) * 1e3,
        median_or_zero(&t.durations_ms("serve.handle", "miss")),
        t.calls(OP_SPAN) as f64,
        overhead_frac,
        1.0 - ratio(busy(OP_SPAN), op_ms),
        op_ms,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(def, value)| Metric { def: *def, value })
        .collect()
}

/// Each layer's self time, and each tagged span family's time, as a
/// share of traced op time, for the report.
pub fn layer_shares(t: &Tracer) -> Vec<String> {
    let op_ms = t.op_ms();
    let mut layers: Vec<&str> = t.spans().iter().map(|s| s.layer()).collect();
    layers.sort_unstable();
    layers.dedup();
    let mut lines: Vec<String> = layers
        .into_iter()
        .map(|l| {
            let ms = t.busy_ms(&format!("{l}."));
            format!(
                "share {l:<16} {:>6.1}%  {ms:.1} ms",
                100.0 * ratio(ms, op_ms)
            )
        })
        .collect();
    let mut tagged: BTreeMap<(&str, &str), f64> = BTreeMap::new();
    for s in t.spans().iter().filter(|s| !s.tag.is_empty()) {
        *tagged.entry((s.name, s.tag)).or_default() += s.dur_ns() as f64 / 1e6;
    }
    for ((name, tag), ms) in tagged {
        let label = format!("{name}[{tag}]");
        lines.push(format!(
            "share {label:<16} {:>6.1}%  {ms:.1} ms",
            100.0 * ratio(ms, op_ms)
        ));
    }
    lines
}
