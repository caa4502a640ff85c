//! `mobius-analyze`: deterministic critical-path extraction, per-resource
//! blame, and what-if virtual speedups over a recorded [`DagLog`].
//!
//! The engine never re-simulates. It re-walks the dependency DAG recorded
//! by the executor and the cluster ring:
//!
//! 1. **Critical path** — starting from each step's head node (the node
//!    whose end *is* the step boundary), walk backwards: emit the node's
//!    own occupancy segment, then ask *why did it start when it did*. The
//!    answer must be one of its recorded dependency constraints
//!    (`pred.end + lat` or `pred.start + lat`); the binding constraint is
//!    followed, a positive `lat` contributes a latency segment, and the
//!    walk continues from the predecessor. Because the simulator schedules
//!    in integer nanoseconds, the emitted segments tile the step *exactly*:
//!    their lengths sum to the simulated step time (the 1e-6 identity is
//!    satisfied with zero error). Any mismatch — a dropped span, a start
//!    no constraint explains — is a [`AnalyzeError`], which is what makes
//!    the identity a cross-layer validator on strict runs.
//! 2. **Blame & utilization** — per resource: share of critical-path time,
//!    busy time inside the step window (interval union of its occupancies),
//!    and for GPUs a bubble split of the idle time into warmup (before the
//!    first occupancy), drain (after the last), and contention-stall
//!    (interior gaps).
//! 3. **What-if** — for each hardware class (GPU, PCIe, NIC, SSD), re-walk
//!    the DAG *forwards* in sid order (a topological order) with that
//!    class's node durations zeroed, propagating the same constraints. The
//!    new head times bound how much faster the run could be if that class
//!    were infinitely fast. The bound is optimistic (COZ-style): relieving
//!    one resource's contention could slow nothing down, so real speedups
//!    are never larger.
//!
//! All metrics are restricted to nodes *reachable* from the analyzed step
//! heads. Replanning after a fault can abandon attempts whose nodes remain
//! in the log (some still open); they are unreachable from the surviving
//! heads and therefore inert.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::dag::{DagEdge, DagLog, DagNode, ResourceClass, ResourceId};
use crate::json;

/// Why a DAG failed analysis. Every variant indicates a recording bug or a
/// doctored trace — healthy strict runs never produce one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The log contains no DAG nodes.
    NoDag,
    /// The log has nodes but no step boundaries to analyze against.
    NoBoundaries,
    /// A dependency references a sid that was never recorded.
    MissingNode {
        /// The referenced sid.
        sid: u64,
    },
    /// A node on a critical path has no recorded end time.
    OpenNode {
        /// The open node's sid.
        sid: u64,
    },
    /// A step's head node does not end at the recorded boundary time.
    HeadMismatch {
        /// Index of the offending step.
        step: usize,
        /// The head node's end, when closed.
        head_end: Option<u64>,
        /// The boundary time the head was expected to end at.
        boundary_ns: u64,
    },
    /// A node's recorded start is not explained by any of its dependency
    /// constraints — the chain back to time zero is broken (e.g. a span
    /// was dropped from the trace).
    BrokenChain {
        /// The offending node's sid.
        sid: u64,
        /// Its recorded start.
        start_ns: u64,
        /// The tightest constraint the deps do support, when any exist.
        explained_ns: Option<u64>,
    },
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::NoDag => write!(f, "no dependency DAG was recorded"),
            AnalyzeError::NoBoundaries => write!(f, "DAG has no step boundaries"),
            AnalyzeError::MissingNode { sid } => {
                write!(f, "dependency references missing DAG node {sid}")
            }
            AnalyzeError::OpenNode { sid } => {
                write!(f, "DAG node {sid} on the critical path was never closed")
            }
            AnalyzeError::HeadMismatch {
                step,
                head_end,
                boundary_ns,
            } => write!(
                f,
                "step {step}: head node ends at {head_end:?}, boundary is {boundary_ns}"
            ),
            AnalyzeError::BrokenChain {
                sid,
                start_ns,
                explained_ns,
            } => write!(
                f,
                "node {sid} starts at {start_ns} ns but its dependencies only \
                 explain {explained_ns:?} — critical-path identity broken"
            ),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// One segment of a critical path: a half-open occupancy `[start, end)` of
/// a resource key (or a latency class such as `latency:swap-overhead`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Resource key (`gpu0`, `rc0-h2d`, …) or `latency:<label>`.
    pub key: String,
    /// Class label (`gpu`, `pcie`, …) or `latency`.
    pub class: &'static str,
    /// Segment start, simulated ns.
    pub start_ns: u64,
    /// Segment end, simulated ns.
    pub end_ns: u64,
}

/// Busy/idle accounting for one resource inside one step window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Hardware class label of the resource.
    pub class: &'static str,
    /// Total busy ns (interval union of occupancies, clipped to the step).
    pub busy_ns: u64,
    /// Idle ns before the first occupancy (pipeline warmup).
    pub warmup_ns: u64,
    /// Idle ns after the last occupancy (pipeline drain).
    pub drain_ns: u64,
    /// Interior idle ns between occupancies (contention stalls).
    pub stall_ns: u64,
}

/// Attribution for one analyzed step.
#[derive(Debug, Clone)]
pub struct StepAttribution {
    /// Step index (order of the boundaries).
    pub step: usize,
    /// Step window start, simulated ns.
    pub start_ns: u64,
    /// Step window end (the boundary), simulated ns.
    pub end_ns: u64,
    /// Whether the boundary includes cluster gradient synchronization.
    pub cluster: bool,
    /// The critical path, earliest segment first; segment lengths sum to
    /// exactly `end_ns - start_ns`.
    pub path: Vec<Segment>,
    /// Critical-path ns per resource key.
    pub blame: BTreeMap<String, u64>,
    /// Critical-path ns per class label (including `latency`).
    pub class_blame: BTreeMap<&'static str, u64>,
    /// Busy/idle accounting per resource key.
    pub utilization: BTreeMap<String, ResourceUsage>,
    /// Hypothetical step duration (ns) per zeroed hardware class.
    pub whatif_ns: BTreeMap<&'static str, u64>,
}

/// Whole-run attribution: per-step breakdowns plus run-level what-ifs.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-step attributions, in boundary order.
    pub steps: Vec<StepAttribution>,
    /// Total analyzed time (last boundary), ns.
    pub total_ns: u64,
    /// Hypothetical total ns per zeroed hardware class.
    pub whatif_total_ns: BTreeMap<&'static str, u64>,
}

/// Hardware classes eligible for what-if zeroing, in report order.
const WHATIF_CLASSES: [ResourceClass; 5] = [
    ResourceClass::Gpu,
    ResourceClass::Pcie,
    ResourceClass::Nic,
    ResourceClass::Ssd,
    ResourceClass::Ckpt,
];

/// Verifies the critical-path identity on every recorded step without
/// building the full attribution.
///
/// # Errors
///
/// See [`AnalyzeError`]; healthy strict runs never fail.
pub fn verify_identity(dag: &DagLog) -> Result<(), AnalyzeError> {
    for (step, &(lo, hi, head, _)) in windows(dag)?.iter().enumerate() {
        walk(dag, step, lo, hi, head)?;
    }
    Ok(())
}

/// Runs the full analysis: critical paths, blame, utilization, what-ifs.
///
/// # Errors
///
/// See [`AnalyzeError`].
pub fn analyze(dag: &DagLog) -> Result<Analysis, AnalyzeError> {
    let windows = windows(dag)?;
    let reach = reachable(dag, windows.iter().map(|w| w.2))?;

    // What-if forward passes, shared across steps: per class, the new end
    // time of every reachable node with that class's durations zeroed.
    let mut whatif_ends: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for class in WHATIF_CLASSES {
        whatif_ends.insert(class.label(), forward_zeroed(dag, &reach, class)?);
    }

    let mut steps = Vec::with_capacity(windows.len());
    for (step, &(lo, hi, head, cluster)) in windows.iter().enumerate() {
        let path = walk(dag, step, lo, hi, head)?;
        let mut blame: BTreeMap<String, u64> = BTreeMap::new();
        let mut class_blame: BTreeMap<&'static str, u64> = BTreeMap::new();
        for seg in &path {
            let len = seg.end_ns - seg.start_ns;
            *blame.entry(seg.key.clone()).or_insert(0) += len;
            *class_blame.entry(seg.class).or_insert(0) += len;
        }
        let utilization = usage(dag, &reach, lo, hi);
        let mut whatif_ns = BTreeMap::new();
        for (class, ends) in &whatif_ends {
            // Step duration under the zeroed schedule: delta of head ends.
            let new_hi = ends[head as usize];
            let new_lo = if step == 0 {
                0
            } else {
                ends[windows[step - 1].2 as usize]
            };
            whatif_ns.insert(*class, new_hi.saturating_sub(new_lo));
        }
        steps.push(StepAttribution {
            step,
            start_ns: lo,
            end_ns: hi,
            cluster,
            path,
            blame,
            class_blame,
            utilization,
            whatif_ns,
        });
    }

    let total_ns = windows.last().map_or(0, |w| w.1);
    let mut whatif_total_ns = BTreeMap::new();
    for (class, ends) in &whatif_ends {
        let last_head = windows.last().map(|w| w.2).unwrap_or(0);
        whatif_total_ns.insert(*class, ends[last_head as usize]);
    }
    Ok(Analysis {
        steps,
        total_ns,
        whatif_total_ns,
    })
}

/// Step windows `(lo, hi, head_sid, cluster)`. Cluster boundaries, when
/// present, supersede the local pipeline boundaries (they extend each step
/// through gradient synchronization).
fn windows(dag: &DagLog) -> Result<Vec<(u64, u64, u64, bool)>, AnalyzeError> {
    if dag.is_empty() {
        return Err(AnalyzeError::NoDag);
    }
    let (pairs, cluster) = if dag.cluster_boundaries().is_empty() {
        (dag.boundaries(), false)
    } else {
        (dag.cluster_boundaries(), true)
    };
    if pairs.is_empty() {
        return Err(AnalyzeError::NoBoundaries);
    }
    let mut out = Vec::with_capacity(pairs.len());
    let mut lo = 0;
    for &(t, head) in pairs {
        out.push((lo, t, head, cluster));
        lo = t;
    }
    Ok(out)
}

fn node(dag: &DagLog, sid: u64) -> Result<&DagNode, AnalyzeError> {
    dag.node(sid).ok_or(AnalyzeError::MissingNode { sid })
}

/// Backward critical-path walk over `[lo, hi]` from `head`. Returns the
/// segments earliest-first; their lengths sum to exactly `hi - lo`.
fn walk(
    dag: &DagLog,
    step: usize,
    lo: u64,
    hi: u64,
    head: u64,
) -> Result<Vec<Segment>, AnalyzeError> {
    let head_node = node(dag, head)?;
    if head_node.end_ns != Some(hi) {
        return Err(AnalyzeError::HeadMismatch {
            step,
            head_end: head_node.end_ns,
            boundary_ns: hi,
        });
    }
    let mut segments: Vec<Segment> = Vec::new();
    let mut cur = head;
    // True when the current node was entered through an `AfterStart` edge:
    // only its start time matters, its occupancy is off-path.
    let mut at_start = false;
    loop {
        let n = node(dag, cur)?;
        if !at_start {
            let end = n.end_ns.ok_or(AnalyzeError::OpenNode { sid: cur })?;
            if n.start_ns < end {
                segments.push(Segment {
                    key: n.resource.key(),
                    class: n.resource.class().label(),
                    start_ns: n.start_ns,
                    end_ns: end,
                });
            }
        }
        let t = n.start_ns;
        if t <= lo {
            break;
        }
        if n.deps.is_empty() {
            // A source that does not start at (or before) the window floor:
            // nothing explains the elapsed time before it.
            return Err(AnalyzeError::BrokenChain {
                sid: cur,
                start_ns: t,
                explained_ns: None,
            });
        }
        // Find the binding constraint (max over deps; first wins ties so
        // the chosen path is deterministic).
        let mut best: Option<(u64, usize)> = None;
        for (i, d) in n.deps.iter().enumerate() {
            let p = node(dag, d.pred)?;
            let base = match d.edge {
                DagEdge::AfterEnd => p.end_ns.ok_or(AnalyzeError::OpenNode { sid: d.pred })?,
                DagEdge::AfterStart => p.start_ns,
            };
            let c = base + d.lat_ns;
            if best.is_none_or(|(bc, _)| c > bc) {
                best = Some((c, i));
            }
        }
        let (c, i) = best.expect("deps checked non-empty");
        if c != t {
            return Err(AnalyzeError::BrokenChain {
                sid: cur,
                start_ns: t,
                explained_ns: Some(c),
            });
        }
        let d = &n.deps[i];
        if d.lat_ns > 0 {
            segments.push(Segment {
                key: format!("latency:{}", d.label),
                class: "latency",
                start_ns: t - d.lat_ns,
                end_ns: t,
            });
        }
        at_start = d.edge == DagEdge::AfterStart;
        cur = d.pred;
    }
    // The walk emits segments latest-first and may overhang the window
    // floor (the binding chain crosses the previous boundary mid-span).
    segments.reverse();
    let mut clipped = Vec::with_capacity(segments.len());
    for mut s in segments {
        s.start_ns = s.start_ns.max(lo);
        s.end_ns = s.end_ns.min(hi).max(s.start_ns);
        if s.end_ns > s.start_ns {
            clipped.push(s);
        }
    }
    debug_assert_eq!(
        clipped.iter().map(|s| s.end_ns - s.start_ns).sum::<u64>(),
        hi - lo,
        "critical-path segments must tile the step exactly"
    );
    Ok(clipped)
}

/// Sids reachable from the given heads through dependency edges.
fn reachable(dag: &DagLog, heads: impl Iterator<Item = u64>) -> Result<Vec<bool>, AnalyzeError> {
    let mut seen = vec![false; dag.len()];
    let mut stack: Vec<u64> = Vec::new();
    for h in heads {
        node(dag, h)?;
        if !seen[h as usize] {
            seen[h as usize] = true;
            stack.push(h);
        }
    }
    while let Some(sid) = stack.pop() {
        for d in &node(dag, sid)?.deps {
            node(dag, d.pred)?;
            if !seen[d.pred as usize] {
                seen[d.pred as usize] = true;
                stack.push(d.pred);
            }
        }
    }
    Ok(seen)
}

/// Busy/idle accounting per resource key over the step window `[lo, hi]`,
/// restricted to reachable nodes.
fn usage(dag: &DagLog, reach: &[bool], lo: u64, hi: u64) -> BTreeMap<String, ResourceUsage> {
    // Collect clipped occupancy intervals per resource key.
    let mut intervals: BTreeMap<String, (ResourceClass, Vec<(u64, u64)>)> = BTreeMap::new();
    for n in dag.nodes() {
        if !reach[n.sid as usize] {
            continue;
        }
        if matches!(n.resource, ResourceId::Barrier(_)) {
            continue; // zero-width sync points are not occupancies
        }
        let Some(end) = n.end_ns else { continue };
        let (s, e) = (n.start_ns.max(lo), end.min(hi));
        if e <= s {
            continue;
        }
        intervals
            .entry(n.resource.key())
            .or_insert_with(|| (n.resource.class(), Vec::new()))
            .1
            .push((s, e));
    }
    let mut out = BTreeMap::new();
    for (key, (class, mut ivs)) in intervals {
        ivs.sort_unstable();
        let mut busy = 0u64;
        let mut stall = 0u64;
        let first = ivs[0].0;
        let mut cur = ivs[0];
        for &(s, e) in &ivs[1..] {
            if s <= cur.1 {
                cur.1 = cur.1.max(e);
            } else {
                busy += cur.1 - cur.0;
                stall += s - cur.1;
                cur = (s, e);
            }
        }
        busy += cur.1 - cur.0;
        let last = cur.1;
        out.insert(
            key,
            ResourceUsage {
                class: class.label(),
                busy_ns: busy,
                warmup_ns: first - lo,
                drain_ns: hi - last,
                stall_ns: stall,
            },
        );
    }
    out
}

/// Forward pass with one class's node durations zeroed: returns the new
/// end time of every node (unreachable or open nodes keep a zero entry).
fn forward_zeroed(
    dag: &DagLog,
    reach: &[bool],
    zeroed: ResourceClass,
) -> Result<Vec<u64>, AnalyzeError> {
    let mut new_start = vec![0u64; dag.len()];
    let mut new_end = vec![0u64; dag.len()];
    for n in dag.nodes() {
        if !reach[n.sid as usize] {
            continue;
        }
        let mut start = if n.deps.is_empty() { n.start_ns } else { 0 };
        for d in &n.deps {
            let base = match d.edge {
                DagEdge::AfterEnd => new_end[d.pred as usize],
                DagEdge::AfterStart => new_start[d.pred as usize],
            };
            start = start.max(base + d.lat_ns);
        }
        let end = n.end_ns.ok_or(AnalyzeError::OpenNode { sid: n.sid })?;
        let dur = if n.resource.class() == zeroed {
            0
        } else {
            end - n.start_ns
        };
        new_start[n.sid as usize] = start;
        new_end[n.sid as usize] = start + dur;
    }
    Ok(new_end)
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Analysis {
    /// Renders the analysis as deterministic JSON (BTreeMap ordering, plain
    /// integer nanoseconds) suitable for golden-file gating.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"totalNs\":");
        json::push_u64(&mut out, self.total_ns);
        out.push_str(",\"whatifTotalNs\":");
        json::push_object(&mut out, &self.whatif_total_ns, |out, v| {
            json::push_u64(out, *v)
        });
        out.push_str(",\"steps\":");
        json::push_array(&mut out, &self.steps, |out, s| {
            let _ = write!(
                out,
                "{{\"step\":{},\"start\":{},\"end\":{},\"durNs\":{},\"cluster\":{},\"criticalPath\":",
                s.step,
                s.start_ns,
                s.end_ns,
                s.end_ns - s.start_ns,
                s.cluster
            );
            json::push_array(out, &s.path, |out, seg| {
                out.push('[');
                json::push_string(out, &seg.key);
                out.push(',');
                json::push_string(out, seg.class);
                let _ = write!(out, ",{},{}]", seg.start_ns, seg.end_ns);
            });
            out.push_str(",\"blameNs\":");
            json::push_object(out, &s.blame, |out, v| json::push_u64(out, *v));
            out.push_str(",\"classBlameNs\":");
            json::push_object(out, &s.class_blame, |out, v| json::push_u64(out, *v));
            out.push_str(",\"utilization\":");
            json::push_object(out, &s.utilization, |out, u| {
                out.push_str("{\"class\":");
                json::push_string(out, u.class);
                let _ = write!(
                    out,
                    ",\"busy\":{},\"warmup\":{},\"drain\":{},\"stall\":{}}}",
                    u.busy_ns, u.warmup_ns, u.drain_ns, u.stall_ns
                );
            });
            out.push_str(",\"whatifNs\":");
            json::push_object(out, &s.whatif_ns, |out, v| json::push_u64(out, *v));
            out.push('}');
        });
        out.push('}');
        out
    }

    /// Renders a human-readable attribution report.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "mobius-analyze: {} step(s), {:.3} ms total",
            self.steps.len(),
            ns_to_ms(self.total_ns)
        );
        for s in &self.steps {
            let dur = s.end_ns - s.start_ns;
            let _ = writeln!(
                out,
                "\nstep {}  [{:.3} ms .. {:.3} ms]  dur {:.3} ms{}  ({} critical segments)",
                s.step,
                ns_to_ms(s.start_ns),
                ns_to_ms(s.end_ns),
                ns_to_ms(dur),
                if s.cluster { "  (cluster-synced)" } else { "" },
                s.path.len(),
            );
            let _ = writeln!(out, "  critical-path blame by class:");
            for (class, ns) in &s.class_blame {
                let _ = writeln!(
                    out,
                    "    {:<8} {:>10.3} ms  {:>5.1}%",
                    class,
                    ns_to_ms(*ns),
                    pct(*ns, dur)
                );
            }
            let _ = writeln!(out, "  top resources on the critical path:");
            let mut ranked: Vec<(&String, &u64)> = s.blame.iter().collect();
            ranked.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
            for (key, ns) in ranked.iter().take(6) {
                let util = s
                    .utilization
                    .get(*key)
                    .map(|u| pct(u.busy_ns, dur))
                    .unwrap_or(0.0);
                let _ = writeln!(
                    out,
                    "    {:<16} {:>10.3} ms  {:>5.1}% of path  (busy {:>5.1}% of step)",
                    key,
                    ns_to_ms(**ns),
                    pct(**ns, dur),
                    util
                );
            }
            let _ = writeln!(out, "  what-if (class infinitely fast -> step dur):");
            for (class, new_ns) in &s.whatif_ns {
                let speedup = if *new_ns == 0 {
                    f64::INFINITY
                } else {
                    dur as f64 / *new_ns as f64
                };
                let _ = writeln!(
                    out,
                    "    {:<8} {:>10.3} ms  ({speedup:.2}x bound)",
                    class,
                    ns_to_ms(*new_ns)
                );
            }
            // GPU bubble attribution: where each GPU's idle time went.
            let gpus: Vec<(&String, &ResourceUsage)> = s
                .utilization
                .iter()
                .filter(|(_, u)| u.class == "gpu")
                .collect();
            if !gpus.is_empty() {
                let _ = writeln!(out, "  gpu bubbles (warmup / drain / stall):");
                for (key, u) in gpus {
                    let _ = writeln!(
                        out,
                        "    {:<8} busy {:>5.1}%  warmup {:.3} ms  drain {:.3} ms  stall {:.3} ms",
                        key,
                        pct(u.busy_ns, dur),
                        ns_to_ms(u.warmup_ns),
                        ns_to_ms(u.drain_ns),
                        ns_to_ms(u.stall_ns)
                    );
                }
            }
        }
        let _ = writeln!(out, "\nrun what-if bounds (resource infinitely fast):");
        for (class, new_ns) in &self.whatif_total_ns {
            let speedup = if *new_ns == 0 {
                f64::INFINITY
            } else {
                self.total_ns as f64 / *new_ns as f64
            };
            let _ = writeln!(
                out,
                "  {:<8} total {:>10.3} ms  ({speedup:.2}x bound)",
                class,
                ns_to_ms(*new_ns)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagDep;

    /// Two GPUs, one link: c0 on gpu0, a flow after it with 100ns latency,
    /// then c1 on gpu1 after the flow. Head = c1, boundary at its end.
    fn toy() -> DagLog {
        let mut dag = DagLog::new();
        let c0 = dag.open("compute", "c0", ResourceId::Gpu(0), 0, vec![]);
        dag.close(c0, 1_000);
        let f = dag.open(
            "flow",
            "act",
            ResourceId::Link("rc0-h2d".into()),
            1_100,
            vec![DagDep::after_end(c0, 100, "act-latency")],
        );
        dag.close(f, 1_600);
        let c1 = dag.open(
            "compute",
            "c1",
            ResourceId::Gpu(1),
            1_600,
            vec![DagDep::after_end(f, 0, "input")],
        );
        dag.close(c1, 2_600);
        dag.mark_boundary(2_600, c1);
        dag
    }

    #[test]
    fn identity_tiles_the_step_exactly() {
        let dag = toy();
        verify_identity(&dag).unwrap();
        let a = analyze(&dag).unwrap();
        assert_eq!(a.steps.len(), 1);
        let s = &a.steps[0];
        let sum: u64 = s.path.iter().map(|p| p.end_ns - p.start_ns).sum();
        assert_eq!(sum, 2_600);
        assert_eq!(s.blame["gpu0"], 1_000);
        assert_eq!(s.blame["gpu1"], 1_000);
        assert_eq!(s.blame["rc0-h2d"], 500);
        assert_eq!(s.blame["latency:act-latency"], 100);
        assert_eq!(s.class_blame["gpu"], 2_000);
        assert_eq!(s.class_blame["pcie"], 500);
        assert_eq!(s.class_blame["latency"], 100);
    }

    #[test]
    fn whatif_zeroes_one_class() {
        let a = analyze(&toy()).unwrap();
        let s = &a.steps[0];
        // GPU infinitely fast: only flow (500) + latency (100) remain.
        assert_eq!(s.whatif_ns["gpu"], 600);
        // PCIe infinitely fast: computes (2000) + latency (100) remain.
        assert_eq!(s.whatif_ns["pcie"], 2_100);
        // NIC/SSD untouched: identity.
        assert_eq!(s.whatif_ns["nic"], 2_600);
        assert_eq!(s.whatif_ns["ssd"], 2_600);
        assert_eq!(a.whatif_total_ns["gpu"], 600);
    }

    #[test]
    fn utilization_and_bubbles() {
        let a = analyze(&toy()).unwrap();
        let u = &a.steps[0].utilization;
        assert_eq!(u["gpu0"].busy_ns, 1_000);
        assert_eq!(u["gpu0"].warmup_ns, 0);
        assert_eq!(u["gpu0"].drain_ns, 1_600);
        assert_eq!(u["gpu1"].warmup_ns, 1_600);
        assert_eq!(u["gpu1"].drain_ns, 0);
        assert_eq!(u["gpu1"].stall_ns, 0);
        assert_eq!(u["rc0-h2d"].busy_ns, 500);
    }

    #[test]
    fn doctored_dag_breaks_the_chain() {
        let dag = toy();
        // Drop the flow's dependency on c0: its start is now unexplained.
        let mut nodes: Vec<_> = dag.nodes().to_vec();
        nodes[1].deps.clear();
        let doctored = DagLog::from_parts(nodes, dag.boundaries().to_vec(), vec![]);
        match verify_identity(&doctored) {
            Err(AnalyzeError::BrokenChain { sid: 1, .. }) => {}
            other => panic!("expected BrokenChain, got {other:?}"),
        }
    }

    #[test]
    fn shifted_span_breaks_the_chain() {
        let dag = toy();
        let mut nodes: Vec<_> = dag.nodes().to_vec();
        nodes[1].start_ns = 1_050; // flow now starts before its constraint
        let doctored = DagLog::from_parts(nodes, dag.boundaries().to_vec(), vec![]);
        match verify_identity(&doctored) {
            Err(AnalyzeError::BrokenChain {
                sid: 1,
                start_ns: 1_050,
                explained_ns: Some(1_100),
            }) => {}
            other => panic!("expected BrokenChain, got {other:?}"),
        }
    }

    #[test]
    fn head_must_end_at_boundary() {
        let dag = toy();
        let doctored = DagLog::from_parts(dag.nodes().to_vec(), vec![(2_700, 2)], vec![]);
        match verify_identity(&doctored) {
            Err(AnalyzeError::HeadMismatch { step: 0, .. }) => {}
            other => panic!("expected HeadMismatch, got {other:?}"),
        }
    }

    #[test]
    fn after_start_edges_skip_the_pred_occupancy() {
        // prefetch launches when compute STARTS (window-open), so the
        // path through the prefetch must not include the compute span.
        let mut dag = DagLog::new();
        let c = dag.open("compute", "c", ResourceId::Gpu(0), 0, vec![]);
        dag.close(c, 10_000);
        let p = dag.open(
            "flow",
            "prefetch",
            ResourceId::Link("ssd-read".into()),
            2_000,
            vec![DagDep::after_start(c, 2_000, "prefetch-window")],
        );
        dag.close(p, 30_000);
        dag.mark_boundary(30_000, p);
        let a = analyze(&dag).unwrap();
        let s = &a.steps[0];
        assert_eq!(s.class_blame["ssd"], 28_000);
        assert_eq!(s.class_blame["latency"], 2_000);
        assert!(!s.class_blame.contains_key("gpu"));
    }

    #[test]
    fn multi_step_windows_chain() {
        let mut dag = DagLog::new();
        let a = dag.open("compute", "a", ResourceId::Gpu(0), 0, vec![]);
        dag.close(a, 1_000);
        dag.mark_boundary(1_000, a);
        let b = dag.open(
            "compute",
            "b",
            ResourceId::Gpu(0),
            1_000,
            vec![DagDep::after_end(a, 0, "order")],
        );
        dag.close(b, 3_000);
        dag.mark_boundary(3_000, b);
        let an = analyze(&dag).unwrap();
        assert_eq!(an.steps.len(), 2);
        assert_eq!(an.steps[1].start_ns, 1_000);
        let sum: u64 = an.steps[1].path.iter().map(|p| p.end_ns - p.start_ns).sum();
        assert_eq!(sum, 2_000);
        assert_eq!(an.total_ns, 3_000);
    }

    #[test]
    fn unreachable_nodes_are_inert() {
        let mut dag = toy();
        // An abandoned replan attempt: open-ended node, overlapping times.
        dag.open("compute", "stale", ResourceId::Gpu(7), 500, vec![]);
        let a = analyze(&dag).unwrap();
        assert!(!a.steps[0].utilization.contains_key("gpu7"));
        verify_identity(&dag).unwrap();
    }

    #[test]
    fn render_outputs_are_deterministic() {
        let a1 = analyze(&toy()).unwrap().to_json();
        let a2 = analyze(&toy()).unwrap().to_json();
        assert_eq!(a1, a2);
        assert!(a1.contains("\"criticalPath\""));
        let table = analyze(&toy()).unwrap().render_table();
        assert!(table.contains("what-if"));
        assert!(table.contains("gpu bubbles"));
    }
}
