//! Typed resources and the recorded dependency DAG behind `mobius-analyze`.
//!
//! While spans answer *what happened when*, the DAG answers *why*: every
//! node is one occupancy of a typed resource (a compute cell on a GPU, a
//! flow on its bottleneck link, a ring-round barrier) and every edge is one
//! scheduling rule of the executor ("this compute waited for its stage
//! upload plus the swap overhead"). Because an edge's constraint time is
//! exact integer nanoseconds, the recorded start of a node must *equal* the
//! maximum over its dependency constraints — which is what lets
//! [`crate::analyze`] reconstruct the critical path as an exact tiling of
//! the step and treat any mismatch as a validation failure.
//!
//! Nodes are identified by monotonically increasing `sid`s handed out by
//! [`DagLog::open`]; dependencies may only reference already-opened nodes,
//! so predecessor sids are always smaller than successor sids and sid order
//! is a topological order.

use std::fmt::Write as _;

use crate::json::{self, Value};

/// The typed resource a DAG node occupies.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ResourceId {
    /// A GPU's compute engine.
    Gpu(usize),
    /// A named simplex link (PCIe lane, root complex, NVLink, NIC, switch
    /// fabric, SSD channel) — the *bottleneck* link of a flow's path.
    Link(String),
    /// A whole remote server mirrored without instrumentation (a cluster
    /// replica whose pipeline ran as an uninstrumented shadow).
    Server(usize),
    /// A zero-width synchronization point (ring-round barriers).
    Barrier(String),
}

/// Coarse hardware class of a [`ResourceId`], the granularity of the
/// what-if virtual speedups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ResourceClass {
    /// GPU compute.
    Gpu,
    /// PCIe lanes, root complexes, and NVLink.
    Pcie,
    /// Network interfaces.
    Nic,
    /// The cluster switch fabric.
    Switch,
    /// SSD read/write channels.
    Ssd,
    /// Checkpoint persistence (DRAM staging + SSD write of run state).
    Ckpt,
    /// An uninstrumented mirror replica.
    Server,
    /// Zero-width synchronization.
    Sync,
}

impl ResourceClass {
    /// Stable lowercase label used in JSON output and blame tables.
    pub fn label(self) -> &'static str {
        match self {
            ResourceClass::Gpu => "gpu",
            ResourceClass::Pcie => "pcie",
            ResourceClass::Nic => "nic",
            ResourceClass::Switch => "switch",
            ResourceClass::Ssd => "ssd",
            ResourceClass::Ckpt => "ckpt",
            ResourceClass::Server => "server",
            ResourceClass::Sync => "sync",
        }
    }
}

impl ResourceId {
    /// Classifies the resource. Links classify by label: checkpoint
    /// channels start with `ckpt`, NICs contain `nic`, the switch contains
    /// `switch` or `fabric`, SSD channels start with `ssd`, everything
    /// else is PCIe-side (lanes, root complexes, NVLink).
    pub fn class(&self) -> ResourceClass {
        match self {
            ResourceId::Gpu(_) => ResourceClass::Gpu,
            ResourceId::Server(_) => ResourceClass::Server,
            ResourceId::Barrier(_) => ResourceClass::Sync,
            ResourceId::Link(l) => {
                if l.starts_with("ckpt") {
                    ResourceClass::Ckpt
                } else if l.contains("nic") {
                    ResourceClass::Nic
                } else if l.contains("switch") || l.contains("fabric") {
                    ResourceClass::Switch
                } else if l.starts_with("ssd") {
                    ResourceClass::Ssd
                } else {
                    ResourceClass::Pcie
                }
            }
        }
    }

    /// Stable string key for blame tables (`gpu0`, `rc0-h2d`, `server1`,
    /// `sync:ring-b0-r3`).
    pub fn key(&self) -> String {
        match self {
            ResourceId::Gpu(g) => format!("gpu{g}"),
            ResourceId::Link(l) => l.clone(),
            ResourceId::Server(s) => format!("server{s}"),
            ResourceId::Barrier(b) => format!("sync:{b}"),
        }
    }

    /// Appends the tagged round-trip encoding used by the trace JSON
    /// (`"gpu:0"`, `"link:rc0-h2d"`) as a JSON string.
    fn push_encoded(&self, out: &mut String) {
        out.push('"');
        match self {
            ResourceId::Gpu(g) => {
                let _ = write!(out, "gpu:{g}");
            }
            ResourceId::Link(l) => {
                out.push_str("link:");
                json::push_escaped(out, l);
            }
            ResourceId::Server(s) => {
                let _ = write!(out, "server:{s}");
            }
            ResourceId::Barrier(b) => {
                out.push_str("barrier:");
                json::push_escaped(out, b);
            }
        }
        out.push('"');
    }

    fn decode(s: &str) -> Option<ResourceId> {
        let (tag, rest) = s.split_once(':')?;
        match tag {
            "gpu" => rest.parse().ok().map(ResourceId::Gpu),
            "link" => Some(ResourceId::Link(rest.to_string())),
            "server" => rest.parse().ok().map(ResourceId::Server),
            "barrier" => Some(ResourceId::Barrier(rest.to_string())),
            _ => None,
        }
    }
}

/// How a dependency constrains its successor's start time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagEdge {
    /// `succ.start ≥ pred.end + lat` — data or ordering dependencies.
    AfterEnd,
    /// `succ.start ≥ pred.start + lat` — window-opening triggers (a
    /// prefetch may launch the moment the covering compute *starts*).
    AfterStart,
}

/// One dependency edge of a [`DagNode`].
#[derive(Debug, Clone, PartialEq)]
pub struct DagDep {
    /// Predecessor node (always a smaller sid).
    pub pred: u64,
    /// Fixed latency added to the predecessor's constraint time, in
    /// nanoseconds (swap overhead, activation latency, retry backoff).
    pub lat_ns: u64,
    /// Whether the constraint anchors on the predecessor's end or start.
    pub edge: DagEdge,
    /// Human label for the latency class (`"swap-overhead"`,
    /// `"act-latency"`, `"retry-backoff"`, or a plain edge name).
    pub label: String,
}

impl DagDep {
    /// Convenience constructor for the common `AfterEnd` edge.
    pub fn after_end(pred: u64, lat_ns: u64, label: &str) -> DagDep {
        DagDep {
            pred,
            lat_ns,
            edge: DagEdge::AfterEnd,
            label: label.to_string(),
        }
    }

    /// Convenience constructor for an `AfterStart` edge.
    pub fn after_start(pred: u64, lat_ns: u64, label: &str) -> DagDep {
        DagDep {
            pred,
            lat_ns,
            edge: DagEdge::AfterStart,
            label: label.to_string(),
        }
    }
}

/// One resource occupancy: a compute cell, a transfer on its bottleneck
/// link, a mirror replica's production window, or a zero-width barrier.
#[derive(Debug, Clone)]
pub struct DagNode {
    /// Node id; sid order is a topological order of the DAG.
    pub sid: u64,
    /// Category (`"compute"`, `"flow"`, `"barrier"`, `"mirror"`).
    pub cat: String,
    /// Display name.
    pub name: String,
    /// The resource this node occupies.
    pub resource: ResourceId,
    /// Start time in simulated nanoseconds.
    pub start_ns: u64,
    /// End time; `None` while the occupancy is still open (a cancelled
    /// attempt may leave nodes open — they can never sit on a verified
    /// critical path).
    pub end_ns: Option<u64>,
    /// Scheduling constraints that explain `start_ns`.
    pub deps: Vec<DagDep>,
}

/// Append-only dependency DAG plus the step boundaries to analyze against.
#[derive(Debug, Clone, Default)]
pub struct DagLog {
    nodes: Vec<DagNode>,
    boundaries: Vec<(u64, u64)>,
    cluster_boundaries: Vec<(u64, u64)>,
}

impl DagLog {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        DagLog::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no node was recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Opens a node and returns its sid. Dependencies must reference
    /// already-opened nodes (smaller sids).
    ///
    /// # Panics
    ///
    /// In debug builds, panics when a dependency references a not-yet-opened
    /// node — that would break the sid-order topology the analyzer relies
    /// on.
    pub fn open(
        &mut self,
        cat: &str,
        name: impl Into<String>,
        resource: ResourceId,
        start_ns: u64,
        deps: Vec<DagDep>,
    ) -> u64 {
        let sid = self.nodes.len() as u64;
        debug_assert!(
            deps.iter().all(|d| d.pred < sid),
            "DAG dependency on a not-yet-opened node"
        );
        self.nodes.push(DagNode {
            sid,
            cat: cat.to_string(),
            name: name.into(),
            resource,
            start_ns,
            end_ns: None,
            deps,
        });
        sid
    }

    /// Closes node `sid` at `end_ns`.
    ///
    /// # Panics
    ///
    /// Panics when `sid` was never opened.
    pub fn close(&mut self, sid: u64, end_ns: u64) {
        let n = &mut self.nodes[sid as usize];
        debug_assert!(n.end_ns.is_none(), "DAG node {sid} closed twice");
        n.end_ns = Some(end_ns);
    }

    /// Records a local (single-server pipeline) step boundary: the step
    /// ended at `t_ns` and `head_sid` is the node whose end *is* the
    /// boundary (the last backward compute).
    pub fn mark_boundary(&mut self, t_ns: u64, head_sid: u64) {
        self.boundaries.push((t_ns, head_sid));
    }

    /// Records a cluster-synchronized step boundary (gradient sync
    /// included); when present these supersede the local boundaries for
    /// analysis.
    pub fn mark_cluster_boundary(&mut self, t_ns: u64, head_sid: u64) {
        self.cluster_boundaries.push((t_ns, head_sid));
    }

    /// All nodes in sid order.
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// Node by sid, when it exists.
    pub fn node(&self, sid: u64) -> Option<&DagNode> {
        self.nodes.get(sid as usize)
    }

    /// Local step boundaries as `(t_ns, head_sid)` pairs.
    pub fn boundaries(&self) -> &[(u64, u64)] {
        &self.boundaries
    }

    /// Cluster-synchronized step boundaries as `(t_ns, head_sid)` pairs.
    pub fn cluster_boundaries(&self) -> &[(u64, u64)] {
        &self.cluster_boundaries
    }

    /// Assembles a DAG from raw parts (tests, doctored-trace checks).
    pub fn from_parts(
        nodes: Vec<DagNode>,
        boundaries: Vec<(u64, u64)>,
        cluster_boundaries: Vec<(u64, u64)>,
    ) -> DagLog {
        DagLog {
            nodes,
            boundaries,
            cluster_boundaries,
        }
    }

    /// Renders the DAG as the deterministic JSON object embedded in the
    /// Chrome trace under the top-level `mobiusDag` key.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends [`DagLog::to_json`]'s bytes to `out`, so the Chrome
    /// exporter embeds the DAG without an intermediate copy.
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"nodes\":");
        json::push_array(out, &self.nodes, |out, n| {
            out.push_str("{\"sid\":");
            json::push_u64(out, n.sid);
            out.push_str(",\"cat\":");
            json::push_string(out, &n.cat);
            out.push_str(",\"name\":");
            json::push_string(out, &n.name);
            out.push_str(",\"res\":");
            n.resource.push_encoded(out);
            out.push_str(",\"start\":");
            json::push_u64(out, n.start_ns);
            if let Some(end) = n.end_ns {
                out.push_str(",\"end\":");
                json::push_u64(out, end);
            }
            out.push_str(",\"deps\":");
            json::push_array(out, &n.deps, |out, d| {
                let edge = match d.edge {
                    DagEdge::AfterEnd => 'e',
                    DagEdge::AfterStart => 's',
                };
                let _ = write!(out, "[{},{},\"{edge}\",", d.pred, d.lat_ns);
                json::push_string(out, &d.label);
                out.push(']');
            });
            out.push('}');
        });
        out.push_str(",\"boundaries\":");
        push_pairs(out, &self.boundaries);
        out.push_str(",\"cluster\":");
        push_pairs(out, &self.cluster_boundaries);
        out.push('}');
    }

    /// Rebuilds a DAG from the parsed `mobiusDag` JSON value (the inverse
    /// of [`DagLog::to_json`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json_value(v: &Value) -> Result<DagLog, String> {
        let nodes_v = v
            .get("nodes")
            .and_then(Value::as_array)
            .ok_or("mobiusDag.nodes missing")?;
        let mut nodes = Vec::with_capacity(nodes_v.len());
        for (i, nv) in nodes_v.iter().enumerate() {
            let field = |k: &str| nv.get(k).ok_or_else(|| format!("node {i}: missing {k}"));
            let sid = field("sid")?.as_u64().ok_or(format!("node {i}: bad sid"))?;
            let cat = field("cat")?
                .as_str()
                .ok_or(format!("node {i}: bad cat"))?
                .to_string();
            let name = field("name")?
                .as_str()
                .ok_or(format!("node {i}: bad name"))?
                .to_string();
            let res = field("res")?.as_str().ok_or(format!("node {i}: bad res"))?;
            let resource =
                ResourceId::decode(res).ok_or(format!("node {i}: unknown resource `{res}`"))?;
            let start_ns = field("start")?
                .as_u64()
                .ok_or(format!("node {i}: bad start"))?;
            let end_ns = match nv.get("end") {
                Some(e) => Some(e.as_u64().ok_or(format!("node {i}: bad end"))?),
                None => None,
            };
            let deps_v = field("deps")?
                .as_array()
                .ok_or(format!("node {i}: bad deps"))?;
            let mut deps = Vec::with_capacity(deps_v.len());
            for dv in deps_v {
                let d = dv.as_array().ok_or(format!("node {i}: bad dep"))?;
                if d.len() != 4 {
                    return Err(format!("node {i}: dep arity {}", d.len()));
                }
                let edge = match d[2].as_str() {
                    Some("e") => DagEdge::AfterEnd,
                    Some("s") => DagEdge::AfterStart,
                    _ => return Err(format!("node {i}: bad dep edge")),
                };
                deps.push(DagDep {
                    pred: d[0].as_u64().ok_or(format!("node {i}: bad dep pred"))?,
                    lat_ns: d[1].as_u64().ok_or(format!("node {i}: bad dep lat"))?,
                    edge,
                    label: d[3]
                        .as_str()
                        .ok_or(format!("node {i}: bad dep label"))?
                        .to_string(),
                });
            }
            nodes.push(DagNode {
                sid,
                cat,
                name,
                resource,
                start_ns,
                end_ns,
                deps,
            });
        }
        let pairs = |k: &str| -> Result<Vec<(u64, u64)>, String> {
            match v.get(k) {
                None => Ok(Vec::new()),
                Some(pv) => {
                    let arr = pv
                        .as_array()
                        .ok_or(format!("mobiusDag.{k}: not an array"))?;
                    arr.iter()
                        .map(|e| {
                            let p = e.as_array().filter(|p| p.len() == 2);
                            match p {
                                Some(p) => match (p[0].as_u64(), p[1].as_u64()) {
                                    (Some(t), Some(sid)) => Ok((t, sid)),
                                    _ => Err(format!("mobiusDag.{k}: bad pair")),
                                },
                                None => Err(format!("mobiusDag.{k}: bad pair")),
                            }
                        })
                        .collect()
                }
            }
        };
        Ok(DagLog {
            nodes,
            boundaries: pairs("boundaries")?,
            cluster_boundaries: pairs("cluster")?,
        })
    }
}

/// Appends `(t_ns, sid)` pairs as a JSON array of two-element arrays.
fn push_pairs(out: &mut String, pairs: &[(u64, u64)]) {
    json::push_array(out, pairs, |out, (t, sid)| {
        let _ = write!(out, "[{t},{sid}]");
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_links_by_label() {
        assert_eq!(ResourceId::Gpu(2).class(), ResourceClass::Gpu);
        for (label, class) in [
            ("rc0-h2d", ResourceClass::Pcie),
            ("gpu1-lane-d2h", ResourceClass::Pcie),
            ("gpu0-nv-out", ResourceClass::Pcie),
            ("srv2-nic-tx", ResourceClass::Nic),
            ("switch-fabric", ResourceClass::Switch),
            ("ssd-read", ResourceClass::Ssd),
            ("ckpt-ssd", ResourceClass::Ckpt),
            ("ckpt-dram", ResourceClass::Ckpt),
        ] {
            assert_eq!(
                ResourceId::Link(label.into()).class(),
                class,
                "label {label}"
            );
        }
        assert_eq!(ResourceId::Server(1).class(), ResourceClass::Server);
        assert_eq!(
            ResourceId::Barrier("ring".into()).class(),
            ResourceClass::Sync
        );
    }

    #[test]
    fn sids_are_topological() {
        let mut dag = DagLog::new();
        let a = dag.open("compute", "a", ResourceId::Gpu(0), 0, vec![]);
        let b = dag.open(
            "flow",
            "b",
            ResourceId::Link("rc0-h2d".into()),
            5,
            vec![DagDep::after_end(a, 0, "order")],
        );
        assert!(a < b);
        dag.close(a, 5);
        dag.close(b, 9);
        assert_eq!(dag.node(b).unwrap().end_ns, Some(9));
    }

    #[test]
    fn json_round_trips() {
        let mut dag = DagLog::new();
        let a = dag.open("compute", "fwd s0 mb0", ResourceId::Gpu(0), 0, vec![]);
        dag.close(a, 100);
        let b = dag.open(
            "flow",
            "stage-upload",
            ResourceId::Link("rc0-h2d".into()),
            100,
            vec![DagDep::after_start(a, 100, "swap-overhead")],
        );
        dag.close(b, 250);
        dag.mark_boundary(250, b);
        dag.mark_cluster_boundary(400, b);
        let text = dag.to_json();
        let v = crate::json::parse(&text).unwrap();
        let back = DagLog::from_json_value(&v).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.boundaries(), &[(250, b)]);
        assert_eq!(back.cluster_boundaries(), &[(400, b)]);
        let n = back.node(b).unwrap();
        assert_eq!(n.resource, ResourceId::Link("rc0-h2d".into()));
        assert_eq!(n.deps[0].edge, DagEdge::AfterStart);
        assert_eq!(n.deps[0].lat_ns, 100);
        assert_eq!(n.end_ns, Some(250));
    }
}
