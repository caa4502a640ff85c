//! # mobius-cluster
//!
//! Hierarchical data parallelism for the Mobius (ASPLOS '23) reproduction:
//! one Mobius pipeline replica per server, gradients synchronized across
//! servers with a bucketed **ring all-reduce** executed on the modeled NIC
//! fabric of a [`Cluster`].
//!
//! Mobius already flushes every stage's gradients to DRAM for the CPU
//! optimizer, so cross-server synchronization never touches the GPU PCIe
//! lanes: the data path is DRAM → NIC → switch → NIC → DRAM, simulated on a
//! [`mobius_topology::ClusterNetwork`] so NIC and switch contention are
//! measured, not assumed. Buckets are synchronized in stage-flush order and
//! overlap with the backward pass: a bucket's ring starts as soon as every
//! replica has flushed it (and the ring is free), not at the step boundary.
//!
//! The ring all-reduce obeys a closed-form traffic identity: with `n`
//! servers and `G` gradient bytes, every server transmits exactly
//! `2·(n−1)/n · G` bytes per step — `(n−1)` reduce-scatter rounds plus
//! `(n−1)` all-gather rounds of `G/n`-byte chunks. [`verify_ring_identity`]
//! checks a finished run against this independently computed bound; the
//! strict validation mode panics on any drift.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod validate;

pub use validate::{expected_ring_traffic, verify_ring_identity, RingTrafficViolation};

use std::error::Error;
use std::fmt;

use mobius_obs::{AttrValue, DagDep, DagRecorder, Lane, Obs, ResourceId};
use mobius_sim::{ClockOverflow, CommKind, SimTime, TraceRecorder};
use mobius_topology::{Cluster, ClusterNetwork};

/// Priority of gradient-synchronization flows on the fabric (the fabric
/// carries nothing else today, but the constant keeps ordering explicit
/// when future collectives share it).
const SYNC_PRIO: u8 = 60;

/// One data-parallel replica's gradient production timeline: per bucket,
/// how many bytes it contributes and when the bucket finished flushing to
/// DRAM. For a Mobius replica a bucket is one pipeline stage and the ready
/// time is the stage's gradient-flush completion.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaTiming {
    /// Gradient bytes per bucket (identical across replicas — they train
    /// the same model).
    pub bucket_bytes: Vec<f64>,
    /// When each bucket's gradients reached DRAM on this replica.
    pub ready: Vec<SimTime>,
    /// Dependency-DAG node ids (in the caller's [`Obs`]) of each bucket's
    /// gradient flush, when the producing pipeline was instrumented. Either
    /// empty (no instrumentation) or one entry per bucket; `None` entries
    /// fall back to an uninstrumented mirror node on the server's lane.
    pub ready_sids: Vec<Option<u64>>,
}

impl ReplicaTiming {
    /// Total gradient bytes across all buckets.
    pub fn total_bytes(&self) -> f64 {
        self.bucket_bytes.iter().sum()
    }

    /// Collapses the replica to a single whole-model bucket, ready when the
    /// last original bucket flushed. Used when replicas disagree on bucket
    /// structure (e.g. one server replanned after a GPU loss): the total
    /// gradient is the same, so a single aligned bucket keeps the ring
    /// well-defined at the cost of backward overlap for that step.
    pub fn collapsed(&self) -> ReplicaTiming {
        let ready = self.ready.iter().copied().max().unwrap_or(SimTime::ZERO);
        // The collapsed bucket is ready when its latest constituent is, so
        // it inherits that bucket's flush node (first on ties).
        let ready_sids = if self.ready_sids.len() == self.ready.len() {
            match self.ready.iter().position(|&t| t == ready) {
                Some(i) => vec![self.ready_sids[i]],
                None => vec![None],
            }
        } else {
            Vec::new()
        };
        ReplicaTiming {
            bucket_bytes: vec![self.total_bytes()],
            ready: vec![ready],
            ready_sids,
        }
    }
}

/// Configuration of a cluster gradient synchronization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterDpConfig {
    /// Debug mode: run the fabric with flow-conservation checking and
    /// verify the measured per-server traffic against the closed-form ring
    /// identity ([`verify_ring_identity`]). Violations panic.
    pub strict_validation: bool,
}

/// Result of one cross-server gradient synchronization.
#[derive(Debug, Clone)]
pub struct ClusterSyncReport {
    /// When the last all-gather round of the last bucket completed.
    pub sync_done: SimTime,
    /// Per bucket: when its ring finished.
    pub bucket_done: Vec<SimTime>,
    /// Bytes each server transmitted onto the fabric (the quantity the
    /// ring identity bounds).
    pub per_server_tx: Vec<f64>,
    /// Bytes each server received from the fabric.
    pub per_server_rx: Vec<f64>,
    /// Bandwidth samples and traffic counters for the fabric flows.
    pub trace: TraceRecorder,
    /// Dependency-DAG node id (in the caller's [`Obs`]) of the final ring
    /// barrier — it ends exactly at `sync_done`, so a cluster step whose
    /// boundary is the synchronization can use it as the step head.
    pub head_sid: Option<u64>,
}

/// Why a synchronization could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterSyncError {
    /// Fewer than two servers: there is nothing to synchronize (callers
    /// must structurally skip the degenerate case so a 1-server cluster
    /// stays bit-identical to a plain single-server run).
    DegenerateCluster,
    /// The replica list does not match the cluster's server count.
    ReplicaCountMismatch {
        /// Replicas supplied.
        replicas: usize,
        /// Servers in the cluster.
        servers: usize,
    },
    /// A replica's bucket structure differs from replica 0's (collapse the
    /// replicas with [`ReplicaTiming::collapsed`] first).
    BucketMismatch {
        /// The replica that disagrees.
        server: usize,
    },
    /// A ring chunk cannot finish inside the simulated clock: the fabric is
    /// so slow that its completion instant saturates at [`SimTime::MAX`]
    /// ([`ClockOverflow`]).
    ClockOverflow {
        /// The server that sent the chunk.
        server: usize,
        /// Bytes still pending when the clock saturated.
        remaining: f64,
    },
}

impl fmt::Display for ClusterSyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterSyncError::DegenerateCluster => {
                write!(f, "a 1-server cluster has nothing to synchronize")
            }
            ClusterSyncError::ReplicaCountMismatch { replicas, servers } => write!(
                f,
                "{replicas} replica timings supplied for {servers} servers"
            ),
            ClusterSyncError::BucketMismatch { server } => write!(
                f,
                "replica {server} disagrees on bucket structure; collapse replicas first"
            ),
            ClusterSyncError::ClockOverflow { server, remaining } => write!(
                f,
                "server {server}'s ring chunk cannot finish inside the simulated clock: \
                 {remaining:.0} bytes still pending when it saturated (a fabric link is too slow)"
            ),
        }
    }
}

impl Error for ClusterSyncError {}

/// A ring chunk's tag is `(source server, destination server, DAG node)`.
impl From<ClockOverflow<(usize, usize, Option<u64>)>> for ClusterSyncError {
    fn from(o: ClockOverflow<(usize, usize, Option<u64>)>) -> Self {
        ClusterSyncError::ClockOverflow {
            server: o.tag.0,
            remaining: o.remaining,
        }
    }
}

/// Simulates the bucketed ring all-reduce of one training step's gradients
/// across `cluster`'s servers, on the cluster's NIC/switch fabric.
///
/// `replicas[s]` is server `s`'s gradient timeline; all replicas must share
/// one bucket structure (byte-for-byte — they train the same model). The
/// collective is synchronous per bucket: a bucket's ring starts at the
/// latest of its flush times across servers (straggler effect) and after
/// the previous bucket's ring finished (one logical ring channel). Each of
/// the `2·(n−1)` rounds moves a `bytes/n` chunk from every server to its
/// successor simultaneously, so NIC and switch contention shape the
/// measured round time.
///
/// # Errors
///
/// [`ClusterSyncError::DegenerateCluster`] for fewer than two servers,
/// [`ClusterSyncError::ReplicaCountMismatch`] /
/// [`ClusterSyncError::BucketMismatch`] for malformed replica lists,
/// [`ClusterSyncError::ClockOverflow`] when a chunk cannot finish inside
/// the simulated clock.
///
/// # Panics
///
/// With `cfg.strict_validation`, panics when the measured per-server
/// traffic drifts from the closed-form ring identity.
///
/// # Examples
///
/// ```
/// use mobius_cluster::{simulate_ring_allreduce, ClusterDpConfig, ReplicaTiming};
/// use mobius_sim::SimTime;
/// use mobius_topology::{Cluster, GpuSpec, Topology};
///
/// let server = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
/// let cluster = Cluster::new(server, 4, 12.5);
/// let replica = ReplicaTiming {
///     bucket_bytes: vec![1e9, 1e9],
///     ready: vec![SimTime::from_millis(10), SimTime::from_millis(30)],
///     ready_sids: vec![],
/// };
/// let rep = simulate_ring_allreduce(
///     &cluster,
///     &vec![replica; 4],
///     &ClusterDpConfig { strict_validation: true },
///     None,
/// )?;
/// // Each server sent exactly 2·(4−1)/4 · 2 GB = 3 GB.
/// assert!((rep.per_server_tx[0] - 3e9).abs() < 1.0);
/// # Ok::<(), mobius_cluster::ClusterSyncError>(())
/// ```
pub fn simulate_ring_allreduce(
    cluster: &Cluster,
    replicas: &[ReplicaTiming],
    cfg: &ClusterDpConfig,
    obs: Option<&Obs>,
) -> Result<ClusterSyncReport, ClusterSyncError> {
    let n = cluster.num_servers();
    if n < 2 {
        return Err(ClusterSyncError::DegenerateCluster);
    }
    if replicas.len() != n {
        return Err(ClusterSyncError::ReplicaCountMismatch {
            replicas: replicas.len(),
            servers: n,
        });
    }
    for (s, r) in replicas.iter().enumerate() {
        if r.bucket_bytes != replicas[0].bucket_bytes
            || r.ready.len() != r.bucket_bytes.len()
            || !(r.ready_sids.is_empty() || r.ready_sids.len() == r.bucket_bytes.len())
        {
            return Err(ClusterSyncError::BucketMismatch { server: s });
        }
    }

    let mut net = ClusterNetwork::new(cluster);
    if cfg.strict_validation {
        net.net_mut().set_strict_validation(true);
    }
    let mut trace = TraceRecorder::new();
    // Labels and base capacities are supplied unconditionally so bottleneck
    // attribution works even on strict-but-untraced runs.
    trace.set_link_labels(net.net().link_labels());
    let caps: Vec<f64> = net
        .net()
        .link_ids()
        .into_iter()
        .map(|l| net.net().link_capacity(l))
        .collect();
    trace.set_link_capacities(caps);
    if let Some(obs) = obs {
        trace.set_obs(obs.clone());
        net.net_mut().set_obs(obs.clone());
    }
    // The dependency DAG goes to the caller's recorder when one is attached
    // (so ready_sids resolve and the finetuner can verify the whole step);
    // strict runs without an observer get a private ring-only DAG whose
    // critical-path identity is verified before returning.
    let recorder = DagRecorder::new(obs, cfg.strict_validation);

    let buckets = replicas[0].bucket_bytes.len();
    let mut per_server_tx = vec![0.0; n];
    let mut per_server_rx = vec![0.0; n];
    let mut bucket_done = Vec::with_capacity(buckets);
    let mut now = SimTime::ZERO;
    // The DAG node every subsequent ring event chains after: the previous
    // bucket's (or round's) zero-width barrier.
    let mut prev_barrier: Option<u64> = None;

    for b in 0..buckets {
        let bytes = replicas[0].bucket_bytes[b];
        let ready = replicas
            .iter()
            .map(|r| r.ready[b])
            .max()
            .unwrap_or(SimTime::ZERO);
        let start = now.max(ready);
        // Zero-width bucket barrier: starts (and ends) at `start`, after the
        // previous barrier and after every replica's bucket flush. Emitted
        // even for empty buckets so the single-channel ordering stays in the
        // DAG. Exactness: start == max(prev ring time, max replica ready),
        // which is exactly the max over the AfterEnd constraints.
        if let Some(dag) = recorder.obs() {
            let mut deps = Vec::new();
            if let Some(p) = prev_barrier {
                deps.push(DagDep::after_end(p, 0, "ring-order"));
            }
            for (s, r) in replicas.iter().enumerate() {
                let flush = if recorder.is_public() {
                    r.ready_sids.get(b).copied().flatten()
                } else {
                    // A private ring-only DAG cannot reference the caller's
                    // pipeline nodes.
                    None
                };
                let pred = flush.unwrap_or_else(|| {
                    // Mirror of an uninstrumented replica: it produced this
                    // bucket's gradients over [0, ready] on its own server.
                    let m = dag.dag_open(
                        "mirror",
                        format!("produce b{b}"),
                        ResourceId::Server(s),
                        0,
                        vec![],
                    );
                    dag.dag_close(m, r.ready[b].as_nanos());
                    m
                });
                deps.push(DagDep::after_end(pred, 0, "bucket-ready"));
            }
            let sid = dag.dag_open(
                "barrier",
                format!("ring b{b} start"),
                ResourceId::Barrier(format!("ring-b{b}")),
                start.as_nanos(),
                deps,
            );
            dag.dag_close(sid, start.as_nanos());
            prev_barrier = Some(sid);
        }
        if bytes <= 0.0 {
            now = start;
            bucket_done.push(now);
            continue;
        }
        net.net_mut().advance_to(start);
        now = start;
        let chunk = bytes / n as f64;
        // (n−1) reduce-scatter rounds then (n−1) all-gather rounds; both
        // move one chunk per server per round around the ring.
        for round in 0..2 * (n - 1) {
            let mut round_sids: Vec<u64> = Vec::new();
            for s in 0..n {
                let to = (s + 1) % n;
                let path = net
                    .server_to_server(s, to)
                    .expect("ring neighbours are distinct");
                // Each round's chunks launch the instant the previous
                // barrier resolves, so the AfterEnd constraint is tight.
                let fsid = recorder.obs().map(|dag| {
                    let deps = prev_barrier
                        .map(|p| vec![DagDep::after_end(p, 0, "ring-round")])
                        .unwrap_or_default();
                    let label = trace.bottleneck_label(&path).unwrap_or("unknown");
                    let sid = dag.dag_open(
                        "flow",
                        format!("grad-reduce b{b} r{round} s{s}"),
                        ResourceId::Link(label.to_string()),
                        now.as_nanos(),
                        deps,
                    );
                    round_sids.push(sid);
                    sid
                });
                net.net_mut()
                    .start_flow(path, chunk, SYNC_PRIO, (s, to, fsid));
            }
            while let Some((_, rec, (src, dst, fsid))) = mobius_sim::step_flows(net.net_mut())? {
                now = rec.finished;
                per_server_tx[src] += rec.bytes;
                per_server_rx[dst] += rec.bytes;
                if let (Some(dag), Some(fs)) = (recorder.obs(), fsid) {
                    dag.dag_close(fs, now.as_nanos());
                }
                trace.record_flow(&rec, CommKind::GradientReduce, &[]);
            }
            // Zero-width round barrier at the drain instant: the ring's next
            // round cannot launch until every chunk of this one landed.
            if let Some(dag) = recorder.obs() {
                let deps = round_sids
                    .iter()
                    .map(|&f| DagDep::after_end(f, 0, "ring-drain"))
                    .collect();
                let sid = dag.dag_open(
                    "barrier",
                    format!("ring b{b} r{round}"),
                    ResourceId::Barrier(format!("ring-b{b}-r{round}")),
                    now.as_nanos(),
                    deps,
                );
                dag.dag_close(sid, now.as_nanos());
                prev_barrier = Some(sid);
            }
        }
        bucket_done.push(now);
        if let Some(obs) = obs {
            for s in 0..n {
                obs.span(
                    Lane::Server(s),
                    "comm",
                    format!("allreduce b{b}"),
                    start.as_nanos(),
                    now.as_nanos(),
                    vec![
                        ("bucket", AttrValue::U64(b as u64)),
                        ("bytes", AttrValue::F64(bytes)),
                        ("rounds", AttrValue::U64(2 * (n as u64 - 1))),
                    ],
                );
            }
        }
    }

    // On a strict run without an observer, verify the private ring-only
    // DAG's critical-path identity here: the final barrier ends exactly at
    // sync_done, and every backward chain must tile [0, sync_done] through
    // flows, barriers, and mirror nodes with no gap. (With an observer the
    // finetuner verifies the combined pipeline+ring DAG at the step
    // boundary instead.)
    if cfg.strict_validation && !recorder.is_public() {
        if let (Some(dag), Some(head)) = (recorder.obs(), prev_barrier) {
            dag.dag_cluster_boundary(now.as_nanos(), head);
            dag.assert_dag_identity("ring critical-path identity", now.as_nanos());
        }
    }

    let report = ClusterSyncReport {
        sync_done: now,
        bucket_done,
        per_server_tx,
        per_server_rx,
        trace,
        head_sid: recorder.public(prev_barrier),
    };
    if cfg.strict_validation {
        let total: f64 = replicas[0].total_bytes();
        if let Err(v) = verify_ring_identity(&report, n, total) {
            if let Some(obs) = obs {
                obs.violation("cluster-ring-identity", &v.to_string(), now.as_nanos());
            }
            panic!("ring all-reduce traffic identity violated: {v}");
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobius_topology::{GpuSpec, Topology};

    fn cluster(n: usize) -> Cluster {
        Cluster::new(Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]), n, 12.5)
    }

    fn replica(buckets: &[f64], ready_ms: &[u64]) -> ReplicaTiming {
        ReplicaTiming {
            bucket_bytes: buckets.to_vec(),
            ready: ready_ms.iter().map(|&m| SimTime::from_millis(m)).collect(),
            ready_sids: vec![],
        }
    }

    fn strict() -> ClusterDpConfig {
        ClusterDpConfig {
            strict_validation: true,
        }
    }

    #[test]
    fn traffic_matches_ring_identity_exactly() {
        for n in [2usize, 3, 4, 8] {
            let r = replica(&[3e9, 1e9, 2e9], &[30, 20, 10]);
            let rep = simulate_ring_allreduce(&cluster(n), &vec![r; n], &strict(), None).unwrap();
            let want = 2.0 * (n as f64 - 1.0) / n as f64 * 6e9;
            for s in 0..n {
                assert!(
                    (rep.per_server_tx[s] - want).abs() <= 1e-6 * want,
                    "n={n} server {s}: tx {} vs {want}",
                    rep.per_server_tx[s]
                );
                assert!((rep.per_server_rx[s] - want).abs() <= 1e-6 * want);
            }
        }
    }

    #[test]
    fn sync_time_matches_hand_computed_bound() {
        // 2 servers, one 1 GB bucket ready at t=0: 2·(2−1)=2 rounds of
        // 0.5 GB at 12.5 GB/s = 2 × 40 ms.
        let r = replica(&[1e9], &[0]);
        let rep = simulate_ring_allreduce(&cluster(2), &[r.clone(), r], &strict(), None).unwrap();
        let want = 2.0 * 0.5e9 / 12.5e9;
        assert!(
            (rep.sync_done.as_secs_f64() - want).abs() < 1e-9,
            "{} vs {want}",
            rep.sync_done
        );
    }

    #[test]
    fn buckets_overlap_with_stragglers() {
        // The second bucket cannot start before the straggler flushes it.
        let fast = replica(&[1e9, 1e9], &[0, 10]);
        let slow = replica(&[1e9, 1e9], &[0, 500]);
        let rep = simulate_ring_allreduce(&cluster(2), &[fast, slow], &strict(), None).unwrap();
        assert!(rep.bucket_done[1].as_secs_f64() >= 0.5 + 0.08);
        // First bucket ran immediately.
        assert!((rep.bucket_done[0].as_secs_f64() - 0.08).abs() < 1e-9);
    }

    #[test]
    fn ring_is_a_single_channel() {
        // Both buckets ready at t=0: the second waits for the first.
        let r = replica(&[1e9, 1e9], &[0, 0]);
        let rep = simulate_ring_allreduce(&cluster(2), &[r.clone(), r], &strict(), None).unwrap();
        assert!((rep.bucket_done[0].as_secs_f64() - 0.08).abs() < 1e-9);
        assert!((rep.bucket_done[1].as_secs_f64() - 0.16).abs() < 1e-9);
    }

    #[test]
    fn collapsed_replica_aligns_buckets() {
        let degraded = replica(&[2e9, 1e9, 3e9], &[10, 40, 20]).collapsed();
        assert_eq!(degraded.bucket_bytes, vec![6e9]);
        assert_eq!(degraded.ready, vec![SimTime::from_millis(40)]);
        let healthy = replica(&[6e9], &[15]);
        simulate_ring_allreduce(&cluster(2), &[healthy, degraded], &strict(), None).unwrap();
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        let r = replica(&[1e9], &[0]);
        assert_eq!(
            simulate_ring_allreduce(&cluster(1), std::slice::from_ref(&r), &strict(), None)
                .unwrap_err(),
            ClusterSyncError::DegenerateCluster
        );
        assert_eq!(
            simulate_ring_allreduce(&cluster(3), &[r.clone(), r.clone()], &strict(), None)
                .unwrap_err(),
            ClusterSyncError::ReplicaCountMismatch {
                replicas: 2,
                servers: 3
            }
        );
        let other = replica(&[2e9], &[0]);
        assert_eq!(
            simulate_ring_allreduce(&cluster(2), &[r, other], &strict(), None).unwrap_err(),
            ClusterSyncError::BucketMismatch { server: 1 }
        );
    }

    #[test]
    fn doctored_report_fails_the_identity() {
        let r = replica(&[1e9], &[0]);
        let mut rep = simulate_ring_allreduce(&cluster(4), &vec![r; 4], &strict(), None).unwrap();
        assert!(verify_ring_identity(&rep, 4, 1e9).is_ok());
        // A dropped chunk: server 2 transmitted less than the ring demands.
        rep.per_server_tx[2] -= 1e6;
        let err = verify_ring_identity(&rep, 4, 1e9).unwrap_err();
        assert_eq!(err.server, 2);
        assert!(err.measured < err.expected);
    }

    #[test]
    fn observed_ring_records_a_dag_with_a_head_barrier() {
        let obs = Obs::new();
        let r = replica(&[1e9, 1e9], &[0, 10]);
        let rep = simulate_ring_allreduce(&cluster(2), &vec![r; 2], &strict(), Some(&obs)).unwrap();
        let head = rep.head_sid.expect("observed runs return a head sid");
        obs.with_dag(|d| {
            let h = d.node(head).expect("head sid resolves");
            assert_eq!(h.cat, "barrier");
            assert_eq!(h.end_ns, Some(rep.sync_done.as_nanos()));
            // Replicas without ready_sids are mirrored on their server lane;
            // every chunk became a flow node on its bottleneck NIC link.
            assert!(d.nodes().iter().any(|n| n.cat == "mirror"));
            assert!(d.nodes().iter().any(|n| n.cat == "flow"
                && matches!(&n.resource, ResourceId::Link(l) if l.contains("nic"))));
            // The caller owns the step boundary; the ring never marks one
            // on a shared recorder.
            assert!(d.cluster_boundaries().is_empty());
        });
    }

    #[test]
    fn strict_untraced_ring_verifies_its_private_dag() {
        // No observer + strict: the ring builds a private DAG (mirrors for
        // every replica) and verifies the critical-path identity itself.
        // Straggler ready times make the bucket barriers non-trivial.
        let fast = replica(&[1e9, 1e9], &[0, 10]);
        let slow = replica(&[1e9, 1e9], &[5, 400]);
        let rep =
            simulate_ring_allreduce(&cluster(3), &[fast.clone(), fast, slow], &strict(), None)
                .unwrap();
        // Private node ids must never leak into the report.
        assert_eq!(rep.head_sid, None);
    }

    #[test]
    fn mismatched_ready_sids_are_rejected() {
        let mut r = replica(&[1e9, 1e9], &[0, 0]);
        r.ready_sids = vec![None]; // 1 sid for 2 buckets
        assert_eq!(
            simulate_ring_allreduce(&cluster(2), &[r.clone(), r], &strict(), None).unwrap_err(),
            ClusterSyncError::BucketMismatch { server: 0 }
        );
    }

    #[test]
    fn server_lanes_are_recorded_when_observed() {
        let obs = Obs::new();
        let r = replica(&[1e9], &[0]);
        simulate_ring_allreduce(&cluster(2), &vec![r; 2], &strict(), Some(&obs)).unwrap();
        let json = obs.chrome_trace_json();
        assert!(json.contains("\"name\":\"servers\""));
        assert!(json.contains("allreduce b0"));
        assert!(json.contains("srv0-nic-tx"));
    }
}
