//! Multi-server clusters: N identical commodity servers joined by NICs and
//! a switch fabric, realized on the same [`FlowNetwork`] link model as a
//! single server.
//!
//! The paper evaluates Mobius on one server; the production path is to
//! replicate the pipeline per server and synchronize gradients across
//! servers with data parallelism. The cross-server substrate is modelled
//! exactly like the intra-server PCIe tree: each server owns a full-duplex
//! NIC (one simplex link per direction) and every server-to-server path
//! crosses a shared switch fabric link, so concurrent collectives contend
//! for measured — not assumed — bandwidth.

use mobius_sim::{FlowNetwork, LinkId};

use crate::Topology;

/// Usable bandwidth of a commodity 100 GbE NIC in GB/s (the switched
/// Ethernet fabric typical of the servers in Table 1).
pub const COMMODITY_NIC_GBPS: f64 = 12.5;

/// A cluster of `num_servers` identical servers, each a [`Topology`],
/// joined by per-server NICs and a switch fabric.
///
/// # Examples
///
/// ```
/// use mobius_topology::{Cluster, GpuSpec, Topology};
///
/// let server = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
/// let cluster = Cluster::new(server, 4, 12.5);
/// assert_eq!(cluster.num_servers(), 4);
/// assert_eq!(cluster.server().num_gpus(), 4);
/// assert_eq!(cluster.name(), "4x Topo 2+2 @ 12.5 GB/s NIC");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    server: Topology,
    num_servers: usize,
    nic_gbps: f64,
    switch_gbps: f64,
}

impl Cluster {
    /// Builds a cluster of `num_servers` copies of `server`, each with a
    /// full-duplex NIC of `nic_gbps` GB/s per direction. The switch fabric
    /// defaults to non-blocking (`num_servers × nic_gbps`); use
    /// [`Cluster::with_switch_gbps`] to model an oversubscribed fabric.
    ///
    /// # Panics
    ///
    /// Panics when `num_servers` is zero or `nic_gbps` is not a positive
    /// finite number.
    pub fn new(server: Topology, num_servers: usize, nic_gbps: f64) -> Self {
        assert!(num_servers > 0, "need at least one server");
        assert!(
            nic_gbps.is_finite() && nic_gbps > 0.0,
            "NIC bandwidth must be positive"
        );
        Cluster {
            server,
            num_servers,
            nic_gbps,
            switch_gbps: nic_gbps * num_servers as f64,
        }
    }

    /// Overrides the aggregate switch-fabric bandwidth (GB/s). Values below
    /// `num_servers × nic_gbps` model an oversubscribed fabric where
    /// concurrent collectives contend.
    ///
    /// # Panics
    ///
    /// Panics unless `gbps` is positive and finite.
    pub fn with_switch_gbps(mut self, gbps: f64) -> Self {
        assert!(
            gbps.is_finite() && gbps > 0.0,
            "switch bandwidth must be positive"
        );
        self.switch_gbps = gbps;
        self
    }

    /// The per-server topology.
    pub fn server(&self) -> &Topology {
        &self.server
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Per-server NIC bandwidth in GB/s (per direction).
    pub fn nic_gbps(&self) -> f64 {
        self.nic_gbps
    }

    /// Aggregate switch-fabric bandwidth in GB/s.
    pub fn switch_gbps(&self) -> f64 {
        self.switch_gbps
    }

    /// Human name, e.g. `4x Topo 2+2 @ 12.5 GB/s NIC`.
    pub fn name(&self) -> String {
        format!(
            "{}x {} @ {} GB/s NIC",
            self.num_servers,
            self.server.name(),
            self.nic_gbps
        )
    }
}

/// A [`Cluster`]'s cross-server fabric realized as links in a
/// [`FlowNetwork`] whose flows carry `T` tags, with path lookup.
///
/// Only the fabric is instantiated here: intra-server links are disjoint
/// across servers (each replica runs on its own [`crate::ServerNetwork`]),
/// while every cross-server byte shares these NIC and switch links — the
/// contention that decides scale-out behaviour.
///
/// # Examples
///
/// ```
/// use mobius_topology::{Cluster, ClusterNetwork, GpuSpec, Topology};
///
/// let server = Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]);
/// let mut net = ClusterNetwork::new(&Cluster::new(server, 4, 12.5));
/// let path = net.server_to_server(0, 1).unwrap();
/// assert_eq!(path.len(), 3); // NIC tx + switch + NIC rx
/// let f = net.net_mut().start_flow(path, 1.0e9, 0, 0);
/// assert!(net.net_mut().rate_of(f).unwrap() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterNetwork<T = u64> {
    net: FlowNetwork<T>,
    cluster: Cluster,
    nic_tx: Vec<LinkId>,
    nic_rx: Vec<LinkId>,
    switch: LinkId,
}

impl<T> ClusterNetwork<T> {
    /// Builds the cross-server link network for `cluster`.
    pub fn new(cluster: &Cluster) -> Self {
        let mut net = FlowNetwork::new();
        let nic_bw = cluster.nic_gbps() * 1e9;
        let mut nic_tx = Vec::with_capacity(cluster.num_servers());
        let mut nic_rx = Vec::with_capacity(cluster.num_servers());
        for s in 0..cluster.num_servers() {
            nic_tx.push(net.add_link(format!("srv{s}-nic-tx"), nic_bw));
            nic_rx.push(net.add_link(format!("srv{s}-nic-rx"), nic_bw));
        }
        let switch = net.add_link("switch-fabric", cluster.switch_gbps() * 1e9);
        ClusterNetwork {
            net,
            cluster: cluster.clone(),
            nic_tx,
            nic_rx,
            switch,
        }
    }

    /// The cluster this network realizes.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Shared access to the flow network. Rate reads settle stale rates,
    /// so they go through [`ClusterNetwork::net_mut`].
    pub fn net(&self) -> &FlowNetwork<T> {
        &self.net
    }

    /// Mutable access to the flow network (collectives start/complete
    /// flows).
    pub fn net_mut(&mut self) -> &mut FlowNetwork<T> {
        &mut self.net
    }

    /// Path for a server→server transfer — source NIC egress, the switch
    /// fabric, destination NIC ingress — or `None` when source and
    /// destination coincide (a free local move).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn server_to_server(&self, from: usize, to: usize) -> Option<Vec<LinkId>> {
        assert!(
            from < self.cluster.num_servers() && to < self.cluster.num_servers(),
            "server index out of range"
        );
        if from == to {
            return None;
        }
        Some(vec![self.nic_tx[from], self.switch, self.nic_rx[to]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuSpec;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]), n, 12.5)
    }

    #[test]
    fn cluster_accessors() {
        let c = cluster(4);
        assert_eq!(c.num_servers(), 4);
        assert_eq!(c.server().num_gpus(), 4);
        assert_eq!(c.nic_gbps(), 12.5);
        assert_eq!(c.switch_gbps(), 50.0, "non-blocking by default");
        assert!(c.name().contains("Topo 2+2"));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        cluster(0);
    }

    #[test]
    #[should_panic(expected = "NIC bandwidth")]
    fn zero_nic_rejected() {
        Cluster::new(Topology::commodity(GpuSpec::rtx3090ti(), &[2, 2]), 2, 0.0);
    }

    #[test]
    #[should_panic(expected = "switch bandwidth")]
    fn bad_switch_rejected() {
        cluster(2).with_switch_gbps(f64::NAN);
    }

    #[test]
    fn lone_transfer_sees_nic_cap() {
        let mut n = ClusterNetwork::new(&cluster(4));
        let p = n.server_to_server(0, 1).unwrap();
        let f = n.net_mut().start_flow(p, 100e9, 0, 0);
        assert!((n.net_mut().rate_of(f).unwrap() - 12.5e9).abs() < 1.0);
    }

    #[test]
    fn same_nic_egress_contention_halves_bandwidth() {
        let mut n = ClusterNetwork::new(&cluster(4));
        let p1 = n.server_to_server(0, 1).unwrap();
        let p2 = n.server_to_server(0, 2).unwrap();
        let f1 = n.net_mut().start_flow(p1, 100e9, 0, 0);
        let f2 = n.net_mut().start_flow(p2, 100e9, 0, 1);
        let half = 12.5e9 / 2.0;
        assert!((n.net_mut().rate_of(f1).unwrap() - half).abs() < 1.0);
        assert!((n.net_mut().rate_of(f2).unwrap() - half).abs() < 1.0);
    }

    #[test]
    fn duplex_nic_directions_do_not_contend() {
        // A ring neighbour exchange: server 1 sends and receives at full
        // NIC rate simultaneously.
        let mut n = ClusterNetwork::new(&cluster(4));
        let tx = n.server_to_server(1, 2).unwrap();
        let rx = n.server_to_server(0, 1).unwrap();
        let ft = n.net_mut().start_flow(tx, 100e9, 0, 0);
        let fr = n.net_mut().start_flow(rx, 100e9, 0, 1);
        assert!((n.net_mut().rate_of(ft).unwrap() - 12.5e9).abs() < 1.0);
        assert!((n.net_mut().rate_of(fr).unwrap() - 12.5e9).abs() < 1.0);
    }

    #[test]
    fn oversubscribed_switch_is_a_shared_bottleneck() {
        // Disjoint server pairs, but the fabric carries only one NIC's
        // worth of bandwidth: each flow gets half.
        let c = cluster(4).with_switch_gbps(12.5);
        let mut n = ClusterNetwork::new(&c);
        let p1 = n.server_to_server(0, 1).unwrap();
        let p2 = n.server_to_server(2, 3).unwrap();
        let f1 = n.net_mut().start_flow(p1, 100e9, 0, 0);
        let f2 = n.net_mut().start_flow(p2, 100e9, 0, 1);
        let half = 12.5e9 / 2.0;
        assert!((n.net_mut().rate_of(f1).unwrap() - half).abs() < 1.0);
        assert!((n.net_mut().rate_of(f2).unwrap() - half).abs() < 1.0);
    }

    #[test]
    fn local_moves_are_free() {
        let n: ClusterNetwork = ClusterNetwork::new(&cluster(2));
        assert!(n.server_to_server(1, 1).is_none());
    }

    #[test]
    #[should_panic(expected = "server index out of range")]
    fn out_of_range_server_panics() {
        ClusterNetwork::<u64>::new(&cluster(2)).server_to_server(0, 2);
    }
}
