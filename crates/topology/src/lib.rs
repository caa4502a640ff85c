//! # mobius-topology
//!
//! GPU server topology modelling for the Mobius (ASPLOS '23) reproduction:
//!
//! * [`GpuSpec`] — the GPU catalog (Table 1 of the paper: RTX 3090-Ti vs
//!   A100, plus the V100 of §4.8).
//! * [`Topology`] — which GPUs share which CPU root complex (`Topo 4`,
//!   `Topo 2+2`, `Topo 1+3`, …) and whether NVLink/GPUDirect P2P exist.
//! * [`ServerNetwork`] — the topology instantiated as duplex links in a
//!   [`mobius_sim::FlowNetwork`], with path lookup for DRAM↔GPU and GPU↔GPU
//!   transfers.
//! * [`Cluster`] / [`ClusterNetwork`] — N identical servers joined by
//!   per-server NICs and a switch fabric, for multi-server scale-out.
//!
//! # Example
//!
//! ```
//! use mobius_topology::{GpuSpec, ServerNetwork, Topology};
//!
//! let topo = Topology::commodity(GpuSpec::rtx3090ti(), &[1, 3]);
//! assert_eq!(topo.name(), "Topo 1+3");
//!
//! let mut server = ServerNetwork::new(&topo);
//! // GPU 1..=3 share a root complex; concurrent uploads contend.
//! let p1 = server.dram_to_gpu(1);
//! let p2 = server.dram_to_gpu(2);
//! let f1 = server.net_mut().start_flow(p1, 1e9, 0, 0);
//! let f2 = server.net_mut().start_flow(p2, 1e9, 0, 1);
//! let r1 = server.net_mut().rate_of(f1).unwrap();
//! let r2 = server.net_mut().rate_of(f2).unwrap();
//! assert!((r1 - r2).abs() < 1.0); // fair split of the shared uplink
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod gpu;
mod network;
mod topology;

pub use cluster::{Cluster, ClusterNetwork, COMMODITY_NIC_GBPS};
pub use gpu::{GpuSpec, GIB};
pub use network::ServerNetwork;
pub use topology::{Interconnect, Topology, ROOT_COMPLEX_GBPS};
