//! # hotnoc-noc — cycle-accurate 2-D mesh network-on-chip simulator
//!
//! This crate implements the "modified cycle-accurate NoC simulator" that the
//! DATE'05 paper *Hotspot Prevention Through Runtime Reconfiguration in
//! Network-On-Chip* (Link & Vijaykrishnan) uses to obtain per-component
//! switching rates. It models:
//!
//! * a 2-D mesh [`topology::Mesh`] of the paper's input-buffered wormhole
//!   router, with credit-based flow control ([`router`], [`network`]) and a
//!   fixed shape: [`config::NUM_VCS`] virtual channels (data and
//!   reconfiguration), [`config::BUFFER_DEPTH`]-flit buffers and
//!   [`config::LINK_LATENCY`]-cycle links,
//! * dimension-order XY routing ([`routing::next_hop`]), the only
//!   algorithm on a healthy fabric (a degraded one detours through
//!   [`fault`]'s surround routing),
//! * network interfaces ([`nic`]) that serialize packets into flits as the
//!   router takes them and hand each packet over when its tail flit ejects,
//! * per-router switching-activity counters ([`RouterActivity`]), which
//!   the `hotnoc-power` model prices directly, and latency histograms
//!   ([`stats`]),
//! * logging one period of a network at rest and repeating it without
//!   stepping ([`Network::start_period`], [`Network::end_period`],
//!   [`Network::repeat_period`]), exact for traffic that repeats with
//!   shifted packet ids, such as the LDPC decoder's iterations,
//! * synthetic traffic patterns ([`traffic`]) for validation and benchmarks.
//!
//! ## Quick example
//!
//! ```
//! use hotnoc_noc::{Mesh, Network, NocConfig, Packet, PacketClass};
//!
//! let mesh = Mesh::square(4).unwrap();
//! let mut net = Network::new(mesh, NocConfig::default());
//! let src = mesh.node_id_at(0, 0).unwrap();
//! let dst = mesh.node_id_at(3, 3).unwrap();
//! let packet = Packet::new(0, src, dst, PacketClass::Data, 4);
//! net.inject(packet).unwrap();
//! let delivered = net.run_until_idle(10_000).unwrap();
//! assert_eq!(delivered, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod fault;
pub mod flit;
pub mod network;
pub mod nic;
pub mod router;
pub mod routing;
pub mod stats;
pub mod topology;
pub mod traffic;

pub use config::NocConfig;
pub use error::NocError;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultState};
pub use flit::{Flit, Packet, PacketClass, PacketId};
pub use network::{DeliveredPacket, Network, Period};
pub use stats::{NetworkStats, RouterActivity};
pub use topology::{Coord, Direction, Mesh, NodeId};
pub use traffic::{TrafficGenerator, TrafficPattern};
