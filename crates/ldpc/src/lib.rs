//! # hotnoc-ldpc — the LDPC decoder workload
//!
//! The DATE'05 paper evaluates runtime reconfiguration on a Low Density
//! Parity Check (LDPC) decoder implemented on a NoC (Theocharides et al.,
//! ISVLSI'05). This crate builds that workload from scratch:
//!
//! * [`matrix`]/[`code`] — sparse GF(2) parity-check matrices and regular
//!   Gallager code construction,
//! * [`mapping`] — partitioning of variable/check nodes into per-PE
//!   clusters, including the weighted partitions that realize the paper's
//!   configurations A–E ("the amount of computation mapped to a single PE"),
//! * [`schedule`] — the per-iteration message-passing traffic a mapping
//!   induces between PEs,
//! * [`app`] — a timing/activity-accurate application model that drives the
//!   `hotnoc-noc` cycle-accurate simulator with that traffic and reports the
//!   block's cycles and per-tile PE operations; the switching activity it
//!   causes is counted by the network's own routers. Iterations run as
//!   [`hotnoc_noc::Network::run_periods`] periods: stepped until the
//!   network repeats itself, and the rest replayed exactly from a log.
//!
//! ```
//! use hotnoc_ldpc::app::{ComputeModel, LdpcNocApp};
//! use hotnoc_ldpc::{schedule::MessageParams, ClusterMapping, LdpcCode};
//! use hotnoc_noc::{Mesh, Network, NocConfig};
//!
//! // One 5-iteration block of a 240-bit code on a 4x4 mesh.
//! let code = LdpcCode::gallager(240, 3, 6, 7)?;
//! let mapping = ClusterMapping::contiguous(&code, 16)?;
//! let placement = LdpcNocApp::identity_placement(16);
//! let mut app = LdpcNocApp::new(
//!     code,
//!     mapping,
//!     placement,
//!     MessageParams::default(),
//!     ComputeModel::default(),
//! )?;
//! let mut net = Network::new(Mesh::square(4)?, NocConfig::default());
//! let run = app.run_block(&mut net, 5)?;
//! assert!(run.cycles > 0 && net.stats().packets_delivered > 0);
//! let origin = net.router(net.mesh().node_id_at(0, 0)?).activity();
//! assert!(origin.total_link_flits() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod code;
pub mod error;
pub mod mapping;
pub mod matrix;
pub mod schedule;

pub use code::LdpcCode;
pub use error::LdpcError;
pub use mapping::ClusterMapping;
