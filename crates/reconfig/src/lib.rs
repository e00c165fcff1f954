//! # hotnoc-reconfig — migration transforms, phase plans and the I/O address map
//!
//! The primary contribution of the DATE'05 paper: periodic spatial remapping
//! of workload across a mesh NoC using algebraically simple plane
//! transformations (Table 1 of the paper), implemented so that
//!
//! * the new position of every workload is computable from its current
//!   position ([`transform::MigrationScheme`]),
//! * relative positioning is preserved, making the traffic impact
//!   predictable ([`orbit`] analyzes the induced permutation group),
//! * migration itself is congestion free and deterministic in time by
//!   transforming groups of PEs in phases ([`phases::MigrationPlan`]),
//! * the operation is transparent to the outside world thanks to address
//!   transformation at the chip I/O boundary, which applies
//!   [`io_transform::CumulativeMap`] to the traffic crossing it (composing
//!   one scheme per period with [`CumulativeMap::apply_scheme`] tracks
//!   where each workload lives),
//! * the hardware cost is small: 3-bit operands address up to 64 PEs in the
//!   migration unit ([`transform::operand_bits`]).
//!
//! When to migrate, and what a migration costs the chip, is the
//! co-simulation's business (`hotnoc_core::cosim`).
//!
//! ```
//! use hotnoc_noc::{Coord, Mesh};
//! use hotnoc_reconfig::MigrationScheme;
//!
//! let mesh = Mesh::square(4)?;
//! // Table 1: Rotation maps (X, Y) to (N-1-Y, X).
//! let rot = MigrationScheme::Rotation;
//! assert_eq!(rot.apply(Coord::new(1, 2), mesh), Coord::new(1, 1));
//! // Four rotations restore the identity.
//! assert_eq!(rot.order(mesh), 4);
//! # Ok::<(), hotnoc_noc::NocError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod io_transform;
pub mod orbit;
pub mod phases;
pub mod state_transfer;
pub mod transform;

pub use io_transform::CumulativeMap;
pub use orbit::OrbitDecomposition;
pub use phases::{MigrationPlan, Move, Phase};
pub use state_transfer::StateSpec;
pub use transform::MigrationScheme;
