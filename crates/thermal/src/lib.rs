//! # hotnoc-thermal — block-level RC thermal simulation
//!
//! A from-scratch substitute for the HotSpot thermal library used by the
//! DATE'05 paper. HotSpot's block mode models the die and its package as an
//! RC-equivalent circuit: each floorplan block is a thermal node; lateral
//! resistances couple adjacent blocks; vertical resistances lead through the
//! thermal interface material (TIM) into the heat spreader, heat sink and
//! finally, via a convection resistance, into ambient air. This crate builds
//! the same style of network ([`rc_model::RcNetwork`]) for the paper's die,
//! a grid of square blocks ([`floorplan::Floorplan`]). The network holds
//! its conductance matrix once, in CSR form ([`sparse::CsrMat`]). The
//! steady-state solver is a dense LU factored from it once
//! ([`linalg::Lu`]); the transient solvers step it directly (backward Euler
//! by warm-started sparse conjugate gradient, one simulation or several in
//! lockstep, plus classic RK4).
//!
//! The paper's setup — "HotSpot ... with all settings at the default values
//! and an ambient temp. of 40 °C" — corresponds to
//! [`package::PackageConfig::date05_defaults`].
//!
//! ## Example: steady-state of a 4x4 chip
//!
//! ```
//! use hotnoc_thermal::{Floorplan, PackageConfig, RcNetwork};
//!
//! // 16 blocks of 4.36 mm^2 each, as in the paper's test chips.
//! let plan = Floorplan::mesh_grid(4, 4, 4.36e-6)?;
//! let net = RcNetwork::build(&plan, &PackageConfig::date05_defaults())?;
//! let power = vec![1.5; 16]; // watts per block
//! let temps = net.steady_state(&power)?;
//! let peak = temps.iter().cloned().fold(f64::NAN, f64::max);
//! assert!(peak > 40.0, "chip must be hotter than ambient");
//! # Ok::<(), hotnoc_thermal::ThermalError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod floorplan;
pub mod linalg;
pub mod materials;
pub mod package;
pub mod rc_model;
pub mod solver;
pub mod sparse;
pub mod trace;

pub use error::ThermalError;
pub use floorplan::Floorplan;
pub use package::PackageConfig;
pub use rc_model::RcNetwork;
pub use solver::lanes::TransientLanes;
pub use solver::transient::{Integrator, TransientSim};
pub use sparse::{CsrMat, TripletBuilder};
pub use trace::ThresholdWatcher;
