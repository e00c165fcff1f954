//! # hotnoc-core — the DATE'05 co-simulation runtime
//!
//! Ties every substrate together into the paper's experimental flow:
//!
//! 1. [`configs`] defines the five chip configurations (A, B on 4x4 meshes;
//!    C, D, E on 5x5) with their thermally-placed workload distributions and
//!    the base peak temperatures reported in Figure 1.
//! 2. [`chip::Chip`] builds a configuration: LDPC code + cluster mapping
//!    (`hotnoc-ldpc`), cycle-accurate activity measurement (`hotnoc-noc`),
//!    power derivation and calibration (`hotnoc-power`), floorplan and RC
//!    thermal network (`hotnoc-thermal`).
//! 3. [`cosim`] runs the transient thermal co-simulation with periodic
//!    migration (`hotnoc-reconfig`), including migration state-transfer
//!    energy — "our simulations also include the energy consumed during the
//!    migration operation".
//! 4. [`adaptive`] re-selects the migration scheme at every migration point
//!    (§2.3's runtime-alterable migration function).
//! 5. [`report`] renders per-tile fields (temperatures, power) as ASCII
//!    heatmaps. The paper's exhibit tables — Figure 1, the migration-period
//!    sweep and the migration cost table — live in `hotnoc-scenario`'s
//!    `exhibits` module, next to the campaign records they are built from.
//!
//! ```no_run
//! use hotnoc_core::configs::{ChipConfigId, Fidelity};
//! use hotnoc_core::{run_cosim, Chip, ChipSpec, CosimParams};
//! use hotnoc_reconfig::MigrationScheme;
//!
//! let mut chip = Chip::build(ChipSpec::of(ChipConfigId::A, Fidelity::Quick))?;
//! let cal = chip.calibrate()?;
//! let r = run_cosim(&chip, &cal, Some(MigrationScheme::XYShift), &CosimParams::quick())?;
//! println!("config A base peak: {:.2} C", r.base_peak);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod chip;
pub mod configs;
pub mod cosim;
pub mod error;
pub mod report;

pub use adaptive::{run_adaptive_cosim, AdaptiveResult};
pub use chip::{CalibratedPower, Chip};
pub use configs::{ChipConfigId, ChipSpec};
pub use cosim::{run_cosim, CosimParams, CosimResult};
pub use error::CoreError;
