//! # hotnoc — hotspot prevention through runtime reconfiguration in NoC
//!
//! Umbrella crate for the reproduction of *Link & Vijaykrishnan, "Hotspot
//! Prevention Through Runtime Reconfiguration in Network-On-Chip", DATE
//! 2005*. It re-exports the workspace crates:
//!
//! * [`obs`] — deterministic event tracing and the wall-clock profiler,
//! * [`noc`] — cycle-accurate 2-D mesh NoC simulator,
//! * [`ldpc`] — the LDPC-decoder workload mapped onto the NoC,
//! * [`thermal`] — HotSpot-style block RC thermal simulator,
//! * [`power`] — activity-based 160 nm power models,
//! * [`reconfig`] — the migration transforms, their congestion-free phase
//!   plans and the §2.3 hardware: the cumulative I/O address map
//!   ([`reconfig::CumulativeMap`]) and the migration unit's operand width
//!   ([`reconfig::transform::operand_bits`]),
//! * [`core`] — the co-simulation runtime and the paper's chip
//!   configurations A–E,
//! * [`scenario`] — declarative experiment specs, the campaign engine and
//!   the resumable parallel campaign runner (fronted by the `hotnoc` CLI in
//!   `crates/cli`).
//!
//! ## Quickstart
//!
//! ```
//! use hotnoc::core::configs::{ChipConfigId, Fidelity};
//! use hotnoc::core::{run_cosim, Chip, ChipSpec, CosimParams};
//! use hotnoc::reconfig::MigrationScheme;
//!
//! // Run a short co-simulation of configuration A under X-Y shift migration.
//! let mut chip = Chip::build(ChipSpec::of(ChipConfigId::A, Fidelity::Quick))?;
//! let cal = chip.calibrate()?;
//! let r = run_cosim(&chip, &cal, Some(MigrationScheme::XYShift), &CosimParams::quick())?;
//! assert!(r.base_peak > 40.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the harnesses that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]

pub use hotnoc_core as core;
pub use hotnoc_ldpc as ldpc;
pub use hotnoc_noc as noc;
pub use hotnoc_obs as obs;
pub use hotnoc_power as power;
pub use hotnoc_reconfig as reconfig;
pub use hotnoc_scenario as scenario;
pub use hotnoc_thermal as thermal;
