//! # hotnoc-power — activity-based power models (160 nm)
//!
//! Substitute for the Synopsys Power Compiler flow of the DATE'05 paper: the
//! paper synthesizes its LDPC chips in a 160 nm standard-cell library,
//! obtains per-unit power with Power Compiler, and drives it with switching
//! rates from the cycle-accurate NoC simulator. This crate computes the same
//! quantity — watts per functional unit — from the simulator's activity
//! counters and an energy-per-event technology characterization
//! ([`tech::TechParams::ldpc_160nm`]).
//!
//! Components:
//!
//! * [`activity`] — neutral per-tile activity records (router events + PE
//!   operations per window),
//! * [`router_power`] — Orion-style router energy (buffers, crossbar,
//!   arbiter, links),
//! * [`pe_power`] — LDPC processing-element compute energy,
//! * [`leakage`] — temperature-dependent static power.
//!
//! ```
//! use hotnoc_power::{activity::TileActivity, leakage, pe_power, router_power, tech::TechParams};
//!
//! let tech = TechParams::ldpc_160nm();
//! let act = TileActivity {
//!     buffer_writes: 10_000,
//!     buffer_reads: 10_000,
//!     xbar_traversals: 10_000,
//!     arbitrations: 12_000,
//!     link_flits: 9_000,
//!     bit_transitions: 300_000,
//!     pe_ops: 40_000,
//! };
//! let watts = router_power::router_dynamic_power(&act, 54_650, &tech)
//!     + pe_power::pe_dynamic_power(act.pe_ops, 54_650, &tech)
//!     + leakage::leakage_power(tech.tile_area_mm2, 70.0, &tech);
//! assert!(watts > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod leakage;
pub mod pe_power;
pub mod router_power;
pub mod tech;

pub use activity::TileActivity;
pub use tech::TechParams;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_tile_consumes_more_than_idle() {
        let tech = TechParams::ldpc_160nm();
        let busy = TileActivity {
            buffer_writes: 50_000,
            buffer_reads: 50_000,
            xbar_traversals: 50_000,
            arbitrations: 50_000,
            link_flits: 45_000,
            bit_transitions: 1_500_000,
            pe_ops: 100_000,
        };
        let idle = TileActivity::default();
        let dynamic = |a: &TileActivity| {
            router_power::router_dynamic_power(a, 54_650, &tech)
                + pe_power::pe_dynamic_power(a.pe_ops, 54_650, &tech)
        };
        assert!(dynamic(&busy) > 0.0);
        assert_eq!(dynamic(&idle), 0.0);
        let leak = leakage::leakage_power(tech.tile_area_mm2, 70.0, &tech);
        assert!(leak > 0.0, "idle tile still leaks");
    }

    #[test]
    fn zero_cycles_gives_zero_dynamic() {
        let tech = TechParams::ldpc_160nm();
        let act = TileActivity {
            pe_ops: 10,
            ..TileActivity::default()
        };
        assert_eq!(pe_power::pe_dynamic_power(act.pe_ops, 0, &tech), 0.0);
        assert_eq!(router_power::router_dynamic_power(&act, 0, &tech), 0.0);
    }
}
