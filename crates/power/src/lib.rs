//! # hotnoc-power — activity-based power models (160 nm)
//!
//! Substitute for the Synopsys Power Compiler flow of the DATE'05 paper: the
//! paper synthesizes its LDPC chips in a 160 nm standard-cell library,
//! obtains per-unit power with Power Compiler, and drives it with switching
//! rates from the cycle-accurate NoC simulator. This crate computes the same
//! quantity — watts per functional unit — by pricing the simulator's own
//! per-router counters ([`hotnoc_noc::RouterActivity`]) and PE operation
//! counts with an energy-per-event technology characterization
//! ([`tech::TechParams::ldpc_160nm`]).
//!
//! Components:
//!
//! * [`router_power`] — Orion-style router energy (buffers, crossbar,
//!   arbiter, links),
//! * [`pe_power`] — LDPC processing-element compute energy,
//! * [`leakage`] — temperature-dependent static power.
//!
//! Dynamic power is energy over a window given in seconds; the caller
//! converts its cycle count with the NoC's clock.
//!
//! ```
//! use hotnoc_noc::{NocConfig, RouterActivity};
//! use hotnoc_power::{leakage, pe_power, router_power, tech::TechParams};
//!
//! let tech = TechParams::ldpc_160nm();
//! let router = RouterActivity {
//!     buffer_writes: 10_000,
//!     link_flits: [2_000, 2_000, 2_000, 2_000, 1_000],
//!     bit_transitions: 300_000,
//! };
//! let seconds = NocConfig::default().cycles_to_seconds(54_650);
//! let watts = router_power::router_dynamic_power(&router, seconds, &tech)
//!     + pe_power::pe_dynamic_power(40_000, seconds, &tech)
//!     + leakage::leakage_power(4.36, 70.0, &tech);
//! assert!(watts > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod leakage;
pub mod pe_power;
pub mod router_power;
pub mod tech;

pub use tech::TechParams;

#[cfg(test)]
mod tests {
    use super::*;
    use hotnoc_noc::RouterActivity;

    #[test]
    fn busy_tile_consumes_more_than_idle() {
        let tech = TechParams::ldpc_160nm();
        let busy = RouterActivity {
            buffer_writes: 50_000,
            link_flits: [10_000, 10_000, 10_000, 10_000, 10_000],
            bit_transitions: 1_500_000,
        };
        let idle = RouterActivity::default();
        let seconds = 109.3e-6;
        let dynamic = |a: &RouterActivity, ops: u64| {
            router_power::router_dynamic_power(a, seconds, &tech)
                + pe_power::pe_dynamic_power(ops, seconds, &tech)
        };
        assert!(dynamic(&busy, 100_000) > 0.0);
        assert_eq!(dynamic(&idle, 0), 0.0);
        let leak = leakage::leakage_power(4.36, 70.0, &tech);
        assert!(leak > 0.0, "idle tile still leaks");
    }

    #[test]
    fn zero_cycles_gives_zero_dynamic() {
        let tech = TechParams::ldpc_160nm();
        let act = RouterActivity::default();
        assert_eq!(pe_power::pe_dynamic_power(10, 0.0, &tech), 0.0);
        assert_eq!(router_power::router_dynamic_power(&act, 0.0, &tech), 0.0);
    }
}
