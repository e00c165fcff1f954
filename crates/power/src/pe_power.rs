//! Processing-element compute power.
//!
//! The LDPC PEs of the paper's chips perform check-node and variable-node
//! updates; we charge one [`crate::tech::TechParams::e_pe_op`] per edge
//! operation (one message read-modify-write through the PE datapath and its
//! local memory).

use crate::tech::TechParams;

/// Dynamic energy of `ops` PE edge operations, in joules.
pub fn pe_dynamic_energy(ops: u64, tech: &TechParams) -> f64 {
    ops as f64 * tech.e_pe_op
}

/// Average PE dynamic power over a window of `seconds`, in watts. Zero for
/// an empty window.
pub fn pe_dynamic_power(ops: u64, seconds: f64, tech: &TechParams) -> f64 {
    if seconds == 0.0 {
        return 0.0;
    }
    pe_dynamic_energy(ops, tech) / seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_in_ops() {
        let tech = TechParams::ldpc_160nm();
        assert!(
            (pe_dynamic_energy(200, &tech) / pe_dynamic_energy(100, &tech) - 2.0).abs() < 1e-12
        );
    }

    #[test]
    fn busy_pe_in_watt_range() {
        // An LDPC PE doing ~8k edge ops per 109.3 us block lands around a
        // watt in 160 nm — the band the paper's chips (72-86 C peaks over a
        // 40 C ambient) imply.
        let tech = TechParams::ldpc_160nm();
        let p = pe_dynamic_power(8_000, 109.3e-6, &tech);
        assert!((0.05..5.0).contains(&p), "PE power {p} W implausible");
    }

    #[test]
    fn zero_window_zero_power() {
        let tech = TechParams::ldpc_160nm();
        assert_eq!(pe_dynamic_power(100, 0.0, &tech), 0.0);
    }
}
