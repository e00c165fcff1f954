//! Technology characterization: energy per micro-operation.
//!
//! The absolute values below are representative of a 160 nm standard-cell
//! process at 1.8 V / 500 MHz. The co-simulation additionally normalizes the
//! total chip power of each configuration to reproduce the paper's measured
//! base temperatures (DESIGN.md §5), so the *distribution* across events is
//! what matters here.

/// Energy-per-event and static-power parameters of a process + cell library.
#[derive(Debug, Clone, PartialEq)]
pub struct TechParams {
    /// Human-readable name.
    pub name: String,
    /// Supply voltage (V).
    pub vdd: f64,
    /// Nominal clock (Hz).
    pub clock_hz: f64,
    /// Energy per flit written into an input buffer (J).
    pub e_buffer_write: f64,
    /// Energy per flit read from an input buffer (J).
    pub e_buffer_read: f64,
    /// Energy per flit crossing the crossbar (J).
    pub e_xbar: f64,
    /// Energy per switch-allocation decision (J).
    pub e_arb: f64,
    /// Energy per flit driven onto an inter-router link (J).
    pub e_link_flit: f64,
    /// Additional energy per payload bit transition on a link (J).
    pub e_bit_transition: f64,
    /// Energy per LDPC edge operation in a PE (J).
    pub e_pe_op: f64,
    /// Tile area in mm² (paper: 4.36 mm² per functional unit).
    pub tile_area_mm2: f64,
    /// Leakage power density at `leak_t_ref` (W/mm²).
    pub leak_density_ref: f64,
    /// Exponential leakage temperature coefficient (1/K).
    pub leak_temp_coeff: f64,
    /// Leakage reference temperature (°C).
    pub leak_t_ref: f64,
}

impl TechParams {
    /// Parameters for the paper's platform: a 160 nm standard-cell LDPC
    /// decoder NoC with 4.36 mm² tiles at 1.8 V, 500 MHz.
    pub fn ldpc_160nm() -> Self {
        TechParams {
            name: "ldpc-160nm".to_owned(),
            vdd: 1.8,
            clock_hz: 500.0e6,
            // Router energies roughly follow Orion-style scaling for a
            // 64-bit 5-port router in 160 nm.
            e_buffer_write: 1.1e-12 * 64.0,
            e_buffer_read: 0.9e-12 * 64.0,
            e_xbar: 1.4e-12 * 64.0,
            e_arb: 2.0e-12,
            e_link_flit: 0.8e-12 * 64.0,
            e_bit_transition: 0.35e-12,
            // A PE edge operation exercises a serial min/sum datapath plus
            // local SRAM; dominated by memory access in 160 nm.
            e_pe_op: 2.4e-9,
            tile_area_mm2: 4.36,
            leak_density_ref: 0.004,
            leak_temp_coeff: 0.017,
            leak_t_ref: 60.0,
        }
    }

    /// `true` when every energy/area value is positive and finite.
    pub fn is_physical(&self) -> bool {
        [
            self.vdd,
            self.clock_hz,
            self.e_buffer_write,
            self.e_buffer_read,
            self.e_xbar,
            self.e_arb,
            self.e_link_flit,
            self.e_bit_transition,
            self.e_pe_op,
            self.tile_area_mm2,
            self.leak_density_ref,
            self.leak_temp_coeff,
        ]
        .iter()
        .all(|v| v.is_finite() && *v > 0.0)
            && self.leak_t_ref.is_finite()
    }
}

impl Default for TechParams {
    fn default() -> Self {
        TechParams::ldpc_160nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_physical() {
        assert!(TechParams::default().is_physical());
    }

    #[test]
    fn paper_tile_area() {
        assert!((TechParams::ldpc_160nm().tile_area_mm2 - 4.36).abs() < 1e-12);
    }

    #[test]
    fn broken_params_detected() {
        let mut t = TechParams::ldpc_160nm();
        t.e_pe_op = -1.0;
        assert!(!t.is_physical());
        let mut t2 = TechParams::ldpc_160nm();
        t2.clock_hz = f64::NAN;
        assert!(!t2.is_physical());
    }
}
