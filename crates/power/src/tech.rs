//! Technology characterization: energy per micro-operation.
//!
//! The absolute values below are representative of a 160 nm standard-cell
//! process at 1.8 V. Power is energy over a window in seconds, which the
//! caller takes from the NoC's clock (`hotnoc_noc::NocConfig`). The
//! co-simulation then scales each configuration's dynamic power so its
//! steady-state peak matches the paper's measured base temperature
//! (`Chip::calibrate` in `hotnoc-core`), so the *distribution* across events
//! is what matters here.

/// Energy-per-event and static-power parameters of a process + cell library.
#[derive(Debug, Clone, PartialEq)]
pub struct TechParams {
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
    /// Leakage power density at `leak_t_ref` (W/mm²).
    pub leak_density_ref: f64,
    /// Exponential leakage temperature coefficient (1/K).
    pub leak_temp_coeff: f64,
    /// Leakage reference temperature (°C).
    pub leak_t_ref: f64,
}

impl TechParams {
    /// Parameters for the paper's platform: a 160 nm standard-cell LDPC
    /// decoder NoC at 1.8 V.
    pub fn ldpc_160nm() -> Self {
        TechParams {
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
            leak_density_ref: 0.004,
            leak_temp_coeff: 0.017,
            leak_t_ref: 60.0,
        }
    }
}
