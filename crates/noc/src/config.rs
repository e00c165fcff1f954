//! Simulator configuration.

use crate::error::NocError;

/// Virtual channels per input port: one for application data, one for
/// reconfiguration traffic ([`crate::PacketClass::virtual_channel`]).
pub const NUM_VCS: usize = 2;

/// Buffer depth per virtual channel, in flits.
pub const BUFFER_DEPTH: u32 = 4;

/// Link traversal latency, in cycles. Because it is 1, a flit sent in one
/// cycle always lands in the next, so the network stores each link as a
/// single flit slot.
pub const LINK_LATENCY: u64 = 1;

/// The clock of the paper's 160 nm LDPC-decoder NoC.
///
/// The router itself is fixed: [`NUM_VCS`] virtual channels per input port,
/// [`BUFFER_DEPTH`] flits of buffer per channel and [`LINK_LATENCY`] cycle
/// per link. Flit width belongs to the traffic that packs payload into flits
/// (`MessageParams` in `hotnoc-ldpc`, `StateSpec` in `hotnoc-reconfig`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Clock frequency in Hz, used to convert cycles to seconds.
    pub clock_hz: f64,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig { clock_hz: 500.0e6 }
    }
}

impl NocConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidConfig`] if the clock is not positive and
    /// finite.
    pub fn validate(&self) -> Result<(), NocError> {
        if !(self.clock_hz.is_finite() && self.clock_hz > 0.0) {
            return Err(NocError::InvalidConfig {
                what: "clock_hz must be positive and finite",
            });
        }
        Ok(())
    }

    /// Converts a cycle count to seconds at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz
    }

    /// Converts seconds to (rounded) cycles at the configured clock.
    pub fn seconds_to_cycles(&self, seconds: f64) -> u64 {
        (seconds * self.clock_hz).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        NocConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_zero_latency_and_bad_clock() {
        assert!(NocConfig { clock_hz: f64::NAN }.validate().is_err());
    }

    #[test]
    fn time_conversions_roundtrip() {
        let cfg = NocConfig::default();
        assert_eq!(cfg.seconds_to_cycles(1.0e-6), 500);
        let s = cfg.cycles_to_seconds(54_650);
        assert!((s - 109.3e-6).abs() < 1e-12);
    }
}
