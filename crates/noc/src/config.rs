//! Simulator configuration.

use crate::error::NocError;

/// Microarchitectural parameters of the routers and links.
///
/// The defaults model the paper's 160 nm LDPC-decoder NoC: two virtual
/// channels (one for data, one for reconfiguration traffic), 4-flit input
/// buffers and single-cycle links at 500 MHz. Flit width belongs to the
/// traffic that packs payload into flits (`MessageParams` in `hotnoc-ldpc`,
/// `StateSpec` in `hotnoc-reconfig`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Number of virtual channels per input port (1..=8).
    pub num_vcs: u8,
    /// Buffer depth per virtual channel, in flits (1..=256).
    pub buffer_depth: u32,
    /// Link traversal latency in cycles (>= 1).
    pub link_latency: u32,
    /// Clock frequency in Hz, used to convert cycles to seconds.
    pub clock_hz: f64,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            num_vcs: 2,
            buffer_depth: 4,
            link_latency: 1,
            clock_hz: 500.0e6,
        }
    }
}

impl NocConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), NocError> {
        if self.num_vcs == 0 || self.num_vcs > 8 {
            return Err(NocError::InvalidConfig {
                what: "num_vcs must be in 1..=8",
            });
        }
        if self.buffer_depth == 0 || self.buffer_depth > 256 {
            return Err(NocError::InvalidConfig {
                what: "buffer_depth must be in 1..=256",
            });
        }
        if self.link_latency == 0 {
            return Err(NocError::InvalidConfig {
                what: "link_latency must be >= 1",
            });
        }
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
    fn rejects_zero_vcs() {
        let cfg = NocConfig {
            num_vcs: 0,
            ..NocConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_zero_buffer() {
        let cfg = NocConfig {
            buffer_depth: 0,
            ..NocConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_zero_latency_and_bad_clock() {
        assert!(NocConfig {
            link_latency: 0,
            ..NocConfig::default()
        }
        .validate()
        .is_err());
        assert!(NocConfig {
            clock_hz: f64::NAN,
            ..NocConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn time_conversions_roundtrip() {
        let cfg = NocConfig::default();
        assert_eq!(cfg.seconds_to_cycles(1.0e-6), 500);
        let s = cfg.cycles_to_seconds(54_650);
        assert!((s - 109.3e-6).abs() < 1e-12);
    }
}
