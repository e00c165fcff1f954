//! Size model of the per-PE configuration and state moved at migration.
//!
//! §2.1 of the paper: "the operation of the PEs is halted, the configuration
//! and state information of each PE is passed through a conversion unit, and
//! then sent across the network to the destination PE". The paper also notes
//! (§3) that migration periods are aligned to LDPC block completion to
//! minimize the state that must be moved; what remains is the PE's
//! configuration stream plus its resident working set.

/// Per-PE migration payload sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateSpec {
    /// Configuration stream bits per PE (routing tables, node assignments,
    /// schedule microcode).
    pub config_bits: u64,
    /// Architectural/working state bits per PE at a block boundary
    /// (channel LLR memory and accumulated decisions).
    pub state_bits: u64,
    /// Link flit width in bits.
    pub flit_bits: u32,
}

impl StateSpec {
    /// The paper-calibrated default: 6 KiB per PE over 64-bit flits, i.e.
    /// 768 flits per tile. An X-Y shift moves them in one phase, about
    /// 1.7 µs at 500 MHz, which against a 109.3 µs period is the paper's
    /// 1.6 % throughput penalty (`phases` checks the stall's range).
    pub fn ldpc_default() -> Self {
        StateSpec {
            config_bits: 4_096,
            state_bits: 45_056,
            flit_bits: 64,
        }
    }

    /// Total bits moved per PE.
    pub fn total_bits(&self) -> u64 {
        self.config_bits + self.state_bits
    }

    /// Flits needed to carry one PE's payload (ceiling division), at least 1.
    ///
    /// # Panics
    ///
    /// Panics if `flit_bits == 0`.
    pub fn flits_per_pe(&self) -> u32 {
        assert!(self.flit_bits > 0, "flit width must be positive");
        let flits = self.total_bits().div_ceil(self.flit_bits as u64);
        flits.max(1) as u32
    }
}

impl Default for StateSpec {
    fn default() -> Self {
        StateSpec::ldpc_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_flit_count() {
        let s = StateSpec::ldpc_default();
        assert_eq!(s.total_bits(), 49_152);
        assert_eq!(s.flits_per_pe(), 768);
    }

    #[test]
    fn ceiling_division() {
        let s = StateSpec {
            config_bits: 1,
            state_bits: 0,
            flit_bits: 64,
        };
        assert_eq!(s.flits_per_pe(), 1);
        let s2 = StateSpec {
            config_bits: 65,
            state_bits: 0,
            flit_bits: 64,
        };
        assert_eq!(s2.flits_per_pe(), 2);
    }

    #[test]
    fn zero_state_still_one_flit() {
        let s = StateSpec {
            config_bits: 0,
            state_bits: 0,
            flit_bits: 64,
        };
        assert_eq!(s.flits_per_pe(), 1);
    }
}
