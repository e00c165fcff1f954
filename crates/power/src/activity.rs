//! Neutral per-tile activity records.
//!
//! `hotnoc-power` deliberately does not depend on the NoC simulator; the
//! co-simulation layer converts `hotnoc_noc::RouterActivity` snapshots into
//! these records (one per tile per window).

use std::ops::Add;

/// Switching activity of one tile (router + PE) over one window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileActivity {
    /// Flits written into the router's input buffers.
    pub buffer_writes: u64,
    /// Flits read from input buffers.
    pub buffer_reads: u64,
    /// Crossbar traversals.
    pub xbar_traversals: u64,
    /// Switch-allocation decisions.
    pub arbitrations: u64,
    /// Flits driven onto outbound links (all ports).
    pub link_flits: u64,
    /// Payload bit transitions on outbound links.
    pub bit_transitions: u64,
    /// LDPC edge operations executed by the PE.
    pub pe_ops: u64,
}

impl Add for TileActivity {
    type Output = TileActivity;

    fn add(self, r: TileActivity) -> TileActivity {
        TileActivity {
            buffer_writes: self.buffer_writes + r.buffer_writes,
            buffer_reads: self.buffer_reads + r.buffer_reads,
            xbar_traversals: self.xbar_traversals + r.xbar_traversals,
            arbitrations: self.arbitrations + r.arbitrations,
            link_flits: self.link_flits + r.link_flits,
            bit_transitions: self.bit_transitions + r.bit_transitions,
            pe_ops: self.pe_ops + r.pe_ops,
        }
    }
}

impl TileActivity {
    /// Scales all counters by `factor` (used when extrapolating one decoded
    /// block's activity over a longer window). Rounds to nearest.
    pub fn scaled(&self, factor: f64) -> TileActivity {
        let s = |v: u64| ((v as f64) * factor).round().max(0.0) as u64;
        TileActivity {
            buffer_writes: s(self.buffer_writes),
            buffer_reads: s(self.buffer_reads),
            xbar_traversals: s(self.xbar_traversals),
            arbitrations: s(self.arbitrations),
            link_flits: s(self.link_flits),
            bit_transitions: s(self.bit_transitions),
            pe_ops: s(self.pe_ops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(n: u64) -> TileActivity {
        TileActivity {
            buffer_writes: n,
            buffer_reads: n,
            xbar_traversals: n,
            arbitrations: n,
            link_flits: n,
            bit_transitions: n,
            pe_ops: n,
        }
    }

    #[test]
    fn add_and_scale() {
        let a = act(10) + act(5);
        assert_eq!(a.pe_ops, 15);
        let s = a.scaled(2.0);
        assert_eq!(s.buffer_writes, 30);
        let down = a.scaled(0.5);
        assert_eq!(down.pe_ops, 8); // 7.5 rounds to 8
    }
}
