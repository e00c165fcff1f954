//! Message-passing traffic induced by a cluster mapping.
//!
//! Each decoding iteration has two communication phases (variable→check and
//! check→variable). Messages between clusters are aggregated per
//! (source, destination) pair and packetized for the NoC.

use crate::code::LdpcCode;
use crate::mapping::ClusterMapping;

/// Quantization/packetization parameters for decoder messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageParams {
    /// Bits per LLR message (hardware decoders quantize to 6-8 bits).
    pub bits_per_message: u32,
    /// Link flit width in bits.
    pub flit_bits: u32,
    /// Maximum packet length in flits (larger transfers are split).
    pub max_packet_flits: u32,
}

impl Default for MessageParams {
    fn default() -> Self {
        MessageParams {
            bits_per_message: 8,
            flit_bits: 64,
            max_packet_flits: 8,
        }
    }
}

/// One iteration phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterPhase {
    /// Variables send extrinsic LLRs to checks.
    VarToCheck,
    /// Checks send updated messages back to variables.
    CheckToVar,
}

/// An aggregated inter-cluster transfer within one phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Source cluster index.
    pub src_cluster: usize,
    /// Destination cluster index.
    pub dst_cluster: usize,
    /// Number of LLR messages aggregated.
    pub messages: u64,
    /// Packet lengths in flits (sums to the payload flit count).
    pub packet_lens: Vec<u32>,
}

/// All inter-cluster transfers of one phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTraffic {
    /// Which phase this describes.
    pub phase: IterPhase,
    /// The transfers, ordered by (src, dst).
    pub transfers: Vec<Transfer>,
}

/// Computes the inter-cluster traffic of `phase` for `mapping` on `code`.
///
/// Intra-cluster messages (diagonal of the traffic matrix) are excluded —
/// they never enter the network.
///
/// # Panics
///
/// Panics if `params` has a zero flit width or zero packet length (invalid
/// configuration).
pub fn phase_traffic(
    mapping: &ClusterMapping,
    code: &LdpcCode,
    phase: IterPhase,
    params: &MessageParams,
) -> PhaseTraffic {
    assert!(params.flit_bits > 0 && params.max_packet_flits > 0 && params.bits_per_message > 0);
    let t = mapping.traffic_matrix(code);
    let mut transfers = Vec::new();
    for (src, row) in t.iter().enumerate() {
        for (dst, &forward) in row.iter().enumerate() {
            if src == dst {
                continue;
            }
            // Var->check sends along t[src][dst]; check->var along t[dst][src]
            // but from the *check* cluster's point of view, so we swap roles.
            let messages = match phase {
                IterPhase::VarToCheck => forward,
                IterPhase::CheckToVar => t[dst][src],
            };
            if messages == 0 {
                continue;
            }
            let bits = messages * params.bits_per_message as u64;
            let flits = bits.div_ceil(params.flit_bits as u64).max(1);
            let mut packet_lens = Vec::new();
            let mut left = flits;
            while left > 0 {
                let take = left.min(params.max_packet_flits as u64) as u32;
                packet_lens.push(take);
                left -= take as u64;
            }
            transfers.push(Transfer {
                src_cluster: src,
                dst_cluster: dst,
                messages,
                packet_lens,
            });
        }
    }
    PhaseTraffic { phase, transfers }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (LdpcCode, ClusterMapping) {
        let code = LdpcCode::gallager(240, 3, 6, 5).unwrap();
        let mapping = ClusterMapping::contiguous(&code, 16).unwrap();
        (code, mapping)
    }

    #[test]
    fn phases_carry_same_total_messages() {
        let (code, mapping) = setup();
        let p = MessageParams::default();
        let v2c = phase_traffic(&mapping, &code, IterPhase::VarToCheck, &p);
        let c2v = phase_traffic(&mapping, &code, IterPhase::CheckToVar, &p);
        let mv: u64 = v2c.transfers.iter().map(|t| t.messages).sum();
        let mc: u64 = c2v.transfers.iter().map(|t| t.messages).sum();
        assert_eq!(mv, mc, "both phases move each inter-cluster edge once");
        // Inter-cluster messages are bounded by total edges.
        assert!(mv <= code.edges() as u64);
        assert!(mv > 0);
    }

    #[test]
    fn packets_respect_max_length() {
        let (code, mapping) = setup();
        let p = MessageParams {
            max_packet_flits: 4,
            ..MessageParams::default()
        };
        let tr = phase_traffic(&mapping, &code, IterPhase::VarToCheck, &p);
        for t in &tr.transfers {
            assert!(t.packet_lens.iter().all(|&l| (1..=4).contains(&l)));
        }
    }

    #[test]
    fn flit_count_matches_message_bits() {
        let (code, mapping) = setup();
        let p = MessageParams::default();
        let tr = phase_traffic(&mapping, &code, IterPhase::VarToCheck, &p);
        for t in &tr.transfers {
            let bits = t.messages * 8;
            let expected = bits.div_ceil(64).max(1);
            let flits: u64 = t.packet_lens.iter().map(|&l| l as u64).sum();
            assert_eq!(flits, expected);
        }
    }

    #[test]
    fn no_self_transfers() {
        let (code, mapping) = setup();
        let tr = phase_traffic(
            &mapping,
            &code,
            IterPhase::VarToCheck,
            &MessageParams::default(),
        );
        assert!(tr.transfers.iter().all(|t| t.src_cluster != t.dst_cluster));
    }

    #[test]
    fn c2v_is_transpose_of_v2c() {
        let (code, mapping) = setup();
        let p = MessageParams::default();
        let v2c = phase_traffic(&mapping, &code, IterPhase::VarToCheck, &p);
        let c2v = phase_traffic(&mapping, &code, IterPhase::CheckToVar, &p);
        for t in &v2c.transfers {
            let rev = c2v
                .transfers
                .iter()
                .find(|r| r.src_cluster == t.dst_cluster && r.dst_cluster == t.src_cluster)
                .expect("transpose entry exists");
            assert_eq!(rev.messages, t.messages);
        }
    }
}
