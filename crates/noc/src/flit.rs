//! Packets and flits.
//!
//! Messages travel the network as packets that are serialized into flits
//! (flow-control digits). The head flit carries routing information; wormhole
//! switching lets the body follow the path the head reserves.

use crate::topology::NodeId;
use std::fmt;

/// Globally unique packet identifier (unique within one [`crate::Network`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Traffic class of a packet. The class selects the virtual channel used,
/// keeping reconfiguration traffic (configuration and PE state, §2.1 of the
/// paper) separated from application data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketClass {
    /// Application data (LDPC messages in the paper's workload).
    Data,
    /// Configuration stream moved during a migration.
    Config,
    /// PE architectural state moved during a migration.
    State,
    /// Control messages (barriers, halt/resume).
    Control,
}

impl PacketClass {
    /// Virtual channel used by this class: migration traffic
    /// (`Config`/`State`/`Control`) uses channel 1 so that it cannot be
    /// blocked behind in-flight data on channel 0.
    pub fn virtual_channel(self) -> u8 {
        match self {
            PacketClass::Data => 0,
            _ => 1,
        }
    }
}

impl fmt::Display for PacketClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PacketClass::Data => "data",
            PacketClass::Config => "config",
            PacketClass::State => "state",
            PacketClass::Control => "control",
        };
        f.write_str(s)
    }
}

/// A network packet prior to serialization into flits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Unique id (assigned by the creator; the network checks uniqueness only
    /// in debug builds).
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Traffic class.
    pub class: PacketClass,
    /// Length in flits (>= 1).
    pub len_flits: u32,
    /// Payload seed; flit payloads are derived from it so that bit-level
    /// switching estimates are reproducible.
    pub payload: u64,
}

impl Packet {
    /// Creates a packet. Prefer this over struct literal syntax so the
    /// payload seed defaults deterministically from the id.
    pub fn new(id: u64, src: NodeId, dst: NodeId, class: PacketClass, len_flits: u32) -> Self {
        Packet {
            id: PacketId(id),
            src,
            dst,
            class,
            len_flits,
            payload: payload_seed(id),
        }
    }
}

/// The payload seed [`Packet::new`] gives packet `id`.
pub(crate) fn payload_seed(id: u64) -> u64 {
    id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The payload words of a packet's flits, in order, from its payload seed
/// (the words [`packetize`] puts on them).
pub(crate) fn flit_payloads(seed: u64) -> impl Iterator<Item = u64> {
    std::iter::successors(Some(next_payload(seed)), |&p| Some(next_payload(p)))
}

/// A flow-control digit: the unit moved per link per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Owning packet.
    pub packet: PacketId,
    /// Source node of the packet.
    pub src: NodeId,
    /// Destination node of the packet.
    pub dst: NodeId,
    /// Traffic class of the packet.
    pub class: PacketClass,
    /// Sequence number within the packet (0-based).
    pub seq: u32,
    /// Packet length in flits.
    pub len: u32,
    /// Virtual channel this flit travels on.
    pub vc: u8,
    /// Cycle at which the head flit was injected (for latency accounting).
    pub inject_cycle: u64,
    /// Payload word (used for bit-switching statistics, not interpreted).
    pub payload: u64,
    /// Surround-routing phase: `true` once the packet has entered the
    /// descending half of its up*/down* detour route. Always `false` on a
    /// healthy fabric, and reset network-wide at every fault epoch.
    pub down_phase: bool,
}

impl Flit {
    /// `true` for head or single flits (the ones that allocate a route).
    pub fn is_head(&self) -> bool {
        self.seq == 0
    }

    /// `true` for tail or single flits (the ones that release the route).
    pub fn is_tail(&self) -> bool {
        self.seq + 1 == self.len
    }

    /// The head (or single) flit of `packet`, injected at `inject_cycle`.
    pub(crate) fn first(packet: &Packet, inject_cycle: u64) -> Flit {
        Flit {
            packet: packet.id,
            src: packet.src,
            dst: packet.dst,
            class: packet.class,
            seq: 0,
            len: packet.len_flits,
            vc: packet.class.virtual_channel(),
            inject_cycle,
            payload: next_payload(packet.payload),
            down_phase: false,
        }
    }

    /// The flit that follows this one in its packet. Meaningless after the
    /// tail.
    pub(crate) fn successor(&self) -> Flit {
        Flit {
            seq: self.seq + 1,
            payload: next_payload(self.payload),
            ..*self
        }
    }
}

/// The payload word after `state`: a splitmix-style step, so flit `k` of a
/// packet carries the `k + 1`-th word after the packet's payload seed.
fn next_payload(state: u64) -> u64 {
    state
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// Serializes a packet into its flits.
///
/// The per-flit payloads are produced with a splitmix-style generator from the
/// packet's payload seed, so two identical packets produce identical bit
/// streams (reproducible switching-activity estimates). The network's NICs
/// serialize with the same [`Flit`] steps, one flit at a time.
pub fn packetize(packet: &Packet, inject_cycle: u64) -> Vec<Flit> {
    std::iter::successors(Some(Flit::first(packet, inject_cycle)), |f| {
        Some(f.successor())
    })
    .take(packet.len_flits as usize)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_packet(len: u32) -> Packet {
        Packet::new(42, NodeId::new(0), NodeId::new(5), PacketClass::Data, len)
    }

    #[test]
    fn flit_kinds_single() {
        let flits = packetize(&mk_packet(1), 0);
        assert_eq!(flits.len(), 1);
        assert!(flits[0].is_head() && flits[0].is_tail());
    }

    #[test]
    fn flit_kinds_multi() {
        let flits = packetize(&mk_packet(4), 7);
        let kinds: Vec<(bool, bool)> = flits.iter().map(|f| (f.is_head(), f.is_tail())).collect();
        assert_eq!(
            kinds,
            [(true, false), (false, false), (false, false), (false, true)]
        );
        assert!(flits.iter().all(|f| f.inject_cycle == 7));
        assert!(flits.iter().all(|f| f.len == 4));
    }

    #[test]
    fn packetize_is_deterministic() {
        let a = packetize(&mk_packet(8), 0);
        let b = packetize(&mk_packet(8), 0);
        assert_eq!(a, b);
    }

    #[test]
    fn payloads_differ_between_flits() {
        let flits = packetize(&mk_packet(8), 0);
        for w in flits.windows(2) {
            assert_ne!(w[0].payload, w[1].payload);
        }
    }

    #[test]
    fn class_vc_assignment() {
        assert_eq!(PacketClass::Data.virtual_channel(), 0);
        assert_eq!(PacketClass::State.virtual_channel(), 1);
        assert_eq!(PacketClass::Config.virtual_channel(), 1);
        assert_eq!(PacketClass::Control.virtual_channel(), 1);
    }

    #[test]
    fn display_impls() {
        assert_eq!(PacketId(3).to_string(), "p3");
        assert_eq!(PacketClass::State.to_string(), "state");
    }
}
