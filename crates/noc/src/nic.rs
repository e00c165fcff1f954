//! Network interface controllers: packet injection and reassembly.

use crate::flit::{packetize, Flit, Packet, PacketId};
use std::collections::{HashMap, VecDeque};

/// Per-node network interface: an injection FIFO of serialized flits and a
/// reassembly table for arriving packets.
#[derive(Debug, Clone, Default)]
pub(crate) struct Nic {
    /// Flits waiting to enter the router's local input port.
    pub inject_queue: VecDeque<Flit>,
    /// Packets being reassembled: id -> flits received so far.
    reassembly: HashMap<PacketId, u32>,
}

impl Nic {
    /// Serializes `packet` and queues its flits for injection.
    pub fn enqueue(&mut self, packet: &Packet, now: u64) {
        for flit in packetize(packet, now) {
            self.inject_queue.push_back(flit);
        }
    }

    /// The next flit waiting to enter the router's local port, if any.
    pub fn peek_inject(&self) -> Option<&Flit> {
        self.inject_queue.front()
    }

    /// Removes the flit returned by [`Nic::peek_inject`]. Called by the
    /// network once the router confirmed buffer space for it.
    pub fn take_inject(&mut self) -> Option<Flit> {
        self.inject_queue.pop_front()
    }

    /// Accepts an ejected flit; returns the completed packet (and its
    /// delivery cycle) when the tail arrives.
    pub fn eject(&mut self, flit: Flit, now: u64) -> Option<(Packet, u64)> {
        let count = self.reassembly.entry(flit.packet).or_insert(0);
        *count += 1;
        debug_assert!(*count <= flit.len, "duplicate flit for {}", flit.packet);
        if flit.is_tail() {
            self.reassembly.remove(&flit.packet);
            let packet = Packet {
                id: flit.packet,
                src: flit.src,
                dst: flit.dst,
                class: flit.class,
                len_flits: flit.len,
                payload: 0,
            };
            Some((packet, now))
        } else {
            None
        }
    }

    /// Flits still queued for injection. The network reads its in-flight
    /// count off the stats ledger; tests cross-check it with this recount.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn pending_flits(&self) -> usize {
        self.inject_queue.len()
    }

    /// Packets currently mid-reassembly.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn open_reassemblies(&self) -> usize {
        self.reassembly.len()
    }

    /// Aborts reassembly of packets condemned by fault teardown; their
    /// remaining flits will never arrive.
    pub fn abort_reassembly(&mut self, doomed: &std::collections::HashSet<PacketId>) {
        self.reassembly.retain(|id, _| !doomed.contains(id));
    }

    /// Drops every queued and half-reassembled packet (router failure).
    /// Returns the number of queued flits discarded.
    pub fn clear_for_fault(&mut self) -> usize {
        let dropped = self.inject_queue.len();
        self.inject_queue.clear();
        self.reassembly.clear();
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketClass;
    use crate::topology::NodeId;

    #[test]
    fn enqueue_serializes_all_flits() {
        let mut nic = Nic::default();
        let p = Packet::new(9, NodeId::new(0), NodeId::new(1), PacketClass::Data, 5);
        nic.enqueue(&p, 0);
        assert_eq!(nic.pending_flits(), 5);
    }

    #[test]
    fn eject_reassembles_in_order() {
        let mut nic = Nic::default();
        let p = Packet::new(3, NodeId::new(0), NodeId::new(1), PacketClass::Data, 3);
        let flits = packetize(&p, 10);
        assert!(nic.eject(flits[0], 20).is_none());
        assert!(nic.eject(flits[1], 21).is_none());
        let (done, at) = nic.eject(flits[2], 22).expect("tail completes packet");
        assert_eq!(done.id, p.id);
        assert_eq!(done.len_flits, 3);
        assert_eq!(at, 22);
        assert_eq!(nic.open_reassemblies(), 0);
    }

    #[test]
    fn interleaved_packets_reassemble_independently() {
        let mut nic = Nic::default();
        let a = Packet::new(1, NodeId::new(0), NodeId::new(1), PacketClass::Data, 2);
        let b = Packet::new(2, NodeId::new(2), NodeId::new(1), PacketClass::Data, 2);
        let fa = packetize(&a, 0);
        let fb = packetize(&b, 0);
        assert!(nic.eject(fa[0], 5).is_none());
        assert!(nic.eject(fb[0], 6).is_none());
        assert_eq!(nic.open_reassemblies(), 2);
        assert!(nic.eject(fb[1], 7).is_some());
        assert!(nic.eject(fa[1], 8).is_some());
        assert_eq!(nic.open_reassemblies(), 0);
    }
}
