//! Network interface controllers: packet injection and ejection.

use crate::flit::{Flit, Packet, PacketId};
use std::collections::{HashSet, VecDeque};

/// Per-node network interface: a FIFO of packets waiting for injection,
/// serialized one flit at a time as the router takes them.
#[derive(Debug, Clone, Default)]
pub(crate) struct Nic {
    /// The next flit to enter the router's local input port: the front
    /// packet's, which may be partly injected already. `None` iff nothing
    /// is queued.
    next: Option<Flit>,
    /// Packets queued behind the front one, with their injection cycles.
    queue: VecDeque<(Packet, u64)>,
}

impl Nic {
    /// Queues `packet`, injected at `now`, behind every packet already
    /// waiting.
    pub fn enqueue(&mut self, packet: &Packet, now: u64) {
        if self.next.is_none() {
            self.next = Some(Flit::first(packet, now));
        } else {
            self.queue.push_back((*packet, now));
        }
    }

    /// The next flit waiting to enter the router's local port, if any.
    pub fn peek_inject(&self) -> Option<&Flit> {
        self.next.as_ref()
    }

    /// Removes the flit returned by [`Nic::peek_inject`]. Called by the
    /// network once the router confirmed buffer space for it.
    pub fn take_inject(&mut self) -> Option<Flit> {
        let flit = self.next?;
        self.next = if flit.is_tail() {
            self.queue.pop_front().map(|(p, at)| Flit::first(&p, at))
        } else {
            Some(flit.successor())
        };
        Some(flit)
    }

    /// Accepts an ejected flit; returns the completed packet (and its
    /// delivery cycle) when it is the tail. Flits of a packet eject in
    /// order on one channel, so the tail completes it.
    pub fn eject(&self, flit: Flit, now: u64) -> Option<(Packet, u64)> {
        flit.is_tail().then(|| {
            let packet = Packet {
                id: flit.packet,
                src: flit.src,
                dst: flit.dst,
                class: flit.class,
                len_flits: flit.len,
                payload: 0,
            };
            (packet, now)
        })
    }

    /// Each waiting packet's next flit, with how many of its flits are
    /// still queued, in injection order.
    pub fn pending(&self) -> impl Iterator<Item = (Flit, u32)> + '_ {
        let front = self.next.map(|f| (f, f.len - f.seq));
        let rest = self
            .queue
            .iter()
            .map(|(p, at)| (Flit::first(p, *at), p.len_flits));
        front.into_iter().chain(rest)
    }

    /// Flits still queued for injection.
    pub fn pending_flits(&self) -> usize {
        self.pending().map(|(_, n)| n as usize).sum()
    }

    /// Drops every waiting packet condemned by fault teardown. Returns the
    /// number of queued flits discarded.
    pub fn drop_packets(&mut self, doomed: &HashSet<PacketId>) -> usize {
        let mut dropped = 0;
        if let Some(f) = self.next.filter(|f| doomed.contains(&f.packet)) {
            dropped += (f.len - f.seq) as usize;
            self.next = None;
        }
        self.queue.retain(|(p, _)| {
            let doomed = doomed.contains(&p.id);
            if doomed {
                dropped += p.len_flits as usize;
            }
            !doomed
        });
        if self.next.is_none() {
            self.next = self.queue.pop_front().map(|(p, at)| Flit::first(&p, at));
        }
        dropped
    }

    /// Drops every queued packet (router failure). Returns the number of
    /// queued flits discarded.
    pub fn clear_for_fault(&mut self) -> usize {
        let dropped = self.pending_flits();
        self.next = None;
        self.queue.clear();
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{packetize, PacketClass};
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
        let nic = Nic::default();
        let p = Packet::new(3, NodeId::new(0), NodeId::new(1), PacketClass::Data, 3);
        let flits = packetize(&p, 10);
        assert!(nic.eject(flits[0], 20).is_none());
        assert!(nic.eject(flits[1], 21).is_none());
        let (done, at) = nic.eject(flits[2], 22).expect("tail completes packet");
        assert_eq!(done.id, p.id);
        assert_eq!(done.len_flits, 3);
        assert_eq!(at, 22);
    }

    #[test]
    fn interleaved_packets_reassemble_independently() {
        let nic = Nic::default();
        let a = Packet::new(1, NodeId::new(0), NodeId::new(1), PacketClass::Data, 2);
        let b = Packet::new(2, NodeId::new(2), NodeId::new(1), PacketClass::Data, 2);
        let fa = packetize(&a, 0);
        let fb = packetize(&b, 0);
        assert!(nic.eject(fa[0], 5).is_none());
        assert!(nic.eject(fb[0], 6).is_none());
        assert!(nic.eject(fb[1], 7).is_some());
        assert!(nic.eject(fa[1], 8).is_some());
    }

    /// Packets of lengths 1, 2, 5 and 64 in every class, each with its own
    /// injection cycle.
    fn mixed_packets() -> Vec<(Packet, u64)> {
        let classes = [
            PacketClass::Data,
            PacketClass::Config,
            PacketClass::State,
            PacketClass::Control,
        ];
        let mut out = Vec::new();
        for (c, &class) in classes.iter().enumerate() {
            for (l, len) in [1, 2, 5, 64].into_iter().enumerate() {
                let id = (c * 4 + l) as u64;
                let p = Packet::new(id, NodeId::new(c as u16), NodeId::new(7), class, len);
                out.push((p, 100 + 3 * id));
            }
        }
        out
    }

    #[test]
    fn injection_serializes_exactly_what_packetize_does() {
        let packets = mixed_packets();
        let mut nic = Nic::default();
        for (p, at) in &packets {
            nic.enqueue(p, *at);
        }
        let expected: Vec<Flit> = packets
            .iter()
            .flat_map(|(p, at)| packetize(p, *at))
            .collect();
        assert_eq!(nic.pending_flits(), expected.len());
        let mut taken = Vec::new();
        while let Some(&f) = nic.peek_inject() {
            assert_eq!(nic.take_inject(), Some(f));
            taken.push(f);
        }
        assert_eq!(taken, expected);
        assert_eq!(nic.pending_flits(), 0);
        assert_eq!(nic.take_inject(), None);
    }

    #[test]
    fn partial_injection_counts_only_remaining_flits() {
        let packets = mixed_packets();
        let load = || {
            let mut nic = Nic::default();
            for (p, at) in &packets {
                nic.enqueue(p, *at);
            }
            // Fully inject the first two packets (1 + 2 flits) and three
            // flits of the third (5 flits long).
            for _ in 0..6 {
                nic.take_inject().expect("queued");
            }
            nic
        };
        let total: usize = packets.iter().map(|(p, _)| p.len_flits as usize).sum();
        let remaining = total - 6;

        let nic = load();
        assert_eq!(nic.pending_flits(), remaining);
        let counts: Vec<u32> = nic.pending().map(|(_, n)| n).collect();
        assert_eq!(counts[0], 2, "the partly injected packet keeps 2 flits");
        assert_eq!(counts.len(), packets.len() - 2);

        // Dropping the partly injected packet and one untouched packet
        // discards exactly their remaining flits; the rest still serialize
        // as packetize does.
        let mut nic = load();
        let doomed: HashSet<PacketId> = [packets[2].0.id, packets[5].0.id].into();
        let dropped = nic.drop_packets(&doomed);
        assert_eq!(dropped, 2 + packets[5].0.len_flits as usize);
        assert_eq!(nic.pending_flits(), remaining - dropped);
        let mut taken = Vec::new();
        while let Some(f) = nic.take_inject() {
            taken.push(f);
        }
        let expected: Vec<Flit> = packets[3..]
            .iter()
            .filter(|(p, _)| !doomed.contains(&p.id))
            .flat_map(|(p, at)| packetize(p, *at))
            .collect();
        assert_eq!(taken, expected);

        // Dropping a packet that is not at the front keeps the front
        // packet's injection going where it stopped.
        let mut nic = load();
        let doomed: HashSet<PacketId> = [packets[7].0.id].into();
        assert_eq!(nic.drop_packets(&doomed), packets[7].0.len_flits as usize);
        let front = packetize(&packets[2].0, packets[2].1);
        assert_eq!(nic.take_inject(), Some(front[3]));

        let mut nic = load();
        assert_eq!(nic.clear_for_fault(), remaining);
        assert_eq!(nic.pending_flits(), 0);
        assert_eq!(nic.peek_inject(), None);
    }
}
