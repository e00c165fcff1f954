//! Input-buffered wormhole router with virtual channels.
//!
//! The router keeps one FIFO per input virtual channel. A head flit at the
//! front of an idle VC triggers route computation; switch allocation is
//! round-robin per output port; credits flow back to the upstream router as
//! buffer slots free up. This is the classical 4-stage VC router collapsed
//! into a single-cycle model with a separate link-traversal stage, which
//! preserves throughput and event counts (what the power model needs) while
//! staying fast enough for multi-million-cycle co-simulation.
//!
//! The router's shape is fixed at compile time, so its storage is too: the
//! input VCs are numbered by slot `port * NUM_VCS + vc` (the bit layout of
//! the network's switch-allocation masks), each slot's FIFO is an inline
//! ring of [`BUFFER_DEPTH`] flits, and its wormhole state is one entry of a
//! dense table.

use crate::config::{BUFFER_DEPTH, NUM_VCS};
use crate::flit::{Flit, PacketClass, PacketId};
use crate::stats::RouterActivity;
use crate::topology::{Coord, Direction, NodeId};

/// Input virtual channels per router: one per (input port, VC), numbered
/// `port * NUM_VCS + vc`.
pub(crate) const SLOTS: usize = 5 * NUM_VCS;

/// Ring capacity of one input VC.
const DEPTH: usize = BUFFER_DEPTH as usize;

/// [`VcTable::route`] of a VC that no packet holds.
pub(crate) const IDLE: u8 = u8::MAX;

/// What an empty ring slot holds: the crate forbids `unsafe`, so rings are
/// filled with a value that is never read.
const EMPTY: Flit = Flit {
    packet: PacketId(0),
    src: NodeId::new(0),
    dst: NodeId::new(0),
    class: PacketClass::Data,
    seq: 0,
    len: 0,
    vc: 0,
    inject_cycle: 0,
    payload: 0,
    down_phase: false,
};

/// Occupancy and wormhole state of every input VC, indexed by slot.
#[derive(Debug, Clone)]
pub(crate) struct VcTable {
    /// Flits buffered.
    pub len: [u8; SLOTS],
    /// Ring index of the front flit.
    pub head: [u8; SLOTS],
    /// Output direction index allocated to the packet holding the channel,
    /// or [`IDLE`]. The route is held until the packet's tail flit leaves.
    pub route: [u8; SLOTS],
    /// Flits of the holding packet that still have to traverse this router.
    pub flits_left: [u32; SLOTS],
}

/// An output port: downstream credit counters and the round-robin pointer
/// used by switch allocation.
#[derive(Debug, Clone)]
pub(crate) struct OutputPort {
    /// Credits per downstream virtual channel.
    pub credits: [u32; NUM_VCS],
    /// Wormhole ownership: which (input port, vc) currently holds each
    /// outbound virtual channel. `None` means the channel is free and only a
    /// head flit may claim it; ownership is released when the tail passes.
    pub vc_owner: [Option<(u8, u8)>; NUM_VCS],
    /// Round-robin arbitration pointer over (input port, vc) pairs.
    pub rr_ptr: usize,
    /// The credit in flight back to this port (its VC), landing next cycle.
    /// One slot suffices: the downstream router frees at most one flit per
    /// input port per cycle, and every credit lands on the following cycle.
    pub credit_in: Option<u8>,
    /// Last payload word sent, for bit-transition counting.
    pub last_payload: u64,
}

/// A mesh router.
///
/// Routers are owned and stepped by [`crate::Network`]; the public surface is
/// the activity counters and the coordinate.
#[derive(Clone)]
pub struct Router {
    coord: Coord,
    /// Occupancy and route of every input VC.
    pub(crate) vcs: VcTable,
    /// Input VC FIFOs: slot `s` holds `vcs.len[s]` flits starting at ring
    /// index `vcs.head[s]`.
    pub(crate) bufs: [[Flit; DEPTH]; SLOTS],
    /// Output ports, indexed by [`Direction::index`].
    pub(crate) outputs: [OutputPort; 5],
    pub(crate) activity: RouterActivity,
}

/// Shows each input VC's buffered flits only: ring slots outside them hold
/// stale flits that nothing reads.
impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let buffered: Vec<Vec<&Flit>> = (0..SLOTS).map(|s| self.buffered(s).collect()).collect();
        f.debug_struct("Router")
            .field("coord", &self.coord)
            .field("vcs", &self.vcs)
            .field("buffered", &buffered)
            .field("outputs", &self.outputs)
            .field("activity", &self.activity)
            .finish()
    }
}

impl Router {
    /// Creates an idle router at `coord`.
    pub(crate) fn new(coord: Coord) -> Self {
        let outputs = std::array::from_fn(|_| OutputPort {
            credits: [BUFFER_DEPTH; NUM_VCS],
            vc_owner: [None; NUM_VCS],
            rr_ptr: 0,
            credit_in: None,
            last_payload: 0,
        });
        Router {
            coord,
            vcs: VcTable {
                len: [0; SLOTS],
                head: [0; SLOTS],
                route: [IDLE; SLOTS],
                flits_left: [0; SLOTS],
            },
            bufs: [[EMPTY; DEPTH]; SLOTS],
            outputs,
            activity: RouterActivity::default(),
        }
    }

    /// The router's mesh coordinate.
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// Cumulative switching activity since the network was built.
    pub fn activity(&self) -> RouterActivity {
        self.activity
    }

    /// Number of flits currently buffered in this router.
    pub fn buffered_flits(&self) -> usize {
        self.vcs.len.iter().map(|&n| n as usize).sum()
    }

    /// Whether the input VC `vc` of `port` has room for another flit.
    #[inline]
    pub(crate) fn has_room(&self, port: Direction, vc: u8) -> bool {
        (self.vcs.len[port.index() * NUM_VCS + vc as usize] as usize) < DEPTH
    }

    /// Accepts a flit into an input buffer. Flow control must guarantee
    /// space; a full buffer therefore indicates a protocol violation.
    ///
    /// # Panics
    ///
    /// Panics if the target buffer is full (credit protocol violated) or the
    /// VC index is out of range.
    pub(crate) fn accept_flit(&mut self, port: Direction, flit: Flit) {
        let slot = port.index() * NUM_VCS + flit.vc as usize;
        let len = self.vcs.len[slot] as usize;
        assert!(
            len < DEPTH,
            "credit protocol violation: buffer overflow at {} port {}",
            self.coord,
            port
        );
        self.bufs[slot][(self.vcs.head[slot] as usize + len) % DEPTH] = flit;
        self.vcs.len[slot] += 1;
        self.activity.buffer_writes += 1;
    }

    /// The front flit of input VC `slot`, which must be non-empty.
    #[inline]
    pub(crate) fn front_mut(&mut self, slot: usize) -> &mut Flit {
        debug_assert!(self.vcs.len[slot] > 0);
        &mut self.bufs[slot][self.vcs.head[slot] as usize]
    }

    /// Whether the front flit of the non-empty input VC `slot` is a head.
    #[inline]
    pub(crate) fn front_is_head(&self, slot: usize) -> bool {
        debug_assert!(self.vcs.len[slot] > 0);
        self.bufs[slot][self.vcs.head[slot] as usize].is_head()
    }

    /// Removes and returns the front flit of the non-empty input VC `slot`.
    #[inline]
    pub(crate) fn pop(&mut self, slot: usize) -> Flit {
        debug_assert!(self.vcs.len[slot] > 0);
        let head = self.vcs.head[slot] as usize;
        self.vcs.head[slot] = ((head + 1) % DEPTH) as u8;
        self.vcs.len[slot] -= 1;
        self.bufs[slot][head]
    }

    /// The flits buffered in input VC `slot`, front first.
    pub(crate) fn buffered(&self, slot: usize) -> impl Iterator<Item = &Flit> + '_ {
        let head = self.vcs.head[slot] as usize;
        (0..self.vcs.len[slot] as usize).map(move |k| &self.bufs[slot][(head + k) % DEPTH])
    }

    /// Keeps, in order, the flits of input VC `slot` for which `keep`
    /// returns `true` (it may edit them). Returns how many were removed.
    pub(crate) fn retain_mut(
        &mut self,
        slot: usize,
        mut keep: impl FnMut(&mut Flit) -> bool,
    ) -> u32 {
        let ring = self.bufs[slot];
        let head = self.vcs.head[slot] as usize;
        let len = self.vcs.len[slot] as usize;
        let mut kept = 0;
        for k in 0..len {
            let mut flit = ring[(head + k) % DEPTH];
            if keep(&mut flit) {
                self.bufs[slot][kept] = flit;
                kept += 1;
            }
        }
        self.vcs.head[slot] = 0;
        self.vcs.len[slot] = kept as u8;
        (len - kept) as u32
    }

    /// Puts a credit for `vc` in flight back to output `out_port`; it lands
    /// at the next [`Router::land_credits`].
    #[inline]
    pub(crate) fn return_credit(&mut self, out_port: usize, vc: u8) {
        let slot = &mut self.outputs[out_port].credit_in;
        debug_assert!(slot.is_none(), "two credits in flight to one output port");
        *slot = Some(vc);
    }

    /// Lands the credits in flight back to this router, returning how many
    /// landed (the network's work tracker retires that many units).
    pub(crate) fn land_credits(&mut self) -> usize {
        let mut landed = 0;
        for out in &mut self.outputs {
            if let Some(vc) = out.credit_in.take() {
                out.credits[vc as usize] += 1;
                landed += 1;
            }
        }
        landed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{packetize, Packet, PacketClass};
    use crate::topology::NodeId;

    fn flit() -> Flit {
        let p = Packet::new(1, NodeId::new(0), NodeId::new(3), PacketClass::Data, 1);
        packetize(&p, 0)[0]
    }

    #[test]
    fn new_router_is_idle() {
        let r = Router::new(Coord::new(1, 2));
        assert_eq!(r.coord(), Coord::new(1, 2));
        assert!(r.activity().is_idle());
        assert_eq!(r.buffered_flits(), 0);
    }

    #[test]
    fn accept_counts_buffer_write() {
        let mut r = Router::new(Coord::new(0, 0));
        r.accept_flit(Direction::West, flit());
        assert_eq!(r.activity().buffer_writes, 1);
        assert_eq!(r.buffered_flits(), 1);
    }

    #[test]
    #[should_panic(expected = "credit protocol violation")]
    fn overflow_panics() {
        let mut r = Router::new(Coord::new(0, 0));
        for _ in 0..=BUFFER_DEPTH {
            r.accept_flit(Direction::West, flit());
        }
    }

    #[test]
    fn credits_land_in_order() {
        let mut r = Router::new(Coord::new(0, 0));
        r.outputs[0].credits = [0; NUM_VCS];
        assert_eq!(r.land_credits(), 0);
        r.return_credit(0, 1);
        r.return_credit(3, 0);
        assert_eq!(r.outputs[0].credits, [0, 0]);
        assert_eq!(r.land_credits(), 2);
        assert_eq!(r.outputs[0].credits, [0, 1]);
        assert_eq!(r.outputs[3].credits, [BUFFER_DEPTH + 1, BUFFER_DEPTH]);
        assert_eq!(r.land_credits(), 0);
        r.return_credit(0, 1);
        assert_eq!(r.land_credits(), 1);
        assert_eq!(r.outputs[0].credits, [0, 2]);
    }

    #[test]
    fn rings_wrap_and_retain_in_order() {
        let mut r = Router::new(Coord::new(0, 0));
        let p = Packet::new(5, NodeId::new(0), NodeId::new(3), PacketClass::Data, 7);
        let flits = packetize(&p, 0);
        let slot = Direction::West.index() * NUM_VCS;
        // Push and pop past the ring's end so the contents wrap.
        for f in &flits[..3] {
            r.accept_flit(Direction::West, *f);
        }
        assert_eq!(r.pop(slot), flits[0]);
        assert_eq!(r.pop(slot), flits[1]);
        for f in &flits[3..6] {
            r.accept_flit(Direction::West, *f);
        }
        assert!(!r.has_room(Direction::West, 0));
        assert!(r.has_room(Direction::West, 1));
        let held: Vec<Flit> = r.buffered(slot).copied().collect();
        assert_eq!(held, flits[2..6]);
        assert!(!r.front_is_head(slot));
        // Drop the odd sequence numbers and mark the survivors.
        let removed = r.retain_mut(slot, |f| {
            f.down_phase = true;
            f.seq % 2 == 0
        });
        assert_eq!(removed, 2);
        let seqs: Vec<(u32, bool)> = r.buffered(slot).map(|f| (f.seq, f.down_phase)).collect();
        assert_eq!(seqs, [(2, true), (4, true)]);
        assert_eq!(r.buffered_flits(), 2);
    }
}
