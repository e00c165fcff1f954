//! Input-buffered wormhole router with virtual channels.
//!
//! The router keeps per-input-port, per-virtual-channel FIFO buffers. A head
//! flit at the front of a VC triggers route computation; switch allocation is
//! round-robin per output port; credits flow back to the upstream router as
//! buffer slots free up. This is the classical 4-stage VC router collapsed
//! into a single-cycle model with a separate link-traversal stage, which
//! preserves throughput and event counts (what the power model needs) while
//! staying fast enough for multi-million-cycle co-simulation.

use crate::config::{BUFFER_DEPTH, NUM_VCS};
use crate::flit::{Flit, PacketId};
use crate::stats::RouterActivity;
use crate::topology::{Coord, Direction};
use std::collections::VecDeque;

/// State of one virtual channel at an input port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum VcState {
    /// No packet holds the channel.
    Idle,
    /// A packet's route is held until its tail flit leaves.
    Active {
        /// Allocated output direction.
        out_dir: Direction,
        /// Flits of the packet that still have to traverse this router.
        flits_left: u32,
        /// The packet holding the channel (needed by fault teardown to
        /// identify streams routed into a newly failed component).
        packet: PacketId,
    },
}

/// One virtual channel: a FIFO of flits plus wormhole state.
#[derive(Debug, Clone)]
pub(crate) struct InputVc {
    pub buf: VecDeque<Flit>,
    pub state: VcState,
}

impl InputVc {
    fn new() -> Self {
        InputVc {
            buf: VecDeque::with_capacity(BUFFER_DEPTH as usize),
            state: VcState::Idle,
        }
    }
}

/// An input port: one [`InputVc`] per virtual channel.
#[derive(Debug, Clone)]
pub(crate) struct InputPort {
    pub vcs: [InputVc; NUM_VCS],
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
    /// Credits in flight back to this port: (vc, cycle at which they land).
    pub credit_queue: VecDeque<(u8, u64)>,
    /// Last payload word sent, for bit-transition counting.
    pub last_payload: u64,
}

/// A mesh router.
///
/// Routers are owned and stepped by [`crate::Network`]; the public surface is
/// the activity counters and the coordinate.
#[derive(Debug, Clone)]
pub struct Router {
    coord: Coord,
    /// Input ports, indexed by [`Direction::index`].
    pub(crate) inputs: [InputPort; 5],
    /// Output ports, indexed by [`Direction::index`].
    pub(crate) outputs: [OutputPort; 5],
    pub(crate) activity: RouterActivity,
}

impl Router {
    /// Creates an idle router at `coord`.
    pub(crate) fn new(coord: Coord) -> Self {
        let inputs = std::array::from_fn(|_| InputPort {
            vcs: std::array::from_fn(|_| InputVc::new()),
        });
        let outputs = std::array::from_fn(|_| OutputPort {
            credits: [BUFFER_DEPTH; NUM_VCS],
            vc_owner: [None; NUM_VCS],
            rr_ptr: 0,
            credit_queue: VecDeque::new(),
            last_payload: 0,
        });
        Router {
            coord,
            inputs,
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
        self.inputs
            .iter()
            .flat_map(|p| p.vcs.iter())
            .map(|vc| vc.buf.len())
            .sum()
    }

    /// Accepts a flit into an input buffer. Flow control must guarantee
    /// space; a full buffer therefore indicates a protocol violation.
    ///
    /// # Panics
    ///
    /// Panics if the target buffer is full (credit protocol violated) or the
    /// VC index is out of range.
    pub(crate) fn accept_flit(&mut self, port: Direction, flit: Flit) {
        let vc = &mut self.inputs[port.index()].vcs[flit.vc as usize];
        assert!(
            vc.buf.len() < BUFFER_DEPTH as usize,
            "credit protocol violation: buffer overflow at {} port {}",
            self.coord,
            port
        );
        vc.buf.push_back(flit);
        self.activity.buffer_writes += 1;
    }

    /// Processes landed credits for the current cycle, returning how many
    /// landed (the network's work tracker retires that many units).
    pub(crate) fn land_credits(&mut self, now: u64) -> usize {
        let mut landed = 0;
        for out in &mut self.outputs {
            while let Some(&(vc, at)) = out.credit_queue.front() {
                if at > now {
                    break;
                }
                out.credit_queue.pop_front();
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
        let before = r.outputs[0].credits[0];
        r.outputs[0].credits[0] = 0;
        r.outputs[0].credit_queue.push_back((0, 5));
        r.outputs[0].credit_queue.push_back((0, 7));
        r.land_credits(4);
        assert_eq!(r.outputs[0].credits[0], 0);
        r.land_credits(5);
        assert_eq!(r.outputs[0].credits[0], 1);
        r.land_credits(10);
        assert_eq!(r.outputs[0].credits[0], 2);
        assert!(before >= 1);
    }
}
