//! The cycle-accurate network: routers, links and NICs stepped in lockstep.

mod period;

use crate::config::{NocConfig, BUFFER_DEPTH, LINK_LATENCY, NUM_VCS};
use crate::error::NocError;
use crate::fault::{FaultKind, FaultPlan, FaultState};
use crate::flit::{Flit, Packet, PacketClass, PacketId};
use crate::nic::Nic;
use crate::router::{Router, IDLE, SLOTS};
use crate::routing;
use crate::stats::NetworkStats;
use crate::topology::{Coord, Direction, Mesh, NodeId};
use hotnoc_obs::event::{CONGESTION_WINDOW, DETOUR_BURST_MIN};
use hotnoc_obs::TraceEvent;
use period::{Departures, PeriodLog};
use std::collections::HashSet;

/// A packet delivery record handed to the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredPacket {
    /// Id of the delivered packet.
    pub packet_id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Traffic class.
    pub class: PacketClass,
    /// Cycle the packet was injected.
    pub inject_cycle: u64,
    /// Cycle the tail flit was ejected.
    pub eject_cycle: u64,
}

impl DeliveredPacket {
    /// End-to-end latency in cycles (inclusive of the ejection cycle).
    pub fn latency(&self) -> u64 {
        self.eject_cycle - self.inject_cycle + 1
    }
}

/// Credit returned to an upstream router in another stripe, collected
/// during the sweep and put in flight at the ordered commit. It lands next
/// cycle like every credit.
struct CreditEvent {
    router: usize,
    out_port: usize,
    vc: u8,
}

/// A router's outbound links, one per mesh direction, each holding at most
/// one flit. A flit sent in cycle `t`'s allocation sweep lands in cycle
/// `t + 1`'s pre-sweep (the sender's work counter keeps it on the worklist
/// until then), so between cycles a link carries one flit or none.
type Links = [Option<Flit>; 4];
const _: () = assert!(LINK_LATENCY == 1);

/// The installed fault schedule plus the live/dead view it drives. Boxed
/// behind an `Option` so healthy networks pay one pointer of overhead.
struct FaultDriver {
    /// Scheduled events, sorted by cycle (stable, so same-cycle events
    /// apply in plan order).
    events: Vec<crate::fault::FaultEvent>,
    /// Index of the first event not yet applied.
    next: usize,
    /// Current enable bits and detour tables.
    state: FaultState,
}

/// The simulated network-on-chip.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
///
/// # Performance architecture
///
/// `step` cost tracks *occupancy*, not topology size: a per-router work
/// counter (buffered flits + outbound link flits + queued NIC flits +
/// credits in flight) feeds a sorted dirty worklist, and only routers with
/// pending work are visited each cycle. A fully idle mesh steps in O(1).
/// The router-to-router adjacency is precomputed at construction
/// (`neighbors`), so the hot loop never re-derives coordinates, and switch
/// allocation walks, per output port, a bitmask of the occupied input VCs
/// routed to it instead of scanning every `(port, vc)` slot. Storage is
/// sized by the router's compile-time shape: each router's input VCs are
/// inline rings, each link and each in-flight credit is a single slot
/// (latency 1), and a NIC queues whole packets, serializing the front one
/// as the router takes its flits. Flits have one ledger, [`NetworkStats`]:
/// [`Network::in_flight`] is what it counts as injected and neither
/// ejected nor dropped.
///
/// The allocation sweep itself (route computation + switch allocation +
/// traversal) is a two-phase compute/commit design: the dirty worklist is
/// partitioned into contiguous router-id stripes, each stripe computes its
/// routers' route/VC/switch decisions and commits the effects it owns
/// (buffer pops, outbound-link pushes, NIC ejections, credits to upstream
/// routers inside the stripe), and every effect that crosses a stripe
/// boundary — credits to upstream routers in other stripes and the
/// network-global counters — is buffered per stripe and committed in
/// stripe (= ascending router-id) order afterwards. Stripes share no
/// mutable state, so they run in parallel when more than
/// [`Network::threads`] == 1 workers are configured (`HOTNOC_THREADS`,
/// default: available parallelism) and the worklist is large enough to
/// amortize dispatch: the stepping thread runs stripe 0 and the
/// [`minipool`] workers the rest.
///
/// All of this is behaviourally invisible: the cycle-for-cycle semantics
/// are identical to a dense serial 0..n sweep at every thread count
/// (guarded by the golden-determinism suite and the parallel-equivalence
/// property tests).
///
/// Traffic that repeats exactly need not be stepped at all:
/// [`Network::run_periods`] steps periods of it only until one starts in
/// the state the previous one started in, and applies the rest from that
/// one's log. While no period is being logged, the allocation sweep pays
/// one predictable branch per departing flit for this, like the trace
/// flag.
pub struct Network {
    mesh: Mesh,
    routers: Vec<Router>,
    /// Outgoing links per router, indexed by mesh direction: the flit in
    /// flight to the downstream router, if any.
    links: Vec<Links>,
    nics: Vec<Nic>,
    /// Delivered packets per destination since the last drain; kept only
    /// after [`Network::record_deliveries`].
    delivered: Vec<Vec<DeliveredPacket>>,
    record_deliveries: bool,
    cycle: u64,
    stats: NetworkStats,
    /// Downstream router index per mesh direction (None at mesh edges);
    /// the reverse direction of entry `d` is `Direction::MESH[d].opposite()`.
    neighbors: Vec<[Option<u32>; 4]>,
    /// Per-router pending-work units: buffered flits + flits on outbound
    /// links + flits queued in the local NIC + credits in flight to it.
    work: Vec<u32>,
    /// Flits buffered inside each router (phase-4 skip test).
    buffered: Vec<u32>,
    /// Ascending list of routers with `work > 0`, processed each cycle.
    worklist: Vec<u32>,
    /// Routers activated since the worklist was last merged.
    incoming: Vec<u32>,
    /// Whether a router sits in `worklist` or `incoming` already.
    queued: Vec<bool>,
    /// Scratch buffer for worklist merging (reused across cycles).
    scratch: Vec<u32>,
    /// Worker count for the allocation sweep (1 = serial), resolved from
    /// `HOTNOC_THREADS` (default: available parallelism) at construction.
    threads: usize,
    /// Minimum dirty-router count before the sweep is striped across
    /// threads; below it, dispatch overhead would dominate.
    par_threshold: usize,
    /// Reused per-stripe sweep outputs (index = stripe).
    stripe_outs: Vec<SweepOut>,
    /// Runtime fault schedule and live/dead fabric view; `None` until a
    /// [`FaultPlan`] is installed.
    faults: Option<Box<FaultDriver>>,
    /// Deterministic trace recording; `None` (the default) keeps every hot
    /// path on a single never-taken branch.
    trace: Option<Box<TraceState>>,
    /// The period [`Network::run_periods`] is logging, if any.
    period: Option<Box<PeriodLog>>,
    /// Per router, the logged period's departures; every log is empty
    /// while no period is being logged.
    departures: Vec<Departures>,
}

/// Trace recording state, live only between [`Network::start_trace`] and
/// [`Network::take_trace`]. All bookkeeping here is a pure function of
/// simulation state, so recorded events are byte-deterministic at any
/// thread count.
struct TraceState {
    /// Events recorded so far, in emission order.
    events: Vec<TraceEvent>,
    /// Fault epochs committed so far (ordinal of the next `FaultEpoch`).
    epochs: u64,
    /// First cycle of the open congestion window.
    window_start: u64,
    /// Peak single-router buffered-flit count in the open window.
    peak: u64,
    /// Cycle the peak was first observed.
    peak_cycle: u64,
    /// Router (node index) holding the peak; lowest id on ties.
    peak_router: u32,
}

/// Adds `amount` work units to router `r`, enrolling it in the dirty list if
/// it was idle. Free function so callers can hold disjoint field borrows.
#[inline]
fn add_work(work: &mut [u32], queued: &mut [bool], incoming: &mut Vec<u32>, r: usize, amount: u32) {
    work[r] += amount;
    enroll(queued, incoming, r);
}

/// Enrolls router `r` in the dirty list unless it is queued already.
#[inline]
fn enroll(queued: &mut [bool], incoming: &mut Vec<u32>, r: usize) {
    if !queued[r] {
        queued[r] = true;
        incoming.push(r as u32);
    }
}

/// Dirty-router count below which the sweep always runs serially.
///
/// Measured at 1 and 2 threads on a 2-CPU host, with every phase of 64 or
/// more dirty routers striped, on saturated uniform traffic (each phase
/// about side² dirty routers) and on calibration blocks
/// (`perf/PROFILE_noc.md`): the 8x8 mesh (64) ran 1.25-2.05x slower
/// striped in every set and the 10x10 mesh (100) 0.98-1.09x, slower in two
/// sets of three; every row from 12x12 (144) up, and the 14x14 to 24x24
/// blocks, ran 0.62-0.97x. So the cut-off is the smallest count above
/// every row that ran slower.
const DEFAULT_PAR_THRESHOLD: usize = 101;

/// Immutable per-cycle context shared by every stripe of the allocation
/// sweep.
struct SweepCtx<'a> {
    mesh: Mesh,
    now: u64,
    neighbors: &'a [[Option<u32>; 4]],
    /// Set only while the fabric is degraded; route computation then uses
    /// the surround-routing detour tables instead of XY.
    faults: Option<&'a FaultState>,
    /// Whether a trace is recording; gates the (cheap) per-router
    /// congestion sampling inside the sweep.
    trace: bool,
    /// Whether delivered packets are logged for the drain calls.
    record_deliveries: bool,
    /// While a period is logged: its first packet id and each of its
    /// packets' first flit index, so a departing flit logs
    /// `flit_base[id - first] + seq`.
    period: Option<(u64, &'a [u32])>,
}

/// One stripe of the allocation sweep: a contiguous router-id range
/// `[base, base + routers.len())` with exclusive access to that range's
/// per-router state, plus the dirty router ids (`ids`) to visit inside it.
struct Stripe<'a> {
    base: usize,
    ids: &'a [u32],
    routers: &'a mut [Router],
    links: &'a mut [Links],
    nics: &'a mut [Nic],
    delivered: &'a mut [Vec<DeliveredPacket>],
    buffered: &'a mut [u32],
    work: &'a mut [u32],
    departures: &'a mut [Departures],
}

/// Cross-stripe and network-global effects of one stripe's sweep, buffered
/// during the (possibly parallel) compute phase and committed serially in
/// stripe order, which keeps the cycle semantics identical to the dense
/// serial sweep. Aligned so that no two stripes' outputs share a cache
/// line (or an adjacent-line prefetch pair): the stripes bump their
/// counters once per flit, from different threads.
#[derive(Default)]
#[repr(align(128))]
struct SweepOut {
    /// Credits owed to upstream routers in other stripes (in-stripe ones
    /// are put in flight by the sweep itself).
    credits: Vec<CreditEvent>,
    /// Delta to fold into the network-wide statistics.
    stats: NetworkStats,
    /// Pre-sweep (phases 1–3): link arrivals whose downstream router lies
    /// outside the stripe, as `(router, source direction index, flit)`.
    arrivals: Vec<(u32, u8, Flit)>,
    /// In-stripe routers handed new work (link arrivals in the pre-sweep,
    /// credits in the allocation sweep), to enroll in the dirty list at
    /// commit (the stripe cannot touch `queued`/`incoming`).
    activated: Vec<u32>,
    /// Tracing only: peak buffered-flit count of any single router this
    /// stripe visited this cycle (0 when no trace is recording).
    peak_occ: u64,
    /// Tracing only: the router holding `peak_occ` (first = lowest id,
    /// since stripes visit their ids in ascending order).
    peak_router: u32,
}

impl SweepOut {
    fn reset(&mut self) {
        self.credits.clear();
        // Keep the latency histogram's buffer: a fresh one would allocate
        // again on every cycle that delivers a packet.
        let mut latency_histogram = std::mem::take(&mut self.stats.latency_histogram);
        latency_histogram.clear();
        self.stats = NetworkStats {
            latency_histogram,
            ..NetworkStats::default()
        };
        self.arrivals.clear();
        self.activated.clear();
        self.peak_occ = 0;
        self.peak_router = 0;
    }
}

/// Splits `s` into `cuts.len() + 1` disjoint sub-slices at the given
/// absolute element indices (strictly ascending, each `< s.len()`).
fn split_at_cuts<'a, T>(mut s: &'a mut [T], cuts: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(cuts.len() + 1);
    let mut prev = 0usize;
    for &c in cuts {
        let (head, tail) = s.split_at_mut(c - prev);
        out.push(head);
        s = tail;
        prev = c;
    }
    out.push(s);
    out
}

/// Step phases 1–3 (credit landing, link arrivals, NIC injection) for every
/// dirty router in one stripe. The three phases fuse into one pass per
/// router because they touch disjoint state: phase 1 only the router's
/// in-flight credit slots, phase 2 only its outbound links and the
/// downstream routers' mesh input ports, phase 3 only its own NIC and Local
/// input port (which phase 2 never feeds). Arrivals whose downstream router
/// lies in this stripe are applied directly; the rest are deferred into
/// `out.arrivals` and committed in ascending stripe order, which reproduces
/// the dense serial loop's arrival order per input port (each port is fed
/// by exactly one upstream link).
fn pre_sweep_stripe(ctx: &SweepCtx<'_>, stripe: &mut Stripe<'_>, out: &mut SweepOut) {
    let lo = stripe.base;
    let hi = stripe.base + stripe.routers.len();
    for &r_global in stripe.ids {
        let r_global = r_global as usize;
        let i = r_global - lo;

        // 1. Land credits that were in flight back to this router.
        let landed = stripe.routers[i].land_credits();
        stripe.work[i] -= landed as u32;

        // 2. Link arrivals: every flit on an outbound link was sent last
        //    cycle and completes traversal now, into the downstream
        //    router's input buffer.
        for d in 0..4 {
            let Some(flit) = stripe.links[i][d].take() else {
                continue;
            };
            let nb_id = ctx.neighbors[r_global][d].expect("flits only travel real links");
            let nb = nb_id as usize;
            stripe.work[i] -= 1;
            if (lo..hi).contains(&nb) {
                stripe.routers[nb - lo].accept_flit(Direction::MESH[d].opposite(), flit);
                stripe.buffered[nb - lo] += 1;
                stripe.work[nb - lo] += 1;
                out.activated.push(nb_id);
            } else {
                out.arrivals.push((nb_id, d as u8, flit));
            }
        }

        // 3. NIC injection: one flit per node per cycle into the local
        //    port, space permitting. Phase 2 only ever feeds mesh ports, so
        //    the Local-port space check is commit-order independent.
        let nic = &mut stripe.nics[i];
        let Some(&flit) = nic.peek_inject() else {
            continue;
        };
        let router = &mut stripe.routers[i];
        if router.has_room(Direction::Local, flit.vc) {
            nic.take_inject();
            router.accept_flit(Direction::Local, flit);
            // One work unit moves from the NIC queue to the buffers.
            stripe.buffered[i] += 1;
        }
    }
}

/// Route computation + switch allocation + traversal for every dirty router
/// in one stripe (the compute phase of the two-phase sweep). Touches only
/// state the stripe owns; every effect that crosses a stripe boundary is
/// deferred into `out` for the ordered commit phase.
fn sweep_stripe(ctx: &SweepCtx<'_>, stripe: &mut Stripe<'_>, out: &mut SweepOut) {
    let (lo, hi) = (stripe.base, stripe.base + stripe.routers.len());
    for &r_global in stripe.ids {
        let r_global = r_global as usize;
        let i = r_global - lo;
        if stripe.buffered[i] == 0 {
            continue;
        }
        if ctx.trace && stripe.buffered[i] as u64 > out.peak_occ {
            out.peak_occ = stripe.buffered[i] as u64;
            out.peak_router = r_global as u32;
        }
        let router = &mut stripe.routers[i];
        let coord = router.coord();

        // Route computation for head flits at the front of idle VCs, plus
        // the masks switch allocation walks. Bit `slot` (= `port * NUM_VCS
        // + vc`) of `occupied` is set iff that input VC is routed with at
        // least one buffered flit (the only slots that can ever win
        // arbitration); of `req[d]`, iff it is also routed to output `d`.
        // Only idle VCs read their front flit here.
        let mut occupied: u64 = 0;
        let mut req = [0u64; 5];
        for slot in 0..SLOTS {
            if router.vcs.len[slot] == 0 {
                continue;
            }
            let mut route = router.vcs.route[slot];
            if route == IDLE {
                let front = router.front_mut(slot);
                if !front.is_head() {
                    continue;
                }
                let (dst_id, len, down) = (front.dst, front.len, front.down_phase);
                let dst = ctx.mesh.coord(dst_id);
                let out_dir = match ctx.faults {
                    // Degraded fabric: surround routing. The detour table
                    // is total over live (position, dst) pairs because
                    // unroutable packets are purged at fault application,
                    // before any sweep runs.
                    Some(fs) => {
                        let (dir, now_down) = fs
                            .next_hop(r_global, dst_id.index(), down)
                            .expect("unroutable packets are purged at fault events");
                        front.down_phase = now_down;
                        if dir != routing::next_hop(coord, dst) {
                            out.stats.detour_hops += 1;
                        }
                        dir
                    }
                    None => routing::next_hop(coord, dst),
                };
                route = out_dir.index() as u8;
                router.vcs.route[slot] = route;
                router.vcs.flits_left[slot] = len;
            }
            let bit = 1u64 << slot;
            occupied |= bit;
            req[route as usize] |= bit;
        }
        if occupied == 0 {
            continue;
        }

        // Switch allocation: at most one flit per output port and one per
        // input port each cycle, round-robin among requesters. Each output
        // scans only `occupied & req[d]` in the dense scan's rotated order;
        // a winning input port's bits leave `occupied`, which enforces the
        // one-flit-per-input rule. `sent[p]` records the VC of the flit
        // mesh input port `p` sent, whose credit goes back upstream.
        let port_bits = (1u64 << NUM_VCS) - 1;
        let mut sent = [None::<u8>; 4];
        for out_dir in Direction::ALL {
            let d = out_dir.index();
            let requests = occupied & req[d];
            if requests == 0 {
                continue;
            }
            let output = &router.outputs[d];
            let start = output.rr_ptr % SLOTS;
            let mut winner: Option<(usize, usize)> = None;
            let above = requests & (!0u64 << start);
            let below = requests & !(!0u64 << start);
            'scan: for half in [above, below] {
                let mut m = half;
                while m != 0 {
                    let slot = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let (port, vc) = (slot / NUM_VCS, slot % NUM_VCS);
                    // Wormhole VC allocation: only the owning input VC may
                    // send on an allocated outbound channel, and a free
                    // channel can only be claimed by a head flit. No flit
                    // of a port left in `occupied` has moved this cycle,
                    // so the front read here is the one routed above.
                    match output.vc_owner[vc] {
                        None => {
                            if !router.front_is_head(slot) {
                                continue;
                            }
                        }
                        Some(owner) => {
                            if owner != (port as u8, vc as u8) {
                                continue;
                            }
                        }
                    }
                    // Body/tail flits may only move while credits (or the
                    // ejection port) allow.
                    if out_dir != Direction::Local && output.credits[vc] == 0 {
                        continue;
                    }
                    winner = Some((port, vc));
                    break 'scan;
                }
            }
            let Some((port, vc)) = winner else { continue };
            let slot = port * NUM_VCS + vc;
            occupied &= !(port_bits << (port * NUM_VCS));
            router.outputs[d].rr_ptr = (slot + 1) % SLOTS;

            let flit = router.pop(slot);
            stripe.buffered[i] -= 1;
            stripe.work[i] -= 1;
            // Acquire/release the outbound wormhole channel.
            router.outputs[d].vc_owner[vc] = if flit.is_tail() {
                None
            } else if flit.is_head() {
                Some((port as u8, vc as u8))
            } else {
                router.outputs[d].vc_owner[vc]
            };
            debug_assert_eq!(router.vcs.route[slot], d as u8, "winner VC is routed here");
            router.vcs.flits_left[slot] -= 1;
            if router.vcs.flits_left[slot] == 0 {
                router.vcs.route[slot] = IDLE;
            }
            let out_port = &mut router.outputs[d];
            router.activity.bit_transitions +=
                (out_port.last_payload ^ flit.payload).count_ones() as u64;
            out_port.last_payload = flit.payload;
            router.activity.link_flits[d] += 1;
            if let Some((first, flit_base)) = ctx.period {
                stripe.departures[i][d]
                    .push(flit_base[(flit.packet.0 - first) as usize] + flit.seq);
            }
            if port != Direction::Local.index() {
                sent[port] = Some(flit.vc);
            }

            if out_dir == Direction::Local {
                // Ejection: hand to the NIC; completed packets go to the
                // application pickup queue.
                let nic = &mut stripe.nics[i];
                if let Some((packet, at)) = nic.eject(flit, ctx.now) {
                    let record = DeliveredPacket {
                        packet_id: packet.id,
                        src: packet.src,
                        dst: packet.dst,
                        class: packet.class,
                        inject_cycle: flit.inject_cycle,
                        eject_cycle: at,
                    };
                    out.stats.packets_delivered += 1;
                    let lat = record.latency();
                    out.stats.total_packet_latency += lat;
                    out.stats.max_packet_latency = out.stats.max_packet_latency.max(lat);
                    out.stats.latency_histogram.record(lat);
                    if ctx.record_deliveries {
                        stripe.delivered[i].push(record);
                    }
                }
                out.stats.flits_ejected += 1;
            } else {
                router.outputs[d].credits[vc] -= 1;
                debug_assert!(stripe.links[i][d].is_none(), "link still holds a flit");
                stripe.links[i][d] = Some(flit);
                stripe.work[i] += 1;
                out.stats.flit_hops += 1;
            }
        }

        // Return a credit to whoever fed each input buffer that sent a
        // flit. A router inside this stripe gets it here, on the thread
        // that owns (and next cycle lands) it; nothing in this sweep reads
        // an in-flight credit, so writing it now changes no decision. Only
        // cross-stripe credits wait for the ordered commit.
        for (p, vc) in sent.into_iter().enumerate() {
            let Some(vc) = vc else { continue };
            let up =
                ctx.neighbors[r_global][p].expect("flit arrived from a mesh neighbor") as usize;
            let out_port = Direction::MESH[p].opposite().index();
            if !(lo..hi).contains(&up) {
                out.credits.push(CreditEvent {
                    router: up,
                    out_port,
                    vc,
                });
            } else if ctx.faults.is_none_or(|fs| fs.router_enabled(up)) {
                // Credits addressed to a disabled router vanish with it.
                stripe.routers[up - lo].return_credit(out_port, vc);
                stripe.work[up - lo] += 1;
                out.activated.push(up as u32);
            }
        }
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("mesh", &self.mesh)
            .field("cycle", &self.cycle)
            .field("in_flight", &self.in_flight())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Creates an idle network over `mesh`. The network counts cycles and
    /// keeps no clock: `cfg` is only validated here, and callers convert
    /// cycles to seconds with it.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`NocConfig::validate`].
    pub fn new(mesh: Mesh, cfg: NocConfig) -> Self {
        cfg.validate().expect("invalid NocConfig");
        let n = mesh.len();
        let routers = mesh.iter_coords().map(Router::new).collect();
        let neighbors = mesh
            .iter_coords()
            .map(|c| {
                std::array::from_fn(|d| {
                    mesh.neighbor(c, Direction::MESH[d])
                        .map(|nb| mesh.node_id(nb).expect("neighbor inside mesh").index() as u32)
                })
            })
            .collect();
        Network {
            mesh,
            routers,
            links: vec![[None; 4]; n],
            nics: (0..n).map(|_| Nic::default()).collect(),
            delivered: (0..n).map(|_| Vec::new()).collect(),
            record_deliveries: false,
            cycle: 0,
            stats: NetworkStats::default(),
            neighbors,
            work: vec![0; n],
            buffered: vec![0; n],
            worklist: Vec::new(),
            incoming: Vec::new(),
            queued: vec![false; n],
            scratch: Vec::new(),
            threads: minipool::configured_threads(),
            par_threshold: DEFAULT_PAR_THRESHOLD,
            stripe_outs: Vec::new(),
            faults: None,
            trace: None,
            period: None,
            departures: vec![Departures::default(); n],
        }
    }

    /// The mesh this network simulates.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Injects a packet at its source NIC.
    ///
    /// # Errors
    ///
    /// * [`NocError::EmptyPacket`] if `len_flits == 0`.
    /// * [`NocError::CoordOutOfBounds`] if src or dst are outside the mesh.
    pub fn inject(&mut self, packet: Packet) -> Result<(), NocError> {
        if packet.len_flits == 0 {
            return Err(NocError::EmptyPacket);
        }
        for node in [packet.src, packet.dst] {
            if node.index() >= self.mesh.len() {
                return Err(NocError::CoordOutOfBounds {
                    coord: Coord::new(u8::MAX, u8::MAX),
                    width: self.mesh.width() as u8,
                    height: self.mesh.height() as u8,
                });
            }
        }
        // On a degraded fabric, packets whose endpoints are dead or mutually
        // unreachable are dropped at the source NIC: they count as injected
        // *and* dropped so flit conservation holds, and the caller's traffic
        // schedule is unaffected.
        if let Some(d) = &self.faults {
            if d.state.active() {
                let (src, dst) = (packet.src.index(), packet.dst.index());
                if !d.state.router_enabled(src)
                    || !d.state.router_enabled(dst)
                    || !d.state.reachable(src, dst)
                {
                    self.stats.packets_injected += 1;
                    self.stats.flits_injected += packet.len_flits as u64;
                    self.stats.packets_dropped += 1;
                    self.stats.flits_dropped += packet.len_flits as u64;
                    if let Some(t) = &mut self.trace {
                        let c = self.mesh.coord(packet.src);
                        t.events.push(TraceEvent::PacketDrop {
                            cycle: self.cycle,
                            x: c.x,
                            y: c.y,
                            flits: packet.len_flits as u64,
                        });
                    }
                    return Ok(());
                }
            }
        }
        self.nics[packet.src.index()].enqueue(&packet, self.cycle);
        if let Some(log) = &mut self.period {
            log.note(&packet);
        }
        add_work(
            &mut self.work,
            &mut self.queued,
            &mut self.incoming,
            packet.src.index(),
            packet.len_flits,
        );
        self.stats.packets_injected += 1;
        self.stats.flits_injected += packet.len_flits as u64;
        Ok(())
    }

    /// Starts logging every delivered packet for [`Network::drain_delivered`]
    /// and [`Network::drain_all_delivered`]. A network that does not opt in
    /// keeps no per-packet record (its statistics count every delivery
    /// either way), so a long run holds no memory per packet.
    pub fn record_deliveries(&mut self) {
        self.record_deliveries = true;
    }

    /// Packets delivered at `node` since the last drain.
    ///
    /// # Panics
    ///
    /// If the network does not record deliveries
    /// ([`Network::record_deliveries`]).
    pub fn drain_delivered(&mut self, node: NodeId) -> Vec<DeliveredPacket> {
        assert!(self.record_deliveries, "deliveries are not being recorded");
        std::mem::take(&mut self.delivered[node.index()])
    }

    /// All packets delivered anywhere since the last drain, in delivery
    /// order per node.
    ///
    /// # Panics
    ///
    /// As [`Network::drain_delivered`].
    pub fn drain_all_delivered(&mut self) -> Vec<DeliveredPacket> {
        assert!(self.record_deliveries, "deliveries are not being recorded");
        let total: usize = self.delivered.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for v in &mut self.delivered {
            out.append(v);
        }
        out
    }

    /// Flits currently inside the network (buffers + links + NIC queues):
    /// those injected and neither ejected nor dropped yet, read off
    /// [`NetworkStats`] in O(1).
    pub fn in_flight(&self) -> u64 {
        let s = &self.stats;
        s.flits_injected - s.flits_ejected - s.flits_dropped
    }

    /// Merges routers activated since the last merge into the ascending
    /// worklist and drops entries whose work drained to zero. Keeping the
    /// list sorted preserves the seed loop's 0..n processing order, which
    /// the golden-determinism suite pins down.
    fn merge_worklist(&mut self) {
        if self.incoming.is_empty() {
            if self.worklist.iter().any(|&r| self.work[r as usize] == 0) {
                let queued = &mut self.queued;
                let work = &self.work;
                self.worklist.retain(|&r| {
                    let keep = work[r as usize] > 0;
                    if !keep {
                        queued[r as usize] = false;
                    }
                    keep
                });
            }
            return;
        }
        self.incoming.sort_unstable();
        self.scratch.clear();
        let mut old = self.worklist.iter().copied().peekable();
        let mut new = self.incoming.iter().copied().peekable();
        loop {
            let r = match (old.peek(), new.peek()) {
                (Some(&a), Some(&b)) => {
                    debug_assert_ne!(a, b, "router queued twice");
                    if a < b {
                        old.next().expect("peeked")
                    } else {
                        new.next().expect("peeked")
                    }
                }
                (Some(_), None) => old.next().expect("peeked"),
                (None, Some(_)) => new.next().expect("peeked"),
                (None, None) => break,
            };
            if self.work[r as usize] > 0 {
                self.scratch.push(r);
            } else {
                self.queued[r as usize] = false;
            }
        }
        std::mem::swap(&mut self.worklist, &mut self.scratch);
        self.incoming.clear();
    }

    /// Runs `f` over the dirty `worklist`, either inline as one stripe (the
    /// serial path) or cut into contiguous router-id stripes with equal
    /// dirty-router counts: stripe 0 on the stepping thread, the others on
    /// the minipool workers. Each stripe gets exclusive access to its id
    /// range's per-router state and defers every cross-stripe effect into
    /// its `SweepOut`; the caller commits `self.stripe_outs[..nstripes]` in
    /// ascending stripe order. Returns the stripe count.
    fn run_striped(
        &mut self,
        worklist: &[u32],
        now: u64,
        f: fn(&SweepCtx<'_>, &mut Stripe<'_>, &mut SweepOut),
    ) -> usize {
        let nstripes = if self.threads > 1 && worklist.len() >= self.par_threshold {
            self.threads.min(worklist.len())
        } else {
            1
        };
        while self.stripe_outs.len() < nstripes {
            self.stripe_outs.push(SweepOut::default());
        }
        let ctx = SweepCtx {
            mesh: self.mesh,
            now,
            neighbors: &self.neighbors,
            faults: match &self.faults {
                Some(d) if d.state.active() => Some(&d.state),
                _ => None,
            },
            trace: self.trace.is_some(),
            record_deliveries: self.record_deliveries,
            period: self.period.as_deref().and_then(PeriodLog::view),
        };
        if nstripes == 1 {
            let out = &mut self.stripe_outs[0];
            out.reset();
            let mut stripe = Stripe {
                base: 0,
                ids: worklist,
                routers: &mut self.routers,
                links: &mut self.links,
                nics: &mut self.nics,
                delivered: &mut self.delivered,
                buffered: &mut self.buffered,
                work: &mut self.work,
                departures: &mut self.departures,
            };
            f(&ctx, &mut stripe, out);
        } else {
            // Stripe k owns worklist segment [k*len/n, (k+1)*len/n); the
            // router-id space is cut at each segment's first dirty id so
            // stripes own disjoint contiguous id ranges.
            let len = worklist.len();
            let cuts: Vec<usize> = (1..nstripes)
                .map(|k| worklist[k * len / nstripes] as usize)
                .collect();
            let outs = &mut self.stripe_outs[..nstripes];
            for out in outs.iter_mut() {
                out.reset();
            }
            let mut stripes: Vec<Stripe<'_>> = Vec::with_capacity(nstripes);
            let pieces = split_at_cuts(&mut self.routers, &cuts)
                .into_iter()
                .zip(split_at_cuts(&mut self.links, &cuts))
                .zip(split_at_cuts(&mut self.nics, &cuts))
                .zip(split_at_cuts(&mut self.delivered, &cuts))
                .zip(split_at_cuts(&mut self.buffered, &cuts))
                .zip(split_at_cuts(&mut self.work, &cuts))
                .zip(split_at_cuts(&mut self.departures, &cuts));
            for (k, ((((((routers, links), nics), delivered), buffered), work), departures)) in
                pieces.enumerate()
            {
                stripes.push(Stripe {
                    base: if k == 0 { 0 } else { cuts[k - 1] },
                    ids: &worklist[k * len / nstripes..(k + 1) * len / nstripes],
                    routers,
                    links,
                    nics,
                    delivered,
                    buffered,
                    work,
                    departures,
                });
            }
            let _prof = hotnoc_obs::prof::scope("noc/dispatch");
            let pool = minipool::global();
            pool.ensure_workers(nstripes - 1);
            let ctx = &ctx;
            pool.scope(|s| {
                // Stripes 1.. go to the pool and the stepping thread runs
                // stripe 0 itself, so with one worker each stripe's routers
                // stay in one core's cache across both phases of a cycle.
                let mut work = stripes.into_iter().zip(outs.iter_mut());
                let (mut first, first_out) = work.next().expect("a striped phase has 2+ stripes");
                for (stripe, out) in work {
                    s.spawn(move || {
                        let mut stripe = stripe;
                        f(ctx, &mut stripe, out);
                    });
                }
                f(ctx, &mut first, first_out);
            });
        }
        nstripes
    }

    /// Advances the simulation by one clock cycle.
    ///
    /// Only routers with pending work (tracked by the per-router work
    /// counters) are visited; an idle network advances its clock in O(1).
    pub fn step(&mut self) {
        let now = self.cycle;
        if self.faults.is_some() {
            self.apply_fault_events(now);
        }
        self.merge_worklist();
        if self.worklist.is_empty() {
            self.close_congestion_window(now);
            self.cycle += 1;
            return;
        }
        let worklist = std::mem::take(&mut self.worklist);

        // 1–3. Credit landing, link arrivals, and NIC injection, fused into
        // one pass per dirty router and striped across threads exactly like
        // the allocation sweep (same worker count, same threshold). Each
        // stripe applies in-stripe arrivals directly and defers the rest.
        let prof_pre = hotnoc_obs::prof::scope("noc/step/pre_sweep");
        let n_pre = self.run_striped(&worklist, now, pre_sweep_stripe);

        // Commit phases 1–3 in ascending stripe order: since the stripes
        // partition the ascending worklist, cross-stripe arrivals replay in
        // exactly the dense serial loop's source-router order.
        for out in &mut self.stripe_outs[..n_pre] {
            for (nb, d, flit) in out.arrivals.drain(..) {
                let nb = nb as usize;
                let dir = Direction::MESH[d as usize];
                self.routers[nb].accept_flit(dir.opposite(), flit);
                self.buffered[nb] += 1;
                add_work(&mut self.work, &mut self.queued, &mut self.incoming, nb, 1);
            }
            for nb in out.activated.drain(..) {
                enroll(&mut self.queued, &mut self.incoming, nb as usize);
            }
        }

        drop(prof_pre);

        // Absorb routers that phase 2 fed (they may be able to move the
        // newly buffered flit this very cycle, exactly as the dense sweep
        // would), then run the allocation phase over the merged list.
        self.worklist = worklist;
        self.merge_worklist();
        let worklist = std::mem::take(&mut self.worklist);

        // 4. Route computation + switch allocation + traversal: the
        //    two-phase compute/commit sweep over the re-merged worklist.
        let prof_alloc = hotnoc_obs::prof::scope("noc/step/alloc_sweep");
        let nstripes = self.run_striped(&worklist, now, sweep_stripe);
        self.worklist = worklist;

        // Commit phase: fold each stripe's deferred effects in stripe
        // (= ascending router-id) order, reproducing exactly the sequence
        // the dense serial sweep would have produced.
        let tracing = self.trace.is_some();
        let mut cycle_detours = 0u64;
        let mut cycle_peak = 0u64;
        let mut cycle_peak_router = 0u32;
        for out in &mut self.stripe_outs[..nstripes] {
            if tracing {
                cycle_detours += out.stats.detour_hops;
                if out.peak_occ > cycle_peak {
                    cycle_peak = out.peak_occ;
                    cycle_peak_router = out.peak_router;
                }
            }
            self.stats.merge(&out.stats);
            if let Some(log) = &mut self.period {
                log.stats.merge(&out.stats);
            }
            for ev in out.credits.drain(..) {
                // Credits addressed to a disabled router vanish with it; its
                // credit counters are rebuilt from neighbor buffer occupancy
                // if it is ever repaired.
                if let Some(d) = &self.faults {
                    if !d.state.router_enabled(ev.router) {
                        continue;
                    }
                }
                self.routers[ev.router].return_credit(ev.out_port, ev.vc);
                add_work(
                    &mut self.work,
                    &mut self.queued,
                    &mut self.incoming,
                    ev.router,
                    1,
                );
            }
            for r in out.activated.drain(..) {
                enroll(&mut self.queued, &mut self.incoming, r as usize);
            }
        }

        drop(prof_alloc);

        // Trace plane: the per-cycle aggregates merged above (ascending
        // stripe order, strict-max comparison) are thread-count invariant,
        // so the emitted events are too.
        if let Some(t) = &mut self.trace {
            if cycle_detours >= DETOUR_BURST_MIN {
                t.events.push(TraceEvent::DetourBurst {
                    cycle: now,
                    hops: cycle_detours,
                });
            }
            if cycle_peak > t.peak {
                t.peak = cycle_peak;
                t.peak_cycle = now;
                t.peak_router = cycle_peak_router;
            }
        }
        self.close_congestion_window(now);

        self.cycle += 1;
    }

    /// Starts recording a trace: fault/repair epochs, source packet drops,
    /// detour bursts and per-window congestion watermarks are collected
    /// until [`Network::take_trace`]. Events are a pure function of
    /// simulation state — byte-identical at any thread count — and
    /// recording perturbs nothing the simulation observes. Restarting
    /// discards any events not yet taken.
    pub fn start_trace(&mut self) {
        self.trace = Some(Box::new(TraceState {
            events: Vec::new(),
            epochs: 0,
            window_start: self.cycle,
            peak: 0,
            peak_cycle: 0,
            peak_router: 0,
        }));
    }

    /// Stops recording, flushing the open congestion window first, and
    /// returns the recorded events. `None` if no trace was started.
    pub fn take_trace(&mut self) -> Option<Vec<TraceEvent>> {
        let mut t = self.trace.take()?;
        if t.peak > 0 {
            let end = self.cycle.saturating_sub(1).max(t.window_start);
            let c = self.mesh.coord(NodeId::new(t.peak_router as u16));
            t.events.push(TraceEvent::Congestion {
                cycle: end,
                window_start: t.window_start,
                peak: t.peak,
                peak_cycle: t.peak_cycle,
                x: c.x,
                y: c.y,
            });
        }
        Some(t.events)
    }

    /// Emits the congestion watermark when `now` closes a
    /// [`CONGESTION_WINDOW`]-cycle window (windows without traffic stay
    /// silent). Runs on every step, including the idle fast path, so
    /// window boundaries fall at fixed cycles regardless of load; the
    /// inline hint keeps the untraced case a single predicted branch there.
    #[inline]
    fn close_congestion_window(&mut self, now: u64) {
        let Some(t) = &mut self.trace else { return };
        if !(now + 1).is_multiple_of(CONGESTION_WINDOW) {
            return;
        }
        if t.peak > 0 {
            let c = self.mesh.coord(NodeId::new(t.peak_router as u16));
            t.events.push(TraceEvent::Congestion {
                cycle: now,
                window_start: t.window_start,
                peak: t.peak,
                peak_cycle: t.peak_cycle,
                x: c.x,
                y: c.y,
            });
        }
        t.peak = 0;
        t.peak_cycle = 0;
        t.peak_router = 0;
        t.window_start = now + 1;
    }

    /// Worker threads the allocation sweep may use (1 = always serial).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the allocation sweep's worker-thread count (clamped to
    /// `[1, minipool::MAX_WORKERS]`). The simulation result is bit-identical
    /// at every thread count; this only trades wall-clock for cores.
    pub fn set_threads(&mut self, n: usize) {
        self.threads = n.clamp(1, minipool::MAX_WORKERS);
    }

    /// Sets the minimum dirty-router count before the sweep is striped
    /// across threads (default 101). Exposed so the parallel-equivalence
    /// tests and benches can force the parallel path on small meshes.
    pub fn set_par_threshold(&mut self, n: usize) {
        self.par_threshold = n.max(1);
    }

    /// Runs for exactly `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Runs until no flits remain in flight, returning the number of packets
    /// delivered during the drain.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Timeout`] if the network has not drained after
    /// `budget` cycles.
    pub fn run_until_idle(&mut self, budget: u64) -> Result<u64, NocError> {
        let delivered_before = self.stats.packets_delivered;
        let mut spent = 0;
        while self.in_flight() > 0 {
            if spent >= budget {
                return Err(NocError::Timeout {
                    budget,
                    in_flight: self.in_flight(),
                });
            }
            self.step();
            spent += 1;
        }
        Ok(self.stats.packets_delivered - delivered_before)
    }

    /// Read-only access to a router: its coordinate, buffers and activity
    /// counters.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the mesh.
    pub fn router(&self, node: NodeId) -> &Router {
        &self.routers[node.index()]
    }

    /// Recomputes the in-flight count by walking every buffer, link and NIC
    /// queue — the seed implementation of [`Network::in_flight`]. Used by
    /// tests to cross-check the stats ledger.
    #[cfg(test)]
    fn recount_in_flight(&self) -> u64 {
        let buffered: usize = self.routers.iter().map(Router::buffered_flits).sum();
        let on_links = self.links.iter().flatten().flatten().count();
        let queued: usize = self.nics.iter().map(Nic::pending_flits).sum();
        (buffered + on_links + queued) as u64
    }

    /// Installs (or replaces) the runtime fault schedule.
    ///
    /// Events apply at the start of their scheduled cycle, before any flit
    /// moves; events scheduled in the past fire at the next [`Network::step`].
    /// Replacing a plan keeps the current enable/disable state of the fabric
    /// and only swaps the pending schedule.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidFaultPlan`] if the plan references
    /// coordinates outside the mesh or links between non-adjacent routers.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<(), NocError> {
        plan.validate(self.mesh)?;
        let mut events = plan.events().to_vec();
        events.sort_by_key(|e| e.at);
        match &mut self.faults {
            Some(d) => {
                d.events = events;
                d.next = 0;
            }
            None => {
                self.faults = Some(Box::new(FaultDriver {
                    events,
                    next: 0,
                    state: FaultState::healthy(self.mesh),
                }));
            }
        }
        Ok(())
    }

    /// The current live/dead view of the fabric, or `None` if no fault plan
    /// was ever installed.
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.faults.as_deref().map(|d| &d.state)
    }

    /// The node index and outgoing direction of the `a`-side of a validated
    /// link `(a, b)`.
    fn link_endpoint(&self, a: Coord, b: Coord) -> (usize, Direction) {
        let id = self.mesh.node_id(a).expect("validated plan").index();
        let dir = Direction::MESH
            .into_iter()
            .find(|&d| self.mesh.neighbor(a, d) == Some(b))
            .expect("validated plan joins mesh neighbors");
        (id, dir)
    }

    /// Applies every fault event scheduled at or before `now`, as one batch:
    /// flip the enable bits, rebuild the detour tables, then tear down all
    /// traffic the new fabric can no longer carry. Runs serially at the top
    /// of [`Network::step`], so the parallel sweep only ever observes a
    /// settled fabric.
    fn apply_fault_events(&mut self, now: u64) {
        match &self.faults {
            Some(d) if d.next < d.events.len() && d.events[d.next].at <= now => {}
            _ => return,
        }
        let mut driver = self.faults.take().expect("checked above");
        let mut newly_failed: Vec<usize> = Vec::new();
        let mut repaired: Vec<usize> = Vec::new();
        let mut changed = false;
        while driver.next < driver.events.len() && driver.events[driver.next].at <= now {
            let ev = driver.events[driver.next];
            driver.next += 1;
            match ev.kind {
                FaultKind::FailRouter(c) => {
                    let id = self.mesh.node_id(c).expect("validated plan").index();
                    if driver.state.set_router(id, false) {
                        newly_failed.push(id);
                        changed = true;
                        if let Some(t) = &mut self.trace {
                            t.events.push(TraceEvent::RouterFailed {
                                cycle: now,
                                x: c.x,
                                y: c.y,
                            });
                        }
                    }
                }
                FaultKind::RepairRouter(c) => {
                    let id = self.mesh.node_id(c).expect("validated plan").index();
                    if driver.state.set_router(id, true) {
                        repaired.push(id);
                        changed = true;
                        if let Some(t) = &mut self.trace {
                            t.events.push(TraceEvent::RouterRepaired {
                                cycle: now,
                                x: c.x,
                                y: c.y,
                            });
                        }
                    }
                }
                FaultKind::FailLink(a, b) => {
                    let (id, dir) = self.link_endpoint(a, b);
                    if driver.state.set_link(self.mesh, id, dir, false) {
                        changed = true;
                        if let Some(t) = &mut self.trace {
                            t.events.push(TraceEvent::LinkFailed {
                                cycle: now,
                                ax: a.x,
                                ay: a.y,
                                bx: b.x,
                                by: b.y,
                            });
                        }
                    }
                }
                FaultKind::RepairLink(a, b) => {
                    let (id, dir) = self.link_endpoint(a, b);
                    if driver.state.set_link(self.mesh, id, dir, true) {
                        changed = true;
                        if let Some(t) = &mut self.trace {
                            t.events.push(TraceEvent::LinkRepaired {
                                cycle: now,
                                ax: a.x,
                                ay: a.y,
                                bx: b.x,
                                by: b.y,
                            });
                        }
                    }
                }
            }
        }
        if changed {
            let (drops_before, flit_drops_before) =
                (self.stats.packets_dropped, self.stats.flits_dropped);
            driver.state.rebuild(self.mesh);
            self.fault_teardown(&driver.state, &newly_failed);
            for &r in &repaired {
                self.restore_router_credits(r, &driver.state);
            }
            if let Some(t) = &mut self.trace {
                t.epochs += 1;
                t.events.push(TraceEvent::FaultEpoch {
                    cycle: now,
                    epoch: t.epochs,
                    routers_down: driver.state.disabled_routers() as u64,
                    links_down: driver.state.disabled_links() as u64,
                    packets_dropped: self.stats.packets_dropped - drops_before,
                    flits_dropped: self.stats.flits_dropped - flit_drops_before,
                });
            }
        }
        self.faults = Some(driver);
    }

    /// Packet-atomic teardown after a fault epoch change: condemns every
    /// packet with a flit at a dead component, with a dead or unreachable
    /// destination, or mid-stream across more than one buffer/link/queue,
    /// physically removes all its flits (with credit refunds to live
    /// upstream routers), resets newly failed routers to power-on state,
    /// and discards every surviving packet's committed route and routing
    /// phase so all traffic re-plans against the new fabric. Dropping
    /// mid-stream wormholes is what keeps reconfiguration deadlock-free:
    /// no channel claim survives a table change, so the up*/down* channel
    /// ordering of the new epoch is the only one in effect.
    fn fault_teardown(&mut self, state: &FaultState, newly_failed: &[usize]) {
        let n = self.mesh.len();
        let local = Direction::Local.index();

        // Pass 1: condemn. A packet dies at a reconfiguration epoch if any
        // of its flits sits at a dead router or rides a dead link, its
        // destination is dead or unreachable from where its flits are, or
        // it is mid-stream: its flits span more than one buffer, link or
        // NIC queue, or some were already ejected. Survivors
        // are packets wholly at rest in a single container; pass 2 resets
        // their committed routes, so all traffic re-plans against the new
        // fabric from a clean slate. That makes the up*/down* deadlock-
        // freedom argument hold unconditionally after every epoch — no
        // wormhole spans a table change, so no stale channel claim can mix
        // the old and new channel orderings into a cycle.
        let mut doomed: HashSet<PacketId> = HashSet::new();
        // Per packet: flits found, packet length, first container seen,
        // encoded as `router * CONTAINERS + slot` with input VC slots
        // `port * NUM_VCS + vc`, outbound link slots `SLOTS + d` and the
        // NIC queue at `SLOTS + 4`.
        const CONTAINERS: u32 = SLOTS as u32 + 5;
        let mut seen: std::collections::HashMap<PacketId, (u32, u32, u32)> =
            std::collections::HashMap::new();
        let mesh = self.mesh;
        // Notes `count` flits of `flit`'s packet in one container. `entry`
        // is the live channel whose downstream buffer holds (or will
        // receive) them: the upstream node and its outgoing direction.
        let mut note = |flit: &Flit,
                        count: u32,
                        container: u32,
                        at: usize,
                        dead_here: bool,
                        entry: Option<(usize, Direction)>,
                        doomed: &mut HashSet<PacketId>| {
            let dst = flit.dst.index();
            if dead_here || !state.router_enabled(dst) || !state.reachable(at, dst) {
                doomed.insert(flit.packet);
            } else if let Some((from, dir)) = entry {
                // Residency discipline: a packet occupying the downstream
                // buffer of channel `from -> at` may only resume in a phase
                // that channel permits — a descending-channel resident must
                // finish by descending, and after a return to full health it
                // must sit where its XY route would have put it. Anything
                // else would carry a channel dependency across the epoch
                // that the routing discipline's acyclicity proof forbids.
                let keep = if state.active() {
                    !state.channel_descends(from, at) || state.down_reachable(at, dst)
                } else {
                    routing::next_hop(mesh.coord(NodeId::new(from as u16)), mesh.coord(flit.dst))
                        == dir
                };
                if !keep {
                    doomed.insert(flit.packet);
                }
            }
            let e = seen.entry(flit.packet).or_insert((0, flit.len, container));
            e.0 += count;
            if e.2 != container {
                doomed.insert(flit.packet);
            }
        };
        for r in 0..n {
            let r_dead = !state.router_enabled(r);
            let base = r as u32 * CONTAINERS;
            for (flit, count) in self.nics[r].pending() {
                note(
                    &flit,
                    count,
                    base + SLOTS as u32 + 4,
                    r,
                    r_dead,
                    None,
                    &mut doomed,
                );
            }
            let router = &self.routers[r];
            for p in 0..5 {
                let entry = if p < 4 {
                    self.neighbors[r][p].and_then(|u| {
                        let u = u as usize;
                        (state.router_enabled(u) && state.link_enabled(r, Direction::MESH[p]))
                            .then_some((u, Direction::MESH[p].opposite()))
                    })
                } else {
                    None
                };
                for slot in p * NUM_VCS..(p + 1) * NUM_VCS {
                    for flit in router.buffered(slot) {
                        note(flit, 1, base + slot as u32, r, r_dead, entry, &mut doomed);
                    }
                }
            }
            for d in 0..4 {
                let Some(flit) = &self.links[r][d] else {
                    continue;
                };
                let nb = self.neighbors[r][d].expect("flits only travel real links") as usize;
                let here_dead = r_dead
                    || !state.link_enabled(r, Direction::MESH[d])
                    || !state.router_enabled(nb);
                note(
                    flit,
                    1,
                    base + (SLOTS + d) as u32,
                    nb,
                    here_dead,
                    Some((r, Direction::MESH[d])),
                    &mut doomed,
                );
            }
        }
        for (packet, &(count, len, _)) in &seen {
            if count < len {
                doomed.insert(*packet);
            }
        }

        // Pass 2: remove and repair the books. Credit refunds target other
        // routers, so they are collected and applied after the per-router
        // loop.
        let mut refunds: Vec<(usize, usize, u8)> = Vec::new();
        let mut flits_dropped: u64 = 0;
        for r in 0..n {
            if newly_failed.contains(&r) {
                // Full power-off reset: every flit inside dies (its packet
                // is condemned), upstream routers get their credits back,
                // and the router restarts from power-on state if repaired.
                let router = &self.routers[r];
                for slot in 0..SLOTS {
                    let p = slot / NUM_VCS;
                    for flit in router.buffered(slot) {
                        flits_dropped += 1;
                        if p != local {
                            let up = self.neighbors[r][p].expect("mesh port fed by neighbor");
                            if state.router_enabled(up as usize) {
                                refunds.push((
                                    up as usize,
                                    Direction::ALL[p].opposite().index(),
                                    flit.vc,
                                ));
                            }
                        }
                    }
                }
                self.buffered[r] = 0;
                flits_dropped += self.links[r].iter().flatten().count() as u64;
                self.links[r] = [None; 4];
                flits_dropped += self.nics[r].clear_for_fault() as u64;
                let activity = self.routers[r].activity;
                self.routers[r] = Router::new(self.mesh.coord(NodeId::new(r as u16)));
                self.routers[r].activity = activity;
                self.work[r] = 0;
                continue;
            }
            if !state.router_enabled(r) {
                // Failed in an earlier epoch: already empty.
                continue;
            }
            // Live router: surgically remove condemned flits, refund the
            // credits they held, release their wormhole channels, and reset
            // every survivor's routing phase.
            // NIC flits are never routed, so survivors there keep the
            // ascending phase they were serialized with.
            let removed = self.nics[r].drop_packets(&doomed) as u32;
            self.work[r] -= removed;
            flits_dropped += removed as u64;
            let router = &mut self.routers[r];
            for p in 0..5 {
                // The restart phase for survivors in this port's buffers:
                // residents of a descending channel resume descending (pass
                // 1 condemned any that could not), everyone else re-plans
                // from the ascending phase.
                let resume_down = p < 4
                    && match self.neighbors[r][p] {
                        Some(u) => {
                            let u = u as usize;
                            state.router_enabled(u)
                                && state.link_enabled(r, Direction::MESH[p])
                                && state.channel_descends(u, r)
                        }
                        None => false,
                    };
                for vc in 0..NUM_VCS {
                    let slot = p * NUM_VCS + vc;
                    let removed = router.retain_mut(slot, |f| {
                        if !doomed.contains(&f.packet) {
                            f.down_phase = resume_down;
                            return true;
                        }
                        flits_dropped += 1;
                        if p != local {
                            let up = self.neighbors[r][p].expect("mesh port fed by neighbor");
                            if state.router_enabled(up as usize) {
                                refunds.push((
                                    up as usize,
                                    Direction::ALL[p].opposite().index(),
                                    f.vc,
                                ));
                            }
                        }
                        false
                    });
                    self.buffered[r] -= removed;
                    self.work[r] -= removed;
                    let out_dir = router.vcs.route[slot];
                    if out_dir != IDLE {
                        // Discard every committed-but-unsent route at the
                        // epoch: a surviving routed packet is wholly
                        // buffered here (mid-stream packets were condemned
                        // above) and re-plans against the new tables, while
                        // a doomed one releases its wormhole claim.
                        router.vcs.route[slot] = IDLE;
                        let out = &mut router.outputs[out_dir as usize];
                        if out.vc_owner[vc] == Some((p as u8, vc as u8)) {
                            out.vc_owner[vc] = None;
                        }
                    }
                }
            }
            for d in 0..4 {
                let Some(f) = &mut self.links[r][d] else {
                    continue;
                };
                if doomed.contains(&f.packet) {
                    flits_dropped += 1;
                    refunds.push((r, d, f.vc));
                    self.links[r][d] = None;
                    self.work[r] -= 1;
                } else {
                    // A survivor lands in the downstream buffer of channel
                    // `r -> nb`; its restart phase follows that channel.
                    let nb = self.neighbors[r][d].expect("flits only travel real links");
                    f.down_phase = state.channel_descends(r, nb as usize);
                }
            }
        }
        for (router, out_port, vc) in refunds {
            self.routers[router].outputs[out_port].credits[vc as usize] += 1;
        }
        self.stats.flits_dropped += flits_dropped;
        self.stats.packets_dropped += doomed.len() as u64;
    }

    /// Re-arms a repaired router's output credit counters from the actual
    /// buffer occupancy of its neighbors. Flits the router sent before it
    /// failed may still sit in those buffers; their credits return the
    /// normal way as they drain, landing the counters exactly back at
    /// [`BUFFER_DEPTH`].
    fn restore_router_credits(&mut self, r: usize, state: &FaultState) {
        for d in 0..4 {
            let Some(nb) = self.neighbors[r][d] else {
                continue;
            };
            let nb = nb as usize;
            if !state.router_enabled(nb) {
                continue;
            }
            let facing = Direction::MESH[d].opposite().index();
            for vc in 0..NUM_VCS {
                let occupied = self.routers[nb].vcs.len[facing * NUM_VCS + vc] as u32;
                self.routers[r].outputs[d].credits[vc] = BUFFER_DEPTH - occupied;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketClass;

    fn mk_net(n: usize) -> Network {
        Network::new(Mesh::square(n).unwrap(), NocConfig::default())
    }

    fn packet(id: u64, net: &Network, sx: u8, sy: u8, dx: u8, dy: u8, len: u32) -> Packet {
        let src = net.mesh().node_id_at(sx, sy).unwrap();
        let dst = net.mesh().node_id_at(dx, dy).unwrap();
        Packet::new(id, src, dst, PacketClass::Data, len)
    }

    #[test]
    fn single_packet_delivery() {
        let mut net = mk_net(4);
        net.record_deliveries();
        let p = packet(0, &net, 0, 0, 3, 3, 4);
        net.inject(p).unwrap();
        let delivered = net.run_until_idle(1_000).unwrap();
        assert_eq!(delivered, 1);
        let recs = net.drain_delivered(net.mesh().node_id_at(3, 3).unwrap());
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].src, p.src);
        // 6 hops, 4 flits, ~2 cycles per hop + serialization.
        assert!(
            recs[0].latency() >= 10 && recs[0].latency() <= 40,
            "latency {}",
            recs[0].latency()
        );
    }

    #[test]
    fn local_delivery_same_node() {
        let mut net = mk_net(3);
        net.inject(packet(0, &net, 1, 1, 1, 1, 2)).unwrap();
        assert_eq!(net.run_until_idle(100).unwrap(), 1);
    }

    #[test]
    fn all_to_all_delivery_no_loss() {
        let mut net = mk_net(4);
        let mesh = net.mesh();
        let mut id = 0;
        for src in mesh.iter_nodes() {
            for dst in mesh.iter_nodes() {
                if src != dst {
                    net.inject(Packet::new(id, src, dst, PacketClass::Data, 3))
                        .unwrap();
                    id += 1;
                }
            }
        }
        let total = 16 * 15;
        let delivered = net.run_until_idle(100_000).unwrap();
        assert_eq!(delivered, total);
        assert_eq!(net.stats().packets_delivered, total);
        assert_eq!(net.stats().flits_ejected, 3 * total);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn empty_packet_rejected() {
        let mut net = mk_net(3);
        let mut p = packet(0, &net, 0, 0, 1, 1, 1);
        p.len_flits = 0;
        assert_eq!(net.inject(p), Err(NocError::EmptyPacket));
    }

    #[test]
    fn out_of_mesh_node_rejected() {
        let mut net = mk_net(3);
        let p = Packet::new(0, NodeId::new(0), NodeId::new(99), PacketClass::Data, 1);
        assert!(matches!(
            net.inject(p),
            Err(NocError::CoordOutOfBounds { .. })
        ));
    }

    #[test]
    fn timeout_reported() {
        let mut net = mk_net(4);
        net.inject(packet(0, &net, 0, 0, 3, 3, 8)).unwrap();
        let err = net.run_until_idle(2).unwrap_err();
        assert!(matches!(err, NocError::Timeout { .. }));
    }

    #[test]
    fn flits_arrive_in_order() {
        let mut net = mk_net(4);
        // Two packets from different sources to the same sink, long bodies.
        net.inject(packet(0, &net, 0, 0, 3, 0, 16)).unwrap();
        net.inject(packet(1, &net, 0, 1, 3, 0, 16)).unwrap();
        net.run_until_idle(10_000).unwrap();
        // Reassembly would panic (debug) or miscount on out-of-order
        // delivery; reaching here with 2 packets is the assertion.
        assert_eq!(net.stats().packets_delivered, 2);
    }

    #[test]
    fn wormhole_blocks_do_not_deadlock() {
        // Saturate a 4x4 with cross traffic on one VC class.
        let mut net = mk_net(4);
        let mesh = net.mesh();
        let mut id = 0;
        for rep in 0..10 {
            for y in 0..4u8 {
                let src = mesh.node_id_at(0, y).unwrap();
                let dst = mesh.node_id_at(3, 3 - y).unwrap();
                net.inject(Packet::new(id, src, dst, PacketClass::Data, 8))
                    .unwrap();
                id += 1;
                let src2 = mesh.node_id_at(3 - y, 0).unwrap();
                let dst2 = mesh.node_id_at(y, 3).unwrap();
                net.inject(Packet::new(id, src2, dst2, PacketClass::Data, 8))
                    .unwrap();
                id += 1;
            }
            let _ = rep;
        }
        let delivered = net.run_until_idle(100_000).unwrap();
        assert_eq!(delivered, 80);
    }

    #[test]
    fn credits_restored_after_drain() {
        let mut net = mk_net(4);
        net.inject(packet(0, &net, 0, 0, 3, 2, 12)).unwrap();
        net.run_until_idle(10_000).unwrap();
        net.run(5); // let trailing credits land
        for node in net.mesh().iter_nodes() {
            let r = net.router(node);
            for out in &r.outputs {
                for &c in &out.credits {
                    assert_eq!(c, BUFFER_DEPTH);
                }
                assert!(out.credit_in.is_none());
            }
        }
    }

    #[test]
    fn activity_counters_consistent() {
        let mut net = mk_net(4);
        net.inject(packet(0, &net, 0, 0, 2, 0, 5)).unwrap();
        net.run_until_idle(1_000).unwrap();
        let total_writes: u64 = net.routers.iter().map(|r| r.activity.buffer_writes).sum();
        let total_reads: u64 = net
            .routers
            .iter()
            .map(|r| r.activity.total_link_flits())
            .sum();
        // Every buffered flit is eventually read exactly once.
        assert_eq!(total_writes, total_reads);
        // 5 flits traverse 3 routers each (src, mid, dst).
        assert_eq!(total_reads, 15);
        // 2 link hops * 5 flits.
        assert_eq!(net.stats().flit_hops, 10);
    }

    #[test]
    fn vc_classes_use_separate_channels() {
        let mut net = mk_net(4);
        let src = net.mesh().node_id_at(0, 0).unwrap();
        let dst = net.mesh().node_id_at(3, 0).unwrap();
        net.inject(Packet::new(0, src, dst, PacketClass::Data, 4))
            .unwrap();
        net.inject(Packet::new(1, src, dst, PacketClass::State, 4))
            .unwrap();
        net.run_until_idle(1_000).unwrap();
        assert_eq!(net.stats().packets_delivered, 2);
    }

    #[test]
    fn run_advances_cycles() {
        let mut net = mk_net(3);
        net.run(17);
        assert_eq!(net.cycle(), 17);
    }

    #[test]
    fn occupancy_counters_match_recount_under_load() {
        use crate::fault::FaultPlan;
        // A healthy mesh, then one whose fault epochs tear traffic down
        // mid-flight: the ledger must match the walk on every cycle of both.
        let faulty = FaultPlan::new()
            .fail_router(40, Coord::new(1, 1))
            .fail_link(60, Coord::new(2, 2), Coord::new(3, 2))
            .repair_router(200, Coord::new(1, 1))
            .repair_link(220, Coord::new(2, 2), Coord::new(3, 2));
        for plan in [None, Some(faulty)] {
            let mut net = mk_net(4);
            let with_faults = plan.is_some();
            if let Some(plan) = plan {
                net.install_fault_plan(plan).unwrap();
            }
            let mesh = net.mesh();
            let mut gen = crate::traffic::TrafficGenerator::new(
                mesh,
                crate::traffic::TrafficPattern::UniformRandom,
                0.2,
                4,
                21,
            );
            for cycle in 0..300 {
                gen.tick(&mut net);
                net.step();
                assert_eq!(
                    net.in_flight(),
                    net.recount_in_flight(),
                    "cycle {cycle}, faults: {with_faults}"
                );
            }
            net.run_until_idle(50_000).unwrap();
            assert_eq!(net.in_flight(), 0);
            assert_eq!(net.recount_in_flight(), 0);
            assert_eq!(net.stats().flits_dropped > 0, with_faults);
        }
    }

    #[test]
    fn idle_network_steps_in_constant_time_path() {
        let mut net = mk_net(8);
        net.run(1_000);
        assert_eq!(net.cycle(), 1_000);
        assert!(net.worklist.is_empty(), "idle mesh kept routers active");
        // Wake it up, drain it, and verify the worklist empties again.
        net.inject(packet(0, &net, 0, 0, 7, 7, 4)).unwrap();
        net.run_until_idle(10_000).unwrap();
        net.run(5); // land trailing credits
        net.step();
        assert!(net.worklist.is_empty(), "drained mesh kept routers active");
        assert!(net.work.iter().all(|&w| w == 0), "stale work units remain");
    }

    #[test]
    fn deliveries_are_logged_only_on_request() {
        let mut net = mk_net(3);
        for i in 0..4 {
            net.inject(packet(i, &net, 0, 0, 2, 2, 2)).unwrap();
        }
        net.run_until_idle(10_000).unwrap();
        assert_eq!(net.stats().packets_delivered, 4);
        assert!(net.delivered.iter().all(Vec::is_empty));
    }

    #[test]
    fn drain_all_delivered_returns_everything_once() {
        let mut net = mk_net(3);
        net.record_deliveries();
        for i in 0..6 {
            net.inject(packet(i, &net, 0, 0, 2, 2, 2)).unwrap();
        }
        net.run_until_idle(10_000).unwrap();
        let all = net.drain_all_delivered();
        assert_eq!(all.len(), 6);
        assert!(net.drain_all_delivered().is_empty());
    }

    #[test]
    fn router_failure_mid_flight_conserves_flits() {
        use crate::fault::FaultPlan;
        let mut net = mk_net(4);
        let mesh = net.mesh();
        // Cross traffic that saturates the centre, then kill (1,1) at cycle
        // 8 with flits mid-flight through it.
        let mut id = 0;
        for src in mesh.iter_nodes() {
            for dst in mesh.iter_nodes() {
                if src != dst {
                    net.inject(Packet::new(id, src, dst, PacketClass::Data, 4))
                        .unwrap();
                    id += 1;
                }
            }
        }
        net.install_fault_plan(FaultPlan::new().fail_router(8, Coord::new(1, 1)))
            .unwrap();
        net.run_until_idle(100_000).unwrap();
        let s = net.stats();
        assert!(s.flits_dropped > 0, "the dying router must drop traffic");
        assert!(s.packets_dropped > 0);
        assert_eq!(
            s.flits_injected,
            s.flits_ejected + s.flits_dropped,
            "flit conservation violated"
        );
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.recount_in_flight(), 0);
        // Everything not through the dead router still arrives, detouring.
        assert!(s.packets_delivered + s.packets_dropped == s.packets_injected);
        assert!(s.detour_hops > 0, "surround routing must have engaged");
    }

    #[test]
    fn inject_on_degraded_fabric_counts_dropped_endpoints() {
        use crate::fault::FaultPlan;
        let mut net = mk_net(4);
        net.install_fault_plan(FaultPlan::new().fail_router(0, Coord::new(2, 2)))
            .unwrap();
        net.step(); // apply the event
        assert_eq!(net.fault_state().unwrap().disabled_routers(), 1);
        // To a dead destination: accepted, counted injected and dropped.
        let dead_dst = packet(0, &net, 0, 0, 2, 2, 3);
        net.inject(dead_dst).unwrap();
        assert_eq!(net.stats().flits_dropped, 3);
        assert_eq!(net.stats().packets_dropped, 1);
        assert_eq!(net.in_flight(), 0);
        // Between live endpoints: delivered as usual.
        net.inject(packet(1, &net, 0, 0, 3, 3, 3)).unwrap();
        net.run_until_idle(10_000).unwrap();
        assert_eq!(net.stats().packets_delivered, 1);
        assert_eq!(
            net.stats().flits_injected,
            net.stats().flits_ejected + net.stats().flits_dropped
        );
    }

    #[test]
    fn repair_restores_credits_and_healthy_routing() {
        use crate::fault::FaultPlan;
        let mut net = mk_net(4);
        let plan = FaultPlan::new()
            .fail_router(5, Coord::new(1, 1))
            .fail_link(5, Coord::new(2, 2), Coord::new(3, 2))
            .repair_router(400, Coord::new(1, 1))
            .repair_link(400, Coord::new(2, 2), Coord::new(3, 2));
        net.install_fault_plan(plan).unwrap();
        let mesh = net.mesh();
        let mut id = 0;
        for src in mesh.iter_nodes() {
            for dst in mesh.iter_nodes() {
                if src != dst {
                    net.inject(Packet::new(id, src, dst, PacketClass::Data, 2))
                        .unwrap();
                    id += 1;
                }
            }
        }
        net.run_until_idle(100_000).unwrap();
        net.run(500); // past the repairs, credits land
        assert!(!net.fault_state().unwrap().active());
        for node in net.mesh().iter_nodes() {
            let r = net.router(node);
            for out in &r.outputs {
                for &c in &out.credits {
                    assert_eq!(c, BUFFER_DEPTH, "credits corrupt at {node}");
                }
                assert!(out.credit_in.is_none());
            }
        }
        // Healthy again: XY routing, full delivery, counters consistent.
        let before = net.stats().packets_delivered;
        net.inject(packet(id, &net, 0, 0, 3, 3, 4)).unwrap();
        net.run_until_idle(10_000).unwrap();
        assert_eq!(net.stats().packets_delivered, before + 1);
        assert_eq!(net.recount_in_flight(), 0);
    }

    #[test]
    fn latency_histogram_tracks_deliveries() {
        let mut net = mk_net(4);
        for i in 0..10 {
            net.inject(packet(i, &net, 0, 0, 3, 3, 2)).unwrap();
        }
        net.run_until_idle(10_000).unwrap();
        let h = &net.stats().latency_histogram;
        assert_eq!(h.count(), 10);
        let p99 = h.quantile_upper_bound(0.99).unwrap();
        assert!(p99 >= net.stats().max_packet_latency);
        let p50 = h.quantile_upper_bound(0.5).unwrap();
        assert!(p50 <= p99);
    }
}
