//! Logging one period of a network at rest, and repeating it without
//! stepping.
//!
//! Traffic that repeats — the same packets (sources, destinations, lengths,
//! classes) injected at the same cycles relative to the period's start,
//! with ids shifted by the period's packet count — makes the network repeat
//! too, once a period starts in the state the previous one started in.
//! Timing never reads a packet id or a payload: routing reads the
//! destination, switch allocation reads head and tail positions, VCs,
//! credits, VC owners and round-robin pointers, NICs are FIFOs, and a
//! latency is a difference of cycles. The network is deterministic, so
//! such a period makes every move the previous one made and ends where it
//! started. [`Network::repeat_period`] applies those periods without
//! stepping them: their cycles, statistics, buffer writes and link flits
//! are the logged period's, and only the payload bit transitions are
//! recomputed, by replaying each output port's logged flit order with the
//! payloads of the shifted packet ids.

use super::Network;
use crate::flit::{flit_payloads, payload_seed, Packet};
use crate::router::RouterTiming;
use crate::stats::NetworkStats;
use crate::topology::Mesh;

/// One router's departures during a period: per output port, the index of
/// each flit it sent among the period's flits (packets in id order, flits
/// in sequence order), in sending order.
pub(super) type Departures = [Vec<u32>; 5];

/// Everything of a network at rest that a later cycle reads. Compared with
/// `==`; the cycle counter, statistics and activity counters are left out
/// because no decision reads them.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct TimingState {
    routers: Vec<RouterTiming>,
    work: Vec<u32>,
    buffered: Vec<u32>,
    worklist: Vec<u32>,
    /// Routers enrolled since the last worklist merge, sorted: the merge
    /// sorts them, so their order is not read.
    incoming: Vec<u32>,
}

/// The bookkeeping of a period while it is logged.
pub(super) struct PeriodLog {
    start: TimingState,
    start_cycle: u64,
    /// Set when the period only counts its departures: every router's link
    /// flits at the start.
    counted_from: Option<Vec<[u64; 5]>>,
    /// Id of the period's first packet, once one is injected.
    first_packet: Option<u64>,
    /// Per packet, in id order from `first_packet`: the index of its first
    /// flit among the period's flits.
    flit_base: Vec<u32>,
    /// Flits injected in the period.
    flits: u32,
    /// The period's own statistics.
    pub(super) stats: NetworkStats,
    /// Set when a packet breaks the id or payload rule of
    /// [`Network::start_period`]; the period then cannot be repeated.
    broken: bool,
}

impl PeriodLog {
    /// What the allocation sweep needs to log a departure: the first
    /// packet id and each packet's first flit index. `None` while the
    /// period only counts, and once the log is broken, which stops the
    /// logging.
    pub(super) fn view(&self) -> Option<(u64, &[u32])> {
        match self.first_packet {
            Some(first) if !self.broken && self.counted_from.is_none() => {
                Some((first, &self.flit_base))
            }
            _ => None,
        }
    }

    /// Notes a packet injected into the network.
    pub(super) fn note(&mut self, packet: &Packet) {
        let id = packet.id.0;
        let first = *self.first_packet.get_or_insert(id);
        let flits = self.flits.checked_add(packet.len_flits);
        match flits {
            Some(flits)
                if id == first + self.flit_base.len() as u64
                    && packet.payload == payload_seed(id) =>
            {
                self.flit_base.push(self.flits);
                self.flits = flits;
            }
            _ => self.broken = true,
        }
        self.stats.packets_injected += 1;
        self.stats.flits_injected += packet.len_flits as u64;
    }
}

/// One logged period of a network at rest: what
/// [`Network::repeat_period`] needs to run more periods like it without
/// stepping them. Built by [`Network::end_period`].
///
/// It holds the network's state at the period's start, the period's cycles
/// and statistics, and four bytes per flit departure (each output port's
/// flit order). A period that only counted its departures holds logs of
/// that capacity, empty, for the next period to fill.
#[derive(Debug)]
pub struct Period {
    mesh: Mesh,
    /// Whether the flit order was logged; a counted period cannot be
    /// repeated.
    logged: bool,
    /// The state the period started in; a repeatable period also ends in
    /// it.
    start: TimingState,
    cycles: u64,
    stats: NetworkStats,
    first_packet: u64,
    flit_base: Vec<u32>,
    flits: u32,
    departures: Vec<Departures>,
}

impl Period {
    /// Packets injected during the period: the id shift from one
    /// repetition to the next.
    pub fn packets(&self) -> u64 {
        self.flit_base.len() as u64
    }
}

impl Network {
    /// Whether no fault plan is installed, no trace is recording, no
    /// delivery is recorded and no flit is in flight (buffers, links and
    /// NICs are empty).
    fn at_rest_unobserved(&self) -> bool {
        self.faults.is_none()
            && self.trace.is_none()
            && !self.record_deliveries
            && self.in_flight() == 0
    }

    fn timing_state(&self) -> TimingState {
        let mut incoming = self.incoming.clone();
        incoming.sort_unstable();
        TimingState {
            routers: self.routers.iter().map(|r| r.timing()).collect(),
            work: self.work.clone(),
            buffered: self.buffered.clone(),
            worklist: self.worklist.clone(),
            incoming,
        }
    }

    /// Starts logging a period: the cycles until [`Network::end_period`].
    /// Returns `false`, and logs nothing, unless the network is at rest (no
    /// flit in buffers, on links or in NICs; credits may still be in
    /// flight), no fault plan is installed, no trace is recording, delivered
    /// packets are not recorded and no other period is being logged.
    ///
    /// `previous` is the period before this one. Its logs, sized to its
    /// departures per port, take this period's flit order. Without one,
    /// the period only counts each port's departures: it sizes the next
    /// period's logs, and cannot be repeated itself. A period can be
    /// repeated only if its packets have consecutive ids in injection
    /// order and each carries [`Packet::new`]'s payload seed for its id.
    pub fn start_period(&mut self, previous: Option<Period>) -> bool {
        if self.period.is_some() || !self.at_rest_unobserved() {
            return false;
        }
        let counted_from = match previous.filter(|p| p.mesh == self.mesh) {
            Some(previous) => {
                self.departures = previous.departures;
                for log in self.departures.iter_mut().flatten() {
                    log.clear();
                }
                None
            }
            None => Some(self.routers.iter().map(|r| r.activity.link_flits).collect()),
        };
        self.period = Some(Box::new(PeriodLog {
            start: self.timing_state(),
            start_cycle: self.cycle,
            counted_from,
            first_packet: None,
            flit_base: Vec::new(),
            flits: 0,
            stats: NetworkStats::default(),
            broken: false,
        }));
        true
    }

    /// Stops logging and returns the period since [`Network::start_period`],
    /// its logs trimmed to its departures per port. `None` if no period was
    /// being logged, or if the period is of no use to a repeat: the network
    /// is not at rest, a fault plan, a trace or the delivery log was
    /// switched on, or a packet broke the id or payload rule.
    pub fn end_period(&mut self) -> Option<Period> {
        let log = self.period.take()?;
        let mut departures = std::mem::replace(
            &mut self.departures,
            vec![Departures::default(); self.routers.len()],
        );
        if log.broken || !self.at_rest_unobserved() {
            return None;
        }
        match &log.counted_from {
            None => departures.iter_mut().flatten().for_each(Vec::shrink_to_fit),
            Some(from) => {
                for ((logs, router), from) in departures.iter_mut().zip(&self.routers).zip(from) {
                    for ((log, now), then) in
                        logs.iter_mut().zip(router.activity.link_flits).zip(from)
                    {
                        *log = Vec::with_capacity((now - then) as usize);
                    }
                }
            }
        }
        Some(Period {
            mesh: self.mesh,
            logged: log.counted_from.is_none(),
            start: log.start,
            cycles: self.cycle - log.start_cycle,
            stats: log.stats,
            first_packet: log.first_packet.unwrap_or(0),
            flit_base: log.flit_base,
            flits: log.flits,
            departures,
        })
    }

    /// Runs `times` more periods like `period` without stepping them, and
    /// returns `true`. The caller vouches for the traffic: repetition `m`
    /// (from 1) would have injected `period`'s packets again at the same
    /// cycles relative to its start, with ids shifted by `m` ×
    /// [`Period::packets`]. The network ends where stepping those periods
    /// would have left it: its cycle, statistics, every router's activity
    /// counters and every output's last payload.
    ///
    /// Returns `false`, changing nothing, unless `period` logged its flit
    /// order, the network is in `period`'s start state on the same mesh,
    /// no flit is in flight, no fault plan is installed, no trace is
    /// recording, delivered packets are not recorded and no period is being
    /// logged.
    pub fn repeat_period(&mut self, period: &Period, times: u64) -> bool {
        if !period.logged
            || self.period.is_some()
            || !self.at_rest_unobserved()
            || period.mesh != self.mesh
            || self.timing_state() != period.start
        {
            return false;
        }
        let _t = hotnoc_obs::prof::scope("noc/repeat");
        self.cycle += times * period.cycles;
        for _ in 0..times {
            self.stats.merge(&period.stats);
        }
        // Bit transitions: each output port sends the logged flit order
        // again, carrying the shifted packets' payloads.
        let mut payloads = vec![0u64; period.flits as usize];
        let ends = period.flit_base.iter().skip(1).chain([&period.flits]);
        let spans: Vec<(usize, usize)> = (period.flit_base.iter().zip(ends))
            .map(|(&a, &b)| (a as usize, b as usize))
            .collect();
        for m in 1..=times {
            let first = period.first_packet + m * period.packets();
            for (k, &(a, b)) in spans.iter().enumerate() {
                let words = flit_payloads(payload_seed(first + k as u64));
                for (slot, word) in payloads[a..b].iter_mut().zip(words) {
                    *slot = word;
                }
            }
            for (router, ports) in self.routers.iter_mut().zip(&period.departures) {
                for (out, log) in router.outputs.iter_mut().zip(ports) {
                    for &i in log {
                        let word = payloads[i as usize];
                        router.activity.bit_transitions +=
                            (out.last_payload ^ word).count_ones() as u64;
                        out.last_payload = word;
                    }
                }
            }
        }
        for (router, ports) in self.routers.iter_mut().zip(&period.departures) {
            for (d, log) in ports.iter().enumerate() {
                let sent = times * log.len() as u64;
                router.activity.link_flits[d] += sent;
                // The period starts and ends with empty buffers, so every
                // flit a router buffered in it also left it.
                router.activity.buffer_writes += sent;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::fault::FaultPlan;
    use crate::flit::PacketClass;
    use crate::topology::{Coord, NodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A packet of the schedule: injected `at` cycles into the period.
    #[derive(Debug, Clone, Copy)]
    struct Shot {
        at: u64,
        src: NodeId,
        dst: NodeId,
        class: PacketClass,
        len: u32,
    }

    /// A period's traffic: shots in cycle order, then a drain, then `gap`
    /// idle cycles (0 leaves the drain's last credits in flight).
    #[derive(Debug, Clone)]
    struct Schedule {
        shots: Vec<Shot>,
        gap: u64,
    }

    /// Random multi-flit traffic on both VCs: bursts at a few cycles, most
    /// packets aimed at one hot destination, so that arbitration (and with
    /// it every round-robin pointer) decides the flit order.
    fn schedule(mesh: Mesh, seed: u64) -> Schedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = mesh.len();
        let mut shots = Vec::new();
        let hot = NodeId::new(rng.gen_range(0..n) as u16);
        for at in [0u64, 0, 3, 7, 7, 12] {
            for _ in 0..rng.gen_range(1..2 * n + 1) {
                let src = NodeId::new(rng.gen_range(0..n) as u16);
                let dst = if rng.gen_bool(0.6) {
                    hot
                } else {
                    NodeId::new(rng.gen_range(0..n) as u16)
                };
                let class = if rng.gen_bool(0.5) {
                    PacketClass::Data
                } else {
                    PacketClass::State
                };
                shots.push(Shot {
                    at,
                    src,
                    dst,
                    class,
                    len: rng.gen_range(1..7),
                });
            }
        }
        Schedule {
            shots,
            gap: [0u64, 0, 1, 5][rng.gen_range(0..4usize)],
        }
    }

    /// Steps one period of `schedule`, numbering packets from `*next_id`.
    fn run_period(net: &mut Network, schedule: &Schedule, next_id: &mut u64) {
        let start = net.cycle();
        for shot in &schedule.shots {
            while net.cycle() < start + shot.at {
                net.step();
            }
            let p = Packet::new(*next_id, shot.src, shot.dst, shot.class, shot.len);
            net.inject(p).unwrap();
            *next_id += 1;
        }
        net.run_until_idle(100_000).unwrap();
        net.run(schedule.gap);
    }

    /// Logs periods of `schedule` until one starts in the state the
    /// previous one started in, then repeats that one `times` times.
    /// Returns the periods stepped.
    fn step_then_repeat(
        net: &mut Network,
        schedule: &Schedule,
        next_id: &mut u64,
        times: u64,
    ) -> u64 {
        let mut period: Option<Period> = None;
        for stepped in 0..8 {
            if let Some(p) = &period {
                if net.repeat_period(p, times) {
                    *next_id += times * p.packets();
                    return stepped;
                }
            }
            assert!(net.start_period(period.take()));
            run_period(net, schedule, next_id);
            period = net.end_period();
            assert!(period.is_some(), "a period of Packet::new traffic at rest");
        }
        panic!("the state never repeated");
    }

    /// Every observable of `a` equals `b`'s.
    fn assert_same(a: &Network, b: &Network) {
        assert_eq!(a.cycle(), b.cycle());
        assert_eq!(a.stats(), b.stats());
        for (ra, rb) in a.routers.iter().zip(&b.routers) {
            assert_eq!(ra.activity(), rb.activity(), "router {}", ra.coord());
            let last = |r: &crate::router::Router| r.outputs.each_ref().map(|o| o.last_payload);
            assert_eq!(last(ra), last(rb), "router {}", ra.coord());
        }
        assert_eq!(a.timing_state(), b.timing_state());
        assert_eq!(a.in_flight(), 0);
    }

    fn mesh(w: usize, h: usize) -> Mesh {
        Mesh::new(w, h).unwrap()
    }

    fn striped(mut net: Network, threads: usize) -> Network {
        net.set_threads(threads);
        net.set_par_threshold(1);
        net
    }

    #[test]
    fn repeating_a_period_equals_stepping_it() {
        let shapes = [
            (2, 2),
            (3, 3),
            (2, 5),
            (4, 3),
            (4, 4),
            (5, 5),
            (6, 3),
            (6, 6),
        ];
        for (case, &(w, h)) in shapes.iter().enumerate() {
            for seed in 0..4u64 {
                let mesh = mesh(w, h);
                let schedule = schedule(mesh, 100 * case as u64 + seed);
                let times = 1 + seed * 3;
                let threads = 1 + (case + seed as usize) % 3;
                let mut a = striped(Network::new(mesh, NocConfig::default()), threads);
                let mut b = Network::new(mesh, NocConfig::default());
                let (mut id_a, mut id_b) = (0, 0);
                let stepped = step_then_repeat(&mut a, &schedule, &mut id_a, times);
                for _ in 0..stepped + times {
                    run_period(&mut b, &schedule, &mut id_b);
                }
                assert_eq!(id_a, id_b);
                assert_same(&a, &b);
                // A period stepped after the repeat behaves as after steps.
                run_period(&mut a, &schedule, &mut id_a);
                run_period(&mut b, &schedule, &mut id_b);
                assert_same(&a, &b);
            }
        }
    }

    #[test]
    fn repeating_zero_times_changes_nothing() {
        let mesh = mesh(3, 2);
        let schedule = schedule(mesh, 7);
        let mut a = Network::new(mesh, NocConfig::default());
        let mut b = Network::new(mesh, NocConfig::default());
        let (mut id_a, mut id_b) = (0, 0);
        let stepped = step_then_repeat(&mut a, &schedule, &mut id_a, 0);
        for _ in 0..stepped {
            run_period(&mut b, &schedule, &mut id_b);
        }
        assert_same(&a, &b);
    }

    /// A network that has just logged a repeatable period, and that
    /// period.
    fn logged() -> (Network, Period) {
        let mesh = mesh(4, 4);
        let schedule = schedule(mesh, 12);
        let mut net = Network::new(mesh, NocConfig::default());
        let mut id = 0;
        let mut period = None;
        for _ in 0..8 {
            net.start_period(period.take());
            run_period(&mut net, &schedule, &mut id);
            let p = net.end_period().unwrap();
            if p.logged && net.timing_state() == p.start {
                return (net, p);
            }
            period = Some(p);
        }
        panic!("the state never repeated");
    }

    /// `repeat_period` refuses and leaves every observable as it was.
    fn assert_refused(net: &mut Network, period: &Period) {
        let before = (
            net.cycle(),
            net.stats().clone(),
            net.routers.iter().map(|r| r.activity()).collect::<Vec<_>>(),
        );
        assert!(!net.repeat_period(period, 3));
        let after = (
            net.cycle(),
            net.stats().clone(),
            net.routers.iter().map(|r| r.activity()).collect::<Vec<_>>(),
        );
        assert_eq!(before, after);
    }

    #[test]
    fn repeat_refuses_another_state() {
        let (mut net, period) = logged();
        net.routers[5].outputs[1].rr_ptr += 1;
        assert_refused(&mut net, &period);
        net.routers[5].outputs[1].rr_ptr -= 1;

        let src = net.mesh().node_id_at(0, 0).unwrap();
        net.inject(Packet::new(
            1 << 40,
            src,
            NodeId::new(3),
            PacketClass::Data,
            2,
        ))
        .unwrap();
        assert_refused(&mut net, &period);
        net.run_until_idle(1_000).unwrap();

        let mut other = Network::new(Mesh::new(2, 8).unwrap(), NocConfig::default());
        assert_refused(&mut other, &period);
    }

    #[test]
    fn repeat_refuses_faults_traces_and_delivery_logs() {
        let (mut net, period) = logged();
        net.start_trace();
        assert_refused(&mut net, &period);
        assert!(!net.start_period(None));
        net.take_trace();
        assert!(net.repeat_period(&period, 0), "back in the start state");

        let (mut net, period) = logged();
        net.record_deliveries();
        assert_refused(&mut net, &period);
        assert!(!net.start_period(None));

        let (mut net, period) = logged();
        let plan = FaultPlan::new().fail_router(1 << 30, Coord::new(1, 1));
        net.install_fault_plan(plan).unwrap();
        assert_refused(&mut net, &period);
        assert!(!net.start_period(None));
    }

    #[test]
    fn repeat_refuses_while_logging_and_logging_refuses_in_flight_flits() {
        let (mut net, period) = logged();
        assert!(net.start_period(None));
        assert!(!net.start_period(None), "one period at a time");
        assert_refused(&mut net, &period);
        assert!(net.end_period().is_some());

        let src = net.mesh().node_id_at(0, 0).unwrap();
        net.inject(Packet::new(0, src, NodeId::new(3), PacketClass::Data, 2))
            .unwrap();
        assert!(!net.start_period(None));
        assert!(net.end_period().is_none(), "nothing was being logged");
    }

    #[test]
    fn packets_off_the_id_or_payload_rule_make_a_period_unrepeatable() {
        let mesh = mesh(3, 3);
        let (src, dst) = (NodeId::new(0), NodeId::new(8));
        let cases: [&[Packet]; 3] = [
            // Consecutive ids with Packet::new seeds: repeatable.
            &[
                Packet::new(4, src, dst, PacketClass::Data, 3),
                Packet::new(5, dst, src, PacketClass::State, 2),
            ],
            // A gap in the ids.
            &[
                Packet::new(4, src, dst, PacketClass::Data, 3),
                Packet::new(6, dst, src, PacketClass::State, 2),
            ],
            // A payload seed of its own.
            &[Packet {
                payload: 99,
                ..Packet::new(4, src, dst, PacketClass::Data, 3)
            }],
        ];
        for (k, packets) in cases.iter().enumerate() {
            let mut net = Network::new(mesh, NocConfig::default());
            // An empty counted period, so that the next one is logged.
            assert!(net.start_period(None));
            let counted = net.end_period();
            assert!(net.start_period(counted));
            for &p in packets.iter() {
                net.inject(p).unwrap();
            }
            net.run_until_idle(1_000).unwrap();
            let period = net.end_period();
            assert_eq!(period.is_some(), k == 0, "case {k}");
            if let Some(p) = period {
                assert!(p.logged);
                assert_eq!(p.packets(), 2);
                assert!(p.cycles > 0);
            }
        }
    }

    #[test]
    fn a_counted_period_is_not_repeated_and_sizes_the_next_ones_logs() {
        let mesh = mesh(4, 3);
        let schedule = schedule(mesh, 5);
        let mut net = Network::new(mesh, NocConfig::default());
        let mut id = 0;
        assert!(net.start_period(None));
        run_period(&mut net, &schedule, &mut id);
        let counted = net.end_period().unwrap();
        assert!(!counted.logged);
        assert!(counted.departures.iter().flatten().all(Vec::is_empty));
        let capacity: Vec<usize> = counted
            .departures
            .iter()
            .flatten()
            .map(Vec::capacity)
            .collect();
        let sent: u64 = net
            .routers
            .iter()
            .map(|r| r.activity().total_link_flits())
            .sum();
        assert_eq!(capacity.iter().sum::<usize>() as u64, sent);
        if net.timing_state() == counted.start {
            assert_refused(&mut net, &counted);
        }
        // The next period fills those logs to the departures it made.
        assert!(net.start_period(Some(counted)));
        run_period(&mut net, &schedule, &mut id);
        let logged = net.end_period().unwrap();
        assert!(logged.logged);
        let lens: Vec<usize> = logged.departures.iter().flatten().map(Vec::len).collect();
        let trimmed: Vec<usize> = logged
            .departures
            .iter()
            .flatten()
            .map(Vec::capacity)
            .collect();
        assert_eq!(lens, trimmed);
        let total: u64 = net
            .routers
            .iter()
            .map(|r| r.activity().total_link_flits())
            .sum();
        assert_eq!(lens.iter().sum::<usize>() as u64, total - sent);
    }
}
