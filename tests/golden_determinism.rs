//! Golden-determinism guard for the NoC step loop.
//!
//! The per-cycle behaviour of `Network::step` — statistics, in-flight
//! occupancy and the exact delivered-packet sequences — was recorded on the
//! seed (pre-worklist) implementation for one traffic scenario per chip
//! configuration A–E. Any refactor of the step loop must reproduce these
//! fingerprints bit-for-bit: the event-skipping optimization is required to
//! be cycle-for-cycle identical to the seed semantics, not merely
//! statistically equivalent.
//!
//! A second case drives the router under mixed Data and `State` traffic.
//! The A–E scenarios send only `PacketClass::Data`, so without it no golden
//! would carry traffic on VC 1. Its fingerprint was recorded on commit
//! cdce9a5.
//!
//! If this test ever fails after an intentional semantic change to the
//! router microarchitecture (not an optimization!), regenerate the constants
//! from the `fingerprint` lines that
//! `cargo test --test golden_determinism -- --nocapture` prints.

use hotnoc::core::configs::{ChipConfigId, ChipSpec, Fidelity};
use hotnoc::noc::config::{BUFFER_DEPTH, NUM_VCS};
use hotnoc::noc::{
    Coord, Mesh, Network, NocConfig, NodeId, Packet, PacketClass, TrafficGenerator, TrafficPattern,
};

/// FNV-1a, the same stable 64-bit fold the vendored proptest uses for seeds.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One deterministic scenario per chip configuration: the config's mesh,
/// hotspot traffic aimed at its hottest tile, config-keyed RNG seed.
fn scenario(id: ChipConfigId) -> (Mesh, TrafficGenerator) {
    let spec = ChipSpec::of(id, Fidelity::Quick);
    let side = spec.mesh_side;
    let mesh = Mesh::square(side).expect("mesh");
    let hot = spec.hottest_tile();
    let hot_coord = Coord::new((hot % side) as u8, (hot / side) as u8);
    let band = spec.warm_band_row() as u8;
    let pattern = TrafficPattern::Hotspot {
        nodes: vec![
            hot_coord,
            Coord::new(0, band),
            Coord::new(side as u8 - 1, band),
        ],
        fraction: 0.5,
    };
    let gen = TrafficGenerator::new(mesh, pattern, 0.15, 4, 0x5EED + id as u64);
    (mesh, gen)
}

/// Drives `net` for 600 injecting cycles (`tick` injects each cycle's
/// packets), drains it and idles it, folding every observable per-cycle
/// quantity into one fingerprint.
fn drive(net: &mut Network, label: &str, mut tick: impl FnMut(&mut Network)) -> Fingerprint {
    net.record_deliveries();
    // The test meshes are small, so without this the striped sweep would
    // never engage: force striping at any worklist size so the CI matrix
    // over HOTNOC_THREADS in {1, 2, 4} genuinely pins the parallel path to
    // the same fingerprints as the serial one.
    net.set_par_threshold(1);
    let mut fp = Fingerprint::new();

    // Phase 1: open-loop injection, fingerprinting per-cycle stats.
    for _ in 0..600 {
        tick(net);
        net.step();
        let s = net.stats();
        fp.u64(s.packets_injected);
        fp.u64(s.packets_delivered);
        fp.u64(s.flits_injected);
        fp.u64(s.flits_ejected);
        fp.u64(s.total_packet_latency);
        fp.u64(s.max_packet_latency);
        fp.u64(s.flit_hops);
        fp.u64(net.in_flight());
    }

    // Phase 2: drain, still fingerprinting every cycle.
    let mut budget = 50_000u64;
    while net.in_flight() > 0 && budget > 0 {
        net.step();
        fp.u64(net.stats().flits_ejected);
        fp.u64(net.in_flight());
        budget -= 1;
    }
    assert_eq!(net.in_flight(), 0, "{label}: network failed to drain");

    // Phase 3: idle tail — trailing credits must land identically, and an
    // idle network must still advance its clock.
    for _ in 0..50 {
        net.step();
    }
    fp.u64(net.cycle());

    // The delivered-packet sequences, node by node in delivery order.
    for rec in net.drain_all_delivered() {
        fp.u64(rec.packet_id.0);
        fp.u64(rec.src.index() as u64);
        fp.u64(rec.dst.index() as u64);
        fp.u64(rec.class as u64);
        fp.u64(rec.inject_cycle);
        fp.u64(rec.eject_cycle);
    }

    let s = net.stats();
    fp.u64(s.packets_injected);
    fp.u64(s.packets_delivered);
    fp.u64(s.latency_histogram.count());
    for &b in s.latency_histogram.buckets() {
        fp.u64(b);
    }
    fp
}

/// Drives config `id`'s scenario and returns its fingerprint.
fn run_fingerprint(id: ChipConfigId) -> u64 {
    let (mesh, mut gen) = scenario(id);
    let mut net = Network::new(mesh, NocConfig::default());
    drive(&mut net, &id.to_string(), |net| {
        gen.tick(net);
    })
    .0
}

/// Packet ids of the injected `State` packets start here, far above the
/// traffic generator's ids.
const STATE_ID_BASE: u64 = 1 << 40;

/// Drives a 6x6 mesh: uniform 4-flit Data traffic plus a 1-5-flit `State`
/// packet (VC 1) every third cycle. Folds in per-router switching activity
/// on top of `drive`'s quantities.
fn run_router_case() -> u64 {
    let mesh = Mesh::square(6).expect("mesh");
    let mut net = Network::new(mesh, NocConfig::default());
    let seed = 0xC0FFEE + 16 * NUM_VCS as u64 + BUFFER_DEPTH as u64;
    let mut gen = TrafficGenerator::new(mesh, TrafficPattern::UniformRandom, 0.08, 4, seed);
    let n = mesh.len() as u64;
    let mut next_state_id = STATE_ID_BASE;
    let mut fp = drive(&mut net, "state traffic", |net| {
        gen.tick(net);
        let c = net.cycle();
        if c % 3 != 0 {
            return;
        }
        let src = (c * 7 + 3) % n;
        let mut dst = (c * 11 + 1) % n;
        if dst == src {
            dst = (dst + 1) % n;
        }
        let packet = Packet::new(
            next_state_id,
            NodeId::new(src as u16),
            NodeId::new(dst as u16),
            PacketClass::State,
            1 + (c % 5) as u32,
        );
        next_state_id += 1;
        net.inject(packet).expect("valid state packet");
    });
    for node in 0..mesh.len() {
        let a = net.router(NodeId::new(node as u16)).activity();
        fp.u64(a.buffer_writes);
        for flits in a.link_flits {
            fp.u64(flits);
        }
        fp.u64(a.bit_transitions);
    }
    fp.0
}

/// Fingerprints recorded from the seed `Network::step` implementation
/// (commit e1b3fa3) for configurations A–E.
const GOLDEN: [(ChipConfigId, u64); 5] = [
    (ChipConfigId::A, 0x84b375b6989e4099),
    (ChipConfigId::B, 0x4bc0b1ce92c61231),
    (ChipConfigId::C, 0x6026d66b2136474c),
    (ChipConfigId::D, 0xd163f0425f6583e6),
    (ChipConfigId::E, 0x35062f3913c02104),
];

#[test]
fn step_loop_reproduces_seed_semantics_on_configs_a_to_e() {
    let results: Vec<(ChipConfigId, u64)> = GOLDEN
        .iter()
        .map(|&(id, _)| (id, run_fingerprint(id)))
        .collect();
    for (id, got) in &results {
        println!("config {id}: fingerprint {got:#018x}");
    }
    for ((id, expected), (_, got)) in GOLDEN.iter().zip(&results) {
        assert_eq!(
            got, expected,
            "config {id}: step loop diverged from the seed semantics \
             (expected {expected:#018x}, got {got:#018x})"
        );
    }
}

/// Fingerprint of the mixed Data and `State` case, recorded on commit
/// cdce9a5.
const ROUTER_GOLDEN: u64 = 0x0d1ab8492654401c;

#[test]
fn step_loop_reproduces_recorded_semantics_across_router_configs() {
    let got = run_router_case();
    println!("state traffic: fingerprint {got:#018x}");
    assert_eq!(
        got, ROUTER_GOLDEN,
        "state traffic: step loop diverged from the recorded semantics \
         (expected {ROUTER_GOLDEN:#018x}, got {got:#018x})"
    );
}
