//! Golden-determinism guard for degraded fabrics.
//!
//! Same contract as `golden_determinism`, with a canned three-fault plan
//! layered on top of each config's hotspot scenario: a router fails
//! mid-injection, a link fails later, and the router is repaired before
//! injection ends. The fingerprints pin the entire observable degraded
//! timeline — per-cycle stats including the drop/detour counters, both
//! reconfiguration epochs (fail and repair), the drain, and the final
//! delivered-packet sequences. Any change to surround routing, fault
//! teardown or drop accounting that alters a single cycle shows up here.
//!
//! If a fingerprint changes after an *intentional* semantic change to the
//! fault path, regenerate with
//! `cargo test --test golden_faults -- --nocapture` and update `GOLDEN`.

use hotnoc::core::configs::{ChipConfigId, ChipSpec, Fidelity};
use hotnoc::noc::{Coord, FaultPlan, Mesh, Network, NocConfig, TrafficGenerator, TrafficPattern};

/// FNV-1a, the same stable 64-bit fold the healthy golden test uses.
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

/// The same deterministic hotspot scenario as `golden_determinism`.
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

/// The canned fault plan, scaled to the config's mesh side: router (1, 1)
/// fails at cycle 100 and is repaired at 400; the east link out of
/// (side-2, side-2) fails at 200 and stays down through the drain.
fn fault_plan(side: usize) -> FaultPlan {
    let s = side as u8;
    FaultPlan::new()
        .fail_router(100, Coord::new(1, 1))
        .fail_link(200, Coord::new(s - 2, s - 2), Coord::new(s - 1, s - 2))
        .repair_router(400, Coord::new(1, 1))
}

/// Drives the degraded scenario and folds every observable per-cycle
/// quantity — including the fault counters — into one 64-bit fingerprint.
fn run_fingerprint(id: ChipConfigId) -> u64 {
    let side = ChipSpec::of(id, Fidelity::Quick).mesh_side;
    let (mesh, mut gen) = scenario(id);
    let mut net = Network::new(mesh, NocConfig::default());
    net.record_deliveries();
    // Force striping at any worklist size so the CI matrix over
    // HOTNOC_THREADS in {1, 2, 4} genuinely pins the parallel path.
    net.set_par_threshold(1);
    net.install_fault_plan(fault_plan(side))
        .expect("canned plan is valid on every config");
    let mut fp = Fingerprint::new();

    // Phase 1: open-loop injection across both reconfiguration epochs.
    for _ in 0..600 {
        gen.tick(&mut net);
        net.step();
        let s = net.stats();
        fp.u64(s.packets_injected);
        fp.u64(s.packets_delivered);
        fp.u64(s.flits_injected);
        fp.u64(s.flits_ejected);
        fp.u64(s.total_packet_latency);
        fp.u64(s.max_packet_latency);
        fp.u64(s.flit_hops);
        fp.u64(s.packets_dropped);
        fp.u64(s.flits_dropped);
        fp.u64(s.detour_hops);
        fp.u64(net.in_flight());
    }

    // Phase 2: drain. The link is still down, so the drain exercises the
    // degraded routing function the whole way.
    let mut budget = 50_000u64;
    while net.in_flight() > 0 && budget > 0 {
        net.step();
        fp.u64(net.stats().flits_ejected);
        fp.u64(net.in_flight());
        budget -= 1;
    }
    assert_eq!(net.in_flight(), 0, "{id}: degraded network failed to drain");

    // Phase 3: idle tail.
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
    // The plan must actually bite: a fingerprint of an accidentally
    // healthy run would pin the wrong behaviour.
    assert!(
        s.packets_dropped > 0 || s.detour_hops > 0,
        "{id}: fault plan had no observable effect"
    );
    assert_eq!(
        s.packets_injected,
        s.packets_delivered + s.packets_dropped,
        "{id}: packet conservation violated"
    );
    fp.u64(s.packets_injected);
    fp.u64(s.packets_delivered);
    fp.u64(s.packets_dropped);
    fp.u64(s.flits_dropped);
    fp.u64(s.detour_hops);
    fp.u64(s.latency_histogram.count());
    for &b in s.latency_histogram.buckets() {
        fp.u64(b);
    }
    fp.0
}

/// Fingerprints recorded from the implementation that introduced runtime
/// faults, configurations A–E under the canned three-fault plan.
const GOLDEN: [(ChipConfigId, u64); 5] = [
    (ChipConfigId::A, 0x0e2aa81b7f0d7c04),
    (ChipConfigId::B, 0x0b8fc6ac3f7c0c32),
    (ChipConfigId::C, 0x1dbe16771e489b4c),
    (ChipConfigId::D, 0xda3919f027b2b637),
    (ChipConfigId::E, 0xde329a48e0dc2d40),
];

#[test]
fn degraded_step_loop_reproduces_recorded_semantics_on_configs_a_to_e() {
    let results: Vec<(ChipConfigId, u64)> = GOLDEN
        .iter()
        .map(|&(id, _)| (id, run_fingerprint(id)))
        .collect();
    for (id, got) in &results {
        println!("config {id}: fault fingerprint {got:#018x}");
    }
    for ((id, expected), (_, got)) in GOLDEN.iter().zip(&results) {
        assert_eq!(
            got, expected,
            "config {id}: degraded step loop diverged from the recorded \
             semantics (expected {expected:#018x}, got {got:#018x})"
        );
    }
}
