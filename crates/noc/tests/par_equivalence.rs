//! Parallel/serial equivalence: the striped allocation sweep must be
//! bit-identical to the serial path on every cycle, not merely at the end.
//!
//! Random meshes, injection rates, packet lengths and seeds are stepped by
//! two networks fed identical traffic — one pinned to 1 thread, one striped
//! across several with the parallel threshold forced to 1 so even tiny
//! worklists take the parallel path. Per-cycle statistics, in-flight
//! occupancy, and the exact delivered-packet sequences must match.

use hotnoc_noc::{DeliveredPacket, Mesh, Network, NocConfig, TrafficGenerator, TrafficPattern};
use proptest::prelude::*;

/// Steps `net` under `gen` for `cycles`, collecting one observation per
/// cycle plus every delivery record in per-node drain order.
fn drive(
    mut net: Network,
    mut gen: TrafficGenerator,
    cycles: u64,
) -> (Vec<[u64; 6]>, Vec<DeliveredPacket>) {
    net.record_deliveries();
    let mut trace = Vec::with_capacity(cycles as usize);
    for _ in 0..cycles {
        gen.tick(&mut net);
        net.step();
        let s = net.stats();
        trace.push([
            s.packets_injected,
            s.packets_delivered,
            s.flits_ejected,
            s.total_packet_latency,
            s.flit_hops,
            net.in_flight(),
        ]);
    }
    // Drain whatever is still in flight so the delivered sequences cover
    // every packet, then keep fingerprinting the drain cycles too.
    let mut budget = 200_000u64;
    while net.in_flight() > 0 && budget > 0 {
        net.step();
        trace.push([
            0,
            net.stats().packets_delivered,
            net.stats().flits_ejected,
            0,
            0,
            net.in_flight(),
        ]);
        budget -= 1;
    }
    assert_eq!(net.in_flight(), 0, "network failed to drain");
    (trace, net.drain_all_delivered())
}

#[derive(Debug, Clone)]
struct Scenario {
    side: usize,
    rate: f64,
    len_flits: u32,
    seed: u64,
    threads: usize,
    hotspot: bool,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        3usize..9,
        1u32..30,
        1u32..7,
        0u64..1_000_000_000,
        2usize..6,
        0u8..2,
    )
        .prop_map(
            |(side, rate_pct, len_flits, seed, threads, hotspot)| Scenario {
                side,
                rate: rate_pct as f64 / 100.0,
                len_flits,
                seed,
                threads,
                hotspot: hotspot == 1,
            },
        )
}

fn pattern(s: &Scenario) -> TrafficPattern {
    if s.hotspot {
        TrafficPattern::Hotspot {
            nodes: vec![hotnoc_noc::Coord::new(
                (s.side / 2) as u8,
                (s.side / 2) as u8,
            )],
            fraction: 0.5,
        }
    } else {
        TrafficPattern::UniformRandom
    }
}

proptest! {
    // Each case simulates hundreds of cycles twice; 96 cases matches the
    // budget of the other whole-network delivery suites.
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn striped_sweep_matches_serial_cycle_for_cycle(s in scenario()) {
        let mesh = Mesh::square(s.side).unwrap();
        let mk_gen = || TrafficGenerator::new(mesh, pattern(&s), s.rate, s.len_flits, s.seed);

        let mut serial = Network::new(mesh, NocConfig::default());
        serial.set_threads(1);

        let mut striped = Network::new(mesh, NocConfig::default());
        striped.set_threads(s.threads);
        striped.set_par_threshold(1);

        let (trace_a, delivered_a) = drive(serial, mk_gen(), 400);
        let (trace_b, delivered_b) = drive(striped, mk_gen(), 400);

        prop_assert_eq!(trace_a.len(), trace_b.len(), "drain length diverged");
        for (cycle, (a, b)) in trace_a.iter().zip(&trace_b).enumerate() {
            prop_assert_eq!(a, b, "per-cycle stats diverged at cycle {}", cycle);
        }
        prop_assert_eq!(
            delivered_a.len(),
            delivered_b.len(),
            "delivered counts diverged"
        );
        for (a, b) in delivered_a.iter().zip(&delivered_b) {
            prop_assert_eq!(a, b, "delivered-packet sequence diverged");
        }
    }

    #[test]
    fn thread_count_changes_mid_run_preserve_semantics(
        side in 4usize..8,
        seed in 0u64..1_000_000_000,
        switch_at in 50u64..150,
    ) {
        // set_threads mid-simulation must not perturb semantics either:
        // compare an all-serial run against one that flips serial ->
        // striped -> serial at arbitrary points.
        let mesh = Mesh::square(side).unwrap();
        let mk_gen = || TrafficGenerator::new(
            mesh, TrafficPattern::UniformRandom, 0.15, 4, seed,
        );

        let mut reference = Network::new(mesh, NocConfig::default());
        reference.set_threads(1);
        let mut flipping = Network::new(mesh, NocConfig::default());
        flipping.set_threads(1);
        flipping.set_par_threshold(1);

        let mut gen_a = mk_gen();
        let mut gen_b = mk_gen();
        for cycle in 0..300u64 {
            if cycle == switch_at {
                flipping.set_threads(4);
            }
            if cycle == 2 * switch_at {
                flipping.set_threads(1);
            }
            gen_a.tick(&mut reference);
            reference.step();
            gen_b.tick(&mut flipping);
            flipping.step();
            prop_assert_eq!(reference.in_flight(), flipping.in_flight());
            prop_assert_eq!(reference.stats(), flipping.stats());
        }
    }
}

proptest! {
    // Saturating runs are expensive (two networks, heavy queues); fewer
    // cases keep the suite inside the battery's time budget.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn striped_pre_sweep_matches_serial_under_saturation(
        side in 4usize..9,
        seed in 0u64..1_000_000_000,
        threads in 2usize..6,
        switch_at in 40u64..120,
    ) {
        // Step phases 1–3 (credit landing, link arrivals, NIC injection)
        // stripe alongside the allocation sweep. Saturating injection keeps
        // every link queue and NIC backlog full, so arrivals constantly
        // cross stripe boundaries; the mid-run thread flips recut the
        // stripes while those flits are in flight.
        let mesh = Mesh::square(side).unwrap();
        let mk_gen = || TrafficGenerator::new(
            mesh, TrafficPattern::UniformRandom, 0.9, 5, seed,
        );

        let mut reference = Network::new(mesh, NocConfig::default());
        reference.set_threads(1);
        reference.record_deliveries();
        let mut striped = Network::new(mesh, NocConfig::default());
        striped.record_deliveries();
        striped.set_threads(threads);
        striped.set_par_threshold(1);

        let mut gen_a = mk_gen();
        let mut gen_b = mk_gen();
        for cycle in 0..400u64 {
            if cycle == switch_at {
                striped.set_threads(1);
            }
            if cycle == 2 * switch_at {
                striped.set_threads(threads);
            }
            gen_a.tick(&mut reference);
            reference.step();
            gen_b.tick(&mut striped);
            striped.step();
            prop_assert_eq!(
                reference.in_flight(),
                striped.in_flight(),
                "in-flight diverged at cycle {}",
                cycle
            );
            prop_assert_eq!(reference.stats(), striped.stats());
        }
        let delivered_a = reference.drain_all_delivered();
        let delivered_b = striped.drain_all_delivered();
        prop_assert_eq!(delivered_a, delivered_b, "delivered sequences diverged");
    }
}
