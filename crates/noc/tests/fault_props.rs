//! Property tests for runtime fault injection: degraded-path avoidance,
//! flit conservation under arbitrary failure schedules, and byte-identical
//! return to healthy behaviour after disable-then-repair.

use hotnoc_noc::{
    Coord, Direction, FaultPlan, Mesh, Network, NocConfig, Packet, PacketClass, TrafficGenerator,
    TrafficPattern,
};
use proptest::prelude::*;

/// A random square mesh plus a random set of distinct router coordinates and
/// failed links (as a coordinate and an outgoing direction with a neighbor).
fn degraded_mesh() -> impl Strategy<Value = (Mesh, Vec<Coord>, Vec<(Coord, Coord)>)> {
    (4usize..8).prop_flat_map(|side| {
        let mesh = Mesh::square(side).unwrap();
        let coord = (0..side as u8, 0..side as u8).prop_map(|(x, y)| Coord::new(x, y));
        let link =
            (0..(side - 1) as u8, 0..(side - 1) as u8, 0u8..2).prop_map(|(x, y, vertical)| {
                let a = Coord::new(x, y);
                let b = if vertical == 1 {
                    Coord::new(x, y + 1)
                } else {
                    Coord::new(x + 1, y)
                };
                (a, b)
            });
        (
            Just(mesh),
            proptest::collection::vec(coord, 0..3),
            proptest::collection::vec(link, 0..3),
        )
    })
}

fn plan_at(cycle: u64, routers: &[Coord], links: &[(Coord, Coord)]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &c in routers {
        plan = plan.fail_router(cycle, c);
    }
    for &(a, b) in links {
        plan = plan.fail_link(cycle, a, b);
    }
    plan
}

proptest! {
    // Each case is a full (small) network simulation; sample fewer cases
    // than the cheap routing properties but still well beyond a smoke test.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (1) Every packet delivered on a degraded fabric travelled a path that
    /// avoids all disabled routers and links: disabled routers record zero
    /// switching activity, and no flit crosses a disabled link in either
    /// direction.
    #[test]
    fn delivered_paths_avoid_disabled_components(
        (mesh, dead_routers, dead_links) in degraded_mesh(),
        seed in 0u64..1000,
    ) {
        let mut net = Network::new(mesh, NocConfig::default());
        net.set_par_threshold(1);
        net.install_fault_plan(plan_at(0, &dead_routers, &dead_links)).unwrap();
        net.step(); // apply the faults before any traffic exists
        let mut gen = TrafficGenerator::new(
            mesh, TrafficPattern::UniformRandom, 0.1, 3, 0xFA17 + seed,
        );
        for _ in 0..200 {
            gen.tick(&mut net);
            net.step();
        }
        net.run_until_idle(200_000).expect("degraded mesh must still drain");

        for &c in &dead_routers {
            let a = net.router(mesh.node_id(c).unwrap()).activity();
            prop_assert!(a.is_idle(), "disabled router {c} saw traffic: {a:?}");
        }
        for &(a, b) in &dead_links {
            let dir = Direction::MESH
                .into_iter()
                .find(|&d| mesh.neighbor(a, d) == Some(b))
                .unwrap();
            let fwd = net.router(mesh.node_id(a).unwrap()).activity().link_flits[dir.index()];
            let rev = net.router(mesh.node_id(b).unwrap()).activity().link_flits
                [dir.opposite().index()];
            prop_assert_eq!(fwd, 0, "flits crossed dead link {} -> {}", a, b);
            prop_assert_eq!(rev, 0, "flits crossed dead link {} -> {}", b, a);
        }
    }

    /// (2) With failures (and repairs) landing at arbitrary cycles while
    /// traffic is in flight, the network still drains, and every injected
    /// flit is either ejected or counted dropped — flit conservation.
    #[test]
    fn flit_conservation_under_midflight_faults(
        (mesh, dead_routers, dead_links) in degraded_mesh(),
        seed in 0u64..1000,
        fail_at in 1u64..150,
        repair_after in 1u64..200,
    ) {
        let mut net = Network::new(mesh, NocConfig::default());
        net.set_par_threshold(1);
        let mut plan = plan_at(fail_at, &dead_routers, &dead_links);
        // Repair the first failed router mid-run so repair paths are
        // exercised under load too.
        if let Some(&c) = dead_routers.first() {
            plan = plan.repair_router(fail_at + repair_after, c);
        }
        net.install_fault_plan(plan).unwrap();
        let mut gen = TrafficGenerator::new(
            mesh, TrafficPattern::UniformRandom, 0.12, 4, 0xC0DE + seed,
        );
        for _ in 0..250 {
            gen.tick(&mut net);
            net.step();
        }
        net.run_until_idle(200_000).expect("faulty mesh must drain");
        net.run(repair_after + 300); // land repairs + trailing credits

        let s = net.stats();
        prop_assert_eq!(
            s.flits_injected, s.flits_ejected + s.flits_dropped,
            "flit conservation violated"
        );
        prop_assert_eq!(
            s.packets_injected, s.packets_delivered + s.packets_dropped,
            "packet conservation violated"
        );
        prop_assert_eq!(net.in_flight(), 0);
    }

    /// (3) Disable-then-repair during an idle window returns the fabric to
    /// byte-identical healthy behaviour: identical traffic afterwards yields
    /// identical delivery records and statistics, with zero drops/detours
    /// and minimal (XY) hop counts.
    #[test]
    fn repair_restores_byte_identical_healthy_behaviour(
        dead in (0u8..4, 0u8..4).prop_map(|(x, y)| Coord::new(x, y)),
        seed in 0u64..1000,
    ) {
        let mesh = Mesh::square(4).unwrap();
        let mut healthy = Network::new(mesh, NocConfig::default());
        let mut repaired = Network::new(mesh, NocConfig::default());
        healthy.record_deliveries();
        repaired.record_deliveries();
        healthy.set_par_threshold(1);
        repaired.set_par_threshold(1);
        repaired
            .install_fault_plan(
                FaultPlan::new().fail_router(0, dead).repair_router(10, dead),
            )
            .unwrap();
        // Idle across the fault window so nothing can be dropped, then an
        // identical traffic schedule into both networks.
        healthy.run(20);
        repaired.run(20);
        prop_assert!(!repaired.fault_state().unwrap().active());

        let mut gen_a = TrafficGenerator::new(
            mesh, TrafficPattern::UniformRandom, 0.15, 3, 0xBEEF + seed,
        );
        let mut gen_b = TrafficGenerator::new(
            mesh, TrafficPattern::UniformRandom, 0.15, 3, 0xBEEF + seed,
        );
        for _ in 0..150 {
            gen_a.tick(&mut healthy);
            gen_b.tick(&mut repaired);
            healthy.step();
            repaired.step();
            prop_assert_eq!(healthy.in_flight(), repaired.in_flight());
        }
        healthy.run_until_idle(100_000).unwrap();
        repaired.run_until_idle(100_000).unwrap();

        prop_assert_eq!(healthy.stats(), repaired.stats());
        prop_assert_eq!(repaired.stats().flits_dropped, 0);
        prop_assert_eq!(repaired.stats().detour_hops, 0);
        let a = healthy.drain_all_delivered();
        let b = repaired.drain_all_delivered();
        prop_assert_eq!(a, b, "delivery records diverged after repair");
    }
}

/// Deterministic (non-proptest) check that surround routing still delivers
/// everything on a mesh degraded into an L-shape, and that hop counts exceed
/// the healthy minimum only via counted detours.
#[test]
fn l_shaped_fabric_delivers_everything_with_detours() {
    let mesh = Mesh::square(5).unwrap();
    let mut net = Network::new(mesh, NocConfig::default());
    net.set_par_threshold(1);
    // Kill a 2x2 block in the north-east corner.
    let block = [
        Coord::new(3, 3),
        Coord::new(4, 3),
        Coord::new(3, 4),
        Coord::new(4, 4),
    ];
    let mut plan = FaultPlan::new();
    for &c in &block {
        plan = plan.fail_router(0, c);
    }
    net.install_fault_plan(plan).unwrap();
    net.step();

    let mut id = 0;
    let mut expected = 0u64;
    for src in mesh.iter_coords() {
        for dst in mesh.iter_coords() {
            if src == dst || block.contains(&src) || block.contains(&dst) {
                continue;
            }
            let p = Packet::new(
                id,
                mesh.node_id(src).unwrap(),
                mesh.node_id(dst).unwrap(),
                PacketClass::Data,
                2,
            );
            net.inject(p).unwrap();
            id += 1;
            expected += 1;
        }
    }
    net.run_until_idle(200_000).unwrap();
    let s = net.stats();
    assert_eq!(s.packets_delivered, expected);
    assert_eq!(s.packets_dropped, 0);
    assert_eq!(s.flits_injected, s.flits_ejected);
    // Pairs whose XY path crossed the block must have detoured around it.
    assert!(s.detour_hops > 0);
}
