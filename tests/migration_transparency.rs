//! §2.3's claim that "the migration operation is totally transparent to
//! the outside world": the network carries physical node ids only, and the
//! chip's I/O boundary applies the cumulative migration map to the traffic
//! crossing it.

use hotnoc::noc::{Coord, Mesh, Network, NocConfig, Packet, PacketClass};
use hotnoc::reconfig::{CumulativeMap, MigrationScheme};

#[test]
fn external_traffic_follows_the_workload_across_migrations() {
    for side in [4, 5] {
        let mesh = Mesh::square(side).unwrap();
        // Logical destination the outside world always addresses.
        let logical = Coord::new(1, 2);
        let src = mesh.node_id_at(0, 0).unwrap();
        for scheme in MigrationScheme::FIGURE1 {
            // One migration per period: the map composes the scheme once
            // more each round, through a whole cycle of the group and back,
            // while `home` follows the workload one scheme step at a time.
            let mut map = CumulativeMap::identity(mesh);
            let mut home = logical;
            for round in 0..=scheme.order(mesh) as u64 {
                let case = format!("{side}x{side} {scheme} round {round}");
                // Inbound: the boundary sends the packet to the tile the
                // logical workload physically lives on right now.
                let physical = map.logical_to_physical(logical);
                assert_eq!(physical, home, "{case}: the map lost the workload");
                let dst = mesh.node_id(physical).unwrap();
                let mut net = Network::new(mesh, NocConfig::default());
                net.record_deliveries();
                net.inject(Packet::new(round, src, dst, PacketClass::Data, 3))
                    .unwrap();
                net.run_until_idle(10_000).unwrap();
                let delivered = net.drain_delivered(dst);
                assert_eq!(delivered.len(), 1, "{case}: packet not delivered");

                // Outbound: the delivering tile maps back to the logical
                // node the outside world addressed.
                let from = mesh.coord(delivered[0].dst);
                assert_eq!(
                    map.physical_to_logical(from),
                    logical,
                    "{case}: the delivering tile does not map back"
                );

                map.apply_scheme(scheme);
                home = scheme.apply(home, mesh);
            }
        }
    }
}

#[test]
fn cumulative_map_closes_after_group_order() {
    let mesh = Mesh::square(5).unwrap();
    for scheme in MigrationScheme::FIGURE1 {
        let mut map = CumulativeMap::identity(mesh);
        let order = scheme.order(mesh);
        for _ in 0..order {
            map.apply_scheme(scheme);
        }
        assert!(
            map.is_identity(),
            "{scheme}: map did not close after {order} migrations"
        );
    }
}
