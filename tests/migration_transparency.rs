//! Integration of the reconfiguration engine with the NoC: §2.3's claim
//! that "the migration operation is totally transparent to the outside
//! world" thanks to address transformation at the I/O interface.

use hotnoc::noc::{AddressMap, Mesh, Network, NocConfig, Packet, PacketClass};
use hotnoc::reconfig::{CumulativeMap, MigrationScheme};

#[test]
fn external_traffic_follows_the_workload_across_migrations() {
    for side in [4, 5] {
        let mesh = Mesh::square(side).unwrap();
        // Logical destination the outside world always addresses.
        let logical_dst = mesh.node_id_at(1, 2).unwrap();
        let src = mesh.node_id_at(0, 0).unwrap();
        for scheme in MigrationScheme::FIGURE1 {
            // One migration per period: the map composes the scheme once
            // more each round, through a whole cycle of the group and back.
            let mut map = CumulativeMap::identity(mesh);
            for round in 0..=scheme.order(mesh) as u64 {
                // A fresh network per round keeps the check simple; the
                // address map reflects the cumulative migration state.
                let mut net = Network::new(mesh, NocConfig::default());
                net.record_deliveries();
                net.set_address_map(Box::new(map.clone()));

                let p = Packet::new(round, src, logical_dst, PacketClass::Data, 3);
                net.inject_external(p).unwrap();
                net.run_until_idle(10_000).unwrap();

                // The packet must arrive wherever the logical workload
                // physically lives right now.
                let physical = mesh
                    .node_id(map.logical_to_physical(mesh.coord(logical_dst)))
                    .unwrap();
                let delivered = net.drain_delivered(physical);
                assert_eq!(
                    delivered.len(),
                    1,
                    "{side}x{side} {scheme} round {round}: packet did not follow the workload"
                );

                // Outbound traffic translates back to logical coordinates.
                let out = net.externalize(hotnoc::noc::DeliveredPacket {
                    src: physical,
                    ..delivered[0]
                });
                assert_eq!(
                    out.src, logical_dst,
                    "{side}x{side} {scheme} round {round}: outbound source not re-translated"
                );

                map.apply_scheme(scheme);
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
