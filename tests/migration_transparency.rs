//! Integration of the reconfiguration engine with the NoC: §2.3's claim
//! that "the migration operation is totally transparent to the outside
//! world" thanks to address transformation at the I/O interface.

use hotnoc::noc::{AddressMap, Mesh, Network, NocConfig, Packet, PacketClass};
use hotnoc::reconfig::phases::PhaseCostModel;
use hotnoc::reconfig::{CumulativeMap, MigrationScheme, ReconfigController, StateSpec};

#[test]
fn external_traffic_follows_the_workload_across_migrations() {
    let mesh = Mesh::square(4).unwrap();
    let mut controller = ReconfigController::new(
        mesh,
        MigrationScheme::XYShift,
        1,
        &StateSpec::default(),
        &PhaseCostModel::default(),
    );

    // Logical destination the outside world always addresses.
    let logical_dst = mesh.node_id_at(1, 2).unwrap();

    for round in 0u64..6 {
        // A fresh network per round keeps the check simple; the address map
        // reflects the cumulative migration state.
        let mut net = Network::new(mesh, NocConfig::default());
        net.record_deliveries();
        net.set_address_map(Box::new(controller.map().clone()));

        let src = mesh.node_id_at(0, 0).unwrap();
        let p = Packet::new(round, src, logical_dst, PacketClass::Data, 3);
        net.inject_external(p).unwrap();
        net.run_until_idle(10_000).unwrap();

        // The packet must arrive wherever the logical workload physically
        // lives right now.
        let expected_physical = controller
            .map()
            .logical_to_physical(mesh.coord(logical_dst));
        let delivered = net.drain_delivered(mesh.node_id(expected_physical).unwrap());
        assert_eq!(
            delivered.len(),
            1,
            "round {round}: packet did not follow the workload"
        );

        // Outbound traffic translates back to logical coordinates.
        let rec = delivered[0];
        let out = net.externalize(hotnoc::noc::DeliveredPacket {
            src: mesh.node_id(expected_physical).unwrap(),
            ..rec
        });
        assert_eq!(
            out.src, logical_dst,
            "round {round}: outbound source not re-translated"
        );

        controller.on_block_complete().expect("period of 1 block");
    }
}

#[test]
fn cumulative_map_closes_after_group_order() {
    let mesh = Mesh::square(5).unwrap();
    for scheme in MigrationScheme::FIGURE1 {
        let mut controller = ReconfigController::new(
            mesh,
            scheme,
            1,
            &StateSpec::default(),
            &PhaseCostModel::default(),
        );
        let order = scheme.order(mesh);
        for _ in 0..order {
            controller.on_block_complete().expect("fires each block");
        }
        assert!(
            controller.map().is_identity(),
            "{scheme}: map did not close after {order} migrations"
        );
    }
}

#[test]
fn migration_events_are_deterministic() {
    let mesh = Mesh::square(4).unwrap();
    let mk = || {
        ReconfigController::new(
            mesh,
            MigrationScheme::Rotation,
            2,
            &StateSpec::default(),
            &PhaseCostModel::default(),
        )
    };
    let mut a = mk();
    let mut b = mk();
    for _ in 0..8 {
        assert_eq!(a.on_block_complete(), b.on_block_complete());
    }
}

#[test]
fn controller_map_matches_direct_composition() {
    let mesh = Mesh::square(5).unwrap();
    let scheme = MigrationScheme::XYShift;
    let mut controller = ReconfigController::new(
        mesh,
        scheme,
        1,
        &StateSpec::default(),
        &PhaseCostModel::default(),
    );
    let mut reference = CumulativeMap::identity(mesh);
    for _ in 0..7 {
        controller.on_block_complete();
        reference.apply_scheme(scheme);
    }
    for c in mesh.iter_coords() {
        assert_eq!(
            controller.map().logical_to_physical(c),
            reference.logical_to_physical(c)
        );
    }
}
