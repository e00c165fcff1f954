//! Property-based tests (proptest) over the core invariants of the stack:
//! transformation group laws, address-map bijectivity, thermal linearity,
//! packetization round-trips and apportionment conservation.

use hotnoc::ldpc::{ClusterMapping, LdpcCode};
use hotnoc::noc::flit::packetize;
use hotnoc::noc::{Mesh, NodeId, Packet, PacketClass};
use hotnoc::reconfig::{CumulativeMap, MigrationScheme, OrbitDecomposition};
use hotnoc::thermal::{Floorplan, PackageConfig, RcNetwork};
use proptest::prelude::*;

fn scheme_strategy() -> impl Strategy<Value = MigrationScheme> {
    prop_oneof![
        Just(MigrationScheme::Rotation),
        Just(MigrationScheme::XMirror),
        Just(MigrationScheme::XYMirror),
        (1u8..6).prop_map(|offset| MigrationScheme::XTranslation { offset }),
        (1u8..6).prop_map(|offset| MigrationScheme::YTranslation { offset }),
        Just(MigrationScheme::XYShift),
    ]
}

proptest! {
    #[test]
    fn transforms_are_bijections(side in 2usize..9, scheme in scheme_strategy()) {
        let mesh = Mesh::square(side).unwrap();
        let perm = scheme.permutation(mesh);
        let mut seen = vec![false; mesh.len()];
        for p in perm {
            prop_assert!(!seen[p]);
            seen[p] = true;
        }
    }

    #[test]
    fn transform_order_restores_identity(side in 2usize..8, scheme in scheme_strategy()) {
        let mesh = Mesh::square(side).unwrap();
        let k = scheme.order(mesh);
        prop_assert!(k >= 1);
        for c in mesh.iter_coords() {
            prop_assert_eq!(scheme.apply_k(c, mesh, k), c);
        }
    }

    #[test]
    fn orbits_partition_and_average_conserves(
        side in 2usize..8,
        scheme in scheme_strategy(),
        seed in 0u64..1000,
    ) {
        let mesh = Mesh::square(side).unwrap();
        let d = OrbitDecomposition::new(scheme, mesh);
        let covered: usize = d.orbits().iter().map(Vec::len).sum();
        prop_assert_eq!(covered, mesh.len());

        // Pseudo-random power map, conserved under orbit averaging.
        let power: Vec<f64> = (0..mesh.len())
            .map(|i| ((seed.wrapping_mul(i as u64 + 1) % 97) as f64) / 10.0 + 0.1)
            .collect();
        let avg = d.time_averaged_power(&power);
        let before: f64 = power.iter().sum();
        let after: f64 = avg.iter().sum();
        prop_assert!((before - after).abs() < 1e-9);
        // Averaging never raises the maximum.
        let max_before = power.iter().cloned().fold(f64::MIN, f64::max);
        let max_after = avg.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(max_after <= max_before + 1e-12);
    }

    #[test]
    fn cumulative_maps_stay_bijective(
        side in 2usize..7,
        schemes in proptest::collection::vec(scheme_strategy(), 1..12),
    ) {
        let mesh = Mesh::square(side).unwrap();
        let mut map = CumulativeMap::identity(mesh);
        for s in schemes {
            map.apply_scheme(s);
            // Every image on the mesh and inverted by `physical_to_logical`
            // makes `logical_to_physical` one-to-one, and so a bijection.
            for c in mesh.iter_coords() {
                let p = map.logical_to_physical(c);
                prop_assert!(mesh.contains(p));
                prop_assert_eq!(map.physical_to_logical(p), c);
            }
        }
    }

    #[test]
    fn packetize_roundtrip(len in 1u32..64, id in 0u64..10_000) {
        let p = Packet::new(id, NodeId::new(0), NodeId::new(1), PacketClass::Data, len);
        let flits = packetize(&p, 0);
        prop_assert_eq!(flits.len() as u32, len);
        prop_assert!(flits[0].is_head());
        prop_assert!(flits.last().unwrap().is_tail());
        for (i, f) in flits.iter().enumerate() {
            prop_assert_eq!(f.seq as usize, i);
            prop_assert_eq!(f.packet, p.id);
        }
    }

    #[test]
    fn thermal_superposition(
        a_idx in 0usize..16,
        b_idx in 0usize..16,
        a_watts in 0.1f64..5.0,
        b_watts in 0.1f64..5.0,
    ) {
        let plan = Floorplan::mesh_grid(4, 4, 4.36e-6).unwrap();
        let net = RcNetwork::build(&plan, &PackageConfig::date05_defaults()).unwrap();
        let amb = net.ambient();
        let mut pa = vec![0.0; 16];
        pa[a_idx] = a_watts;
        let mut pb = vec![0.0; 16];
        pb[b_idx] = b_watts;
        let pab: Vec<f64> = pa.iter().zip(&pb).map(|(x, y)| x + y).collect();
        let ta = net.steady_state(&pa).unwrap();
        let tb = net.steady_state(&pb).unwrap();
        let tab = net.steady_state(&pab).unwrap();
        for i in 0..16 {
            let lhs = tab[i] - amb;
            let rhs = (ta[i] - amb) + (tb[i] - amb);
            prop_assert!((lhs - rhs).abs() < 1e-8);
        }
    }

    #[test]
    fn mesh_roundtrips(w in 1usize..16, h in 1usize..16) {
        let mesh = Mesh::new(w, h).unwrap();
        for c in mesh.iter_coords() {
            let id = mesh.node_id(c).unwrap();
            prop_assert_eq!(mesh.coord(id), c);
        }
    }

    #[test]
    fn weighted_mapping_conserves_nodes(
        weights in proptest::collection::vec(0.1f64..5.0, 2..20),
    ) {
        let code = LdpcCode::gallager(240, 3, 6, 1).unwrap();
        let m = ClusterMapping::weighted(&code, &weights).unwrap();
        prop_assert_eq!(m.var_cluster().len(), 240);
        prop_assert_eq!(m.chk_cluster().len(), 120);
        // Every cluster owns at least one variable and one check.
        for cl in 0..weights.len() {
            prop_assert!(m.var_cluster().contains(&cl));
            prop_assert!(m.chk_cluster().contains(&cl));
        }
        // Ops are conserved.
        let total: u64 = m.ops_per_cluster(&code).iter().sum();
        prop_assert_eq!(total, 2 * code.edges() as u64);
    }
}
