//! Property tests for the reconfiguration engine: group-theoretic laws of
//! the transforms, plan invariants under randomized state sizes, and
//! cumulative-map consistency under random migration histories.

use hotnoc_noc::Mesh;
use hotnoc_reconfig::phases::PhaseCostModel;
use hotnoc_reconfig::{CumulativeMap, MigrationPlan, MigrationScheme, StateSpec};
use proptest::prelude::*;

fn scheme_strategy() -> impl Strategy<Value = MigrationScheme> {
    prop_oneof![
        Just(MigrationScheme::Rotation),
        Just(MigrationScheme::XMirror),
        Just(MigrationScheme::XYMirror),
        (1u8..5).prop_map(|offset| MigrationScheme::XTranslation { offset }),
        (1u8..5).prop_map(|offset| MigrationScheme::YTranslation { offset }),
        Just(MigrationScheme::XYShift),
    ]
}

proptest! {
    #[test]
    fn plans_scale_with_state_size(
        side in 3usize..7,
        scheme in scheme_strategy(),
        state_kbits in 1u64..128,
    ) {
        let mesh = Mesh::square(side).unwrap();
        let small = StateSpec {
            config_bits: 1024,
            state_bits: state_kbits * 1024,
            flit_bits: 64,
        };
        let big = StateSpec {
            config_bits: 1024,
            state_bits: state_kbits * 2048,
            flit_bits: 64,
        };
        let cost = PhaseCostModel::default();
        let p_small = MigrationPlan::plan(mesh, scheme, &small, &cost);
        let p_big = MigrationPlan::plan(mesh, scheme, &big, &cost);
        // Same moves, same phases; more flits means more cycles and hops.
        prop_assert_eq!(p_small.total_moves(), p_big.total_moves());
        prop_assert_eq!(p_small.num_phases(), p_big.num_phases());
        prop_assert!(p_big.total_cycles() >= p_small.total_cycles());
        prop_assert!(p_big.total_flit_hops() > p_small.total_flit_hops()
            || p_small.total_flit_hops() == 0);
    }

    #[test]
    fn per_tile_attributions_are_consistent(
        side in 3usize..7,
        scheme in scheme_strategy(),
    ) {
        let mesh = Mesh::square(side).unwrap();
        let plan = MigrationPlan::plan(
            mesh,
            scheme,
            &StateSpec::default(),
            &PhaseCostModel::default(),
        );
        let hops = plan.per_tile_flit_hops(mesh);
        prop_assert_eq!(hops.iter().sum::<u64>(), plan.total_flit_hops());
        let flits = StateSpec::default().flits_per_pe() as u64;
        let endpoints = plan.per_tile_endpoint_flits(mesh);
        prop_assert_eq!(
            endpoints.iter().sum::<u64>(),
            2 * flits * plan.total_moves() as u64
        );
    }

    #[test]
    fn random_histories_keep_maps_invertible(
        side in 2usize..7,
        schemes in proptest::collection::vec(scheme_strategy(), 1..20),
    ) {
        let mesh = Mesh::square(side).unwrap();
        let mut map = CumulativeMap::identity(mesh);
        for s in &schemes {
            map.apply_scheme(*s);
        }
        for c in mesh.iter_coords() {
            prop_assert_eq!(map.physical_to_logical(map.logical_to_physical(c)), c);
        }
        prop_assert_eq!(map.generation(), schemes.len() as u64);
    }

    #[test]
    fn composed_schemes_commute_with_permutations(
        side in 2usize..7,
        a in scheme_strategy(),
        b in scheme_strategy(),
    ) {
        // Applying a then b through the map equals composing the raw
        // permutations: map is a faithful group action.
        let mesh = Mesh::square(side).unwrap();
        let mut map = CumulativeMap::identity(mesh);
        map.apply_scheme(a);
        map.apply_scheme(b);
        for c in mesh.iter_coords() {
            let direct = b.apply(a.apply(c, mesh), mesh);
            prop_assert_eq!(map.logical_to_physical(c), direct);
        }
    }
}
