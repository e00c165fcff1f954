//! Property tests for XY routing: minimality, mesh containment and the
//! dimension-order turn invariant under randomized meshes and endpoints.

use hotnoc_noc::routing::{next_hop, route_path};
use hotnoc_noc::{Coord, Direction, Mesh};
use proptest::prelude::*;

fn mesh_and_pair() -> impl Strategy<Value = (Mesh, Coord, Coord)> {
    (2usize..10, 2usize..10).prop_flat_map(|(w, h)| {
        let mesh = Mesh::new(w, h).unwrap();
        (
            Just(mesh),
            (0..w as u8, 0..h as u8).prop_map(|(x, y)| Coord::new(x, y)),
            (0..w as u8, 0..h as u8).prop_map(|(x, y)| Coord::new(x, y)),
        )
    })
}

proptest! {
    // Routing checks are cheap; sample well beyond the vendored default of
    // 64 cases (ROADMAP open item, affordable since the perf refactor).
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn all_algorithms_are_minimal((mesh, src, dst) in mesh_and_pair()) {
        // XY is the one routing algorithm the simulator implements.
        let path = route_path(mesh, src, dst);
        prop_assert_eq!(path.len() as u32, src.manhattan(dst) + 1);
        prop_assert!(path.iter().all(|&c| mesh.contains(c)));
        for w in path.windows(2) {
            prop_assert_eq!(w[0].manhattan(w[1]), 1, "non-unit hop");
        }
    }

    #[test]
    fn x_hops_precede_y_hops((mesh, src, dst) in mesh_and_pair()) {
        // Dimension order: once a Y hop is taken, no X hop may follow —
        // the turn restriction that makes XY deadlock free.
        let path = route_path(mesh, src, dst);
        let mut seen_y = false;
        for w in path.windows(2) {
            if w[1].x != w[0].x {
                prop_assert!(!seen_y, "X hop after a Y hop: {} -> {}", src, dst);
            } else {
                seen_y = true;
            }
        }
    }

    #[test]
    fn local_only_at_destination((mesh, src, dst) in mesh_and_pair()) {
        let mut cur = src;
        let mut steps = 0;
        loop {
            let dir = next_hop(cur, dst);
            if dir == Direction::Local {
                prop_assert_eq!(cur, dst, "ejected early");
                break;
            }
            cur = mesh.neighbor(cur, dir).expect("stays on mesh");
            steps += 1;
            prop_assert!(steps <= mesh.len() * 2, "did not converge");
        }
    }
}
