//! Deterministic routing and path enumeration.
//!
//! The paper's NoC uses deterministic dimension-order routing; XY routing on
//! a mesh is deadlock free, which keeps the phased migration of §2.2
//! congestion free and deterministic in time.

use crate::topology::{Coord, Direction, Mesh};

/// Dimension-order X-then-Y routing: the output direction a head flit at
/// `cur` destined for `dst` takes. Returns [`Direction::Local`] when
/// `cur == dst`.
pub fn next_hop(cur: Coord, dst: Coord) -> Direction {
    if cur.x < dst.x {
        Direction::East
    } else if cur.x > dst.x {
        Direction::West
    } else if cur.y < dst.y {
        Direction::North
    } else if cur.y > dst.y {
        Direction::South
    } else {
        Direction::Local
    }
}

/// The full sequence of router coordinates a packet visits from `src` to
/// `dst` (inclusive of both) under XY routing.
///
/// Used by the analytic activity model: deterministic routing means link and
/// router traversal counts can be computed without re-running the
/// cycle-accurate simulation for every migration state.
///
/// # Panics
///
/// Panics if `src`/`dst` are outside the mesh.
pub fn route_path(mesh: Mesh, src: Coord, dst: Coord) -> Vec<Coord> {
    assert!(mesh.contains(src), "src {src} outside {mesh}");
    assert!(mesh.contains(dst), "dst {dst} outside {mesh}");
    let mut path = vec![src];
    let mut cur = src;
    while cur != dst {
        cur = mesh
            .neighbor(cur, next_hop(cur, dst))
            .expect("XY routing stays inside the mesh");
        path.push(cur);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xy_goes_x_first() {
        assert_eq!(
            next_hop(Coord::new(0, 0), Coord::new(2, 2)),
            Direction::East
        );
        assert_eq!(
            next_hop(Coord::new(2, 0), Coord::new(2, 2)),
            Direction::North
        );
        assert_eq!(
            next_hop(Coord::new(2, 2), Coord::new(2, 2)),
            Direction::Local
        );
    }

    #[test]
    fn route_path_is_minimal() {
        let mesh = Mesh::square(5).unwrap();
        for src in mesh.iter_coords() {
            for dst in mesh.iter_coords() {
                let path = route_path(mesh, src, dst);
                assert_eq!(path.len() as u32, src.manhattan(dst) + 1);
                assert_eq!(*path.first().unwrap(), src);
                assert_eq!(*path.last().unwrap(), dst);
                for w in path.windows(2) {
                    assert_eq!(w[0].manhattan(w[1]), 1);
                }
            }
        }
    }
}
