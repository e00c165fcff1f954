//! Deterministic routing algorithms and path enumeration.
//!
//! The paper's NoC uses deterministic dimension-order routing; XY routing on
//! a mesh is deadlock free, which keeps the phased migration of §2.2
//! congestion free and deterministic in time.

use crate::topology::{Coord, Direction, Mesh};

/// A deterministic routing algorithm for 2-D meshes.
pub trait Routing {
    /// The output direction a head flit at `cur` destined for `dst` takes.
    /// Returns [`Direction::Local`] when `cur == dst`.
    fn next_hop(&self, cur: Coord, dst: Coord) -> Direction;

    /// Name for reports.
    fn name(&self) -> &'static str;
}

/// Dimension-order X-then-Y routing (deadlock free on meshes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XyRouting;

impl Routing for XyRouting {
    fn next_hop(&self, cur: Coord, dst: Coord) -> Direction {
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

    fn name(&self) -> &'static str {
        "xy"
    }
}

/// Dimension-order Y-then-X routing (also deadlock free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct YxRouting;

impl Routing for YxRouting {
    fn next_hop(&self, cur: Coord, dst: Coord) -> Direction {
        if cur.y < dst.y {
            Direction::North
        } else if cur.y > dst.y {
            Direction::South
        } else if cur.x < dst.x {
            Direction::East
        } else if cur.x > dst.x {
            Direction::West
        } else {
            Direction::Local
        }
    }

    fn name(&self) -> &'static str {
        "yx"
    }
}

/// West-first turn-model routing (Glass & Ni): all westward hops are taken
/// first; the remaining (east/north/south) hops follow a deterministic
/// staircase keyed on the current coordinate's parity, which spreads load
/// over multiple minimal paths while honouring the west-first turn
/// restrictions — deadlock-free without virtual-channel escape paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WestFirstRouting;

impl Routing for WestFirstRouting {
    fn next_hop(&self, cur: Coord, dst: Coord) -> Direction {
        if cur.x > dst.x {
            return Direction::West;
        }
        let need_east = cur.x < dst.x;
        let need_north = cur.y < dst.y;
        let need_south = cur.y > dst.y;
        match (need_east, need_north || need_south) {
            (false, false) => Direction::Local,
            (true, false) => Direction::East,
            (false, true) => {
                if need_north {
                    Direction::North
                } else {
                    Direction::South
                }
            }
            (true, true) => {
                // Staircase: alternate X and Y progress by position parity.
                if (cur.x ^ cur.y) & 1 == 0 {
                    Direction::East
                } else if need_north {
                    Direction::North
                } else {
                    Direction::South
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "west-first"
    }
}

/// Enumerable routing algorithm choice (object-safe alternative to generics
/// for configuration files).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RoutingKind {
    /// X-then-Y dimension order routing.
    #[default]
    Xy,
    /// Y-then-X dimension order routing.
    Yx,
    /// West-first turn-model routing with staircase path diversity.
    WestFirst,
}

impl RoutingKind {
    /// Resolves the enum to a routing implementation.
    pub fn algorithm(self) -> Box<dyn Routing + Send + Sync> {
        match self {
            RoutingKind::Xy => Box::new(XyRouting),
            RoutingKind::Yx => Box::new(YxRouting),
            RoutingKind::WestFirst => Box::new(WestFirstRouting),
        }
    }
}

impl Routing for RoutingKind {
    fn next_hop(&self, cur: Coord, dst: Coord) -> Direction {
        match self {
            RoutingKind::Xy => XyRouting.next_hop(cur, dst),
            RoutingKind::Yx => YxRouting.next_hop(cur, dst),
            RoutingKind::WestFirst => WestFirstRouting.next_hop(cur, dst),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            RoutingKind::Xy => "xy",
            RoutingKind::Yx => "yx",
            RoutingKind::WestFirst => "west-first",
        }
    }
}

/// The full sequence of router coordinates a packet visits from `src` to
/// `dst` (inclusive of both), under `algo`.
///
/// Used by the analytic activity model: deterministic routing means link and
/// router traversal counts can be computed without re-running the
/// cycle-accurate simulation for every migration state.
///
/// # Panics
///
/// Panics if `src`/`dst` are outside the mesh or the algorithm fails to make
/// progress (which would indicate a broken `Routing` impl).
pub fn route_path<R: Routing + ?Sized>(mesh: Mesh, algo: &R, src: Coord, dst: Coord) -> Vec<Coord> {
    assert!(mesh.contains(src), "src {src} outside {mesh}");
    assert!(mesh.contains(dst), "dst {dst} outside {mesh}");
    let mut path = vec![src];
    let mut cur = src;
    let budget = mesh.len() * 2 + 2;
    while cur != dst {
        let dir = algo.next_hop(cur, dst);
        let next = mesh
            .neighbor(cur, dir)
            .expect("routing algorithm stepped off the mesh");
        path.push(next);
        cur = next;
        assert!(path.len() <= budget, "routing algorithm failed to converge");
    }
    path
}

/// Number of link traversals between `src` and `dst` under any minimal
/// routing (the Manhattan distance).
pub fn hop_count(src: Coord, dst: Coord) -> u32 {
    src.manhattan(dst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xy_goes_x_first() {
        let r = XyRouting;
        assert_eq!(
            r.next_hop(Coord::new(0, 0), Coord::new(2, 2)),
            Direction::East
        );
        assert_eq!(
            r.next_hop(Coord::new(2, 0), Coord::new(2, 2)),
            Direction::North
        );
        assert_eq!(
            r.next_hop(Coord::new(2, 2), Coord::new(2, 2)),
            Direction::Local
        );
    }

    #[test]
    fn yx_goes_y_first() {
        let r = YxRouting;
        assert_eq!(
            r.next_hop(Coord::new(0, 0), Coord::new(2, 2)),
            Direction::North
        );
        assert_eq!(
            r.next_hop(Coord::new(0, 2), Coord::new(2, 2)),
            Direction::East
        );
    }

    #[test]
    fn route_path_is_minimal() {
        let mesh = Mesh::square(5).unwrap();
        for src in mesh.iter_coords() {
            for dst in mesh.iter_coords() {
                let path = route_path(mesh, &XyRouting, src, dst);
                assert_eq!(path.len() as u32, src.manhattan(dst) + 1);
                assert_eq!(*path.first().unwrap(), src);
                assert_eq!(*path.last().unwrap(), dst);
                for w in path.windows(2) {
                    assert_eq!(w[0].manhattan(w[1]), 1);
                }
            }
        }
    }

    #[test]
    fn xy_and_yx_same_hops_different_paths() {
        let mesh = Mesh::square(4).unwrap();
        let src = Coord::new(0, 0);
        let dst = Coord::new(3, 3);
        let xy = route_path(mesh, &XyRouting, src, dst);
        let yx = route_path(mesh, &YxRouting, src, dst);
        assert_eq!(xy.len(), yx.len());
        assert_ne!(xy, yx);
    }

    #[test]
    fn routing_kind_dispatch() {
        assert_eq!(RoutingKind::Xy.name(), "xy");
        assert_eq!(RoutingKind::Yx.name(), "yx");
        assert_eq!(RoutingKind::WestFirst.name(), "west-first");
        let algo = RoutingKind::Yx.algorithm();
        assert_eq!(
            algo.next_hop(Coord::new(0, 0), Coord::new(1, 1)),
            Direction::North
        );
    }

    #[test]
    fn west_first_routes_west_as_a_prefix() {
        // Turn-model invariant: once a non-west hop is taken, no west hop
        // may follow.
        let mesh = Mesh::square(6).unwrap();
        for src in mesh.iter_coords() {
            for dst in mesh.iter_coords() {
                let path = route_path(mesh, &WestFirstRouting, src, dst);
                let mut seen_non_west = false;
                for w in path.windows(2) {
                    let went_west = w[1].x < w[0].x;
                    if went_west {
                        assert!(
                            !seen_non_west,
                            "west turn after non-west hop: {src} -> {dst}"
                        );
                    } else {
                        seen_non_west = true;
                    }
                }
            }
        }
    }

    #[test]
    fn west_first_is_minimal() {
        let mesh = Mesh::square(5).unwrap();
        for src in mesh.iter_coords() {
            for dst in mesh.iter_coords() {
                let path = route_path(mesh, &WestFirstRouting, src, dst);
                assert_eq!(path.len() as u32, src.manhattan(dst) + 1);
            }
        }
    }

    #[test]
    fn west_first_diversifies_paths() {
        // Two eastbound flows from adjacent sources should not share every
        // link (the point of the staircase).
        let mesh = Mesh::square(5).unwrap();
        let a = route_path(mesh, &WestFirstRouting, Coord::new(0, 0), Coord::new(4, 4));
        let b = route_path(mesh, &WestFirstRouting, Coord::new(0, 1), Coord::new(4, 4));
        let xy_a = route_path(mesh, &XyRouting, Coord::new(0, 0), Coord::new(4, 4));
        assert_ne!(a, xy_a, "staircase should differ from plain XY");
        assert_ne!(a[1..], b[1..], "adjacent sources should diverge");
    }

    #[test]
    fn west_first_delivers_under_traffic() {
        use crate::config::NocConfig;
        use crate::network::Network;
        use crate::traffic::{TrafficGenerator, TrafficPattern};
        let mesh = Mesh::square(4).unwrap();
        let mut net = Network::try_new(mesh, NocConfig::default(), RoutingKind::WestFirst).unwrap();
        let mut gen = TrafficGenerator::new(mesh, TrafficPattern::UniformRandom, 0.08, 4, 5);
        let (offered, drained) = gen.run(&mut net, 2_000, 200_000);
        assert!(drained, "west-first deadlocked or lost flits");
        assert_eq!(net.stats().packets_delivered, offered);
    }
}
