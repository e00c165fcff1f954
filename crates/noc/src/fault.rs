//! Runtime fault injection: scheduled router/link failure and repair, plus
//! the surround-routing detour tables used while the fabric is degraded.
//!
//! DyNoC (see PAPERS.md) routes packets around mesh regions whose routers
//! are dynamically disabled. This module reproduces that capability as a
//! first-class runtime event: a [`FaultPlan`] schedules router and link
//! enable/disable transitions at exact cycles, and [`FaultState`] tracks the
//! live/dead view of the fabric plus a per-epoch detour routing table.
//!
//! # Surround routing
//!
//! While any component is disabled, route computation switches from plain
//! XY routing to a detour table rebuilt at every fault epoch. The table
//! encodes up*/down* routing
//! (Autonet-style) over the live subgraph: a BFS spanning forest rooted at
//! the lowest live router id orients every live link "up" (towards the
//! root) or "down", and every route climbs zero or more up-links before
//! descending zero or more down-links. Paths under this discipline surround
//! arbitrary disabled regions, reach every destination the live fabric can
//! reach, and — because the channel-dependency graph of up*/down* paths is
//! acyclic — cannot deadlock, even though detours take non-minimal turns
//! that plain XY forbids. The one bit of per-packet routing state (has this
//! head flit started descending?) travels in the head flit itself and is
//! reset at every fault epoch so each packet re-plans against the current
//! fabric.
//!
//! When the last component is repaired the table is dropped and routing
//! falls back to XY, byte-identical to a network that never had a fault
//! plan installed.

use crate::error::NocError;
use crate::topology::{Coord, Direction, Mesh};

/// One scheduled fault transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Disable the router at a coordinate (and every flit through it).
    FailRouter(Coord),
    /// Re-enable a previously failed router (restored to power-on state).
    RepairRouter(Coord),
    /// Disable both directions of the link between two adjacent routers.
    FailLink(Coord, Coord),
    /// Re-enable a previously failed link.
    RepairLink(Coord, Coord),
}

/// A fault transition scheduled at an exact cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the transition applies (before any flit moves).
    pub at: u64,
    /// What fails or recovers.
    pub kind: FaultKind,
}

/// A schedule of router/link failures and repairs.
///
/// Events may be pushed in any order; [`crate::Network::install_fault_plan`]
/// sorts them by cycle (stably, so same-cycle events apply in push order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a router failure at `at`.
    pub fn fail_router(mut self, at: u64, router: Coord) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::FailRouter(router),
        });
        self
    }

    /// Schedules a router repair at `at`.
    pub fn repair_router(mut self, at: u64, router: Coord) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::RepairRouter(router),
        });
        self
    }

    /// Schedules a link failure (both directions) at `at`.
    pub fn fail_link(mut self, at: u64, a: Coord, b: Coord) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::FailLink(a, b),
        });
        self
    }

    /// Schedules a link repair at `at`.
    pub fn repair_link(mut self, at: u64, a: Coord, b: Coord) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::RepairLink(a, b),
        });
        self
    }

    /// Appends an event.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// The scheduled events, in push order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` if no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks every event against `mesh`: coordinates must be in bounds and
    /// link endpoints must be mesh neighbors.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidFaultPlan`] describing the first bad event.
    pub fn validate(&self, mesh: Mesh) -> Result<(), NocError> {
        let side = (mesh.width(), mesh.height());
        let check = |c: Coord| -> Result<(), NocError> {
            if mesh.contains(c) {
                Ok(())
            } else {
                Err(NocError::InvalidFaultPlan {
                    what: format!(
                        "fault plan references router {c} outside the {}x{} mesh",
                        side.0, side.1
                    ),
                })
            }
        };
        for ev in &self.events {
            match ev.kind {
                FaultKind::FailRouter(c) | FaultKind::RepairRouter(c) => check(c)?,
                FaultKind::FailLink(a, b) | FaultKind::RepairLink(a, b) => {
                    check(a)?;
                    check(b)?;
                    if a.manhattan(b) != 1 {
                        return Err(NocError::InvalidFaultPlan {
                            what: format!("fault plan link {a} -- {b} joins non-adjacent routers"),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Detour-table entry marker: no legal path (masked out).
const UNREACHABLE: u8 = 0xFF;
/// Detour-table flag: taking this hop switches the packet to the descending
/// phase of its up*/down* route.
const SWITCH_DOWN: u8 = 0x80;
/// Detour-table direction encoding of [`Direction::Local`].
const LOCAL: u8 = 4;

/// The runtime live/dead view of the fabric plus the current detour tables.
///
/// Owned by [`crate::Network`]; rebuilt (serially, at a cycle boundary)
/// every time a fault event changes the fabric, so the parallel allocation
/// sweep only ever reads it immutably.
#[derive(Debug, Clone)]
pub struct FaultState {
    n: usize,
    router_ok: Vec<bool>,
    /// Per-router, per-mesh-direction link enable bits; both directed views
    /// of one link are kept in sync.
    link_ok: Vec<[bool; 4]>,
    disabled_routers: usize,
    disabled_links: usize,
    /// Phase-0 (may still climb) next-hop per `[dst * n + cur]`: low bits a
    /// direction index (4 = Local), [`SWITCH_DOWN`] flag when the hop starts
    /// the descending phase, [`UNREACHABLE`] when no legal path exists.
    table_up: Vec<u8>,
    /// Phase-1 (descending only) next-hop per `[dst * n + cur]`.
    table_down: Vec<u8>,
    /// BFS level of each live router in the current spanning forest
    /// (`u32::MAX` for dead routers); `(level, id)` is the up*/down* key.
    level: Vec<u32>,
}

impl FaultState {
    /// A fully healthy view of `mesh` (no tables allocated).
    pub fn healthy(mesh: Mesh) -> Self {
        let n = mesh.len();
        FaultState {
            n,
            router_ok: vec![true; n],
            link_ok: vec![[true; 4]; n],
            disabled_routers: 0,
            disabled_links: 0,
            table_up: Vec::new(),
            table_down: Vec::new(),
            level: Vec::new(),
        }
    }

    /// `true` while any router or link is disabled (detour tables live).
    pub fn active(&self) -> bool {
        self.disabled_routers + self.disabled_links > 0
    }

    /// Count of currently disabled routers.
    pub fn disabled_routers(&self) -> usize {
        self.disabled_routers
    }

    /// Count of currently disabled links.
    pub fn disabled_links(&self) -> usize {
        self.disabled_links
    }

    /// Whether the router with node index `r` is enabled.
    pub fn router_enabled(&self, r: usize) -> bool {
        self.router_ok[r]
    }

    /// Whether the directed link leaving router `r` towards mesh direction
    /// `dir` is enabled (the reverse direction always agrees).
    pub fn link_enabled(&self, r: usize, dir: Direction) -> bool {
        self.link_ok[r][dir.index()]
    }

    /// Flips a router's enable bit; returns `true` if the state changed.
    pub(crate) fn set_router(&mut self, r: usize, enabled: bool) -> bool {
        if self.router_ok[r] == enabled {
            return false;
        }
        self.router_ok[r] = enabled;
        if enabled {
            self.disabled_routers -= 1;
        } else {
            self.disabled_routers += 1;
        }
        true
    }

    /// Flips a link's enable bit (both directed views); returns `true` if
    /// the state changed. `r` and `dir` identify one directed view; the
    /// caller guarantees the neighbor exists.
    pub(crate) fn set_link(&mut self, mesh: Mesh, r: usize, dir: Direction, enabled: bool) -> bool {
        let d = dir.index();
        if self.link_ok[r][d] == enabled {
            return false;
        }
        let nb = mesh
            .neighbor(mesh.coord(crate::topology::NodeId::new(r as u16)), dir)
            .expect("link endpoints are mesh neighbors");
        let nb = mesh.node_id(nb).expect("neighbor inside mesh").index();
        self.link_ok[r][d] = enabled;
        self.link_ok[nb][dir.opposite().index()] = enabled;
        if enabled {
            self.disabled_links -= 1;
        } else {
            self.disabled_links += 1;
        }
        true
    }

    /// Whether a legal detour path exists from `cur` to `dst`. Always true
    /// while the fabric is healthy.
    pub fn reachable(&self, cur: usize, dst: usize) -> bool {
        if !self.active() {
            return true;
        }
        self.table_up[dst * self.n + cur] != UNREACHABLE
    }

    /// Whether the live channel `from -> to` descends the current up*/down*
    /// orientation (the key `(level, id)` increases). Always false while the
    /// fabric is healthy or when either endpoint is dead. A packet resting
    /// in the downstream buffer of a descending channel must resume in the
    /// descending phase — that residency constraint is what keeps the
    /// channel-dependency graph acyclic across reconfiguration epochs.
    pub(crate) fn channel_descends(&self, from: usize, to: usize) -> bool {
        if !self.active() || !self.router_ok[from] || !self.router_ok[to] {
            return false;
        }
        (self.level[to], to) > (self.level[from], from)
    }

    /// Whether `dst` is reachable from `cur` by descending moves alone.
    pub(crate) fn down_reachable(&self, cur: usize, dst: usize) -> bool {
        if !self.active() {
            return true;
        }
        self.table_down[dst * self.n + cur] != UNREACHABLE
    }

    /// The detour next hop for a head flit at node `cur` bound for `dst`,
    /// given whether the packet has already started its descending phase.
    /// Returns the direction plus the updated phase, or `None` if `dst` is
    /// unreachable (such packets are purged at fault-application time, so
    /// the allocation sweep never observes this).
    pub fn next_hop(&self, cur: usize, dst: usize, down_phase: bool) -> Option<(Direction, bool)> {
        let entry = if down_phase {
            self.table_down[dst * self.n + cur]
        } else {
            self.table_up[dst * self.n + cur]
        };
        if entry == UNREACHABLE {
            return None;
        }
        let dir_bits = entry & !SWITCH_DOWN;
        let dir = if dir_bits == LOCAL {
            Direction::Local
        } else {
            Direction::MESH[dir_bits as usize]
        };
        Some((dir, down_phase || entry & SWITCH_DOWN != 0))
    }

    /// Walks the detour route from `src` to `dst` as the per-hop lookups
    /// would, returning the visited coordinates (inclusive) or `None` when
    /// unreachable. Exposed for the property-test battery.
    pub fn detour_path(&self, mesh: Mesh, src: Coord, dst: Coord) -> Option<Vec<Coord>> {
        let dst_id = mesh.node_id(dst).expect("dst inside mesh").index();
        let mut cur = src;
        let mut down = false;
        let mut path = vec![src];
        // An up*/down* path visits each (node, phase) state at most once.
        let budget = 2 * self.n + 2;
        loop {
            let cur_id = mesh.node_id(cur).expect("path stays inside mesh").index();
            let (dir, next_down) = self.next_hop(cur_id, dst_id, down)?;
            if dir == Direction::Local {
                return Some(path);
            }
            down = next_down;
            cur = mesh.neighbor(cur, dir).expect("detour stays on the mesh");
            path.push(cur);
            assert!(path.len() <= budget, "detour route failed to converge");
        }
    }

    /// Rebuilds the detour tables for the current fabric (dropping them when
    /// fully healthy). Called once per fault event batch, never during the
    /// allocation sweep.
    pub(crate) fn rebuild(&mut self, mesh: Mesh) {
        if !self.active() {
            self.table_up = Vec::new();
            self.table_down = Vec::new();
            self.level = Vec::new();
            return;
        }
        let n = self.n;
        // Live adjacency: nbr[v][d] = Some(u) iff the link and both routers
        // are enabled.
        let nbr: Vec<[Option<u32>; 4]> = (0..n)
            .map(|v| {
                let c = mesh.coord(crate::topology::NodeId::new(v as u16));
                std::array::from_fn(|d| {
                    if !self.router_ok[v] || !self.link_ok[v][d] {
                        return None;
                    }
                    let dir = Direction::MESH[d];
                    mesh.neighbor(c, dir).and_then(|nc| {
                        let u = mesh.node_id(nc).expect("neighbor inside mesh").index();
                        self.router_ok[u].then_some(u as u32)
                    })
                })
            })
            .collect();

        // BFS spanning forest: one root (the lowest live id) per connected
        // component; key(v) = (level, id) orients every live link.
        const NO_LEVEL: u32 = u32::MAX;
        let mut level = vec![NO_LEVEL; n];
        let mut queue = std::collections::VecDeque::new();
        for root in 0..n {
            if !self.router_ok[root] || level[root] != NO_LEVEL {
                continue;
            }
            level[root] = 0;
            queue.push_back(root);
            while let Some(v) = queue.pop_front() {
                for u in nbr[v].iter().flatten() {
                    let u = *u as usize;
                    if level[u] == NO_LEVEL {
                        level[u] = level[v] + 1;
                        queue.push_back(u);
                    }
                }
            }
        }
        let key = |v: usize| (level[v], v as u32);

        // Live node ids in ascending key order (the up-edge DAG order).
        let mut by_key: Vec<u32> = (0..n as u32)
            .filter(|&v| self.router_ok[v as usize])
            .collect();
        by_key.sort_unstable_by_key(|&v| key(v as usize));

        self.table_up = vec![UNREACHABLE; n * n];
        self.table_down = vec![UNREACHABLE; n * n];
        const INF: u32 = u32::MAX;
        let mut d_down = vec![INF; n];
        let mut d_any = vec![INF; n];
        for &dst in &by_key {
            let dst = dst as usize;
            // Down-only distances to dst: backward BFS along reversed
            // down-edges (u -> w is "down" iff key(w) > key(u)).
            for x in d_down.iter_mut() {
                *x = INF;
            }
            d_down[dst] = 0;
            queue.clear();
            queue.push_back(dst);
            while let Some(w) = queue.pop_front() {
                for u in nbr[w].iter().flatten() {
                    let u = *u as usize;
                    if key(w) > key(u) && d_down[u] == INF {
                        d_down[u] = d_down[w] + 1;
                        queue.push_back(u);
                    }
                }
            }
            // Full up*-then-down* distances: up-edges form a DAG under key
            // order, so one ascending pass relaxes them all.
            d_any.copy_from_slice(&d_down);
            for &v in &by_key {
                let v = v as usize;
                let mut best = d_any[v];
                for u in nbr[v].iter().flatten() {
                    let u = *u as usize;
                    if key(u) < key(v) && d_any[u] != INF {
                        best = best.min(1 + d_any[u]);
                    }
                }
                d_any[v] = best;
            }
            // Next-hop selection: the lowest direction index achieving the
            // remaining distance, switching phase when the chosen hop
            // descends.
            let row = dst * n;
            for &v in &by_key {
                let v = v as usize;
                if v == dst {
                    self.table_up[row + v] = LOCAL;
                    self.table_down[row + v] = LOCAL;
                    continue;
                }
                if d_any[v] != INF {
                    let want = d_any[v] - 1;
                    for (d, u) in nbr[v].iter().enumerate() {
                        let Some(u) = u else { continue };
                        let u = *u as usize;
                        let up = key(u) < key(v);
                        if up && d_any[u] == want {
                            self.table_up[row + v] = d as u8;
                            break;
                        }
                        if !up && d_down[u] == want {
                            self.table_up[row + v] = d as u8 | SWITCH_DOWN;
                            break;
                        }
                    }
                    debug_assert_ne!(self.table_up[row + v], UNREACHABLE);
                }
                if d_down[v] != INF && d_down[v] > 0 {
                    let want = d_down[v] - 1;
                    for (d, u) in nbr[v].iter().enumerate() {
                        let Some(u) = u else { continue };
                        let u = *u as usize;
                        if key(u) > key(v) && d_down[u] == want {
                            self.table_down[row + v] = d as u8;
                            break;
                        }
                    }
                    debug_assert_ne!(self.table_down[row + v], UNREACHABLE);
                }
            }
        }
        self.level = level;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with_faults(
        mesh: Mesh,
        routers: &[Coord],
        links: &[(Coord, Direction)],
    ) -> FaultState {
        let mut s = FaultState::healthy(mesh);
        for &c in routers {
            let id = mesh.node_id(c).unwrap().index();
            assert!(s.set_router(id, false));
        }
        for &(c, dir) in links {
            let id = mesh.node_id(c).unwrap().index();
            assert!(s.set_link(mesh, id, dir, false));
        }
        s.rebuild(mesh);
        s
    }

    #[test]
    fn healthy_state_is_inactive_and_fully_reachable() {
        let mesh = Mesh::square(4).unwrap();
        let s = FaultState::healthy(mesh);
        assert!(!s.active());
        assert!(s.reachable(0, 15));
        assert!(s.router_enabled(7));
        assert!(s.link_enabled(0, Direction::East));
    }

    #[test]
    fn single_dead_router_is_surrounded() {
        let mesh = Mesh::square(5).unwrap();
        let dead = Coord::new(2, 2);
        let s = state_with_faults(mesh, &[dead], &[]);
        assert_eq!(s.disabled_routers(), 1);
        for src in mesh.iter_coords() {
            for dst in mesh.iter_coords() {
                if src == dead || dst == dead {
                    continue;
                }
                let path = s.detour_path(mesh, src, dst).expect("live pairs reachable");
                assert_eq!(path[0], src);
                assert_eq!(*path.last().unwrap(), dst);
                assert!(path.iter().all(|&c| c != dead), "{src}->{dst} crossed dead");
                for w in path.windows(2) {
                    assert_eq!(w[0].manhattan(w[1]), 1);
                }
            }
        }
    }

    #[test]
    fn detours_are_up_down_legal() {
        // Once a path starts descending (key increases) it never climbs
        // again — the invariant that makes the detours deadlock free.
        let mesh = Mesh::square(6).unwrap();
        let s = state_with_faults(
            mesh,
            &[Coord::new(2, 2), Coord::new(3, 2), Coord::new(2, 3)],
            &[(Coord::new(0, 4), Direction::East)],
        );
        for src in mesh.iter_coords() {
            for dst in mesh.iter_coords() {
                let (sid, did) = (
                    mesh.node_id(src).unwrap().index(),
                    mesh.node_id(dst).unwrap().index(),
                );
                if !s.router_enabled(sid) || !s.router_enabled(did) {
                    continue;
                }
                let path = s.detour_path(mesh, src, dst).expect("mesh stays connected");
                let mut cur = sid;
                let mut phase = false;
                for w in path.windows(2) {
                    let next = mesh.node_id(w[1]).unwrap().index();
                    let dir = Direction::MESH
                        .into_iter()
                        .find(|&d| mesh.neighbor(w[0], d) == Some(w[1]))
                        .unwrap();
                    let (got, next_phase) = s.next_hop(cur, did, phase).unwrap();
                    assert_eq!(got, dir);
                    phase = next_phase;
                    cur = next;
                }
                // Phase monotonicity is enforced by next_hop's signature;
                // reaching dst within the walk budget is the assertion.
                assert_eq!(*path.last().unwrap(), dst);
            }
        }
    }

    #[test]
    fn disconnected_corner_is_unreachable_and_masked() {
        // Killing (1,0) and (0,1) isolates corner (0,0).
        let mesh = Mesh::square(4).unwrap();
        let s = state_with_faults(mesh, &[Coord::new(1, 0), Coord::new(0, 1)], &[]);
        let corner = mesh.node_id(Coord::new(0, 0)).unwrap().index();
        let far = mesh.node_id(Coord::new(3, 3)).unwrap().index();
        assert!(!s.reachable(corner, far));
        assert!(!s.reachable(far, corner));
        assert!(s.reachable(corner, corner));
        assert!(s.next_hop(far, corner, false).is_none());
        // The rest of the mesh still routes.
        let a = mesh.node_id(Coord::new(2, 0)).unwrap().index();
        assert!(s.reachable(a, far));
    }

    #[test]
    fn dead_link_is_avoided() {
        let mesh = Mesh::square(4).unwrap();
        let a = Coord::new(1, 1);
        let s = state_with_faults(mesh, &[], &[(a, Direction::East)]);
        assert_eq!(s.disabled_links(), 1);
        assert!(!s.link_enabled(mesh.node_id(a).unwrap().index(), Direction::East));
        // The reverse view agrees.
        let b = mesh.node_id(Coord::new(2, 1)).unwrap().index();
        assert!(!s.link_enabled(b, Direction::West));
        for src in mesh.iter_coords() {
            for dst in mesh.iter_coords() {
                let path = s.detour_path(mesh, src, dst).expect("still connected");
                for w in path.windows(2) {
                    let crosses = (w[0] == a && w[1] == Coord::new(2, 1))
                        || (w[1] == a && w[0] == Coord::new(2, 1));
                    assert!(!crosses, "{src}->{dst} used the dead link");
                }
            }
        }
    }

    #[test]
    fn repair_restores_inactive_state() {
        let mesh = Mesh::square(4).unwrap();
        let mut s = FaultState::healthy(mesh);
        let id = mesh.node_id(Coord::new(1, 1)).unwrap().index();
        assert!(s.set_router(id, false));
        s.rebuild(mesh);
        assert!(s.active());
        assert!(s.set_router(id, true));
        s.rebuild(mesh);
        assert!(!s.active());
        assert!(s.table_up.is_empty(), "healthy state drops its tables");
        // Idempotent flips report no change.
        assert!(!s.set_router(id, true));
    }

    #[test]
    fn repair_before_any_fail_is_accepted_and_a_runtime_no_op() {
        // Pinned semantics: a repair scheduled before (or without) any
        // matching fail event is NOT a plan error. `validate` checks only
        // coordinates and adjacency, so such a plan is accepted, and
        // applying the repair to a live component reports "no change" —
        // the run is byte-identical to one without the event. This keeps
        // plan validation stateless (events may be pushed in any order and
        // are only sorted at install time).
        let mesh = Mesh::square(4).unwrap();
        let plan = FaultPlan::new()
            .repair_router(5, Coord::new(1, 1))
            .repair_link(7, Coord::new(0, 0), Coord::new(1, 0));
        assert!(plan.validate(mesh).is_ok());

        let mut s = FaultState::healthy(mesh);
        let id = mesh.node_id(Coord::new(1, 1)).unwrap().index();
        assert!(
            !s.set_router(id, true),
            "repairing a live router must report no state change"
        );
        let a = mesh.node_id(Coord::new(0, 0)).unwrap().index();
        assert!(
            !s.set_link(mesh, a, Direction::East, true),
            "repairing a live link must report no state change"
        );
        assert!(!s.active(), "no-op repairs must not activate detour tables");
        assert_eq!(s.disabled_routers(), 0);
        assert_eq!(s.disabled_links(), 0);

        // Out-of-bounds coordinates are still rejected, even on repairs.
        let oob = FaultPlan::new().repair_router(5, Coord::new(9, 9));
        assert!(oob.validate(mesh).is_err());
        let nonadj = FaultPlan::new().repair_link(5, Coord::new(0, 0), Coord::new(2, 0));
        assert!(nonadj.validate(mesh).is_err());
    }

    #[test]
    fn plan_validation_catches_bad_events() {
        let mesh = Mesh::square(4).unwrap();
        let ok = FaultPlan::new()
            .fail_router(10, Coord::new(1, 1))
            .fail_link(20, Coord::new(0, 0), Coord::new(1, 0))
            .repair_router(400, Coord::new(1, 1));
        assert!(ok.validate(mesh).is_ok());
        assert_eq!(ok.events().len(), 3);

        let oob = FaultPlan::new().fail_router(5, Coord::new(9, 0));
        let err = oob.validate(mesh).unwrap_err();
        assert!(err.to_string().contains("outside the 4x4 mesh"), "{err}");

        let nonadj = FaultPlan::new().fail_link(5, Coord::new(0, 0), Coord::new(2, 0));
        let err = nonadj.validate(mesh).unwrap_err();
        assert!(err.to_string().contains("non-adjacent"), "{err}");
    }
}
