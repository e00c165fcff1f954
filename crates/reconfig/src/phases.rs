//! Congestion-free phased migration planning (§2.2 of the paper).
//!
//! "During the migration operation, it is possible to ensure congestion-free
//! packet movement by transforming groups of PEs in phases. This
//! congestion-free operation allows for deterministic migration times,
//! making our technique applicable to real-time systems."
//!
//! The planner decomposes a scheme's moves into phases such that within a
//! phase no two state-transfer streams share a directed mesh link; every
//! stream therefore proceeds at full link bandwidth and the phase duration
//! is exactly `max(path fill) + flits` cycles — deterministic by
//! construction.

use crate::state_transfer::StateSpec;
use crate::transform::MigrationScheme;
use hotnoc_noc::routing::route_path;
use hotnoc_noc::{Coord, Direction, Mesh};
use std::collections::HashSet;

/// One PE's state transfer: its workload moves `from -> to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Current physical tile.
    pub from: Coord,
    /// Destination physical tile (`scheme.apply(from)`).
    pub to: Coord,
    /// Flits of configuration + state carried.
    pub flits: u32,
    /// XY-route hop count.
    pub hops: u32,
}

/// A group of link-disjoint moves executed simultaneously.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// The moves in this phase.
    pub moves: Vec<Move>,
    /// Phase duration in cycles (pipeline fill of the longest path plus the
    /// serialized flit stream, plus the per-phase barrier overhead).
    pub duration_cycles: u64,
    /// Total flit-hops in this phase (energy input).
    pub flit_hops: u64,
}

/// Cost-model constants for phase timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseCostModel {
    /// Cycles per hop of pipeline fill (router + link latency).
    pub cycles_per_hop: u32,
    /// Fixed overhead per phase: halt/drain barrier and the conversion-unit
    /// pass over the configuration stream.
    pub phase_overhead_cycles: u32,
}

impl Default for PhaseCostModel {
    fn default() -> Self {
        PhaseCostModel {
            cycles_per_hop: 2,
            // Halt/drain barrier across all PEs plus the conversion-unit
            // pass over the configuration stream, per phase.
            phase_overhead_cycles: 96,
        }
    }
}

/// A complete, deterministic migration plan for one application of a scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationPlan {
    /// The scheme this plan implements.
    pub scheme: MigrationScheme,
    /// The phases, executed back to back.
    pub phases: Vec<Phase>,
}

impl MigrationPlan {
    /// Plans the migration of every PE under `scheme` on `mesh`.
    ///
    /// Moves are considered in node-id order and greedily packed into the
    /// earliest phase whose directed-link usage they do not conflict with —
    /// deterministic, so repeated calls yield identical plans (a requirement
    /// for the paper's real-time argument).
    ///
    /// # Panics
    ///
    /// Panics for rotation on a non-square mesh.
    pub fn plan(
        mesh: Mesh,
        scheme: MigrationScheme,
        state: &StateSpec,
        cost: &PhaseCostModel,
    ) -> Self {
        let flits = state.flits_per_pe();
        let moves: Vec<Move> = mesh
            .iter_coords()
            .filter_map(|from| {
                let to = scheme.apply(from, mesh);
                (to != from).then(|| Move {
                    from,
                    to,
                    flits,
                    hops: from.manhattan(to),
                })
            })
            .collect();

        // Moves grouped per phase together with the directed links that
        // phase already occupies.
        type PhaseSlot = (Vec<Move>, HashSet<(Coord, Direction)>);
        let mut phases: Vec<PhaseSlot> = Vec::new();
        for mv in moves {
            let links = directed_links(mesh, mv.from, mv.to);
            let slot = phases
                .iter_mut()
                .find(|(_, used)| links.iter().all(|l| !used.contains(l)));
            match slot {
                Some((ms, used)) => {
                    ms.push(mv);
                    used.extend(links);
                }
                None => {
                    let mut used = HashSet::new();
                    used.extend(links);
                    phases.push((vec![mv], used));
                }
            }
        }

        let phases = phases
            .into_iter()
            .map(|(moves, _)| {
                let max_fill = moves
                    .iter()
                    .map(|m| m.hops as u64 * cost.cycles_per_hop as u64)
                    .max()
                    .unwrap_or(0);
                let flit_stream = moves.iter().map(|m| m.flits as u64).max().unwrap_or(0);
                let flit_hops = moves.iter().map(|m| m.flits as u64 * m.hops as u64).sum();
                Phase {
                    moves,
                    duration_cycles: max_fill + flit_stream + cost.phase_overhead_cycles as u64,
                    flit_hops,
                }
            })
            .collect();

        MigrationPlan { scheme, phases }
    }

    /// Total stall time: PEs are halted for the whole plan (§2.1).
    pub fn total_cycles(&self) -> u64 {
        self.phases.iter().map(|p| p.duration_cycles).sum()
    }

    /// Total flit-hops across all phases (the dominant dynamic-energy term).
    pub fn total_flit_hops(&self) -> u64 {
        self.phases.iter().map(|p| p.flit_hops).sum()
    }

    /// Total number of PE moves.
    pub fn total_moves(&self) -> usize {
        self.phases.iter().map(|p| p.moves.len()).sum()
    }

    /// Number of phases.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// The [`hotnoc_obs::TraceEvent::Migration`] record describing one
    /// execution of this plan, priced at `energy_j` joules by the caller's
    /// energy model. Lives here so every consumer (periodic and adaptive
    /// co-simulation) reports migrations with identical cost semantics.
    pub fn trace_event(&self, cycle: u64, energy_j: f64) -> hotnoc_obs::TraceEvent {
        hotnoc_obs::TraceEvent::Migration {
            cycle,
            scheme: self.scheme.to_string(),
            phases: self.num_phases() as u64,
            flit_hops: self.total_flit_hops(),
            stall_cycles: self.total_cycles(),
            energy_j,
        }
    }

    /// Attributes the state-transfer flit-hops to the tiles whose routers
    /// forward them (the upstream tile of every traversed link). This is
    /// the spatial distribution of migration energy: rotation's long
    /// crossing paths concentrate traffic around the mesh centre, which is
    /// part of its energy penalty on centre-hot configurations (§3).
    ///
    /// # Panics
    ///
    /// Panics if a move lies outside `mesh` (cannot happen for plans built
    /// by [`MigrationPlan::plan`] on the same mesh).
    pub fn per_tile_flit_hops(&self, mesh: Mesh) -> Vec<u64> {
        let mut hops = vec![0u64; mesh.len()];
        for phase in &self.phases {
            for mv in &phase.moves {
                for (tile, _) in directed_links(mesh, mv.from, mv.to) {
                    let idx = mesh.node_id(tile).expect("move on mesh").index();
                    hops[idx] += mv.flits as u64;
                }
            }
        }
        hops
    }

    /// Flits handled by each tile's conversion unit and state memories: the
    /// full payload is read and transformed at the source PE and written at
    /// the destination PE (§2.1: "the configuration and state information
    /// of each PE is passed through a conversion unit").
    ///
    /// # Panics
    ///
    /// Panics if a move lies outside `mesh`.
    pub fn per_tile_endpoint_flits(&self, mesh: Mesh) -> Vec<u64> {
        let mut flits = vec![0u64; mesh.len()];
        for phase in &self.phases {
            for mv in &phase.moves {
                let src = mesh.node_id(mv.from).expect("move on mesh").index();
                let dst = mesh.node_id(mv.to).expect("move on mesh").index();
                flits[src] += mv.flits as u64;
                flits[dst] += mv.flits as u64;
            }
        }
        flits
    }
}

/// The directed links of the XY route `from -> to`.
fn directed_links(mesh: Mesh, from: Coord, to: Coord) -> Vec<(Coord, Direction)> {
    let path = route_path(mesh, from, to);
    path.windows(2)
        .map(|w| {
            let dir = if w[1].x > w[0].x {
                Direction::East
            } else if w[1].x < w[0].x {
                Direction::West
            } else if w[1].y > w[0].y {
                Direction::North
            } else {
                Direction::South
            };
            (w[0], dir)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(scheme: MigrationScheme, n: usize) -> MigrationPlan {
        MigrationPlan::plan(
            Mesh::square(n).unwrap(),
            scheme,
            &StateSpec::ldpc_default(),
            &PhaseCostModel::default(),
        )
    }

    #[test]
    fn every_pe_moves_exactly_once_except_fixed_points() {
        for n in [4usize, 5] {
            for s in MigrationScheme::FIGURE1 {
                let p = plan(s, n);
                let mesh = Mesh::square(n).unwrap();
                let fixed = mesh
                    .iter_coords()
                    .filter(|&c| s.apply(c, mesh) == c)
                    .count();
                assert_eq!(p.total_moves(), n * n - fixed, "{s} on {n}x{n}");
                let mut sources: Vec<Coord> = p
                    .phases
                    .iter()
                    .flat_map(|ph| ph.moves.iter().map(|m| m.from))
                    .collect();
                sources.sort_unstable();
                sources.dedup();
                assert_eq!(sources.len(), p.total_moves(), "duplicate source in {s}");
            }
        }
    }

    #[test]
    fn phases_are_link_disjoint() {
        for n in [4usize, 5] {
            let mesh = Mesh::square(n).unwrap();
            for s in MigrationScheme::FIGURE1 {
                let p = plan(s, n);
                for phase in &p.phases {
                    let mut used = HashSet::new();
                    for mv in &phase.moves {
                        for l in directed_links(mesh, mv.from, mv.to) {
                            assert!(used.insert(l), "{s}: link reused within a phase");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn plan_is_deterministic() {
        for s in MigrationScheme::FIGURE1 {
            assert_eq!(plan(s, 5), plan(s, 5));
        }
    }

    #[test]
    fn xy_shift_is_single_phase_and_fast() {
        // X-Y shift routes are mutually link-disjoint on a mesh; the whole
        // migration completes in one phase of ~flits + fill cycles, which at
        // 500 MHz is the ~1.7 us stall behind the paper's 1.6 % penalty.
        let p = plan(MigrationScheme::XYShift, 5);
        assert_eq!(p.num_phases(), 1, "X-Y shift should not conflict");
        let stall_us = p.total_cycles() as f64 / 500.0; // cycles / MHz = us
        assert!((1.0..3.0).contains(&stall_us), "stall {stall_us} us");
    }

    #[test]
    fn rotation_needs_more_phases_than_xy_shift() {
        // Rotation's long crossing paths conflict heavily; the paper observes
        // it has the largest reconfiguration penalty.
        for n in [4usize, 5] {
            let rot = plan(MigrationScheme::Rotation, n);
            let xys = plan(MigrationScheme::XYShift, n);
            assert!(
                rot.num_phases() > xys.num_phases(),
                "{n}x{n}: rot {} phases vs xys {}",
                rot.num_phases(),
                xys.num_phases()
            );
            assert!(rot.total_cycles() > xys.total_cycles());
        }
    }

    #[test]
    fn flit_hops_match_distance_sum() {
        let mesh = Mesh::square(5).unwrap();
        let s = MigrationScheme::XYShift;
        let p = plan(s, 5);
        let flits = StateSpec::ldpc_default().flits_per_pe() as u64;
        let expected: u64 = mesh
            .iter_coords()
            .map(|c| c.manhattan(s.apply(c, mesh)) as u64 * flits)
            .sum();
        assert_eq!(p.total_flit_hops(), expected);
    }

    #[test]
    fn per_tile_flit_hops_sum_to_total() {
        for n in [4usize, 5] {
            let mesh = Mesh::square(n).unwrap();
            for s in MigrationScheme::FIGURE1 {
                let p = plan(s, n);
                let per_tile = p.per_tile_flit_hops(mesh);
                let total: u64 = per_tile.iter().sum();
                assert_eq!(total, p.total_flit_hops(), "{s} on {n}x{n}");
            }
        }
    }

    #[test]
    fn rotation_forwards_more_traffic_per_tile_than_right_shift() {
        // Longer mean moves mean more forwarding work per migration: the
        // energy-relevant difference between schemes (§3's rotation energy
        // penalty). Right shift moves 1 hop; rotation averages 3.2 on 5x5.
        let mesh = Mesh::square(5).unwrap();
        let rot = plan(MigrationScheme::Rotation, 5).per_tile_flit_hops(mesh);
        let rs = plan(MigrationScheme::XTranslation { offset: 1 }, 5).per_tile_flit_hops(mesh);
        assert!(rot.iter().sum::<u64>() > rs.iter().sum::<u64>());
        // The rotation load map inherits the scheme's symmetry: applying
        // the rotation to the map leaves it invariant (the YX-vs-XY route
        // asymmetry cancels over the four-fold orbit).
        let rotated: Vec<u64> = {
            let mut v = vec![0u64; mesh.len()];
            for c in mesh.iter_coords() {
                let src = mesh.node_id(c).unwrap().index();
                let dst = mesh
                    .node_id(MigrationScheme::Rotation.apply(c, mesh))
                    .unwrap()
                    .index();
                v[dst] = rot[src];
            }
            v
        };
        let total: u64 = rot.iter().sum();
        let rotated_total: u64 = rotated.iter().sum();
        assert_eq!(total, rotated_total);
    }

    #[test]
    fn endpoint_flits_cover_both_ends() {
        let mesh = Mesh::square(5).unwrap();
        let p = plan(MigrationScheme::XYShift, 5);
        let endpoints = p.per_tile_endpoint_flits(mesh);
        let flits = StateSpec::ldpc_default().flits_per_pe() as u64;
        // Every tile moves and receives exactly once under X-Y shift.
        assert!(endpoints.iter().all(|&e| e == 2 * flits));
        // Fixed points of a mirror neither send nor receive.
        let xm = plan(MigrationScheme::XMirror, 5);
        let em = xm.per_tile_endpoint_flits(mesh);
        let center_col: Vec<usize> = (0..5)
            .map(|y| mesh.node_id(Coord::new(2, y)).unwrap().index())
            .collect();
        for idx in center_col {
            assert_eq!(em[idx], 0, "fixed point moved state");
        }
    }

    #[test]
    fn durations_are_positive_and_deterministic_sum() {
        let p = plan(MigrationScheme::XYMirror, 4);
        assert!(p.phases.iter().all(|ph| ph.duration_cycles > 0));
        assert_eq!(
            p.total_cycles(),
            p.phases.iter().map(|ph| ph.duration_cycles).sum::<u64>()
        );
    }
}
