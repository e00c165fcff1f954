//! Orbit analysis of migration schemes.
//!
//! A migration scheme applied every period walks each workload around a
//! fixed cycle of tiles (its *orbit*). Because the migration period (~100 µs)
//! is much shorter than the die's thermal time constant (milliseconds), the
//! temperature field responds approximately to the *time-averaged* power
//! map — the per-orbit mean. This module computes orbit decompositions and
//! that averaged map; the property relations here are exactly the paper's §3
//! arguments:
//!
//! * rotation/mirroring fix the centre of odd meshes → cannot cool a centre
//!   hotspot (configurations C, D, E);
//! * right-shift orbits stay within a row → cannot dissipate a hot row
//!   ("warm band");
//! * X-Y shift has no fixed points and its orbits visit distinct rows and
//!   columns → best at spreading both kinds of hotspot.

use crate::transform::MigrationScheme;
use hotnoc_noc::{Coord, Mesh};

/// The cycle decomposition of a scheme's permutation on a mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrbitDecomposition {
    mesh: Mesh,
    orbits: Vec<Vec<Coord>>,
}

impl OrbitDecomposition {
    /// Computes the orbits of `scheme` on `mesh`.
    ///
    /// # Panics
    ///
    /// Panics for rotation on a non-square mesh.
    pub fn new(scheme: MigrationScheme, mesh: Mesh) -> Self {
        let mut visited = vec![false; mesh.len()];
        let mut orbits = Vec::new();
        for start in mesh.iter_coords() {
            let idx = mesh.node_id(start).expect("on mesh").index();
            if visited[idx] {
                continue;
            }
            let mut orbit = Vec::new();
            let mut cur = start;
            loop {
                let ci = mesh.node_id(cur).expect("on mesh").index();
                if visited[ci] {
                    break;
                }
                visited[ci] = true;
                orbit.push(cur);
                cur = scheme.apply(cur, mesh);
            }
            orbits.push(orbit);
        }
        OrbitDecomposition { mesh, orbits }
    }

    /// The orbits (each a cyclically ordered list of coordinates).
    pub fn orbits(&self) -> &[Vec<Coord>] {
        &self.orbits
    }

    /// Coordinates the scheme leaves in place.
    pub fn fixed_points(&self) -> Vec<Coord> {
        self.orbits
            .iter()
            .filter(|o| o.len() == 1)
            .map(|o| o[0])
            .collect()
    }

    /// The time-averaged power map under this scheme: every tile's power is
    /// replaced by the mean over its orbit. Total power is conserved.
    ///
    /// # Panics
    ///
    /// Panics if `power.len()` differs from the mesh size.
    pub fn time_averaged_power(&self, power: &[f64]) -> Vec<f64> {
        assert_eq!(power.len(), self.mesh.len(), "power length mismatch");
        let mut out = vec![0.0; power.len()];
        for orbit in &self.orbits {
            let sum: f64 = orbit
                .iter()
                .map(|c| power[self.mesh.node_id(*c).expect("on mesh").index()])
                .sum();
            let mean = sum / orbit.len() as f64;
            for c in orbit {
                out[self.mesh.node_id(*c).expect("on mesh").index()] = mean;
            }
        }
        out
    }

    /// Mean Manhattan distance a workload moves per migration (the raw
    /// distance input to state-transfer energy).
    pub fn mean_move_distance(&self, scheme: MigrationScheme) -> f64 {
        let total: u32 = self
            .mesh
            .iter_coords()
            .map(|c| c.manhattan(scheme.apply(c, self.mesh)))
            .sum();
        total as f64 / self.mesh.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m4() -> Mesh {
        Mesh::square(4).unwrap()
    }
    fn m5() -> Mesh {
        Mesh::square(5).unwrap()
    }

    #[test]
    fn orbits_partition_the_mesh() {
        for mesh in [m4(), m5()] {
            for s in MigrationScheme::FIGURE1 {
                let d = OrbitDecomposition::new(s, mesh);
                let total: usize = d.orbits().iter().map(Vec::len).sum();
                assert_eq!(total, mesh.len(), "{s} orbits don't partition {mesh}");
            }
        }
    }

    #[test]
    fn rotation_on_even_mesh_has_no_fixed_points() {
        let d = OrbitDecomposition::new(MigrationScheme::Rotation, m4());
        assert!(d.fixed_points().is_empty());
        // All orbits are 4-cycles on a 4x4.
        assert!(d.orbits().iter().all(|o| o.len() == 4));
    }

    #[test]
    fn rotation_on_odd_mesh_fixes_center_only() {
        let d = OrbitDecomposition::new(MigrationScheme::Rotation, m5());
        assert_eq!(d.fixed_points(), vec![Coord::new(2, 2)]);
    }

    #[test]
    fn x_mirror_fixes_center_column_on_odd_mesh() {
        let d = OrbitDecomposition::new(MigrationScheme::XMirror, m5());
        let fixed = d.fixed_points();
        assert_eq!(fixed.len(), 5);
        assert!(fixed.iter().all(|c| c.x == 2));
    }

    #[test]
    fn xy_shift_never_fixes_anything() {
        for mesh in [m4(), m5()] {
            let d = OrbitDecomposition::new(MigrationScheme::XYShift, mesh);
            assert!(d.fixed_points().is_empty());
            let longest = d.orbits().iter().map(Vec::len).max();
            assert_eq!(longest, Some(mesh.width()));
        }
    }

    #[test]
    fn right_shift_orbits_stay_in_rows() {
        let d = OrbitDecomposition::new(MigrationScheme::XTranslation { offset: 1 }, m5());
        for orbit in d.orbits() {
            let row = orbit[0].y;
            assert!(orbit.iter().all(|c| c.y == row));
            assert_eq!(orbit.len(), 5);
        }
    }

    #[test]
    fn xy_shift_orbit_visits_distinct_rows() {
        let d = OrbitDecomposition::new(MigrationScheme::XYShift, m5());
        for orbit in d.orbits() {
            let mut rows: Vec<u8> = orbit.iter().map(|c| c.y).collect();
            rows.sort_unstable();
            rows.dedup();
            assert_eq!(rows.len(), orbit.len(), "orbit revisits a row");
        }
    }

    #[test]
    fn averaging_conserves_total_power() {
        let mesh = m5();
        let power: Vec<f64> = (0..mesh.len()).map(|i| i as f64 * 0.1).collect();
        for s in MigrationScheme::FIGURE1 {
            let d = OrbitDecomposition::new(s, mesh);
            let avg = d.time_averaged_power(&power);
            let before: f64 = power.iter().sum();
            let after: f64 = avg.iter().sum();
            assert!((before - after).abs() < 1e-9, "{s} lost power");
        }
    }

    #[test]
    fn averaging_flattens_peaks() {
        let mesh = m4();
        let mut power = vec![1.0; 16];
        power[5] = 10.0;
        for s in MigrationScheme::FIGURE1 {
            let d = OrbitDecomposition::new(s, mesh);
            let avg = d.time_averaged_power(&power);
            let peak_before = power.iter().cloned().fold(f64::MIN, f64::max);
            let peak_after = avg.iter().cloned().fold(f64::MIN, f64::max);
            assert!(peak_after <= peak_before);
        }
    }

    #[test]
    fn hot_row_immune_to_right_shift_but_not_xy_shift() {
        // The paper's "warm band" argument, verified on the averaged map.
        let mesh = m5();
        let mut power = vec![0.5; 25];
        for x in 0..5 {
            power[mesh.node_id(Coord::new(x, 1)).unwrap().index()] = 3.0;
        }
        let rs = OrbitDecomposition::new(MigrationScheme::XTranslation { offset: 1 }, mesh);
        let avg_rs = rs.time_averaged_power(&power);
        // Right shift: row 1 still carries its full power.
        let row1_rs: f64 = (0..5)
            .map(|x| avg_rs[mesh.node_id(Coord::new(x, 1)).unwrap().index()])
            .sum();
        assert!((row1_rs - 15.0).abs() < 1e-9);
        // X-Y shift: row 1's average drops to the chip mean.
        let xys = OrbitDecomposition::new(MigrationScheme::XYShift, mesh);
        let avg_xys = xys.time_averaged_power(&power);
        let row1_xys: f64 = (0..5)
            .map(|x| avg_xys[mesh.node_id(Coord::new(x, 1)).unwrap().index()])
            .sum();
        assert!(row1_xys < 15.0 * 0.5, "X-Y shift failed to spread the band");
    }

    #[test]
    fn center_hotspot_immune_to_rotation_on_odd_mesh() {
        // §3 on configuration E: rotation cannot move a centre hotspot.
        let mesh = m5();
        let mut power = vec![0.5; 25];
        let center = mesh.node_id(Coord::new(2, 2)).unwrap().index();
        power[center] = 5.0;
        let rot = OrbitDecomposition::new(MigrationScheme::Rotation, mesh);
        let avg = rot.time_averaged_power(&power);
        assert!(
            (avg[center] - 5.0).abs() < 1e-12,
            "rotation moved the centre"
        );
        let xys = OrbitDecomposition::new(MigrationScheme::XYShift, mesh);
        let avg2 = xys.time_averaged_power(&power);
        assert!(avg2[center] < 2.0, "X-Y shift left the centre hot");
    }

    #[test]
    fn mean_move_distance_positive_for_non_identity() {
        let mesh = m5();
        for s in MigrationScheme::FIGURE1 {
            let d = OrbitDecomposition::new(s, mesh);
            assert!(d.mean_move_distance(s) > 0.0);
        }
    }
}
