//! The cumulative logical↔physical map maintained across migrations.
//!
//! §2.3 of the paper puts a migration unit at the chip's I/O boundary: it
//! translates the destination of every incoming packet and the source of
//! every outgoing one, so that "the migration operation is totally
//! transparent to the outside world". [`CumulativeMap`] is that unit's
//! state. The network carries physical node ids only; the boundary applies
//! [`CumulativeMap::logical_to_physical`] to traffic entering the chip and
//! [`CumulativeMap::physical_to_logical`] to traffic leaving it.

use crate::transform::MigrationScheme;
use hotnoc_noc::{Coord, Mesh};

/// Composition of every migration applied so far: a bijection
/// logical → physical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CumulativeMap {
    mesh: Mesh,
    /// `log2phys[logical node index] = physical node index`.
    log2phys: Vec<u16>,
    /// Inverse map.
    phys2log: Vec<u16>,
    /// Number of migrations composed in.
    generation: u64,
}

impl CumulativeMap {
    /// The identity map for a freshly configured chip.
    pub fn identity(mesh: Mesh) -> Self {
        let ids: Vec<u16> = (0..mesh.len() as u16).collect();
        CumulativeMap {
            mesh,
            log2phys: ids.clone(),
            phys2log: ids,
            generation: 0,
        }
    }

    /// The mesh this map covers.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// How many migrations have been composed in.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Composes one application of `scheme`: every workload currently at
    /// physical tile `p` moves to `scheme.apply(p)`.
    ///
    /// # Panics
    ///
    /// Panics for rotation on a non-square mesh.
    pub fn apply_scheme(&mut self, scheme: MigrationScheme) {
        for phys in self.log2phys.iter_mut() {
            let c = self.mesh.coord(hotnoc_noc::NodeId::new(*phys));
            let moved = scheme.apply(c, self.mesh);
            *phys = self
                .mesh
                .node_id(moved)
                .expect("transform stays on mesh")
                .index() as u16;
        }
        for (l, &p) in self.log2phys.iter().enumerate() {
            self.phys2log[p as usize] = l as u16;
        }
        self.generation += 1;
    }

    /// `true` if the map is currently the identity (e.g. after `order`
    /// applications of a scheme).
    pub fn is_identity(&self) -> bool {
        self.log2phys
            .iter()
            .enumerate()
            .all(|(i, &p)| i == p as usize)
    }

    /// Where the workload logically at `logical` currently physically
    /// lives: the tile a packet addressed to `logical` from outside the
    /// chip must be sent to.
    ///
    /// # Panics
    ///
    /// If `logical` is off the mesh.
    pub fn logical_to_physical(&self, logical: Coord) -> Coord {
        let l = self.mesh.node_id(logical).expect("logical coord on mesh");
        self.mesh
            .coord(hotnoc_noc::NodeId::new(self.log2phys[l.index()]))
    }

    /// Which logical workload currently lives at physical tile `physical`:
    /// the address a packet leaving the chip from `physical` carries.
    ///
    /// # Panics
    ///
    /// If `physical` is off the mesh.
    pub fn physical_to_logical(&self, physical: Coord) -> Coord {
        let p = self.mesh.node_id(physical).expect("physical coord on mesh");
        self.mesh
            .coord(hotnoc_noc::NodeId::new(self.phys2log[p.index()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_map_is_identity() {
        let m = CumulativeMap::identity(Mesh::square(4).unwrap());
        assert!(m.is_identity());
        assert_eq!(m.generation(), 0);
        assert_eq!(m.logical_to_physical(Coord::new(2, 3)), Coord::new(2, 3));
    }

    #[test]
    fn single_application_matches_scheme() {
        let mesh = Mesh::square(5).unwrap();
        let mut m = CumulativeMap::identity(mesh);
        m.apply_scheme(MigrationScheme::Rotation);
        for c in mesh.iter_coords() {
            assert_eq!(
                m.logical_to_physical(c),
                MigrationScheme::Rotation.apply(c, mesh)
            );
        }
        assert_eq!(m.generation(), 1);
    }

    #[test]
    fn composition_over_full_order_returns_identity() {
        for n in [4usize, 5] {
            let mesh = Mesh::square(n).unwrap();
            for s in MigrationScheme::FIGURE1 {
                let mut m = CumulativeMap::identity(mesh);
                for _ in 0..s.order(mesh) {
                    m.apply_scheme(s);
                }
                assert!(m.is_identity(), "{s} did not close after its order");
            }
        }
    }

    #[test]
    fn always_a_bijection() {
        let mesh = Mesh::square(5).unwrap();
        let mut m = CumulativeMap::identity(mesh);
        for s in [
            MigrationScheme::Rotation,
            MigrationScheme::XYShift,
            MigrationScheme::XMirror,
            MigrationScheme::XYShift,
        ] {
            m.apply_scheme(s);
            // Every image on the mesh and inverted by `physical_to_logical`
            // makes `logical_to_physical` one-to-one, and so a bijection.
            for c in mesh.iter_coords() {
                let p = m.logical_to_physical(c);
                assert!(mesh.contains(p), "off the mesh after {s}");
                assert_eq!(m.physical_to_logical(p), c, "broken after {s}");
            }
        }
    }

    #[test]
    fn roundtrip_logical_physical() {
        let mesh = Mesh::square(4).unwrap();
        let mut m = CumulativeMap::identity(mesh);
        m.apply_scheme(MigrationScheme::XYShift);
        m.apply_scheme(MigrationScheme::XYShift);
        for c in mesh.iter_coords() {
            assert_eq!(m.physical_to_logical(m.logical_to_physical(c)), c);
        }
    }
}
