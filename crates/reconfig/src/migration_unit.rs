//! Hardware model of the migration unit (§2.3 of the paper).
//!
//! The migration unit computes, for each PE, the destination of its workload
//! from the current {X, Y} position. The paper notes that "only 3-bit
//! operands are required to address up to 64 PEs, resulting in fast
//! operation", that the unit is "small, fast, and low power", and that "the
//! same migration unit can perform all migration functions presented with
//! only minor changes to the mathematical operations, allowing dynamic
//! alteration of the migration function at runtime".

use crate::transform::MigrationScheme;
use hotnoc_noc::{Coord, Mesh};

/// The migration unit: a tiny arithmetic block computing the transformation
/// functions, plus its cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationUnit {
    mesh: Mesh,
    scheme: MigrationScheme,
    /// Latency of one address transformation, in cycles.
    pub latency_cycles: u32,
    /// Energy of one address transformation, in joules.
    pub energy_per_op: f64,
    /// Transformations performed (for energy accounting).
    ops: u64,
}

impl MigrationUnit {
    /// Creates a unit for `mesh`, initially configured with `scheme`.
    ///
    /// The default cost model: a single-cycle datapath (two small adders and
    /// muxes over 3-bit operands) at ~0.5 pJ per transform in 160 nm.
    ///
    /// # Panics
    ///
    /// Panics if `scheme` is not applicable to `mesh` (rotation on a
    /// rectangle).
    pub fn new(mesh: Mesh, scheme: MigrationScheme) -> Self {
        assert!(
            scheme.is_applicable(mesh),
            "{scheme} not applicable to {mesh}"
        );
        MigrationUnit {
            mesh,
            scheme,
            latency_cycles: 1,
            energy_per_op: 0.5e-12,
            ops: 0,
        }
    }

    /// Bits per coordinate operand: `ceil(log2(max(W, H)))`, at least 1.
    /// For meshes up to 8x8 this is 3 bits, the paper's figure ("3-bit
    /// operands ... to address up to 64 PEs").
    pub fn operand_bits(&self) -> u32 {
        let side = self.mesh.width().max(self.mesh.height()) as u32;
        (32 - side.saturating_sub(1).leading_zeros()).max(1)
    }

    /// The currently configured migration function.
    pub fn scheme(&self) -> MigrationScheme {
        self.scheme
    }

    /// Reconfigures the migration function at runtime (§2.3: "dynamic
    /// alteration of the migration function at runtime").
    ///
    /// # Panics
    ///
    /// Panics if the new scheme is not applicable to the mesh.
    pub fn set_scheme(&mut self, scheme: MigrationScheme) {
        assert!(
            scheme.is_applicable(self.mesh),
            "{scheme} not applicable to {}",
            self.mesh
        );
        self.scheme = scheme;
    }

    /// Transforms one position, counting the operation.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the mesh.
    pub fn transform(&mut self, c: Coord) -> Coord {
        self.ops += 1;
        self.scheme.apply(c, self.mesh)
    }

    /// Transformations performed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total energy consumed by address transformations, in joules.
    pub fn total_energy(&self) -> f64 {
        self.ops as f64 * self.energy_per_op
    }

    /// Cycles to transform the whole chip's worth of addresses serially
    /// (one conversion unit shared by all PEs, as in §2.1).
    pub fn full_remap_latency(&self) -> u64 {
        self.mesh.len() as u64 * self.latency_cycles as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_bits_for_paper_meshes() {
        let u4 = MigrationUnit::new(Mesh::square(4).unwrap(), MigrationScheme::Rotation);
        assert_eq!(u4.operand_bits(), 2);
        let u5 = MigrationUnit::new(Mesh::square(5).unwrap(), MigrationScheme::Rotation);
        assert_eq!(u5.operand_bits(), 3);
        let u8m = MigrationUnit::new(Mesh::square(8).unwrap(), MigrationScheme::Rotation);
        assert_eq!(u8m.operand_bits(), 3); // 64 PEs with 3-bit operands (paper)
        let u64m = MigrationUnit::new(Mesh::square(64).unwrap(), MigrationScheme::XYShift);
        assert_eq!(u64m.operand_bits(), 6);
    }

    #[test]
    fn transform_counts_energy() {
        let mut u = MigrationUnit::new(Mesh::square(4).unwrap(), MigrationScheme::XYShift);
        let out = u.transform(Coord::new(3, 3));
        assert_eq!(out, Coord::new(0, 0));
        assert_eq!(u.ops(), 1);
        assert!((u.total_energy() - 0.5e-12).abs() < 1e-24);
    }

    #[test]
    fn runtime_scheme_switch() {
        let mut u = MigrationUnit::new(Mesh::square(5).unwrap(), MigrationScheme::Rotation);
        assert_eq!(u.scheme(), MigrationScheme::Rotation);
        u.set_scheme(MigrationScheme::XYShift);
        assert_eq!(u.scheme(), MigrationScheme::XYShift);
        assert_eq!(u.transform(Coord::new(4, 4)), Coord::new(0, 0));
    }

    #[test]
    #[should_panic(expected = "not applicable")]
    fn rotation_on_rectangle_rejected() {
        MigrationUnit::new(Mesh::new(4, 2).unwrap(), MigrationScheme::Rotation);
    }

    #[test]
    fn full_remap_latency_scales_with_mesh() {
        let u = MigrationUnit::new(Mesh::square(5).unwrap(), MigrationScheme::XMirror);
        assert_eq!(u.full_remap_latency(), 25);
    }
}
