//! The migration transformation functions (Table 1 of the paper).
//!
//! All possible relative-position-preserving adjustments of the logical
//! plane decompose into three primitive operations — rotation, mirroring and
//! translational shifting. The paper's Figure 1 evaluates five concrete
//! schemes; all are provided here, plus Y-translation for completeness.

use hotnoc_noc::{Coord, Mesh};
use std::fmt;

/// A migration function: a bijection of the mesh applied at every
/// reconfiguration period.
///
/// Coordinates follow the paper's Table 1 with `N` the mesh side length
/// (square meshes; translations also work on rectangles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MigrationScheme {
    /// 90° rotation: `(X, Y) -> (N-1-Y, X)`.
    Rotation,
    /// X mirroring: `(X, Y) -> (N-1-X, Y)`.
    XMirror,
    /// X-Y mirroring (180° rotation): `(X, Y) -> (N-1-X, N-1-Y)`.
    XYMirror,
    /// X translation by `offset` with wrap-around:
    /// `(X, Y) -> ((X+offset) mod W, Y)`. The paper's "Right Shift" is
    /// `offset = 1`.
    XTranslation {
        /// Shift amount in tiles (taken modulo the mesh width).
        offset: u8,
    },
    /// Y translation by `offset` with wrap-around.
    YTranslation {
        /// Shift amount in tiles (taken modulo the mesh height).
        offset: u8,
    },
    /// Diagonal translation: `(X, Y) -> ((X+1) mod W, (Y+1) mod H)` — the
    /// paper's "X-Y Shift", its best performer on average.
    XYShift,
}

impl MigrationScheme {
    /// The five schemes evaluated in the paper's Figure 1, in figure order:
    /// Rot, X Mirror, X-Y Mirror, Right Shift, X-Y Shift.
    pub const FIGURE1: [MigrationScheme; 5] = [
        MigrationScheme::Rotation,
        MigrationScheme::XMirror,
        MigrationScheme::XYMirror,
        MigrationScheme::XTranslation { offset: 1 },
        MigrationScheme::XYShift,
    ];

    /// `true` if the scheme is defined on `mesh` (rotation needs a square).
    pub fn is_applicable(self, mesh: Mesh) -> bool {
        match self {
            MigrationScheme::Rotation => mesh.width() == mesh.height(),
            _ => true,
        }
    }

    /// Applies the transformation to one coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate lies outside the mesh, or for
    /// [`MigrationScheme::Rotation`] on a non-square mesh.
    pub fn apply(self, c: Coord, mesh: Mesh) -> Coord {
        assert!(mesh.contains(c), "{c} outside {mesh}");
        let w = mesh.width() as u8;
        let h = mesh.height() as u8;
        match self {
            MigrationScheme::Rotation => {
                assert!(
                    self.is_applicable(mesh),
                    "rotation requires a square mesh, got {mesh}"
                );
                Coord::new(w - 1 - c.y, c.x)
            }
            MigrationScheme::XMirror => Coord::new(w - 1 - c.x, c.y),
            MigrationScheme::XYMirror => Coord::new(w - 1 - c.x, h - 1 - c.y),
            MigrationScheme::XTranslation { offset } => Coord::new((c.x + offset % w) % w, c.y),
            MigrationScheme::YTranslation { offset } => Coord::new(c.x, (c.y + offset % h) % h),
            MigrationScheme::XYShift => Coord::new((c.x + 1) % w, (c.y + 1) % h),
        }
    }

    /// Applies the transformation `k` times.
    ///
    /// # Panics
    ///
    /// Same as [`MigrationScheme::apply`].
    pub fn apply_k(self, c: Coord, mesh: Mesh, k: usize) -> Coord {
        let k = k % self.order(mesh);
        (0..k).fold(c, |acc, _| self.apply(acc, mesh))
    }

    /// The group order of the transformation on `mesh`: the smallest
    /// `k > 0` with `scheme^k = identity`.
    ///
    /// # Panics
    ///
    /// Panics for rotation on a non-square mesh.
    pub fn order(self, mesh: Mesh) -> usize {
        let w = mesh.width();
        let h = mesh.height();
        match self {
            MigrationScheme::Rotation => {
                assert!(self.is_applicable(mesh));
                if w == 1 {
                    1
                } else {
                    4
                }
            }
            MigrationScheme::XMirror | MigrationScheme::XYMirror => {
                if w == 1 && h == 1 {
                    1
                } else {
                    2
                }
            }
            MigrationScheme::XTranslation { offset } => {
                let o = (offset as usize) % w;
                if o == 0 {
                    1
                } else {
                    w / gcd(w, o)
                }
            }
            MigrationScheme::YTranslation { offset } => {
                let o = (offset as usize) % h;
                if o == 0 {
                    1
                } else {
                    h / gcd(h, o)
                }
            }
            MigrationScheme::XYShift => lcm(w, h),
        }
    }

    /// The permutation induced on node indices: entry `i` is the node id of
    /// the tile the workload at node `i` moves to.
    ///
    /// # Panics
    ///
    /// Same as [`MigrationScheme::apply`].
    pub fn permutation(self, mesh: Mesh) -> Vec<usize> {
        mesh.iter_coords()
            .map(|c| {
                mesh.node_id(self.apply(c, mesh))
                    .expect("transform stays on mesh")
                    .index()
            })
            .collect()
    }

    /// The Table 1 representation: `(new X, new Y)` as formula strings.
    pub fn table1_row(self) -> (&'static str, &'static str) {
        match self {
            MigrationScheme::Rotation => ("N-1-Y", "X"),
            MigrationScheme::XMirror => ("N-1-X", "Y"),
            MigrationScheme::XYMirror => ("N-1-X", "N-1-Y"),
            MigrationScheme::XTranslation { .. } => ("X + Offset", "Y"),
            MigrationScheme::YTranslation { .. } => ("X", "Y + Offset"),
            MigrationScheme::XYShift => ("X + 1", "Y + 1"),
        }
    }
}

impl fmt::Display for MigrationScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrationScheme::Rotation => write!(f, "Rot"),
            MigrationScheme::XMirror => write!(f, "X Mirror"),
            MigrationScheme::XYMirror => write!(f, "X-Y Mirror"),
            MigrationScheme::XTranslation { offset: 1 } => write!(f, "Right Shift"),
            MigrationScheme::XTranslation { offset } => write!(f, "X Shift({offset})"),
            MigrationScheme::YTranslation { offset } => write!(f, "Y Shift({offset})"),
            MigrationScheme::XYShift => write!(f, "X-Y Shift"),
        }
    }
}

/// Bits per coordinate operand of the migration unit (§2.3), which computes
/// every tile's new {X, Y} from its current one: `ceil(log2(max(W, H)))`,
/// at least 1. For meshes up to 8x8 this is 3 bits, the paper's figure
/// ("only 3-bit operands are required to address up to 64 PEs").
pub fn operand_bits(mesh: Mesh) -> u32 {
    let side = mesh.width().max(mesh.height()) as u32;
    (32 - side.saturating_sub(1).leading_zeros()).max(1)
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meshes() -> Vec<Mesh> {
        vec![Mesh::square(4).unwrap(), Mesh::square(5).unwrap()]
    }

    #[test]
    fn table1_rotation_formula() {
        // Table 1: new X = N-1-Y, new Y = X.
        let mesh = Mesh::square(4).unwrap();
        for c in mesh.iter_coords() {
            let r = MigrationScheme::Rotation.apply(c, mesh);
            assert_eq!(r.x, 3 - c.y);
            assert_eq!(r.y, c.x);
        }
    }

    #[test]
    fn table1_x_mirror_formula() {
        let mesh = Mesh::square(5).unwrap();
        for c in mesh.iter_coords() {
            let r = MigrationScheme::XMirror.apply(c, mesh);
            assert_eq!(r.x, 4 - c.x);
            assert_eq!(r.y, c.y);
        }
    }

    #[test]
    fn table1_x_translation_formula() {
        let mesh = Mesh::square(4).unwrap();
        let t = MigrationScheme::XTranslation { offset: 1 };
        for c in mesh.iter_coords() {
            let r = t.apply(c, mesh);
            assert_eq!(r.x, (c.x + 1) % 4);
            assert_eq!(r.y, c.y);
        }
    }

    #[test]
    fn all_schemes_are_bijections() {
        for mesh in meshes() {
            for s in MigrationScheme::FIGURE1 {
                let perm = s.permutation(mesh);
                let mut seen = vec![false; mesh.len()];
                for &p in &perm {
                    assert!(!seen[p], "{s} not injective on {mesh}");
                    seen[p] = true;
                }
            }
        }
    }

    #[test]
    fn orders_match_definition() {
        let m4 = Mesh::square(4).unwrap();
        let m5 = Mesh::square(5).unwrap();
        assert_eq!(MigrationScheme::Rotation.order(m4), 4);
        assert_eq!(MigrationScheme::XMirror.order(m4), 2);
        assert_eq!(MigrationScheme::XYMirror.order(m5), 2);
        assert_eq!(MigrationScheme::XTranslation { offset: 1 }.order(m4), 4);
        assert_eq!(MigrationScheme::XTranslation { offset: 2 }.order(m4), 2);
        assert_eq!(MigrationScheme::XTranslation { offset: 1 }.order(m5), 5);
        assert_eq!(MigrationScheme::XYShift.order(m4), 4);
        assert_eq!(MigrationScheme::XYShift.order(m5), 5);
    }

    #[test]
    fn order_times_apply_is_identity() {
        for mesh in meshes() {
            for s in MigrationScheme::FIGURE1 {
                let k = s.order(mesh);
                for c in mesh.iter_coords() {
                    let mut cur = c;
                    for _ in 0..k {
                        cur = s.apply(cur, mesh);
                    }
                    assert_eq!(cur, c, "{s}^{k} != id on {mesh}");
                }
            }
        }
    }

    #[test]
    fn rotation_rejects_rectangles() {
        let rect = Mesh::new(4, 2).unwrap();
        assert!(!MigrationScheme::Rotation.is_applicable(rect));
        assert!(MigrationScheme::XYShift.is_applicable(rect));
    }

    #[test]
    #[should_panic(expected = "square mesh")]
    fn rotation_panics_on_rectangle() {
        let rect = Mesh::new(4, 2).unwrap();
        MigrationScheme::Rotation.apply(Coord::new(0, 0), rect);
    }

    #[test]
    fn odd_mesh_center_fixed_by_rotation_and_mirror() {
        // §3: "In the odd-dimensioned test cases, both the rotational and
        // mirroring migration functions ignore the central PE".
        let m5 = Mesh::square(5).unwrap();
        let center = Coord::new(2, 2);
        assert_eq!(MigrationScheme::Rotation.apply(center, m5), center);
        assert_eq!(MigrationScheme::XYMirror.apply(center, m5), center);
        // X mirror fixes the whole centre column.
        assert_eq!(MigrationScheme::XMirror.apply(center, m5), center);
        // X-Y shift moves it.
        assert_ne!(MigrationScheme::XYShift.apply(center, m5), center);
    }

    #[test]
    fn right_shift_preserves_rows() {
        // §3: a hot row stays a hot row under right shifting.
        let m5 = Mesh::square(5).unwrap();
        let t = MigrationScheme::XTranslation { offset: 1 };
        for c in m5.iter_coords() {
            assert_eq!(t.apply(c, m5).y, c.y);
        }
    }

    #[test]
    fn xy_shift_changes_rows_and_columns() {
        let m5 = Mesh::square(5).unwrap();
        for c in m5.iter_coords() {
            let r = MigrationScheme::XYShift.apply(c, m5);
            assert_ne!(r.x, c.x);
            assert_ne!(r.y, c.y);
        }
    }

    #[test]
    fn apply_k_matches_iteration() {
        let m4 = Mesh::square(4).unwrap();
        let s = MigrationScheme::Rotation;
        let c = Coord::new(1, 0);
        assert_eq!(s.apply_k(c, m4, 2), s.apply(s.apply(c, m4), m4));
        assert_eq!(s.apply_k(c, m4, 4), c);
        assert_eq!(s.apply_k(c, m4, 5), s.apply(c, m4));
    }

    #[test]
    fn display_names_match_figure1_legend() {
        let names: Vec<String> = MigrationScheme::FIGURE1
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            names,
            vec!["Rot", "X Mirror", "X-Y Mirror", "Right Shift", "X-Y Shift"]
        );
    }

    #[test]
    fn operand_bits_for_paper_meshes() {
        assert_eq!(operand_bits(Mesh::square(4).unwrap()), 2);
        assert_eq!(operand_bits(Mesh::square(5).unwrap()), 3);
        assert_eq!(operand_bits(Mesh::square(8).unwrap()), 3); // 64 PEs with 3-bit operands (paper)
        assert_eq!(operand_bits(Mesh::square(64).unwrap()), 6);
    }

    #[test]
    fn table1_rows() {
        assert_eq!(MigrationScheme::Rotation.table1_row(), ("N-1-Y", "X"));
        assert_eq!(MigrationScheme::XMirror.table1_row(), ("N-1-X", "Y"));
        assert_eq!(
            MigrationScheme::XTranslation { offset: 3 }.table1_row(),
            ("X + Offset", "Y")
        );
    }
}
