//! Mesh topology: coordinates, directions and node identifiers.
//!
//! The paper evaluates 4x4 and 5x5 meshes; this module supports any
//! `width x height` mesh up to 64x64 (the migration unit of §2.3 addresses up
//! to 64 PEs with 3-bit-per-dimension operands, and we keep headroom).

use crate::error::NocError;
use std::fmt;

/// Maximum mesh side length supported by the simulator.
pub const MAX_DIM: usize = 64;

/// A tile coordinate in the mesh. `x` grows eastwards, `y` grows northwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Column index (0 = west edge).
    pub x: u8,
    /// Row index (0 = south edge).
    pub y: u8,
}

impl Coord {
    /// Creates a coordinate. No bounds are applied here; bounds are checked
    /// against a concrete [`Mesh`].
    pub const fn new(x: u8, y: u8) -> Self {
        Coord { x, y }
    }

    /// Manhattan distance between two coordinates.
    ///
    /// ```
    /// use hotnoc_noc::Coord;
    /// assert_eq!(Coord::new(0, 0).manhattan(Coord::new(3, 2)), 5);
    /// ```
    pub fn manhattan(self, other: Coord) -> u32 {
        let dx = (self.x as i32 - other.x as i32).unsigned_abs();
        let dy = (self.y as i32 - other.y as i32).unsigned_abs();
        dx + dy
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// One of the five router ports: the four mesh directions plus the local
/// (PE-facing) port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Towards larger `y`.
    North,
    /// Towards larger `x`.
    East,
    /// Towards smaller `y`.
    South,
    /// Towards smaller `x`.
    West,
    /// The local processing-element port.
    Local,
}

impl Direction {
    /// All five port directions, in index order.
    pub const ALL: [Direction; 5] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
        Direction::Local,
    ];

    /// The four mesh-facing directions (everything but `Local`).
    pub const MESH: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// A stable small index for array storage (North=0 .. Local=4).
    pub const fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::East => 1,
            Direction::South => 2,
            Direction::West => 3,
            Direction::Local => 4,
        }
    }

    /// The opposite mesh direction. `Local` is its own opposite.
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
            Direction::Local => Direction::Local,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::East => "E",
            Direction::South => "S",
            Direction::West => "W",
            Direction::Local => "L",
        };
        f.write_str(s)
    }
}

/// Dense identifier of a mesh node (router + attached PE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node id from a raw index.
    pub const fn new(index: u16) -> Self {
        NodeId(index)
    }

    /// The raw index, usable for `Vec` indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

/// A rectangular 2-D mesh.
///
/// `Mesh` is a lightweight value type (two bytes); it is freely copied into
/// routers, traffic generators and placement code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mesh {
    width: u8,
    height: u8,
}

impl Mesh {
    /// Creates a `width x height` mesh.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidMeshDimension`] if either dimension is zero
    /// or larger than [`MAX_DIM`].
    pub fn new(width: usize, height: usize) -> Result<Self, NocError> {
        for dim in [width, height] {
            if dim == 0 || dim > MAX_DIM {
                return Err(NocError::InvalidMeshDimension { dim });
            }
        }
        Ok(Mesh {
            width: width as u8,
            height: height as u8,
        })
    }

    /// Creates a square `n x n` mesh (the paper's 4x4 and 5x5 chips).
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidMeshDimension`] for `n == 0` or `n > 64`.
    pub fn square(n: usize) -> Result<Self, NocError> {
        Mesh::new(n, n)
    }

    /// Mesh width in tiles.
    pub const fn width(self) -> usize {
        self.width as usize
    }

    /// Mesh height in tiles.
    pub const fn height(self) -> usize {
        self.height as usize
    }

    /// Total number of nodes.
    pub const fn len(self) -> usize {
        self.width as usize * self.height as usize
    }

    /// `true` for a degenerate zero-node mesh (cannot be constructed through
    /// the public API, but required by clippy's `len` convention).
    pub const fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Checks that a coordinate is inside the mesh.
    pub fn contains(self, c: Coord) -> bool {
        (c.x as usize) < self.width() && (c.y as usize) < self.height()
    }

    /// Converts a coordinate to its node id.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::CoordOutOfBounds`] if the coordinate lies outside
    /// the mesh.
    pub fn node_id(self, c: Coord) -> Result<NodeId, NocError> {
        if !self.contains(c) {
            return Err(NocError::CoordOutOfBounds {
                coord: c,
                width: self.width,
                height: self.height,
            });
        }
        Ok(NodeId((c.y as u16) * (self.width as u16) + c.x as u16))
    }

    /// Converts `(x, y)` to a node id.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::CoordOutOfBounds`] if outside the mesh.
    pub fn node_id_at(self, x: u8, y: u8) -> Result<NodeId, NocError> {
        self.node_id(Coord::new(x, y))
    }

    /// Converts a node id back to its coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this mesh (ids are created by
    /// [`Mesh::node_id`] so this indicates misuse across meshes).
    pub fn coord(self, id: NodeId) -> Coord {
        let idx = id.index();
        assert!(idx < self.len(), "node id {id} outside mesh");
        Coord::new((idx % self.width()) as u8, (idx / self.width()) as u8)
    }

    /// The neighbouring coordinate in `dir`, or `None` at the mesh edge or for
    /// [`Direction::Local`].
    pub fn neighbor(self, c: Coord, dir: Direction) -> Option<Coord> {
        let (x, y) = (c.x as i32, c.y as i32);
        let (nx, ny) = match dir {
            Direction::North => (x, y + 1),
            Direction::East => (x + 1, y),
            Direction::South => (x, y - 1),
            Direction::West => (x - 1, y),
            Direction::Local => return None,
        };
        if nx < 0 || ny < 0 {
            return None;
        }
        let n = Coord::new(nx as u8, ny as u8);
        self.contains(n).then_some(n)
    }

    /// Iterates over all coordinates in row-major (node-id) order.
    pub fn iter_coords(self) -> impl Iterator<Item = Coord> {
        let (w, h) = (self.width(), self.height());
        (0..h).flat_map(move |y| (0..w).map(move |x| Coord::new(x as u8, y as u8)))
    }

    /// Iterates over all node ids.
    pub fn iter_nodes(self) -> impl Iterator<Item = NodeId> {
        (0..self.len()).map(|i| NodeId(i as u16))
    }
}

impl fmt::Display for Mesh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} mesh", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_construction_bounds() {
        assert!(Mesh::new(0, 4).is_err());
        assert!(Mesh::new(4, 0).is_err());
        assert!(Mesh::new(65, 4).is_err());
        assert!(Mesh::new(64, 64).is_ok());
        assert!(Mesh::square(5).is_ok());
    }

    #[test]
    fn node_id_roundtrip() {
        let mesh = Mesh::new(4, 5).unwrap();
        for c in mesh.iter_coords() {
            let id = mesh.node_id(c).unwrap();
            assert_eq!(mesh.coord(id), c);
        }
        assert_eq!(mesh.iter_coords().count(), 20);
    }

    #[test]
    fn node_ids_are_row_major_and_dense() {
        let mesh = Mesh::square(4).unwrap();
        let ids: Vec<usize> = mesh
            .iter_coords()
            .map(|c| mesh.node_id(c).unwrap().index())
            .collect();
        assert_eq!(ids, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mesh = Mesh::square(4).unwrap();
        let err = mesh.node_id(Coord::new(4, 0)).unwrap_err();
        assert!(matches!(err, NocError::CoordOutOfBounds { .. }));
    }

    #[test]
    fn neighbors_at_edges() {
        let mesh = Mesh::square(3).unwrap();
        let corner = Coord::new(0, 0);
        assert_eq!(mesh.neighbor(corner, Direction::West), None);
        assert_eq!(mesh.neighbor(corner, Direction::South), None);
        assert_eq!(
            mesh.neighbor(corner, Direction::North),
            Some(Coord::new(0, 1))
        );
        assert_eq!(
            mesh.neighbor(corner, Direction::East),
            Some(Coord::new(1, 0))
        );
        assert_eq!(mesh.neighbor(corner, Direction::Local), None);
    }

    #[test]
    fn neighbor_is_symmetric() {
        let mesh = Mesh::new(6, 3).unwrap();
        for c in mesh.iter_coords() {
            for dir in Direction::MESH {
                if let Some(n) = mesh.neighbor(c, dir) {
                    assert_eq!(mesh.neighbor(n, dir.opposite()), Some(c));
                }
            }
        }
    }

    #[test]
    fn direction_indices_unique_and_opposites_involutive() {
        let mut seen = [false; 5];
        for d in Direction::ALL {
            assert!(!seen[d.index()]);
            seen[d.index()] = true;
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(Coord::new(1, 1).manhattan(Coord::new(1, 1)), 0);
        assert_eq!(Coord::new(0, 3).manhattan(Coord::new(3, 0)), 6);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Coord::new(2, 3).to_string(), "(2, 3)");
        assert_eq!(Direction::North.to_string(), "N");
        assert_eq!(NodeId::new(7).to_string(), "n7");
        assert_eq!(Mesh::square(4).unwrap().to_string(), "4x4 mesh");
    }
}
