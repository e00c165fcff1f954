//! Floorplans: rectangular blocks on the die.
//!
//! The paper takes floorplans "directly from the layout of our sample
//! chips": a regular grid of functional units of 4.36 mm² each.
//! [`Floorplan::mesh_grid`] builds exactly that; arbitrary rectilinear
//! floorplans are supported for non-grid dies.

use crate::error::ThermalError;

/// Geometric tolerance for adjacency tests, in metres (1 nm).
const EPS: f64 = 1e-9;

/// An axis-aligned rectangular floorplan block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Block name (e.g. `pe_2_1`).
    pub name: String,
    /// West edge, metres.
    pub x: f64,
    /// South edge, metres.
    pub y: f64,
    /// Width, metres.
    pub w: f64,
    /// Height, metres.
    pub h: f64,
}

impl Block {
    /// Creates a block.
    pub fn new(name: impl Into<String>, x: f64, y: f64, w: f64, h: f64) -> Self {
        Block {
            name: name.into(),
            x,
            y,
            w,
            h,
        }
    }

    /// Block area in m².
    pub fn area(&self) -> f64 {
        self.w * self.h
    }

    /// Centroid `(x, y)` in metres.
    pub fn centroid(&self) -> (f64, f64) {
        (self.x + self.w / 2.0, self.y + self.h / 2.0)
    }

    /// Length of the edge shared with `other` (0 if not adjacent).
    ///
    /// Two blocks are adjacent when they touch along a segment of positive
    /// length (corner contact does not count).
    pub fn shared_edge(&self, other: &Block) -> f64 {
        let x_overlap = (self.x + self.w).min(other.x + other.w) - self.x.max(other.x);
        let y_overlap = (self.y + self.h).min(other.y + other.h) - self.y.max(other.y);
        let touch_x =
            ((self.x + self.w) - other.x).abs() < EPS || ((other.x + other.w) - self.x).abs() < EPS;
        let touch_y =
            ((self.y + self.h) - other.y).abs() < EPS || ((other.y + other.h) - self.y).abs() < EPS;
        if touch_x && y_overlap > EPS {
            y_overlap
        } else if touch_y && x_overlap > EPS {
            x_overlap
        } else {
            0.0
        }
    }

    /// `true` if the interiors of the two blocks overlap.
    pub fn overlaps(&self, other: &Block) -> bool {
        let x_overlap = (self.x + self.w).min(other.x + other.w) - self.x.max(other.x);
        let y_overlap = (self.y + self.h).min(other.y + other.h) - self.y.max(other.y);
        x_overlap > EPS && y_overlap > EPS
    }
}

/// A die floorplan: a set of non-overlapping blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    blocks: Vec<Block>,
}

impl Floorplan {
    /// Creates a floorplan from blocks, validating geometry.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::EmptyFloorplan`] for an empty block list.
    /// * [`ThermalError::DegenerateBlock`] for non-positive dimensions.
    /// * [`ThermalError::OverlappingBlocks`] if any two blocks overlap.
    pub fn new(blocks: Vec<Block>) -> Result<Self, ThermalError> {
        if blocks.is_empty() {
            return Err(ThermalError::EmptyFloorplan);
        }
        for (i, b) in blocks.iter().enumerate() {
            if !(b.w > 0.0 && b.h > 0.0 && b.w.is_finite() && b.h.is_finite()) {
                return Err(ThermalError::DegenerateBlock { index: i });
            }
        }
        for i in 0..blocks.len() {
            for j in (i + 1)..blocks.len() {
                if blocks[i].overlaps(&blocks[j]) {
                    return Err(ThermalError::OverlappingBlocks { a: i, b: j });
                }
            }
        }
        Ok(Floorplan { blocks })
    }

    /// Builds a `width x height` grid of square blocks, each of
    /// `unit_area_m2` (the paper's chips: `mesh_grid(4, 4, 4.36e-6)` and
    /// `mesh_grid(5, 5, 4.36e-6)`).
    ///
    /// Block `(x, y)` is named `pe_x_y` and indexed row-major, matching the
    /// node-id order of `hotnoc_noc::Mesh`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::EmptyFloorplan`] for zero dimensions or
    /// [`ThermalError::DegenerateBlock`] for a non-positive area.
    pub fn mesh_grid(width: usize, height: usize, unit_area_m2: f64) -> Result<Self, ThermalError> {
        if width == 0 || height == 0 {
            return Err(ThermalError::EmptyFloorplan);
        }
        if !(unit_area_m2 > 0.0 && unit_area_m2.is_finite()) {
            return Err(ThermalError::DegenerateBlock { index: 0 });
        }
        let side = unit_area_m2.sqrt();
        let mut blocks = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                blocks.push(Block::new(
                    format!("pe_{x}_{y}"),
                    x as f64 * side,
                    y as f64 * side,
                    side,
                    side,
                ));
            }
        }
        Floorplan::new(blocks)
    }

    /// The blocks, in index order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` if the floorplan has no blocks (unreachable via constructors).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total die area in m².
    pub fn total_area(&self) -> f64 {
        self.blocks.iter().map(Block::area).sum()
    }

    /// All adjacent block pairs `(i, j, shared_edge_len)` with `i < j`.
    pub fn adjacencies(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::new();
        for i in 0..self.blocks.len() {
            for j in (i + 1)..self.blocks.len() {
                let e = self.blocks[i].shared_edge(&self.blocks[j]);
                if e > 0.0 {
                    out.push((i, j, e));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_right_count_and_area() {
        let fp = Floorplan::mesh_grid(4, 4, 4.36e-6).unwrap();
        assert_eq!(fp.len(), 16);
        assert!((fp.total_area() - 16.0 * 4.36e-6).abs() < 1e-12);
        assert_eq!(fp.blocks()[0].name, "pe_0_0");
        assert_eq!(fp.blocks()[5].name, "pe_1_1"); // row-major
    }

    #[test]
    fn grid_adjacency_count() {
        // 4x4 grid: 2*4*3 = 24 internal edges.
        let fp = Floorplan::mesh_grid(4, 4, 1e-6).unwrap();
        assert_eq!(fp.adjacencies().len(), 24);
        // 5x5 grid: 2*5*4 = 40.
        let fp5 = Floorplan::mesh_grid(5, 5, 1e-6).unwrap();
        assert_eq!(fp5.adjacencies().len(), 40);
    }

    #[test]
    fn shared_edge_values() {
        let a = Block::new("a", 0.0, 0.0, 1.0, 1.0);
        let b = Block::new("b", 1.0, 0.0, 1.0, 1.0);
        let c = Block::new("c", 1.0, 1.0, 1.0, 1.0); // corner contact with a
        let d = Block::new("d", 5.0, 5.0, 1.0, 1.0);
        assert!((a.shared_edge(&b) - 1.0).abs() < 1e-12);
        assert_eq!(a.shared_edge(&c), 0.0);
        assert_eq!(a.shared_edge(&d), 0.0);
        assert_eq!(b.shared_edge(&c), 1.0); // vertical adjacency
    }

    #[test]
    fn overlap_detected() {
        let a = Block::new("a", 0.0, 0.0, 2.0, 2.0);
        let b = Block::new("b", 1.0, 1.0, 2.0, 2.0);
        assert!(a.overlaps(&b));
        assert!(Floorplan::new(vec![a, b]).is_err());
    }

    #[test]
    fn degenerate_rejected() {
        let err = Floorplan::new(vec![Block::new("z", 0.0, 0.0, 0.0, 1.0)]).unwrap_err();
        assert!(matches!(err, ThermalError::DegenerateBlock { index: 0 }));
        assert!(Floorplan::new(vec![]).is_err());
        assert!(Floorplan::mesh_grid(0, 3, 1.0).is_err());
        assert!(Floorplan::mesh_grid(3, 3, -1.0).is_err());
    }

    #[test]
    fn centroid_and_area() {
        let b = Block::new("b", 1.0, 2.0, 3.0, 4.0);
        assert_eq!(b.centroid(), (2.5, 4.0));
        assert_eq!(b.area(), 12.0);
    }

    #[test]
    fn paper_block_size() {
        // 4.36 mm^2 blocks have ~2.088 mm sides.
        let fp = Floorplan::mesh_grid(2, 2, 4.36e-6).unwrap();
        let side = fp.blocks()[0].w;
        assert!((side - 2.088e-3).abs() < 1e-5);
    }
}
