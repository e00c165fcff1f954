//! Floorplans: the die as a grid of square blocks.
//!
//! The paper takes floorplans "directly from the layout of our sample
//! chips": a regular grid of functional units of 4.36 mm² each.
//! [`Floorplan::mesh_grid`] builds exactly that.

use crate::error::ThermalError;

/// A die floorplan: a `width x height` grid of square blocks of one area.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    width: usize,
    height: usize,
    /// Block side, metres.
    side: f64,
}

impl Floorplan {
    /// Builds a `width x height` grid of square blocks, each of
    /// `unit_area_m2` (the paper's chips: `mesh_grid(4, 4, 4.36e-6)` and
    /// `mesh_grid(5, 5, 4.36e-6)`).
    ///
    /// Block `(x, y)` has its south-west corner at `(x·side, y·side)` and
    /// index `y·width + x` (row-major), matching the node-id order of
    /// `hotnoc_noc::Mesh`.
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
        Ok(Floorplan {
            width,
            height,
            side: unit_area_m2.sqrt(),
        })
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// `true` if the floorplan has no blocks (unreachable via constructors).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Area of one block in m².
    pub(crate) fn block_area(&self) -> f64 {
        self.side * self.side
    }

    /// Total die area in m², summed block by block.
    pub fn total_area(&self) -> f64 {
        (0..self.len()).map(|_| self.block_area()).sum()
    }

    /// Every pair of grid neighbours `(i, j, shared_edge, centroid_distance)`
    /// with `i < j`, in ascending `(i, j)` order: a block's east neighbour
    /// before its north one. Both lengths, in metres, are computed from the
    /// blocks' corner coordinates as a rectangle overlap and a centroid
    /// distance, not taken as `side`: the lateral conductances' last bits
    /// depend on it.
    pub fn adjacencies(&self) -> Vec<(usize, usize, f64, f64)> {
        let s = self.side;
        let corner = |k: usize| ((k % self.width) as f64 * s, (k / self.width) as f64 * s);
        let distance = |(ax, ay): (f64, f64), (bx, by): (f64, f64)| {
            let (acx, acy, bcx, bcy) = (ax + s / 2.0, ay + s / 2.0, bx + s / 2.0, by + s / 2.0);
            ((acx - bcx).powi(2) + (acy - bcy).powi(2)).sqrt()
        };
        let mut out = Vec::with_capacity(2 * self.len());
        for i in 0..self.len() {
            let (x0, y0) = corner(i);
            if i % self.width + 1 < self.width {
                // East: the edge is the blocks' y-overlap.
                out.push((i, i + 1, (y0 + s) - y0, distance((x0, y0), corner(i + 1))));
            }
            if i / self.width + 1 < self.height {
                // North: the edge is the blocks' x-overlap.
                let j = i + self.width;
                out.push((i, j, (x0 + s) - x0, distance((x0, y0), corner(j))));
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
        // Row-major: block 1 is east of block 0, block 4 north of it.
        let adj = fp.adjacencies();
        assert_eq!((adj[0].0, adj[0].1), (0, 1));
        assert_eq!((adj[1].0, adj[1].1), (0, 4));
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
    fn degenerate_rejected() {
        for area in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = Floorplan::mesh_grid(3, 3, area).unwrap_err();
            assert!(matches!(err, ThermalError::DegenerateBlock { index: 0 }));
        }
        assert_eq!(
            Floorplan::mesh_grid(0, 3, 1.0).unwrap_err(),
            ThermalError::EmptyFloorplan
        );
        assert!(Floorplan::mesh_grid(3, 0, 1.0).is_err());
    }

    #[test]
    fn paper_block_size() {
        // 4.36 mm^2 blocks have ~2.088 mm sides, one side apart.
        let fp = Floorplan::mesh_grid(2, 2, 4.36e-6).unwrap();
        for (_, _, edge, dist) in fp.adjacencies() {
            assert!((edge - 2.088e-3).abs() < 1e-5);
            assert!((dist - edge).abs() < 1e-15);
        }
    }
}
