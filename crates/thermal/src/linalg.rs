//! Minimal dense linear algebra: row-major matrices and LU factorization.
//!
//! The thermal networks built here are small (tens of nodes), so a dense
//! partial-pivoting LU is both simple and fast — and avoids pulling a large
//! linear-algebra dependency into a workspace that builds offline from
//! vendored path crates only.

use crate::error::ThermalError;
use std::fmt;

/// A dense, row-major `n x n` or `n x m` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DMat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMat {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        DMat { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (yi, row) in y.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yi = acc;
        }
        y
    }

    /// LU-factorizes the matrix with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] if a pivot collapses to
    /// (numerical) zero.
    pub fn lu(&self) -> Result<Lu, ThermalError> {
        assert_eq!(self.rows, self.cols, "LU requires a square matrix");
        let n = self.rows;
        let mut a = self.data.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot selection.
            let mut p = k;
            let mut pmax = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax < 1e-300 {
                return Err(ThermalError::SingularSystem);
            }
            if p != k {
                for j in 0..n {
                    a.swap(k * n + j, p * n + j);
                }
                piv.swap(k, p);
            }
            let pivot = a[k * n + k];
            for i in (k + 1)..n {
                let factor = a[i * n + k] / pivot;
                a[i * n + k] = factor;
                for j in (k + 1)..n {
                    a[i * n + j] -= factor * a[k * n + j];
                }
            }
        }
        Ok(Lu { n, a, piv })
    }
}

impl std::ops::Index<(usize, usize)> for DMat {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for DMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.4e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// LU factors of a square matrix, reusable for many right-hand sides.
#[derive(Debug, Clone)]
pub struct Lu {
    n: usize,
    /// Combined L (unit diagonal, below) and U (on/above diagonal).
    a: Vec<f64>,
    piv: Vec<usize>,
}

impl Lu {
    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "dimension mismatch");
        let n = self.n;
        // Apply the row permutation.
        let mut x: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let mut acc = x[i];
            for (l, xj) in self.a[i * n..i * n + i].iter().zip(&x[..i]) {
                acc -= l * xj;
            }
            x[i] = acc;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for (u, xj) in self.a[i * n + i + 1..(i + 1) * n].iter().zip(&x[i + 1..]) {
                acc -= u * xj;
            }
            x[i] = acc / self.a[i * n + i];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} != {y} (tol {tol})");
        }
    }

    #[test]
    fn identity_solve() {
        let lu = DMat::identity(4).lu().unwrap();
        let b = vec![1.0, -2.0, 3.5, 0.0];
        assert_close(&lu.solve(&b), &b, 1e-14);
    }

    #[test]
    fn known_2x2() {
        // [2 1; 1 3] x = [3; 5] -> x = [4/5, 7/5]
        let m = DMat::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = m.lu().unwrap().solve(&[3.0, 5.0]);
        assert_close(&x, &[0.8, 1.4], 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // Leading zero forces a row swap.
        let m = DMat::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = m.lu().unwrap().solve(&[2.0, 3.0]);
        assert_close(&x, &[3.0, 2.0], 1e-14);
    }

    #[test]
    fn singular_detected() {
        let m = DMat::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(m.lu().unwrap_err(), ThermalError::SingularSystem);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = DMat::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_close(&m.matvec(&[1.0, 1.0, 1.0]), &[6.0, 15.0], 1e-14);
    }

    #[test]
    fn solve_then_matvec_roundtrip_random() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for n in [3usize, 8, 20] {
            let mut m = DMat::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    m[(i, j)] = rng.gen_range(-1.0..1.0);
                }
                m[(i, i)] += n as f64; // diagonally dominant => nonsingular
            }
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let b = m.matvec(&xs);
            let got = m.lu().unwrap().solve(&b);
            assert_close(&got, &xs, 1e-9);
        }
    }

    #[test]
    fn display_prints_all_entries() {
        let m = DMat::identity(2);
        let s = m.to_string();
        assert_eq!(s.lines().count(), 2);
    }
}
