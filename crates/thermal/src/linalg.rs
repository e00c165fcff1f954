//! The steady-state solver: a dense LU factorization with partial pivoting.
//!
//! The conductance matrix is stored once, in CSR form. The steady state
//! factors a dense working copy of it once and reuses the factor for every
//! right-hand side: simple, exact, and free of a large linear-algebra
//! dependency in a workspace that builds offline from vendored path crates
//! only.

use crate::error::ThermalError;
use crate::sparse::CsrMat;

/// LU factors of a square matrix, reusable for many right-hand sides.
#[derive(Debug, Clone)]
pub struct Lu {
    n: usize,
    /// Combined L (unit diagonal, below) and U (on/above diagonal).
    a: Vec<f64>,
    piv: Vec<usize>,
}

impl Lu {
    /// LU-factorizes `m` with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] if a pivot collapses to
    /// (numerical) zero.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not square.
    pub fn factor(m: &CsrMat) -> Result<Lu, ThermalError> {
        assert_eq!(m.rows(), m.cols(), "LU requires a square matrix");
        let n = m.rows();
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            let (cols, vals) = m.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                a[i * n + j] = v;
            }
        }
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
                // A zero multiplier would subtract a signed zero from each
                // entry, which leaves every finite entry but -0.0 as it is.
                // The conductance matrix holds no -0.0, and the elimination
                // makes none (x - y is -0.0 only when x is), so skipping the
                // row changes no bit.
                if factor == 0.0 {
                    continue;
                }
                for j in (k + 1)..n {
                    a[i * n + j] -= factor * a[k * n + j];
                }
            }
        }
        Ok(Lu { n, a, piv })
    }

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
    use crate::sparse::TripletBuilder;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} != {y} (tol {tol})");
        }
    }

    /// An `n x n` CSR matrix holding every entry of the row-major `data`.
    fn from_rows(n: usize, data: &[f64]) -> CsrMat {
        let mut m = TripletBuilder::new(n, n);
        for (k, &v) in data.iter().enumerate() {
            m.add(k / n, k % n, v);
        }
        m.build()
    }

    #[test]
    fn identity_solve() {
        let mut id = TripletBuilder::new(4, 4);
        for i in 0..4 {
            id.add(i, i, 1.0);
        }
        let lu = Lu::factor(&id.build()).unwrap();
        let b = vec![1.0, -2.0, 3.5, 0.0];
        assert_close(&lu.solve(&b), &b, 1e-14);
    }

    #[test]
    fn known_2x2() {
        // [2 1; 1 3] x = [3; 5] -> x = [4/5, 7/5]
        let m = from_rows(2, &[2.0, 1.0, 1.0, 3.0]);
        let x = Lu::factor(&m).unwrap().solve(&[3.0, 5.0]);
        assert_close(&x, &[0.8, 1.4], 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // Leading zero forces a row swap; the diagonal is not even stored.
        let mut m = TripletBuilder::new(2, 2);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        let x = Lu::factor(&m.build()).unwrap().solve(&[2.0, 3.0]);
        assert_close(&x, &[3.0, 2.0], 1e-14);
    }

    #[test]
    fn singular_detected() {
        let m = from_rows(2, &[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(Lu::factor(&m).unwrap_err(), ThermalError::SingularSystem);
    }

    #[test]
    fn solve_then_matvec_roundtrip_random() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for n in [3usize, 8, 20] {
            let mut data = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    data[i * n + j] = rng.gen_range(-1.0..1.0);
                }
                data[i * n + i] += n as f64; // diagonally dominant => nonsingular
            }
            let m = from_rows(n, &data);
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let b = m.matvec(&xs);
            let got = Lu::factor(&m).unwrap().solve(&b);
            assert_close(&got, &xs, 1e-9);
        }
    }

    /// The dense elimination `Lu::factor` ran before it skipped zero
    /// multipliers: every row below the pivot is updated.
    fn dense_factor(m: &CsrMat) -> (Vec<f64>, Vec<usize>) {
        let n = m.rows();
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            let (cols, vals) = m.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                a[i * n + j] = v;
            }
        }
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut p = k;
            let mut pmax = a[k * n + k].abs();
            for i in (k + 1)..n {
                if a[i * n + k].abs() > pmax {
                    pmax = a[i * n + k].abs();
                    p = i;
                }
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
        (a, piv)
    }

    /// Asserts `Lu::factor(m)` holds the dense elimination's bits.
    fn assert_factor_is_dense_bits(m: &CsrMat, what: &str) -> Vec<usize> {
        let lu = Lu::factor(m).unwrap();
        let (a, piv) = dense_factor(m);
        assert_eq!(lu.piv, piv, "{what}: pivots");
        let differ =
            lu.a.iter()
                .zip(&a)
                .position(|(x, y)| x.to_bits() != y.to_bits());
        assert_eq!(differ, None, "{what}: first differing entry");
        lu.piv
    }

    #[test]
    fn skipping_zero_multipliers_keeps_the_dense_factor_bits() {
        use crate::{Floorplan, PackageConfig, RcNetwork};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let pkg = PackageConfig::date05_defaults();
        let squares = (1..=12).map(|s| (s, s));
        for (w, h) in squares.chain([(1, 7), (2, 5), (3, 9), (12, 4), (7, 11)]) {
            let plan = Floorplan::mesh_grid(w, h, 4.36e-6).unwrap();
            let net = RcNetwork::build(&plan, &pkg).unwrap();
            assert_factor_is_dense_bits(net.conductance_sparse(), &format!("{w}x{h} grid"));
        }
        let mut rng = StdRng::seed_from_u64(5);
        for (case, n) in [6usize, 17, 40, 64].into_iter().enumerate() {
            let mut m = TripletBuilder::new(n, n);
            for i in 0..n {
                let mut off = 0.0;
                for j in (0..n).filter(|&j| j != i) {
                    if rng.gen_range(0.0..1.0) < 0.15 {
                        let v: f64 = rng.gen_range(-1.0..1.0);
                        m.add(i, j, v);
                        off += v.abs();
                    }
                }
                m.add(i, i, off + rng.gen_range(0.5..2.0));
            }
            if case == 0 {
                // Row 1 sits below a smaller pivot in column 0 and must be
                // swapped up: |a10| >= 8 beats a00 (at most 7).
                m.add(1, 0, 9.0);
                m.add(1, 1, 10.0);
            }
            let piv = assert_factor_is_dense_bits(&m.build(), &format!("random {n}x{n}"));
            if case == 0 {
                assert_ne!(piv, (0..n).collect::<Vec<_>>(), "no row swap happened");
            }
        }
    }
}
