//! Sparse linear algebra for the RC thermal network: CSR matrices, plus
//! the plain Jacobi-preconditioned conjugate-gradient solver that the
//! tests keep as the oracle of the fused backward-Euler step
//! ([`crate::solver::lanes`]).
//!
//! The conductance matrix of an n-block network has ~7 nonzeros per row
//! (lateral neighbours + the vertical stack), so transient stepping through
//! a dense O(n²) solve wastes two orders of magnitude on large floorplans.
//! [`CsrMat::matvec_into`] is O(nnz), and conjugate gradient exploits the
//! matrix being symmetric positive definite (a grounded RC Laplacian, plus
//! the strictly positive `C/dt` diagonal the implicit integrator adds) to
//! solve each step in a handful of warm-started iterations without ever
//! factoring the system.

#[cfg(test)]
use crate::error::ThermalError;

/// A sparse matrix in compressed-sparse-row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMat {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl CsrMat {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The stored value at `(i, j)`, or zero if the entry is structurally
    /// absent.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        match self.col_idx[span.clone()].binary_search(&j) {
            Ok(k) => self.vals[span.start + k],
            Err(_) => 0.0,
        }
    }

    /// Row `i`'s column indices and values, in column order.
    pub(crate) fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[span.clone()], &self.vals[span])
    }

    /// Matrix–vector product `y = self * x` into a caller-owned buffer
    /// (the allocation-free path of the RK4 integrator).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` have the wrong length.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "dimension mismatch");
        assert_eq!(y.len(), self.n_rows, "dimension mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let span = self.row_ptr[i]..self.row_ptr[i + 1];
            let mut acc = 0.0;
            for (&j, &v) in self.col_idx[span.clone()].iter().zip(&self.vals[span]) {
                acc += v * x[j];
            }
            *yi = acc;
        }
    }

    /// Allocating matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// The matrix diagonal (zero where the entry is structurally absent).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n_rows.min(self.n_cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// A copy with `d[i]` added to each diagonal entry — how the implicit
    /// integrator forms `C/dt + G` without touching the off-diagonals.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square, `d` has the wrong length, or a
    /// diagonal entry is structurally absent (cannot happen for a
    /// conductance Laplacian, where every node has self-conductance).
    pub fn with_diagonal_added(&self, d: &[f64]) -> CsrMat {
        assert_eq!(self.n_rows, self.n_cols, "diagonal add requires square");
        assert_eq!(d.len(), self.n_rows, "dimension mismatch");
        let mut out = self.clone();
        for (i, &di) in d.iter().enumerate() {
            let span = out.row_ptr[i]..out.row_ptr[i + 1];
            let k = out.col_idx[span.clone()]
                .binary_search(&i)
                .expect("structural diagonal present");
            out.vals[span.start + k] += di;
        }
        out
    }
}

/// Accumulates `(row, col, value)` triplets and assembles a [`CsrMat`].
/// Duplicate coordinates sum, so conductances can be stamped the same way
/// the dense builder did.
#[derive(Debug, Clone)]
pub struct TripletBuilder {
    n_rows: usize,
    n_cols: usize,
    triplets: Vec<(u32, u32, f64)>,
}

impl TripletBuilder {
    /// Creates an empty builder for an `n_rows x n_cols` matrix.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        TripletBuilder {
            n_rows,
            n_cols,
            triplets: Vec::new(),
        }
    }

    /// Adds `v` at `(i, j)` (summing with anything already stamped there).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.n_rows && j < self.n_cols, "triplet out of range");
        self.triplets.push((i as u32, j as u32, v));
    }

    /// Stamps a two-terminal conductance between nodes `i` and `j`: the
    /// standard RC-network Laplacian pattern (+g on both diagonals, -g on
    /// both off-diagonals).
    pub fn add_conductance(&mut self, i: usize, j: usize, g: f64) {
        self.add(i, j, -g);
        self.add(j, i, -g);
        self.add(i, i, g);
        self.add(j, j, g);
    }

    /// Assembles the CSR matrix, summing duplicate triplets.
    pub fn build(mut self) -> CsrMat {
        self.triplets.sort_unstable_by_key(|&(i, j, _)| (i, j));
        let mut row_ptr = Vec::with_capacity(self.n_rows + 1);
        let mut col_idx: Vec<usize> = Vec::with_capacity(self.triplets.len());
        let mut vals: Vec<f64> = Vec::with_capacity(self.triplets.len());
        row_ptr.push(0);
        let mut cur_row = 0usize;
        let mut last: Option<(u32, u32)> = None;
        for &(i, j, v) in &self.triplets {
            if last == Some((i, j)) {
                *vals.last_mut().expect("duplicate follows an entry") += v;
                continue;
            }
            while cur_row < i as usize {
                row_ptr.push(col_idx.len());
                cur_row += 1;
            }
            col_idx.push(j as usize);
            vals.push(v);
            last = Some((i, j));
        }
        while cur_row < self.n_rows {
            row_ptr.push(col_idx.len());
            cur_row += 1;
        }
        CsrMat {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            row_ptr,
            col_idx,
            vals,
        }
    }
}

/// Jacobi-preconditioned conjugate gradient over a [`CsrMat`], with scratch
/// buffers owned by the solver so repeated solves allocate nothing. The
/// product steps through the fused kernel in [`crate::solver::lanes`]; this
/// unfused solver is its test oracle, the sequence the kernel must match
/// bit for bit.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct CgSolver {
    inv_diag: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    q: Vec<f64>,
    max_iters: usize,
    rel_tol: f64,
}

#[cfg(test)]
impl CgSolver {
    /// Prepares a solver for systems shaped like `a` (square, SPD, with a
    /// strictly positive diagonal).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] if any diagonal entry is
    /// non-positive (the matrix cannot be SPD).
    pub(crate) fn new(a: &CsrMat) -> Result<Self, ThermalError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(ThermalError::SingularSystem);
        }
        let diag = a.diagonal();
        if diag.iter().any(|&d| d <= 0.0 || !d.is_finite()) {
            return Err(ThermalError::SingularSystem);
        }
        Ok(CgSolver {
            inv_diag: diag.iter().map(|d| 1.0 / d).collect(),
            r: vec![0.0; n],
            z: vec![0.0; n],
            p: vec![0.0; n],
            q: vec![0.0; n],
            max_iters: 10 * n + 100,
            rel_tol: 1e-12,
        })
    }

    /// Solves `a x = b`, refining the initial guess already in `x` (warm
    /// start). Returns the number of iterations used.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::NotConverged`] if the residual has not
    /// dropped below the relative tolerance within the iteration budget.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `x` do not match the solver dimension.
    pub(crate) fn solve(
        &mut self,
        a: &CsrMat,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<usize, ThermalError> {
        let n = self.r.len();
        assert_eq!(b.len(), n, "dimension mismatch");
        assert_eq!(x.len(), n, "dimension mismatch");

        let b_norm2: f64 = b.iter().map(|v| v * v).sum();
        if b_norm2 == 0.0 {
            x.fill(0.0);
            return Ok(0);
        }
        let tol2 = self.rel_tol * self.rel_tol * b_norm2;

        // r = b - A x
        a.matvec_into(x, &mut self.r);
        for (ri, bi) in self.r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        let mut r_norm2: f64 = self.r.iter().map(|v| v * v).sum();
        if r_norm2 <= tol2 {
            return Ok(0);
        }

        // z = M^-1 r ; p = z
        for ((zi, ri), inv) in self.z.iter_mut().zip(&self.r).zip(&self.inv_diag) {
            *zi = ri * inv;
        }
        self.p.copy_from_slice(&self.z);
        let mut rz: f64 = self.r.iter().zip(&self.z).map(|(r, z)| r * z).sum();

        for iter in 1..=self.max_iters {
            a.matvec_into(&self.p, &mut self.q);
            let pq: f64 = self.p.iter().zip(&self.q).map(|(p, q)| p * q).sum();
            if pq <= 0.0 || !pq.is_finite() {
                // Not positive definite along p (numerical breakdown).
                return Err(ThermalError::NotConverged { iters: iter });
            }
            let alpha = rz / pq;
            for (xi, pi) in x.iter_mut().zip(&self.p) {
                *xi += alpha * pi;
            }
            for (ri, qi) in self.r.iter_mut().zip(&self.q) {
                *ri -= alpha * qi;
            }
            r_norm2 = self.r.iter().map(|v| v * v).sum();
            if r_norm2 <= tol2 {
                return Ok(iter);
            }
            for ((zi, ri), inv) in self.z.iter_mut().zip(&self.r).zip(&self.inv_diag) {
                *zi = ri * inv;
            }
            let rz_next: f64 = self.r.iter().zip(&self.z).map(|(r, z)| r * z).sum();
            let beta = rz_next / rz;
            rz = rz_next;
            for (pi, zi) in self.p.iter_mut().zip(&self.z) {
                *pi = zi + beta * *pi;
            }
        }
        Err(ThermalError::NotConverged {
            iters: self.max_iters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian_path(n: usize) -> CsrMat {
        // Path graph Laplacian + 1.0 ground at node 0: SPD, tridiagonal.
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n - 1 {
            b.add_conductance(i, i + 1, 1.0 + i as f64 * 0.1);
        }
        b.add(0, 0, 1.0);
        b.build()
    }

    #[test]
    fn builder_sums_duplicates_and_orders_columns() {
        let mut b = TripletBuilder::new(3, 3);
        b.add(1, 2, 4.0);
        b.add(1, 0, 1.0);
        b.add(1, 2, -1.5);
        b.add(0, 0, 2.0);
        let m = b.build();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(1, 2), 2.5);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(2, 2), 0.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut b = TripletBuilder::new(4, 4);
        b.add(0, 0, 1.0);
        b.add(3, 3, 2.0);
        let m = b.build();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0, 1.0]), vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn conductance_stamp_is_symmetric_laplacian() {
        let mut b = TripletBuilder::new(3, 3);
        b.add_conductance(0, 1, 2.0);
        b.add_conductance(1, 2, 3.0);
        let m = b.build();
        // Row sums vanish (Laplacian), matrix symmetric.
        for i in 0..3 {
            let sum: f64 = (0..3).map(|j| m.get(i, j)).sum();
            assert!(sum.abs() < 1e-14);
            for j in 0..3 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn with_diagonal_added_only_touches_diagonal() {
        let m = laplacian_path(5);
        let d = vec![10.0; 5];
        let md = m.with_diagonal_added(&d);
        for i in 0..5 {
            for j in 0..5 {
                let expect = m.get(i, j) + if i == j { 10.0 } else { 0.0 };
                assert!((md.get(i, j) - expect).abs() < 1e-14);
            }
        }
        assert_eq!(md.nnz(), m.nnz());
    }

    #[test]
    fn cg_solves_spd_system_cold_and_warm() {
        let m = laplacian_path(20);
        let x_true: Vec<f64> = (0..20).map(|i| (i as f64 * 0.3).cos() * 5.0).collect();
        let b = m.matvec(&x_true);
        let mut solver = CgSolver::new(&m).unwrap();

        let mut x = vec![0.0; 20];
        let iters_cold = solver.solve(&m, &b, &mut x).unwrap();
        for (a, e) in x.iter().zip(&x_true) {
            assert!((a - e).abs() < 1e-7, "{a} != {e}");
        }

        // Warm start from the solution: must converge (almost) instantly.
        let iters_warm = solver.solve(&m, &b, &mut x).unwrap();
        assert!(iters_warm <= 1, "warm start took {iters_warm} iters");
        assert!(iters_cold >= iters_warm);
    }

    #[test]
    fn cg_zero_rhs_gives_zero() {
        let m = laplacian_path(6);
        let mut solver = CgSolver::new(&m).unwrap();
        let mut x = vec![3.0; 6];
        let iters = solver.solve(&m, &[0.0; 6], &mut x).unwrap();
        assert_eq!(iters, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cg_rejects_non_positive_diagonal() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(1, 1, -1.0);
        assert_eq!(
            CgSolver::new(&b.build()).unwrap_err(),
            ThermalError::SingularSystem
        );
        // Missing diagonal is equally rejected.
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(0, 1, 0.5);
        assert!(CgSolver::new(&b.build()).is_err());
    }

    #[test]
    fn cg_matches_dense_lu() {
        let m = laplacian_path(30);
        let b: Vec<f64> = (0..30).map(|i| (i % 7) as f64 - 3.0).collect();
        let lu = crate::linalg::Lu::factor(&m).unwrap();
        let expect = lu.solve(&b);
        let mut x = vec![0.0; 30];
        CgSolver::new(&m).unwrap().solve(&m, &b, &mut x).unwrap();
        for (a, e) in x.iter().zip(&expect) {
            assert!((a - e).abs() < 1e-7, "{a} != {e}");
        }
    }
}
