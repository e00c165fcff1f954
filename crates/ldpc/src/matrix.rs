//! Sparse binary (GF(2)) matrices with row and column adjacency.

/// A sparse binary matrix stored as row and column adjacency lists; the
/// natural representation of an LDPC parity-check matrix (rows = checks,
/// columns = variables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseBinMatrix {
    rows: usize,
    cols: usize,
    row_adj: Vec<Vec<usize>>,
    col_adj: Vec<Vec<usize>>,
}

impl SparseBinMatrix {
    /// Creates an all-zero matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        SparseBinMatrix {
            rows,
            cols,
            row_adj: vec![Vec::new(); rows],
            col_adj: vec![Vec::new(); cols],
        }
    }

    /// Number of rows (checks).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (variables).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets entry `(r, c)` to one. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        if !self.row_adj[r].contains(&c) {
            self.row_adj[r].push(c);
            self.col_adj[c].push(r);
        }
    }

    /// `true` if entry `(r, c)` is one.
    pub fn get(&self, r: usize, c: usize) -> bool {
        self.row_adj.get(r).is_some_and(|row| row.contains(&c))
    }

    /// Columns with a one in row `r` (unsorted insertion order).
    pub fn row(&self, r: usize) -> &[usize] {
        &self.row_adj[r]
    }

    /// Rows with a one in column `c`.
    pub fn col(&self, c: usize) -> &[usize] {
        &self.col_adj[c]
    }

    /// Number of ones.
    pub fn nnz(&self) -> usize {
        self.row_adj.iter().map(Vec::len).sum()
    }

    /// All `(row, col)` entries in row-major order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.row_adj
            .iter()
            .enumerate()
            .flat_map(|(r, cs)| cs.iter().map(move |&c| (r, c)))
    }

    /// Multiplies `H * x` over GF(2) and returns the syndrome bits.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn syndrome(&self, x: &[bool]) -> Vec<bool> {
        assert_eq!(x.len(), self.cols, "vector length mismatch");
        self.row_adj
            .iter()
            .map(|row| row.iter().fold(false, |acc, &c| acc ^ x[c]))
            .collect()
    }

    /// Counts length-4 cycles (pairs of rows sharing 2+ columns). A quality
    /// metric for code construction; zero is ideal, small is fine.
    pub fn count_4cycles(&self) -> usize {
        let mut count = 0;
        for c in 0..self.cols {
            let rows = &self.col_adj[c];
            for (i, &r1) in rows.iter().enumerate() {
                for &r2 in &rows[i + 1..] {
                    // Shared columns between r1 and r2 beyond c.
                    let shared = self.row_adj[r1]
                        .iter()
                        .filter(|&&cc| cc > c && self.row_adj[r2].contains(&cc))
                        .count();
                    count += shared;
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_idempotent() {
        let mut m = SparseBinMatrix::new(3, 4);
        m.set(1, 2);
        m.set(1, 2);
        assert!(m.get(1, 2));
        assert!(!m.get(2, 1));
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.row(1), &[2]);
        assert_eq!(m.col(2), &[1]);
    }

    #[test]
    fn syndrome_xor() {
        // H = [1 1 0; 0 1 1]
        let mut m = SparseBinMatrix::new(2, 3);
        m.set(0, 0);
        m.set(0, 1);
        m.set(1, 1);
        m.set(1, 2);
        assert_eq!(m.syndrome(&[true, true, false]), vec![false, true]);
        assert_eq!(m.syndrome(&[true, true, true]), vec![false, false]);
    }

    #[test]
    fn four_cycle_detection() {
        // Rows 0 and 1 share columns 0 and 1 -> one 4-cycle.
        let mut m = SparseBinMatrix::new(2, 3);
        m.set(0, 0);
        m.set(0, 1);
        m.set(1, 0);
        m.set(1, 1);
        assert_eq!(m.count_4cycles(), 1);
        // Remove the sharing: no cycle.
        let mut m2 = SparseBinMatrix::new(2, 3);
        m2.set(0, 0);
        m2.set(0, 1);
        m2.set(1, 1);
        m2.set(1, 2);
        assert_eq!(m2.count_4cycles(), 0);
    }

    #[test]
    fn entries_iteration() {
        let mut m = SparseBinMatrix::new(2, 2);
        m.set(0, 1);
        m.set(1, 0);
        let e: Vec<(usize, usize)> = m.entries().collect();
        assert_eq!(e, vec![(0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_set_panics() {
        SparseBinMatrix::new(1, 1).set(1, 0);
    }
}
