//! LDPC code construction.
//!
//! The paper's chips implement a decoder for a regular LDPC code
//! (Theocharides et al., ISVLSI'05 use structured regular codes). We build
//! (wc, wr)-regular Gallager ensembles: the parity-check matrix is a stack
//! of `wc` strips, the first connecting check `i` to variables
//! `i*wr .. (i+1)*wr`, the others random column permutations of it.

use crate::error::LdpcError;
use crate::matrix::SparseBinMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// An LDPC code: a sparse parity-check matrix with construction metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdpcCode {
    h: SparseBinMatrix,
    wc: usize,
    wr: usize,
}

impl LdpcCode {
    /// Constructs a (wc, wr)-regular Gallager code of block length `n`.
    ///
    /// The number of checks is `m = n * wc / wr`. A few random permutations
    /// are tried per strip to reduce (not necessarily eliminate) 4-cycles.
    ///
    /// # Errors
    ///
    /// Returns [`LdpcError::InvalidCodeParams`] unless `wr` divides `n * wc`
    /// and `n` is a multiple of `wr` with `0 < wc < wr <= n`.
    pub fn gallager(n: usize, wc: usize, wr: usize, seed: u64) -> Result<Self, LdpcError> {
        if wc == 0 || wr == 0 || wc >= wr || wr > n || !n.is_multiple_of(wr) {
            return Err(LdpcError::InvalidCodeParams { n, wc, wr });
        }
        let checks_per_strip = n / wr;
        let m = checks_per_strip * wc;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = SparseBinMatrix::new(m, n);

        for strip in 0..wc {
            // Try a few permutations; keep the one adding fewest 4-cycles.
            let mut best: Option<(usize, Vec<usize>)> = None;
            let attempts = if strip == 0 { 1 } else { 4 };
            for _ in 0..attempts {
                let mut perm: Vec<usize> = (0..n).collect();
                if strip > 0 {
                    perm.shuffle(&mut rng);
                }
                let mut trial = h.clone();
                for check in 0..checks_per_strip {
                    for k in 0..wr {
                        trial.set(strip * checks_per_strip + check, perm[check * wr + k]);
                    }
                }
                let cycles = trial.count_4cycles();
                if best.as_ref().is_none_or(|(c, _)| cycles < *c) {
                    best = Some((cycles, perm));
                }
            }
            let (_, perm) = best.expect("at least one attempt");
            for check in 0..checks_per_strip {
                for k in 0..wr {
                    h.set(strip * checks_per_strip + check, perm[check * wr + k]);
                }
            }
        }

        Ok(LdpcCode { h, wc, wr })
    }

    /// Block length (number of variable nodes).
    pub fn n(&self) -> usize {
        self.h.cols()
    }

    /// Number of parity checks (rows of H; some may be linearly dependent).
    pub fn m(&self) -> usize {
        self.h.rows()
    }

    /// Design rate `1 - m/n` (the true rate is `>=` this when H has
    /// dependent rows).
    pub fn rate(&self) -> f64 {
        1.0 - self.m() as f64 / self.n() as f64
    }

    /// Variable (column) degree of the construction.
    pub fn wc(&self) -> usize {
        self.wc
    }

    /// Check (row) degree of the construction.
    pub fn wr(&self) -> usize {
        self.wr
    }

    /// Number of Tanner-graph edges.
    pub fn edges(&self) -> usize {
        self.h.nnz()
    }

    /// The parity-check matrix.
    pub fn h(&self) -> &SparseBinMatrix {
        &self.h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gallager_is_regular() {
        let code = LdpcCode::gallager(120, 3, 6, 1).unwrap();
        assert_eq!(code.n(), 120);
        assert_eq!(code.m(), 60);
        assert_eq!(code.edges(), 360);
        for c in 0..code.n() {
            assert_eq!(code.h().col(c).len(), 3, "column {c} weight");
        }
        for r in 0..code.m() {
            assert_eq!(code.h().row(r).len(), 6, "row {r} weight");
        }
        assert!((code.rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_word_is_codeword() {
        let code = LdpcCode::gallager(60, 3, 6, 2).unwrap();
        assert!(code.h().syndrome(&[false; 60]).iter().all(|&s| !s));
        // A single flipped bit violates wc checks.
        let mut w = vec![false; 60];
        w[7] = true;
        let syn = code.h().syndrome(&w);
        assert_eq!(syn.iter().filter(|&&s| s).count(), 3);
    }

    #[test]
    fn construction_is_deterministic_per_seed() {
        let a = LdpcCode::gallager(120, 3, 6, 9).unwrap();
        let b = LdpcCode::gallager(120, 3, 6, 9).unwrap();
        let c = LdpcCode::gallager(120, 3, 6, 10).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(LdpcCode::gallager(100, 3, 6, 0).is_err()); // 100 % 6 != 0
        assert!(LdpcCode::gallager(120, 6, 3, 0).is_err()); // wc >= wr
        assert!(LdpcCode::gallager(120, 0, 6, 0).is_err());
        assert!(LdpcCode::gallager(4, 3, 6, 0).is_err()); // wr > n
    }

    #[test]
    fn few_4cycles_in_moderate_code() {
        let code = LdpcCode::gallager(240, 3, 6, 3).unwrap();
        // Not necessarily zero, but far below the dense worst case.
        let cycles = code.h().count_4cycles();
        assert!(cycles < 100, "too many 4-cycles: {cycles}");
    }
}
