//! Error types for the LDPC crate.

use std::error::Error;
use std::fmt;

/// Errors returned by LDPC construction and mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LdpcError {
    /// Regular-code parameters are inconsistent (`n * wc` must equal
    /// `m * wr` with integral `m`).
    InvalidCodeParams {
        /// Block length requested.
        n: usize,
        /// Column (variable) weight.
        wc: usize,
        /// Row (check) weight.
        wr: usize,
    },
    /// A cluster count that cannot partition the code (zero or more
    /// clusters than nodes).
    InvalidClusterCount {
        /// Requested clusters.
        clusters: usize,
    },
    /// Weighted mapping weights are invalid (wrong length, negative or all
    /// zero).
    InvalidWeights,
}

impl fmt::Display for LdpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdpcError::InvalidCodeParams { n, wc, wr } => {
                write!(f, "invalid regular code parameters n={n}, wc={wc}, wr={wr}")
            }
            LdpcError::InvalidClusterCount { clusters } => {
                write!(f, "cannot partition code into {clusters} clusters")
            }
            LdpcError::InvalidWeights => write!(f, "cluster weights are invalid"),
        }
    }
}

impl Error for LdpcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            LdpcError::InvalidCodeParams {
                n: 10,
                wc: 3,
                wr: 7,
            },
            LdpcError::InvalidClusterCount { clusters: 0 },
            LdpcError::InvalidWeights,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
