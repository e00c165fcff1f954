//! Error types for the thermal simulator.

use std::error::Error;
use std::fmt;

/// Errors returned by the thermal simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ThermalError {
    /// A floorplan block has a non-positive dimension.
    DegenerateBlock {
        /// Index of the offending block.
        index: usize,
    },
    /// The floorplan has no blocks.
    EmptyFloorplan,
    /// A power vector's length does not match the number of blocks.
    PowerLengthMismatch {
        /// Blocks in the model.
        expected: usize,
        /// Entries supplied.
        got: usize,
    },
    /// The system matrix is singular (disconnected or degenerate network).
    SingularSystem,
    /// A package parameter is non-physical (zero/negative/NaN).
    InvalidPackage {
        /// Which parameter failed validation.
        what: &'static str,
    },
    /// A solver step parameter is invalid (e.g. non-positive time step).
    InvalidStep {
        /// Description of the problem.
        what: &'static str,
    },
    /// The iterative solver failed to reach its tolerance (numerical
    /// breakdown or an iteration budget exhausted).
    NotConverged {
        /// Iterations performed before giving up.
        iters: usize,
    },
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::DegenerateBlock { index } => {
                write!(f, "floorplan block {index} has non-positive dimensions")
            }
            ThermalError::EmptyFloorplan => write!(f, "floorplan contains no blocks"),
            ThermalError::PowerLengthMismatch { expected, got } => {
                write!(
                    f,
                    "power vector has {got} entries, model has {expected} blocks"
                )
            }
            ThermalError::SingularSystem => write!(f, "thermal network matrix is singular"),
            ThermalError::InvalidPackage { what } => {
                write!(f, "invalid package parameter: {what}")
            }
            ThermalError::InvalidStep { what } => write!(f, "invalid solver step: {what}"),
            ThermalError::NotConverged { iters } => {
                write!(
                    f,
                    "iterative solver did not converge after {iters} iterations"
                )
            }
        }
    }
}

impl Error for ThermalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            ThermalError::DegenerateBlock { index: 1 },
            ThermalError::EmptyFloorplan,
            ThermalError::PowerLengthMismatch {
                expected: 16,
                got: 4,
            },
            ThermalError::SingularSystem,
            ThermalError::InvalidPackage { what: "t_die" },
            ThermalError::InvalidStep { what: "dt" },
            ThermalError::NotConverged { iters: 100 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ThermalError>();
    }
}
