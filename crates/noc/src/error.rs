//! Error types for the NoC simulator.

use crate::topology::Coord;
use std::error::Error;
use std::fmt;

/// Errors returned by the NoC simulator's public API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NocError {
    /// A coordinate lies outside the mesh.
    CoordOutOfBounds {
        /// The offending coordinate.
        coord: Coord,
        /// Mesh width in tiles.
        width: u8,
        /// Mesh height in tiles.
        height: u8,
    },
    /// A mesh dimension was zero or exceeded the supported maximum.
    InvalidMeshDimension {
        /// The offending dimension value.
        dim: usize,
    },
    /// A packet declared zero flits.
    EmptyPacket,
    /// The simulation did not drain within the given cycle budget.
    Timeout {
        /// The cycle budget that was exhausted.
        budget: u64,
        /// Flits still in flight when the budget ran out.
        in_flight: u64,
    },
    /// A configuration value is out of its legal range.
    InvalidConfig {
        /// Human-readable description of the problem.
        what: &'static str,
    },
    /// A fault plan references components the mesh does not have.
    InvalidFaultPlan {
        /// Human-readable description of the problem.
        what: String,
    },
}

impl fmt::Display for NocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocError::CoordOutOfBounds {
                coord,
                width,
                height,
            } => write!(f, "coordinate {coord} outside {width}x{height} mesh bounds"),
            NocError::InvalidMeshDimension { dim } => {
                write!(f, "invalid mesh dimension {dim} (must be 1..=64)")
            }
            NocError::EmptyPacket => write!(f, "packet must contain at least one flit"),
            NocError::Timeout { budget, in_flight } => write!(
                f,
                "network failed to drain within {budget} cycles ({in_flight} flits in flight)"
            ),
            NocError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            NocError::InvalidFaultPlan { what } => write!(f, "invalid fault plan: {what}"),
        }
    }
}

impl Error for NocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_ish() {
        let errors = [
            NocError::CoordOutOfBounds {
                coord: Coord::new(9, 9),
                width: 4,
                height: 4,
            },
            NocError::InvalidMeshDimension { dim: 0 },
            NocError::EmptyPacket,
            NocError::Timeout {
                budget: 100,
                in_flight: 7,
            },
            NocError::InvalidConfig {
                what: "clock_hz must be positive and finite",
            },
            NocError::InvalidFaultPlan {
                what: "router (9, 9) outside mesh".to_string(),
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NocError>();
    }
}
