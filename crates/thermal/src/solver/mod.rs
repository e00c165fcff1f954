//! Steady-state and transient solvers for [`crate::RcNetwork`].

pub mod lanes;
pub mod steady;
pub mod transient;
