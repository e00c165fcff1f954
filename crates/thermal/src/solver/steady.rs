//! Iterative steady-state solution (Gauss–Seidel).
//!
//! The direct LU path in [`crate::RcNetwork::steady_state`] is exact and
//! fast for block-level networks; this module provides an independent
//! iterative solver used to cross-validate it.

use crate::error::ThermalError;
use crate::rc_model::RcNetwork;

/// Solves the steady-state system `G T = P + G_amb T_amb` by Gauss–Seidel
/// iteration, returning all node temperatures (blocks first).
///
/// # Errors
///
/// * [`ThermalError::PowerLengthMismatch`] on a wrong-sized power vector.
/// * [`ThermalError::SingularSystem`] if the iteration fails to converge
///   within `max_iters` (the RC matrices built by this crate are strictly
///   diagonally dominant, so this indicates corruption, not physics).
pub fn steady_state_gauss_seidel(
    net: &RcNetwork,
    power_blocks: &[f64],
    tol: f64,
    max_iters: usize,
) -> Result<Vec<f64>, ThermalError> {
    let b = net.rhs(power_blocks)?;
    let a = net.conductance_sparse();
    let diag = a.diagonal();
    let n = net.n_nodes();
    let mut t = vec![net.ambient(); n];
    for _ in 0..max_iters {
        let mut max_delta: f64 = 0.0;
        for i in 0..n {
            let mut acc = b[i];
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if j != i {
                    acc -= v * t[j];
                }
            }
            let new = acc / diag[i];
            max_delta = max_delta.max((new - t[i]).abs());
            t[i] = new;
        }
        if max_delta < tol {
            return Ok(t);
        }
    }
    Err(ThermalError::SingularSystem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::package::PackageConfig;

    fn net() -> RcNetwork {
        let plan = Floorplan::mesh_grid(4, 4, 4.36e-6).unwrap();
        RcNetwork::build(&plan, &PackageConfig::date05_defaults()).unwrap()
    }

    #[test]
    fn matches_direct_lu_solution() {
        let net = net();
        let mut power = vec![1.0; 16];
        power[5] = 3.5;
        power[10] = 2.0;
        let direct = net.steady_state_full(&power).unwrap();
        let iterative = steady_state_gauss_seidel(&net, &power, 1e-10, 100_000).unwrap();
        for (a, b) in direct.iter().zip(&iterative) {
            assert!((a - b).abs() < 1e-6, "LU {a} vs GS {b}");
        }
    }

    #[test]
    fn zero_power_converges_to_ambient() {
        let net = net();
        let t = steady_state_gauss_seidel(&net, &[0.0; 16], 1e-12, 100_000).unwrap();
        for v in t {
            assert!((v - 40.0).abs() < 1e-6);
        }
    }

    #[test]
    fn wrong_length_rejected() {
        let net = net();
        assert!(matches!(
            steady_state_gauss_seidel(&net, &[1.0], 1e-9, 10),
            Err(ThermalError::PowerLengthMismatch { .. })
        ));
    }

    #[test]
    fn iteration_budget_enforced() {
        let net = net();
        // One sweep cannot converge to 1e-12 from ambient under load.
        let r = steady_state_gauss_seidel(&net, &[2.0; 16], 1e-12, 1);
        assert!(matches!(r, Err(ThermalError::SingularSystem)));
    }
}
