//! Transient thermal integration.
//!
//! Two integrators are provided:
//!
//! * **Backward Euler** (default): unconditionally stable; the sparse
//!   system `(C/dt + G) T' = P + C/dt·T` is solved each step by
//!   Jacobi-preconditioned conjugate gradient, warm-started from the
//!   current temperatures, in the fused kernel of [`crate::solver::lanes`]
//!   (this simulation is its one-lane instance). Successive steps move the
//!   state very little, so the solve typically converges in a handful of
//!   O(nnz) matvecs — the cost scales with the network's nonzeros, not n².
//!   This is what the migration co-simulation uses (many thousands of steps
//!   at a fixed `dt`).
//! * **RK4**: classic explicit integration via sparse matvec; useful to
//!   cross-validate the implicit solver at small steps (the property tests
//!   do exactly that).

use crate::error::ThermalError;
use crate::rc_model::RcNetwork;
use crate::solver::lanes::{check_dt, BeKernel};

/// Time integration scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Implicit backward Euler, solved per step by warm-started
    /// conjugate gradient over the sparse system matrix.
    #[default]
    BackwardEuler,
    /// Explicit 4th-order Runge-Kutta.
    Rk4,
}

/// A transient simulation: temperature state advanced step by step under a
/// (possibly time-varying) per-block power vector.
#[derive(Debug, Clone)]
pub struct TransientSim<'a> {
    net: &'a RcNetwork,
    dt: f64,
    temps: Vec<f64>,
    /// The one-lane backward-Euler kernel; `None` integrates by RK4.
    be: Option<BeKernel<1>>,
    /// RK4 scratch reused across steps: the RHS and the stage buffers.
    rhs: Vec<f64>,
    stage: Vec<Vec<f64>>,
    time: f64,
}

impl<'a> TransientSim<'a> {
    /// Creates a simulation over `net` with step `dt` seconds, starting with
    /// every node at ambient.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidStep`] for a non-positive or non-finite `dt`.
    /// * [`ThermalError::SingularSystem`] if the implicit system is not SPD
    ///   (defensive; cannot happen for a valid RC network).
    pub fn new(net: &'a RcNetwork, dt: f64, integrator: Integrator) -> Result<Self, ThermalError> {
        check_dt(dt)?;
        let n = net.n_nodes();
        // RK4 scratch is empty under backward Euler.
        let (be, rk4_len) = match integrator {
            Integrator::BackwardEuler => (Some(BeKernel::new(net, dt)?), 0),
            Integrator::Rk4 => (None, n),
        };
        Ok(TransientSim {
            net,
            dt,
            temps: vec![net.ambient(); n],
            be,
            rhs: vec![0.0; rk4_len],
            // k1..k4, the staged y, and one matvec out.
            stage: vec![vec![0.0; rk4_len]; 6],
            time: 0.0,
        })
    }

    /// Initializes the state from the steady-state solution of
    /// `power_blocks` (the usual starting point: the chip has been running
    /// its base placement long enough to thermally settle).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] on a wrong-sized input.
    pub fn init_from_steady(&mut self, power_blocks: &[f64]) -> Result<(), ThermalError> {
        self.temps = self.net.steady_state_full(power_blocks)?;
        self.time = 0.0;
        Ok(())
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The time step in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// All node temperatures (°C), blocks first.
    pub fn temps(&self) -> &[f64] {
        &self.temps
    }

    /// Die-block temperatures only (°C).
    pub fn block_temps(&self) -> &[f64] {
        &self.temps[..self.net.n_blocks()]
    }

    /// Peak die-block temperature (°C).
    pub fn peak_block_temp(&self) -> f64 {
        crate::rc_model::peak(self.block_temps())
    }

    /// Mean die-block temperature (°C).
    pub fn mean_block_temp(&self) -> f64 {
        let b = self.block_temps();
        b.iter().sum::<f64>() / b.len() as f64
    }

    /// Advances one step of `dt` under the given per-block power.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::PowerLengthMismatch`] on a wrong-sized input.
    /// * [`ThermalError::NotConverged`] if the implicit solve breaks down
    ///   (defensive; the system is SPD by construction).
    ///
    /// A failed step leaves the state and clock untouched.
    pub fn step(&mut self, power_blocks: &[f64]) -> Result<(), ThermalError> {
        let _t = hotnoc_obs::prof::scope("thermal/step");
        match &mut self.be {
            Some(kernel) => {
                let [done] = kernel.step([Some(power_blocks)], [self.temps.as_mut_slice()]);
                done?;
            }
            None => self.rk4_step(power_blocks)?,
        }
        self.time += self.dt;
        Ok(())
    }

    fn rk4_step(&mut self, power_blocks: &[f64]) -> Result<(), ThermalError> {
        let rhs = &mut self.rhs;
        self.net.rhs_into(power_blocks, rhs)?;
        let g = self.net.conductance_sparse();
        let cap = self.net.capacities();
        let n = self.temps.len();
        let h = self.dt;
        let [k1, k2, k3, k4, ys, gt] = &mut self.stage[..] else {
            unreachable!("RK4 owns six stage buffers");
        };
        let deriv = |t: &[f64], gt: &mut Vec<f64>, out: &mut Vec<f64>| {
            g.matvec_into(t, gt);
            for i in 0..n {
                out[i] = (rhs[i] - gt[i]) / cap[i];
            }
        };
        deriv(&self.temps, gt, k1);
        for i in 0..n {
            ys[i] = self.temps[i] + h / 2.0 * k1[i];
        }
        deriv(&ys[..], gt, k2);
        for i in 0..n {
            ys[i] = self.temps[i] + h / 2.0 * k2[i];
        }
        deriv(&ys[..], gt, k3);
        for i in 0..n {
            ys[i] = self.temps[i] + h * k3[i];
        }
        deriv(&ys[..], gt, k4);
        for i in 0..n {
            self.temps[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        Ok(())
    }

    /// Runs `steps` steps under constant power.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] on a wrong-sized input.
    pub fn run(&mut self, power_blocks: &[f64], steps: usize) -> Result<(), ThermalError> {
        for _ in 0..steps {
            self.step(power_blocks)?;
        }
        Ok(())
    }
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
    fn rejects_bad_dt() {
        let n = net();
        assert!(TransientSim::new(&n, 0.0, Integrator::BackwardEuler).is_err());
        assert!(TransientSim::new(&n, f64::NAN, Integrator::Rk4).is_err());
    }

    #[test]
    fn starts_at_ambient() {
        let n = net();
        let sim = TransientSim::new(&n, 1e-5, Integrator::BackwardEuler).unwrap();
        assert!(sim.temps().iter().all(|&t| (t - 40.0).abs() < 1e-12));
        assert_eq!(sim.time(), 0.0);
    }

    #[test]
    fn warms_up_monotonically_under_constant_power() {
        let n = net();
        let mut sim = TransientSim::new(&n, 1e-4, Integrator::BackwardEuler).unwrap();
        let p = vec![1.5; 16];
        let mut last = sim.peak_block_temp();
        for _ in 0..50 {
            sim.run(&p, 10).unwrap();
            let now = sim.peak_block_temp();
            assert!(now >= last - 1e-12, "peak decreased while heating");
            last = now;
        }
        assert!(last > 40.5);
    }

    #[test]
    fn die_settles_toward_steady_state() {
        // The die and TIM settle within tens of ms; the sink approaches its
        // steady value exponentially. Initialize the sim from the steady
        // state and verify it stays there (fixed point of the integrator).
        let n = net();
        let p = vec![1.5; 16];
        let steady = n.steady_state(&p).unwrap();
        let mut sim = TransientSim::new(&n, 1e-4, Integrator::BackwardEuler).unwrap();
        sim.init_from_steady(&p).unwrap();
        sim.run(&p, 500).unwrap();
        for (a, b) in sim.block_temps().iter().zip(&steady) {
            assert!((a - b).abs() < 1e-6, "drifted from steady: {a} vs {b}");
        }
    }

    #[test]
    fn cooling_after_power_off() {
        let n = net();
        let p = vec![2.0; 16];
        let mut sim = TransientSim::new(&n, 1e-4, Integrator::BackwardEuler).unwrap();
        sim.init_from_steady(&p).unwrap();
        let hot = sim.peak_block_temp();
        sim.run(&[0.0; 16], 2_000).unwrap();
        let cooled = sim.peak_block_temp();
        assert!(cooled < hot - 5.0, "did not cool: {hot} -> {cooled}");
        assert!(cooled >= 40.0 - 1e-9, "cooled below ambient");
    }

    #[test]
    fn rk4_matches_backward_euler_at_small_dt() {
        let n = net();
        let p = vec![1.8; 16];
        let dt = 2e-5;
        let mut be = TransientSim::new(&n, dt, Integrator::BackwardEuler).unwrap();
        let mut rk = TransientSim::new(&n, dt, Integrator::Rk4).unwrap();
        for _ in 0..500 {
            be.step(&p).unwrap();
            rk.step(&p).unwrap();
        }
        for (a, b) in be.block_temps().iter().zip(rk.block_temps()) {
            assert!((a - b).abs() < 0.05, "BE {a} vs RK4 {b}");
        }
    }

    #[test]
    fn backward_euler_stable_at_huge_dt() {
        let n = net();
        let mut sim = TransientSim::new(&n, 10.0, Integrator::BackwardEuler).unwrap();
        let p = vec![1.5; 16];
        // 3000 s covers many sink time constants (tau_sink ~ 200 s).
        sim.run(&p, 300).unwrap();
        let steady = n.steady_state(&p).unwrap();
        // Giant implicit steps converge straight to steady state.
        for (a, b) in sim.block_temps().iter().zip(&steady) {
            assert!((a - b).abs() < 0.5, "{a} vs steady {b}");
        }
        assert!(sim.temps().iter().all(|t| t.is_finite()));
    }

    #[test]
    fn time_advances() {
        let n = net();
        let mut sim = TransientSim::new(&n, 1e-3, Integrator::BackwardEuler).unwrap();
        sim.run(&[0.0; 16], 10).unwrap();
        assert!((sim.time() - 1e-2).abs() < 1e-12);
        assert!((sim.dt() - 1e-3).abs() < 1e-18);
    }

    #[test]
    fn power_length_checked() {
        let n = net();
        let mut sim = TransientSim::new(&n, 1e-4, Integrator::BackwardEuler).unwrap();
        assert!(sim.step(&[1.0; 4]).is_err());
    }

    #[test]
    fn mean_below_peak_for_nonuniform_power() {
        let n = net();
        let mut p = vec![0.5; 16];
        p[5] = 5.0;
        let mut sim = TransientSim::new(&n, 1e-4, Integrator::BackwardEuler).unwrap();
        sim.init_from_steady(&p).unwrap();
        assert!(sim.mean_block_temp() < sim.peak_block_temp());
    }
}
