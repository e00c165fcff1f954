//! The fused backward-Euler step, for one simulation or several in
//! lockstep.
//!
//! Each step solves `(C/dt + G) T' = P + g_amb·T_amb + C/dt·T` by
//! Jacobi-preconditioned conjugate gradient (CG), warm-started from `T`.
//! One pass over the nodes forms the right-hand side, the first residual
//! and the first search direction; each CG iteration is one pass for
//! `q = A p` with `p·q`, one for the `x`, `r` and `z` updates with `‖r‖²`
//! and `r·z`, and one for the direction update. `C/dt`, `g_amb·T_amb` and
//! the inverse diagonal are computed once per simulation, so a step
//! divides nothing per node and allocates nothing.
//!
//! A *lane* is one simulation of the network at the kernel's `dt`. The
//! kernel keeps one `f64` per lane at each node (`[f64; L]`), so a pass over
//! the nodes advances every lane, and the lanes' serial sums overlap in the
//! CPU instead of each waiting on its own previous add. A single
//! simulation ([`crate::TransientSim`]) is the one-lane instance.
//!
//! # Same bytes as the unfused solve
//!
//! In every lane the kernel performs exactly the floating-point operations
//! of `RcNetwork::rhs_into`, then `b += C/dt·T`, then an unfused
//! Jacobi-preconditioned CG solve, in the same order:
//!
//! * `b_i = ((p_i or 0.0) + g_amb_i·T_amb) + (C_i/dt)·T_i`. Computing
//!   `C_i/dt` once changes no bit, because `c / dt * t` already divided
//!   first.
//! * Each row of a matrix–vector product sums its products in column order
//!   from `0.0`. Each vector sum (`‖b‖²`, `‖r‖²`, `r·z`, `p·q`) runs over the
//!   nodes left to right from `-0.0`, as `Iterator::sum` does. Independent
//!   sums share a pass; no sum is reordered.
//! * The early exits are the solver's: `‖b‖² = 0` (the state becomes zero),
//!   `‖r‖² ≤ tol²` (done), `p·q ≤ 0` or non-finite (breakdown:
//!   [`ThermalError::NotConverged`]) and the iteration budget.
//!
//! Lanes never mix. A lane that has converged writes its state out and
//! then rides along with its step sizes zeroed, so its scratch stays where
//! it was; a lane that fails keeps its old state and reports its own
//! error. The group iterates until every live lane is done. The tests
//! check each lane of a multi-lane step bit for bit against a one-lane
//! step, and the one-lane step against the unfused sequence.

use crate::error::ThermalError;
use crate::rc_model::RcNetwork;
use std::array;

/// Relative residual tolerance of each implicit solve: CG stops once
/// `‖r‖² ≤ REL_TOL²·‖b‖²`.
const REL_TOL: f64 = 1e-12;

/// Checks a transient step size.
pub(crate) fn check_dt(dt: f64) -> Result<(), ThermalError> {
    if dt.is_finite() && dt > 0.0 {
        Ok(())
    } else {
        Err(ThermalError::InvalidStep {
            what: "dt must be positive and finite",
        })
    }
}

/// The backward-Euler operator of one network at one `dt`, with
/// node-major scratch for `L` lanes.
#[derive(Debug, Clone)]
pub(crate) struct BeKernel<const L: usize> {
    /// `C/dt + G`, the implicit system matrix, row by row: each row's
    /// `(column, value)` entries in column order.
    entries: Vec<(u32, f64)>,
    /// Per node: its row length and the constants of its update.
    nodes: Vec<NodeConsts>,
    /// The power an idle lane reads: zero on every block.
    idle_power: Vec<f64>,
    max_iters: usize,
    x: Vec<[f64; L]>,
    r: Vec<[f64; L]>,
    z: Vec<[f64; L]>,
    p: Vec<[f64; L]>,
    q: Vec<[f64; L]>,
}

/// One node's share of the operator.
#[derive(Debug, Clone, Copy)]
struct NodeConsts {
    /// Entries in the node's row of `C/dt + G`.
    row_len: usize,
    /// `C_i / dt`.
    c_over_dt: f64,
    /// `g_amb_i · T_amb`: the ambient injection.
    ambient_in: f64,
    /// `1 / (C/dt + G)_ii`: the Jacobi preconditioner.
    inv_diag: f64,
}

impl<const L: usize> BeKernel<L> {
    /// Builds the operator of `net` at step `dt` (already checked).
    ///
    /// # Errors
    ///
    /// [`ThermalError::SingularSystem`] if a diagonal entry of `C/dt + G`
    /// is not positive and finite (the system cannot be SPD).
    pub(crate) fn new(net: &RcNetwork, dt: f64) -> Result<Self, ThermalError> {
        let c_over_dt: Vec<f64> = net.capacities().iter().map(|c| c / dt).collect();
        let m = net.conductance_sparse().with_diagonal_added(&c_over_dt);
        let diag = m.diagonal();
        if diag.iter().any(|&d| d <= 0.0 || !d.is_finite()) {
            return Err(ThermalError::SingularSystem);
        }
        let n = m.rows();
        let ambient = net.ambient();
        let mut entries = Vec::with_capacity(m.nnz());
        let nodes = (0..n)
            .map(|i| {
                let (cols, vals) = m.row(i);
                entries.extend(cols.iter().map(|&j| j as u32).zip(vals.iter().copied()));
                NodeConsts {
                    row_len: cols.len(),
                    c_over_dt: c_over_dt[i],
                    ambient_in: net.ambient_conductance()[i] * ambient,
                    inv_diag: 1.0 / diag[i],
                }
            })
            .collect();
        Ok(BeKernel {
            entries,
            nodes,
            idle_power: vec![0.0; net.n_blocks()],
            max_iters: 10 * n + 100,
            x: vec![[0.0; L]; n],
            r: vec![[0.0; L]; n],
            z: vec![[0.0; L]; n],
            p: vec![[0.0; L]; n],
            q: vec![[0.0; L]; n],
        })
    }

    /// Advances each lane whose `power` is `Some` by one step, writing its
    /// new node temperatures over `temps` on success. Returns each lane's
    /// CG iteration count; an idle lane (`None`) reports `Ok(0)` and its
    /// `temps` are not touched.
    ///
    /// # Errors
    ///
    /// Per lane, and only for that lane:
    /// [`ThermalError::PowerLengthMismatch`] for a wrong-sized power
    /// vector, [`ThermalError::NotConverged`] when the solve breaks down or
    /// runs out of iterations. A failed lane's `temps` are not touched.
    ///
    /// # Panics
    ///
    /// If a stepped lane's `temps` do not hold one entry per node.
    pub(crate) fn step(
        &mut self,
        power: [Option<&[f64]>; L],
        temps: [&mut [f64]; L],
    ) -> [Result<usize, ThermalError>; L] {
        let BeKernel {
            entries,
            nodes,
            idle_power,
            max_iters,
            x,
            r,
            z,
            p,
            q,
        } = self;
        let (n, n_blocks) = (nodes.len(), idle_power.len());
        let mut out: [Result<usize, ThermalError>; L] = array::from_fn(|_| Ok(0));
        let mut live = [false; L];
        let mut source = [idle_power.as_slice(); L];
        for (l, pw) in power.into_iter().enumerate() {
            let Some(pw) = pw else { continue };
            if pw.len() != n_blocks {
                out[l] = Err(ThermalError::PowerLengthMismatch {
                    expected: n_blocks,
                    got: pw.len(),
                });
                continue;
            }
            assert_eq!(temps[l].len(), n, "lane state length mismatch");
            source[l] = pw;
            live[l] = true;
        }
        if !live.contains(&true) {
            return out;
        }

        // Warm start from the current state; an idle lane starts at zero.
        for (l, t) in temps.iter().enumerate() {
            if live[l] {
                for (xi, &tv) in x.iter_mut().zip(t.iter()) {
                    xi[l] = tv;
                }
            } else {
                x.iter_mut().for_each(|xi| xi[l] = 0.0);
            }
        }

        // b, r = b - A x, z = M⁻¹ r, p = z, with ‖b‖², ‖r‖² and r·z.
        let (mut b2, mut r2, mut rz) = ([-0.0; L], [-0.0; L], [-0.0; L]);
        let mut rows = entries.as_slice();
        let pass =
            (nodes.iter().zip(x.iter())).zip(r.iter_mut().zip(z.iter_mut()).zip(p.iter_mut()));
        for (i, ((k, xi), ((ri, zi), pi))) in pass.enumerate() {
            let ax = row_times(&mut rows, k.row_len, x);
            let pw: [f64; L] = if i < n_blocks {
                array::from_fn(|l| source[l][i])
            } else {
                [0.0; L]
            };
            for l in 0..L {
                let b = (pw[l] + k.ambient_in) + k.c_over_dt * xi[l];
                b2[l] += b * b;
                let rv = b - ax[l];
                r2[l] += rv * rv;
                let zv = rv * k.inv_diag;
                rz[l] += rv * zv;
                ri[l] = rv;
                zi[l] = zv;
                pi[l] = zv;
            }
        }
        let mut tol2 = [0.0; L];
        for l in 0..L {
            if !live[l] {
                continue;
            }
            if b2[l] == 0.0 {
                temps[l].fill(0.0);
                live[l] = false;
                continue;
            }
            tol2[l] = REL_TOL * REL_TOL * b2[l];
            if r2[l] <= tol2[l] {
                live[l] = false;
            }
        }

        for iter in 1..=*max_iters {
            if !live.contains(&true) {
                return out;
            }
            // q = A p, with p·q.
            let mut pq = [-0.0; L];
            let mut rows = entries.as_slice();
            for ((k, qi), pi) in nodes.iter().zip(q.iter_mut()).zip(p.iter()) {
                *qi = row_times(&mut rows, k.row_len, p);
                for l in 0..L {
                    pq[l] += pi[l] * qi[l];
                }
            }
            let mut alpha = [0.0; L];
            for l in 0..L {
                if !live[l] {
                    continue;
                }
                if pq[l] <= 0.0 || !pq[l].is_finite() {
                    // Not positive definite along p (numerical breakdown).
                    out[l] = Err(ThermalError::NotConverged { iters: iter });
                    live[l] = false;
                } else {
                    alpha[l] = rz[l] / pq[l];
                }
            }
            if !live.contains(&true) {
                return out;
            }
            // x += α p, r -= α q, z = M⁻¹ r, with ‖r‖² and r·z.
            let (mut r2, mut rz_next) = ([-0.0; L], [-0.0; L]);
            let pass = (nodes.iter().zip(p.iter()).zip(q.iter()))
                .zip(x.iter_mut().zip(r.iter_mut()).zip(z.iter_mut()));
            for (((k, pi), qi), ((xi, ri), zi)) in pass {
                for l in 0..L {
                    xi[l] += alpha[l] * pi[l];
                    ri[l] -= alpha[l] * qi[l];
                    r2[l] += ri[l] * ri[l];
                    zi[l] = ri[l] * k.inv_diag;
                    rz_next[l] += ri[l] * zi[l];
                }
            }
            let mut beta = [0.0; L];
            for l in 0..L {
                if !live[l] {
                    continue;
                }
                if r2[l] <= tol2[l] {
                    for (t, xi) in temps[l].iter_mut().zip(x.iter()) {
                        *t = xi[l];
                    }
                    out[l] = Ok(iter);
                    live[l] = false;
                } else {
                    beta[l] = rz_next[l] / rz[l];
                    rz[l] = rz_next[l];
                }
            }
            if !live.contains(&true) {
                return out;
            }
            // p = z + β p.
            for (pi, zi) in p.iter_mut().zip(z.iter()) {
                for l in 0..L {
                    pi[l] = zi[l] + beta[l] * pi[l];
                }
            }
        }
        for l in 0..L {
            if live[l] {
                out[l] = Err(ThermalError::NotConverged { iters: *max_iters });
            }
        }
        out
    }
}

/// The next row of `A v` in every lane: takes the row's `len` entries off
/// the front of `rows` and sums their products in column order from
/// `0.0`, as [`crate::CsrMat::matvec_into`] sums them.
#[inline(always)]
fn row_times<const L: usize>(rows: &mut &[(u32, f64)], len: usize, v: &[[f64; L]]) -> [f64; L] {
    let (row, rest) = rows.split_at(len);
    *rows = rest;
    let mut acc = [0.0; L];
    for &(j, a) in row {
        let vj = &v[j as usize];
        for l in 0..L {
            acc[l] += a * vj[l];
        }
    }
    acc
}

/// `L` backward-Euler simulations of one network at one `dt`, stepped in
/// lockstep: each lane has its own state and power, and a lane's bytes
/// are those of a [`crate::TransientSim`] given the same inputs. Lanes
/// start at ambient.
#[derive(Debug, Clone)]
pub struct TransientLanes<'a, const L: usize> {
    net: &'a RcNetwork,
    kernel: BeKernel<L>,
    temps: [Vec<f64>; L],
}

impl<'a, const L: usize> TransientLanes<'a, L> {
    /// Creates `L` simulations over `net` with step `dt` seconds, every
    /// node of every lane at ambient.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidStep`] for a non-positive or non-finite `dt`.
    /// * [`ThermalError::SingularSystem`] if the implicit system is not SPD
    ///   (defensive; cannot happen for a valid RC network).
    pub fn new(net: &'a RcNetwork, dt: f64) -> Result<Self, ThermalError> {
        check_dt(dt)?;
        Ok(TransientLanes {
            net,
            kernel: BeKernel::new(net, dt)?,
            temps: array::from_fn(|_| vec![net.ambient(); net.n_nodes()]),
        })
    }

    /// Sets `lane` to the steady state of `power_blocks`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] on a wrong-sized input.
    ///
    /// # Panics
    ///
    /// If `lane >= L`.
    pub fn init_from_steady(
        &mut self,
        lane: usize,
        power_blocks: &[f64],
    ) -> Result<(), ThermalError> {
        self.temps[lane] = self.net.steady_state_full(power_blocks)?;
        Ok(())
    }

    /// `lane`'s die-block temperatures (°C).
    pub fn block_temps(&self, lane: usize) -> &[f64] {
        &self.temps[lane][..self.net.n_blocks()]
    }

    /// Advances each lane whose `power` is `Some` by one step of `dt`; an
    /// idle lane (`None`) keeps its state and reports `Ok`.
    ///
    /// # Errors
    ///
    /// Per lane, as [`crate::TransientSim::step`]: a lane that fails keeps
    /// its state, and the other lanes are unaffected.
    pub fn step(&mut self, power: [Option<&[f64]>; L]) -> [Result<(), ThermalError>; L] {
        let _t = hotnoc_obs::prof::scope("thermal/step");
        let temps = self.temps.each_mut().map(Vec::as_mut_slice);
        self.kernel.step(power, temps).map(|done| done.map(|_| ()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::package::PackageConfig;
    use crate::sparse::{CgSolver, CsrMat};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn net(side: usize, pkg: &PackageConfig) -> RcNetwork {
        let plan = Floorplan::mesh_grid(side, side, 4.36e-6).unwrap();
        RcNetwork::build(&plan, pkg).unwrap()
    }

    /// The unfused step the kernel replaced: `rhs_into`, `b += C/dt·T`,
    /// then a warm-started [`CgSolver`] solve committed on success.
    struct Unfused<'a> {
        net: &'a RcNetwork,
        dt: f64,
        m: CsrMat,
        solver: CgSolver,
        temps: Vec<f64>,
    }

    impl<'a> Unfused<'a> {
        fn new(net: &'a RcNetwork, dt: f64, temps: Vec<f64>) -> Self {
            let c_over_dt: Vec<f64> = net.capacities().iter().map(|c| c / dt).collect();
            let m = net.conductance_sparse().with_diagonal_added(&c_over_dt);
            let solver = CgSolver::new(&m).unwrap();
            Unfused {
                net,
                dt,
                m,
                solver,
                temps,
            }
        }

        fn step(&mut self, power: &[f64]) -> Result<usize, ThermalError> {
            let mut rhs = vec![0.0; self.net.n_nodes()];
            self.net.rhs_into(power, &mut rhs)?;
            for ((r, &c), &t) in rhs.iter_mut().zip(self.net.capacities()).zip(&self.temps) {
                *r += c / self.dt * t;
            }
            let mut next = self.temps.clone();
            let iters = self.solver.solve(&self.m, &rhs, &mut next)?;
            self.temps = next;
            Ok(iters)
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Steps `L` lanes of `net` at `dt` from `starts` through `powers`
    /// (`powers[step][lane]`), and checks each lane's iteration count,
    /// error and bytes after every step against a one-lane kernel and the
    /// unfused oracle fed the same lane alone. Returns the iteration counts
    /// (`Err` as `None`) per step and lane.
    fn check_lanes<const L: usize>(
        net: &RcNetwork,
        dt: f64,
        starts: &[Vec<f64>; L],
        powers: &[[Vec<f64>; L]],
    ) -> Vec<[Option<usize>; L]> {
        let mut group = BeKernel::<L>::new(net, dt).unwrap();
        let mut states = starts.clone();
        let mut solo: Vec<(BeKernel<1>, Vec<f64>)> = starts
            .iter()
            .map(|s| (BeKernel::new(net, dt).unwrap(), s.clone()))
            .collect();
        let mut oracle: Vec<Unfused> = starts
            .iter()
            .map(|s| Unfused::new(net, dt, s.clone()))
            .collect();
        let mut counts = Vec::new();
        for (k, frame) in powers.iter().enumerate() {
            let got = group.step(
                array::from_fn(|l| Some(frame[l].as_slice())),
                states.each_mut().map(Vec::as_mut_slice),
            );
            let mut row = [None; L];
            for l in 0..L {
                let (kernel, state) = &mut solo[l];
                let [alone] = kernel.step([Some(frame[l].as_slice())], [state.as_mut_slice()]);
                let unfused = oracle[l].step(&frame[l]);
                assert_eq!(got[l], alone, "step {k} lane {l}: lane vs one-lane result");
                assert_eq!(
                    alone, unfused,
                    "step {k} lane {l}: one-lane vs unfused result"
                );
                assert_eq!(
                    bits(&states[l]),
                    bits(state),
                    "step {k} lane {l}: lane vs one-lane bytes"
                );
                assert_eq!(
                    bits(state),
                    bits(&oracle[l].temps),
                    "step {k} lane {l}: one-lane vs unfused bytes"
                );
                row[l] = got[l].as_ref().ok().copied();
            }
            counts.push(row);
        }
        counts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn every_lane_is_its_one_lane_step_and_the_unfused_solve(
            side in 2usize..7,
            dt_exp in -7.0f64..-1.0,
            seed in 0u64..1_000_000,
            steps in 1usize..9,
        ) {
            let pkg = PackageConfig::date05_defaults();
            let net = net(side, &pkg);
            let nb = net.n_blocks();
            let dt = 10f64.powf(dt_exp);
            let mut rng = StdRng::seed_from_u64(seed);
            // Lane 0 holds its steady power (CG stops after 0 iterations),
            // lane 1 nudges it, lanes 2 and 3 redraw it every step: the
            // lanes converge at different iteration counts.
            let base: Vec<Vec<f64>> = (0..4)
                .map(|_| (0..nb).map(|_| rng.gen_range(0.2..3.2)).collect())
                .collect();
            let starts: [Vec<f64>; 4] = array::from_fn(|l| net.steady_state_full(&base[l]).unwrap());
            let powers: Vec<[Vec<f64>; 4]> = (0..steps)
                .map(|_| {
                    array::from_fn(|l| match l {
                        0 => base[0].clone(),
                        1 => base[1].iter().map(|p| p * rng.gen_range(1.0..1.001)).collect(),
                        _ => (0..nb).map(|_| rng.gen_range(0.0..4.0)).collect(),
                    })
                })
                .collect();
            let counts = check_lanes(&net, dt, &starts, &powers);
            prop_assert!(counts.iter().all(|c| c.iter().all(Option::is_some)));
            // Two-lane groups hold too.
            let pairs: Vec<[Vec<f64>; 2]> =
                powers.iter().map(|f| [f[3].clone(), f[1].clone()]).collect();
            check_lanes(&net, dt, &[starts[3].clone(), starts[1].clone()], &pairs);
        }
    }

    #[test]
    fn lanes_converge_at_different_iteration_counts() {
        let pkg = PackageConfig::date05_defaults();
        let net = net(5, &pkg);
        let steady = vec![1.2; 25];
        let start = net.steady_state_full(&steady).unwrap();
        let mut hot = steady.clone();
        hot[12] = 6.0;
        let cold = vec![0.0; 25];
        let powers: Vec<[Vec<f64>; 4]> = (0..4)
            .map(|k| {
                let nudged: Vec<f64> = steady.iter().map(|p| p + 1e-3 * k as f64).collect();
                [steady.clone(), nudged, hot.clone(), cold.clone()]
            })
            .collect();
        let counts = check_lanes(&net, 5e-6, &array::from_fn(|_| start.clone()), &powers);
        assert!(
            counts.iter().all(|c| c[0] == Some(0)),
            "steady lane: {counts:?}"
        );
        // In one step, three lanes need 0, 1 and 2 iterations.
        let mut distinct: Vec<usize> = counts[1].iter().flatten().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() >= 3, "iteration counts {counts:?}");
    }

    #[test]
    fn a_failing_lane_leaves_the_others_bytes_alone() {
        let pkg = PackageConfig::date05_defaults();
        let net = net(4, &pkg);
        let start = net.steady_state_full(&[1.0; 16]).unwrap();
        let mut bad = vec![1.0; 16];
        bad[3] = f64::NAN;
        let frames: Vec<[Vec<f64>; 4]> = (0..3)
            .map(|k| {
                let varied: Vec<f64> = (0..16).map(|i| 0.5 + ((i + k) % 5) as f64).collect();
                [varied.clone(), bad.clone(), vec![2.0; 16], varied]
            })
            .collect();
        let counts = check_lanes(&net, 1e-5, &array::from_fn(|_| start.clone()), &frames);
        for c in &counts {
            assert!(
                c[0].is_some() && c[2].is_some() && c[3].is_some(),
                "{counts:?}"
            );
            assert_eq!(c[1], None, "NaN power must fail its lane");
        }

        // The breakdown is the unfused solver's, and the failed lane keeps
        // its state; a wrong-sized lane fails before any arithmetic.
        let mut kernel = BeKernel::<3>::new(&net, 1e-5).unwrap();
        let mut states: [Vec<f64>; 3] = array::from_fn(|_| start.clone());
        let good = [1.5; 16];
        let got = kernel.step(
            [Some(&good[..]), Some(&bad[..]), Some(&good[..4])],
            states.each_mut().map(Vec::as_mut_slice),
        );
        assert!(got[0].is_ok());
        assert_eq!(got[1], Err(ThermalError::NotConverged { iters: 1 }));
        assert_eq!(
            got[2],
            Err(ThermalError::PowerLengthMismatch {
                expected: 16,
                got: 4
            })
        );
        assert_eq!(bits(&states[1]), bits(&start));
        assert_eq!(bits(&states[2]), bits(&start));
    }

    #[test]
    fn zero_right_hand_side_zeroes_the_lane_like_the_unfused_solve() {
        // At a 0 °C ambient, zero power from a zero state makes b = 0.
        let pkg = PackageConfig {
            ambient_celsius: 0.0,
            ..PackageConfig::date05_defaults()
        };
        let net = net(3, &pkg);
        let zero = vec![0.0; net.n_nodes()];
        let warm = net.steady_state_full(&[1.0; 9]).unwrap();
        let frames = vec![[vec![0.0; 9], vec![1.0; 9]]; 2];
        let counts = check_lanes(&net, 1e-4, &[zero, warm], &frames);
        assert_eq!(counts[0][0], Some(0));
    }

    #[test]
    fn idle_lanes_keep_their_state() {
        let pkg = PackageConfig::date05_defaults();
        let net = net(4, &pkg);
        let mut lanes = TransientLanes::<2>::new(&net, 1e-4).unwrap();
        lanes.init_from_steady(1, &[1.0; 16]).unwrap();
        let before = lanes.block_temps(1).to_vec();
        let res = lanes.step([Some(&[2.0; 16][..]), None]);
        assert!(res.iter().all(Result::is_ok));
        assert_eq!(lanes.block_temps(1), &before[..]);
        assert!(lanes.block_temps(0).iter().all(|&t| t > 40.0));
        assert!(TransientLanes::<2>::new(&net, -1.0).is_err());
    }
}
