//! RC-equivalent thermal network construction and steady-state solution.
//!
//! The network holds its conductance matrix once, in CSR form, and solves
//! steady states through a dense LU factored from it ([`Lu`]).
//!
//! Node layout for a floorplan with `n` blocks:
//!
//! | index            | node                                   |
//! |------------------|----------------------------------------|
//! | `0 .. n`         | die blocks (power is injected here)    |
//! | `n .. 2n`        | TIM node under each block              |
//! | `2n`             | heat-spreader centre                   |
//! | `2n+1 .. 2n+5`   | spreader periphery (N, E, S, W)        |
//! | `2n+5`           | heat-sink base (convects to ambient)   |
//!
//! Lateral die conduction couples adjacent blocks proportionally to their
//! shared edge length over centroid distance; vertical conduction runs
//! die → TIM → spreader → sink → ambient, exactly the topology of HotSpot's
//! block model (with the spreader collapsed to five nodes).

use crate::error::ThermalError;
use crate::floorplan::Floorplan;
use crate::linalg::Lu;
use crate::package::PackageConfig;
use crate::sparse::{CsrMat, TripletBuilder};

/// A fully built thermal network with pre-factored steady-state matrix.
///
/// The conductance Laplacian is stored once, in sparse (CSR) form — ~7
/// nonzeros per row — which is what the transient integrators step with;
/// the steady-state LU is factored from it once.
#[derive(Debug, Clone)]
pub struct RcNetwork {
    n_blocks: usize,
    n_nodes: usize,
    /// `G` Laplacian plus ambient conductance on the diagonal.
    a_sparse: CsrMat,
    /// Per-node conductance to ambient (only the sink node is non-zero).
    g_amb: Vec<f64>,
    /// Per-node heat capacity in J/K.
    cap: Vec<f64>,
    ambient: f64,
    lu: Lu,
}

impl RcNetwork {
    /// Builds the thermal network for `plan` under package `pkg`.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidPackage`] if `pkg` fails validation.
    /// * [`ThermalError::SingularSystem`] if the network is degenerate
    ///   (cannot happen for a valid floorplan; defensive).
    pub fn build(plan: &Floorplan, pkg: &PackageConfig) -> Result<Self, ThermalError> {
        let _t = hotnoc_obs::prof::scope("thermal/build");
        pkg.validate()?;
        let n = plan.len();
        let n_nodes = 2 * n + 5 + 1;
        let sp_center = 2 * n;
        let sp_periph = [2 * n + 1, 2 * n + 2, 2 * n + 3, 2 * n + 4];
        let sink = 2 * n + 5;

        let mut g = TripletBuilder::new(n_nodes, n_nodes);
        let add = |g: &mut TripletBuilder, i: usize, j: usize, cond: f64| {
            g.add_conductance(i, j, cond);
        };

        // Lateral conduction between adjacent die blocks.
        for (i, j, edge, dist) in plan.adjacencies() {
            let cond = pkg.die.conductivity * pkg.t_die * edge / dist;
            add(&mut g, i, j, cond);
        }

        let die_area = plan.total_area();
        let sp_area = pkg.spreader_side * pkg.spreader_side;
        let periph_area = ((sp_area - die_area) / 4.0).max(sp_area * 0.05);

        let area = plan.block_area();
        for i in 0..n {
            // die block -> its TIM node: half the die plus half the TIM.
            let r_down = pkg.die.slab_resistance(pkg.t_die / 2.0, area)
                + pkg.tim.slab_resistance(pkg.t_tim / 2.0, area);
            add(&mut g, i, n + i, 1.0 / r_down);
            // TIM node -> spreader centre: rest of the TIM plus spreading
            // constriction into the copper.
            let r_sp = pkg.tim.slab_resistance(pkg.t_tim / 2.0, area)
                + pkg.spreader.slab_resistance(pkg.t_spreader / 2.0, area);
            add(&mut g, n + i, sp_center, 1.0 / r_sp);
        }

        // Spreader centre <-> periphery lateral conduction.
        let r_lat_sp = (pkg.spreader_side / 4.0)
            / (pkg.spreader.conductivity * pkg.t_spreader * pkg.spreader_side);
        for &p in &sp_periph {
            add(&mut g, sp_center, p, 1.0 / r_lat_sp);
        }

        // Vertical into the sink base.
        let r_center_sink = pkg.spreader.slab_resistance(pkg.t_spreader / 2.0, die_area)
            + pkg.sink.slab_resistance(pkg.t_sink / 2.0, die_area);
        add(&mut g, sp_center, sink, 1.0 / r_center_sink);
        for &p in &sp_periph {
            let r = pkg
                .spreader
                .slab_resistance(pkg.t_spreader / 2.0, periph_area)
                + pkg.sink.slab_resistance(pkg.t_sink / 2.0, periph_area);
            add(&mut g, p, sink, 1.0 / r);
        }

        // Sink -> ambient convection.
        let mut g_amb = vec![0.0; n_nodes];
        g_amb[sink] = 1.0 / pkg.r_convec;
        g.add(sink, sink, g_amb[sink]);

        // Heat capacities.
        let mut cap = vec![0.0; n_nodes];
        for i in 0..n {
            cap[i] = pkg.cap_factor * pkg.die.slab_capacity(pkg.t_die, area);
            cap[n + i] = pkg.cap_factor * pkg.tim.slab_capacity(pkg.t_tim, area);
        }
        cap[sp_center] = pkg.cap_factor * pkg.spreader.slab_capacity(pkg.t_spreader, die_area);
        for &p in &sp_periph {
            cap[p] = pkg.cap_factor * pkg.spreader.slab_capacity(pkg.t_spreader, periph_area);
        }
        cap[sink] = pkg.cap_factor
            * pkg
                .sink
                .slab_capacity(pkg.t_sink, pkg.sink_side * pkg.sink_side)
            + pkg.c_convec;

        let a_sparse = g.build();
        let lu = Lu::factor(&a_sparse)?;
        Ok(RcNetwork {
            n_blocks: n,
            n_nodes,
            a_sparse,
            g_amb,
            cap,
            ambient: pkg.ambient_celsius,
            lu,
        })
    }

    /// Number of floorplan (power-bearing) blocks.
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Total number of thermal nodes (blocks + package nodes).
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Ambient temperature in °C.
    pub fn ambient(&self) -> f64 {
        self.ambient
    }

    /// Per-node heat capacities (J/K), in node-index order.
    pub fn capacities(&self) -> &[f64] {
        &self.cap
    }

    /// The conductance matrix (Laplacian + ambient diagonal) in CSR form:
    /// what the transient solvers multiply by, O(nnz) per matvec.
    pub fn conductance_sparse(&self) -> &CsrMat {
        &self.a_sparse
    }

    /// Per-node conductance to ambient.
    pub fn ambient_conductance(&self) -> &[f64] {
        &self.g_amb
    }

    /// Expands a per-block power vector to a full per-node source vector,
    /// adding the ambient injection `g_amb * T_amb`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] on a wrong-sized input.
    pub fn rhs(&self, power_blocks: &[f64]) -> Result<Vec<f64>, ThermalError> {
        let mut b = vec![0.0; self.n_nodes];
        self.rhs_into(power_blocks, &mut b)?;
        Ok(b)
    }

    /// [`RcNetwork::rhs`] into a caller-owned buffer (the allocation-free
    /// path the transient integrator steps with).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] on a wrong-sized input.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.n_nodes()`.
    pub fn rhs_into(&self, power_blocks: &[f64], out: &mut [f64]) -> Result<(), ThermalError> {
        if power_blocks.len() != self.n_blocks {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.n_blocks,
                got: power_blocks.len(),
            });
        }
        assert_eq!(out.len(), self.n_nodes, "rhs buffer length mismatch");
        out[..self.n_blocks].copy_from_slice(power_blocks);
        out[self.n_blocks..].fill(0.0);
        for (bi, g) in out.iter_mut().zip(&self.g_amb) {
            *bi += g * self.ambient;
        }
        Ok(())
    }

    /// Steady-state temperatures of the die blocks, in °C.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] on a wrong-sized input.
    pub fn steady_state(&self, power_blocks: &[f64]) -> Result<Vec<f64>, ThermalError> {
        Ok(self.steady_state_full(power_blocks)?[..self.n_blocks].to_vec())
    }

    /// Steady-state temperatures of every node (blocks first), in °C.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] on a wrong-sized input.
    pub fn steady_state_full(&self, power_blocks: &[f64]) -> Result<Vec<f64>, ThermalError> {
        let _t = hotnoc_obs::prof::scope("thermal/steady");
        let b = self.rhs(power_blocks)?;
        Ok(self.lu.solve(&b))
    }
}

/// The peak (maximum) of a temperature slice, ignoring NaNs.
pub fn peak(temps: &[f64]) -> f64 {
    temps.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net4() -> RcNetwork {
        let plan = Floorplan::mesh_grid(4, 4, 4.36e-6).unwrap();
        RcNetwork::build(&plan, &PackageConfig::date05_defaults()).unwrap()
    }

    #[test]
    fn zero_power_sits_at_ambient() {
        let net = net4();
        let t = net.steady_state_full(&[0.0; 16]).unwrap();
        for v in t {
            assert!((v - 40.0).abs() < 1e-9, "expected ambient, got {v}");
        }
    }

    #[test]
    fn uniform_power_gives_uniform_die_temps() {
        // In the block model every die block shares the same vertical path
        // into the spreader, so a perfectly uniform power map produces no
        // lateral gradient at all — gradients come from power non-uniformity
        // (see `hotspot_block_is_hottest` and `center_spreads_laterally`).
        let net = net4();
        let t = net.steady_state(&[1.5; 16]).unwrap();
        for &v in &t {
            assert!((v - t[0]).abs() < 1e-9, "uniform power must be isothermal");
        }
        assert!(t.iter().all(|&v| v > 41.0));
    }

    #[test]
    fn center_spreads_laterally() {
        // A lone hot block is cooler at the die centre than at a corner:
        // four lateral neighbours to spread into instead of two.
        let net = net4();
        let mut at_corner = vec![0.5; 16];
        at_corner[0] = 4.0;
        let mut at_center = vec![0.5; 16];
        at_center[5] = 4.0;
        let peak_corner = peak(&net.steady_state(&at_corner).unwrap());
        let peak_center = peak(&net.steady_state(&at_center).unwrap());
        assert!(
            peak_center < peak_corner,
            "center {peak_center} not cooler than corner {peak_corner}"
        );
    }

    #[test]
    fn uniform_power_is_symmetric() {
        let net = net4();
        let t = net.steady_state(&[2.0; 16]).unwrap();
        // Four-fold symmetry: corners equal.
        let corners = [t[0], t[3], t[12], t[15]];
        for c in corners {
            assert!((c - t[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn energy_conservation_at_steady_state() {
        let net = net4();
        let power = vec![1.0; 16];
        let t = net.steady_state_full(&power).unwrap();
        let out: f64 = t
            .iter()
            .zip(net.ambient_conductance())
            .map(|(ti, g)| g * (ti - net.ambient()))
            .sum();
        let total: f64 = power.iter().sum();
        assert!(
            (out - total).abs() < 1e-8,
            "heat out {out} != heat in {total}"
        );
    }

    #[test]
    fn superposition_holds() {
        let net = net4();
        let mut p1 = vec![0.0; 16];
        p1[0] = 3.0;
        let mut p2 = vec![0.0; 16];
        p2[10] = 2.0;
        let p12: Vec<f64> = p1.iter().zip(&p2).map(|(a, b)| a + b).collect();
        let t1 = net.steady_state(&p1).unwrap();
        let t2 = net.steady_state(&p2).unwrap();
        let t12 = net.steady_state(&p12).unwrap();
        for i in 0..16 {
            let lhs = t12[i] - net.ambient();
            let rhs = (t1[i] - net.ambient()) + (t2[i] - net.ambient());
            assert!((lhs - rhs).abs() < 1e-9);
        }
    }

    #[test]
    fn hotspot_block_is_hottest() {
        let net = net4();
        let mut p = vec![0.5; 16];
        p[6] = 4.0;
        let t = net.steady_state(&p).unwrap();
        let hottest = t
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(hottest, 6);
    }

    #[test]
    fn more_power_means_hotter() {
        let net = net4();
        let t1 = net.steady_state(&[1.0; 16]).unwrap();
        let t2 = net.steady_state(&[2.0; 16]).unwrap();
        for (a, b) in t1.iter().zip(&t2) {
            assert!(b > a);
        }
    }

    #[test]
    fn wrong_power_length_rejected() {
        let net = net4();
        assert!(matches!(
            net.steady_state(&[1.0; 3]),
            Err(ThermalError::PowerLengthMismatch {
                expected: 16,
                got: 3
            })
        ));
    }

    #[test]
    fn paper_power_band_reaches_paper_temperatures() {
        // ~1.4-2 W per block should land in the paper's 72-86 C band.
        let net = net4();
        let t = net.steady_state(&[1.7; 16]).unwrap();
        let pk = peak(&t);
        assert!(
            (60.0..100.0).contains(&pk),
            "peak {pk} outside plausible band"
        );
    }

    #[test]
    fn sparse_conductance_matches_dense_and_is_sparse() {
        // The CSR matrix is the one the dense LU factored: it maps the
        // steady state back onto its right-hand side.
        let net = net4();
        let s = net.conductance_sparse();
        let p: Vec<f64> = (0..16).map(|i| 0.5 + 0.2 * i as f64).collect();
        let applied = s.matvec(&net.steady_state_full(&p).unwrap());
        for (got, want) in applied.iter().zip(net.rhs(&p).unwrap()) {
            assert!((got - want).abs() < 1e-8, "{got} != {want}");
        }
        // A handful of nonzeros per row on average, far below n².
        assert!(s.nnz() < 10 * s.rows(), "nnz {} too dense", s.nnz());
        // Symmetric (CG requires it).
        for i in 0..s.rows() {
            for j in 0..s.cols() {
                assert_eq!(s.get(i, j), s.get(j, i));
            }
        }
    }

    /// The lateral conductance of blocks `i < j` of a `width`-wide grid of
    /// `side`-metre squares, from rectangle geometry: the shared edge (1 nm
    /// contact tolerance, corner contact excluded) over the centroid
    /// distance. Zero for blocks that share no edge.
    fn rectangle_conductance(
        pkg: &PackageConfig,
        width: usize,
        side: f64,
        i: usize,
        j: usize,
    ) -> f64 {
        const EPS: f64 = 1e-9;
        let corner = |k: usize| ((k % width) as f64 * side, (k / width) as f64 * side);
        let ((ax, ay), (bx, by)) = (corner(i), corner(j));
        let x_overlap = (ax + side).min(bx + side) - ax.max(bx);
        let y_overlap = (ay + side).min(by + side) - ay.max(by);
        let touch_x = ((ax + side) - bx).abs() < EPS || ((bx + side) - ax).abs() < EPS;
        let touch_y = ((ay + side) - by).abs() < EPS || ((by + side) - ay).abs() < EPS;
        let edge = if touch_x && y_overlap > EPS {
            y_overlap
        } else if touch_y && x_overlap > EPS {
            x_overlap
        } else {
            return 0.0;
        };
        let (acx, acy) = (ax + side / 2.0, ay + side / 2.0);
        let (bcx, bcy) = (bx + side / 2.0, by + side / 2.0);
        let dist = ((acx - bcx).powi(2) + (acy - bcy).powi(2)).sqrt();
        pkg.die.conductivity * pkg.t_die * edge / dist
    }

    #[test]
    fn grid_lateral_conductances_are_the_rectangle_geometrys_bit_for_bit() {
        let pkg = PackageConfig::date05_defaults();
        for unit_area in [4.36e-6, 1e-6] {
            let side = f64::sqrt(unit_area);
            for (width, height) in (1..=9).flat_map(|w| (1..=9).map(move |h| (w, h))) {
                let plan = Floorplan::mesh_grid(width, height, unit_area).unwrap();
                let net = RcNetwork::build(&plan, &pkg).unwrap();
                let g = net.conductance_sparse();
                let n = width * height;
                for i in 0..n {
                    let (cols, vals) = g.row(i);
                    for j in (0..n).filter(|&j| j != i) {
                        let want = rectangle_conductance(&pkg, width, side, i.min(j), i.max(j));
                        let stored = cols.iter().position(|&c| c == j).map(|k| -vals[k]);
                        if want == 0.0 {
                            assert_eq!(stored, None, "{width}x{height}: ({i}, {j}) stored");
                        } else {
                            let got = stored.unwrap_or_else(|| panic!("({i}, {j}) missing"));
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{width}x{height}: ({i}, {j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rhs_into_matches_rhs() {
        let net = net4();
        let p: Vec<f64> = (0..16).map(|i| 0.3 + 0.1 * i as f64).collect();
        let a = net.rhs(&p).unwrap();
        let mut b = vec![7.0; net.n_nodes()]; // stale garbage must be overwritten
        net.rhs_into(&p, &mut b).unwrap();
        assert_eq!(a, b);
        assert!(net.rhs_into(&[0.0; 3], &mut b).is_err());
    }

    #[test]
    fn capacities_positive_and_sink_largest() {
        let net = net4();
        assert!(net.capacities().iter().all(|&c| c > 0.0));
        let sink = *net.capacities().last().unwrap();
        assert!(net.capacities()[..net.n_nodes() - 1]
            .iter()
            .all(|&c| c < sink));
    }
}
