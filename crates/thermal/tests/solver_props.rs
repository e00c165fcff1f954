//! Property tests for the thermal stack: LU correctness on random
//! diagonally dominant systems, physical monotonicity of the RC network and
//! unconditional stability of backward Euler.

use hotnoc_thermal::linalg::Lu;
use hotnoc_thermal::{
    Floorplan, Integrator, PackageConfig, RcNetwork, TransientSim, TripletBuilder,
};
use proptest::prelude::*;

fn net() -> RcNetwork {
    let plan = Floorplan::mesh_grid(4, 4, 4.36e-6).unwrap();
    RcNetwork::build(&plan, &PackageConfig::date05_defaults()).unwrap()
}

proptest! {
    // Raised from the vendored default of 64 now that transient stepping is
    // sparse (ROADMAP open item): the invariants deserve a denser sample.
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn lu_solves_random_dominant_systems(
        n in 2usize..24,
        seed in 0u64..10_000,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = TripletBuilder::new(n, n);
        for i in 0..n {
            for j in 0..n {
                m.add(i, j, rng.gen_range(-1.0..1.0));
            }
            m.add(i, i, n as f64 + 1.0);
        }
        let m = m.build();
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let b = m.matvec(&x);
        let got = Lu::factor(&m).unwrap().solve(&b);
        for (a, e) in got.iter().zip(&x) {
            prop_assert!((a - e).abs() < 1e-8, "{a} != {e}");
        }
    }

    #[test]
    fn hotter_inputs_give_hotter_outputs(
        idx in 0usize..16,
        base in 0.2f64..2.0,
        extra in 0.1f64..3.0,
    ) {
        let net = net();
        let p1 = vec![base; 16];
        let mut p2 = p1.clone();
        p2[idx] += extra;
        let t1 = net.steady_state(&p1).unwrap();
        let t2 = net.steady_state(&p2).unwrap();
        // Adding power anywhere cannot cool any block (M-matrix property).
        for (a, b) in t1.iter().zip(&t2) {
            prop_assert!(*b >= a - 1e-12);
        }
        // And the boosted block heats strictly.
        prop_assert!(t2[idx] > t1[idx] + 1e-9);
    }

    #[test]
    fn backward_euler_stays_finite_for_any_dt(
        dt_exp in -7.0f64..2.0,
        watts in 0.0f64..4.0,
    ) {
        let net = net();
        let dt = 10f64.powf(dt_exp);
        let mut sim = TransientSim::new(&net, dt, Integrator::BackwardEuler).unwrap();
        let p = vec![watts; 16];
        for _ in 0..50 {
            sim.step(&p).unwrap();
        }
        prop_assert!(sim.temps().iter().all(|t| t.is_finite()));
        // Bounded by the steady state (monotone approach from ambient).
        let steady = net.steady_state(&p).unwrap();
        let steady_peak = steady.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(sim.peak_block_temp() <= steady_peak + 1e-6);
    }

    #[test]
    fn steady_state_scales_linearly(scale in 0.1f64..10.0) {
        let net = net();
        let amb = net.ambient();
        let p1 = vec![1.0; 16];
        let p2: Vec<f64> = p1.iter().map(|p| p * scale).collect();
        let t1 = net.steady_state(&p1).unwrap();
        let t2 = net.steady_state(&p2).unwrap();
        for (a, b) in t1.iter().zip(&t2) {
            let rise1 = a - amb;
            let rise2 = b - amb;
            prop_assert!((rise2 - scale * rise1).abs() < 1e-8);
        }
    }
}
