//! Engineering benches for the thermal solver: steady-state solve, network
//! construction and transient stepping — the inner loop of the
//! co-simulation (thousands of backward-Euler steps per experiment). The
//! `be_step`/`rk4_step` series sweeps mesh sizes up to 32x32 (2054 thermal
//! nodes) to capture how transient cost scales with the network.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hotnoc_thermal::{
    Floorplan, Integrator, PackageConfig, RcNetwork, TransientLanes, TransientSim,
};

fn build(side: usize, pkg: &PackageConfig) -> RcNetwork {
    let plan = Floorplan::mesh_grid(side, side, 4.36e-6).expect("plan");
    RcNetwork::build(&plan, pkg).expect("build")
}

/// A migrating workload's power maps: an uneven `side`x`side` map (0.5 to
/// 3 W per tile) X-Y shifted by one tile per map, one orbit long, and the
/// steady-state power of the orbit average. Stepping through one map per
/// step from that steady state moves the state every step, as migration
/// and leakage do in the co-simulation, so the warm-started CG iterates
/// (2 iterations a step up to 16x16, 1 on 32x32) instead of starting at
/// its solution.
fn orbit(side: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let n = side * side;
    let base: Vec<f64> = (0..n)
        .map(|i| 0.5 + 2.5 * ((i * 7) % 11) as f64 / 10.0)
        .collect();
    let maps: Vec<Vec<f64>> = (0..side)
        .map(|k| {
            (0..n)
                .map(|i| base[(i % side + k) % side + (i / side + k) % side * side])
                .collect()
        })
        .collect();
    let average = (0..n)
        .map(|i| maps.iter().map(|m| m[i]).sum::<f64>() / side as f64)
        .collect();
    (maps, average)
}

fn bench_thermal(c: &mut Criterion) {
    let pkg = PackageConfig::date05_defaults();

    let mut group = c.benchmark_group("thermal/build");
    for side in [4usize, 5, 8, 16] {
        group.bench_function(format!("{side}x{side}"), |b| {
            let plan = Floorplan::mesh_grid(side, side, 4.36e-6).expect("plan");
            b.iter(|| RcNetwork::build(black_box(&plan), &pkg).expect("build"));
        });
    }
    group.finish();

    let net5 = build(5, &pkg);
    let power = vec![1.2; 25];

    c.bench_function("thermal/steady_state_5x5", |b| {
        b.iter(|| net5.steady_state(black_box(&power)).expect("solve"))
    });

    // Transient stepping across mesh sizes under a power map that changes
    // every step: the largest configs are where dense O(n^2) stepping
    // leaves an order of magnitude on the table. Each network is built
    // once, outside the timed closure the harness calls per sample (a
    // 32x32 build LU-factors a 2054-node system).
    let mut group = c.benchmark_group("thermal/be_step");
    for side in [5usize, 8, 16, 32] {
        let net = build(side, &pkg);
        let (maps, average) = orbit(side);
        let mut sim = TransientSim::new(&net, 5e-6, Integrator::BackwardEuler).expect("sim");
        sim.init_from_steady(&average).expect("init");
        let mut k = 0;
        group.bench_function(format!("{side}x{side}"), |b| {
            b.iter(|| {
                k = (k + 1) % side;
                sim.step(black_box(&maps[k])).expect("step")
            })
        });
    }
    // Four co-simulations of one chip in lockstep, each a different phase
    // of the orbit: one iteration steps all four.
    let (maps, average) = orbit(5);
    let mut lanes = TransientLanes::<4>::new(&net5, 5e-6).expect("lanes");
    for lane in 0..4 {
        lanes.init_from_steady(lane, &average).expect("init");
    }
    let mut k = 0;
    group.bench_function("5x5/4-lane", |b| {
        b.iter(|| {
            k = (k + 1) % 5;
            let power = std::array::from_fn(|lane| Some(&maps[(k + lane) % 5][..]));
            for done in lanes.step(black_box(power)) {
                done.expect("step");
            }
        })
    });
    group.finish();

    let mut group = c.benchmark_group("thermal/rk4_step");
    for side in [5usize, 16] {
        let net = build(side, &pkg);
        let p = vec![1.2; side * side];
        let mut sim = TransientSim::new(&net, 5e-6, Integrator::Rk4).expect("sim");
        sim.init_from_steady(&p).expect("init");
        group.bench_function(format!("{side}x{side}"), |b| {
            b.iter(|| sim.step(black_box(&p)).expect("step"))
        });
    }
    group.finish();

    c.bench_function("thermal/cosim_window_1ms_5x5", |b| {
        // 200 BE steps of 5 us = 1 ms of simulated time: the unit of work
        // the migration co-simulation performs per millisecond.
        b.iter(|| {
            let mut sim = TransientSim::new(&net5, 5e-6, Integrator::BackwardEuler).expect("sim");
            sim.init_from_steady(&power).expect("init");
            for _ in 0..200 {
                sim.step(&power).expect("step");
            }
            sim.peak_block_temp()
        })
    });
}

criterion_group!(benches, bench_thermal);
criterion_main!(benches);
