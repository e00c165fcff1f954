//! Replayed LDPC iterations are exact.
//!
//! `LdpcNocApp::run_block` steps iterations until one starts in the network
//! state the previous one started in, then applies the rest from the last
//! one's log (`Network::repeat_period`). The oracle is the same app and
//! network driven by one-iteration blocks, which cannot repeat anything.
//! Over random codes, meshes from 2x2 to 8x8, tile weights, placements and
//! iteration counts, some networks striped across 2–4 threads down to one
//! dirty router, both must agree on the block's cycles and operations, the
//! network's cycle and statistics and every router's activity — and so
//! must a second block run on each afterwards.

use hotnoc::ldpc::app::{BlockRun, ComputeModel, LdpcNocApp};
use hotnoc::ldpc::schedule::MessageParams;
use hotnoc::ldpc::{ClusterMapping, LdpcCode};
use hotnoc::noc::{Mesh, Network, NocConfig, NodeId};
use hotnoc::obs::prof;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One random case: the app, a network for it, and two block lengths.
struct Case {
    app: LdpcNocApp,
    mesh: Mesh,
    threads: Option<usize>,
    iterations: [usize; 2],
}

fn case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = rng.gen_range(2..9usize);
    let tiles = side * side;
    // Gallager (wc 3, wr 6): n / 2 checks, and every tile needs one.
    let n = 6 * rng.gen_range((tiles / 3 + 1).max(4)..(tiles / 3 + 40));
    let code = LdpcCode::gallager(n, 3, 6, rng.gen()).expect("code");
    let weights: Vec<f64> = (0..tiles).map(|_| rng.gen_range(0.5..2.0)).collect();
    let mapping = ClusterMapping::weighted(&code, &weights).expect("mapping");
    let mut placement: Vec<NodeId> = LdpcNocApp::identity_placement(tiles);
    placement.shuffle(&mut rng);
    let app = LdpcNocApp::new(
        code,
        mapping,
        placement,
        MessageParams::default(),
        ComputeModel::default(),
    )
    .expect("app");
    Case {
        app,
        mesh: Mesh::square(side).expect("mesh"),
        threads: rng.gen_bool(0.4).then(|| rng.gen_range(2..5)),
        iterations: [rng.gen_range(1..9), rng.gen_range(1..9)],
    }
}

/// A block of `iterations` driven one iteration at a time: nothing repeats.
fn stepped(app: &mut LdpcNocApp, net: &mut Network, iterations: usize) -> BlockRun {
    let mut total = BlockRun {
        cycles: 0,
        ops_per_node: vec![0; net.mesh().len()],
    };
    for _ in 0..iterations {
        let run = app.run_block(net, 1).expect("block");
        total.cycles += run.cycles;
        for (sum, ops) in total.ops_per_node.iter_mut().zip(run.ops_per_node) {
            *sum += ops;
        }
    }
    total
}

fn assert_same(seed: u64, a: &Network, b: &Network) {
    assert_eq!(a.cycle(), b.cycle(), "case {seed}");
    assert_eq!(a.stats(), b.stats(), "case {seed}");
    for node in a.mesh().iter_nodes() {
        assert_eq!(
            a.router(node).activity(),
            b.router(node).activity(),
            "case {seed}, node {node}"
        );
    }
}

#[test]
fn replayed_blocks_equal_stepped_blocks() {
    prof::take_report();
    prof::set_enabled(true);
    let cases = 64;
    for seed in 0..cases {
        let Case {
            app,
            mesh,
            threads,
            iterations,
        } = case(seed);
        let (mut replayed, mut oracle) = (app.clone(), app);
        let mut net = Network::new(mesh, NocConfig::default());
        if let Some(t) = threads {
            net.set_threads(t);
            net.set_par_threshold(1);
        }
        let mut reference = Network::new(mesh, NocConfig::default());
        reference.set_threads(1);
        for its in iterations {
            let run = replayed.run_block(&mut net, its).expect("block");
            let want = stepped(&mut oracle, &mut reference, its);
            assert_eq!(run, want, "case {seed}");
            assert_same(seed, &net, &reference);
        }
    }
    prof::set_enabled(false);
    let repeats = prof::take_report()
        .phases
        .iter()
        .find(|p| p.name == "noc/repeat")
        .map_or(0, |p| p.calls);
    println!("{repeats} repeats over {cases} cases of two blocks");
    // A block of one iteration never repeats, nor does one whose state has
    // not settled before its last iteration; the rest should.
    assert!(
        repeats >= cases,
        "only {repeats} repeats over {cases} cases of two blocks"
    );
}
