//! Engineering benches for the LDPC workload: code construction and the
//! NoC application block that feeds the thermal flow.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hotnoc_ldpc::app::{ComputeModel, LdpcNocApp};
use hotnoc_ldpc::schedule::MessageParams;
use hotnoc_ldpc::{ClusterMapping, LdpcCode};
use hotnoc_noc::{Mesh, Network, NocConfig};

fn bench_ldpc(c: &mut Criterion) {
    c.bench_function("ldpc/gallager_construction_1200", |b| {
        b.iter(|| LdpcCode::gallager(1200, 3, 6, black_box(7)).expect("code"))
    });

    let mut group = c.benchmark_group("ldpc/noc_block");
    group.sample_size(10);
    group.meta("4x4", 1);
    group.bench_function("4x4_10iters", |b| {
        let code = LdpcCode::gallager(960, 3, 6, 7).expect("code");
        let mapping = ClusterMapping::contiguous(&code, 16).expect("mapping");
        let mut app = LdpcNocApp::new(
            code,
            mapping,
            LdpcNocApp::identity_placement(16),
            MessageParams::default(),
            ComputeModel::default(),
        )
        .expect("app");
        b.iter(|| {
            let mut net = Network::new(Mesh::square(4).expect("mesh"), NocConfig::default());
            app.run_block(&mut net, 10).expect("block")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ldpc);
criterion_main!(benches);
