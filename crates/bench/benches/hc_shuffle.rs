//! Criterion bench: HyperCube shuffle + local join throughput for the
//! triangle query (experiment E1's engine), across server counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mpc_core::hypercube::HyperCubeProgram;
use mpc_core::space_exponent::space_exponent;
use mpc_cq::families;
use mpc_data::matching_database;
use mpc_sim::{Cluster, MpcConfig};

fn bench_hc_triangle(c: &mut Criterion) {
    let q = families::triangle();
    let n = 5_000;
    let db = matching_database(&q, n, 42);
    let eps = space_exponent(&q).unwrap().to_f64();

    let mut group = c.benchmark_group("hypercube_c3");
    group.sample_size(10);
    for p in [8usize, 64, 216] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            let cluster = Cluster::new(MpcConfig::new(p, eps)).unwrap();
            b.iter(|| cluster.run(&HyperCubeProgram::new(&q, p, 0x5EED).unwrap(), &db).unwrap());
        });
    }
    group.finish();
}

fn bench_hc_chain(c: &mut Criterion) {
    let n = 5_000;
    let mut group = c.benchmark_group("hypercube_chain");
    group.sample_size(10);
    for k in [2usize, 3, 4] {
        let q = families::chain(k);
        let db = matching_database(&q, n, 7);
        let eps = space_exponent(&q).unwrap().to_f64();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            let cluster = Cluster::new(MpcConfig::new(64, eps)).unwrap();
            b.iter(|| cluster.run(&HyperCubeProgram::new(&q, 64, 0x5EED).unwrap(), &db).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hc_triangle, bench_hc_chain);
criterion_main!(benches);
