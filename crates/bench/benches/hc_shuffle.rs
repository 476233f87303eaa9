//! Criterion bench: HyperCube shuffle + local join throughput for the
//! triangle query (experiment E1's engine), across server counts.
//!
//! With `MPC_BENCH_JSON=<dir>` (or `--json <path>`) the bench also writes
//! machine-readable rows (`{name, mean_ns, iterations}`) to
//! `BENCH_hc_shuffle.json`, among them `seq_join/C3`: the sequential join
//! of the very database `hypercube_c3/*` shuffles. CI gates the rows
//! against the committed baseline and ratchets `hypercube_c3/8` against
//! `seq_join/C3` — a same-run ratio, so it holds on any hardware:
//!
//! ```text
//! MPC_BENCH_JSON=target/bench-json cargo bench -p mpc-bench --bench hc_shuffle
//! ```

use criterion::{criterion_group, BenchmarkId, Criterion};

use mpc_bench::{json_output_path, maybe_write_json, BenchRow};
use mpc_core::hypercube::HyperCubeProgram;
use mpc_core::space_exponent::space_exponent;
use mpc_cq::{families, Query};
use mpc_data::matching_database;
use mpc_sim::{Cluster, MpcConfig};
use mpc_storage::join::evaluate;
use mpc_storage::Database;

/// Tuples per relation of every case.
const TUPLES: u64 = 5_000;

/// Server counts of the triangle cases.
const TRIANGLE_P: [usize; 3] = [8, 64, 216];

/// Chain lengths of the chain cases, all on 64 servers.
const CHAIN_K: [usize; 3] = [2, 3, 4];

/// The HyperCube of `q` on `p` servers at its space exponent, one run.
fn shuffle(q: &Query, db: &Database, p: usize) {
    let cluster = Cluster::new(MpcConfig::new(p, space_exponent(q).unwrap().to_f64())).unwrap();
    drop(cluster.run(&HyperCubeProgram::new(q, p, 0x5EED).unwrap(), db).unwrap());
}

fn bench_hc_triangle(c: &mut Criterion) {
    let q = families::triangle();
    let db = matching_database(&q, TUPLES, 42);
    let mut group = c.benchmark_group("hypercube_c3");
    group.sample_size(10);
    for p in TRIANGLE_P {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| shuffle(&q, &db, p));
        });
    }
    group.finish();
}

fn bench_hc_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("hypercube_chain");
    group.sample_size(10);
    for k in CHAIN_K {
        let q = families::chain(k);
        let db = matching_database(&q, TUPLES, 7);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| shuffle(&q, &db, 64));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hc_triangle, bench_hc_chain);

/// Measure every case once more, deterministically, and write the JSON
/// artefact. Skipped unless a JSON sink was requested.
fn write_bench_json() {
    if json_output_path("BENCH_hc_shuffle").is_none() {
        return;
    }
    let iters = 10u32;
    let q = families::triangle();
    let db = matching_database(&q, TUPLES, 42);
    let mut rows: Vec<BenchRow> = TRIANGLE_P
        .into_iter()
        .map(|p| BenchRow::measure(format!("hypercube_c3/{p}"), iters, || shuffle(&q, &db, p)))
        .collect();
    rows.push(BenchRow::measure("seq_join/C3", iters, || drop(evaluate(&q, &db).unwrap())));
    for k in CHAIN_K {
        let q = families::chain(k);
        let db = matching_database(&q, TUPLES, 7);
        rows.push(BenchRow::measure(format!("hypercube_chain/{k}"), iters, || {
            shuffle(&q, &db, 64)
        }));
    }
    maybe_write_json("BENCH_hc_shuffle", &rows);
}

fn main() {
    benches();
    write_bench_json();
}
