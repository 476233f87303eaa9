//! Criterion bench: HyperCube shuffle + local join throughput for the
//! triangle query (experiment E1's engine), across server counts.
//!
//! With `MPC_BENCH_JSON=<dir>` (or `--json <path>`) the bench also writes
//! machine-readable rows (`{name, mean_ns, iterations}`) to
//! `BENCH_hc_shuffle.json`, among them `seq_join/C3`: the sequential join
//! of the very database `hypercube_c3/*` shuffles, and `stats_scan/C3_skew`
//! beside `seq_join/C3_skew`: the exact statistics scan and the sequential
//! join of one degree-planted triangle database. CI gates the rows
//! against the committed baseline and ratchets `hypercube_c3/8` against
//! `seq_join/C3` and `stats_scan/C3_skew` against `seq_join/C3_skew` —
//! same-run ratios, so they hold on any hardware:
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
use mpc_data::skew::degree_planted_database;
use mpc_data::stats::{DbStatistics, StatsMode};
use mpc_sim::{Cluster, MpcConfig};
use mpc_storage::join::evaluate;
use mpc_storage::Database;

/// Tuples per relation of every case.
const TUPLES: u64 = 5_000;

/// Server counts of the triangle cases.
const TRIANGLE_P: [usize; 3] = [8, 64, 216];

/// Chain lengths of the chain cases, all on 64 servers.
const CHAIN_K: [usize; 3] = [2, 3, 4];

/// The triangle over one heavy key of degree `TUPLES / 2` per relation,
/// on a domain of `8 · TUPLES`: the input of the `C3_skew` rows.
fn skewed_triangle() -> (Query, Database) {
    let q = families::triangle();
    let db = degree_planted_database(&q, 8 * TUPLES, TUPLES as usize, 1, TUPLES as usize / 2, 42);
    (q, db)
}

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

fn bench_stats_scan(c: &mut Criterion) {
    let (q, db) = skewed_triangle();
    let mut group = c.benchmark_group("C3_skew");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("stats_scan"), |b| {
        b.iter(|| DbStatistics::collect(&db, StatsMode::Exact));
    });
    group.bench_function(BenchmarkId::from_parameter("seq_join"), |b| {
        b.iter(|| drop(evaluate(&q, &db).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_hc_triangle, bench_hc_chain, bench_stats_scan);

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
    let (skew_q, skew_db) = skewed_triangle();
    rows.push(BenchRow::measure("stats_scan/C3_skew", iters, || {
        drop(DbStatistics::collect(&skew_db, StatsMode::Exact))
    }));
    rows.push(BenchRow::measure("seq_join/C3_skew", iters, || {
        drop(evaluate(&skew_q, &skew_db).unwrap())
    }));
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
