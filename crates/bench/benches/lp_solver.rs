//! Criterion bench: the layered LP solver behind Figure 1 / Table 1.
//!
//! Three groups track the perf story of the LP layer across PRs:
//!
//! * `query_lps` — the production fast path ([`QueryLps::solve`]:
//!   closed form → cache → sparse simplex) on the figure-1 suite plus the
//!   `--k` sweep sizes;
//! * `sparse_vs_dense` — the raw sparse revised simplex against the dense
//!   tableau oracle on the same queries (no cache, no closed forms);
//! * `cache_cold_vs_warm` — the full layered solve against a cold private
//!   cache vs a pre-warmed one, on **non-family** queries (recognised
//!   families short-circuit to the closed form and never touch the cache,
//!   so family queries would measure the wrong layer).
//!
//! With `MPC_BENCH_JSON=<dir>` (or `--json <path>`) the bench also writes
//! machine-readable rows — `{name, mean_ns, iterations}` — to
//! `BENCH_lp.json` via [`mpc_bench::maybe_write_json`], so the trajectory
//! is diffable between PRs:
//!
//! ```text
//! MPC_BENCH_JSON=target/bench-json cargo bench -p mpc-bench --bench lp_solver
//! ```

use criterion::{criterion_group, BenchmarkId, Criterion};

use mpc_bench::{json_output_path, maybe_write_json, BenchRow};
use mpc_cq::{families, Query};
use mpc_lp::{LpCache, QueryLps};

/// The benched queries: the figure-1 suite plus the sweep sizes the
/// `table1`/`figure1_lps` binaries now reach.
fn suite() -> Vec<(&'static str, Query)> {
    vec![
        ("C3", families::cycle(3)),
        ("C8", families::cycle(8)),
        ("C18", families::cycle(18)),
        ("L16", families::chain(16)),
        ("L24", families::chain(24)),
        ("T8", families::star(8)),
        ("B5_2", families::binomial(5, 2).unwrap()),
        ("B8_2", families::binomial(8, 2).unwrap()),
        ("B12_2", families::binomial(12, 2).unwrap()),
        ("SP5", families::spoke(5)),
        ("SP9", families::spoke(9)),
        ("W", families::witness_query()),
    ]
}

fn bench_query_lps(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_lps");
    for (name, q) in suite() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &q, |b, q| {
            b.iter(|| QueryLps::solve(q).unwrap());
        });
    }
    group.finish();
}

fn bench_sparse_vs_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_vs_dense");
    for (name, q) in suite() {
        group.bench_with_input(BenchmarkId::new("sparse", name), &q, |b, q| {
            b.iter(|| QueryLps::solve_sparse(q).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("dense", name), &q, |b, q| {
            b.iter(|| QueryLps::solve_dense(q).unwrap());
        });
    }
    group.finish();
}

/// Non-family queries for the cache group: a triangle with a pendant path
/// of `tail` edges (never recognised, so the layered solve reaches the
/// cache), plus the witness query.
fn tailed_triangle(tail: usize) -> Query {
    let mut atoms = vec![
        ("S1".to_string(), vec!["a".to_string(), "b".to_string()]),
        ("S2".to_string(), vec!["b".to_string(), "c".to_string()]),
        ("S3".to_string(), vec!["c".to_string(), "a".to_string()]),
        ("B".to_string(), vec!["a".to_string(), "t0".to_string()]),
    ];
    for j in 0..tail {
        atoms.push((format!("P{j}"), vec![format!("t{j}"), format!("t{}", j + 1)]));
    }
    Query::new(format!("TT{tail}"), atoms).expect("valid tailed triangle")
}

/// The queries the cache groups run over.
fn cache_suite() -> Vec<(String, Query)> {
    let mut qs = vec![("W".to_string(), families::witness_query())];
    for tail in [2usize, 8, 16] {
        qs.push((format!("TT{tail}"), tailed_triangle(tail)));
    }
    qs
}

fn bench_cache_cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_cold_vs_warm");
    for (name, q) in cache_suite() {
        group.bench_with_input(BenchmarkId::new("cold", &name), &q, |b, q| {
            b.iter(|| {
                let cache = LpCache::new(8);
                QueryLps::solve_with_cache(&cache, q).unwrap()
            });
        });
        let warm = LpCache::new(8);
        QueryLps::solve_with_cache(&warm, &q).unwrap();
        group.bench_with_input(BenchmarkId::new("warm", &name), &q, |b, q| {
            b.iter(|| QueryLps::solve_with_cache(&warm, q).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_query_lps, bench_sparse_vs_dense, bench_cache_cold_vs_warm);

/// Measure every case once more, deterministically, and write the JSON
/// artefact. Skipped entirely unless a JSON sink was requested, so plain
/// `cargo test` runs stay fast.
fn write_bench_json() {
    if json_output_path("BENCH_lp").is_none() {
        return;
    }
    let iters = 15u32;
    let mut rows: Vec<BenchRow> = Vec::new();
    for (name, q) in suite() {
        rows.push(BenchRow::measure(format!("sparse/{name}"), iters, || {
            drop(QueryLps::solve_sparse(&q).unwrap());
        }));
        rows.push(BenchRow::measure(format!("dense/{name}"), iters, || {
            drop(QueryLps::solve_dense(&q).unwrap());
        }));
        rows.push(BenchRow::measure(format!("fastpath/{name}"), iters, || {
            drop(QueryLps::solve(&q).unwrap());
        }));
    }
    for (name, q) in cache_suite() {
        rows.push(BenchRow::measure(format!("cache_cold/{name}"), iters, || {
            let cache = LpCache::new(8);
            drop(QueryLps::solve_with_cache(&cache, &q).unwrap());
        }));
        let warm = LpCache::new(8);
        QueryLps::solve_with_cache(&warm, &q).unwrap();
        rows.push(BenchRow::measure(format!("cache_warm/{name}"), iters, || {
            drop(QueryLps::solve_with_cache(&warm, &q).unwrap());
        }));
    }
    maybe_write_json("BENCH_lp", &rows);
}

fn main() {
    benches();
    write_bench_json();
}
