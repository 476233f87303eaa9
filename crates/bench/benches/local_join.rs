//! Criterion bench: the per-server local join engine (sequential ground
//! truth and the inner loop of every simulated server).
//!
//! With `MPC_BENCH_JSON=<dir>` (or `--json <path>`) the bench also writes
//! machine-readable rows (`{name, mean_ns, iterations}`) to
//! `BENCH_local_join.json` via [`mpc_bench::maybe_write_json`]; CI gates
//! them against the committed baseline with `tools/bench_gate.rs`:
//!
//! ```text
//! MPC_BENCH_JSON=target/bench-json cargo bench -p mpc-bench --bench local_join
//! ```

use criterion::{criterion_group, BenchmarkId, Criterion};

use mpc_bench::{json_output_path, maybe_write_json, BenchRow};
use mpc_cq::{families, Query};
use mpc_data::matching_database;
use mpc_storage::join::evaluate;

/// Tuples per relation of every case.
const TUPLES: u64 = 20_000;

fn suite() -> Vec<(&'static str, Query)> {
    vec![
        ("L2", families::chain(2)),
        ("L4", families::chain(4)),
        ("C3", families::cycle(3)),
        ("T3", families::star(3)),
    ]
}

fn bench_local_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_join");
    group.sample_size(20);
    for (name, q) in suite() {
        let db = matching_database(&q, TUPLES, 3);
        group.bench_with_input(BenchmarkId::from_parameter(name), &q, |b, q| {
            b.iter(|| evaluate(q, &db).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_local_join);

/// Measure every case once more, deterministically, and write the JSON
/// artefact. Skipped unless a JSON sink was requested.
fn write_bench_json() {
    if json_output_path("BENCH_local_join").is_none() {
        return;
    }
    let rows: Vec<BenchRow> = suite()
        .into_iter()
        .map(|(name, q)| {
            let db = matching_database(&q, TUPLES, 3);
            BenchRow::measure(format!("local_join/{name}"), 20, || {
                drop(evaluate(&q, &db).unwrap());
            })
        })
        .collect();
    maybe_write_json("BENCH_local_join", &rows);
}

fn main() {
    benches();
    write_bench_json();
}
