//! Criterion bench: the event-driven backend against the synchronous
//! reference, across queue capacities and straggler injection.
//!
//! Three groups carry the async-backend perf story across PRs:
//!
//! * `sync_vs_async` — the same HyperCube shuffle on [`Cluster::run`]
//!   versus [`Cluster::run_async`]: what the per-link queues, the
//!   threaded tasks and the schedule replay cost on top of the reference
//!   loop;
//! * `queue_capacity` — the async backend under shrinking per-link
//!   windows (more backpressure, more drain-retry cycles);
//! * `schedule_replay` — the virtual-clock simulation alone
//!   ([`mpc_sim::schedule::simulate`], the one-round-overlap replay
//!   `run_async` reports) on synthetic traffic, the pure
//!   discrete-event-loop cost.
//!
//! With `MPC_BENCH_JSON=<dir>` (or `--json <path>`) the bench also writes
//! machine-readable rows — `{name, mean_ns, iterations}` — to
//! `BENCH_async.json`:
//!
//! ```text
//! MPC_BENCH_JSON=target/bench-json cargo bench -p mpc-bench --bench async_backend
//! ```

use criterion::{criterion_group, BenchmarkId, Criterion};

use mpc_bench::{json_output_path, maybe_write_json, BenchRow};
use mpc_core::hypercube::HyperCubeProgram;
use mpc_cq::families;
use mpc_data::matching_database;
use mpc_sim::schedule::{simulate, CostModel, MsgRecord};
use mpc_sim::{AsyncConfig, Cluster, MpcConfig, StragglerSpec};
use mpc_storage::Database;

fn setup(n: u64) -> (HyperCubeProgram, Database, Cluster) {
    let q = families::triangle();
    let db = matching_database(&q, n, 13);
    let program = HyperCubeProgram::new(&q, 27, 42).unwrap();
    let cluster = Cluster::new(MpcConfig::new(27, 1.0 / 3.0)).unwrap();
    (program, db, cluster)
}

fn bench_sync_vs_async(c: &mut Criterion) {
    let (program, db, cluster) = setup(2_000);
    let mut group = c.benchmark_group("sync_vs_async");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("synchronous"), |b| {
        b.iter(|| cluster.run(&program, &db).unwrap());
    });
    group.bench_function(BenchmarkId::from_parameter("event_driven"), |b| {
        b.iter(|| cluster.run_async(&program, &db, &AsyncConfig::new()).unwrap());
    });
    group.bench_function(BenchmarkId::from_parameter("event_driven_straggler"), |b| {
        let cfg = AsyncConfig::new().with_straggler(StragglerSpec::new(7, 2, 8));
        b.iter(|| cluster.run_async(&program, &db, &cfg).unwrap());
    });
    group.finish();
}

fn bench_queue_capacity(c: &mut Criterion) {
    let (program, db, cluster) = setup(1_000);
    let mut group = c.benchmark_group("queue_capacity");
    group.sample_size(10);
    for capacity in [1usize, 8, 64, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(capacity), &capacity, |b, &cap| {
            let cfg = AsyncConfig::new().with_queue_capacity(cap);
            b.iter(|| cluster.run_async(&program, &db, &cfg).unwrap());
        });
    }
    group.finish();
}

/// Synthetic all-to-all traffic: every worker sends `m` packets to every
/// other worker per round.
fn all_to_all(p: usize, rounds: usize, m: usize) -> Vec<MsgRecord> {
    let mut traffic = Vec::new();
    for round in 1..=rounds {
        for from in 0..p {
            let mut seq = 0u64;
            for to in 0..p {
                for _ in 0..m {
                    traffic.push(MsgRecord { round, from, to, seq, bytes: 24, tuples: 1 });
                    seq += 1;
                }
            }
        }
    }
    // Round 1 must come from input servers in the schedule model's
    // protocol; reuse worker ids shifted past p for it.
    for msg in traffic.iter_mut().filter(|m| m.round == 1) {
        msg.from += p;
    }
    traffic
}

fn bench_schedule_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_replay");
    group.sample_size(10);
    for (p, rounds, m) in [(16usize, 2usize, 8usize), (32, 3, 8)] {
        let traffic = all_to_all(p, rounds, m);
        let slowdown = vec![1u64; p];
        let id = format!("p{p}_r{rounds}_{}msgs", traffic.len());
        group.bench_with_input(BenchmarkId::from_parameter(id), &traffic, |b, traffic| {
            b.iter(|| simulate(p, rounds, traffic, &CostModel::default(), &slowdown, 16));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sync_vs_async, bench_queue_capacity, bench_schedule_replay);

/// Measure the headline cases once more, deterministically, and write the
/// JSON artefact. Skipped unless a JSON sink was requested.
fn write_bench_json() {
    if json_output_path("BENCH_async").is_none() {
        return;
    }
    let iters = 10u32;
    let (program, db, cluster) = setup(2_000);
    let mut rows = vec![
        BenchRow::measure("synchronous/C3_hc", iters, || {
            drop(cluster.run(&program, &db).unwrap());
        }),
        BenchRow::measure("event_driven/C3_hc", iters, || {
            drop(cluster.run_async(&program, &db, &AsyncConfig::new()).unwrap());
        }),
    ];
    for capacity in [1usize, 64] {
        let cfg = AsyncConfig::new().with_queue_capacity(capacity);
        rows.push(BenchRow::measure(format!("event_driven_cap{capacity}/C3_hc"), iters, || {
            drop(cluster.run_async(&program, &db, &cfg).unwrap());
        }));
    }
    let traffic = all_to_all(16, 2, 8);
    rows.push(BenchRow::measure(format!("schedule_replay/{}msgs", traffic.len()), iters, || {
        drop(simulate(16, 2, &traffic, &CostModel::default(), &[1u64; 16], 16));
    }));
    maybe_write_json("BENCH_async", &rows);
}

fn main() {
    benches();
    write_bench_json();
}
