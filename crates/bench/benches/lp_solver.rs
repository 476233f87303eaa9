//! Criterion bench: the LP solver behind Figure 1 / Table 1, and the planning it serves.
//!
//! Three groups track the perf story of the LP layer across PRs:
//!
//! * `query_lps` — the production path ([`QueryLps::solve`]: closed form,
//!   else sparse simplex) on the figure-1 suite plus the `--k` sweep sizes;
//! * `sparse_vs_dense` — the raw sparse revised simplex against the dense
//!   tableau oracle on the same queries (no closed forms);
//! * `plan` — what the LPs are solved *for*: building and compiling the
//!   `ε = 0` multi-round plan of a chain ([`MultiRoundPlan::build`] +
//!   [`PlanProgram::new`] at `p = 64`), which solves the LPs of every
//!   operator of the plan several times over.
//!
//! With `MPC_BENCH_JSON=<dir>` (or `--json <path>`) the bench also writes
//! machine-readable rows — `{name, mean_ns, iterations}` — to
//! `BENCH_lp.json` via [`mpc_bench::maybe_write_json`], so the trajectory
//! is diffable between PRs:
//!
//! ```text
//! MPC_BENCH_JSON=target/bench-json cargo bench -p mpc-bench --bench lp_solver
//! ```
//!
//! CI ratchets `plan/L24 ≤ 25 × sparse/L24` within one run: planning a
//! chain must stay a small multiple of solving it (6.7× when recorded;
//! 530× while a memo table keyed by a canonical labelling sat in front of
//! the simplex).

use criterion::{criterion_group, BenchmarkId, Criterion};

use mpc_bench::{json_output_path, maybe_write_json, BenchRow};
use mpc_core::multiround::executor::PlanProgram;
use mpc_core::multiround::planner::MultiRoundPlan;
use mpc_cq::{families, Query};
use mpc_lp::{QueryLps, Rational};

/// The benched queries: the figure-1 suite plus the sweep sizes the
/// claims T1 and F1 reach at full scale.
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

/// The chains whose `ε = 0` plan the `plan` group builds and compiles.
const PLAN_CHAINS: [usize; 2] = [8, 24];

/// Plan `q` at `ε = 0` and compile the plan for `p = 64` servers.
fn plan_and_compile(q: &Query) -> PlanProgram {
    let plan = MultiRoundPlan::build(q, Rational::ZERO).unwrap();
    PlanProgram::new(&plan, 64, 7).unwrap()
}

fn bench_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan");
    for k in PLAN_CHAINS {
        let q = families::chain(k);
        group.bench_with_input(BenchmarkId::from_parameter(format!("L{k}")), &q, |b, q| {
            b.iter(|| plan_and_compile(q));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_query_lps, bench_sparse_vs_dense, bench_plan);

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
    for k in PLAN_CHAINS {
        let q = families::chain(k);
        rows.push(BenchRow::measure(format!("plan/L{k}"), iters, || {
            drop(plan_and_compile(&q));
        }));
    }
    maybe_write_json("BENCH_lp", &rows);
}

fn main() {
    benches();
    write_bench_json();
}
