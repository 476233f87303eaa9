//! Experiment **E8** (ablation; §3.1): integer share rounding. The ideal
//! HyperCube shares `p^{eᵢ}` are irrational; rounding them to integers
//! with `∏ pᵢ ≤ p` wastes some servers and slightly raises the per-server
//! load. This experiment quantifies the waste (cells used / p) and the
//! load penalty versus the ideal fractional load `n/p^{1/τ*}` for several
//! queries and server counts.
//!
//! CLI flags: `--scale <f64>` shrinks/grows the input; `--json <path>`
//! (or `MPC_BENCH_JSON=<dir>`) writes the rows as JSON.
//!
//! Output shape: one markdown table; rows = (query, `p`), columns = the
//! integer shares, cells used, server utilisation, and the measured max
//! load against the ideal fractional load (the rounding penalty).
//!
//! ```text
//! cargo run --release -p mpc-bench --bin exp_share_rounding
//! ```

use serde::Serialize;

use mpc_bench::{maybe_write_json, scaled, TextTable};
use mpc_core::hypercube::HyperCubeProgram;
use mpc_core::space_exponent::space_exponent;
use mpc_cq::families;
use mpc_data::matching_database;
use mpc_sim::{Cluster, MpcConfig};

#[derive(Serialize)]
struct Row {
    query: String,
    p: usize,
    shares: Vec<usize>,
    cells_used: usize,
    utilisation: f64,
    ideal_load_tuples: f64,
    measured_max_tuples: u64,
    penalty: f64,
}

fn main() {
    let n = scaled(8000, 500);
    let mut table = TextTable::new([
        "query",
        "p",
        "integer shares",
        "cells used",
        "server utilisation",
        "ideal max tuples n/p^(1/τ*)·ℓ·repl",
        "measured max tuples",
        "penalty (measured/ideal)",
    ]);
    let mut rows = Vec::new();

    for q in [families::cycle(3), families::chain(5), families::binomial(4, 2).unwrap()] {
        let db = matching_database(&q, n, 13);
        let eps = space_exponent(&q).expect("LP solvable");
        let tau = mpc_lp::cover::tau_star(&q).expect("LP solvable").to_f64();
        for p in [16usize, 50, 64, 100, 256] {
            let program = HyperCubeProgram::new(&q, p, 0x5EED).expect("HC plans");
            let alloc = program.allocation();
            let cluster = Cluster::new(MpcConfig::new(p, eps.to_f64())).expect("valid config");
            let run = cluster.run(&program, &db).expect("HC run succeeds");
            // Ideal per-server tuple count with perfect fractional shares:
            // every relation contributes n / p^{1/τ*} tuples.
            let ideal = q.num_atoms() as f64 * n as f64 / (p as f64).powf(1.0 / tau);
            let measured = run.max_load_tuples();
            let row = Row {
                query: q.name().to_string(),
                p,
                shares: alloc.shares.clone(),
                cells_used: alloc.num_cells(),
                utilisation: alloc.num_cells() as f64 / p as f64,
                ideal_load_tuples: ideal,
                measured_max_tuples: measured,
                penalty: measured as f64 / ideal.max(1.0),
            };
            table.row([
                row.query.clone(),
                p.to_string(),
                format!("{:?}", row.shares),
                row.cells_used.to_string(),
                format!("{:.2}", row.utilisation),
                format!("{:.0}", row.ideal_load_tuples),
                row.measured_max_tuples.to_string(),
                format!("{:.2}", row.penalty),
            ]);
            rows.push(row);
        }
    }
    table.print(&format!("E8 — integer share rounding ablation (n = {n})"));
    println!(
        "\nExpected shape: when p is a perfect power matching the share exponents (e.g. 27, 64 \
         for C3) utilisation is 1.0 and the penalty stays close to 1; for awkward p (50, 100) \
         some servers idle and the busiest server carries up to ~2x the ideal fractional load."
    );
    maybe_write_json("exp_share_rounding", &rows);
}
