//! Experiment **E1** (Example 3.1 / Proposition 3.2): per-server load of
//! the HyperCube algorithm on the triangle query `C_3` as the number of
//! servers grows, compared against the broadcast baseline and the
//! `O(n/p^{1−ε})` budget. The *shape* to reproduce: HC load falls like
//! `p^{−1/3}`... i.e. `n / p^{1/τ*}`, stays within the ε = 1/3 budget, and
//! is far below broadcast.
//!
//! CLI flags: `--scale <f64>` shrinks/grows the input; `--json <path>`
//! (or `MPC_BENCH_JSON=<dir>`) writes the rows as JSON.
//!
//! Output shape: one markdown table; rows = server count `p`, columns =
//! integer shares, HC max bytes/server vs the budget, replication, the
//! broadcast baseline's load and the answer count.
//!
//! ```text
//! cargo run --release -p mpc-bench --bin exp_hypercube_load
//! ```

use serde::Serialize;

use mpc_bench::{maybe_write_json, scaled, TextTable};
use mpc_core::baseline::BroadcastProgram;
use mpc_core::hypercube::HyperCubeProgram;
use mpc_core::space_exponent::space_exponent;
use mpc_cq::families;
use mpc_data::matching_database;
use mpc_sim::{Cluster, MpcConfig};
use mpc_storage::join::evaluate;

#[derive(Serialize)]
struct Row {
    p: usize,
    shares: Vec<usize>,
    hc_max_bytes: u64,
    budget_bytes: u64,
    hc_within_budget: bool,
    hc_replication: f64,
    broadcast_max_bytes: u64,
    answers: usize,
    correct: bool,
}

fn main() {
    let q = families::triangle();
    let n = scaled(20_000, 500);
    let db = matching_database(&q, n, 42);
    let truth = evaluate(&q, &db).expect("sequential evaluation succeeds");
    let eps = space_exponent(&q).expect("LP solvable");

    let mut table = TextTable::new([
        "p",
        "shares",
        "HC max bytes/server",
        "budget c·N/p^(1-ε)",
        "within budget",
        "HC replication",
        "broadcast max bytes",
        "answers",
    ]);
    let mut rows = Vec::new();
    for p in [8usize, 27, 64, 216, 512, 1000] {
        let cluster = Cluster::new(MpcConfig::new(p, eps.to_f64())).expect("valid config");
        let program = HyperCubeProgram::new(&q, p, 0x5EED).expect("HC plans");
        let hc = cluster.run(&program, &db).expect("HC run succeeds");
        let broadcast =
            cluster.run(&BroadcastProgram::new(q.clone()), &db).expect("broadcast run succeeds");
        let correct = hc.output.same_tuples(&truth);
        let row = Row {
            p,
            shares: program.allocation().shares.clone(),
            hc_max_bytes: hc.max_load_bytes(),
            budget_bytes: hc.rounds[0].budget_bytes,
            hc_within_budget: hc.within_budget(),
            hc_replication: hc.max_replication_rate(),
            broadcast_max_bytes: broadcast.max_load_bytes(),
            answers: hc.output.len(),
            correct,
        };
        table.row([
            p.to_string(),
            format!("{:?}", row.shares),
            row.hc_max_bytes.to_string(),
            row.budget_bytes.to_string(),
            row.hc_within_budget.to_string(),
            format!("{:.2}", row.hc_replication),
            row.broadcast_max_bytes.to_string(),
            format!("{} ({})", row.answers, if correct { "exact" } else { "WRONG" }),
        ]);
        rows.push(row);
    }
    table.print(&format!("E1 — HyperCube load for C3 (n = {n}, ε = {eps}), vs broadcast"));
    println!(
        "\nExpected shape (Prop 3.2): max load ≈ 3·n·8·2 / p^(2/3) bytes (each relation \
         replicated p^(1/3) times over p servers); broadcast stays at 3·n·16 bytes regardless of p."
    );
    maybe_write_json("exp_hypercube_load", &rows);
}
