//! Experiment **E4** (Section 4.1, query `SP_k`): one round versus two.
//! `SP_k = ⋀_i R_i(z,x_i), S_i(x_i,y_i)` has τ* = k, so a single round
//! needs replication `p^{1−1/k}`; a two-round plan (join each `R_i,S_i`
//! pair, then join everything on `z`) needs essentially no replication.
//! The shape to reproduce: the one-round max load grows with k (and with
//! p) while the two-round load stays flat.
//!
//! CLI flags: `--scale <f64>` shrinks/grows the input; `--json <path>`
//! (or `MPC_BENCH_JSON=<dir>`) writes the rows as JSON.
//!
//! Output shape: one markdown table; rows = (spoke count `k`, `p`),
//! columns = the one-round ε*, replication and max bytes against the
//! two-round plan's, plus a correctness check.
//!
//! ```text
//! cargo run --release -p mpc-bench --bin exp_spoke_tradeoff
//! ```

use serde::Serialize;

use mpc_bench::{maybe_write_json, scaled, TextTable};
use mpc_core::hypercube::HyperCubeProgram;
use mpc_core::multiround::executor::PlanProgram;
use mpc_core::multiround::planner::MultiRoundPlan;
use mpc_core::space_exponent::space_exponent;
use mpc_cq::families;
use mpc_data::matching_database;
use mpc_lp::Rational;
use mpc_sim::{Cluster, MpcConfig};
use mpc_storage::join::evaluate;

#[derive(Serialize)]
struct Row {
    k: usize,
    p: usize,
    one_round_epsilon: String,
    one_round_replication: f64,
    one_round_max_bytes: u64,
    two_round_replication: f64,
    two_round_max_bytes: u64,
    both_correct: bool,
}

fn main() {
    let n = scaled(2000, 200);
    let mut table = TextTable::new([
        "k",
        "p",
        "1-round ε* = 1-1/k",
        "1-round replication",
        "1-round max bytes",
        "2-round max replication",
        "2-round max bytes",
        "correct",
    ]);
    let mut rows = Vec::new();
    for k in [2usize, 3, 4, 5] {
        let q = families::spoke(k);
        let db = matching_database(&q, n, 31 + k as u64);
        let truth = evaluate(&q, &db).expect("sequential evaluation succeeds");
        let plan = MultiRoundPlan::build(&q, Rational::ZERO).expect("planning succeeds");
        for p in [16usize, 64] {
            let eps = space_exponent(&q).expect("LP solvable");
            let hc = HyperCubeProgram::new(&q, p, 0x5EED).expect("HC plans");
            let cluster = Cluster::new(MpcConfig::new(p, eps.to_f64())).expect("valid config");
            let one_round = cluster.run(&hc, &db).expect("HC run succeeds");
            let program = PlanProgram::new(&plan, p, 7).expect("plan compiles");
            let cluster = Cluster::new(MpcConfig::new(p, 0.0)).expect("valid config");
            let two_round = cluster.run(&program, &db).expect("plan execution succeeds");
            let correct =
                one_round.output.same_tuples(&truth) && two_round.output.same_tuples(&truth);
            let row = Row {
                k,
                p,
                one_round_epsilon: eps.to_string(),
                one_round_replication: one_round.max_replication_rate(),
                one_round_max_bytes: one_round.max_load_bytes(),
                two_round_replication: two_round.max_replication_rate(),
                two_round_max_bytes: two_round.max_load_bytes(),
                both_correct: correct,
            };
            table.row([
                k.to_string(),
                p.to_string(),
                row.one_round_epsilon.clone(),
                format!("{:.2}", row.one_round_replication),
                row.one_round_max_bytes.to_string(),
                format!("{:.2}", row.two_round_replication),
                row.two_round_max_bytes.to_string(),
                correct.to_string(),
            ]);
            rows.push(row);
        }
    }
    table.print(&format!(
        "E4 — SPk: one round with replication p^(1-1/k) vs two rounds with O(1) (n = {n})"
    ));
    println!(
        "\nExpected shape (§4.1): the one-round replication grows towards p as k grows \
         (p^(1-1/k)), while the two-round plan keeps every round's replication near 1."
    );
    maybe_write_json("exp_spoke_tradeoff", &rows);
}
