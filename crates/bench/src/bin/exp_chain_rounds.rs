//! Experiment **E3** (Example 4.2 / Lemma 4.6): the number of rounds
//! needed for chain queries `L_k` as a function of the space exponent ε,
//! with the plans actually executed on the simulator. The shape to
//! reproduce: `⌈log_{kε} k⌉` rounds where `kε = 2⌊1/(1−ε)⌋` — e.g. `L_16`
//! takes 4 rounds at ε = 0 but only 2 at ε = 1/2 — and the measured lower
//! bounds match.
//!
//! CLI flags: `--scale <f64>` shrinks/grows the inputs; `--json <path>`
//! (or `MPC_BENCH_JSON=<dir>`) writes the rows as JSON.
//!
//! Output shape: one markdown table; rows = (chain length `k`, ε),
//! columns = `kε`, the round lower bound, the planner's depth, the
//! executed round count, max bytes/round and a correctness check.
//!
//! ```text
//! cargo run --release -p mpc-bench --bin exp_chain_rounds
//! ```

use serde::Serialize;

use mpc_bench::{maybe_write_json, scaled, TextTable};
use mpc_core::multiround::executor::PlanProgram;
use mpc_core::multiround::lower_bound::round_lower_bound;
use mpc_core::multiround::planner::MultiRoundPlan;
use mpc_cq::families;
use mpc_data::matching_database;
use mpc_lp::Rational;
use mpc_sim::{Cluster, MpcConfig};
use mpc_storage::join::evaluate;

#[derive(Serialize)]
struct Row {
    k: usize,
    epsilon: String,
    k_epsilon: usize,
    lower_bound: usize,
    plan_rounds: usize,
    executed_rounds: usize,
    max_bytes_per_round: u64,
    correct: bool,
}

fn main() {
    let n = scaled(1000, 100);
    let p = 16;
    let epsilons = [Rational::ZERO, Rational::new(1, 2), Rational::new(2, 3)];
    let ks = [4usize, 8, 16, 32];

    let mut table = TextTable::new([
        "k",
        "ε",
        "kε",
        "lower bound",
        "plan rounds",
        "executed rounds",
        "max bytes/round",
        "correct",
    ]);
    let mut rows = Vec::new();
    for &k in &ks {
        let q = families::chain(k);
        let db = matching_database(&q, n, 3 + k as u64);
        let truth = evaluate(&q, &db).expect("sequential evaluation succeeds");
        for &eps in &epsilons {
            let ke = mpc_core::space_exponent::k_epsilon(eps);
            let lower = round_lower_bound(&q, eps).expect("bound computable");
            let plan = MultiRoundPlan::build(&q, eps).expect("planning succeeds");
            let program = PlanProgram::new(&plan, p, 5).expect("plan compiles");
            let cluster = Cluster::new(MpcConfig::new(p, eps.to_f64())).expect("valid config");
            let result = cluster.run(&program, &db).expect("execution succeeds");
            let correct = result.output.same_tuples(&truth);
            let row = Row {
                k,
                epsilon: eps.to_string(),
                k_epsilon: ke,
                lower_bound: lower,
                plan_rounds: plan.num_rounds(),
                executed_rounds: result.num_rounds(),
                max_bytes_per_round: result.max_load_bytes(),
                correct,
            };
            table.row([
                k.to_string(),
                row.epsilon.clone(),
                ke.to_string(),
                lower.to_string(),
                row.plan_rounds.to_string(),
                row.executed_rounds.to_string(),
                row.max_bytes_per_round.to_string(),
                correct.to_string(),
            ]);
            rows.push(row);
        }
    }
    table.print(&format!("E3 — rounds vs space exponent for chain queries Lk (n = {n}, p = {p})"));
    println!(
        "\nExpected shape (Example 4.2 / Cor 4.8): rounds = ⌈log_kε k⌉ with kε = 2⌊1/(1−ε)⌋; \
         L16 drops from 4 rounds (ε=0) to 2 rounds (ε=1/2); the lower bound matches the plan \
         depth for chains."
    );
    maybe_write_json("exp_chain_rounds", &rows);
}
