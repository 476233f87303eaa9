//! Regenerates **Table 2** of the paper: the tradeoff between the space
//! exponent and the number of communication rounds for `C_k`, `L_k`, `T_k`
//! and `SP_k` — the one-round space exponent, the rounds needed at ε = 0,
//! and the rounds/space tradeoff `r ≈ log k / log(2/(1−ε))`, with the
//! planner's depth, the round lower bound and a simulated execution check
//! for each entry.
//!
//! CLI flags: `--scale <f64>` shrinks/grows the simulated inputs;
//! `--json <path>` (or `MPC_BENCH_JSON=<dir>`) writes the rows as JSON.
//!
//! Output shape: one markdown table; rows = query family instances,
//! columns = ε*, round counts at ε ∈ {0, 1/2, 2/3} (lower bound and
//! planner depth) and a simulated-vs-sequential check.
//!
//! ```text
//! cargo run --release -p mpc-bench --bin table2
//! ```

use serde::Serialize;

use mpc_bench::{maybe_write_json, scaled, TextTable};
use mpc_core::analysis::QueryAnalysis;
use mpc_core::multiround::executor::PlanProgram;
use mpc_core::multiround::lower_bound::round_lower_bound;
use mpc_core::multiround::planner::MultiRoundPlan;
use mpc_cq::{families, Query};
use mpc_data::matching_database;
use mpc_lp::Rational;
use mpc_sim::{Cluster, MpcConfig};
use mpc_storage::join::evaluate;

#[derive(Serialize)]
struct Row {
    query: String,
    space_exponent: String,
    rounds_at_eps0_lower: usize,
    rounds_at_eps0_plan: usize,
    rounds_at_eps_half_plan: usize,
    rounds_at_eps_two_thirds_plan: usize,
    simulated_correct: bool,
}

fn rounds_at(q: &Query, eps: Rational) -> usize {
    MultiRoundPlan::build(q, eps).expect("planning succeeds").num_rounds()
}

fn main() {
    let n = scaled(400, 50);
    let p = 16;
    let queries = vec![
        families::cycle(4),
        families::cycle(6),
        families::cycle(8),
        families::chain(4),
        families::chain(8),
        families::chain(16),
        families::star(4),
        families::spoke(2),
        families::spoke(3),
        families::spoke(4),
    ];

    let mut table = TextTable::new([
        "query",
        "space exponent ε*",
        "rounds @ ε=0 (lower)",
        "rounds @ ε=0 (plan)",
        "rounds @ ε=1/2",
        "rounds @ ε=2/3",
        "simulated == sequential",
    ]);
    let mut rows = Vec::new();
    for q in &queries {
        let analysis = QueryAnalysis::analyze(q).expect("analysis succeeds");
        let lower0 = round_lower_bound(q, Rational::ZERO).expect("bound computable");
        let plan0 = rounds_at(q, Rational::ZERO);
        let plan_half = rounds_at(q, Rational::new(1, 2));
        let plan_two_thirds = rounds_at(q, Rational::new(2, 3));

        // Execute the ε = 0 plan and check exactness.
        let db = matching_database(q, n, 7);
        let plan = MultiRoundPlan::build(q, Rational::ZERO).expect("planning succeeds");
        let program = PlanProgram::new(&plan, p, 3).expect("plan compiles");
        let cluster = Cluster::new(MpcConfig::new(p, 0.0)).expect("valid config");
        let result = cluster.run(&program, &db).expect("execution succeeds");
        let truth = evaluate(q, &db).expect("sequential evaluation succeeds");
        let correct = result.output.same_tuples(&truth);

        table.row([
            q.name().to_string(),
            analysis.space_exponent.to_string(),
            lower0.to_string(),
            plan0.to_string(),
            plan_half.to_string(),
            plan_two_thirds.to_string(),
            correct.to_string(),
        ]);
        rows.push(Row {
            query: q.name().to_string(),
            space_exponent: analysis.space_exponent.to_string(),
            rounds_at_eps0_lower: lower0,
            rounds_at_eps0_plan: plan0,
            rounds_at_eps_half_plan: plan_half,
            rounds_at_eps_two_thirds_plan: plan_two_thirds,
            simulated_correct: correct,
        });
    }
    table.print(&format!(
        "Table 2 (paper §4) — rounds/space tradeoff, simulated at p = {p}, n = {n}"
    ));
    println!(
        "\nPaper reference: Ck and Lk need ⌈log k⌉ rounds at ε = 0 and \
         ~log k / log(2/(1−ε)) in general; Tk needs 1 round; SPk needs 2 rounds at ε = 0 \
         despite a one-round space exponent of 1 − 1/k."
    );
    maybe_write_json("table2", &rows);
}
