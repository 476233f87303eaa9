//! Multi-hop path queries on a follower graph: the rounds-vs-replication
//! tradeoff of Section 4 (Example 4.2, Table 2), on the chain query `L_k`.
//!
//! A `k`-hop path query `L_k(x0,…,xk) = S1(x0,x1), …, Sk(x_{k−1},x_k)`
//! cannot be computed in one round without huge replication
//! (`ε* = 1 − 1/⌈k/2⌉`), but a query plan whose operators are short chains
//! computes it in `⌈log_{kε} k⌉` rounds at space exponent ε. This example
//! runs `L_16` at ε ∈ {0, 1/2, 2/3} and reports the number of rounds and
//! the per-round communication measured by the simulator.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example multihop_paths
//! ```

use mpc_query::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let k = 16;
    let q = families::chain(k);
    let n = 5_000;
    let p = 64;
    let db = matching_database(&q, n, 7);
    let truth = mpc_query::storage::join::evaluate(&q, &db)?;
    println!("query: {} (k = {k} hops), n = {n}, p = {p}", q.name());
    println!("space exponent for ONE round: {}\n", QueryAnalysis::analyze(&q)?.space_exponent);

    println!(
        "{:>8} {:>8} {:>10} {:>18} {:>16} {:>10}",
        "ε", "rounds", "operators", "max bytes/round", "total bytes", "correct"
    );
    for eps in [Rational::ZERO, Rational::new(1, 2), Rational::new(2, 3)] {
        let plan = MultiRoundPlan::build(&q, eps)?;
        let cluster = Cluster::new(MpcConfig::new(p, eps.to_f64()))?;
        let result = cluster.run(&PlanProgram::new(&plan, p, 11)?, &db)?;
        let correct = result.output.same_tuples(&truth);
        println!(
            "{:>8} {:>8} {:>10} {:>18} {:>16} {:>10}",
            eps.to_string(),
            result.num_rounds(),
            plan.num_operators(),
            result.max_load_bytes(),
            result.total_bytes(),
            correct
        );
    }

    println!(
        "\nMore replication per round (larger ε) buys fewer rounds: \
         log₂ 16 = 4 rounds at ε = 0, log₄ 16 = 2 rounds at ε = 1/2."
    );
    Ok(())
}
