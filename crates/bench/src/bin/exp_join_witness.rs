//! Experiment **E6** (Proposition 3.12): JOIN-WITNESS for
//! `q(w,x,y,z) = R(w), S1(w,x), S2(x,y), S3(y,z), T(z)` on the hard input
//! family (matchings for S1–S3, random √n-subsets for R and T, so the
//! query has about one answer). The shape to reproduce: a one-round
//! ε < 1/2 algorithm almost never produces a witness, and its success
//! probability decays with `p`; the two-round plan always finds every
//! witness.
//!
//! CLI flags: `--scale <f64>` shrinks/grows the trials and inputs;
//! `--json <path>` (or `MPC_BENCH_JSON=<dir>`) writes the rows as JSON.
//!
//! Output shape: one markdown table; rows = server count `p`, columns =
//! trial counts and how often the 1-round vs 2-round algorithm found a
//! witness.
//!
//! ```text
//! cargo run --release -p mpc-bench --bin exp_join_witness
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use mpc_bench::{maybe_write_json, scaled, TextTable};
use mpc_core::hypercube::PartialHyperCubeProgram;
use mpc_core::multiround::executor::PlanProgram;
use mpc_core::multiround::planner::MultiRoundPlan;
use mpc_cq::families;
use mpc_data::matching_database;
use mpc_lp::Rational;
use mpc_sim::{Cluster, MpcConfig};
use mpc_storage::join::evaluate;
use mpc_storage::{Database, Relation, Tuple};

#[derive(Serialize)]
struct Row {
    p: usize,
    trials: usize,
    instances_with_witness: usize,
    one_round_found: usize,
    two_round_found: usize,
}

/// Build one hard instance: S1,S2,S3 matchings over `[n]`; R, T random
/// subsets of size √n.
fn hard_instance(n: u64, seed: u64) -> Database {
    let q = families::witness_query();
    let base = matching_database(&q, n, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
    let sqrt_n = (n as f64).sqrt().round() as u64;
    let mut db = Database::new(n);
    for name in ["S1", "S2", "S3"] {
        db.insert_relation(base.relation(name).expect("matching generated").clone());
    }
    for name in ["R", "T"] {
        let mut rel = Relation::empty(name, 1);
        while (rel.len() as u64) < sqrt_n {
            rel.insert(Tuple(vec![rng.gen_range(1..=n)])).expect("arity 1");
        }
        db.insert_relation(rel);
    }
    db
}

fn main() {
    let q = families::witness_query();
    let n = scaled(2500, 400);
    let trials = 12usize;
    let eps = Rational::ZERO; // strictly below the 1/2 threshold of Prop 3.12

    let mut table = TextTable::new([
        "p",
        "trials",
        "instances with a witness",
        "1-round (ε=0) found a witness",
        "2-round plan found a witness",
    ]);
    let mut rows = Vec::new();
    let half = Rational::new(1, 2);
    let plan = MultiRoundPlan::build(&q, half).expect("planning succeeds");
    for p in [4usize, 16, 64] {
        let one_round_cluster = Cluster::new(MpcConfig::new(p, 0.0)).expect("valid config");
        let two_round_cluster = Cluster::new(MpcConfig::new(p, 0.5)).expect("valid config");
        let mut with_witness = 0usize;
        let mut one_round_found = 0usize;
        let mut two_round_found = 0usize;
        for t in 0..trials {
            let db = hard_instance(n, 100 + t as u64);
            let truth = evaluate(&q, &db).expect("sequential evaluation succeeds");
            if truth.is_empty() {
                continue;
            }
            with_witness += 1;
            let partial = PartialHyperCubeProgram::new(&q, p, eps, t as u64).expect("HC plans");
            let one_round = one_round_cluster.run(&partial, &db).expect("partial HC run succeeds");
            if !one_round.output.is_empty() {
                one_round_found += 1;
            }
            let program = PlanProgram::new(&plan, p, t as u64).expect("plan compiles");
            let two_round = two_round_cluster.run(&program, &db).expect("plan execution succeeds");
            if two_round.output.same_tuples(&truth) {
                two_round_found += 1;
            }
        }
        table.row([
            p.to_string(),
            trials.to_string(),
            with_witness.to_string(),
            one_round_found.to_string(),
            two_round_found.to_string(),
        ]);
        rows.push(Row {
            p,
            trials,
            instances_with_witness: with_witness,
            one_round_found,
            two_round_found,
        });
    }
    table.print(&format!("E6 — JOIN-WITNESS hard instances (Prop 3.12), n = {n}"));
    println!(
        "\nExpected shape: the one-round ε = 0 algorithm finds a witness on only a small, \
         p-decreasing fraction of the instances that have one, while the two-round plan \
         recovers every witness."
    );
    maybe_write_json("exp_join_witness", &rows);
}
