//! Integration tests: one-round (HyperCube) evaluation across crates.
//!
//! Every test runs the full pipeline — query analysis (LP), share
//! allocation, HyperCube shuffle on the simulated cluster, local joins —
//! and checks the output against the sequential join engine plus the
//! communication bounds of Proposition 3.2.

use mpc_query::core::baseline::{BroadcastProgram, SingleKeyShuffleProgram};
use mpc_query::prelude::*;
use mpc_query::sim::{MpcProgram, RunResult};
use mpc_query::storage::join::evaluate;

/// `program` on `p` servers at space exponent `eps`.
fn run(program: &impl MpcProgram, db: &Database, p: usize, eps: f64) -> RunResult {
    Cluster::new(MpcConfig::new(p, eps)).unwrap().run(program, db).unwrap()
}

/// The HyperCube of `q` on `p` servers at `eps`, default seed.
fn run_hc(q: &Query, db: &Database, p: usize, eps: f64) -> RunResult {
    run(&HyperCubeProgram::new(q, p, 0x5EED).unwrap(), db, p, eps)
}

/// HC is exact on every running-example family from Table 1.
#[test]
fn hypercube_matches_sequential_join_on_table1_families() {
    let queries = vec![
        families::cycle(3),
        families::cycle(4),
        families::cycle(5),
        families::chain(2),
        families::chain(3),
        families::chain(4),
        families::star(2),
        families::star(4),
        families::binomial(3, 2).unwrap(),
        families::spoke(2),
    ];
    for q in queries {
        let db = matching_database(&q, 400, 0xABC + q.num_atoms() as u64);
        let eps = space_exponent(&q).unwrap();
        let result = run_hc(&q, &db, 16, eps.to_f64());
        let truth = evaluate(&q, &db).unwrap();
        assert!(
            result.output.same_tuples(&truth),
            "{}: HC output differs from sequential join",
            q.name()
        );
        assert_eq!(result.num_rounds(), 1, "{}", q.name());
    }
}

/// At the space exponent, the HC load respects the O(N/p^{1−ε}) budget on
/// matching databases (Proposition 3.2) — and the load drops as p grows.
#[test]
fn hypercube_load_scales_with_p() {
    let q = families::triangle();
    let n = 8000;
    let db = matching_database(&q, n, 5);
    let eps = space_exponent(&q).unwrap().to_f64();
    let mut previous_load = u64::MAX;
    for p in [8usize, 64, 512] {
        let result = run_hc(&q, &db, p, eps);
        assert!(result.within_budget(), "p = {p} exceeds budget");
        let load = result.max_load_bytes();
        assert!(
            load < previous_load,
            "load should shrink as p grows: p = {p}, load {load} >= previous {previous_load}"
        );
        previous_load = load;
        // Replication rate ≈ p^ε (within a factor ~2 for integer shares).
        let rate = result.rounds[0].replication_rate;
        let allowed = (p as f64).powf(eps);
        assert!(rate <= allowed * 1.5 + 1.0, "p = {p}: rate {rate} vs p^ε = {allowed}");
    }
}

/// The three one-round strategies compared on a star query (the only shape
/// where all three are correct): single-key shuffle ≤ HyperCube ≪ broadcast
/// in per-server load.
#[test]
fn one_round_strategy_load_ordering() {
    let q = families::star(3);
    let db = matching_database(&q, 2000, 9);
    let cfg = MpcConfig::new(32, 0.0);

    let hc = run_hc(&q, &db, 32, 0.0);
    let cluster = Cluster::new(cfg).unwrap();
    let shuffle = cluster.run(&SingleKeyShuffleProgram::new(&q, 1).unwrap(), &db).unwrap();
    let broadcast = cluster.run(&BroadcastProgram::new(q.clone()), &db).unwrap();

    let truth = evaluate(&q, &db).unwrap();
    for (name, result) in [("hc", &hc), ("shuffle", &shuffle), ("broadcast", &broadcast)] {
        assert!(result.output.same_tuples(&truth), "{name} output mismatch");
    }
    assert!(shuffle.max_load_bytes() <= hc.max_load_bytes() * 2);
    assert!(hc.max_load_bytes() * 4 < broadcast.max_load_bytes());
}

/// Below the space exponent, the partial HyperCube reports roughly the
/// 1/p^{τ*(1−ε)−1} fraction of answers that Theorem 3.3 allows — and the
/// reported fraction shrinks as p grows.
#[test]
fn partial_answers_fraction_decays_with_p() {
    let q = families::chain(3); // τ* = 2
    let n = 6000u64;
    let db = matching_database(&q, n, 3);
    let mut previous_fraction = f64::INFINITY;
    for p in [4usize, 16, 64] {
        let program = PartialHyperCubeProgram::new(&q, p, Rational::ZERO, 7).unwrap();
        let reported = run(&program, &db, p, 0.0).output.len() as f64 / n as f64;
        let predicted = 1.0 / p as f64; // 1/p^{τ*(1−ε)−1} with τ* = 2, ε = 0
        assert!(reported < previous_fraction + 1e-9, "reported fraction should shrink with p");
        assert!(
            reported <= predicted * 3.0 + 0.01,
            "p = {p}: reported {reported} far above predicted {predicted}"
        );
        previous_fraction = reported;
    }
}

/// The JOIN-WITNESS hard instance of Proposition 3.12: with √n-sized unary
/// endpoints the query has about one answer; a one-round ε = 0 algorithm
/// almost never finds it, while the two-round plan always does.
#[test]
fn join_witness_hard_instance() {
    use mpc_query::data::matching_database as matchings;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    let q = families::witness_query();
    let n: u64 = 2500;
    let sqrt_n = 50u64;
    let mut rng = StdRng::seed_from_u64(17);

    // S1, S2, S3 are matchings; R and T are random √n-subsets of [n].
    let base = matchings(&q, n, 100);
    let mut db = Database::new(n);
    for name in ["S1", "S2", "S3"] {
        db.insert_relation(base.relation(name).unwrap().clone());
    }
    let mut r = Relation::empty("R", 1);
    let mut t = Relation::empty("T", 1);
    while (r.len() as u64) < sqrt_n {
        r.insert(Tuple(vec![rng.gen_range(1..=n)])).unwrap();
    }
    while (t.len() as u64) < sqrt_n {
        t.insert(Tuple(vec![rng.gen_range(1..=n)])).unwrap();
    }
    db.insert_relation(r);
    db.insert_relation(t);

    let truth = evaluate(&q, &db).unwrap();
    // Expected ≈ 1 answer; the random instance may have a few or none.
    assert!(truth.len() <= 10);

    // The multi-round plan at ε = 1/2 finds exactly the true answers.
    let plan = MultiRoundPlan::build(&q, Rational::new(1, 2)).unwrap();
    let program = PlanProgram::new(&plan, 16, 3).unwrap();
    assert!(run(&program, &db, 16, 0.5).output.same_tuples(&truth));
}

/// Skew ablation: on a Zipf-skewed input the HyperCube load balance
/// degrades compared to a matching database (the guarantee of Prop 3.2 is
/// for matchings only).
#[test]
fn skewed_inputs_degrade_balance() {
    use mpc_query::data::skew::zipf_database;
    let q = families::chain(2);
    let n = 4000u64;
    let p = 32;
    let eps = 0.0;

    let matching = matching_database(&q, n, 1);
    let skewed = zipf_database(&q, n, n as usize, 1.2, 1);

    let balanced = run_hc(&q, &matching, p, eps);
    let unbalanced = run_hc(&q, &skewed, p, eps);

    let b = balanced.rounds[0].balance_ratio;
    let u = unbalanced.rounds[0].balance_ratio;
    assert!(b < 2.0, "matching database should be well balanced, ratio {b}");
    assert!(u > b * 1.5, "skewed input should be notably less balanced ({u} vs {b})");
}
