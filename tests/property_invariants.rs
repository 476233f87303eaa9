//! Property-based tests of the theory-level invariants, over randomly
//! generated connected binary conjunctive queries and random matching
//! databases.
//!
//! Query generator: `k` variables are connected by a random spanning path
//! (guaranteeing connectivity), then a few random extra binary atoms are
//! added. All relation symbols are distinct, so the queries are valid full
//! CQs without self-joins.
//!
//! The case generator is a seeded [`StdRng`] loop (the build environment
//! cannot fetch `proptest`), so every run exercises the same deterministic
//! case set; bump `CASES` or vary `CASE_SEED` to widen the search.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mpc_query::core::multiround::lower_bound::round_lower_bound;
use mpc_query::core::multiround::planner::round_upper_bound;
use mpc_query::prelude::*;
use mpc_query::storage::join::evaluate;

/// Number of random queries each property is checked against.
const CASES: usize = 48;

/// Master seed of the deterministic case generator.
const CASE_SEED: u64 = 0xBEA3E;

/// A description of a random connected binary query.
#[derive(Debug, Clone)]
struct RandomQuery {
    num_vars: usize,
    extra_edges: Vec<(usize, usize)>,
}

impl RandomQuery {
    fn generate(rng: &mut StdRng) -> Self {
        let num_vars = rng.gen_range(2usize..6);
        let num_extra = rng.gen_range(0usize..4);
        let extra_edges =
            (0..num_extra).map(|_| (rng.gen_range(0usize..6), rng.gen_range(0usize..6))).collect();
        RandomQuery { num_vars, extra_edges }
    }

    fn build(&self) -> Query {
        let var = |i: usize| format!("x{i}");
        let mut atoms: Vec<(String, Vec<String>)> = Vec::new();
        // Spanning path keeps the query connected.
        for i in 1..self.num_vars {
            atoms.push((format!("P{i}"), vec![var(i - 1), var(i)]));
        }
        for (idx, &(a, b)) in self.extra_edges.iter().enumerate() {
            let (a, b) = (a % self.num_vars, b % self.num_vars);
            if a == b {
                continue;
            }
            atoms.push((format!("E{idx}"), vec![var(a), var(b)]));
        }
        if atoms.is_empty() {
            atoms.push(("P1".to_string(), vec![var(0), var(0)]));
        }
        Query::new("RQ".to_string(), atoms).expect("generated queries are valid")
    }
}

/// Run `check` against `CASES` deterministic random queries, reporting the
/// failing query on panic.
fn for_random_queries(property: &str, mut check: impl FnMut(&mut StdRng, &Query)) {
    let mut rng = StdRng::seed_from_u64(CASE_SEED);
    for case in 0..CASES {
        let rq = RandomQuery::generate(&mut rng);
        let q = rq.build();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check(&mut rng, &q);
        }));
        if let Err(panic) = result {
            eprintln!("property `{property}` failed on case {case}: {rq:?}");
            std::panic::resume_unwind(panic);
        }
    }
}

/// χ(q) ≤ 0 and the answer-size exponent k + ℓ − a equals c + χ
/// (Lemma 2.1(c) and Lemma 3.4).
#[test]
fn characteristic_invariants() {
    for_random_queries("characteristic_invariants", |_, q| {
        assert!(q.characteristic() <= 0);
        let exponent = q.num_vars() as i64 + q.num_atoms() as i64 - q.total_arity() as i64;
        assert_eq!(exponent, q.num_connected_components() as i64 + q.characteristic());
    });
}

/// LP duality: the optimal vertex cover and edge packing have equal
/// value; the returned solutions are feasible; τ* ≥ 1 and the space
/// exponent lies in [0, 1).
#[test]
fn lp_duality_and_space_exponent() {
    for_random_queries("lp_duality_and_space_exponent", |_, q| {
        let lps = mpc_query::lp::QueryLps::solve(q).unwrap();
        assert_eq!(lps.vertex_cover().total(), lps.edge_packing().total());
        assert!(lps.vertex_cover().is_valid_for(q));
        assert!(lps.edge_packing().is_valid_for(q));
        assert!(lps.covering_number() >= Rational::ONE);
        let eps = space_exponent(q).unwrap();
        assert!(!eps.is_negative());
        assert!(eps < Rational::ONE);
    });
}

/// Integer shares multiply to at most p, are at least 1 each, and the
/// share exponents sum to one.
#[test]
fn share_allocation_invariants() {
    for_random_queries("share_allocation_invariants", |rng, q| {
        let p = rng.gen_range(1usize..200);
        let alloc = ShareAllocation::optimal(q, p).unwrap();
        assert!(alloc.num_cells() <= p);
        assert!(alloc.shares.iter().all(|&s| s >= 1));
        assert_eq!(Rational::sum(alloc.exponents.iter()).unwrap(), Rational::ONE);
    });
}

/// Radius/diameter relations for connected queries.
#[test]
fn radius_diameter_relation() {
    for_random_queries("radius_diameter_relation", |_, q| {
        if q.is_connected() {
            let rad = q.radius().unwrap();
            let diam = q.diameter().unwrap();
            assert!(rad <= diam);
            assert!(diam <= 2 * rad);
        }
    });
}

/// The HyperCube shuffle is exact: on a random matching database it
/// reports exactly the answers of the sequential join, for every seed
/// and server count.
#[test]
fn hypercube_is_exact() {
    for_random_queries("hypercube_is_exact", |rng, q| {
        let p = rng.gen_range(2usize..40);
        let seed = rng.gen_range(0u64..1000);
        let db = matching_database(q, 60, seed);
        let eps = space_exponent(q).unwrap().to_f64();
        let program = HyperCubeProgram::new(q, p, seed).unwrap();
        let result = Cluster::new(MpcConfig::new(p, eps)).unwrap().run(&program, &db).unwrap();
        let truth = evaluate(q, &db).unwrap();
        assert!(result.output.same_tuples(&truth));
    });
}

/// Multi-round plans are valid, their execution is exact, and the
/// round lower bound never exceeds the plan depth.
#[test]
fn multiround_plans_are_exact() {
    for_random_queries("multiround_plans_are_exact", |rng, q| {
        let seed = rng.gen_range(0u64..1000);
        if !q.is_connected() || q.num_atoms() > 8 {
            return;
        }
        let eps = Rational::ZERO;
        let plan = MultiRoundPlan::build(q, eps).unwrap();
        plan.validate().unwrap();
        let lower = round_lower_bound(q, eps).unwrap();
        assert!(lower <= plan.num_rounds());
        let upper = round_upper_bound(q, eps).unwrap();
        assert!(lower <= upper);

        let db = matching_database(q, 40, seed);
        let program = PlanProgram::new(&MultiRoundPlan::build(q, eps).unwrap(), 8, seed).unwrap();
        let cluster = Cluster::new(MpcConfig::new(8, eps.to_f64())).unwrap();
        let truth = evaluate(q, &db).unwrap();
        assert!(cluster.run(&program, &db).unwrap().output.same_tuples(&truth));
    });
}

/// Lemma 3.4 sanity: over random matching databases the answer count
/// of tree-like connected queries is exactly n, and never exceeds n
/// for any connected query.
#[test]
fn matching_answer_counts() {
    for_random_queries("matching_answer_counts", |rng, q| {
        let seed = rng.gen_range(0u64..500);
        if !q.is_connected() {
            return;
        }
        let n = 50u64;
        let db = matching_database(q, n, seed);
        let out = evaluate(q, &db).unwrap();
        assert!(out.len() as u64 <= n);
        if q.is_tree_like() {
            assert_eq!(out.len() as u64, n);
        }
    });
}
