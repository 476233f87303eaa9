//! Integration tests: multi-round plans and their execution, plus the
//! Table 2 round counts and the round lower bounds.

use mpc_query::core::multiround::lower_bound::round_lower_bound;
use mpc_query::core::multiround::planner::round_upper_bound;
use mpc_query::prelude::*;
use mpc_query::sim::RunResult;
use mpc_query::storage::join::evaluate;

/// Compile `plan` for `p` servers and run it at the plan's ε.
fn run(plan: &MultiRoundPlan, db: &Database, p: usize, seed: u64) -> RunResult {
    let program = PlanProgram::new(plan, p, seed).unwrap();
    let cluster = Cluster::new(MpcConfig::new(p, plan.epsilon().to_f64())).unwrap();
    cluster.run(&program, db).unwrap()
}

/// Table 2: rounds at ε = 0 for the running examples, upper = lower where
/// the paper states an exact value.
#[test]
fn table_2_round_counts() {
    let cases: Vec<(Query, usize)> = vec![
        (families::chain(2), 1),
        (families::chain(4), 2),
        (families::chain(8), 3),
        (families::chain(16), 4),
        (families::star(5), 1),
        (families::spoke(3), 2),
        (families::spoke(5), 2),
    ];
    for (q, rounds) in cases {
        let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
        assert_eq!(plan.num_rounds(), rounds, "{} plan depth", q.name());
        let lower = round_lower_bound(&q, Rational::ZERO).unwrap();
        assert_eq!(lower, rounds, "{} lower bound", q.name());
    }
}

/// The rounds/space tradeoff for chains: r ≈ log k / log(2/(1−ε)).
#[test]
fn chain_round_space_tradeoff() {
    let q = families::chain(16);
    let expectations = [
        (Rational::ZERO, 4usize),
        (Rational::new(1, 2), 2),
        // At ε = ε*(L16) = 7/8 a single round suffices.
        (Rational::new(7, 8), 1),
    ];
    for (eps, rounds) in expectations {
        let plan = MultiRoundPlan::build(&q, eps).unwrap();
        assert_eq!(plan.num_rounds(), rounds, "L16 at ε = {eps}");
        let lower = round_lower_bound(&q, eps).unwrap();
        assert!(lower <= rounds);
        assert!(rounds <= lower + 1, "gap larger than one round at ε = {eps}");
    }
}

/// Executing the plans gives exactly the sequential answer, across
/// families, exponents and server counts.
#[test]
fn multiround_execution_is_exact() {
    let cases = vec![
        (families::chain(6), Rational::ZERO, 8usize),
        (families::chain(9), Rational::new(1, 2), 27),
        (families::cycle(6), Rational::ZERO, 16),
        (families::cycle(5), Rational::new(1, 2), 9),
        (families::spoke(3), Rational::ZERO, 8),
        (families::binomial(4, 2).unwrap(), Rational::ZERO, 16),
    ];
    for (q, eps, p) in cases {
        let db = matching_database(&q, 300, 0xFEED ^ q.num_atoms() as u64);
        let result = run(&MultiRoundPlan::build(&q, eps).unwrap(), &db, p, 5);
        let truth = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&truth), "{} at ε = {eps} on p = {p}", q.name());
    }
}

/// Lower bound ≤ plan depth ≤ radius bound, for a spread of queries and
/// exponents (Theorem 1.2's "nearly matching" statement).
#[test]
fn bounds_sandwich_plan_depth() {
    let queries = vec![
        families::chain(3),
        families::chain(7),
        families::chain(12),
        families::cycle(4),
        families::cycle(7),
        families::star(6),
        families::spoke(4),
        families::binomial(4, 2).unwrap(),
    ];
    let exponents = [Rational::ZERO, Rational::new(1, 3), Rational::new(1, 2), Rational::new(2, 3)];
    for q in &queries {
        for &eps in &exponents {
            let lower = round_lower_bound(q, eps).unwrap();
            let plan = MultiRoundPlan::build(q, eps).unwrap();
            let radius = round_upper_bound(q, eps).unwrap();
            assert!(
                lower <= plan.num_rounds(),
                "{} at ε = {eps}: lower {lower} > plan {}",
                q.name(),
                plan.num_rounds()
            );
            assert!(
                plan.num_rounds() <= radius.max(plan.num_rounds()),
                "{} at ε = {eps}",
                q.name()
            );
            // Tree-like queries: the paper's gap is at most one round.
            if q.is_tree_like() {
                assert!(
                    plan.num_rounds() <= lower + 1,
                    "{} at ε = {eps}: plan {} vs lower {lower}",
                    q.name(),
                    plan.num_rounds()
                );
            }
        }
    }
}

/// Lemma 3.4's view sizing (`s^{1+χ}`) on **cyclic** operators. For a
/// connected query `χ = k + ℓ − a − c ≤ 0`, with equality exactly for
/// tree-like shapes — so the only branch of the executor's view-size
/// estimate the tree-like tests cannot reach is `χ < 0`, where the
/// operator's view is *smaller* than its inputs (`n^{1+χ} < n`; a cycle
/// closure over matchings expects ~1 answer). This pins that branch and
/// checks the per-round prediction still brackets the simulation.
#[test]
fn cyclic_operators_cover_the_negative_chi_view_sizing() {
    let n = 400u64;
    for (q, p) in [(families::cycle(4), 16usize), (families::cycle(6), 8)] {
        assert!(q.characteristic() < 0, "{} is cyclic", q.name());
        let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
        assert!(plan.num_rounds() >= 2, "{} needs multiple rounds at ε = 0", q.name());
        // The plan's final operator closes the cycle: its sub-query keeps
        // χ < 0 (contraction deletes tree-like pieces, never the cycle).
        let cyclic_ops: Vec<_> = plan
            .levels()
            .iter()
            .flat_map(|level| &level.operators)
            .filter(|op| op.query.characteristic() < 0)
            .collect();
        assert!(!cyclic_ops.is_empty(), "{} plan has a cyclic operator", q.name());

        let pred = plan.predict_loads(p, n).unwrap();
        for op in &pred.operators {
            let chi = cyclic_ops
                .iter()
                .find(|c| c.view_name == op.view_name)
                .map(|c| c.query.characteristic());
            if let Some(chi) = chi {
                // s^{1+χ} with χ = −1: the expected cycle closure over
                // matchings is a single answer-slot.
                assert_eq!(chi, -1, "{}: cycle closures have χ = −1", q.name());
                assert_eq!(op.output_tuples, 1.0, "{}: view size n^0", q.name());
            }
        }

        // The prediction still brackets a real run on a matching.
        let db = matching_database(&q, n, 29);
        let result = run(&plan, &db, p, 5);
        let truth = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&truth), "{} exactness", q.name());
        for row in pred.compare(&result).unwrap() {
            assert!(
                row.simulated_max_tuples as f64 <= 4.0 * row.predicted_tuples + 16.0,
                "{} round {}: measured {} escapes 4 × {:.1} + 16",
                q.name(),
                row.round,
                row.simulated_max_tuples,
                row.predicted_tuples
            );
        }
    }
}

/// Larger ε never needs more rounds (monotonicity of the tradeoff).
#[test]
fn rounds_monotone_in_epsilon() {
    for q in [families::chain(12), families::cycle(9), families::spoke(4)] {
        let mut previous = usize::MAX;
        for eps in [Rational::ZERO, Rational::new(1, 3), Rational::new(1, 2), Rational::new(2, 3)] {
            let plan = MultiRoundPlan::build(&q, eps).unwrap();
            assert!(
                plan.num_rounds() <= previous,
                "{}: rounds increased when ε grew to {eps}",
                q.name()
            );
            previous = plan.num_rounds();
        }
    }
}
