//! Integration tests of the skew-resilient HyperCube (`mpc_core::skew`): load
//! guarantees on skewed inputs where the vanilla HyperCube fails, output
//! equality against both the vanilla run and the sequential join, and the
//! heavy/light partition invariants of the residual-plan routing.
//!
//! The property loop at the bottom follows the seeded-StdRng style of
//! `tests/property_invariants.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mpc_query::core::heavy::group_of_server;
use mpc_query::cq::families;
use mpc_query::data::skew::{heavy_hitter_database, zipf_database};
use mpc_query::prelude::*;
use mpc_query::sim::RunResult;
use mpc_query::storage::join::evaluate;

/// The vanilla HyperCube's run on `cfg`, default seed.
fn run_vanilla(q: &Query, db: &Database, cfg: &MpcConfig) -> RunResult {
    let program = HyperCubeProgram::new(q, cfg.p, 0x5EED).expect("vanilla HC plans");
    Cluster::new(cfg.clone()).unwrap().run(&program, db).expect("vanilla HC runs")
}

/// The skew-resilient program (default policy and seed, exact statistics)
/// and its run on `cfg`.
fn run_resilient(q: &Query, db: &Database, cfg: &MpcConfig) -> (SkewResilientProgram, RunResult) {
    let policy = HeavyHitterPolicy::default();
    let program =
        SkewResilientProgram::new(q, db, cfg.p, &policy, 0x5EED).expect("resilient plans");
    let result = Cluster::new(cfg.clone()).unwrap().run(&program, db).expect("resilient runs");
    (program, result)
}

/// The headline guarantee: on the canonical heavy-hitter input the vanilla
/// HyperCube exceeds its `c · N / p^{1−ε}` budget while the resilient plan
/// stays within it — at identical output.
#[test]
fn resilient_within_budget_where_vanilla_fails() {
    let q = families::chain(2);
    let db = heavy_hitter_database(&q, 2000, 2000, 0.5, 7);
    let cfg = MpcConfig::new(32, 0.0);

    let vanilla = run_vanilla(&q, &db, &cfg);
    let (_, resilient) = run_resilient(&q, &db, &cfg);

    assert!(
        !vanilla.within_budget(),
        "half of S2 shares one join key: one server must drown ({})",
        vanilla.summary()
    );
    assert!(
        resilient.within_budget(),
        "residual plans spread the heavy key ({})",
        resilient.summary()
    );
    assert!(resilient.output.same_tuples(&vanilla.output));

    // "Within a constant factor of the skew-free budget": the resilient
    // max load is not just under the (generous, c = 2) budget but within a
    // small factor of the perfectly balanced load N / p.
    let perfectly_balanced = db.total_bytes() / 32;
    assert!(
        resilient.max_load_bytes() <= 3 * perfectly_balanced,
        "max load {} vs perfectly balanced {}",
        resilient.max_load_bytes(),
        perfectly_balanced
    );
}

/// Same comparison on Zipf inputs: wherever vanilla fails, resilient must
/// hold; and resilient never turns a passing row into a failing one.
#[test]
fn resilient_never_regresses_on_zipf_inputs() {
    for (q, p, theta) in [
        (families::chain(2), 32, 0.8),
        (families::chain(2), 32, 1.2),
        (families::cycle(3), 27, 1.2),
    ] {
        let eps = space_exponent(&q).expect("LP solvable").to_f64();
        let db = zipf_database(&q, 3000, 3000, theta, 11);
        let cfg = MpcConfig::new(p, eps);
        let vanilla = run_vanilla(&q, &db, &cfg);
        let (_, resilient) = run_resilient(&q, &db, &cfg);
        assert!(resilient.output.same_tuples(&vanilla.output));
        if !vanilla.within_budget() {
            assert!(
                resilient.within_budget(),
                "{} θ={theta}: vanilla over budget must be rescued ({})",
                q.name(),
                resilient.summary()
            );
        }
        assert!(
            resilient.max_load_bytes() <= vanilla.max_load_bytes(),
            "{} θ={theta}: the resilient plan never increases the worst load",
            q.name()
        );
    }
}

/// Output equality against the sequential join across query shapes and
/// skew profiles.
#[test]
fn output_equals_sequential_join() {
    let cases: Vec<(Query, Database)> = vec![
        (families::chain(2), zipf_database(&families::chain(2), 800, 1600, 1.5, 3)),
        (families::chain(3), zipf_database(&families::chain(3), 600, 1200, 1.0, 5)),
        (families::cycle(3), heavy_hitter_database(&families::cycle(3), 700, 700, 0.6, 9)),
        (families::star(2), heavy_hitter_database(&families::star(2), 500, 1000, 0.5, 13)),
    ];
    for (q, db) in cases {
        let eps = space_exponent(&q).expect("LP solvable").to_f64();
        let (_, result) = run_resilient(&q, &db, &MpcConfig::new(16, eps));
        let truth = evaluate(&q, &db).expect("sequential join");
        assert!(
            result.output.same_tuples(&truth),
            "{}: resilient output must equal the direct join",
            q.name()
        );
    }
}

/// On skew-free matchings the detector finds nothing and the program
/// collapses to a single (vanilla-equivalent) plan.
#[test]
fn matching_inputs_collapse_to_one_plan() {
    for q in [families::chain(2), families::triangle()] {
        let db = matching_database(&q, 1000, 17);
        let eps = space_exponent(&q).expect("LP solvable").to_f64();
        let (program, result) = run_resilient(&q, &db, &MpcConfig::new(16, eps));
        assert_eq!(program.plan_set().plans().len(), 1, "{}", q.name());
        assert_eq!(program.plan_set().heavy().num_heavy_values(), 0);
        assert!(result.within_budget());
        let truth = evaluate(&q, &db).expect("sequential join");
        assert!(result.output.same_tuples(&truth));
    }
}

/// The heavy/light partition invariant, as a seeded property loop:
///
/// 1. every tuple of every relation has exactly one heavy pattern, hence
///    exactly one *owning* residual plan (its pattern class);
/// 2. every tuple is routed to at least one server, and only to servers of
///    plans whose heavy set agrees with the tuple's pattern on the atom's
///    variables;
/// 3. the union of the per-plan outputs equals the direct join, and the
///    per-plan outputs are pairwise disjoint — every answer is produced by
///    exactly one server of exactly one plan.
#[test]
fn heavy_light_partition_invariant() {
    const CASES: usize = 12;
    let mut rng = StdRng::seed_from_u64(0x5C3A);
    for case in 0..CASES {
        let q = match case % 3 {
            0 => families::chain(2),
            1 => families::cycle(3),
            _ => families::star(2),
        };
        let n = rng.gen_range(300u64..900);
        let count = rng.gen_range(400usize..1200);
        let p = [8usize, 16, 27][case % 3];
        let db = if case % 2 == 0 {
            zipf_database(&q, n, count, 0.8 + rng.gen::<f64>(), rng.gen())
        } else {
            heavy_hitter_database(&q, n, count, 0.3 + 0.4 * rng.gen::<f64>(), rng.gen())
        };
        let program = SkewResilientProgram::new(&q, &db, p, &HeavyHitterPolicy::default(), 42)
            .expect("planning succeeds");
        let plans = program.plan_set();

        for rel in db.relations() {
            let (_, atom) = q.atom_by_name(rel.name()).expect("relation belongs to the query");
            let mut class_sizes = vec![0usize; plans.plans().len()];
            for t in rel.iter() {
                // (1) exactly one owning plan.
                let owner = program
                    .owning_plan(atom, t)
                    .expect("generated tuples have no repeated-variable conflicts");
                class_sizes[owner] += 1;

                // (2) routed somewhere, and only to pattern-compatible plans.
                let routed = program.routed_plans(atom, t);
                assert!(routed.contains(&owner), "case {case}: owner not among routed plans");
                let dests = program.destinations(atom, t);
                assert!(!dests.is_empty(), "case {case}: tuple dropped");
                for d in dests {
                    let plan = group_of_server(plans.plans(), d).expect("destinations are live");
                    assert!(routed.contains(&plan), "case {case}: routed outside its plans");
                }
            }
            // The pattern classes partition the relation.
            assert_eq!(class_sizes.iter().sum::<usize>(), rel.len());
        }

        // (3) union of plan outputs = direct join, produced exactly once.
        let cluster = Cluster::new(MpcConfig::new(p, 1.0)).expect("valid config");
        let result = cluster.run(&program, &db).expect("execution succeeds");
        let truth = evaluate(&q, &db).expect("sequential join");
        assert!(
            result.output.same_tuples(&truth),
            "case {case}: sub-plan outputs must union to the direct join"
        );
        let produced: usize = result.per_server_output.iter().sum();
        assert_eq!(produced, result.output.len(), "case {case}: duplicate answers across plans");
    }
}
