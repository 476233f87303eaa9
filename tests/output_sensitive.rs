//! Property suite for the journal version's output-sensitive bounds
//! (arXiv:1602.06236).
//!
//! Over 100+ seeded random connected queries and planted databases with a
//! random output cardinality `m`, the proven bracket must hold for every
//! simulated one-round HyperCube run:
//!
//! ```text
//!   (m/p)^{1/ρ*}  ≤  simulated max tuples  ≤  (Σⱼ n·replⱼ/cells) · slack
//! ```
//!
//! together with the generator's exactness guarantee (`|q(I)| = m`), the
//! per-server emission bound (`max emitted ≥ m/p`) and correctness against
//! the sequential join. Closed-form unit tests pin the journal's worked
//! examples (cycles, stars, chains) in `crates/core/src/output_sensitive.rs`;
//! this suite covers the irregular queries those families miss.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mpc_query::core::analysis::QueryAnalysis;
use mpc_query::core::hypercube::HyperCubeProgram;
use mpc_query::core::multiround::executor::PlanProgram;
use mpc_query::core::multiround::planner::MultiRoundPlan;
use mpc_query::cq::{families, Query};
use mpc_query::data::matching_database;
use mpc_query::data::output_controlled_database;
use mpc_query::lp::Rational;
use mpc_query::sim::{Cluster, MpcConfig};
use mpc_query::storage::join::evaluate;

/// Number of random cases.
const CASES: usize = 120;

/// Master seed of the deterministic generator.
const CASE_SEED: u64 = 0xB_0091;

/// Hash-imbalance slack for the upper side of the bracket (small inputs
/// have noisy bucket maxima; the bound itself is the expected value).
const SLACK: f64 = 3.0;

/// Build one random **connected** query: trees, paths with chords, and
/// renamed family instances (the same mix as the LP agreement suite,
/// restricted to connected shapes so the planted generator applies).
fn random_connected_query(rng: &mut StdRng, case: usize) -> Query {
    loop {
        let q = match case % 3 {
            0 => {
                let k = rng.gen_range(3usize..7);
                let atoms: Vec<(String, Vec<String>)> = (1..k)
                    .map(|i| {
                        let parent = rng.gen_range(0usize..i);
                        (format!("E{i}"), vec![format!("x{parent}"), format!("x{i}")])
                    })
                    .collect();
                Query::new(format!("tree{case}"), atoms).expect("valid tree query")
            }
            1 => {
                let k = rng.gen_range(3usize..7);
                let mut atoms: Vec<(String, Vec<String>)> = (1..k)
                    .map(|i| (format!("P{i}"), vec![format!("x{}", i - 1), format!("x{i}")]))
                    .collect();
                for j in 0..rng.gen_range(1usize..3) {
                    let a = rng.gen_range(0usize..k);
                    let b = rng.gen_range(0usize..k);
                    if a != b {
                        atoms.push((format!("C{j}"), vec![format!("x{a}"), format!("x{b}")]));
                    }
                }
                Query::new(format!("cyc{case}"), atoms).expect("valid cyclic query")
            }
            _ => match rng.gen_range(0usize..4) {
                0 => families::cycle(rng.gen_range(3usize..7)),
                1 => families::chain(rng.gen_range(2usize..7)),
                2 => families::star(rng.gen_range(2usize..6)),
                _ => families::spoke(rng.gen_range(2usize..4)),
            },
        };
        if q.is_connected() && q.num_atoms() >= 2 {
            return q;
        }
    }
}

#[test]
fn bracket_holds_on_120_random_queries_and_databases() {
    let mut rng = StdRng::seed_from_u64(CASE_SEED);
    let mut checked = 0usize;
    for case in 0..CASES {
        let q = random_connected_query(&mut rng, case);
        let n = rng.gen_range(40u64..=120);
        let m = rng.gen_range(0u64..=n);
        let p = [4usize, 8, 16][rng.gen_range(0usize..3)];
        let planted = output_controlled_database(&q, n, m, 1000 + case as u64);

        // Generator exactness: the planted cardinality is the join size.
        let truth = evaluate(&q, &planted.db).expect("sequential join");
        assert_eq!(truth.len() as u64, m, "{} planted cardinality", q.name());

        let analysis = QueryAnalysis::analyze(&q).expect("LP solvable");
        let bounds = analysis.output_bounds(n, m, p).expect("bounds computable");
        let cluster = Cluster::new(MpcConfig::new(p, analysis.space_exponent.to_f64())).unwrap();
        let program = HyperCubeProgram::new(&q, p, 0x5EED).expect("HyperCube plans");
        let run = cluster.run(&program, &planted.db).expect("HyperCube run");

        // Correctness of the run itself.
        assert!(
            run.output.same_tuples(&truth),
            "{} case {case}: HyperCube output diverges",
            q.name()
        );

        // The proven bracket.
        let verdict = bounds
            .bracket(&q, program.allocation(), run.max_load_tuples(), SLACK)
            .expect("bracket computable");
        assert!(
            verdict.lower_ok,
            "{} case {case} (n={n}, m={m}, p={p}): simulated {} beats the emission bound {}",
            q.name(),
            verdict.simulated_max_tuples,
            verdict.lower_tuples
        );
        assert!(
            verdict.upper_ok,
            "{} case {case} (n={n}, m={m}, p={p}): simulated {} above upper {} × {SLACK}",
            q.name(),
            verdict.simulated_max_tuples,
            verdict.rounded_upper_tuples
        );

        // Per-server emission: some server emits at least m/p answers.
        let max_emitted = run.per_server_output.iter().copied().max().unwrap_or(0);
        assert!(
            max_emitted as f64 + 1e-9 >= bounds.output_lower_per_server,
            "{} case {case}: max emitted {max_emitted} below m/p = {}",
            q.name(),
            bounds.output_lower_per_server
        );
        checked += 1;
    }
    assert!(checked >= 100, "the suite must cover at least 100 cases, got {checked}");
}

#[test]
fn journal_worked_examples_pin_closed_forms() {
    // Cycles: τ* = ρ* = k/2 and the emission bound is (m/p)^(2/k).
    for k in [3usize, 4, 6] {
        let a = QueryAnalysis::analyze(&families::cycle(k)).unwrap();
        assert_eq!(a.tau_star, Rational::new(k as i128, 2), "C{k}");
        assert_eq!(a.rho_star, Rational::new(k as i128, 2), "C{k}");
        let b = a.output_bounds(1 << 10, 1 << 10, 1 << 4).unwrap();
        // (2^10 / 2^4)^(2/k) = 2^(12/k) whenever k divides 12.
        if 12 % k == 0 {
            let expected = f64::from(1u32 << (12 / k as u32));
            assert!((b.lower_tuples - expected).abs() < 1e-9 * expected, "C{k}");
        }
    }
    // Stars: the matching-expectation bound degenerates to exactly m/p.
    for k in [2usize, 4] {
        let a = QueryAnalysis::analyze(&families::star(k)).unwrap();
        assert_eq!(a.rho_star, Rational::new(k as i128, 1), "T{k}");
        let b = a.output_bounds(500, 320, 16).unwrap();
        assert_eq!(b.matching_lower_tuples, 20.0, "T{k}");
    }
    // Chains: ρ* = ⌊k/2⌋ + 1 ≥ τ*, with equality exactly for odd k.
    for k in [2usize, 3, 4, 5, 6] {
        let a = QueryAnalysis::analyze(&families::chain(k)).unwrap();
        assert_eq!(a.rho_star, Rational::new((k / 2 + 1) as i128, 1), "L{k}");
        if k % 2 == 1 {
            assert_eq!(a.rho_star, a.tau_star, "L{k}");
        } else {
            assert!(a.rho_star > a.tau_star, "L{k}");
        }
    }
}

#[test]
fn multiround_predictions_bracket_simulated_loads() {
    // The refined multi-round analysis on matching chains: per-round
    // predictions must agree with the simulator within hash slack.
    let mut rng = StdRng::seed_from_u64(CASE_SEED ^ 0xFF);
    for _ in 0..6 {
        let k = [4usize, 6, 8][rng.gen_range(0usize..3)];
        let q = families::chain(k);
        let n = rng.gen_range(400u64..=1200);
        let db = matching_database(&q, n, rng.gen());
        let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
        let profile = plan.predict_loads(8, n).unwrap();
        let program = PlanProgram::new(&plan, 8, rng.gen()).unwrap();
        let run = Cluster::new(MpcConfig::new(8, 0.0)).unwrap().run(&program, &db).unwrap();
        for cmp in profile.compare(&run).unwrap() {
            assert!(
                cmp.ratio <= SLACK && cmp.ratio >= 1.0 / SLACK,
                "L{k} n={n} round {}: predicted {} vs simulated {}",
                cmp.round,
                cmp.predicted_tuples,
                cmp.simulated_max_tuples
            );
        }
    }
}

#[test]
fn planted_databases_also_satisfy_bounds_under_partial_output() {
    // Same query, sweeping m on one database family: the emission bound
    // is monotone in m and never crosses the simulated load.
    let q = families::triangle();
    let n = 200u64;
    let p = 27usize;
    let analysis = QueryAnalysis::analyze(&q).unwrap();
    let program = HyperCubeProgram::new(&q, p, 0x5EED).unwrap();
    let cluster = Cluster::new(MpcConfig::new(p, 1.0 / 3.0)).unwrap();
    let mut last_lower = 0.0f64;
    for m in [0u64, 1, 20, 100, 200] {
        let planted = output_controlled_database(&q, n, m, 9 + m);
        let bounds = analysis.output_bounds(n, m, p).unwrap();
        assert!(bounds.lower_tuples >= last_lower, "monotone in m");
        last_lower = bounds.lower_tuples;
        let run = cluster.run(&program, &planted.db).unwrap();
        assert_eq!(run.output.len() as u64, m);
        let verdict =
            bounds.bracket(&q, program.allocation(), run.max_load_tuples(), SLACK).unwrap();
        assert!(verdict.ok(), "m = {m}: {verdict:?}");
    }
}
