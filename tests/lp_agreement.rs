//! Cross-solver agreement property test for the LP layer.
//!
//! For 200 seeded random queries — acyclic (random trees), cyclic (random
//! spanning path plus chords), mixed-arity hypergraphs, and renamed/
//! permuted instances of the recognised families — the three solver paths
//! must agree **exactly** (rational equality, no epsilons):
//!
//! * the dense tableau oracle (`QueryLps::solve_dense`),
//! * the sparse revised simplex (`QueryLps::solve_sparse`), and
//! * when the family is recognised, the closed form
//!   (`mpc_lp::families::closed_form`),
//!
//! on `τ*`, the feasibility of every returned cover/packing/edge-cover,
//! and LP duality (`cover total == packing total`). The production path
//! (`QueryLps::solve`: closed form, else sparse simplex) is checked on
//! top, together with the property that makes plans reproducible: what it
//! returns for a query does not depend on what was solved before.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mpc_query::core::analysis::QueryAnalysis;
use mpc_query::core::shares::ShareAllocation;
use mpc_query::cq::parser::parse_query;
use mpc_query::cq::{families, Query};
use mpc_query::lp::{QueryLps, Rational};

/// Number of random queries checked.
const CASES: usize = 200;

/// Master seed of the deterministic generator.
const CASE_SEED: u64 = 0x1A9_BEA3E;

/// Build one random query; the mix covers trees, cyclic graphs, higher
/// arities and renamed family instances.
fn random_query(rng: &mut StdRng, case: usize) -> Query {
    match case % 4 {
        // Random tree (acyclic): every variable links to a random earlier one.
        0 => {
            let k = rng.gen_range(2usize..8);
            let atoms: Vec<(String, Vec<String>)> = (1..k)
                .map(|i| {
                    let parent = rng.gen_range(0usize..i);
                    (format!("E{i}"), vec![format!("x{parent}"), format!("x{i}")])
                })
                .collect();
            Query::new(format!("tree{case}"), atoms).expect("valid tree query")
        }
        // Spanning path plus random chords (cyclic).
        1 => {
            let k = rng.gen_range(3usize..8);
            let mut atoms: Vec<(String, Vec<String>)> = (1..k)
                .map(|i| (format!("P{i}"), vec![format!("x{}", i - 1), format!("x{i}")]))
                .collect();
            for j in 0..rng.gen_range(1usize..4) {
                let a = rng.gen_range(0usize..k);
                let b = rng.gen_range(0usize..k);
                if a != b {
                    atoms.push((format!("C{j}"), vec![format!("x{a}"), format!("x{b}")]));
                }
            }
            Query::new(format!("cyc{case}"), atoms).expect("valid cyclic query")
        }
        // Mixed arities: random hyperedges of size 1..=3.
        2 => {
            let k = rng.gen_range(2usize..7);
            let l = rng.gen_range(2usize..6);
            let atoms: Vec<(String, Vec<String>)> = (0..l)
                .map(|j| {
                    let arity = rng.gen_range(1usize..4);
                    let vars =
                        (0..arity).map(|_| format!("x{}", rng.gen_range(0usize..k))).collect();
                    (format!("H{j}"), vars)
                })
                .collect();
            Query::new(format!("hyp{case}"), atoms).expect("valid hypergraph query")
        }
        // A family instance with shuffled atom order and fresh names, so
        // recognition (and the closed form) must work up to renaming.
        _ => {
            let q = match rng.gen_range(0usize..5) {
                0 => families::cycle(rng.gen_range(2usize..10)),
                1 => families::chain(rng.gen_range(1usize..10)),
                2 => families::star(rng.gen_range(1usize..8)),
                3 => families::spoke(rng.gen_range(1usize..5)),
                _ => families::binomial(rng.gen_range(2usize..6), 2).expect("valid"),
            };
            let mut atoms: Vec<(String, Vec<String>)> = q
                .atoms()
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    (format!("R{i}"), a.vars.iter().map(|v| format!("v{}", v.0)).collect())
                })
                .collect();
            // Deterministic shuffle by rotation + swap.
            let rot = rng.gen_range(0usize..atoms.len());
            atoms.rotate_left(rot);
            if atoms.len() > 1 {
                let s = rng.gen_range(0usize..atoms.len() - 1);
                atoms.swap(s, s + 1);
            }
            Query::new(format!("fam{case}"), atoms).expect("valid renamed family")
        }
    }
}

#[test]
fn all_solver_paths_agree_on_200_random_queries() {
    let mut rng = StdRng::seed_from_u64(CASE_SEED);
    let mut closed_form_cases = 0usize;
    for case in 0..CASES {
        let q = random_query(&mut rng, case);
        let check = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let dense = QueryLps::solve_dense(&q).expect("dense oracle solves");
            let sparse = QueryLps::solve_sparse(&q).expect("sparse solver solves");

            // τ* agreement, exactly.
            assert_eq!(dense.covering_number(), sparse.covering_number(), "τ* dense vs sparse");
            assert_eq!(
                dense.edge_cover().total(),
                sparse.edge_cover().total(),
                "edge cover dense vs sparse"
            );

            // Feasibility and duality of both solvers' solutions.
            for (label, lps) in [("dense", &dense), ("sparse", &sparse)] {
                assert!(lps.vertex_cover().is_valid_for(&q), "{label} cover feasible");
                assert!(lps.edge_packing().is_valid_for(&q), "{label} packing feasible");
                assert!(lps.edge_cover().is_valid_for(&q), "{label} edge cover feasible");
                assert_eq!(
                    lps.vertex_cover().total(),
                    lps.edge_packing().total(),
                    "{label} duality"
                );
                assert!(lps.covering_number() >= Rational::ONE, "{label} τ* ≥ 1");
            }

            // Closed form, when the family is recognised.
            if let Some((family, closed)) = mpc_query::lp::families::closed_form(&q) {
                assert_eq!(
                    closed.covering_number(),
                    dense.covering_number(),
                    "closed form {family} τ*"
                );
                assert_eq!(
                    closed.edge_cover().total(),
                    dense.edge_cover().total(),
                    "closed form {family} edge cover"
                );
                assert!(closed.vertex_cover().is_valid_for(&q));
                assert!(closed.edge_packing().is_valid_for(&q));
                assert!(closed.edge_cover().is_valid_for(&q));
                true
            } else {
                false
            }
        }));
        match check {
            Ok(true) => closed_form_cases += 1,
            Ok(false) => {}
            Err(panic) => {
                eprintln!("lp agreement failed on case {case}: {q}");
                std::panic::resume_unwind(panic);
            }
        }
    }
    // The family quarter of the generator must actually exercise the
    // closed forms.
    assert!(closed_form_cases >= CASES / 8, "only {closed_form_cases} closed-form cases");
}

/// Closed-form pins for the clique family `K_k`: the fractional vertex
/// cover puts 1/2 on every vertex and the fractional edge cover
/// `1/(k-1)` on every edge, so `τ* = ρ* = k/2` exactly — the equality
/// that makes cliques the worst case for the one-round/multi-round
/// crossover (the AGM and one-round targets coincide on skew-free data).
/// All three solver paths must pin these rationals exactly.
#[test]
fn clique_closed_forms_pin_tau_and_rho_at_k_halves() {
    for k in 3usize..=6 {
        let q = families::clique(k).expect("valid clique");
        let expected = Rational::new(k as i128, 2);
        let dense = QueryLps::solve_dense(&q).expect("dense oracle solves");
        let sparse = QueryLps::solve_sparse(&q).expect("sparse solver solves");
        let fast = QueryLps::solve(&q).expect("fast path solves");
        for (label, lps) in [("dense", &dense), ("sparse", &sparse), ("fast", &fast)] {
            assert_eq!(lps.covering_number(), expected, "K{k} τ* via {label}");
            assert_eq!(lps.edge_cover().total(), expected, "K{k} ρ* via {label}");
            assert!(lps.vertex_cover().is_valid_for(&q), "K{k} {label} cover feasible");
            assert!(lps.edge_cover().is_valid_for(&q), "K{k} {label} edge cover feasible");
            assert_eq!(
                lps.vertex_cover().total(),
                lps.edge_packing().total(),
                "K{k} {label} duality"
            );
        }
        // K3 is recognised as the cycle C3, larger cliques as B_{k,2};
        // either way the closed form exists and pins the same optima.
        let (family, closed) =
            mpc_query::lp::families::closed_form(&q).expect("cliques have a closed form");
        assert_eq!(closed.covering_number(), expected, "K{k} closed form ({family}) τ*");
        assert_eq!(closed.edge_cover().total(), expected, "K{k} closed form ({family}) ρ*");
    }
}

/// An isomorphic copy with a different text: fresh variable and relation
/// names, atoms in reverse order (so variable ids are assigned in another
/// order too).
fn renamed_copy(q: &Query) -> Query {
    let atoms: Vec<(String, Vec<String>)> = q
        .atoms()
        .iter()
        .rev()
        .map(|a| (format!("{}2", a.name), a.vars.iter().map(|v| format!("w{}", v.0)).collect()))
        .collect();
    Query::new(format!("{}2", q.name()), atoms).expect("valid renamed copy")
}

/// `QueryLps::solve` is a pure function of the query: it returns exactly
/// what the sparse simplex returns for *this* text (or the certified
/// closed form), not an optimum carried over from an isomorphic query
/// solved earlier — so the shares rounded from its cover, and every plan
/// built on them, are the same in a cold process and a warm one.
#[test]
fn analysis_does_not_depend_on_what_was_analysed_before() {
    // K2 is K with its atoms reversed and its variables renamed. Solved
    // on its own its cover is (½,½,½,½); K's optimum carried over through
    // the isomorphism is (0,1,0,1), which rounds to shares [1,8,1,8].
    let k = parse_query("K(a,b,c,d) :- R(a,b), S(a,c), T(a,d), U(b,c), V(c,d)").unwrap();
    let k2 = parse_query("K2(d,c,b,a) :- V2(d,c), U2(c,b), T2(d,a), S2(c,a), R2(b,a)").unwrap();
    QueryAnalysis::analyze(&k).expect("K analyses");
    assert_eq!(QueryLps::solve(&k2).unwrap(), QueryLps::solve_sparse(&k2).unwrap());
    assert_eq!(ShareAllocation::optimal(&k2, 64).unwrap().shares, [3, 3, 3, 2]);

    // The same on the witness query and three shapes with arity-3 atoms,
    // none a recognised family: original first, then its renamed copy.
    let shapes = [
        families::witness_query(),
        parse_query("H1(x,y,z,u,v) :- A(x,y,z), B(z,u), C(u,v,x)").unwrap(),
        parse_query("H2(x,y,z,u,v) :- A(x,y,z), B(x,u,v), C(y,u), D(z,v)").unwrap(),
        parse_query("H3(x,y,z,w,t) :- A(x,y,z), B(z,w), C(w,x), D(y,w,t)").unwrap(),
    ];
    for q in &shapes {
        assert!(mpc_query::lp::families::closed_form(q).is_none(), "{q} is no family");
        QueryAnalysis::analyze(q).expect("original analyses");
        let copy = renamed_copy(q);
        let own = QueryLps::solve_sparse(&copy).expect("sparse solver solves");
        assert_eq!(QueryLps::solve(&copy).unwrap(), own, "{copy} after {q}");
        assert_eq!(
            ShareAllocation::optimal(&copy, 64).unwrap().shares,
            ShareAllocation::from_cover(&copy, own.vertex_cover(), 64).unwrap().shares,
            "shares of {copy} after {q}"
        );
    }

    // On random queries: the production path agrees with both solvers on
    // τ* and ρ*, returns valid and tight (cover = packing) solutions, and
    // returns the same triple when asked again.
    let mut rng = StdRng::seed_from_u64(CASE_SEED ^ 0x5EED);
    for case in 0..CASES / 4 {
        let q = random_query(&mut rng, case);
        let fast = QueryLps::solve(&q).expect("fast path solves");
        let dense = QueryLps::solve_dense(&q).expect("dense oracle solves");
        let sparse = QueryLps::solve_sparse(&q).expect("sparse solver solves");
        for (label, other) in [("dense", &dense), ("sparse", &sparse)] {
            assert_eq!(fast.covering_number(), other.covering_number(), "τ* vs {label} on {q}");
            assert_eq!(fast.edge_cover().total(), other.edge_cover().total(), "ρ* vs {label}");
        }
        assert!(fast.vertex_cover().is_valid_for(&q), "fast path cover feasible on {q}");
        assert!(fast.edge_packing().is_valid_for(&q), "fast path packing feasible on {q}");
        assert!(fast.edge_cover().is_valid_for(&q), "fast path edge cover feasible on {q}");
        assert_eq!(fast.vertex_cover().total(), fast.edge_packing().total(), "duality on {q}");
        assert_eq!(QueryLps::solve(&q).expect("solves twice"), fast, "repeat solve of {q}");
    }
}
