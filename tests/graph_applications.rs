//! Integration tests for the graph applications (Theorem 4.10 and the
//! transitive-closure corollary) through the public facade crate.

use mpc_query::data::graphs::{dense_graph, LayeredGraph};
use mpc_query::graph::cc::{labels_from_output, rounds_to_convergence};
use mpc_query::graph::dense::run_dense_cc;
use mpc_query::graph::tc::{sequential_reachability, tc_rounds_to_completion};
use mpc_query::prelude::*;
use mpc_query::storage::join::evaluate;

/// The components of a layered path graph correspond one-to-one to the
/// answers of the chain query L_k — the reduction at the heart of
/// Theorem 4.10 — and both the chain query (via HyperCube plans) and the
/// CC program agree with the sequential ground truth.
#[test]
fn layered_graph_components_equal_chain_answers() {
    let g = LayeredGraph::generate(4, 32, 11);
    let (q, db) = g.to_chain_database();
    let chain_answers = evaluate(&q, &db).unwrap();
    assert_eq!(chain_answers.len() as u64, g.num_components());

    // The multi-round plan for L4 computes the same answers in 2 rounds.
    let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
    let program = PlanProgram::new(&plan, 8, 3).unwrap();
    let result = Cluster::new(MpcConfig::new(8, 0.0)).unwrap().run(&program, &db).unwrap();
    assert!(result.output.same_tuples(&chain_answers));
    assert_eq!(result.num_rounds(), 2);

    // Label propagation labels the same components.
    let edges = g.edge_relation("E");
    let cc = rounds_to_convergence(&edges, g.num_vertices(), 8, 0.0, 20, 5).unwrap();
    assert!(cc.converged);
    let labels = labels_from_output(&cc.result.output);
    let distinct: std::collections::BTreeSet<_> = labels.values().collect();
    assert_eq!(distinct.len() as u64, g.num_components());
}

/// Deeper layered graphs force more label-propagation rounds while the
/// dense two-round algorithm stays at 2 (and blows the budget on the
/// sparse inputs) — the Theorem 4.10 dichotomy end to end.
#[test]
fn sparse_needs_more_rounds_than_dense() {
    let shallow = LayeredGraph::generate(2, 24, 3);
    let deep = LayeredGraph::generate(9, 24, 3);
    let p = 8;

    let shallow_cc =
        rounds_to_convergence(&shallow.edge_relation("E"), shallow.num_vertices(), p, 0.0, 40, 1)
            .unwrap();
    let deep_cc =
        rounds_to_convergence(&deep.edge_relation("E"), deep.num_vertices(), p, 0.0, 40, 1)
            .unwrap();
    assert!(shallow_cc.converged && deep_cc.converged);
    assert!(deep_cc.rounds > shallow_cc.rounds + 4);

    let dense_edges = dense_graph(deep.num_vertices(), 40, 9, "E");
    let dense = run_dense_cc(&dense_edges, deep.num_vertices(), p, 0.0, 2).unwrap();
    assert!(dense.correct);
    assert_eq!(dense.result.num_rounds(), 2);
    assert!(dense.within_budget);

    let dense_on_sparse =
        run_dense_cc(&deep.edge_relation("E"), deep.num_vertices(), p, 0.0, 2).unwrap();
    assert!(dense_on_sparse.correct);
    assert!(!dense_on_sparse.within_budget);
}

/// Path doubling computes the transitive closure in logarithmically many
/// rounds, exponentially fewer than the graph diameter, at the price of a
/// much larger shuffle volume.
#[test]
fn transitive_closure_round_communication_tradeoff() {
    // A directed path of 33 vertices (diameter 32).
    let edges = mpc_query::storage::Relation::from_tuples(
        "E",
        2,
        (1..33u64).map(|i| [i, i + 1]).collect::<Vec<_>>(),
    )
    .unwrap();
    let outcome = tc_rounds_to_completion(&edges, 33, 8, 0.5, 10, 4).unwrap();
    assert!(outcome.complete);
    assert!(outcome.rounds <= 7, "path doubling should need ~log2(32)+1 rounds");
    assert_eq!(outcome.result.output.len(), 32 * 33 / 2);
    assert_eq!(sequential_reachability(&edges).len(), 32 * 33 / 2);
    // The shuffle volume far exceeds the input size: rounds were bought
    // with communication.
    assert!(outcome.result.total_bytes() > edges.size_in_bytes() * 8);
}
