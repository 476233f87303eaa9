//! Integration tests for the graph applications (Theorem 4.10 and the
//! transitive-closure corollary) through the public facade crate.

use mpc_query::data::graphs::{dense_graph, LayeredGraph};
use mpc_query::graph::cc::{labels_from_output, partition_matches, LabelPropagationCc};
use mpc_query::graph::dense::DenseTwoRoundCc;
use mpc_query::graph::tc::{closure_matches, sequential_reachability, PathDoublingTc};
use mpc_query::graph::{edge_database, rounds_until_right};
use mpc_query::prelude::*;
use mpc_query::sim::RunResult;
use mpc_query::storage::join::evaluate;

/// Label propagation on `g` with rounds added until it converges: the
/// rounds it took and the converged run.
fn label_propagation(g: &LayeredGraph, p: usize, seed: u64) -> (usize, RunResult) {
    let (edges, n) = (g.edge_relation("E"), g.num_vertices());
    let (db, cluster) = (edge_database(&edges, n), Cluster::new(MpcConfig::new(p, 0.0)).unwrap());
    let (rounds, converged, run) = rounds_until_right(40, |rounds| {
        let run = cluster.run(&LabelPropagationCc::new(rounds, p, seed), &db)?;
        Ok((partition_matches(&run.output, &edges, n), run))
    })
    .unwrap();
    assert!(converged);
    (rounds, run)
}

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
    let (_, cc) = label_propagation(&g, 8, 5);
    let labels = labels_from_output(&cc.output);
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

    let (shallow_rounds, _) = label_propagation(&shallow, p, 1);
    let (deep_rounds, _) = label_propagation(&deep, p, 1);
    assert!(deep_rounds > shallow_rounds + 4);

    let cluster = Cluster::new(MpcConfig::new(p, 0.0)).unwrap();
    let n = deep.num_vertices();
    for (edges, dense_input) in
        [(dense_graph(n, 40, 9, "E"), true), (deep.edge_relation("E"), false)]
    {
        let run = cluster.run(&DenseTwoRoundCc::new(2), &edge_database(&edges, n)).unwrap();
        assert!(partition_matches(&run.output, &edges, n));
        assert_eq!(run.num_rounds(), 2);
        assert_eq!(run.within_budget(), dense_input, "within budget exactly on the dense input");
    }
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
    let (db, cluster) = (edge_database(&edges, 33), Cluster::new(MpcConfig::new(8, 0.5)).unwrap());
    let (rounds, complete, run) = rounds_until_right(10, |rounds| {
        let run = cluster.run(&PathDoublingTc::new(rounds, 8, 4), &db)?;
        Ok((closure_matches(&run.output, &edges), run))
    })
    .unwrap();
    assert!(complete);
    assert!(rounds <= 7, "path doubling should need ~log2(32)+1 rounds");
    assert_eq!(run.output.len(), 32 * 33 / 2);
    assert_eq!(sequential_reachability(&edges).len(), 32 * 33 / 2);
    // The shuffle volume far exceeds the input size: rounds were bought
    // with communication.
    assert!(run.total_bytes() > edges.size_in_bytes() * 8);
}
