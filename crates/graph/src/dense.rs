//! The two-round connected-components algorithm for dense graphs.
//!
//! Karloff, Suri & Vassilvitskii (SODA 2010) — cited in Section 1 of the
//! paper as the contrast to Theorem 4.10 — show that connected components
//! (and minimum spanning trees) of *sufficiently dense* graphs can be
//! computed in O(1) MapReduce rounds. The scheme implemented here:
//!
//! 1. Round 1: hash-partition the edges arbitrarily across the `p`
//!    servers; each server computes a spanning forest of its local edges
//!    (at most `V − 1` edges survive).
//! 2. Round 2: every server sends its forest edges to server 0, which has
//!    now enough information to output the exact components.
//!
//! Server 0 receives at most `p · (V − 1)` edges; the input has `E` edges,
//! so the round-2 load stays within the `c · N / p^{1−ε}` budget exactly
//! when the graph is dense enough (`E ≳ p^{2−ε} · V`). On sparse inputs —
//! like the layered path graphs of Theorem 4.10 — the same program blows
//! the budget, which is precisely the dichotomy the experiment E5 reports.

use std::collections::BTreeMap;

use mpc_sim::program::hash_to_bucket;
use mpc_sim::{MpcProgram, RouteSink, ServerState};
use mpc_storage::Relation;

const EDGE_TAG: &str = "E";
const FOREST_TAG: &str = "Forest";

/// The dense-graph two-round connected-components program.
#[derive(Debug, Clone)]
pub struct DenseTwoRoundCc {
    seed: u64,
}

impl DenseTwoRoundCc {
    /// Create the program.
    pub fn new(seed: u64) -> Self {
        DenseTwoRoundCc { seed }
    }
}

/// Union-find over arbitrary vertex ids: the root of `v`'s set (its
/// smallest vertex id), with the path to it compressed.
fn find(parent: &mut BTreeMap<u64, u64>, v: u64) -> u64 {
    let mut root = v;
    while let Some(&p) = parent.get(&root) {
        if p == root {
            break;
        }
        root = p;
    }
    let mut cur = v;
    while let Some(&p) = parent.get(&cur) {
        if p == cur {
            break;
        }
        parent.insert(cur, root);
        cur = p;
    }
    root
}

/// Merge the sets of `u` and `v` under the smaller root; false when they
/// were one set already.
fn union(parent: &mut BTreeMap<u64, u64>, u: u64, v: u64) -> bool {
    parent.entry(u).or_insert(u);
    parent.entry(v).or_insert(v);
    let (ru, rv) = (find(parent, u), find(parent, v));
    if ru != rv {
        parent.insert(ru.max(rv), ru.min(rv));
    }
    ru != rv
}

/// The component label (smallest vertex id) of every vertex of `edges`.
fn components_of(edges: impl Iterator<Item = (u64, u64)>) -> BTreeMap<u64, u64> {
    let mut parent = BTreeMap::new();
    for (u, v) in edges {
        union(&mut parent, u, v);
    }
    let vertices: Vec<u64> = parent.keys().copied().collect();
    vertices.into_iter().map(|v| (v, find(&mut parent, v))).collect()
}

/// A spanning forest of the given edges (one representative edge per
/// union-find merge).
fn spanning_forest(edges: &Relation) -> Vec<(u64, u64)> {
    let mut parent = BTreeMap::new();
    edges.iter().map(|t| (t[0], t[1])).filter(|&(u, v)| union(&mut parent, u, v)).collect()
}

impl MpcProgram for DenseTwoRoundCc {
    fn num_rounds(&self) -> usize {
        2
    }

    fn route_input_into(
        &self,
        relation: &Relation,
        p: usize,
        sink: &mut dyn RouteSink,
    ) -> mpc_sim::Result<()> {
        relation.iter().try_for_each(|t| sink.emit(EDGE_TAG, t, &[hash_to_bucket(self.seed, t, p)]))
    }

    fn compute(
        &self,
        round: usize,
        _server: usize,
        state: &ServerState,
    ) -> mpc_sim::Result<Vec<Relation>> {
        if round != 1 {
            return Ok(Vec::new());
        }
        let Some(edges) = state.relation(EDGE_TAG) else {
            return Ok(Vec::new());
        };
        let mut forest = Relation::empty(FOREST_TAG, 2);
        for (u, v) in spanning_forest(edges) {
            forest.insert_row(&[u, v])?;
        }
        Ok(vec![forest])
    }

    fn route_tuples_into(
        &self,
        round: usize,
        _server: usize,
        state: &ServerState,
        sink: &mut dyn RouteSink,
    ) -> mpc_sim::Result<()> {
        match state.relation(FOREST_TAG) {
            Some(forest) if round == 2 => {
                forest.iter().try_for_each(|t| sink.emit(FOREST_TAG, t, &[0]))
            }
            _ => Ok(()),
        }
    }

    fn output(&self, server: usize, state: &ServerState) -> mpc_sim::Result<Relation> {
        let mut out = Relation::empty("components", 2);
        if server != 0 {
            return Ok(out);
        }
        let Some(forest) = state.relation(FOREST_TAG) else {
            return Ok(out);
        };
        let labels = components_of(forest.iter().map(|t| (t[0], t[1])));
        for (v, l) in labels {
            out.insert_row(&[v, l])?;
        }
        Ok(out)
    }

    fn output_name(&self) -> String {
        "components".to_string()
    }

    fn output_arity(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::partition_matches;
    use crate::edge_database;
    use mpc_data::graphs::{dense_graph, LayeredGraph};
    use mpc_sim::{Cluster, MpcConfig, RunResult};

    /// The two-round program on `p` servers at ε = 0, checked correct.
    fn run(edges: &Relation, n: u64, p: usize) -> RunResult {
        let cluster = Cluster::new(MpcConfig::new(p, 0.0)).unwrap();
        let run = cluster.run(&DenseTwoRoundCc::new(1), &edge_database(edges, n)).unwrap();
        assert!(partition_matches(&run.output, edges, n), "the algorithm is always correct");
        assert_eq!(run.num_rounds(), 2);
        run
    }

    #[test]
    fn dense_graph_two_rounds_correct_and_within_budget() {
        let run = run(&dense_graph(100, 40, 3, "E"), 100, 4);
        assert!(
            run.within_budget(),
            "dense input should fit the ε = 0 budget (max load {} vs budget {})",
            run.max_load_bytes(),
            run.rounds[0].budget_bytes
        );
    }

    #[test]
    fn sparse_graph_is_correct_but_blows_the_budget() {
        // The layered path graphs are sparse: collecting p spanning forests
        // at one server exceeds c·N/p.
        let g = LayeredGraph::generate(6, 50, 2);
        let run = run(&g.edge_relation("E"), g.num_vertices(), 16);
        assert!(!run.within_budget(), "sparse input must exceed the ε = 0 budget");
    }

    #[test]
    fn spanning_forest_has_at_most_v_minus_1_edges() {
        let edges = dense_graph(50, 20, 5, "E");
        let forest = spanning_forest(&edges);
        assert!(forest.len() < 50);
        // The forest preserves connectivity: same partition.
        let forest_rel =
            Relation::from_tuples("F", 2, forest.iter().map(|&(u, v)| [u, v]).collect::<Vec<_>>())
                .unwrap();
        let full = components_of(edges.iter().map(|t| (t[0], t[1])));
        let reduced = components_of(forest_rel.iter().map(|t| (t[0], t[1])));
        for (v, l) in &full {
            for (w, m) in &full {
                assert_eq!(l == m, reduced[v] == reduced[w]);
            }
        }
    }

    #[test]
    fn components_of_handles_isolated_unions() {
        let labels = components_of(vec![(1, 2), (3, 4), (2, 3)].into_iter());
        assert_eq!(labels[&1], labels[&4]);
        let labels = components_of(vec![(1, 2), (5, 6)].into_iter());
        assert_ne!(labels[&1], labels[&5]);
    }
}
