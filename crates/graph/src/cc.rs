//! Tuple-based label-propagation connected components.
//!
//! Each vertex is owned by the server its value hashes to; every round,
//! every owned vertex sends its current best (minimum) label along all of
//! its incident edges. The destination of each message depends only on the
//! message's vertex value, so the algorithm lives in the tuple-based
//! MPC(ε) model of Section 4.1. After `r` propagation rounds every vertex
//! knows the minimum vertex id within distance `r`, so the algorithm
//! converges after `diameter` propagation rounds — which on the layered
//! path graphs of Theorem 4.10 is `Θ(p^δ)`, far above the `Ω(log p)` lower
//! bound and wildly above the O(1) rounds available for dense inputs.

use std::collections::BTreeMap;

use mpc_data::graphs::sequential_components;
use mpc_sim::program::hash_value;
use mpc_sim::{MpcProgram, RouteSink, ServerState};
use mpc_storage::Relation;

/// Tag under which edges are stored at their owning server.
const EDGE_TAG: &str = "E";
/// Tag under which propagated labels travel.
const PROP_TAG: &str = "Prop";

/// The label-propagation connected-components program with a fixed number
/// of rounds, for a cluster of `p` servers.
#[derive(Debug, Clone)]
pub struct LabelPropagationCc {
    rounds: usize,
    p: usize,
    seed: u64,
}

impl LabelPropagationCc {
    /// A program performing `rounds − 1` propagation steps (round 1 places
    /// the edges) on `p` servers.
    pub fn new(rounds: usize, p: usize, seed: u64) -> Self {
        LabelPropagationCc { rounds: rounds.max(1), p: p.max(1), seed }
    }

    fn owner(&self, vertex: u64) -> usize {
        hash_value(self.seed, vertex, self.p)
    }

    /// The current best label of every vertex owned by this server:
    /// the minimum of the vertex id itself and every label received for it.
    fn current_labels(&self, state: &ServerState) -> BTreeMap<u64, u64> {
        let mut labels: BTreeMap<u64, u64> = BTreeMap::new();
        if let Some(edges) = state.relation(EDGE_TAG) {
            for t in edges.iter() {
                let u = t[0];
                labels.entry(u).or_insert(u);
            }
        }
        if let Some(props) = state.relation(PROP_TAG) {
            for t in props.iter() {
                let (v, label) = (t[0], t[1]);
                labels
                    .entry(v)
                    .and_modify(|l| *l = (*l).min(label))
                    .or_insert_with(|| v.min(label));
            }
        }
        labels
    }
}

impl MpcProgram for LabelPropagationCc {
    fn num_rounds(&self) -> usize {
        self.rounds
    }

    fn route_input_into(
        &self,
        relation: &Relation,
        p: usize,
        sink: &mut dyn RouteSink,
    ) -> mpc_sim::Result<()> {
        if p != self.p {
            return Err(mpc_sim::SimError::Program(format!(
                "program was built for p = {} but the cluster has p = {p}",
                self.p
            )));
        }
        // Edges (u, v) are owned by hash(u); the generator stores both
        // orientations, so every vertex with an incident edge is owned
        // somewhere.
        relation.iter().try_for_each(|t| sink.emit(EDGE_TAG, t, &[self.owner(t[0])]))
    }

    fn route_tuples_into(
        &self,
        _round: usize,
        _server: usize,
        state: &ServerState,
        sink: &mut dyn RouteSink,
    ) -> mpc_sim::Result<()> {
        // Propagate each owned vertex's current label along its edges. The
        // destination depends only on the tuple's vertex value.
        let labels = self.current_labels(state);
        let Some(edges) = state.relation(EDGE_TAG) else {
            return Ok(());
        };
        for t in edges.iter() {
            let (u, v) = (t[0], t[1]);
            let label = labels.get(&u).copied().unwrap_or(u);
            if label < v {
                sink.emit(PROP_TAG, &[v, label], &[self.owner(v)])?;
            }
        }
        Ok(())
    }

    fn output(&self, _server: usize, state: &ServerState) -> mpc_sim::Result<Relation> {
        let labels = self.current_labels(state);
        let mut out = Relation::empty("components", 2);
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

/// Extract the vertex → label map from a components output relation.
pub fn labels_from_output(output: &Relation) -> BTreeMap<u64, u64> {
    let mut labels = BTreeMap::new();
    for t in output.iter() {
        let (v, l) = (t[0], t[1]);
        labels.entry(v).and_modify(|cur: &mut u64| *cur = (*cur).min(l)).or_insert(l);
    }
    labels
}

/// Check that the labelling in `output` induces exactly the same partition
/// of the vertices as the true connected components of `edges`.
pub fn partition_matches(output: &Relation, edges: &Relation, num_vertices: u64) -> bool {
    let ours = labels_from_output(output);
    let (_, truth) = sequential_components(edges, num_vertices);
    // Every vertex incident to an edge must be labelled.
    let mut vertices: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for t in edges.iter() {
        vertices.insert(t[0]);
        vertices.insert(t[1]);
    }
    for &v in &vertices {
        if !ours.contains_key(&v) {
            return false;
        }
    }
    // Same partition: agree on label equality for every pair sharing a
    // component representative.
    let mut our_rep: BTreeMap<u64, u64> = BTreeMap::new();
    let mut true_rep: BTreeMap<u64, u64> = BTreeMap::new();
    for &v in &vertices {
        our_rep.insert(v, ours[&v]);
        true_rep.insert(v, truth[&v]);
    }
    // Build canonical partitions keyed by representative.
    let group = |rep: &BTreeMap<u64, u64>| {
        let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (&v, &r) in rep {
            groups.entry(r).or_default().push(v);
        }
        let mut parts: Vec<Vec<u64>> = groups.into_values().collect();
        parts.sort();
        parts
    };
    group(&our_rep) == group(&true_rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{edge_database, rounds_until_right};
    use mpc_data::graphs::{random_sparse_graph, LayeredGraph};
    use mpc_sim::{Cluster, MpcConfig, RunResult};

    /// Label propagation for `rounds` rounds on `p` servers, and whether
    /// it labelled the true components.
    fn run(edges: &Relation, n: u64, p: usize, rounds: usize, seed: u64) -> (bool, RunResult) {
        let cluster = Cluster::new(MpcConfig::new(p, 0.0)).unwrap();
        let run = cluster.run(&LabelPropagationCc::new(rounds, p, seed), &edge_database(edges, n));
        let run = run.unwrap();
        (partition_matches(&run.output, edges, n), run)
    }

    /// Label propagation with rounds added until it converges.
    fn converge(edges: &Relation, n: u64, p: usize, max: usize, seed: u64) -> (usize, RunResult) {
        let (rounds, converged, run) =
            rounds_until_right(max, |rounds| Ok(run(edges, n, p, rounds, seed))).unwrap();
        assert!(converged, "{max} rounds suffice");
        (rounds, run)
    }

    #[test]
    fn single_triangle_converges_in_two_rounds() {
        let edges =
            Relation::from_tuples("E", 2, vec![[1u64, 2], [2, 1], [2, 3], [3, 2], [3, 1], [1, 3]])
                .unwrap();
        let (rounds, run) = converge(&edges, 3, 4, 10, 1);
        assert!(rounds <= 2, "triangle has diameter 1, rounds = {rounds}");
        let labels = labels_from_output(&run.output);
        assert_eq!(labels[&1], 1);
        assert_eq!(labels[&2], 1);
        assert_eq!(labels[&3], 1);
    }

    #[test]
    fn two_components_get_distinct_labels() {
        let edges =
            Relation::from_tuples("E", 2, vec![[1u64, 2], [2, 1], [5, 6], [6, 5], [6, 7], [7, 6]])
                .unwrap();
        let (_, run) = converge(&edges, 7, 4, 10, 3);
        let labels = labels_from_output(&run.output);
        assert_eq!(labels[&1], labels[&2]);
        assert_eq!(labels[&5], labels[&7]);
        assert_ne!(labels[&1], labels[&5]);
    }

    #[test]
    fn layered_graph_needs_rounds_proportional_to_depth() {
        // A layered path graph with k edge layers has diameter k; label
        // propagation needs ≈ k propagation rounds — the behaviour behind
        // Theorem 4.10's Ω(log p) statement (no tuple-based trick gets
        // below log p; this simple one does not even reach that).
        let shallow = LayeredGraph::generate(2, 12, 3);
        let deep = LayeredGraph::generate(8, 12, 3);
        let (shallow_rounds, _) =
            converge(&shallow.edge_relation("E"), shallow.num_vertices(), 8, 32, 5);
        let (deep_rounds, _) = converge(&deep.edge_relation("E"), deep.num_vertices(), 8, 32, 5);
        assert!(
            deep_rounds >= shallow_rounds + 4,
            "deep {deep_rounds} vs shallow {shallow_rounds}"
        );
        assert!(deep_rounds >= 8);
    }

    #[test]
    fn sparse_random_graph_converges() {
        let edges = random_sparse_graph(60, 55, 7, "E");
        converge(&edges, 60, 6, 64, 2);
    }

    #[test]
    fn insufficient_rounds_do_not_converge_on_long_paths() {
        let g = LayeredGraph::generate(10, 6, 1);
        let (converged, _) = run(&g.edge_relation("E"), g.num_vertices(), 4, 3, 1);
        assert!(!converged, "3 rounds cannot label a depth-10 path graph");
    }

    #[test]
    fn per_round_load_stays_proportional_to_edges() {
        // Label propagation ships at most one message per directed edge per
        // round: replication rate ≈ 1.
        let g = LayeredGraph::generate(5, 40, 4);
        let (_, run) = run(&g.edge_relation("E"), g.num_vertices(), 8, 6, 3);
        for round in &run.rounds {
            assert!(
                round.replication_rate <= 1.1,
                "round {} rate {}",
                round.round,
                round.replication_rate
            );
        }
    }

    #[test]
    fn partition_matches_rejects_wrong_labelling() {
        let edges = Relation::from_tuples("E", 2, vec![[1u64, 2], [2, 1]]).unwrap();
        let wrong = Relation::from_tuples("components", 2, vec![[1u64, 1], [2, 2]]).unwrap();
        assert!(!partition_matches(&wrong, &edges, 2));
        let right = Relation::from_tuples("components", 2, vec![[1u64, 1], [2, 1]]).unwrap();
        assert!(partition_matches(&right, &edges, 2));
    }
}
