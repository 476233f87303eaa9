//! Transitive closure / reachability on the MPC model by path doubling.
//!
//! The paper's Theorem 4.10 is stated for CONNECTED-COMPONENTS, and the
//! introduction notes the same consequence for **transitive closure**: no
//! tuple-based MPC(ε) algorithm with ε < 1 computes it in O(1) rounds.
//! The classic upper bound is *path doubling*: maintain the set of known
//! reachable pairs and square it every round by joining on the midpoint,
//! reaching all pairs after `⌈log₂ diameter⌉ + 1` doubling rounds. Each
//! doubling round is a two-way join, i.e. exactly one HyperCube-style
//! shuffle on the midpoint — a tuple-based program.
//!
//! Compared with the label propagation of [`crate::cc`], path doubling
//! uses exponentially fewer rounds (`log d` instead of `d`) but shuffles
//! up to `Θ(V·d)` pairs per round — a concrete instance of the paper's
//! rounds-versus-communication tradeoff.

use std::collections::BTreeSet;

use mpc_sim::program::hash_value;
use mpc_sim::{MpcProgram, RouteSink, ServerState};
use mpc_storage::Relation;

/// Tag for pairs hashed by their target vertex (awaiting extension).
const BY_TARGET: &str = "ByTarget";
/// Tag for pairs hashed by their source vertex (providing extensions).
const BY_SOURCE: &str = "BySource";

/// The path-doubling transitive-closure program.
#[derive(Debug, Clone)]
pub struct PathDoublingTc {
    rounds: usize,
    p: usize,
    seed: u64,
}

impl PathDoublingTc {
    /// A program running the given number of rounds (round 1 distributes
    /// the edges; every later round doubles the path length) on `p`
    /// servers.
    pub fn new(rounds: usize, p: usize, seed: u64) -> Self {
        PathDoublingTc { rounds: rounds.max(1), p: p.max(1), seed }
    }

    fn owner(&self, vertex: u64) -> usize {
        hash_value(self.seed, vertex, self.p)
    }

    /// All pairs currently known at a server (union of both tags).
    fn known_pairs(&self, state: &ServerState) -> BTreeSet<(u64, u64)> {
        let mut pairs = BTreeSet::new();
        for tag in [BY_TARGET, BY_SOURCE] {
            if let Some(rel) = state.relation(tag) {
                for t in rel.iter() {
                    pairs.insert((t[0], t[1]));
                }
            }
        }
        if let Some(rel) = state.relation("Closed") {
            for t in rel.iter() {
                pairs.insert((t[0], t[1]));
            }
        }
        pairs
    }
}

impl MpcProgram for PathDoublingTc {
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
        // Each edge (u, v) participates both as a left factor (hashed by
        // its target v) and as a right factor (hashed by its source u).
        for t in relation.iter() {
            let (u, v) = (t[0], t[1]);
            sink.emit(BY_TARGET, t, &[self.owner(v)])?;
            sink.emit(BY_SOURCE, t, &[self.owner(u)])?;
        }
        Ok(())
    }

    fn compute(
        &self,
        _round: usize,
        _server: usize,
        state: &ServerState,
    ) -> mpc_sim::Result<Vec<Relation>> {
        // Join ByTarget(x, m) ⋈ BySource(m, z) on the locally-owned midpoint
        // m, producing new pairs (x, z); keep every pair ever seen in the
        // local "Closed" relation so the output is cumulative.
        let mut closed = Relation::empty("Closed", 2);
        let (Some(by_target), Some(by_source)) =
            (state.relation(BY_TARGET), state.relation(BY_SOURCE))
        else {
            return Ok(vec![]);
        };
        let mut by_mid: std::collections::HashMap<u64, Vec<u64>> = std::collections::HashMap::new();
        for t in by_source.iter() {
            by_mid.entry(t[0]).or_default().push(t[1]);
        }
        for t in by_target.iter() {
            let (x, m) = (t[0], t[1]);
            closed.insert_row(t)?;
            if let Some(targets) = by_mid.get(&m) {
                for &z in targets {
                    if x != z {
                        closed.insert_row(&[x, z])?;
                    }
                }
            }
        }
        closed.extend_from(by_source)?;
        Ok(vec![closed])
    }

    fn route_tuples_into(
        &self,
        _round: usize,
        _server: usize,
        state: &ServerState,
        sink: &mut dyn RouteSink,
    ) -> mpc_sim::Result<()> {
        // Re-shuffle every known pair under both roles so the next round
        // can double path lengths again. Destinations depend only on the
        // tuple, so the program is tuple-based.
        for (x, y) in self.known_pairs(state) {
            sink.emit(BY_TARGET, &[x, y], &[self.owner(y)])?;
            sink.emit(BY_SOURCE, &[x, y], &[self.owner(x)])?;
        }
        Ok(())
    }

    fn output(&self, _server: usize, state: &ServerState) -> mpc_sim::Result<Relation> {
        let mut out = Relation::empty("TC", 2);
        if let Some(closed) = state.relation("Closed") {
            out.extend_from(closed)?;
        }
        Ok(out)
    }

    fn output_name(&self) -> String {
        "TC".to_string()
    }

    fn output_arity(&self) -> usize {
        2
    }
}

/// Sequential reachability (the ground truth): all ordered pairs `(u, v)`
/// with `u ≠ v` and a directed path from `u` to `v` in `edges`.
pub fn sequential_reachability(edges: &Relation) -> BTreeSet<(u64, u64)> {
    let mut adj: std::collections::HashMap<u64, Vec<u64>> = std::collections::HashMap::new();
    let mut vertices = BTreeSet::new();
    for t in edges.iter() {
        let (u, v) = (t[0], t[1]);
        adj.entry(u).or_default().push(v);
        vertices.insert(u);
        vertices.insert(v);
    }
    let mut pairs = BTreeSet::new();
    for &s in &vertices {
        let mut stack = vec![s];
        let mut seen = BTreeSet::new();
        while let Some(u) = stack.pop() {
            if let Some(next) = adj.get(&u) {
                for &v in next {
                    if seen.insert(v) {
                        stack.push(v);
                    }
                }
            }
        }
        for v in seen {
            if v != s {
                pairs.insert((s, v));
            }
        }
    }
    pairs
}

/// Whether `output` (pairs, self-pairs ignored) is exactly the
/// reachability relation of `edges`.
pub fn closure_matches(output: &Relation, edges: &Relation) -> bool {
    let ours: BTreeSet<(u64, u64)> =
        output.iter().filter(|t| t[0] != t[1]).map(|t| (t[0], t[1])).collect();
    ours == sequential_reachability(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{edge_database, rounds_until_right};
    use mpc_sim::{Cluster, MpcConfig, RunResult};

    fn directed_path(len: u64) -> Relation {
        Relation::from_tuples("E", 2, (1..len).map(|i| [i, i + 1]).collect::<Vec<_>>()).unwrap()
    }

    /// Path doubling for `rounds` rounds on `p` servers, and whether it
    /// closed the graph.
    fn run(edges: &Relation, n: u64, p: usize, rounds: usize, seed: u64) -> (bool, RunResult) {
        let cluster = Cluster::new(MpcConfig::new(p, 0.5)).unwrap();
        let run = cluster.run(&PathDoublingTc::new(rounds, p, seed), &edge_database(edges, n));
        let run = run.unwrap();
        (closure_matches(&run.output, edges), run)
    }

    /// Path doubling with rounds added until the closure is complete.
    fn complete(edges: &Relation, n: u64, p: usize, max: usize, seed: u64) -> (usize, RunResult) {
        let (rounds, complete, run) =
            rounds_until_right(max, |rounds| Ok(run(edges, n, p, rounds, seed))).unwrap();
        assert!(complete, "{max} rounds suffice");
        (rounds, run)
    }

    #[test]
    fn sequential_reachability_on_path() {
        let edges = directed_path(5);
        let pairs = sequential_reachability(&edges);
        assert_eq!(pairs.len(), 4 + 3 + 2 + 1);
        assert!(pairs.contains(&(1, 5)));
        assert!(!pairs.contains(&(5, 1)));
    }

    #[test]
    fn path_doubling_closes_a_path_in_logarithmic_rounds() {
        let edges = directed_path(17); // diameter 16
        let (rounds, run) = complete(&edges, 17, 8, 12, 3);
        // log2(16) + 1 = 5 doubling rounds (plus the distribution round).
        assert!(rounds <= 6, "took {rounds} rounds");
        assert!(rounds >= 4);
        assert_eq!(run.output.len(), 16 * 17 / 2);
    }

    #[test]
    fn doubling_beats_label_propagation_style_round_counts() {
        // The same 17-vertex path would need ~16 propagation rounds; path
        // doubling needs ~5 — the rounds-for-communication tradeoff.
        let edges = directed_path(17);
        let (rounds, run) = complete(&edges, 17, 8, 12, 3);
        assert!(rounds < 8);
        // But it ships far more pairs per round than there are edges.
        assert!(run.total_bytes() > edges.size_in_bytes() * 4);
    }

    #[test]
    fn insufficient_rounds_leave_closure_incomplete() {
        let edges = directed_path(32);
        let (complete, _) = run(&edges, 32, 8, 3, 1);
        assert!(!complete);
    }

    #[test]
    fn branching_graph_closure() {
        // A small DAG: 1 → 2 → 4, 1 → 3 → 4, 4 → 5.
        let edges =
            Relation::from_tuples("E", 2, vec![[1u64, 2], [1, 3], [2, 4], [3, 4], [4, 5]]).unwrap();
        let (_, run) = complete(&edges, 5, 4, 8, 2);
        let truth = sequential_reachability(&edges);
        assert!(truth.contains(&(1, 5)));
        assert_eq!(run.output.len(), truth.len());
    }

    #[test]
    fn cycle_reaches_everything() {
        let edges = Relation::from_tuples("E", 2, vec![[1u64, 2], [2, 3], [3, 4], [4, 1]]).unwrap();
        let (_, run) = complete(&edges, 4, 4, 8, 5);
        // Every ordered pair of distinct vertices is reachable.
        assert_eq!(run.output.len(), 4 * 3);
    }
}
