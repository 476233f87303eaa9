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
use mpc_sim::{Cluster, MpcConfig, MpcProgram, RouteSink, RunResult, ServerState};
use mpc_storage::{Database, Relation};

use crate::Result;

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

/// Outcome of a transitive-closure run.
#[derive(Debug, Clone)]
pub struct TcOutcome {
    /// Rounds executed.
    pub rounds: usize,
    /// Whether the output equals the true reachability relation.
    pub complete: bool,
    /// Simulator result.
    pub result: RunResult,
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

/// Run path doubling for a fixed number of rounds.
///
/// # Errors
///
/// Propagates configuration and simulation errors.
pub fn run_tc(
    edges: &Relation,
    num_vertices: u64,
    p: usize,
    epsilon: f64,
    rounds: usize,
    seed: u64,
) -> Result<TcOutcome> {
    let mut db = Database::new(num_vertices);
    db.insert_relation(edges.clone());
    let program = PathDoublingTc::new(rounds, p, seed);
    let cluster = Cluster::new(MpcConfig::new(p, epsilon))?;
    let result = cluster.run(&program, &db)?;
    let ours: BTreeSet<(u64, u64)> =
        result.output.iter().filter(|t| t[0] != t[1]).map(|t| (t[0], t[1])).collect();
    let truth = sequential_reachability(edges);
    Ok(TcOutcome { rounds, complete: ours == truth, result })
}

/// Run path doubling with increasing round counts until the closure is
/// complete (or `max_rounds` is reached).
///
/// # Errors
///
/// Propagates configuration and simulation errors.
pub fn tc_rounds_to_completion(
    edges: &Relation,
    num_vertices: u64,
    p: usize,
    epsilon: f64,
    max_rounds: usize,
    seed: u64,
) -> Result<TcOutcome> {
    let mut last = None;
    for rounds in 1..=max_rounds.max(1) {
        let outcome = run_tc(edges, num_vertices, p, epsilon, rounds, seed)?;
        let complete = outcome.complete;
        last = Some(outcome);
        if complete {
            break;
        }
    }
    Ok(last.expect("at least one attempt"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn directed_path(len: u64) -> Relation {
        Relation::from_tuples("E", 2, (1..len).map(|i| [i, i + 1]).collect::<Vec<_>>()).unwrap()
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
        let outcome = tc_rounds_to_completion(&edges, 17, 8, 0.5, 12, 3).unwrap();
        assert!(outcome.complete);
        // log2(16) + 1 = 5 doubling rounds (plus the distribution round).
        assert!(outcome.rounds <= 6, "took {} rounds", outcome.rounds);
        assert!(outcome.rounds >= 4);
        assert_eq!(outcome.result.output.len(), 16 * 17 / 2);
    }

    #[test]
    fn doubling_beats_label_propagation_style_round_counts() {
        // The same 17-vertex path would need ~16 propagation rounds; path
        // doubling needs ~5 — the rounds-for-communication tradeoff.
        let edges = directed_path(17);
        let doubling = tc_rounds_to_completion(&edges, 17, 8, 0.5, 12, 3).unwrap();
        assert!(doubling.rounds < 8);
        // But it ships far more pairs per round than there are edges.
        assert!(doubling.result.total_bytes() > edges.size_in_bytes() * 4);
    }

    #[test]
    fn insufficient_rounds_leave_closure_incomplete() {
        let edges = directed_path(32);
        let outcome = run_tc(&edges, 32, 8, 0.5, 3, 1).unwrap();
        assert!(!outcome.complete);
    }

    #[test]
    fn branching_graph_closure() {
        // A small DAG: 1 → 2 → 4, 1 → 3 → 4, 4 → 5.
        let edges =
            Relation::from_tuples("E", 2, vec![[1u64, 2], [1, 3], [2, 4], [3, 4], [4, 5]]).unwrap();
        let outcome = tc_rounds_to_completion(&edges, 5, 4, 0.5, 8, 2).unwrap();
        assert!(outcome.complete);
        let truth = sequential_reachability(&edges);
        assert!(truth.contains(&(1, 5)));
        assert_eq!(outcome.result.output.len(), truth.len());
    }

    #[test]
    fn cycle_reaches_everything() {
        let edges = Relation::from_tuples("E", 2, vec![[1u64, 2], [2, 3], [3, 4], [4, 1]]).unwrap();
        let outcome = tc_rounds_to_completion(&edges, 4, 4, 0.5, 8, 5).unwrap();
        assert!(outcome.complete);
        // Every ordered pair of distinct vertices is reachable.
        assert_eq!(outcome.result.output.len(), 4 * 3);
    }
}
