//! The Theorem 4.10 experiment: connected components of sparse layered
//! graphs need many rounds; dense graphs need two.

use serde::Serialize;

use mpc_data::graphs::{dense_graph, LayeredGraph};
use mpc_sim::{Cluster, MpcConfig};

use crate::cc::{partition_matches, LabelPropagationCc};
use crate::dense::DenseTwoRoundCc;
use crate::{edge_database, rounds_until_right, Result};

/// One row of the Theorem 4.10 experiment.
#[derive(Debug, Clone, Serialize)]
pub struct CcExperimentRow {
    /// Number of servers.
    pub p: usize,
    /// Number of edge layers `k = ⌊p^δ⌋` of the sparse instance.
    pub k: usize,
    /// Vertices per layer of the sparse instance.
    pub layer_size: u64,
    /// Rounds the tuple-based label-propagation algorithm needed on the
    /// sparse layered graph.
    pub sparse_rounds: usize,
    /// Whether it converged within the allowed maximum.
    pub sparse_converged: bool,
    /// Whether the sparse run stayed within the per-round budget.
    pub sparse_within_budget: bool,
    /// Rounds of the dense-graph algorithm (always 2).
    pub dense_rounds: usize,
    /// Whether the dense 2-round algorithm stayed within budget on the
    /// dense instance.
    pub dense_within_budget: bool,
    /// Whether the dense 2-round algorithm stayed within budget when fed
    /// the *sparse* instance (expected: no — that is the dichotomy).
    pub dense_on_sparse_within_budget: bool,
}

/// Parameters of the experiment.
#[derive(Debug, Clone)]
pub struct CcExperimentConfig {
    /// The exponent δ with `k = ⌊p^δ⌋` layers (the paper uses δ = 1/(2t)
    /// for ε = 1 − 1/t).
    pub delta: f64,
    /// Vertices per layer of the sparse instances.
    pub layer_size: u64,
    /// Space exponent of the simulated cluster.
    pub epsilon: f64,
    /// Average degree of the dense contrast instances.
    pub dense_degree: usize,
    /// Cap on the number of label-propagation rounds attempted.
    pub max_rounds: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CcExperimentConfig {
    fn default() -> Self {
        CcExperimentConfig {
            delta: 0.5,
            layer_size: 64,
            epsilon: 0.0,
            dense_degree: 16,
            max_rounds: 64,
            seed: 7,
        }
    }
}

/// Run the experiment for each number of servers in `ps`.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn theorem_4_10_experiment(
    ps: &[usize],
    config: &CcExperimentConfig,
) -> Result<Vec<CcExperimentRow>> {
    let mut rows = Vec::with_capacity(ps.len());
    for &p in ps {
        let cluster = Cluster::new(MpcConfig::new(p, config.epsilon))?;
        let k = ((p as f64).powf(config.delta).floor() as usize).max(2);
        let sparse = LayeredGraph::generate(k, config.layer_size, config.seed + p as u64);
        let num_vertices = sparse.num_vertices();
        let sparse_edges = sparse.edge_relation("E");
        let sparse_db = edge_database(&sparse_edges, num_vertices);
        let (sparse_rounds, sparse_converged, sparse_run) =
            rounds_until_right(config.max_rounds, |rounds| {
                let program = LabelPropagationCc::new(rounds, p, config.seed);
                let run = cluster.run(&program, &sparse_db)?;
                Ok((partition_matches(&run.output, &sparse_edges, num_vertices), run))
            })?;

        let dense_edges =
            dense_graph(num_vertices, config.dense_degree, config.seed + 1 + p as u64, "E");
        let two_rounds = DenseTwoRoundCc::new(config.seed);
        let dense = cluster.run(&two_rounds, &edge_database(&dense_edges, num_vertices))?;
        let dense_on_sparse = cluster.run(&two_rounds, &sparse_db)?;

        rows.push(CcExperimentRow {
            p,
            k,
            layer_size: config.layer_size,
            sparse_rounds,
            sparse_converged,
            sparse_within_budget: sparse_run.within_budget(),
            dense_rounds: dense.num_rounds(),
            dense_within_budget: dense.within_budget(),
            dense_on_sparse_within_budget: dense_on_sparse.within_budget(),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_grow_with_p_for_sparse_graphs() {
        let config = CcExperimentConfig {
            layer_size: 16,
            dense_degree: 12,
            max_rounds: 40,
            ..CcExperimentConfig::default()
        };
        let rows = theorem_4_10_experiment(&[4, 64], &config).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.sparse_converged, "p = {}", row.p);
            assert_eq!(row.dense_rounds, 2);
        }
        // k = ⌊√p⌋: 2 layers at p = 4, 8 layers at p = 64 — the round count
        // must grow accordingly.
        assert!(rows[1].sparse_rounds > rows[0].sparse_rounds);
        assert!(rows[1].k > rows[0].k);
    }

    #[test]
    fn dense_two_round_fails_budget_on_sparse_inputs() {
        // p = 8: collecting the spanning forests of a *forest-shaped* sparse
        // input at one server costs ≈ N/2 bytes, above the ε = 0 budget of
        // 2N/p; a degree-40 dense instance keeps the same step within
        // budget because its N is ~30× larger.
        let config = CcExperimentConfig {
            layer_size: 48,
            dense_degree: 40,
            max_rounds: 30,
            ..CcExperimentConfig::default()
        };
        let rows = theorem_4_10_experiment(&[8], &config).unwrap();
        let row = &rows[0];
        assert!(row.dense_within_budget, "dense instance should fit the budget");
        assert!(
            !row.dense_on_sparse_within_budget,
            "the 2-round algorithm must exceed the budget on the sparse instance"
        );
        // Label propagation keeps per-round load low on the sparse input.
        assert!(row.sparse_within_budget);
    }
}
