//! Baseline one-round algorithms for load comparisons.
//!
//! The paper motivates the HyperCube shuffle by contrasting it with the two
//! obvious strategies (Section 1, the drug-interaction example):
//!
//! * **Broadcast** — replicate the whole input to every server
//!   (replication rate `p`, always correct, always over budget for ε < 1);
//! * **Single-key shuffle** — hash-partition every relation on one shared
//!   variable (replication rate 1, but only *correct* when some variable
//!   occurs in every atom, i.e. exactly when `τ* = 1`, Corollary 3.10).
//!
//! Both are expressed as [`MpcProgram`]s so the benchmark harness measures
//! their loads with the same accounting as the HyperCube programs.

use mpc_cq::{Query, VarId};
use mpc_sim::program::hash_value;
use mpc_sim::{MpcProgram, RouteSink, ServerState};
use mpc_storage::Relation;

pub use mpc_sim::program::BroadcastProgram;

use crate::error::CoreError;
use crate::grid::local_join;
use crate::Result;

/// One-round shuffle join that hash-partitions every relation on a single
/// variable shared by all atoms.
#[derive(Debug, Clone)]
pub struct SingleKeyShuffleProgram {
    query: Query,
    key: VarId,
    seed: u64,
}

impl SingleKeyShuffleProgram {
    /// Build the program, choosing (the first) variable that occurs in
    /// every atom as the partitioning key.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unsupported`] if no variable occurs in every
    /// atom (the strategy would be incorrect; use HyperCube instead).
    pub fn new(query: &Query, seed: u64) -> Result<Self> {
        let key = query.shared_variable().ok_or_else(|| {
            CoreError::Unsupported(format!(
                "{} has no variable shared by all atoms; single-key shuffle would be incorrect",
                query.name()
            ))
        })?;
        Ok(SingleKeyShuffleProgram { query: query.clone(), key, seed })
    }
}

impl MpcProgram for SingleKeyShuffleProgram {
    fn num_rounds(&self) -> usize {
        1
    }

    fn route_input_into(
        &self,
        relation: &Relation,
        p: usize,
        sink: &mut dyn RouteSink,
    ) -> mpc_sim::Result<()> {
        let Some((_, atom)) = self.query.atom_by_name(relation.name()) else {
            return Ok(());
        };
        let position = atom
            .vars
            .iter()
            .position(|v| *v == self.key)
            .expect("key occurs in every atom by construction");
        relation.iter().try_for_each(|t| {
            sink.emit(relation.name(), t, &[hash_value(self.seed, t[position], p)])
        })
    }

    fn output(&self, _server: usize, state: &ServerState) -> mpc_sim::Result<Relation> {
        local_join(&self.query, state)
    }

    fn output_name(&self) -> String {
        self.query.name().to_string()
    }

    fn output_arity(&self) -> usize {
        self.query.num_vars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_sim::{Cluster, MpcConfig};
    use mpc_storage::join::evaluate;

    #[test]
    fn single_key_shuffle_correct_for_star_queries() {
        let q = families::star(3);
        let db = matching_database(&q, 800, 2);
        let program = SingleKeyShuffleProgram::new(&q, 7).unwrap();
        assert_eq!(q.var_name(program.key).unwrap(), "z");
        let cluster = Cluster::new(MpcConfig::new(16, 0.0)).unwrap();
        let result = cluster.run(&program, &db).unwrap();
        let expected = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&expected));
        assert!((result.rounds[0].replication_rate - 1.0).abs() < 1e-9);
        assert!(result.within_budget());
    }

    #[test]
    fn single_key_shuffle_correct_for_l2() {
        let q = families::chain(2);
        let db = matching_database(&q, 500, 4);
        let program = SingleKeyShuffleProgram::new(&q, 3).unwrap();
        let cluster = Cluster::new(MpcConfig::new(8, 0.0)).unwrap();
        let result = cluster.run(&program, &db).unwrap();
        let expected = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&expected));
    }

    #[test]
    fn rejected_for_queries_without_shared_variable() {
        assert!(SingleKeyShuffleProgram::new(&families::cycle(3), 1).is_err());
        assert!(SingleKeyShuffleProgram::new(&families::chain(3), 1).is_err());
    }

    #[test]
    fn broadcast_is_correct_but_over_budget() {
        let q = families::cycle(3);
        let db = matching_database(&q, 300, 8);
        let cluster = Cluster::new(MpcConfig::new(8, 1.0 / 3.0)).unwrap();
        let result = cluster.run(&BroadcastProgram::new(q.clone()), &db).unwrap();
        let expected = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&expected));
        // Replication p is far beyond the p^ε allowed at ε = 1/3.
        assert!(!result.within_budget());
    }
}
