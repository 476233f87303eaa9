//! The round-synchronous execution loop.

use rayon::prelude::*;

use mpc_storage::{Database, Relation, Value};

use crate::config::MpcConfig;
use crate::error::SimError;
use crate::program::{out_of_range, MpcProgram, RouteSink};
use crate::server::{RoundStage, ServerState};
use crate::stats::{RoundStats, RunResult};
use crate::Result;

/// A simulated MPC cluster of `p` workers.
///
/// The cluster owns no data; [`Cluster::run`] takes the input database (the
/// union of the input servers' contents) and an [`MpcProgram`] and executes
/// it round by round, recording per-round communication statistics.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: MpcConfig,
}

impl Cluster {
    /// Create a cluster with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: MpcConfig) -> Result<Self> {
        config.validate()?;
        Ok(Cluster { config })
    }

    /// The configuration.
    pub fn config(&self) -> &MpcConfig {
        &self.config
    }

    /// Execute a program on the given input database. A round over the
    /// load budget is recorded in its [`RoundStats`], not refused.
    ///
    /// # Errors
    ///
    /// Propagates program errors and reports out-of-range destinations.
    pub fn run<P: MpcProgram + ?Sized>(&self, program: &P, db: &Database) -> Result<RunResult> {
        let p = self.config.p;
        let input_bytes = db.total_bytes();
        let budget_bytes = self.config.budget_bytes(input_bytes);
        let total_rounds = program.num_rounds();
        if total_rounds == 0 {
            return Err(SimError::Program("program declares zero rounds".to_string()));
        }

        let mut servers: Vec<ServerState> =
            (0..p).map(|i| ServerState::new(i, db.domain_size())).collect();
        let mut rounds = Vec::with_capacity(total_rounds);

        for round in 1..=total_rounds {
            // -- Communication and delivery -----------------------------------
            // A sender's copies wait in one stage per destination and are
            // appended in sender order. Input servers (one per relation,
            // Section 2.4) deliver as soon as each has routed; workers send
            // join tuples (tuple-based model, Section 4.1) from their state
            // before any of the round's deliveries, so theirs wait until
            // every worker has routed.
            if round == 1 {
                for rel in db.relations() {
                    let mut stages = Stages::new(p);
                    program.route_input_into(rel, p, &mut stages)?;
                    stages.deliver(&mut servers, round)?;
                }
            } else {
                let staged: Vec<Result<Stages>> = servers
                    .par_iter()
                    .map(|s| {
                        let mut stages = Stages::new(p);
                        program.route_tuples_into(round, s.id(), s, &mut stages)?;
                        Ok(stages)
                    })
                    .collect();
                for stages in staged {
                    stages?.deliver(&mut servers, round)?;
                }
            }
            for server in &mut servers {
                server.settle()?;
            }

            // -- Accounting ----------------------------------------------------
            rounds.push(self.round_stats(round, &servers, input_bytes, budget_bytes));

            // -- Local computation --------------------------------------------
            let computed: Vec<Result<Vec<Relation>>> =
                servers.par_iter().map(|s| program.compute(round, s.id(), s)).collect();
            for (server, result) in servers.iter_mut().zip(computed) {
                for rel in result? {
                    server.add_local(rel);
                }
            }
        }

        // -- Output ------------------------------------------------------------
        let outputs: Vec<Result<Relation>> =
            servers.par_iter().map(|s| program.output(s.id(), s)).collect();
        let mut collected = Vec::with_capacity(p);
        for result in outputs {
            collected.push(result?);
        }
        let (output, per_server_output) = union_outputs(program, collected)?;

        Ok(RunResult { output, rounds, per_server_output, input_bytes })
    }

    fn round_stats(
        &self,
        round: usize,
        servers: &[ServerState],
        input_bytes: u64,
        budget_bytes: u64,
    ) -> RoundStats {
        let per_server: Vec<u64> =
            servers.iter().map(|s| s.bytes_received_in_round(round)).collect();
        let per_server_tuples: Vec<u64> =
            servers.iter().map(|s| s.tuples_received_in_round(round)).collect();
        build_round_stats(round, &per_server, &per_server_tuples, input_bytes, budget_bytes)
    }
}

/// The reference loop's sink: one sender's copies, held per destination
/// until they are delivered.
struct Stages(Vec<RoundStage>);

impl Stages {
    fn new(p: usize) -> Self {
        Stages((0..p).map(|_| RoundStage::default()).collect())
    }

    /// Append every destination's copies to its state, charged to `round`.
    fn deliver(self, servers: &mut [ServerState], round: usize) -> Result<()> {
        for (server, stage) in servers.iter_mut().zip(self.0) {
            server.merge_stage(round, stage)?;
        }
        Ok(())
    }
}

impl RouteSink for Stages {
    fn emit(&mut self, tag: &str, row: &[Value], dests: &[usize]) -> Result<()> {
        let p = self.0.len();
        for &dest in dests {
            self.0.get_mut(dest).ok_or_else(|| out_of_range(dest, p))?.push_row(tag, row)?;
        }
        Ok(())
    }
}

/// Aggregate per-server received volumes into a [`RoundStats`] — the one
/// formula every backend shares (including the out-of-process runners in
/// `mpc-net`), so their statistics can never drift apart.
pub fn build_round_stats(
    round: usize,
    per_server_bytes: &[u64],
    per_server_tuples: &[u64],
    input_bytes: u64,
    budget_bytes: u64,
) -> RoundStats {
    let max_bytes_received = per_server_bytes.iter().copied().max().unwrap_or(0);
    let total_bytes_received: u64 = per_server_bytes.iter().sum();
    let max_tuples_received = per_server_tuples.iter().copied().max().unwrap_or(0);
    let total_tuples_received: u64 = per_server_tuples.iter().sum();
    let mean = total_bytes_received as f64 / per_server_bytes.len().max(1) as f64;
    RoundStats {
        round,
        max_bytes_received,
        total_bytes_received,
        max_tuples_received,
        total_tuples_received,
        budget_bytes,
        exceeds_budget: max_bytes_received > budget_bytes,
        replication_rate: if input_bytes == 0 {
            0.0
        } else {
            total_bytes_received as f64 / input_bytes as f64
        },
        balance_ratio: if mean == 0.0 { 1.0 } else { max_bytes_received as f64 / mean },
    }
}

/// Union the per-server outputs into the final (deduplicated) result
/// relation, recording each server's pre-deduplication contribution.
pub fn union_outputs<P: MpcProgram + ?Sized>(
    program: &P,
    outputs: Vec<Relation>,
) -> Result<(Relation, Vec<usize>)> {
    let mut output = Relation::empty(program.output_name(), program.output_arity());
    let mut per_server_output = Vec::with_capacity(outputs.len());
    for rel in outputs {
        per_server_output.push(rel.len());
        if rel.arity() != output.arity() && !rel.is_empty() {
            return Err(SimError::Program(format!(
                "server produced output of arity {} but the program declares arity {}",
                rel.arity(),
                output.arity()
            )));
        }
        output.extend_from(&rel)?;
    }
    Ok((output, per_server_output))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{hash_value, BroadcastProgram};
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_storage::join::evaluate;
    use mpc_storage::Tuple;

    /// A one-round shuffle join for L2 = S1(x0,x1), S2(x1,x2): hash both
    /// relations on the join variable x1 (the classic parallel hash join,
    /// space exponent 0).
    struct HashJoinL2 {
        seed: u64,
    }

    impl MpcProgram for HashJoinL2 {
        fn num_rounds(&self) -> usize {
            1
        }

        fn route_input_into(
            &self,
            relation: &Relation,
            p: usize,
            sink: &mut dyn RouteSink,
        ) -> Result<()> {
            let position = match relation.name() {
                "S1" => 1, // x1 is the second column of S1
                "S2" => 0, // x1 is the first column of S2
                other => return Err(SimError::Program(format!("unexpected relation {other}"))),
            };
            for t in relation.iter() {
                sink.emit(relation.name(), t, &[hash_value(self.seed, t[position], p)])?;
            }
            Ok(())
        }

        fn output(&self, _server: usize, state: &ServerState) -> Result<Relation> {
            if state.tags().count() < 2 {
                return Ok(Relation::empty("L2", 3));
            }
            Ok(evaluate(&families::chain(2), state)?)
        }

        fn output_name(&self) -> String {
            "L2".to_string()
        }

        fn output_arity(&self) -> usize {
            3
        }
    }

    #[test]
    fn broadcast_program_matches_sequential_join() {
        let q = families::cycle(3);
        let db = matching_database(&q, 60, 1);
        let cluster = Cluster::new(MpcConfig::new(4, 1.0)).unwrap();
        let result = cluster.run(&BroadcastProgram::new(q.clone()), &db).unwrap();
        let expected = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&expected));
        // Broadcast replicates the input p times.
        assert!((result.rounds[0].replication_rate - 4.0).abs() < 1e-9);
        assert_eq!(result.num_rounds(), 1);
    }

    #[test]
    fn hash_join_matches_sequential_join_and_balances_load() {
        let q = families::chain(2);
        let db = matching_database(&q, 400, 7);
        let cluster = Cluster::new(MpcConfig::new(8, 0.0)).unwrap();
        let result = cluster.run(&HashJoinL2 { seed: 3 }, &db).unwrap();
        let expected = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&expected));
        assert_eq!(expected.len(), 400);
        // No replication: every tuple goes to exactly one server.
        assert!((result.rounds[0].replication_rate - 1.0).abs() < 1e-9);
        // Matching data hash-partitions evenly: within the default budget.
        assert!(result.within_budget());
        // Load should be far below the whole input.
        assert!(result.max_load_bytes() < db.total_bytes() / 4);
        // Broadcasting the same input at ε = 0 blows the budget: recorded,
        // not refused.
        assert!(!cluster.run(&BroadcastProgram::new(q), &db).unwrap().within_budget());
    }

    #[test]
    fn out_of_range_destination_is_an_error() {
        struct Bad;
        impl MpcProgram for Bad {
            fn num_rounds(&self) -> usize {
                1
            }
            fn route_input_into(
                &self,
                relation: &Relation,
                p: usize,
                sink: &mut dyn RouteSink,
            ) -> Result<()> {
                relation.iter().try_for_each(|t| sink.emit("R", t, &[p + 3]))
            }
            fn output(&self, _: usize, _: &ServerState) -> Result<Relation> {
                Ok(Relation::empty("out", 1))
            }
            fn output_arity(&self) -> usize {
                1
            }
        }
        let mut db = Database::new(5);
        db.insert_relation(Relation::from_tuples("R", 1, vec![[1u64]]).unwrap());
        let cluster = Cluster::new(MpcConfig::new(2, 0.0)).unwrap();
        let err = cluster.run(&Bad, &db).unwrap_err();
        assert!(matches!(err, SimError::Program(_)));
    }

    #[test]
    fn zero_round_program_is_rejected() {
        struct Zero;
        impl MpcProgram for Zero {
            fn num_rounds(&self) -> usize {
                0
            }
            fn route_input_into(
                &self,
                _: &Relation,
                _: usize,
                _: &mut dyn RouteSink,
            ) -> Result<()> {
                Ok(())
            }
            fn output(&self, _: usize, _: &ServerState) -> Result<Relation> {
                Ok(Relation::empty("out", 1))
            }
            fn output_arity(&self) -> usize {
                1
            }
        }
        let db = Database::new(5);
        let cluster = Cluster::new(MpcConfig::new(2, 0.0)).unwrap();
        assert!(matches!(cluster.run(&Zero, &db), Err(SimError::Program(_))));
    }

    #[test]
    fn per_server_output_counts_are_recorded() {
        let q = families::chain(2);
        let db = matching_database(&q, 100, 9);
        let cluster = Cluster::new(MpcConfig::new(5, 0.0)).unwrap();
        let result = cluster.run(&HashJoinL2 { seed: 1 }, &db).unwrap();
        assert_eq!(result.per_server_output.len(), 5);
        let total: usize = result.per_server_output.iter().sum();
        // Hash partitioning assigns each answer to exactly one server.
        assert_eq!(total, result.output.len());
    }

    #[test]
    fn two_round_program_round_trips_tuples() {
        /// Round 1: send everything to server 0. Round 2: server 0 forwards
        /// every tuple of S1 to server 1, tagged "Fwd". Output: server 1
        /// reports the forwarded tuples.
        struct TwoRound;
        impl MpcProgram for TwoRound {
            fn num_rounds(&self) -> usize {
                2
            }
            fn route_input_into(
                &self,
                relation: &Relation,
                _p: usize,
                sink: &mut dyn RouteSink,
            ) -> Result<()> {
                relation.iter().try_for_each(|t| sink.emit(relation.name(), t, &[0]))
            }
            fn route_tuples_into(
                &self,
                round: usize,
                server: usize,
                state: &ServerState,
                sink: &mut dyn RouteSink,
            ) -> Result<()> {
                match state.relation("S1") {
                    Some(rel) if round == 2 && server == 0 => {
                        rel.iter().try_for_each(|t| sink.emit("Fwd", t, &[1]))
                    }
                    _ => Ok(()),
                }
            }
            fn output(&self, server: usize, state: &ServerState) -> Result<Relation> {
                if server == 1 {
                    if let Some(rel) = state.relation("Fwd") {
                        return Ok(rel.with_name("Fwd"));
                    }
                }
                Ok(Relation::empty("Fwd", 2))
            }
            fn output_name(&self) -> String {
                "Fwd".to_string()
            }
            fn output_arity(&self) -> usize {
                2
            }
        }

        let mut db = Database::new(10);
        db.insert_relation(Relation::from_tuples("S1", 2, vec![[1u64, 2], [3, 4]]).unwrap());
        let cluster = Cluster::new(MpcConfig::new(2, 1.0)).unwrap();
        let result = cluster.run(&TwoRound, &db).unwrap();
        assert_eq!(result.num_rounds(), 2);
        assert_eq!(result.output.len(), 2);
        assert!(result.output.contains(&Tuple::from([1, 2])));
        // Round-2 traffic was received by server 1 only.
        assert_eq!(result.rounds[1].total_tuples_received, 2);
    }
}
