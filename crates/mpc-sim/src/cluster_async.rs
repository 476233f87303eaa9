//! The event-driven backend: every server is an independent task.
//!
//! [`Cluster::run`] executes a program round-synchronously — a global
//! barrier between communication and computation, which is the *reference
//! semantics* of the MPC model. [`Cluster::run_async`] executes the same
//! program, the same rounds, as one job on a private [`crate::mesh`]: `p`
//! scoped reactor threads, each driving a [`crate::worker::WorkerCore`]
//! over the bounded per-link queues of [`crate::queue`] — real
//! backpressure and no global barrier, so a fast server races ahead into
//! the next round while a straggler still drains the previous one. The
//! input is routed on the calling thread, which then waits for the `p`
//! summaries. What this driver adds around the mesh is **the schedule**:
//! every core records the blocks it ingested, and the records are replayed
//! on a virtual clock ([`crate::schedule`]) into a [`ScheduleStats`]
//! timeline — busy / blocked / idle spans, per-round barrier waits,
//! critical path and makespan under [`CostModel::default`], with one round
//! of overlap and deterministic seeded straggler injection
//! ([`StragglerSpec`]). The replay is a pure function of the recorded
//! traffic, not of how the threads happened to interleave.
//!
//! **Equivalence.** A worker computes exactly when it holds the packets
//! the synchronous backend would have delivered to it, so the two
//! backends produce identical join outputs and identical per-round
//! communication volumes for every [`MpcProgram`] — which callers check
//! with [`RunResult::divergence`].
//!
//! ```
//! use mpc_sim::{AsyncConfig, Cluster, MpcConfig};
//! use mpc_sim::program::BroadcastProgram;
//!
//! let q = mpc_cq::families::triangle();
//! let db = mpc_data::matching_database(&q, 100, 7);
//! let cluster = Cluster::new(MpcConfig::new(4, 1.0))?;
//! let run = cluster.run_async(&BroadcastProgram::new(q), &db, &AsyncConfig::default())?;
//!
//! // Same volumes as the synchronous backend, plus a schedule.
//! assert_eq!(run.result.num_rounds(), 1);
//! assert!(run.schedule.makespan >= run.schedule.critical_path);
//! # Ok::<(), mpc_sim::SimError>(())
//! ```

use mpc_storage::Database;

use crate::cluster::Cluster;
use crate::error::SimError;
use crate::mesh::Mesh;
use crate::pool::PoolStats;
use crate::program::MpcProgram;
use crate::schedule::{self, CostModel, ScheduleStats, StragglerSpec};
use crate::stats::RunResult;
use crate::worker::fold_summaries;
use crate::Result;

/// Configuration of the event-driven backend: transport bounds and
/// optional straggler injection. Its defaults are the lane and block sizes
/// of every in-process run, the query service's included.
///
/// ```
/// use mpc_sim::{AsyncConfig, StragglerSpec};
///
/// let cfg = AsyncConfig::new()
///     .with_queue_capacity(16)
///     .with_block_capacity(128)
///     .with_straggler(StragglerSpec::new(42, 1, 8));
/// assert_eq!((cfg.queue_capacity, cfg.block_capacity), (16, 128));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncConfig {
    /// Capacity, in packets, of each per-link queue (clamped to ≥ 1).
    /// Doubles as the per-link send window of the schedule model.
    pub queue_capacity: usize,
    /// Tuples per block on the wire (clamped to ≥ 1). Capacity 1
    /// degenerates to per-tuple packets.
    pub block_capacity: usize,
    /// Deterministic straggler injection, if any.
    pub straggler: Option<StragglerSpec>,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig { queue_capacity: 64, block_capacity: 256, straggler: None }
    }
}

impl AsyncConfig {
    /// The default configuration (64-packet lanes, 256-tuple blocks, no
    /// stragglers).
    pub fn new() -> Self {
        AsyncConfig::default()
    }

    /// Builder-style: set the per-link queue capacity (packets).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Builder-style: set the tuples-per-block capacity of the data
    /// plane.
    #[must_use]
    pub fn with_block_capacity(mut self, capacity: usize) -> Self {
        self.block_capacity = capacity.max(1);
        self
    }

    /// Builder-style: inject stragglers.
    #[must_use]
    pub fn with_straggler(mut self, spec: StragglerSpec) -> Self {
        self.straggler = Some(spec);
        self
    }
}

/// The outcome of an event-driven run: the volume statistics every
/// backend produces, plus the schedule only this backend can see.
#[derive(Debug, Clone)]
pub struct AsyncRunResult {
    /// Output and per-round volume statistics — byte-identical to what
    /// [`Cluster::run`] produces for the same program and input.
    pub result: RunResult,
    /// The virtual-clock timeline of the run.
    pub schedule: ScheduleStats,
    /// Buffer-pool accounting of the block data plane; balanced after
    /// every clean run (each checked-out block was returned).
    pub pool: PoolStats,
}

impl Cluster {
    /// Execute a program on the event-driven backend: one task per
    /// server, bounded per-link queues, no global barrier.
    ///
    /// Join output and per-round volume statistics are identical to
    /// [`Cluster::run`]; the additional [`ScheduleStats`] describes *when*
    /// the bytes moved under [`CostModel::default`].
    ///
    /// # Errors
    ///
    /// Propagates program errors and out-of-range destinations like the
    /// synchronous backend, chosen by the mesh's failure policy
    /// ([`crate::mesh`]).
    pub fn run_async<P: MpcProgram>(
        &self,
        program: &P,
        db: &Database,
        async_config: &AsyncConfig,
    ) -> Result<AsyncRunResult> {
        let p = self.config().p;
        let capacity = async_config.queue_capacity.max(1);
        let (done, pool) = std::thread::scope(|scope| {
            let (mut mesh, reactors) = Mesh::new(p, capacity, async_config.block_capacity.max(1));
            // Spawning p threads takes about as long as routing a small
            // input, so the reactors start on a thread of their own while
            // this one routes.
            let spawner = scope.spawn(move || {
                reactors.into_iter().map(|mut r| scope.spawn(move || r.run())).collect::<Vec<_>>()
            });
            mesh.submit(program, db);
            mesh.close();
            let (done, pool) = (mesh.next_done(true), mesh.pool_stats());
            // Joined here, not left to the scope: only a thread that has
            // exited hands its malloc arena on to the next run's threads.
            let hosts = spawner.join().unwrap_or_default();
            let joined =
                hosts.into_iter().map(|h| h.join()).filter(|exit| exit.is_err()).count() == 0;
            (done.filter(|_| joined), pool)
        });
        let died = || SimError::Program("a reactor died outside its guard".to_string());
        let mut summaries = done.ok_or_else(died)?.1?;

        // The schedule: a deterministic virtual-clock replay of the
        // recorded traffic.
        let traffic: Vec<_> = summaries.iter_mut().flat_map(|s| s.traffic.drain(..)).collect();
        let result = fold_summaries(self.config(), program, db.total_bytes(), summaries)?;
        let slowdown = match &async_config.straggler {
            Some(spec) => spec.slowdown_vector(p),
            None => vec![1; p],
        };
        let cost = CostModel::default();
        let schedule =
            schedule::simulate(p, program.num_rounds(), &traffic, &cost, &slowdown, capacity);
        Ok(AsyncRunResult { result, schedule, pool })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;
    use crate::program::{BroadcastProgram, RouteSink};
    use crate::server::ServerState;
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_storage::join::evaluate;
    use mpc_storage::Relation;

    #[test]
    fn broadcast_matches_synchronous_backend() {
        let q = families::cycle(3);
        let db = matching_database(&q, 60, 1);
        let cluster = Cluster::new(MpcConfig::new(4, 1.0)).unwrap();
        let program = BroadcastProgram::new(q.clone());
        let synchronous = cluster.run(&program, &db).unwrap();
        let event_driven = cluster.run_async(&program, &db, &AsyncConfig::new()).unwrap();
        assert_eq!(synchronous.divergence(&event_driven.result), None);
        let expected = evaluate(&q, &db).unwrap();
        assert!(event_driven.result.output.same_tuples(&expected));
    }

    #[test]
    fn schedule_covers_every_round_and_partitions_time() {
        let q = families::triangle();
        let db = matching_database(&q, 120, 3);
        let cluster = Cluster::new(MpcConfig::new(8, 1.0)).unwrap();
        let run = cluster.run_async(&BroadcastProgram::new(q), &db, &AsyncConfig::new()).unwrap();
        assert_eq!(run.schedule.num_rounds(), run.result.num_rounds());
        assert!(run.schedule.makespan >= run.schedule.critical_path);
        for s in &run.schedule.servers {
            assert!(s.span_partition_holds(), "server {} timeline leaks", s.server);
        }
    }

    #[test]
    fn straggler_injection_slows_the_schedule_not_the_volumes() {
        let q = families::triangle();
        let db = matching_database(&q, 200, 5);
        let cluster = Cluster::new(MpcConfig::new(8, 1.0)).unwrap();
        let program = BroadcastProgram::new(q);
        let plain = cluster.run_async(&program, &db, &AsyncConfig::new()).unwrap();
        let slowed = cluster
            .run_async(
                &program,
                &db,
                &AsyncConfig::new().with_straggler(StragglerSpec::new(9, 2, 10)),
            )
            .unwrap();
        assert!(slowed.schedule.makespan > plain.schedule.makespan);
        assert_eq!(slowed.schedule.stragglers.len(), 2);
        // Volumes are schedule-independent.
        assert_eq!(plain.result.rounds, slowed.result.rounds);
    }

    #[test]
    fn tiny_queue_capacity_still_completes() {
        // Capacity 1 forces constant backpressure; the drain-while-full
        // loop must keep everything moving.
        let q = families::triangle();
        let db = matching_database(&q, 100, 11);
        let cluster = Cluster::new(MpcConfig::new(4, 1.0)).unwrap();
        let program = BroadcastProgram::new(q);
        let synchronous = cluster.run(&program, &db).unwrap();
        let event_driven =
            cluster.run_async(&program, &db, &AsyncConfig::new().with_queue_capacity(1)).unwrap();
        assert_eq!(synchronous.divergence(&event_driven.result), None);
        assert_eq!(event_driven.schedule.queue_window, 1);
    }

    #[test]
    fn out_of_range_destination_aborts_cleanly() {
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
            ) -> crate::Result<()> {
                relation.iter().try_for_each(|t| sink.emit("R", t, &[p + 3]))
            }
            fn output(&self, _: usize, _: &ServerState) -> crate::Result<Relation> {
                Ok(Relation::empty("out", 1))
            }
            fn output_arity(&self) -> usize {
                1
            }
        }
        let mut db = Database::new(5);
        db.insert_relation(Relation::from_tuples("R", 1, vec![[1u64]]).unwrap());
        let cluster = Cluster::new(MpcConfig::new(2, 0.0)).unwrap();
        let err = cluster.run_async(&Bad, &db, &AsyncConfig::new()).unwrap_err();
        assert!(matches!(err, SimError::Program(_)));
    }

    #[test]
    fn two_arities_under_one_tag_are_an_error_on_both_backends() {
        /// Sends a binary and a ternary relation to server 0 under the
        /// same tag — what a peer sending malformed blocks looks like to
        /// the receiving worker.
        struct OneTag;
        impl MpcProgram for OneTag {
            fn num_rounds(&self) -> usize {
                1
            }
            fn route_input_into(
                &self,
                relation: &Relation,
                _p: usize,
                sink: &mut dyn RouteSink,
            ) -> crate::Result<()> {
                relation.iter().try_for_each(|t| sink.emit("S1", t, &[0]))
            }
            fn output(&self, _: usize, _: &ServerState) -> crate::Result<Relation> {
                Ok(Relation::empty("out", 1))
            }
            fn output_arity(&self) -> usize {
                1
            }
        }
        let mut db = Database::new(5);
        db.insert_relation(Relation::from_tuples("A", 2, vec![[1u64, 2]]).unwrap());
        db.insert_relation(Relation::from_tuples("B", 3, vec![[1u64, 2, 3]]).unwrap());
        let cluster = Cluster::new(MpcConfig::new(2, 0.0)).unwrap();
        for config in [AsyncConfig::new(), AsyncConfig::new().with_block_capacity(1)] {
            let err = cluster.run_async(&OneTag, &db, &config).unwrap_err();
            assert!(matches!(&err, SimError::Storage(msg) if msg.contains("arity")), "{err}");
        }
        let err = cluster.run(&OneTag, &db).unwrap_err();
        assert!(matches!(&err, SimError::Storage(msg) if msg.contains("arity")), "{err}");
    }

    #[test]
    fn input_router_panic_aborts_instead_of_deadlocking() {
        struct PanicInput;
        impl MpcProgram for PanicInput {
            fn num_rounds(&self) -> usize {
                1
            }
            fn route_input_into(
                &self,
                _: &Relation,
                _: usize,
                _: &mut dyn RouteSink,
            ) -> crate::Result<()> {
                panic!("routing bug");
            }
            fn output(&self, _: usize, _: &ServerState) -> crate::Result<Relation> {
                Ok(Relation::empty("out", 1))
            }
            fn output_arity(&self) -> usize {
                1
            }
        }
        let mut db = Database::new(5);
        db.insert_relation(Relation::from_tuples("R", 1, vec![[1u64]]).unwrap());
        let cluster = Cluster::new(MpcConfig::new(4, 0.0)).unwrap();
        // Must return an error, not hang at the round-1 barrier.
        let err = cluster.run_async(&PanicInput, &db, &AsyncConfig::new()).unwrap_err();
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
            ) -> crate::Result<()> {
                Ok(())
            }
            fn output(&self, _: usize, _: &ServerState) -> crate::Result<Relation> {
                Ok(Relation::empty("out", 1))
            }
            fn output_arity(&self) -> usize {
                1
            }
        }
        let db = Database::new(5);
        let cluster = Cluster::new(MpcConfig::new(2, 0.0)).unwrap();
        assert!(matches!(
            cluster.run_async(&Zero, &db, &AsyncConfig::new()),
            Err(SimError::Program(_))
        ));
    }
}
