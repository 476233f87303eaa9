//! The event-driven backend: every server is an independent task.
//!
//! [`Cluster::run`] executes a program round-synchronously — a global
//! barrier between communication and computation, which is the *reference
//! semantics* of the MPC model. This module adds [`Cluster::run_async`]:
//! the same program, the same rounds, but each server runs as its own
//! scoped thread (the same primitive the workspace's `rayon` shim is built
//! on) that receives, computes and sends through the bounded per-link
//! queues of [`crate::queue`], with real backpressure and no global
//! barrier — a fast server races ahead into the next round while a
//! straggler still drains the previous one.
//!
//! **Protocol.** Round 1 packets come from the input router (one logical
//! input server per relation, as in the synchronous backend). For a round
//! `r ≥ 2`, a worker first routes its join tuples (computed from its state
//! *before* any round-`r` delivery, exactly like the synchronous loop),
//! sends them — draining its own inbox whenever a peer's lane is full, so
//! bounded queues can never deadlock — then closes the round towards every
//! peer with a FIN marker. A worker enters local computation as soon as
//! *it* has seen every peer's FIN, not when everyone has: the barrier is
//! per-server. Packets that race ahead (a fast peer's round-`r+1` traffic)
//! are absorbed into a pre-hashed stage and merged when this worker
//! reaches that round.
//!
//! **The batched data plane.** Tuples do not travel one packet each: the
//! router side packs them into columnar [`TupleBlock`]s of up to
//! [`AsyncConfig::block_capacity`] tuples per `(destination, tag)`
//! ([`crate::block`]), drawing column storage from a shared size-classed
//! [`BlockPool`] ([`crate::pool`]) that receivers return decoded blocks
//! to — so a steady-state round moves `O(tuples / block_capacity)` inbox
//! packets and allocates nothing. Receivers drain their inbox in bursts
//! ([`crate::queue::InboxReceiver::recv_many`]), and future-round blocks
//! are hashed into per-tag relations *on arrival* (double-buffering: round
//! `r+1` build work overlaps round `r`'s drain), with their volume
//! credited to their own round at its boundary. Block capacity 1
//! degenerates to the old per-tuple plane, which the differential matrix
//! uses as a cross-check.
//!
//! **Equivalence.** Because a worker computes exactly when it holds the
//! same packets the synchronous backend would have delivered to it, the
//! two backends produce identical join outputs and identical per-round
//! communication volumes for every [`MpcProgram`]. That is not left to
//! inspection: [`run_differential`] runs both and
//! [`DifferentialReport::divergence`] checks outputs, per-round byte and
//! tuple tallies, and per-server output counts. The integration suite
//! locks this for the HyperCube, multi-round and skew-resilient programs.
//! One deliberate difference remains: with
//! [`crate::MpcConfig::fail_on_overload`] the synchronous backend aborts
//! *at* the violating round, while the async backend — having no global
//! view mid-flight — finishes the run and reports the same
//! [`SimError::Overload`] afterwards. A corollary: if the program itself
//! errors in a round *after* the overload, the async backend surfaces
//! that program error (the run unwound before the overload scan could
//! see complete statistics), where the synchronous backend would have
//! stopped at the overload first.
//!
//! What the async backend adds on top of the [`crate::RunResult`] volumes
//! is the [`ScheduleStats`] timeline from [`crate::schedule`]: busy /
//! blocked / idle spans, per-round barrier waits, critical path and
//! makespan under a configurable [`CostModel`], with deterministic
//! seeded straggler injection ([`StragglerSpec`]).
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

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use mpc_storage::{Database, Relation};

use crate::block::{BlockAssembler, TupleBlock};
use crate::cluster::{build_round_stats, overloaded_server, union_outputs, Cluster};
use crate::error::SimError;
use crate::pool::{BlockPool, PoolStats};
use crate::program::MpcProgram;
use crate::queue::{Inbox, InboxReceiver, LinkSender, SendAttempt};
use crate::reroute::LiveProgress;
use crate::schedule::{self, CostModel, MsgRecord, ScheduleStats, StragglerSpec};
use crate::server::{RoundStage, ServerState};
use crate::stats::RunResult;
use crate::Result;

/// How long a sender parks on a full lane before draining its own inbox
/// and retrying — the event-driven send loop's poll interval.
const BACKOFF: Duration = Duration::from_micros(200);

/// Configuration of the event-driven backend: transport bounds, the
/// virtual-clock cost model and optional straggler injection.
///
/// ```
/// use mpc_sim::{AsyncConfig, CostModel, StragglerSpec};
///
/// let cfg = AsyncConfig::new()
///     .with_queue_capacity(16)
///     .with_block_capacity(128)
///     .with_cost(CostModel::zero_latency())
///     .with_straggler(StragglerSpec::new(42, 1, 8));
/// assert_eq!((cfg.queue_capacity, cfg.block_capacity), (16, 128));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncConfig {
    /// Capacity, in packets, of each per-link queue (clamped to ≥ 1).
    /// Doubles as the per-link send window of the schedule model.
    pub queue_capacity: usize,
    /// Tuples per columnar block on the wire (clamped to ≥ 1). Capacity 1
    /// degenerates to per-tuple packets.
    pub block_capacity: usize,
    /// Rounds of overlap the virtual-clock replay models (0 = strict
    /// round-synchronous replay, 1 = the double-buffered plane).
    pub pipeline_depth: usize,
    /// The virtual-clock cost model for [`ScheduleStats`].
    pub cost: CostModel,
    /// Deterministic straggler injection, if any.
    pub straggler: Option<StragglerSpec>,
    /// Per-link adaptive block sizing: when set, each sender's
    /// [`BlockAssembler`] tracks its links' lane occupancy and shrinks the
    /// seal threshold on cold links (smaller blocks, less batching
    /// latency). Outputs and volume statistics are invariant under
    /// adaptation.
    pub adaptive: Option<crate::block::AdaptivePolicy>,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            queue_capacity: 64,
            block_capacity: 256,
            pipeline_depth: 1,
            cost: CostModel::default(),
            straggler: None,
            adaptive: None,
        }
    }
}

impl AsyncConfig {
    /// The default configuration (64-packet lanes, 256-tuple blocks,
    /// double-buffered replay, default costs, no stragglers).
    pub fn new() -> Self {
        AsyncConfig::default()
    }

    /// Builder-style: set the per-link queue capacity (packets).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Builder-style: set the tuples-per-block capacity of the columnar
    /// data plane.
    #[must_use]
    pub fn with_block_capacity(mut self, capacity: usize) -> Self {
        self.block_capacity = capacity.max(1);
        self
    }

    /// Builder-style: set the pipeline depth of the schedule replay.
    #[must_use]
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth;
        self
    }

    /// Builder-style: set the cost model.
    #[must_use]
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Builder-style: inject stragglers.
    #[must_use]
    pub fn with_straggler(mut self, spec: StragglerSpec) -> Self {
        self.straggler = Some(spec);
        self
    }

    /// Builder-style: adapt block sizes to per-link lane occupancy.
    #[must_use]
    pub fn with_adaptive_blocks(mut self, policy: crate::block::AdaptivePolicy) -> Self {
        self.adaptive = Some(policy);
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
    /// Buffer-pool accounting of the columnar data plane; balanced after
    /// every clean run (each checked-out block was returned).
    pub pool: PoolStats,
}

/// Which execution backend [`Cluster::run_backend`] should use.
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// The round-synchronous reference backend ([`Cluster::run`]).
    Synchronous,
    /// The event-driven backend ([`Cluster::run_async`]).
    EventDriven(AsyncConfig),
}

impl Backend {
    /// The event-driven backend with its default configuration.
    pub fn event_driven() -> Self {
        Backend::EventDriven(AsyncConfig::default())
    }
}

/// A backend-agnostic run outcome: `schedule` is present iff the
/// event-driven backend ran.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// Output and per-round volume statistics.
    pub result: RunResult,
    /// The schedule, for the event-driven backend.
    pub schedule: Option<ScheduleStats>,
}

impl Cluster {
    /// Execute a program on the backend selected by `backend`.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::run`] / [`Cluster::run_async`].
    pub fn run_backend<P: MpcProgram>(
        &self,
        backend: &Backend,
        program: &P,
        db: &Database,
    ) -> Result<BackendRun> {
        match backend {
            Backend::Synchronous => {
                Ok(BackendRun { result: self.run(program, db)?, schedule: None })
            }
            Backend::EventDriven(cfg) => {
                let run = self.run_async(program, db, cfg)?;
                Ok(BackendRun { result: run.result, schedule: Some(run.schedule) })
            }
        }
    }

    /// Execute a program on the event-driven backend: one task per
    /// server, bounded per-link queues, no global barrier.
    ///
    /// Join output and per-round volume statistics are identical to
    /// [`Cluster::run`]; the additional [`ScheduleStats`] describes *when*
    /// the bytes moved under `async_config`'s cost model.
    ///
    /// # Errors
    ///
    /// Propagates program errors and out-of-range destinations like the
    /// synchronous backend. With [`crate::MpcConfig::fail_on_overload`]
    /// the same [`SimError::Overload`] is returned, but only after the
    /// run completes (no global mid-flight view exists).
    pub fn run_async<P: MpcProgram>(
        &self,
        program: &P,
        db: &Database,
        async_config: &AsyncConfig,
    ) -> Result<AsyncRunResult> {
        self.run_async_inner(program, db, async_config, None)
    }

    /// [`Cluster::run_async`] with live observation: every worker bumps
    /// its per-server counters in `progress` on each delivered block and
    /// each round boundary, so an outside thread — or the adaptive
    /// runtime's controller ([`crate::reroute`]) — can watch the run
    /// while it is in flight.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::run_async`].
    pub fn run_async_observed<P: MpcProgram>(
        &self,
        program: &P,
        db: &Database,
        async_config: &AsyncConfig,
        progress: &Arc<LiveProgress>,
    ) -> Result<AsyncRunResult> {
        self.run_async_inner(program, db, async_config, Some(progress))
    }

    fn run_async_inner<P: MpcProgram>(
        &self,
        program: &P,
        db: &Database,
        async_config: &AsyncConfig,
        progress: Option<&Arc<LiveProgress>>,
    ) -> Result<AsyncRunResult> {
        let p = self.config().p;
        let input_bytes = db.total_bytes();
        let budget_bytes = self.config().budget_bytes(input_bytes);
        let total_rounds = program.num_rounds();
        if total_rounds == 0 {
            return Err(SimError::Program("program declares zero rounds".to_string()));
        }
        let capacity = async_config.queue_capacity.max(1);
        let block_capacity = async_config.block_capacity.max(1);
        let pool = Arc::new(BlockPool::new());

        // One inbox per worker with p + 1 lanes: lane s < p for peer s,
        // lane p for the input router.
        let mut lane_senders: Vec<Vec<LinkSender<Packet>>> = Vec::with_capacity(p);
        let mut receivers: Vec<InboxReceiver<Packet>> = Vec::with_capacity(p);
        for _ in 0..p {
            let (senders, rx) = Inbox::channel(p + 1, capacity);
            lane_senders.push(senders);
            receivers.push(rx);
        }
        let input_links: Vec<LinkSender<Packet>> =
            (0..p).map(|dest| lane_senders[dest][p].clone()).collect();
        let mut workers: Vec<Worker<'_, P>> = receivers
            .into_iter()
            .enumerate()
            .map(|(id, rx)| Worker {
                id,
                p,
                total_rounds,
                program,
                rx,
                peers: (0..p).map(|dest| lane_senders[dest][id].clone()).collect(),
                pool: Arc::clone(&pool),
                block_capacity,
                adaptive: async_config.adaptive,
                progress: progress.map(Arc::clone),
                state: ServerState::new(id, db.domain_size()),
                fins: vec![0; total_rounds],
                stash: (0..total_rounds).map(|_| RoundStage::default()).collect(),
                inbound: Vec::new(),
                scratch: Vec::new(),
                round: 0,
                aborted: false,
            })
            .collect();
        drop(lane_senders);

        let (input_exit, worker_exits) = std::thread::scope(|scope| {
            let input_handle = scope.spawn(|| {
                // Like the workers, the router must broadcast Abort on a
                // panic inside the program's routing — otherwise every
                // worker waits forever for the round-1 FIN.
                catch_unwind(AssertUnwindSafe(|| {
                    run_input(
                        program,
                        db,
                        p,
                        &input_links,
                        &pool,
                        block_capacity,
                        async_config.adaptive,
                    )
                }))
                .unwrap_or_else(|_| {
                    for lane in &input_links {
                        let _ = lane.force_send(Packet::Abort);
                    }
                    Err(Exit::Failed(SimError::Program("input router panicked".to_string())))
                })
            });
            let handles: Vec<_> =
                workers.drain(..).map(|worker| scope.spawn(move || worker.run())).collect();
            let input_exit = input_handle.join().unwrap_or_else(|_| {
                Err(Exit::Failed(SimError::Program("input router panicked".to_string())))
            });
            let worker_exits: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            (input_exit, worker_exits)
        });

        // Resolve errors deterministically: input router first, then
        // workers in id order; cancellations without a recorded cause
        // become a generic protocol error.
        let mut reports: Vec<WorkerReport> = Vec::with_capacity(p);
        let mut cancelled = false;
        if let Err(exit) = input_exit {
            match exit {
                Exit::Failed(e) => return Err(e),
                Exit::Cancelled => cancelled = true,
            }
        }
        let mut first_failure: Option<SimError> = None;
        for (id, exit) in worker_exits.into_iter().enumerate() {
            match exit {
                Ok(Ok(report)) => reports.push(report),
                Ok(Err(Exit::Failed(e))) => {
                    first_failure.get_or_insert(e);
                }
                Ok(Err(Exit::Cancelled)) => cancelled = true,
                Err(_) => {
                    first_failure.get_or_insert(SimError::Program(format!("worker {id} panicked")));
                }
            }
        }
        if let Some(e) = first_failure {
            return Err(e);
        }
        if cancelled || reports.len() != p {
            return Err(SimError::Program(
                "async run cancelled without a recorded error".to_string(),
            ));
        }

        // Volume statistics: same formulas, same data as the synchronous
        // backend — just gathered from the workers' reports.
        let mut rounds = Vec::with_capacity(total_rounds);
        for round in 1..=total_rounds {
            let per_bytes: Vec<u64> =
                reports.iter().map(|r| r.per_round_bytes[round - 1]).collect();
            let per_tuples: Vec<u64> =
                reports.iter().map(|r| r.per_round_tuples[round - 1]).collect();
            let stats =
                build_round_stats(round, &per_bytes, &per_tuples, input_bytes, budget_bytes);
            if stats.exceeds_budget && self.config().fail_on_overload {
                let (server, received_bytes) = overloaded_server(&per_bytes);
                return Err(SimError::Overload { round, server, received_bytes, budget_bytes });
            }
            rounds.push(stats);
        }

        // The schedule: a deterministic virtual-clock replay of the
        // recorded traffic.
        let mut traffic: Vec<MsgRecord> = Vec::new();
        for report in &mut reports {
            traffic.append(&mut report.inbound);
        }
        let (output, per_server_output) =
            union_outputs(program, reports.into_iter().map(|r| r.output).collect())?;
        let slowdown = match &async_config.straggler {
            Some(spec) => spec.slowdown_vector(p),
            None => vec![1; p],
        };
        let sched = schedule::simulate_overlapped(
            p,
            total_rounds,
            &traffic,
            &async_config.cost,
            &slowdown,
            capacity,
            async_config.pipeline_depth,
        );

        Ok(AsyncRunResult {
            result: RunResult { output, rounds, per_server_output, input_bytes },
            schedule: sched,
            pool: pool.stats(),
        })
    }
}

/// Both backends run on the same program and input, packaged for
/// comparison.
#[derive(Debug, Clone)]
pub struct DifferentialReport {
    /// The reference run.
    pub synchronous: RunResult,
    /// The event-driven run.
    pub event_driven: AsyncRunResult,
}

impl DifferentialReport {
    /// The first observed divergence between the two backends, if any:
    /// differing outputs, per-round byte/tuple volumes, or per-server
    /// output counts. `None` means the backends are equivalent on this
    /// program and input.
    pub fn divergence(&self) -> Option<String> {
        let sync = &self.synchronous;
        let ed = &self.event_driven.result;
        if !sync.output.same_tuples(&ed.output) {
            return Some(format!(
                "outputs differ: {} tuples synchronous vs {} event-driven",
                sync.output.len(),
                ed.output.len()
            ));
        }
        if sync.rounds.len() != ed.rounds.len() {
            return Some(format!(
                "round counts differ: {} vs {}",
                sync.rounds.len(),
                ed.rounds.len()
            ));
        }
        for (a, b) in sync.rounds.iter().zip(&ed.rounds) {
            if a != b {
                return Some(format!("round {} volume stats differ: {a:?} vs {b:?}", a.round));
            }
        }
        if sync.per_server_output != ed.per_server_output {
            return Some("per-server output counts differ".to_string());
        }
        None
    }

    /// True when [`DifferentialReport::divergence`] found nothing.
    pub fn is_equivalent(&self) -> bool {
        self.divergence().is_none()
    }
}

/// Run `program` on both backends and package the results. This is the
/// differential-equivalence layer: callers assert
/// [`DifferentialReport::divergence`] is `None` so the async path can
/// never silently change semantics.
///
/// # Errors
///
/// Propagates the first backend error (synchronous first).
pub fn run_differential<P: MpcProgram>(
    cluster: &Cluster,
    program: &P,
    db: &Database,
    async_config: &AsyncConfig,
) -> Result<DifferentialReport> {
    let synchronous = cluster.run(program, db)?;
    let event_driven = cluster.run_async(program, db, async_config)?;
    Ok(DifferentialReport { synchronous, event_driven })
}

// ---------------------------------------------------------------------------
// The per-server task.
// ---------------------------------------------------------------------------

/// A packet on the wire between server tasks.
#[derive(Debug)]
enum Packet {
    /// A columnar block of routed tuples (see [`crate::block`]).
    Block(TupleBlock),
    /// The sender's round-`round` traffic towards this receiver is
    /// complete.
    Fin { round: usize },
    /// Unwind the whole run (a task failed).
    Abort,
}

/// Why a task exited without a report.
#[derive(Debug)]
enum Exit {
    /// This task hit an error (already broadcast as [`Packet::Abort`]).
    Failed(SimError),
    /// This task was told to unwind by a failing peer.
    Cancelled,
}

/// What a finished worker hands back to the coordinator.
#[derive(Debug)]
struct WorkerReport {
    output: Relation,
    per_round_bytes: Vec<u64>,
    per_round_tuples: Vec<u64>,
    inbound: Vec<MsgRecord>,
}

struct Worker<'a, P: MpcProgram> {
    id: usize,
    p: usize,
    total_rounds: usize,
    program: &'a P,
    rx: InboxReceiver<Packet>,
    /// `peers[dest]` feeds worker `dest`'s inbox (lane = this worker).
    peers: Vec<LinkSender<Packet>>,
    /// Shared column storage for the blocks this worker sends and frees.
    pool: Arc<BlockPool>,
    /// Tuples per outgoing block.
    block_capacity: usize,
    /// Per-link adaptive block sizing, if enabled.
    adaptive: Option<crate::block::AdaptivePolicy>,
    /// Live observation counters, when this run is being watched.
    progress: Option<Arc<LiveProgress>>,
    state: ServerState,
    /// FIN markers seen, per round (index `round - 1`).
    fins: Vec<usize>,
    /// Pre-hashed stages for rounds this worker has not reached yet.
    stash: Vec<RoundStage>,
    inbound: Vec<MsgRecord>,
    /// Reusable burst buffer for [`InboxReceiver::recv_many`] drains.
    scratch: Vec<Packet>,
    /// The round currently being received (0 before the first).
    round: usize,
    aborted: bool,
}

impl<P: MpcProgram> Worker<'_, P> {
    fn run(mut self) -> std::result::Result<WorkerReport, Exit> {
        match catch_unwind(AssertUnwindSafe(|| self.run_inner())) {
            Ok(result) => result,
            Err(_) => {
                self.abort_peers();
                Err(Exit::Failed(SimError::Program(format!("worker {} panicked", self.id))))
            }
        }
    }

    fn run_inner(&mut self) -> std::result::Result<WorkerReport, Exit> {
        for round in 1..=self.total_rounds {
            self.round = round;
            if let Some(progress) = &self.progress {
                progress.record_round(self.id, round);
            }
            if round >= 2 {
                // Route from the state *before* any round-`round` delivery
                // — the tuple-based model's view, as in the synchronous
                // backend. Tuples are packed into per-(destination, tag)
                // columnar blocks; a block ships as soon as it fills.
                let routed = self
                    .program
                    .route_tuples(round, self.id, &self.state)
                    .map_err(|e| self.fail(e))?;
                let mut asm = BlockAssembler::new(
                    Arc::clone(&self.pool),
                    self.block_capacity,
                    self.id,
                    round,
                );
                if let Some(policy) = self.adaptive {
                    asm = asm.with_adaptive(policy);
                    for dest in 0..self.p {
                        asm.observe_occupancy(dest, self.peers[dest].occupancy());
                    }
                }
                for msg in routed {
                    for &dest in &msg.destinations {
                        if dest >= self.p {
                            let p = self.p;
                            return Err(self.fail(SimError::Program(format!(
                                "destination {dest} out of range for p = {p}"
                            ))));
                        }
                        if let Some(block) = asm.push(dest, &msg.tag, msg.tuple.values()) {
                            self.send_packet(dest, Packet::Block(block))?;
                            // Re-sample after each sealed block: the link's
                            // backlog is what the send just changed.
                            asm.observe_occupancy(dest, self.peers[dest].occupancy());
                        }
                    }
                }
                for (dest, block) in asm.flush() {
                    self.send_packet(dest, Packet::Block(block))?;
                }
                for dest in 0..self.p {
                    self.send_packet(dest, Packet::Fin { round })?;
                }
            }

            // Blocks that raced ahead of us were hashed on arrival; merge
            // the stage's relations and charge its volume to this round.
            let stage = std::mem::take(&mut self.stash[round - 1]);
            self.state.merge_stage(round, stage).map_err(|e| self.fail(e.into()))?;

            // The per-server barrier: all of *our* round-`round` inbound,
            // drained in bursts.
            let expected_fins = if round == 1 { 1 } else { self.p };
            while self.fins[round - 1] < expected_fins {
                let mut batch = std::mem::take(&mut self.scratch);
                self.rx.recv_many(&mut batch);
                let result = self.process_batch(&mut batch);
                self.scratch = batch;
                result?;
            }

            let derived =
                self.program.compute(round, self.id, &self.state).map_err(|e| self.fail(e))?;
            for rel in derived {
                self.state.add_local(rel);
            }
        }

        let output = self.program.output(self.id, &self.state).map_err(|e| self.fail(e))?;
        Ok(WorkerReport {
            output,
            per_round_bytes: (1..=self.total_rounds)
                .map(|r| self.state.bytes_received_in_round(r))
                .collect(),
            per_round_tuples: (1..=self.total_rounds)
                .map(|r| self.state.tuples_received_in_round(r))
                .collect(),
            inbound: std::mem::take(&mut self.inbound),
        })
    }

    /// Handle one inbound packet. Blocks for the current round decode
    /// into the server state; blocks for a future round are hashed into
    /// that round's stage. Either way the column storage goes back to
    /// the pool.
    fn process(&mut self, pkt: Packet) -> std::result::Result<(), Exit> {
        match pkt {
            Packet::Block(block) => {
                let round = block.round;
                debug_assert!(round >= self.round, "a FIN-closed round cannot still deliver");
                self.inbound.push(MsgRecord {
                    round,
                    from: block.from,
                    to: self.id,
                    seq: block.seq,
                    bytes: block.payload_bytes(),
                    tuples: block.len() as u64,
                });
                if let Some(progress) = &self.progress {
                    progress.record_delivery(self.id, block.payload_bytes(), block.len() as u64);
                }
                let ingested = if round == self.round {
                    self.state.receive_block(round, &block.tag, &block)
                } else {
                    self.stash[round - 1].absorb(&block.tag, &block)
                };
                self.pool.give_back(block.into_columns());
                ingested.map_err(|e| self.fail(e.into()))?;
            }
            Packet::Fin { round } => self.fins[round - 1] += 1,
            Packet::Abort => {
                self.aborted = true;
                return Err(Exit::Cancelled);
            }
        }
        Ok(())
    }

    /// Process a burst of packets. On an early exit the rest of the
    /// batch is dropped — the run is unwinding anyway.
    fn process_batch(&mut self, batch: &mut Vec<Packet>) -> std::result::Result<(), Exit> {
        for pkt in batch.drain(..) {
            self.process(pkt)?;
        }
        Ok(())
    }

    /// Send with backpressure, draining our own inbox while the
    /// destination lane is full — the event-driven loop that makes
    /// bounded queues deadlock-free.
    fn send_packet(&mut self, dest: usize, pkt: Packet) -> std::result::Result<(), Exit> {
        let lane = self.peers[dest].clone();
        let mut pkt = pkt;
        loop {
            if self.aborted {
                return Err(Exit::Cancelled);
            }
            match lane.send_timeout(pkt, BACKOFF) {
                SendAttempt::Sent => return Ok(()),
                SendAttempt::Closed(_) => {
                    self.aborted = true;
                    return Err(Exit::Cancelled);
                }
                SendAttempt::Full(back) => {
                    pkt = back;
                    let mut batch = std::mem::take(&mut self.scratch);
                    self.rx.try_recv_many(&mut batch);
                    let result = self.process_batch(&mut batch);
                    self.scratch = batch;
                    result?;
                }
            }
        }
    }

    fn fail(&mut self, e: SimError) -> Exit {
        self.abort_peers();
        Exit::Failed(e)
    }

    fn abort_peers(&mut self) {
        for lane in &self.peers {
            let _ = lane.force_send(Packet::Abort);
        }
    }
}

/// The input router: one logical input server per relation (numbered
/// `p, p+1, …` in the traffic records), all pumped by one task since
/// round-1 routing is pure.
fn run_input<P: MpcProgram>(
    program: &P,
    db: &Database,
    p: usize,
    links: &[LinkSender<Packet>],
    pool: &Arc<BlockPool>,
    block_capacity: usize,
    adaptive: Option<crate::block::AdaptivePolicy>,
) -> std::result::Result<(), Exit> {
    let abort_all = |links: &[LinkSender<Packet>]| {
        for lane in links {
            let _ = lane.force_send(Packet::Abort);
        }
    };
    for (ri, rel) in db.relations().enumerate() {
        let routed = match program.route_input(rel, p) {
            Ok(routed) => routed,
            Err(e) => {
                abort_all(links);
                return Err(Exit::Failed(e));
            }
        };
        // One assembler per logical input server: its blocks carry
        // `from = p + ri`, round 1.
        let mut asm = BlockAssembler::new(Arc::clone(pool), block_capacity, p + ri, 1);
        if let Some(policy) = adaptive {
            asm = asm.with_adaptive(policy);
            for (dest, lane) in links.iter().enumerate() {
                asm.observe_occupancy(dest, lane.occupancy());
            }
        }
        for msg in routed {
            for &dest in &msg.destinations {
                if dest >= p {
                    abort_all(links);
                    return Err(Exit::Failed(SimError::Program(format!(
                        "destination {dest} out of range for p = {p}"
                    ))));
                }
                if let Some(block) = asm.push(dest, &msg.tag, msg.tuple.values()) {
                    if links[dest].send(Packet::Block(block)).is_err() {
                        return Err(Exit::Cancelled);
                    }
                    asm.observe_occupancy(dest, links[dest].occupancy());
                }
            }
        }
        for (dest, block) in asm.flush() {
            if links[dest].send(Packet::Block(block)).is_err() {
                return Err(Exit::Cancelled);
            }
        }
    }
    for lane in links {
        if lane.send(Packet::Fin { round: 1 }).is_err() {
            return Err(Exit::Cancelled);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;
    use crate::program::BroadcastProgram;
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_storage::join::evaluate;

    #[test]
    fn broadcast_matches_synchronous_backend() {
        let q = families::cycle(3);
        let db = matching_database(&q, 60, 1);
        let cluster = Cluster::new(MpcConfig::new(4, 1.0)).unwrap();
        let report =
            run_differential(&cluster, &BroadcastProgram::new(q.clone()), &db, &AsyncConfig::new())
                .unwrap();
        assert_eq!(report.divergence(), None);
        let expected = evaluate(&q, &db).unwrap();
        assert!(report.event_driven.result.output.same_tuples(&expected));
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
    fn backend_selector_routes_to_both_backends() {
        let q = families::chain(2);
        let db = matching_database(&q, 80, 2);
        let cluster = Cluster::new(MpcConfig::new(4, 0.5)).unwrap();
        let program = BroadcastProgram::new(q);
        let sync = cluster.run_backend(&Backend::Synchronous, &program, &db).unwrap();
        assert!(sync.schedule.is_none());
        let event = cluster.run_backend(&Backend::event_driven(), &program, &db).unwrap();
        assert!(event.schedule.is_some());
        assert!(sync.result.output.same_tuples(&event.result.output));
    }

    #[test]
    fn tiny_queue_capacity_still_completes() {
        // Capacity 1 forces constant backpressure; the drain-while-full
        // loop must keep everything moving.
        let q = families::triangle();
        let db = matching_database(&q, 100, 11);
        let cluster = Cluster::new(MpcConfig::new(4, 1.0)).unwrap();
        let program = BroadcastProgram::new(q);
        let report =
            run_differential(&cluster, &program, &db, &AsyncConfig::new().with_queue_capacity(1))
                .unwrap();
        assert_eq!(report.divergence(), None);
        assert_eq!(report.event_driven.schedule.queue_window, 1);
    }

    #[test]
    fn out_of_range_destination_aborts_cleanly() {
        struct Bad;
        impl MpcProgram for Bad {
            fn num_rounds(&self) -> usize {
                1
            }
            fn route_input(
                &self,
                relation: &Relation,
                p: usize,
            ) -> crate::Result<Vec<crate::Routed>> {
                Ok(relation
                    .iter()
                    .map(|t| crate::Routed::new("R", mpc_storage::Tuple::new(t), vec![p + 3]))
                    .collect())
            }
            fn compute(&self, _: usize, _: usize, _: &ServerState) -> crate::Result<Vec<Relation>> {
                Ok(Vec::new())
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
            fn route_input(
                &self,
                relation: &Relation,
                _p: usize,
            ) -> crate::Result<Vec<crate::Routed>> {
                Ok(relation
                    .iter()
                    .map(|t| crate::Routed::new("S1", mpc_storage::Tuple::new(t), vec![0]))
                    .collect())
            }
            fn compute(&self, _: usize, _: usize, _: &ServerState) -> crate::Result<Vec<Relation>> {
                Ok(Vec::new())
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
            fn route_input(&self, _: &Relation, _: usize) -> crate::Result<Vec<crate::Routed>> {
                panic!("routing bug");
            }
            fn compute(&self, _: usize, _: usize, _: &ServerState) -> crate::Result<Vec<Relation>> {
                Ok(Vec::new())
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
    fn hard_budget_overload_is_reported_post_hoc() {
        let q = families::chain(2);
        let db = matching_database(&q, 200, 2);
        let cluster = Cluster::new(MpcConfig::new(8, 0.0).with_hard_budget()).unwrap();
        let err =
            cluster.run_async(&BroadcastProgram::new(q), &db, &AsyncConfig::new()).unwrap_err();
        assert!(matches!(err, SimError::Overload { round: 1, .. }));
    }

    #[test]
    fn zero_round_program_is_rejected() {
        struct Zero;
        impl MpcProgram for Zero {
            fn num_rounds(&self) -> usize {
                0
            }
            fn route_input(&self, _: &Relation, _: usize) -> crate::Result<Vec<crate::Routed>> {
                Ok(Vec::new())
            }
            fn compute(&self, _: usize, _: usize, _: &ServerState) -> crate::Result<Vec<Relation>> {
                Ok(Vec::new())
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
