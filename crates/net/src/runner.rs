//! The distributed worker loop and the transport-parametrised runner.
//!
//! [`worker_loop`] is the network mirror of the event-driven backend's
//! per-server task ([`mpc_sim::cluster_async`]): route from the
//! pre-delivery state, ship columnar blocks, broadcast per-round FIN
//! markers, merge pre-hashed future-round stages, drain until every
//! sender's FIN arrived, compute, and finally report the local output
//! plus per-round received volumes. The only structural difference is
//! round 1: there is no shared input router across processes, so input
//! relation `ri` is routed by worker `ri mod p` (with the original input
//! server id `p + ri` preserved on its blocks) and **every** worker
//! broadcasts a round-1 FIN — the expected FIN count is `p` in every
//! round. Since routing is a pure function of the tuple, the delivered
//! multiset — and therefore every volume statistic — is identical to the
//! single-process backends', which the differential tests assert.
//!
//! [`run_distributed`] executes a program over either transport and
//! rebuilds the exact [`RunResult`] of [`mpc_sim::Cluster::run`], reusing
//! the simulator's own statistics helpers so the formulas cannot drift.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use mpc_sim::queue::Inbox;
use mpc_sim::{
    build_round_stats, overloaded_server, union_outputs, BlockAssembler, BlockPool, Cluster,
    MpcProgram, RoundStage, RunResult, ServerState, SimError,
};
use mpc_storage::{Database, Relation};

use crate::frame::{read_frame, write_frame, Frame};
use crate::master::ControlPlane;
use crate::recovery::RecoverySettings;
use crate::transport::{
    dial_with_backoff, FailFastBarrier, InProcTransport, NetPacket, SendOutcome, TcpEndpoints,
    TcpTransport, Transport,
};
use crate::{NetError, Result};

/// How long a worker keeps retrying its master and mesh dials before
/// giving up (with capped exponential backoff — see
/// [`dial_with_backoff`]).
const DIAL_DEADLINE: Duration = Duration::from_secs(10);

/// Which fabric moves the packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Bounded in-process lanes (the async backend's channels).
    InProcess,
    /// Real TCP sockets over localhost, with an in-process master serving
    /// the control plane.
    Tcp,
}

/// Configuration of a distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistConfig {
    /// The transport implementation.
    pub transport: TransportKind,
    /// Per-link lane capacity, in packets (in-process transport only; TCP
    /// backpressure comes from the kernel's socket buffers).
    pub queue_capacity: usize,
    /// Tuples per columnar block.
    pub block_capacity: usize,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig { transport: TransportKind::InProcess, queue_capacity: 64, block_capacity: 256 }
    }
}

impl DistConfig {
    /// A default configuration over the given transport.
    pub fn new(transport: TransportKind) -> Self {
        DistConfig { transport, ..DistConfig::default() }
    }
}

/// What one worker reports when its job is done.
#[derive(Debug, Clone)]
pub struct WorkerSummary {
    /// The server's local (pre-union) output relation.
    pub output: Relation,
    /// Bytes received per round (index `round - 1`).
    pub per_round_bytes: Vec<u64>,
    /// Tuples received per round.
    pub per_round_tuples: Vec<u64>,
}

/// The per-worker protocol state while [`worker_loop`] runs.
struct Ctx<'a, T: Transport> {
    transport: &'a mut T,
    id: usize,
    round: usize,
    state: ServerState,
    fins: Vec<usize>,
    stash: Vec<RoundStage>,
    pool: Arc<BlockPool>,
    scratch: Vec<NetPacket>,
}

impl<T: Transport> Ctx<'_, T> {
    /// Process one received packet against the current round.
    fn process(&mut self, pkt: NetPacket) -> Result<()> {
        match pkt {
            NetPacket::Block(block) => {
                let ingested = if block.round == self.round {
                    self.state.receive_block(block.round, &block.tag, &block)
                } else if block.round > self.round && block.round <= self.stash.len() {
                    self.stash[block.round - 1].absorb(&block.tag, &block)
                } else {
                    return Err(NetError::Protocol(format!(
                        "worker {}: round-{} block arrived in round {}",
                        self.id, block.round, self.round
                    )));
                };
                self.pool.give_back(block.into_columns());
                Ok(ingested?)
            }
            NetPacket::Fin { round } => {
                if round == 0 || round > self.fins.len() {
                    return Err(NetError::Protocol(format!("FIN for invalid round {round}")));
                }
                self.fins[round - 1] += 1;
                Ok(())
            }
            NetPacket::Abort => {
                Err(NetError::Protocol(format!("worker {}: a peer aborted", self.id)))
            }
            // Transport-internal wake-up markers are stripped inside the
            // transport's recv; one leaking through is harmless.
            NetPacket::Resync => Ok(()),
        }
    }

    /// Ship one packet, draining our own inbox whenever the link is full —
    /// the deadlock-free send loop of the event-driven backend.
    fn send(&mut self, dest: usize, mut pkt: NetPacket) -> Result<()> {
        debug_assert_ne!(dest, self.id, "self-deliveries bypass the transport");
        loop {
            match self.transport.send(dest, pkt) {
                SendOutcome::Sent => return Ok(()),
                SendOutcome::Full(back) => {
                    pkt = back;
                    let mut tmp = std::mem::take(&mut self.scratch);
                    self.transport.try_recv(&mut tmp);
                    let res = tmp.drain(..).try_for_each(|p| self.process(p));
                    self.scratch = tmp;
                    res?;
                }
                SendOutcome::Closed => {
                    return Err(NetError::Protocol(format!(
                        "worker {}: link to {dest} is closed",
                        self.id
                    )));
                }
            }
        }
    }

    /// Deliver a sealed block: locally when it is ours, over the wire
    /// otherwise.
    fn deliver(&mut self, dest: usize, block: mpc_sim::TupleBlock) -> Result<()> {
        if dest == self.id {
            self.process(NetPacket::Block(block))
        } else {
            self.send(dest, NetPacket::Block(block))
        }
    }
}

/// A restored round checkpoint: everything a re-spawned worker needs to
/// resume at `round + 1` instead of round 1 (decoded from the master's
/// [`Frame::Checkpoint`]).
#[derive(Debug, Clone)]
pub struct RestorePoint {
    /// The completed round the snapshot describes.
    pub round: usize,
    /// Every relation the server knew, in tag order.
    pub relations: Vec<Relation>,
    /// Bytes received per round (index `round - 1`).
    pub per_round_bytes: Vec<u64>,
    /// Tuples received per round.
    pub per_round_tuples: Vec<u64>,
}

/// The per-worker parameters of [`worker_loop`], bundled so call sites
/// stay readable as the list grows.
pub struct WorkerRun {
    /// This worker's server id in `0..p`.
    pub id: usize,
    /// Cluster size.
    pub p: usize,
    /// Tuples per columnar block.
    pub block_capacity: usize,
    /// The block pool shared with the transport's decoder.
    pub pool: Arc<BlockPool>,
    /// Resume from this checkpoint instead of starting at round 1 —
    /// the re-spawned worker's recovery path.
    pub resume: Option<RestorePoint>,
}

impl WorkerRun {
    /// A fresh (round-1) run for worker `id` of `p`.
    pub fn fresh(id: usize, p: usize, block_capacity: usize, pool: Arc<BlockPool>) -> Self {
        WorkerRun { id, p, block_capacity, pool, resume: None }
    }
}

/// Run one server's share of `program` over `transport`. See the module
/// docs for the protocol; the caller provides the (deterministically
/// reconstructed or shared) input database.
///
/// A resumed run (`run.resume`) rebuilds the checkpointed server state
/// and re-executes only the rounds after the checkpoint. Because routing
/// and computation are pure functions of the pre-round state, the
/// re-execution reproduces the original rounds' blocks (and block
/// sequence numbers) exactly — surviving peers drop the duplicates by
/// watermark while the replacement's missing frames arrive via their
/// replay logs.
///
/// # Errors
///
/// Fails on program errors, protocol violations and dead peers; the
/// transport's abort broadcast is the caller's job (it owns the
/// transport).
pub fn worker_loop<T: Transport, P: MpcProgram + ?Sized>(
    transport: &mut T,
    program: &P,
    db: &Database,
    run: WorkerRun,
) -> Result<WorkerSummary> {
    let WorkerRun { id, p, block_capacity, pool, resume } = run;
    let total_rounds = program.num_rounds();
    let mut state = ServerState::new(id, db.domain_size());
    let mut start_round = 1;
    if let Some(rp) = resume {
        for rel in rp.relations {
            state.merge_local(rel)?;
        }
        for (i, (&b, &t)) in rp.per_round_bytes.iter().zip(&rp.per_round_tuples).enumerate() {
            state.credit_received(i + 1, b, t);
        }
        start_round = rp.round + 1;
    }
    let mut ctx = Ctx {
        transport,
        id,
        round: 0,
        state,
        fins: vec![0; total_rounds],
        stash: (0..total_rounds).map(|_| RoundStage::default()).collect(),
        pool,
        scratch: Vec::new(),
    };

    for round in start_round..=total_rounds {
        ctx.round = round;
        crate::fault::trip(id as u32, crate::fault::FaultPhase::RoundStart(round as u32));
        if round == 1 {
            // Input sharding: relation `ri` is routed by worker `ri % p`,
            // its blocks carrying the logical input server id `p + ri`.
            for (ri, rel) in db.relations().enumerate() {
                if ri % p != id {
                    continue;
                }
                let routed = program.route_input(rel, p)?;
                let mut asm = BlockAssembler::new(Arc::clone(&ctx.pool), block_capacity, p + ri, 1);
                for msg in routed {
                    for &dest in &msg.destinations {
                        if dest >= p {
                            return Err(NetError::Sim(SimError::Program(format!(
                                "destination {dest} out of range for p = {p}"
                            ))));
                        }
                        if let Some(block) = asm.push(dest, &msg.tag, msg.tuple.values()) {
                            ctx.deliver(dest, block)?;
                        }
                    }
                }
                for (dest, block) in asm.flush() {
                    ctx.deliver(dest, block)?;
                }
            }
        } else {
            // Route from the state *before* any round-`round` delivery —
            // the tuple-based model's view.
            let routed = program.route_tuples(round, id, &ctx.state)?;
            let mut asm = BlockAssembler::new(Arc::clone(&ctx.pool), block_capacity, id, round);
            for msg in routed {
                for &dest in &msg.destinations {
                    if dest >= p {
                        return Err(NetError::Sim(SimError::Program(format!(
                            "destination {dest} out of range for p = {p}"
                        ))));
                    }
                    if let Some(block) = asm.push(dest, &msg.tag, msg.tuple.values()) {
                        ctx.deliver(dest, block)?;
                    }
                }
            }
            for (dest, block) in asm.flush() {
                ctx.deliver(dest, block)?;
            }
        }
        // Every worker FINs every round (unlike the async backend, where
        // round 1 has a single input router): p FINs end a round.
        for dest in 0..p {
            if dest == id {
                ctx.fins[round - 1] += 1;
            } else {
                ctx.send(dest, NetPacket::Fin { round })?;
            }
        }

        // Merge the pre-hashed stage for this round, charging its volume.
        let stage = std::mem::take(&mut ctx.stash[round - 1]);
        ctx.state.merge_stage(round, stage)?;

        // Drain until every sender closed this round.
        while ctx.fins[round - 1] < p {
            let mut tmp = std::mem::take(&mut ctx.scratch);
            ctx.transport.recv(&mut tmp)?;
            let res = tmp.drain(..).try_for_each(|pkt| ctx.process(pkt));
            ctx.scratch = tmp;
            res?;
        }

        // Unbounded local computation.
        for rel in program.compute(round, id, &ctx.state)? {
            ctx.state.add_local(rel);
        }

        // The coordination barrier: nobody enters round + 1 until every
        // worker finished this one (ready/proceed in the TCP transport).
        // The barrier is the checkpoint cut — the post-compute state is
        // snapshotted right before declaring the round done, so a
        // restored worker resumes exactly at the next round's start.
        crate::fault::trip(id as u32, crate::fault::FaultPhase::Barrier(round as u32));
        ctx.transport.checkpoint(round, &ctx.state, round == total_rounds)?;
        ctx.transport.barrier(round)?;
    }

    let output = program.output(id, &ctx.state)?;
    Ok(WorkerSummary {
        output,
        per_round_bytes: (1..=total_rounds).map(|r| ctx.state.bytes_received_in_round(r)).collect(),
        per_round_tuples: (1..=total_rounds)
            .map(|r| ctx.state.tuples_received_in_round(r))
            .collect(),
    })
}

/// Fold per-worker summaries into the [`RunResult`] every backend agrees
/// on, using the simulator's own statistics helpers.
pub(crate) fn assemble_result<P: MpcProgram + ?Sized>(
    cluster: &Cluster,
    program: &P,
    input_bytes: u64,
    summaries: Vec<WorkerSummary>,
) -> Result<RunResult> {
    let total_rounds = program.num_rounds();
    let budget_bytes = cluster.config().budget_bytes(input_bytes);
    let mut rounds = Vec::with_capacity(total_rounds);
    for round in 1..=total_rounds {
        let per_bytes: Vec<u64> = summaries
            .iter()
            .map(|s| s.per_round_bytes.get(round - 1).copied().unwrap_or(0))
            .collect();
        let per_tuples: Vec<u64> = summaries
            .iter()
            .map(|s| s.per_round_tuples.get(round - 1).copied().unwrap_or(0))
            .collect();
        let stats = build_round_stats(round, &per_bytes, &per_tuples, input_bytes, budget_bytes);
        if stats.exceeds_budget && cluster.config().fail_on_overload {
            let (server, received_bytes) = overloaded_server(&per_bytes);
            return Err(NetError::Sim(SimError::Overload {
                round,
                server,
                received_bytes,
                budget_bytes,
            }));
        }
        rounds.push(stats);
    }
    let (output, per_server_output) =
        union_outputs(program, summaries.into_iter().map(|s| s.output).collect())
            .map_err(NetError::Sim)?;
    Ok(RunResult { output, rounds, per_server_output, input_bytes })
}

/// Execute `program` over `db` on a distributed cluster of `p` workers
/// (one thread per server) connected by the configured transport, and
/// return the same [`RunResult`] as [`Cluster::run`].
///
/// # Errors
///
/// Fails on program errors, worker death and protocol violations; the
/// overload policy of the cluster's [`mpc_sim::MpcConfig`] applies.
pub fn run_distributed<P: MpcProgram>(
    cluster: &Cluster,
    program: &P,
    db: &Database,
    cfg: &DistConfig,
) -> Result<RunResult> {
    let p = cluster.config().p;
    let input_bytes = db.total_bytes();
    let summaries = match cfg.transport {
        TransportKind::InProcess => run_in_process(program, db, p, cfg)?,
        TransportKind::Tcp => run_tcp_threads(program, db, p, cfg)?,
    };
    assemble_result(cluster, program, input_bytes, summaries)
}

/// The in-process fabric: `p` worker threads over bounded lanes plus a
/// shared fail-fast barrier.
fn run_in_process<P: MpcProgram>(
    program: &P,
    db: &Database,
    p: usize,
    cfg: &DistConfig,
) -> Result<Vec<WorkerSummary>> {
    let pool = Arc::new(BlockPool::new());
    let barrier = Arc::new(FailFastBarrier::new(p));
    let mut lane_senders = Vec::with_capacity(p);
    let mut receivers = Vec::with_capacity(p);
    for _ in 0..p {
        let (senders, rx) = Inbox::channel::<NetPacket>(p, cfg.queue_capacity);
        lane_senders.push(senders);
        receivers.push(rx);
    }
    let results: Vec<Result<WorkerSummary>> = std::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(id, rx)| {
                // Worker `id`'s lane into `dest`'s inbox is lane `id`.
                let peers: Vec<_> = (0..p).map(|dest| lane_senders[dest][id].clone()).collect();
                let barrier = Arc::clone(&barrier);
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let mut transport = InProcTransport::new(peers, rx, barrier);
                    let run = WorkerRun::fresh(id, p, cfg.block_capacity, pool);
                    let out = worker_loop(&mut transport, program, db, run);
                    if out.is_err() {
                        transport.abort();
                    }
                    out
                })
            })
            .collect();
        drop(lane_senders);
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(NetError::Protocol("worker thread panicked".to_string()))
                })
            })
            .collect()
    });
    collect_summaries(results)
}

/// The TCP fabric with in-process workers: a real localhost socket mesh
/// and a real master control plane, but each server on a thread sharing
/// `program`/`db` — the differential-testing configuration.
fn run_tcp_threads<P: MpcProgram>(
    program: &P,
    db: &Database,
    p: usize,
    cfg: &DistConfig,
) -> Result<Vec<WorkerSummary>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let master_addr = listener.local_addr()?;
    let total_rounds = program.num_rounds();

    let results: Vec<Result<WorkerSummary>> = std::thread::scope(|scope| {
        let master = scope.spawn(move || -> Result<()> {
            let mut plane = ControlPlane::accept(&listener, p, None, None)?;
            plane.serve_barriers(total_rounds)?;
            Ok(())
        });
        let handles: Vec<_> = (0..p)
            .map(|id| {
                scope.spawn(move || -> Result<WorkerSummary> {
                    let setup = tcp_worker_setup(
                        id,
                        Some(p),
                        &master_addr.to_string(),
                        cfg.queue_capacity,
                    )?;
                    let mut transport = setup.transport;
                    let pool = Arc::new(BlockPool::new());
                    let run = WorkerRun::fresh(id, p, cfg.block_capacity, pool);
                    let out = worker_loop(&mut transport, program, db, run);
                    if out.is_err() {
                        transport.abort();
                    }
                    transport.shutdown();
                    out
                })
            })
            .collect();
        let mut results: Vec<Result<WorkerSummary>> = handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(NetError::Protocol("worker thread panicked".to_string()))
                })
            })
            .collect();
        if let Err(e) = master
            .join()
            .unwrap_or_else(|_| Err(NetError::Protocol("master thread panicked".to_string())))
        {
            results.push(Err(e));
        }
        results
    });
    collect_summaries(results)
}

/// What [`tcp_worker_setup`] hands back: the meshed transport, the raw
/// job spec (spawned mode) and the restore checkpoint (recovery rejoin).
pub(crate) struct WorkerSetup {
    pub transport: TcpTransport,
    pub job: Option<String>,
    pub restore: Option<RestorePoint>,
}

/// Dial the master, announce ourselves, mesh-connect to every peer and
/// wait for the collective proceed — the worker side of the handshake.
/// Used by both the threaded TCP runner and the spawned worker daemon.
/// All dials retry with capped exponential backoff, so a slow-starting
/// master or peer delays the handshake instead of killing it.
///
/// The cluster size is learned from the master's peer table (validated
/// against `expect_p` when the caller already knows it). In spawned mode
/// the master precedes the peer table with a `Job` frame, returned as
/// the raw spec string; in threaded mode no Job frame is sent.
///
/// **Recovery rejoin.** When the master also sends a `Checkpoint` frame
/// the worker is a re-spawned replacement: instead of the fresh-mesh
/// handshake (dial lower ids, accept higher), it dials *every* surviving
/// peer's rejoin acceptor, announcing `DataHello` + `ReplayRequest` so
/// the survivor replays the rounds the replacement's checkpoint misses.
pub(crate) fn tcp_worker_setup(
    id: usize,
    expect_p: Option<usize>,
    master_addr: &str,
    queue_capacity: usize,
) -> Result<WorkerSetup> {
    let pool = BlockPool::new();
    let data_listener = TcpListener::bind("127.0.0.1:0")?;
    let data_port = data_listener.local_addr()?.port();
    let mut control = dial_with_backoff(master_addr, DIAL_DEADLINE, id as u64)?;
    control.set_nodelay(true).ok();
    write_frame(&mut control, &Frame::Hello { worker_id: id as u32, data_port })?;
    let mut job = None;
    let mut restore = None;
    let peers = loop {
        match read_frame(&mut control, &pool)? {
            Frame::Job { spec } => job = Some(spec),
            Frame::Checkpoint { round, relations, per_round_bytes, per_round_tuples } => {
                restore = Some(RestorePoint {
                    round: round as usize,
                    relations,
                    per_round_bytes,
                    per_round_tuples,
                });
            }
            Frame::Peers { peers } => break peers,
            Frame::Abort { reason } => {
                return Err(NetError::Protocol(format!("master aborted during hello: {reason}")));
            }
            other => {
                return Err(NetError::Protocol(format!("expected Peers, got {other:?}")));
            }
        }
    };
    let p = peers.len();
    if expect_p.is_some_and(|e| e != p) || id >= p {
        return Err(NetError::Protocol(format!(
            "peer table has {p} entries (worker {id}, expected {expect_p:?})"
        )));
    }
    let mut addr_of = vec![String::new(); p];
    for (pid, addr) in peers {
        let pid = pid as usize;
        if pid >= p {
            return Err(NetError::Protocol(format!("peer table names bad worker {pid}")));
        }
        addr_of[pid] = addr;
    }
    let mut outbound: Vec<Option<TcpStream>> = (0..p).map(|_| None).collect();
    let mut inbound: Vec<(usize, TcpStream)> = Vec::with_capacity(p.saturating_sub(1));
    if let Some(rp) = &restore {
        // Rejoin mesh: dial every surviving peer and ask for replay.
        for (peer, addr) in addr_of.iter().enumerate() {
            if peer == id {
                continue;
            }
            let mut s = dial_with_backoff(addr, DIAL_DEADLINE, (id * 31 + peer) as u64)?;
            s.set_nodelay(true).ok();
            write_frame(&mut s, &Frame::DataHello { from: id as u32 })?;
            write_frame(&mut s, &Frame::ReplayRequest { from_round: rp.round as u32 })?;
            outbound[peer] = Some(s.try_clone()?);
            inbound.push((peer, s));
        }
    } else {
        // Fresh mesh: dial every lower id, accept every higher one. Each
        // pair shares one full-duplex stream.
        for (peer, addr) in addr_of.iter().enumerate().take(id) {
            let mut s = dial_with_backoff(addr, DIAL_DEADLINE, (id * 31 + peer) as u64)?;
            s.set_nodelay(true).ok();
            write_frame(&mut s, &Frame::DataHello { from: id as u32 })?;
            outbound[peer] = Some(s.try_clone()?);
            inbound.push((peer, s));
        }
        for _ in (id + 1)..p {
            let (mut s, _) = data_listener.accept()?;
            s.set_nodelay(true).ok();
            let from = match read_frame(&mut s, &pool)? {
                Frame::DataHello { from } => from as usize,
                other => {
                    return Err(NetError::Protocol(format!("expected DataHello, got {other:?}")));
                }
            };
            if from >= p || from <= id {
                return Err(NetError::Protocol(format!("unexpected data hello from {from}")));
            }
            outbound[from] = Some(s.try_clone()?);
            inbound.push((from, s));
        }
    }
    write_frame(&mut control, &Frame::MeshReady)?;
    match read_frame(&mut control, &pool)? {
        Frame::Proceed { round: 0 } => {}
        Frame::Abort { reason } => {
            return Err(NetError::Protocol(format!("master aborted during mesh: {reason}")));
        }
        other => {
            return Err(NetError::Protocol(format!("expected Proceed(0), got {other:?}")));
        }
    }
    let recovery = job.as_deref().map(RecoverySettings::from_wire).unwrap_or_default();
    let endpoints =
        TcpEndpoints { id, p, outbound, inbound, control, listener: Some(data_listener) };
    let transport = TcpTransport::new(endpoints, Arc::new(pool), queue_capacity, recovery)?;
    Ok(WorkerSetup { transport, job, restore })
}

fn collect_summaries(results: Vec<Result<WorkerSummary>>) -> Result<Vec<WorkerSummary>> {
    let mut summaries = Vec::with_capacity(results.len());
    let mut first_err = None;
    for r in results {
        match r {
            Ok(s) => summaries.push(s),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(summaries),
    }
}

/// The three-way differential report: the synchronous reference against
/// both distributed transports.
#[derive(Debug)]
pub struct TransportDifferential {
    /// [`Cluster::run`], the model's reference semantics.
    pub reference: RunResult,
    /// The distributed runner over in-process lanes.
    pub in_process: RunResult,
    /// The distributed runner over TCP sockets.
    pub tcp: RunResult,
}

impl TransportDifferential {
    /// The first observable difference between the three runs, if any:
    /// outputs, per-round statistics or per-server output counts.
    pub fn divergence(&self) -> Option<String> {
        for (label, run) in [("in-process", &self.in_process), ("tcp", &self.tcp)] {
            if !run.output.same_tuples(&self.reference.output) {
                return Some(format!(
                    "{label}: output differs ({} vs {} tuples)",
                    run.output.len(),
                    self.reference.output.len()
                ));
            }
            if run.rounds != self.reference.rounds {
                return Some(format!("{label}: per-round statistics differ"));
            }
            if run.per_server_output != self.reference.per_server_output {
                return Some(format!("{label}: per-server output counts differ"));
            }
            if run.input_bytes != self.reference.input_bytes {
                return Some(format!("{label}: input accounting differs"));
            }
        }
        None
    }
}

/// Run `program` under the synchronous reference and both distributed
/// transports, for differential assertions.
///
/// # Errors
///
/// Fails if any of the three runs fails.
pub fn run_transport_differential<P: MpcProgram>(
    cluster: &Cluster,
    program: &P,
    db: &Database,
    cfg: &DistConfig,
) -> Result<TransportDifferential> {
    let reference = cluster.run(program, db).map_err(NetError::Sim)?;
    let in_process = run_distributed(
        cluster,
        program,
        db,
        &DistConfig { transport: TransportKind::InProcess, ..cfg.clone() },
    )?;
    let tcp = run_distributed(
        cluster,
        program,
        db,
        &DistConfig { transport: TransportKind::Tcp, ..cfg.clone() },
    )?;
    Ok(TransportDifferential { reference, in_process, tcp })
}
