//! The per-server round protocol of the MPC model, written once.
//!
//! [`Cluster::run`](crate::Cluster::run) is the *reference* execution: a
//! global loop that delivers a whole round to every server and then lets
//! every server compute. Everything else that executes an
//! [`MpcProgram`] runs one [`WorkerCore`] per server, under one of two
//! drivers: the in-process reactor [`crate::mesh`] (behind
//! [`Cluster::run_async`](crate::Cluster::run_async) and `mpc-net`'s
//! multi-query service) and `mpc-net`'s TCP worker ([`drive`]).
//!
//! **Protocol.** In every round a server *receives, then computes*
//! (BKS13 §2.1). Round-1 traffic comes either from an input router
//! ([`Input::Routed`]: one logical input server per relation, all pumped
//! by one task, one FIN per worker) or from the workers themselves
//! ([`Input::Sharded`]: relation `ri` is routed by worker `ri mod p`, every
//! worker FINs, `p` FINs close the round); either way blocks of relation
//! `ri` carry the sender id `p + ri`. On entering a round `r ≥ 2` a worker
//! first routes its join tuples — computed from its state *before* any
//! round-`r` delivery, the tuple-based model of §4.1 — ships them, and
//! closes the round towards every peer with a [`Packet::Fin`]. It computes
//! as soon as *it* holds every sender's FIN: the barrier is per server,
//! so a fast peer's round-`r+1` (or `r+2`) traffic may arrive while this
//! worker still drains round `r`. Every block — of the round being
//! received or of one that raced ahead — is appended to its round's
//! [`RoundStage`] on arrival. When a round's last FIN is in, the core
//! merges that stage into its state, crediting the volume to the round,
//! settles the state once ([`ServerState::settle`]) and lets the program
//! compute. So the state changes only when a round closes.
//!
//! **Data plane.** Tuples travel as row-major [`TupleBlock`]s of up to
//! `block_capacity` rows per `(destination, tag)`, sealed by one
//! [`BlockAssembler`] per `(sender, round)` whose sequence numbers make the
//! per-sender send order reproducible. There is exactly one sink that
//! turns routed rows into blocks (the [`RouteSink`] behind [`route_input`]
//! and round ≥ 2 routing: each emitted row goes straight onto the open
//! block of each destination), one ingest path ([`WorkerCore::accept`]:
//! into the block's round stage), and one send loop: a block for this
//! server never touches the transport, and a send that finds its link
//! full drains the worker's own inbox before retrying, so bounded links
//! cannot deadlock. Every round ships its blocks as they seal: what the
//! drain takes in goes to stages, never into the state being routed from.
//!
//! **Checked ingest.** Packets may come off a socket. A block or FIN for
//! round 0, for a round past the program's last, or for a round whose FINs
//! are already complete; an out-of-range destination; a second arity under
//! one tag (from a peer, or from this worker's own program; met when the
//! block reaches its stage, or when the stage meets the state as the round
//! closes) — each is an error ([`SimError::Protocol`],
//! [`SimError::Program`], [`SimError::Storage`]), never a panic.
//!
//! **Drivers.** [`drive`] is the blocking loop for one core over a
//! [`Transport`] — `mpc-net`'s TCP worker: feed it what arrives, call the
//! transport's [`Transport::round_done`] hook (checkpoint, barrier) after
//! each round, hand back the [`WorkerSummary`]. A mesh reactor steps many
//! cores, one per job, through [`WorkerCore::step`] directly, over a
//! [`Link`] that wraps each packet in its job's envelope. [`fold_summaries`]
//! turns the `p` summaries into the [`RunResult`] every path agrees on.

use std::ops::Deref;
use std::sync::Arc;

use mpc_storage::{Database, Relation, Value};

use crate::block::{BlockAssembler, TupleBlock};
use crate::cluster::{build_round_stats, union_outputs};
use crate::config::MpcConfig;
use crate::error::SimError;
use crate::pool::BlockPool;
use crate::program::{out_of_range, MpcProgram, RouteSink};
use crate::schedule::MsgRecord;
use crate::server::{RoundStage, ServerState};
use crate::stats::RunResult;
use crate::Result;

/// A packet between servers, on every fabric.
#[derive(Debug)]
pub enum Packet {
    /// A sealed batch of routed tuples.
    Block(TupleBlock),
    /// Every block of `round` from this sender is out.
    Fin {
        /// The finished round (1-based).
        round: usize,
    },
    /// A task failed; unwind the run.
    Abort,
}

/// Outcome of a bounded-wait send on a [`Link`].
#[derive(Debug)]
pub enum SendOutcome {
    /// The packet is on its way.
    Sent,
    /// The link is backpressured; the packet is handed back so the sender
    /// can drain its own inbox and retry.
    Full(Packet),
    /// The peer is gone.
    Closed,
}

/// What a [`WorkerCore`] needs of the fabric while it routes: a send that
/// backs off instead of blocking forever, and a non-blocking drain of its
/// own inbox.
pub trait Link {
    /// Attempt to send `pkt` to server `dest` (never this server itself),
    /// waiting at most a poll interval when the link is full.
    fn send(&mut self, dest: usize, pkt: Packet) -> SendOutcome;

    /// Append whatever is pending for this worker to `buf` without
    /// blocking.
    fn try_recv(&mut self, buf: &mut Vec<Packet>);
}

/// A [`Link`] a blocking driver ([`drive`]) can run one worker over.
pub trait Transport: Link {
    /// The driver's error type: the core's errors plus whatever the
    /// fabric itself can fail with.
    type Error: From<SimError>;

    /// Block until at least one packet is available and append every
    /// pending packet to `buf`.
    ///
    /// # Errors
    ///
    /// Fails when nothing can arrive any more.
    fn recv(&mut self, buf: &mut Vec<Packet>) -> std::result::Result<(), Self::Error>;

    /// Called after `round`'s local computation, with the post-compute
    /// `state` (`last` marks the program's final round): where a transport
    /// with a master checkpoints and waits for the cluster-wide barrier.
    /// The default does nothing — the protocol itself needs no barrier.
    ///
    /// # Errors
    ///
    /// Fails when the job aborted or the master is gone.
    fn round_done(
        &mut self,
        round: usize,
        state: &ServerState,
        last: bool,
    ) -> std::result::Result<(), Self::Error> {
        let _ = (round, state, last);
        Ok(())
    }

    /// Tell every reachable peer to unwind.
    fn abort(&mut self);
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
    /// One record per block this worker ingested, in arrival order — the
    /// input of the virtual-clock replay ([`crate::schedule`]). Empty for
    /// summaries that crossed a process boundary.
    pub traffic: Vec<MsgRecord>,
}

/// A restored round checkpoint: everything a re-spawned worker needs to
/// resume at `round + 1` instead of round 1.
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

/// Who routes the round-1 input — which also fixes how many FINs close
/// round 1. The driver decides this; it is not a user setting.
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// An input router (a mesh job's submitter) routes every relation and
    /// sends each worker one round-1 FIN.
    Routed {
        /// Domain size of the input database.
        domain_size: u64,
    },
    /// No shared router exists: this worker routes the relations
    /// `ri ≡ id (mod p)` of the database itself, and every worker FINs.
    Sharded(&'a Database),
}

/// What [`WorkerCore::step`] needs next.
#[derive(Debug)]
pub enum Step {
    /// The current round is missing FINs: feed the core more packets
    /// ([`WorkerCore::accept`]) and step again.
    NeedInput,
    /// The round's deliveries are complete and its local computation ran.
    RoundDone(usize),
    /// The last round is done; the core must not be stepped again.
    Finished(WorkerSummary),
}

/// The block-building sink: every copy of an emitted row goes onto the
/// open block of its destination, and each block that fills is handed to
/// `ship`. A shipping failure stops the program's routing and is kept, to
/// be returned in place of the error the program passes on.
struct BlockSink<'f, F, E> {
    asm: BlockAssembler,
    p: usize,
    ship: &'f mut F,
    failed: Option<E>,
}

impl<F, E> RouteSink for BlockSink<'_, F, E>
where
    F: FnMut(usize, TupleBlock) -> std::result::Result<(), E>,
{
    fn emit(&mut self, tag: &str, row: &[Value], dests: &[usize]) -> Result<()> {
        let t = self.asm.intern(tag, row.len())?;
        for &dest in dests {
            if dest >= self.p {
                return Err(out_of_range(dest, self.p));
            }
            if let Some(block) = self.asm.append(t, dest, row) {
                if let Err(e) = (self.ship)(dest, block) {
                    self.failed = Some(e);
                    return Err(SimError::Aborted("a sealed block could not be shipped".into()));
                }
            }
        }
        Ok(())
    }
}

/// Run `route` against a block-building sink over `asm`, shipping full
/// blocks as they seal and the rest in the assembler's flush order — the
/// one route → seal → ship loop.
///
/// # Errors
///
/// A destination `≥ p` is a [`SimError::Program`], a second arity under
/// one tag a [`SimError::Storage`]; `ship`'s errors pass through.
fn route_blocks<E: From<SimError>>(
    asm: BlockAssembler,
    p: usize,
    mut ship: impl FnMut(usize, TupleBlock) -> std::result::Result<(), E>,
    route: impl FnOnce(&mut dyn RouteSink) -> Result<()>,
) -> std::result::Result<(), E> {
    let mut sink = BlockSink { asm, p, ship: &mut ship, failed: None };
    let routed = route(&mut sink);
    let BlockSink { mut asm, failed, .. } = sink;
    if let Some(e) = failed {
        return Err(e);
    }
    routed?;
    asm.flush().into_iter().try_for_each(|(dest, block)| ship(dest, block))
}

/// Route the input relations of `db` — all of them, or with
/// `shard = Some(id)` only those with `ri ≡ id (mod p)` — relation by
/// relation, one assembler per logical input server `p + ri`.
///
/// # Errors
///
/// Propagates routing errors and `emit`'s.
pub fn route_input<P: MpcProgram + ?Sized, E: From<SimError>>(
    program: &P,
    db: &Database,
    p: usize,
    shard: Option<usize>,
    pool: &Arc<BlockPool>,
    block_capacity: usize,
    mut emit: impl FnMut(usize, TupleBlock) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    for (ri, rel) in db.relations().enumerate() {
        if shard.is_some_and(|id| ri % p != id) {
            continue;
        }
        let asm = BlockAssembler::new(Arc::clone(pool), block_capacity, p + ri, 1);
        route_blocks(asm, p, &mut emit, |sink| program.route_input_into(rel, p, sink))?;
    }
    Ok(())
}

/// One server's side of the round protocol, as a state machine without
/// threads or I/O: packets go in through [`WorkerCore::accept`], blocks
/// and FINs come out through the [`Link`] handed to [`WorkerCore::step`].
///
/// `H` is how the core holds its program: `&P` for a scoped run,
/// `Arc<dyn MpcProgram + Send + Sync>` for a query that outlives its
/// submitter.
#[derive(Debug)]
pub struct WorkerCore<'a, H> {
    program: H,
    id: usize,
    p: usize,
    rounds: usize,
    input: Input<'a>,
    pool: Arc<BlockPool>,
    block_capacity: usize,
    state: ServerState,
    /// The last round entered (routed, FIN sent).
    round: usize,
    /// The last round whose local computation ran; `round` is this or the
    /// next.
    computed: usize,
    /// FIN markers seen per round (index `round - 1`). A round takes
    /// traffic while its count is short of [`WorkerCore::expected_fins`].
    fins: Vec<usize>,
    /// What arrived for each round (index `round - 1`), merged into the
    /// state when the round closes.
    stages: Vec<RoundStage>,
    traffic: Vec<MsgRecord>,
    scratch: Vec<Packet>,
}

impl<'a, H> WorkerCore<'a, H>
where
    H: Deref + Clone,
    H::Target: MpcProgram,
{
    /// The core of server `id` of `p`, about to enter round 1.
    ///
    /// # Errors
    ///
    /// Rejects a program that declares zero rounds.
    pub fn new(
        program: H,
        id: usize,
        p: usize,
        input: Input<'a>,
        pool: Arc<BlockPool>,
        block_capacity: usize,
    ) -> Result<Self> {
        let rounds = program.num_rounds();
        if rounds == 0 {
            return Err(SimError::Program("program declares zero rounds".to_string()));
        }
        let domain_size = match input {
            Input::Routed { domain_size } => domain_size,
            Input::Sharded(db) => db.domain_size(),
        };
        Ok(WorkerCore {
            program,
            id,
            p,
            rounds,
            input,
            pool,
            block_capacity,
            state: ServerState::new(id, domain_size),
            round: 0,
            computed: 0,
            fins: vec![0; rounds],
            stages: (0..rounds).map(|_| RoundStage::default()).collect(),
            traffic: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// Start from a checkpoint instead of round 1: the restored rounds
    /// count as computed and closed. Routing and computation are pure
    /// functions of the pre-round state, so the rounds after the
    /// checkpoint reproduce the original run's blocks and sequence
    /// numbers exactly.
    ///
    /// # Errors
    ///
    /// Fails on a checkpoint for a round the program does not have or
    /// with clashing relation arities.
    pub fn resume(mut self, point: RestorePoint) -> Result<Self> {
        if point.round > self.rounds {
            return Err(SimError::Protocol(format!(
                "checkpoint of round {} for a {}-round program",
                point.round, self.rounds
            )));
        }
        for rel in point.relations {
            self.state.merge_local(rel)?;
        }
        for (i, (&b, &t)) in point.per_round_bytes.iter().zip(&point.per_round_tuples).enumerate() {
            self.state.credit_received(i + 1, b, t);
        }
        for round in 1..=point.round {
            self.fins[round - 1] = self.expected_fins(round);
        }
        self.round = point.round;
        self.computed = point.round;
        Ok(self)
    }

    /// Everything this server knows so far.
    pub fn state(&self) -> &ServerState {
        &self.state
    }

    /// How many FINs close `round`: one behind an input router, `p` when
    /// every worker sends.
    fn expected_fins(&self, round: usize) -> usize {
        match (round, self.input) {
            (1, Input::Routed { .. }) => 1,
            _ => self.p,
        }
    }

    /// Refuse traffic for a round that does not exist or whose FINs are
    /// already complete.
    fn check_open(&self, round: usize, what: &str) -> Result<()> {
        if round == 0 || round > self.rounds {
            return Err(SimError::Protocol(format!(
                "worker {}: round-{round} {what} in a {}-round job",
                self.id, self.rounds
            )));
        }
        if self.fins[round - 1] >= self.expected_fins(round) {
            return Err(SimError::Protocol(format!(
                "worker {}: round-{round} {what} after that round closed (now in round {})",
                self.id, self.round
            )));
        }
        Ok(())
    }

    /// Ingest one packet. A block is appended to its round's stage —
    /// the round being received or one that raced ahead — and its buffer
    /// returns to the pool; the state itself changes only when a round
    /// closes ([`WorkerCore::step`]).
    ///
    /// # Errors
    ///
    /// See the module docs ("checked ingest"); [`Packet::Abort`] is
    /// [`SimError::Aborted`].
    pub fn accept(&mut self, pkt: Packet) -> Result<()> {
        match pkt {
            Packet::Block(block) => {
                self.check_open(block.round, "block")?;
                self.traffic.push(MsgRecord {
                    round: block.round,
                    from: block.from,
                    to: self.id,
                    seq: block.seq,
                    bytes: block.payload_bytes(),
                    tuples: block.len() as u64,
                });
                let ingested = self.stages[block.round - 1].absorb(&block);
                self.pool.give_back(block.into_columns());
                Ok(ingested?)
            }
            Packet::Fin { round } => {
                self.check_open(round, "FIN")?;
                self.fins[round - 1] += 1;
                Ok(())
            }
            Packet::Abort => Err(SimError::Aborted(format!("worker {}: a peer aborted", self.id))),
        }
    }

    /// [`WorkerCore::accept`] every packet of `batch`, leaving it empty.
    /// On an error the rest of the batch is dropped — the run is
    /// unwinding anyway.
    ///
    /// # Errors
    ///
    /// The first packet's error.
    pub fn accept_all(&mut self, batch: &mut Vec<Packet>) -> Result<()> {
        batch.drain(..).try_for_each(|pkt| self.accept(pkt))
    }

    /// Deliver one packet: into this core when it is ours, over the link
    /// otherwise — draining our own inbox whenever the link is full, the
    /// loop that makes bounded links deadlock-free.
    fn ship<L: Link + ?Sized>(&mut self, link: &mut L, dest: usize, mut pkt: Packet) -> Result<()> {
        if dest == self.id {
            return self.accept(pkt);
        }
        loop {
            match link.send(dest, pkt) {
                SendOutcome::Sent => return Ok(()),
                SendOutcome::Full(back) => {
                    pkt = back;
                    let mut batch = std::mem::take(&mut self.scratch);
                    link.try_recv(&mut batch);
                    let drained = self.accept_all(&mut batch);
                    self.scratch = batch;
                    drained?;
                }
                SendOutcome::Closed => {
                    return Err(SimError::Aborted(format!(
                        "worker {}: link to {dest} is closed",
                        self.id
                    )));
                }
            }
        }
    }

    /// Enter the next round: route (rounds ≥ 2 from the state the last
    /// round left), ship every block as it seals, and FIN.
    fn enter_round<L: Link + ?Sized>(&mut self, link: &mut L) -> Result<()> {
        let round = self.computed + 1;
        self.round = round;
        let (program, input, id, p) = (self.program.clone(), self.input, self.id, self.p);
        if let (1, Input::Routed { .. }) = (round, input) {
            return Ok(());
        }
        let (pool, capacity) = (Arc::clone(&self.pool), self.block_capacity);
        // Deliveries only reach stages, so the state the program routes
        // from moves aside while `ship` drains the inbox.
        let state = std::mem::replace(&mut self.state, ServerState::new(id, 0));
        let ship = |dest: usize, block| self.ship(link, dest, Packet::Block(block));
        let routed = match input {
            Input::Sharded(db) if round == 1 => {
                route_input(&*program, db, p, Some(id), &pool, capacity, ship)
            }
            _ => {
                let asm = BlockAssembler::new(pool, capacity, id, round);
                route_blocks(asm, p, ship, |sink| {
                    program.route_tuples_into(round, id, &state, sink)
                })
            }
        };
        self.state = state;
        routed?;
        (0..p).try_for_each(|dest| self.ship(link, dest, Packet::Fin { round }))
    }

    /// Advance as far as the packets accepted so far allow: enter the
    /// next round if the previous one is computed, then — once every FIN
    /// of the round is in — merge the round's stage into the state,
    /// settle it and run the local computation.
    ///
    /// # Errors
    ///
    /// Program errors, ingest errors met while draining mid-send or when
    /// the round's stage meets the state, and [`SimError::Aborted`] on a
    /// closed link.
    pub fn step<L: Link + ?Sized>(&mut self, link: &mut L) -> Result<Step> {
        if self.computed == self.rounds {
            let output = self.program.output(self.id, &self.state)?;
            let (per_round_bytes, per_round_tuples) = self.state.received_volumes(self.rounds);
            let traffic = std::mem::take(&mut self.traffic);
            return Ok(Step::Finished(WorkerSummary {
                output,
                per_round_bytes,
                per_round_tuples,
                traffic,
            }));
        }
        if self.round == self.computed {
            self.enter_round(link)?;
        }
        let round = self.round;
        if self.fins[round - 1] < self.expected_fins(round) {
            return Ok(Step::NeedInput);
        }
        let stage = std::mem::take(&mut self.stages[round - 1]);
        self.state.merge_stage(round, stage)?;
        self.state.settle()?;
        for rel in self.program.compute(round, self.id, &self.state)? {
            self.state.add_local(rel);
        }
        self.computed = round;
        Ok(Step::RoundDone(round))
    }
}

/// Run one core to completion over a blocking transport. A failing worker
/// tells its peers to unwind before the error is returned.
///
/// # Errors
///
/// The core's errors and the transport's.
pub fn drive<H, T>(
    core: &mut WorkerCore<'_, H>,
    transport: &mut T,
) -> std::result::Result<WorkerSummary, T::Error>
where
    H: Deref + Clone,
    H::Target: MpcProgram,
    T: Transport,
{
    let mut batch = Vec::new();
    let mut run = || loop {
        match core.step(transport)? {
            Step::NeedInput => {
                transport.recv(&mut batch)?;
                core.accept_all(&mut batch)?;
            }
            Step::RoundDone(round) => {
                transport.round_done(round, &core.state, round == core.rounds)?;
            }
            Step::Finished(summary) => return Ok(summary),
        }
    };
    let outcome = run();
    if outcome.is_err() {
        transport.abort();
    }
    outcome
}

/// The failure policy every runner of `p` workers shares. One job's
/// per-server reports, in server order, resolve to the summaries when
/// every server succeeded; else to the error of the lowest server that did
/// not merely unwind after another one failed (`unwound` is false for it:
/// the root cause); else to the first unwinding error.
///
/// # Errors
///
/// The chosen report's error.
pub fn resolve_reports<T, E>(
    reports: impl IntoIterator<Item = std::result::Result<T, E>>,
    unwound: impl Fn(&E) -> bool,
) -> std::result::Result<Vec<T>, E> {
    let (mut summaries, mut first_unwound) = (Vec::new(), None);
    for report in reports {
        match report {
            Ok(summary) => summaries.push(summary),
            Err(e) if unwound(&e) => first_unwound = first_unwound.or(Some(e)),
            Err(e) => return Err(e),
        }
    }
    first_unwound.map_or(Ok(summaries), Err)
}

/// Fold the workers' summaries (in server order) into the [`RunResult`]
/// every execution path agrees on — the same formulas as
/// [`Cluster::run`](crate::Cluster::run), applied to the volumes the
/// workers counted.
///
/// # Errors
///
/// Output-arity mismatches.
pub fn fold_summaries<P: MpcProgram + ?Sized>(
    config: &MpcConfig,
    program: &P,
    input_bytes: u64,
    summaries: Vec<WorkerSummary>,
) -> Result<RunResult> {
    let budget_bytes = config.budget_bytes(input_bytes);
    let volume = |per_round: &[u64], round: usize| per_round.get(round - 1).copied().unwrap_or(0);
    let mut rounds = Vec::with_capacity(program.num_rounds());
    for round in 1..=program.num_rounds() {
        let bytes: Vec<u64> = summaries.iter().map(|s| volume(&s.per_round_bytes, round)).collect();
        let tuples: Vec<u64> =
            summaries.iter().map(|s| volume(&s.per_round_tuples, round)).collect();
        rounds.push(build_round_stats(round, &bytes, &tuples, input_bytes, budget_bytes));
    }
    let (output, per_server_output) =
        union_outputs(program, summaries.into_iter().map(|s| s.output).collect())?;
    Ok(RunResult { output, rounds, per_server_output, input_bytes })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rounds` rounds of forwarding: the input relation `hop1` is hashed
    /// on its first column; entering round `r ≥ 2` every server sends each
    /// `hop{r-1}` tuple `t` to server `(t[0] + r) mod p` under `hop{r}`;
    /// the output is whatever arrived under the last tag.
    struct Relay {
        rounds: usize,
        p: usize,
    }

    impl MpcProgram for Relay {
        fn num_rounds(&self) -> usize {
            self.rounds
        }
        fn route_input_into(
            &self,
            relation: &Relation,
            p: usize,
            sink: &mut dyn RouteSink,
        ) -> Result<()> {
            relation.iter().try_for_each(|t| sink.emit(relation.name(), t, &[t[0] as usize % p]))
        }
        fn route_tuples_into(
            &self,
            round: usize,
            _: usize,
            state: &ServerState,
            sink: &mut dyn RouteSink,
        ) -> Result<()> {
            let Some(held) = state.relation(&format!("hop{}", round - 1)) else {
                return Ok(());
            };
            let tag = format!("hop{round}");
            held.iter().try_for_each(|t| sink.emit(&tag, t, &[(t[0] as usize + round) % self.p]))
        }
        fn output(&self, _: usize, state: &ServerState) -> Result<Relation> {
            Ok(state
                .relation(&format!("hop{}", self.rounds))
                .map_or_else(|| Relation::empty("out", 1), |rel| rel.with_name("out")))
        }
        fn output_arity(&self) -> usize {
            1
        }
    }

    /// A link that takes everything and delivers nothing, keeping a
    /// printable record of what was sent where.
    #[derive(Default)]
    struct Sink {
        sent: Vec<(usize, String)>,
    }

    impl Link for Sink {
        fn send(&mut self, dest: usize, pkt: Packet) -> SendOutcome {
            self.sent.push((dest, format!("{pkt:?}")));
            SendOutcome::Sent
        }
        fn try_recv(&mut self, _: &mut Vec<Packet>) {}
    }

    fn block(tag: &str, round: usize, from: usize, seq: u64, rows: &[Value]) -> Packet {
        let tag = Arc::from(tag);
        Packet::Block(TupleBlock::from_parts(tag, round, from, seq, 1, rows.len(), rows.to_vec()))
    }

    fn core(program: &Relay) -> WorkerCore<'static, &Relay> {
        let input = Input::Routed { domain_size: 100 };
        WorkerCore::new(program, 0, program.p, input, Arc::new(BlockPool::new()), 64).unwrap()
    }

    /// The first column under `tag`, sorted.
    fn rows(state: &ServerState, tag: &str) -> Vec<Value> {
        let mut rows: Vec<Value> =
            state.relation(tag).map(|rel| rel.iter().map(|t| t[0]).collect()).unwrap_or_default();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn a_round_closes_on_its_last_fin_not_its_first() {
        let (program, mut link) = (Relay { rounds: 2, p: 3 }, Sink::default());
        let mut core = core(&program);
        assert!(matches!(core.step(&mut link).unwrap(), Step::NeedInput));
        core.accept(block("hop1", 1, 3, 0, &[3, 6])).unwrap();
        core.accept(Packet::Fin { round: 1 }).unwrap();
        assert!(matches!(core.step(&mut link).unwrap(), Step::RoundDone(1)));
        // Entering round 2 forwards both tuples to server 2 and FINs the
        // two peers; our own FIN is counted without touching the link.
        assert!(matches!(core.step(&mut link).unwrap(), Step::NeedInput));
        let dests: Vec<usize> = link.sent.iter().map(|(dest, _)| *dest).collect();
        assert_eq!(dests, vec![2, 1, 2]);
        assert!(link.sent[0].1.contains("Block") && link.sent[2].1.contains("Fin"));
        // Peer 1 has nothing for us and FINs first; peer 2's block comes
        // after that FIN and still belongs to the round.
        core.accept(Packet::Fin { round: 2 }).unwrap();
        assert!(matches!(core.step(&mut link).unwrap(), Step::NeedInput));
        core.accept(block("hop2", 2, 2, 0, &[9])).unwrap();
        core.accept(Packet::Fin { round: 2 }).unwrap();
        assert!(matches!(core.step(&mut link).unwrap(), Step::RoundDone(2)));
        let Step::Finished(summary) = core.step(&mut link).unwrap() else { panic!("not done") };
        assert_eq!(summary.output.len(), 1);
        assert_eq!(summary.per_round_tuples, vec![2, 1]);
        assert_eq!(summary.per_round_bytes, vec![16, 8]);
        assert_eq!(summary.traffic.len(), 2);
    }

    #[test]
    fn blocks_that_race_ahead_merge_at_their_own_round_and_are_charged_to_it() {
        let (program, mut link) = (Relay { rounds: 3, p: 2 }, Sink::default());
        let mut core = core(&program);
        assert!(matches!(core.step(&mut link).unwrap(), Step::NeedInput));
        // Peer 1 is one and two rounds ahead of us.
        core.accept(block("hop2", 2, 1, 0, &[4])).unwrap();
        core.accept(block("hop3", 3, 1, 0, &[5, 7])).unwrap();
        core.accept(block("hop1", 1, 2, 0, &[2])).unwrap();
        core.accept(Packet::Fin { round: 1 }).unwrap();
        assert!(matches!(core.step(&mut link).unwrap(), Step::RoundDone(1)));
        assert_eq!(rows(core.state(), "hop1"), vec![2]);
        assert!(core.state().relation("hop2").is_none(), "round 2 is not visible in round 1");
        assert_eq!(core.state().tuples_received_in_round(2), 0);
        // Round 2 routes from hop1 alone: 2 → (2 + 2) mod 2 = us. Neither
        // that block nor the one that raced ahead is visible before the
        // round closes.
        assert!(matches!(core.step(&mut link).unwrap(), Step::NeedInput));
        assert!(core.state().relation("hop2").is_none(), "round 2 is still open");
        assert!(core.state().relation("hop3").is_none());
        core.accept(Packet::Fin { round: 2 }).unwrap();
        assert!(matches!(core.step(&mut link).unwrap(), Step::RoundDone(2)));
        assert_eq!(rows(core.state(), "hop2"), vec![2, 4]);
        // Round 3 forwards both hop2 tuples to peer 1.
        assert!(matches!(core.step(&mut link).unwrap(), Step::NeedInput));
        assert!(core.state().relation("hop3").is_none(), "round 3 is still open");
        core.accept(Packet::Fin { round: 3 }).unwrap();
        assert!(matches!(core.step(&mut link).unwrap(), Step::RoundDone(3)));
        assert_eq!(rows(core.state(), "hop3"), vec![5, 7]);
        let Step::Finished(summary) = core.step(&mut link).unwrap() else { panic!("not done") };
        assert_eq!(summary.per_round_tuples, vec![1, 2, 2]);
        assert_eq!(summary.per_round_bytes, vec![8, 16, 16]);
        assert_eq!(summary.output.len(), 2);
        let rounds: Vec<usize> = summary.traffic.iter().map(|m| m.round).collect();
        assert_eq!(rounds, vec![2, 3, 1, 2], "traffic is recorded in arrival order");
    }

    #[test]
    fn traffic_for_a_closed_or_missing_round_is_refused() {
        let (program, mut link) = (Relay { rounds: 2, p: 2 }, Sink::default());
        let mut core = core(&program);
        let refused = |outcome: Result<()>| matches!(outcome, Err(SimError::Protocol(_)));
        assert!(matches!(core.step(&mut link).unwrap(), Step::NeedInput));
        assert!(refused(core.accept(Packet::Fin { round: 0 })));
        assert!(refused(core.accept(Packet::Fin { round: 3 })));
        assert!(refused(core.accept(block("hop9", 9, 1, 0, &[1]))));
        core.accept(Packet::Fin { round: 1 }).unwrap();
        // The router's FIN closed round 1: one FIN too many, and a block
        // behind its sender's FIN, are both violations — before and after
        // the round's computation ran.
        assert!(refused(core.accept(Packet::Fin { round: 1 })));
        assert!(refused(core.accept(block("hop1", 1, 2, 1, &[1]))));
        assert!(matches!(core.step(&mut link).unwrap(), Step::RoundDone(1)));
        assert!(refused(core.accept(block("hop1", 1, 2, 1, &[1]))));
        // Round 2 takes p = 2 FINs (ours and peer 1's), not three.
        assert!(matches!(core.step(&mut link).unwrap(), Step::NeedInput));
        core.accept(Packet::Fin { round: 2 }).unwrap();
        assert!(refused(core.accept(Packet::Fin { round: 2 })));
        assert!(matches!(core.accept(Packet::Abort), Err(SimError::Aborted(_))));
    }

    #[test]
    fn a_second_arity_under_one_tag_is_an_error_live_and_staged() {
        let (program, mut link) = (Relay { rounds: 2, p: 2 }, Sink::default());
        let mut core = core(&program);
        assert!(matches!(core.step(&mut link).unwrap(), Step::NeedInput));
        let wide = |tag: &str, round| {
            Packet::Block(TupleBlock::from_parts(Arc::from(tag), round, 1, 1, 2, 1, vec![1, 2]))
        };
        // Against a block staged earlier, for the round being received and
        // for one ahead of it: refused on arrival.
        for round in [1, 2] {
            let tag = format!("hop{round}");
            core.accept(block(&tag, round, 1, 0, &[1])).unwrap();
            assert!(matches!(core.accept(wide(&tag, round)), Err(SimError::Storage(_))), "{round}");
        }
        // Against the state (hop1 holds one column since round 1 closed):
        // staged, then refused when round 2 closes.
        core.accept(Packet::Fin { round: 1 }).unwrap();
        assert!(matches!(core.step(&mut link).unwrap(), Step::RoundDone(1)));
        core.accept(wide("hop1", 2)).unwrap();
        assert!(matches!(core.step(&mut link).unwrap(), Step::NeedInput));
        core.accept(Packet::Fin { round: 2 }).unwrap();
        assert!(matches!(core.step(&mut link), Err(SimError::Storage(_))));
    }

    #[test]
    fn resuming_from_a_checkpoint_equals_running_the_rounds_before_it() {
        let program = Relay { rounds: 3, p: 2 };
        let later = || {
            vec![
                block("hop2", 2, 1, 0, &[8]),
                Packet::Fin { round: 2 },
                block("hop3", 3, 1, 0, &[11]),
                Packet::Fin { round: 3 },
            ]
        };
        // The whole job, with a checkpoint cut after round 1.
        let (mut full, mut full_link) = (core(&program), Sink::default());
        assert!(matches!(full.step(&mut full_link).unwrap(), Step::NeedInput));
        full.accept(block("hop1", 1, 2, 0, &[2, 3, 4])).unwrap();
        full.accept(Packet::Fin { round: 1 }).unwrap();
        assert!(matches!(full.step(&mut full_link).unwrap(), Step::RoundDone(1)));
        let (per_round_bytes, per_round_tuples) = full.state().received_volumes(1);
        let point = RestorePoint {
            round: 1,
            relations: full.state().relations().cloned().collect(),
            per_round_bytes,
            per_round_tuples,
        };
        let finish = |core: &mut WorkerCore<'static, &Relay>, link: &mut Sink| {
            let mut later = later().into_iter();
            loop {
                match core.step(link).unwrap() {
                    Step::NeedInput => core.accept(later.next().expect("script")).unwrap(),
                    Step::RoundDone(_) => {}
                    Step::Finished(summary) => return summary,
                }
            }
        };
        let sent_before = full_link.sent.len();
        let whole = finish(&mut full, &mut full_link);

        let (mut resumed, mut resumed_link) =
            (core(&program).resume(point).unwrap(), Sink::default());
        assert!(matches!(resumed.accept(Packet::Fin { round: 1 }), Err(SimError::Protocol(_))));
        let rest = finish(&mut resumed, &mut resumed_link);
        assert_eq!(rest.output, whole.output);
        assert_eq!(rest.per_round_bytes, whole.per_round_bytes);
        assert_eq!(rest.per_round_tuples, whole.per_round_tuples);
        assert_eq!(resumed_link.sent, full_link.sent[sent_before..], "same blocks, same seqs");
        assert!(!resumed_link.sent.is_empty());
    }

    #[test]
    fn folding_checks_the_budget_after_the_fact() {
        let program = Relay { rounds: 1, p: 2 };
        let summary = |tuples: u64| WorkerSummary {
            output: Relation::empty("out", 1),
            per_round_bytes: vec![tuples * 8],
            per_round_tuples: vec![tuples],
            traffic: Vec::new(),
        };
        let config = MpcConfig::new(2, 0.0);
        let run = fold_summaries(&config, &program, 80, vec![summary(11), summary(1)]).unwrap();
        assert_eq!((run.rounds[0].max_bytes_received, run.rounds[0].exceeds_budget), (88, true));
        assert_eq!(run.input_bytes, 80);
    }

    #[test]
    fn the_lowest_root_cause_wins_over_unwinding_errors() {
        let unwound = |e: &SimError| matches!(e, SimError::Aborted(_));
        let aborted = SimError::Aborted("a peer aborted".into());
        let failed = |server: usize| SimError::Program(format!("server {server} failed"));
        assert_eq!(resolve_reports([Ok(0), Ok(1)], unwound), Ok(vec![0, 1]));
        let reports = [Err(aborted.clone()), Ok(1), Err(failed(2)), Err(failed(3))];
        assert_eq!(resolve_reports(reports, unwound), Err(failed(2)));
        assert_eq!(resolve_reports([Ok(0), Err(aborted.clone())], unwound), Err(aborted));
    }
}
