//! A multi-query front-end over one shared cluster of reactor workers.
//!
//! [`QueryService`] accepts a stream of parsed conjunctive queries,
//! analyses each ([`mpc_core::analysis::QueryAnalysis`], cache-hot via
//! `mpc_lp`'s global LP cache), admits it against a per-server byte
//! budget, and executes many queries **concurrently** over the same `p`
//! reactor threads. Multiplexing rides on per-query namespaces in the
//! message tags: a block for query 17 whose program tag is `"hc"`
//! travels as `"17#hc"`, and the receiving reactor splits the prefix off
//! to find the right per-query protocol state. Tag bytes never enter the
//! volume accounting (a message costs `tuples × arity × 8`), so each
//! query's per-round statistics are identical to a dedicated
//! [`mpc_sim::Cluster::run`] of the same program — the multiplexing
//! differential the tests pin down.
//!
//! Per query the protocol is the event-driven one ([`crate::runner`]):
//! the front-end routes all input itself (preserving the logical input
//! server ids `p + ri`), so round 1 expects exactly one FIN per worker;
//! from round 2 on every worker routes and FINs, so a round completes
//! after `p` FINs. There is deliberately **no** cross-query barrier —
//! queries in different rounds interleave freely on the reactors.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpc_core::analysis::QueryAnalysis;
use mpc_core::multiround::executor::PlanProgram;
use mpc_core::multiround::planner::MultiRoundPlan;
use mpc_cq::Query;
use mpc_lp::Rational;
use mpc_sim::queue::{Inbox, InboxReceiver, LinkSender, SendAttempt};
use mpc_sim::{
    build_round_stats, union_outputs, BlockAssembler, BlockPool, MpcConfig, MpcProgram, RoundStage,
    RoundStats, ServerState, TupleBlock,
};
use mpc_storage::{Database, Relation};

use crate::{NetError, Result};

/// How long a reactor parks on a full peer lane before draining its own
/// inbox and retrying.
const REACTOR_POLL: Duration = Duration::from_micros(200);

/// How long the front-end parks on a full worker lane.
const FRONTEND_POLL: Duration = Duration::from_micros(500);

/// Service shape and admission policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Number of shared reactor workers (the cluster's `p`).
    pub p: usize,
    /// The space exponent ε of the per-query budget formula.
    pub epsilon: f64,
    /// Per-link lane capacity of the reactor inboxes, in packets.
    pub queue_capacity: usize,
    /// Tuples per columnar block.
    pub block_capacity: usize,
    /// Admission capacity: the sum of admitted per-query budgets
    /// (`budget_bytes(N)` each) may not exceed this. A query larger than
    /// the whole capacity is admitted only when the service is idle.
    pub admission_capacity_bytes: u64,
    /// How many queries may wait in the deferral queue when the
    /// admission budget is exhausted. A submission past this depth is
    /// rejected outright ([`crate::NetError::Rejected`]) instead of
    /// queueing without bound.
    pub deferral_depth: usize,
}

impl ServiceConfig {
    /// A default-shaped service over `p` workers at space exponent ε.
    pub fn new(p: usize, epsilon: f64) -> Self {
        ServiceConfig {
            p,
            epsilon,
            queue_capacity: 64,
            block_capacity: 256,
            admission_capacity_bytes: 64 << 20,
            deferral_depth: 16,
        }
    }
}

/// One query submitted to the service.
pub struct QueryJob {
    /// The parsed conjunctive query.
    pub query: Query,
    /// Its input database (shared, never copied per worker).
    pub db: Arc<Database>,
    /// Routing seed.
    pub seed: u64,
    /// `Some(ε)` runs the multi-round `Γ^r_ε` plan executor; `None` runs
    /// one-round HyperCube.
    pub plan_epsilon: Option<Rational>,
}

/// What the service reports when a query finishes.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The service-assigned query id.
    pub qid: u64,
    /// The deduplicated output relation.
    pub output: Relation,
    /// Per-round statistics, identical to a dedicated run's.
    pub rounds: Vec<RoundStats>,
    /// Each server's pre-deduplication output contribution.
    pub per_server_output: Vec<usize>,
    /// Which LP solver path the analysis took (`"cache-hit"` when hot).
    pub analysis_path: String,
    /// Whether the analysis was served entirely from the LP cache.
    pub cache_hot: bool,
    /// Time spent in analysis + planning, before admission.
    pub planning_micros: u64,
    /// Submit-to-completion latency (includes admission queueing).
    pub latency_micros: u64,
    /// The admission cost charged while the query was in flight.
    pub admitted_cost: u64,
    /// How the admission gate treated the query at submit time
    /// (immediate admission or deferral).
    pub admission: Admission,
}

/// How a submission got past the admission gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The query's budget fit the free capacity; it launched immediately.
    Admitted,
    /// The budget did not fit: the query joined the bounded deferral
    /// queue at this 0-based position and launches, in FIFO order, as
    /// running queries drain.
    Deferred {
        /// Queries ahead of this one in the deferral queue at submit
        /// time.
        position: usize,
    },
}

/// A successful [`QueryService::submit`]: the assigned query id plus how
/// the admission gate treated it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// The service-assigned query id.
    pub qid: u64,
    /// Immediate admission or deferral.
    pub admission: Admission,
}

/// The admission gate: a counting budget over admitted query costs.
#[derive(Debug)]
struct AdmissionGate {
    inflight: Mutex<u64>,
    capacity: u64,
}

impl AdmissionGate {
    fn new(capacity: u64) -> Self {
        AdmissionGate { inflight: Mutex::new(0), capacity }
    }

    /// Charge `cost` if it fits (an oversized query is admitted alone);
    /// never blocks — a refusal sends the query to the deferral queue.
    fn try_admit(&self, cost: u64) -> bool {
        let mut inflight = self.inflight.lock().expect("admission mutex poisoned");
        if *inflight > 0 && *inflight + cost > self.capacity {
            return false;
        }
        *inflight += cost;
        true
    }

    fn release(&self, cost: u64) {
        let mut inflight = self.inflight.lock().expect("admission mutex poisoned");
        *inflight = inflight.saturating_sub(cost);
    }
}

/// A packet on the service fabric. Reactor lanes `0..p` carry peer
/// traffic; lane `p` is the front-end's.
enum SvcPacket {
    /// A query starts: create its per-worker protocol state.
    Start { qid: u64, program: Arc<dyn MpcProgram + Send + Sync>, domain_size: u64, rounds: usize },
    /// A columnar batch, tag-namespaced as `"qid#tag"`.
    Block(TupleBlock),
    /// The sender finished `round` of query `qid`.
    Fin { qid: u64, round: usize },
    /// Tear the reactor down.
    Shutdown,
}

/// Split a namespaced tag into the query id and the offset of the raw
/// program tag.
fn split_tag(tag: &str) -> Result<(u64, usize)> {
    let Some(hash) = tag.find('#') else {
        return Err(NetError::Protocol(format!("block tag {tag:?} has no query namespace")));
    };
    let qid = tag[..hash]
        .parse()
        .map_err(|_| NetError::Protocol(format!("bad query id in tag {tag:?}")))?;
    Ok((qid, hash + 1))
}

/// One query's protocol state on one reactor.
struct QueryState {
    program: Arc<dyn MpcProgram + Send + Sync>,
    state: ServerState,
    round: usize,
    total_rounds: usize,
    fins: Vec<usize>,
    /// Future-round stages, under namespace-stripped tags.
    stash: Vec<RoundStage>,
}

/// One reactor's end-of-query report.
struct WorkerDone {
    server: usize,
    output: Relation,
    per_round_bytes: Vec<u64>,
    per_round_tuples: Vec<u64>,
}

/// Reactor/front-end → collector messages.
enum CollectorMsg {
    Meta(u64, QueryMeta),
    Done(u64, WorkerDone),
    Failed { qid: u64, server: usize, error: String },
    Fatal(String),
}

/// Everything the collector needs to assemble a query's outcome.
struct QueryMeta {
    program: Arc<dyn MpcProgram + Send + Sync>,
    input_bytes: u64,
    budget_bytes: u64,
    total_rounds: usize,
    started: Instant,
    planning_micros: u64,
    analysis_path: String,
    cache_hot: bool,
    admitted_cost: u64,
    admission: Admission,
}

/// A fully analysed and planned query waiting on the admission gate:
/// everything [`QueryService`] needs to launch it later, in FIFO order.
struct PreparedQuery {
    qid: u64,
    program: Arc<dyn MpcProgram + Send + Sync>,
    db: Arc<Database>,
    domain_size: u64,
    total_rounds: usize,
    cost: u64,
    meta: QueryMeta,
}

/// One of the `p` shared worker threads.
struct Reactor {
    id: usize,
    p: usize,
    rx: InboxReceiver<SvcPacket>,
    /// `peers[dest]` is this reactor's lane into `dest`'s inbox.
    peers: Vec<LinkSender<SvcPacket>>,
    queries: HashMap<u64, QueryState>,
    /// Packets that raced ahead of their query's `Start`.
    pending: HashMap<u64, Vec<SvcPacket>>,
    dirty: Vec<u64>,
    done_tx: mpsc::Sender<CollectorMsg>,
    pool: Arc<BlockPool>,
    block_capacity: usize,
    scratch: Vec<SvcPacket>,
}

impl Reactor {
    fn run(mut self) {
        let mut buf = Vec::new();
        loop {
            let n = self.rx.recv_many(&mut buf);
            if n == 0 {
                return;
            }
            for pkt in buf.drain(..) {
                if matches!(pkt, SvcPacket::Shutdown) {
                    return;
                }
                if let Err(e) = self.process(pkt) {
                    let _ =
                        self.done_tx.send(CollectorMsg::Fatal(format!("reactor {}: {e}", self.id)));
                    return;
                }
            }
            while let Some(qid) = self.dirty.pop() {
                if let Err(e) = self.advance(qid) {
                    let _ =
                        self.done_tx.send(CollectorMsg::Fatal(format!("reactor {}: {e}", self.id)));
                    return;
                }
            }
        }
    }

    /// Apply one packet to the per-query state. Only FINs (and the
    /// replays a `Start` triggers) can complete a round, so only they
    /// mark the query dirty.
    fn process(&mut self, pkt: SvcPacket) -> Result<()> {
        match pkt {
            SvcPacket::Start { qid, program, domain_size, rounds } => {
                let qs = QueryState {
                    program,
                    state: ServerState::new(self.id, domain_size),
                    round: 1,
                    total_rounds: rounds,
                    fins: vec![0; rounds],
                    stash: (0..rounds).map(|_| RoundStage::default()).collect(),
                };
                self.queries.insert(qid, qs);
                if let Some(raced) = self.pending.remove(&qid) {
                    for pkt in raced {
                        self.process(pkt)?;
                    }
                }
                Ok(())
            }
            SvcPacket::Block(block) => {
                let (qid, raw_at) = split_tag(&block.tag)?;
                match self.queries.get_mut(&qid) {
                    Some(qs) => absorb(qs, raw_at, block, &self.pool),
                    None => {
                        self.pending.entry(qid).or_default().push(SvcPacket::Block(block));
                        Ok(())
                    }
                }
            }
            SvcPacket::Fin { qid, round } => match self.queries.get_mut(&qid) {
                Some(qs) => {
                    if round == 0 || round > qs.total_rounds {
                        return Err(NetError::Protocol(format!(
                            "query {qid}: FIN for invalid round {round}"
                        )));
                    }
                    qs.fins[round - 1] += 1;
                    self.dirty.push(qid);
                    Ok(())
                }
                None => {
                    self.pending.entry(qid).or_default().push(SvcPacket::Fin { qid, round });
                    Ok(())
                }
            },
            SvcPacket::Shutdown => Err(NetError::Protocol("shutdown mid-advance".to_string())),
        }
    }

    /// Drive `qid` through as many rounds as its FIN counts allow.
    fn advance(&mut self, qid: u64) -> Result<()> {
        let Some(mut qs) = self.queries.remove(&qid) else { return Ok(()) };
        loop {
            let expected = if qs.round == 1 { 1 } else { self.p };
            if qs.fins[qs.round - 1] < expected {
                self.queries.insert(qid, qs);
                return Ok(());
            }
            // The round's deliveries are complete: unbounded local compute.
            let computed = match qs.program.compute(qs.round, self.id, &qs.state) {
                Ok(rels) => rels,
                Err(e) => return self.fail_query(qid, &e.to_string()),
            };
            for rel in computed {
                qs.state.add_local(rel);
            }
            if qs.round == qs.total_rounds {
                let output = match qs.program.output(self.id, &qs.state) {
                    Ok(rel) => rel,
                    Err(e) => return self.fail_query(qid, &e.to_string()),
                };
                let done = WorkerDone {
                    server: self.id,
                    output,
                    per_round_bytes: (1..=qs.total_rounds)
                        .map(|r| qs.state.bytes_received_in_round(r))
                        .collect(),
                    per_round_tuples: (1..=qs.total_rounds)
                        .map(|r| qs.state.tuples_received_in_round(r))
                        .collect(),
                };
                let _ = self.done_tx.send(CollectorMsg::Done(qid, done));
                return Ok(());
            }
            qs.round += 1;
            let round = qs.round;
            // Route from the pre-delivery state — the tuple-based model.
            let routed = match qs.program.route_tuples(round, self.id, &qs.state) {
                Ok(routed) => routed,
                Err(e) => return self.fail_query(qid, &e.to_string()),
            };
            let mut asm =
                BlockAssembler::new(Arc::clone(&self.pool), self.block_capacity, self.id, round);
            let mut ns_tags: HashMap<String, String> = HashMap::new();
            for msg in routed {
                let tag = ns_tags
                    .entry(msg.tag.clone())
                    .or_insert_with(|| format!("{qid}#{}", msg.tag))
                    .clone();
                for &dest in &msg.destinations {
                    if dest >= self.p {
                        return self.fail_query(
                            qid,
                            &format!("destination {dest} out of range for p = {}", self.p),
                        );
                    }
                    if let Some(block) = asm.push(dest, &tag, msg.tuple.values()) {
                        self.ship(qid, &mut qs, dest, block)?;
                    }
                }
            }
            for (dest, block) in asm.flush() {
                self.ship(qid, &mut qs, dest, block)?;
            }
            for dest in 0..self.p {
                if dest == self.id {
                    qs.fins[round - 1] += 1;
                } else {
                    self.ship_pkt(qid, &mut qs, dest, SvcPacket::Fin { qid, round })?;
                }
            }
            // Merge the pre-hashed stage for this round, charging its
            // volume exactly as a live delivery would have.
            let stage = std::mem::take(&mut qs.stash[round - 1]);
            if let Err(e) = qs.state.merge_stage(round, stage) {
                return self.fail_query(qid, &e.to_string());
            }
        }
    }

    /// Report a per-query failure and drop its local state; the reactor
    /// itself keeps serving other queries.
    fn fail_query(&mut self, qid: u64, error: &str) -> Result<()> {
        let _ = self.done_tx.send(CollectorMsg::Failed {
            qid,
            server: self.id,
            error: error.to_string(),
        });
        Ok(())
    }

    /// Deliver a block of the in-flight query: locally when it is ours.
    fn ship(
        &mut self,
        qid: u64,
        qs: &mut QueryState,
        dest: usize,
        block: TupleBlock,
    ) -> Result<()> {
        if dest == self.id {
            let (bqid, raw_at) = split_tag(&block.tag)?;
            debug_assert_eq!(bqid, qid, "self-delivery of a foreign query's block");
            absorb(qs, raw_at, block, &self.pool)
        } else {
            self.ship_pkt(qid, qs, dest, SvcPacket::Block(block))
        }
    }

    /// Send to a peer, draining our own inbox whenever the lane is full —
    /// the deadlock-free send loop. Packets for the in-flight query are
    /// applied to `qs` directly; everything else goes through
    /// [`Reactor::process`].
    fn ship_pkt(
        &mut self,
        qid: u64,
        qs: &mut QueryState,
        dest: usize,
        mut pkt: SvcPacket,
    ) -> Result<()> {
        loop {
            match self.peers[dest].send_timeout(pkt, REACTOR_POLL) {
                SendAttempt::Sent => return Ok(()),
                SendAttempt::Full(back) => {
                    pkt = back;
                    let mut tmp = std::mem::take(&mut self.scratch);
                    self.rx.try_recv_many(&mut tmp);
                    let res = tmp.drain(..).try_for_each(|other| self.inflight(qid, qs, other));
                    self.scratch = tmp;
                    res?;
                }
                SendAttempt::Closed(_) => {
                    return Err(NetError::Protocol(format!(
                        "reactor {}: lane to {dest} closed mid-query",
                        self.id
                    )));
                }
            }
        }
    }

    /// Handle a packet drained mid-send, routing the in-flight query's
    /// own traffic straight into `qs`.
    fn inflight(&mut self, qid: u64, qs: &mut QueryState, pkt: SvcPacket) -> Result<()> {
        match pkt {
            SvcPacket::Block(block) => {
                let (bqid, raw_at) = split_tag(&block.tag)?;
                if bqid == qid {
                    absorb(qs, raw_at, block, &self.pool)
                } else {
                    self.process(SvcPacket::Block(block))
                }
            }
            SvcPacket::Fin { qid: fqid, round } if fqid == qid => {
                if round == 0 || round > qs.total_rounds {
                    return Err(NetError::Protocol(format!(
                        "query {qid}: FIN for invalid round {round}"
                    )));
                }
                qs.fins[round - 1] += 1;
                Ok(())
            }
            SvcPacket::Shutdown => {
                Err(NetError::Protocol("service shut down mid-query".to_string()))
            }
            other => self.process(other),
        }
    }
}

/// Apply one block to a query's state: current round → live delivery,
/// future round → stash; the columns go back to the pool either way.
fn absorb(qs: &mut QueryState, raw_at: usize, block: TupleBlock, pool: &BlockPool) -> Result<()> {
    let tag = &block.tag[raw_at..];
    let ingested = if block.round == qs.round {
        qs.state.receive_block(block.round, tag, &block)
    } else if block.round > qs.round && block.round <= qs.total_rounds {
        qs.stash[block.round - 1].absorb(tag, &block)
    } else {
        return Err(NetError::Protocol(format!(
            "round-{} block arrived while the query is in round {}",
            block.round, qs.round
        )));
    };
    pool.give_back(block.into_columns());
    Ok(ingested?)
}

/// The collector: folds per-reactor reports into [`QueryOutcome`]s and
/// releases admission budget as queries drain.
fn collector_run(
    p: usize,
    rx: mpsc::Receiver<CollectorMsg>,
    tx: mpsc::Sender<Result<QueryOutcome>>,
    admission: Arc<AdmissionGate>,
) {
    let mut meta: HashMap<u64, QueryMeta> = HashMap::new();
    let mut parts: HashMap<u64, Vec<Option<WorkerDone>>> = HashMap::new();
    let mut failed: HashSet<u64> = HashSet::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            CollectorMsg::Meta(qid, m) => {
                meta.insert(qid, m);
            }
            CollectorMsg::Done(qid, done) => {
                if failed.contains(&qid) {
                    continue;
                }
                let entry = parts.entry(qid).or_insert_with(|| (0..p).map(|_| None).collect());
                let server = done.server;
                entry[server] = Some(done);
                if entry.iter().all(Option::is_some) {
                    let dones = parts.remove(&qid).expect("entry just checked");
                    let Some(m) = meta.remove(&qid) else {
                        let _ = tx.send(Err(NetError::Protocol(format!(
                            "query {qid} finished without metadata"
                        ))));
                        continue;
                    };
                    admission.release(m.admitted_cost);
                    let _ = tx.send(assemble_outcome(qid, m, dones));
                }
            }
            CollectorMsg::Failed { qid, server, error } => {
                if failed.insert(qid) {
                    parts.remove(&qid);
                    if let Some(m) = meta.remove(&qid) {
                        admission.release(m.admitted_cost);
                    }
                    let _ = tx.send(Err(NetError::Protocol(format!(
                        "query {qid} failed at server {server}: {error}"
                    ))));
                }
            }
            CollectorMsg::Fatal(msg) => {
                let _ = tx.send(Err(NetError::Protocol(msg)));
                return;
            }
        }
    }
}

fn assemble_outcome(
    qid: u64,
    m: QueryMeta,
    dones: Vec<Option<WorkerDone>>,
) -> Result<QueryOutcome> {
    let dones: Vec<WorkerDone> =
        dones.into_iter().map(|d| d.expect("all parts collected")).collect();
    let mut rounds = Vec::with_capacity(m.total_rounds);
    for round in 1..=m.total_rounds {
        let per_bytes: Vec<u64> =
            dones.iter().map(|d| d.per_round_bytes.get(round - 1).copied().unwrap_or(0)).collect();
        let per_tuples: Vec<u64> =
            dones.iter().map(|d| d.per_round_tuples.get(round - 1).copied().unwrap_or(0)).collect();
        rounds.push(build_round_stats(
            round,
            &per_bytes,
            &per_tuples,
            m.input_bytes,
            m.budget_bytes,
        ));
    }
    let (output, per_server_output) =
        union_outputs(m.program.as_ref(), dones.into_iter().map(|d| d.output).collect())
            .map_err(NetError::Sim)?;
    Ok(QueryOutcome {
        qid,
        output,
        rounds,
        per_server_output,
        analysis_path: m.analysis_path,
        cache_hot: m.cache_hot,
        planning_micros: m.planning_micros,
        latency_micros: m.started.elapsed().as_micros() as u64,
        admitted_cost: m.admitted_cost,
        admission: m.admission,
    })
}

/// The multi-query front-end. See the module docs for the execution
/// model; the intended life cycle is `start` → interleaved `submit` /
/// `next_outcome` → `shutdown`.
pub struct QueryService {
    config: MpcConfig,
    /// `frontend_lanes[w]` is the front-end's lane (index `p`) into
    /// worker `w`'s inbox.
    frontend_lanes: Vec<LinkSender<SvcPacket>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    collector: Option<std::thread::JoinHandle<()>>,
    collector_tx: Option<mpsc::Sender<CollectorMsg>>,
    outcome_rx: mpsc::Receiver<Result<QueryOutcome>>,
    admission: Arc<AdmissionGate>,
    /// Queries the gate could not admit yet, launched FIFO as capacity
    /// frees up (drained on every `submit` and `next_outcome`).
    deferred: VecDeque<PreparedQuery>,
    deferral_depth: usize,
    pool: Arc<BlockPool>,
    block_capacity: usize,
    next_qid: u64,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService").field("p", &self.config.p).finish_non_exhaustive()
    }
}

impl QueryService {
    /// Start the shared cluster: `p` reactor threads plus a collector.
    ///
    /// # Errors
    ///
    /// Fails on an invalid cluster shape.
    pub fn start(cfg: &ServiceConfig) -> Result<QueryService> {
        let config = MpcConfig::new(cfg.p, cfg.epsilon);
        // Validate the shape through the simulator's own constructor.
        mpc_sim::Cluster::new(config.clone()).map_err(NetError::Sim)?;
        let p = cfg.p;
        let pool = Arc::new(BlockPool::new());
        let (done_tx, done_rx) = mpsc::channel();
        let (outcome_tx, outcome_rx) = mpsc::channel();
        let admission = Arc::new(AdmissionGate::new(cfg.admission_capacity_bytes));
        let mut lane_senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            // Lanes 0..p are peers, lane p is the front-end.
            let (senders, rx) = Inbox::channel::<SvcPacket>(p + 1, cfg.queue_capacity);
            lane_senders.push(senders);
            receivers.push(rx);
        }
        let workers: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(id, rx)| {
                let reactor = Reactor {
                    id,
                    p,
                    rx,
                    peers: (0..p).map(|dest| lane_senders[dest][id].clone()).collect(),
                    queries: HashMap::new(),
                    pending: HashMap::new(),
                    dirty: Vec::new(),
                    done_tx: done_tx.clone(),
                    pool: Arc::clone(&pool),
                    block_capacity: cfg.block_capacity,
                    scratch: Vec::new(),
                };
                std::thread::spawn(move || reactor.run())
            })
            .collect();
        let collector = {
            let admission = Arc::clone(&admission);
            std::thread::spawn(move || collector_run(p, done_rx, outcome_tx, admission))
        };
        let frontend_lanes = lane_senders.iter().map(|senders| senders[p].clone()).collect();
        Ok(QueryService {
            config,
            frontend_lanes,
            workers,
            collector: Some(collector),
            collector_tx: Some(done_tx),
            outcome_rx,
            admission,
            deferred: VecDeque::new(),
            deferral_depth: cfg.deferral_depth,
            pool,
            block_capacity: cfg.block_capacity,
            next_qid: 0,
        })
    }

    /// Analyse and launch one query; returns its id and how the
    /// admission gate treated it. When the admission budget is
    /// exhausted the call never blocks: the query joins a bounded FIFO
    /// deferral queue ([`Admission::Deferred`]) and launches as running
    /// queries drain. The call returns as soon as the query's input is
    /// fully injected (or deferred) — completion arrives via
    /// [`QueryService::next_outcome`], in completion order.
    ///
    /// # Errors
    ///
    /// Fails on analysis/planning errors, on a torn-down service, and
    /// with [`NetError::Rejected`] when the deferral queue is already
    /// [`ServiceConfig::deferral_depth`] deep.
    pub fn submit(&mut self, job: &QueryJob) -> Result<Submission> {
        self.drain_deferred()?;
        let mut prepared = self.prepare(job)?;
        let qid = prepared.qid;
        // FIFO fairness: a newcomer may not jump past queued queries
        // even when its own budget would fit right now.
        if self.deferred.is_empty() && self.admission.try_admit(prepared.cost) {
            self.launch(prepared)?;
            return Ok(Submission { qid, admission: Admission::Admitted });
        }
        if self.deferred.len() >= self.deferral_depth {
            return Err(NetError::Rejected(format!(
                "admission deferral queue is full ({} queries deep)",
                self.deferred.len()
            )));
        }
        let admission = Admission::Deferred { position: self.deferred.len() };
        prepared.meta.admission = admission;
        self.deferred.push_back(prepared);
        Ok(Submission { qid, admission })
    }

    /// Launch every deferred query whose budget now fits, oldest first.
    fn drain_deferred(&mut self) -> Result<()> {
        while let Some(front) = self.deferred.front() {
            if !self.admission.try_admit(front.cost) {
                return Ok(());
            }
            let prepared = self.deferred.pop_front().expect("front just checked");
            self.launch(prepared)?;
        }
        Ok(())
    }

    /// Analysis + planning: everything up to (but not including) the
    /// admission decision.
    fn prepare(&mut self, job: &QueryJob) -> Result<PreparedQuery> {
        let started = Instant::now();
        let analysis = QueryAnalysis::analyze(&job.query)
            .map_err(|e| NetError::Protocol(format!("analysis: {e}")))?;
        let p = self.config.p;
        let program: Arc<dyn MpcProgram + Send + Sync> = match job.plan_epsilon {
            Some(eps) => {
                let plan = MultiRoundPlan::build(&job.query, eps)
                    .map_err(|e| NetError::Protocol(format!("plan: {e}")))?;
                Arc::new(
                    PlanProgram::new(&plan, p, job.seed)
                        .map_err(|e| NetError::Protocol(format!("plan program: {e}")))?,
                )
            }
            None => Arc::new(
                mpc_core::hypercube::HyperCubeProgram::new(&job.query, p, job.seed)
                    .map_err(|e| NetError::Protocol(format!("hypercube: {e}")))?,
            ),
        };
        let total_rounds = program.num_rounds();
        if total_rounds == 0 {
            return Err(NetError::Protocol("program declares zero rounds".to_string()));
        }
        let planning_micros = started.elapsed().as_micros() as u64;
        let input_bytes = job.db.total_bytes();
        let budget_bytes = self.config.budget_bytes(input_bytes);
        let qid = self.next_qid;
        self.next_qid += 1;
        let meta = QueryMeta {
            program: Arc::clone(&program),
            input_bytes,
            budget_bytes,
            total_rounds,
            started,
            planning_micros,
            analysis_path: analysis.lp_solver_path.clone(),
            cache_hot: analysis.lp_solver_path == "cache-hit",
            admitted_cost: budget_bytes,
            admission: Admission::Admitted,
        };
        Ok(PreparedQuery {
            qid,
            program,
            db: Arc::clone(&job.db),
            domain_size: job.db.domain_size(),
            total_rounds,
            cost: budget_bytes,
            meta,
        })
    }

    /// Inject a prepared (and already admission-charged) query into the
    /// reactors: metadata to the collector, a `Start` to every worker,
    /// then the routed input and the round-1 FINs.
    fn launch(&mut self, prepared: PreparedQuery) -> Result<()> {
        let PreparedQuery { qid, program, db, domain_size, total_rounds, cost: _, meta } = prepared;
        let p = self.config.p;
        let send_meta = self
            .collector_tx
            .as_ref()
            .ok_or_else(|| NetError::Protocol("service is shut down".to_string()))?
            .send(CollectorMsg::Meta(qid, meta));
        if send_meta.is_err() {
            return Err(NetError::Protocol("service collector is gone".to_string()));
        }
        for w in 0..p {
            self.frontend_send(
                w,
                SvcPacket::Start {
                    qid,
                    program: Arc::clone(&program),
                    domain_size,
                    rounds: total_rounds,
                },
            )?;
        }
        // The front-end routes all input itself, preserving the logical
        // input server ids `p + ri` on the blocks.
        for (ri, rel) in db.relations().enumerate() {
            let routed = program.route_input(rel, p).map_err(NetError::Sim)?;
            let mut asm =
                BlockAssembler::new(Arc::clone(&self.pool), self.block_capacity, p + ri, 1);
            let mut ns_tags: HashMap<String, String> = HashMap::new();
            for msg in routed {
                let tag = ns_tags
                    .entry(msg.tag.clone())
                    .or_insert_with(|| format!("{qid}#{}", msg.tag))
                    .clone();
                for &dest in &msg.destinations {
                    if dest >= p {
                        return Err(NetError::Sim(mpc_sim::SimError::Program(format!(
                            "destination {dest} out of range for p = {p}"
                        ))));
                    }
                    if let Some(block) = asm.push(dest, &tag, msg.tuple.values()) {
                        self.frontend_send(dest, SvcPacket::Block(block))?;
                    }
                }
            }
            for (dest, block) in asm.flush() {
                self.frontend_send(dest, SvcPacket::Block(block))?;
            }
        }
        for w in 0..p {
            self.frontend_send(w, SvcPacket::Fin { qid, round: 1 })?;
        }
        Ok(())
    }

    /// Block until the next query (in completion order) finishes. The
    /// freed budget immediately launches any deferred queries that now
    /// fit.
    ///
    /// # Errors
    ///
    /// Returns the query's own failure when one failed, or a service
    /// error when the cluster died.
    pub fn next_outcome(&mut self) -> Result<QueryOutcome> {
        let outcome = match self.outcome_rx.recv() {
            Ok(outcome) => outcome,
            Err(_) => Err(NetError::Protocol("service stopped".to_string())),
        };
        // The collector released the finished query's budget before
        // reporting it, so deferred queries can launch right away.
        self.drain_deferred()?;
        outcome
    }

    /// Tear the shared cluster down. In-flight queries are dropped;
    /// drain outcomes first.
    ///
    /// # Errors
    ///
    /// Fails when a reactor panicked.
    pub fn shutdown(mut self) -> Result<()> {
        for lane in &self.frontend_lanes {
            let _ = lane.force_send(SvcPacket::Shutdown);
        }
        let mut panicked = false;
        for h in self.workers.drain(..) {
            panicked |= h.join().is_err();
        }
        drop(self.collector_tx.take());
        if let Some(h) = self.collector.take() {
            panicked |= h.join().is_err();
        }
        if panicked {
            return Err(NetError::Protocol("a service thread panicked".to_string()));
        }
        Ok(())
    }

    /// Blocking send on a front-end lane.
    fn frontend_send(&self, worker: usize, mut pkt: SvcPacket) -> Result<()> {
        loop {
            match self.frontend_lanes[worker].send_timeout(pkt, FRONTEND_POLL) {
                SendAttempt::Sent => return Ok(()),
                SendAttempt::Full(back) => pkt = back,
                SendAttempt::Closed(_) => {
                    return Err(NetError::Protocol(format!("service worker {worker} is gone")));
                }
            }
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        // Best-effort: wake the reactors so their threads exit even when
        // `shutdown` was never called. The handles are detached.
        for lane in &self.frontend_lanes {
            let _ = lane.force_send(SvcPacket::Shutdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_sim::Cluster;

    #[test]
    fn service_matches_a_dedicated_cluster_run() {
        let q = families::triangle();
        let db = Arc::new(matching_database(&q, 600, 7));
        let p = 4;
        let reference = {
            let cluster = Cluster::new(MpcConfig::new(p, 0.5)).unwrap();
            let program = mpc_core::hypercube::HyperCubeProgram::new(&q, p, 99).unwrap();
            cluster.run(&program, &db).unwrap()
        };
        let mut svc = QueryService::start(&ServiceConfig::new(p, 0.5)).unwrap();
        let sub = svc
            .submit(&QueryJob {
                query: q.clone(),
                db: Arc::clone(&db),
                seed: 99,
                plan_epsilon: None,
            })
            .unwrap();
        assert_eq!(sub.admission, Admission::Admitted);
        let outcome = svc.next_outcome().unwrap();
        assert_eq!(outcome.qid, sub.qid);
        assert!(outcome.output.same_tuples(&reference.output), "same output as Cluster::run");
        assert_eq!(outcome.rounds, reference.rounds, "identical per-round statistics");
        assert_eq!(outcome.per_server_output, reference.per_server_output);
        svc.shutdown().unwrap();
    }

    #[test]
    fn interleaved_queries_do_not_cross_namespaces() {
        let q1 = families::triangle();
        let q2 = families::cycle(4);
        let db1 = Arc::new(matching_database(&q1, 500, 3));
        let db2 = Arc::new(matching_database(&q2, 400, 4));
        let p = 3;
        let mut svc = QueryService::start(&ServiceConfig::new(p, 0.0)).unwrap();
        let a = svc
            .submit(&QueryJob { query: q1.clone(), db: db1.clone(), seed: 1, plan_epsilon: None })
            .unwrap()
            .qid;
        let b = svc
            .submit(&QueryJob { query: q2.clone(), db: db2.clone(), seed: 2, plan_epsilon: None })
            .unwrap()
            .qid;
        let mut outcomes = [svc.next_outcome().unwrap(), svc.next_outcome().unwrap()];
        outcomes.sort_by_key(|o| o.qid);
        for (qid, q, db, seed) in [(a, q1, db1, 1), (b, q2, db2, 2)] {
            let cluster = Cluster::new(MpcConfig::new(p, 0.0)).unwrap();
            let program = mpc_core::hypercube::HyperCubeProgram::new(&q, p, seed).unwrap();
            let reference = cluster.run(&program, &db).unwrap();
            let outcome = &outcomes[qid as usize];
            assert!(outcome.output.same_tuples(&reference.output), "query {qid} output");
            assert_eq!(outcome.rounds, reference.rounds, "query {qid} stats");
        }
        svc.shutdown().unwrap();
    }

    #[test]
    fn exhausted_budget_defers_then_launches_in_fifo_order() {
        let q = families::triangle();
        // Big enough that the first query is still in flight when the
        // later ones are submitted (their analyses are cache-hot).
        let db = Arc::new(matching_database(&q, 3000, 11));
        let p = 3;
        // Capacity 1: the first (oversized) query is admitted alone,
        // everything submitted while it runs defers.
        let cfg = ServiceConfig { admission_capacity_bytes: 1, ..ServiceConfig::new(p, 0.5) };
        let mut svc = QueryService::start(&cfg).unwrap();
        let job =
            |seed| QueryJob { query: q.clone(), db: Arc::clone(&db), seed, plan_epsilon: None };
        let first = svc.submit(&job(1)).unwrap();
        assert_eq!(first.admission, Admission::Admitted);
        let second = svc.submit(&job(2)).unwrap();
        let third = svc.submit(&job(3)).unwrap();
        assert_eq!(second.admission, Admission::Deferred { position: 0 });
        assert_eq!(third.admission, Admission::Deferred { position: 1 });
        for (expect_qid, expect_admission) in [
            (first.qid, Admission::Admitted),
            (second.qid, Admission::Deferred { position: 0 }),
            (third.qid, Admission::Deferred { position: 1 }),
        ] {
            let outcome = svc.next_outcome().unwrap();
            assert_eq!(outcome.qid, expect_qid, "queries drain in FIFO order");
            assert_eq!(outcome.admission, expect_admission, "outcome records the admission");
        }
        svc.shutdown().unwrap();
    }

    #[test]
    fn full_deferral_queue_rejects_instead_of_blocking() {
        let q = families::triangle();
        let db = Arc::new(matching_database(&q, 3000, 13));
        let cfg = ServiceConfig {
            admission_capacity_bytes: 1,
            deferral_depth: 0,
            ..ServiceConfig::new(3, 0.5)
        };
        let mut svc = QueryService::start(&cfg).unwrap();
        let job =
            |seed| QueryJob { query: q.clone(), db: Arc::clone(&db), seed, plan_epsilon: None };
        let first = svc.submit(&job(1)).unwrap();
        assert_eq!(first.admission, Admission::Admitted);
        let refused = svc.submit(&job(2));
        assert!(
            matches!(refused, Err(NetError::Rejected(_))),
            "zero-depth deferral queue rejects outright, got {refused:?}"
        );
        // Draining the running query frees the budget again.
        let outcome = svc.next_outcome().unwrap();
        assert_eq!(outcome.qid, first.qid);
        let retried = svc.submit(&job(2)).unwrap();
        assert_eq!(retried.admission, Admission::Admitted);
        svc.next_outcome().unwrap();
        svc.shutdown().unwrap();
    }
}
