//! A multi-query front-end over one shared cluster of reactor workers.
//!
//! [`QueryService`] accepts a stream of parsed conjunctive queries,
//! analyses each ([`mpc_core::analysis::QueryAnalysis`]: afresh per
//! submission — nothing is memoised, so a repeated template is planned
//! identically and in the same microseconds every time), admits it
//! against a per-server byte budget, and executes many queries
//! **concurrently** over the same `p` reactor threads. Each reactor keeps one [`WorkerCore`] per query in
//! flight ([`mpc_sim::worker`] describes the protocol a core speaks) and
//! every packet travels in an envelope naming its query, so a reactor
//! feeds whatever arrives to the right core and steps the cores whose
//! rounds that completed. A query's blocks are exactly those of a
//! dedicated [`mpc_sim::Cluster::run`] of the same program, so its
//! per-round statistics are identical — the multiplexing differential the
//! tests pin down.
//!
//! What this driver adds around the cores: query ids, analysis and the
//! admission gate. The front-end routes all input itself (preserving the
//! logical input server ids `p + ri`), so round 1 closes on one FIN per
//! worker. There is deliberately **no** cross-query barrier — queries in
//! different rounds interleave freely on the reactors.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpc_core::analysis::QueryAnalysis;
use mpc_core::hypercube::HyperCubeProgram;
use mpc_core::multiround::executor::PlanProgram;
use mpc_core::multiround::planner::MultiRoundPlan;
use mpc_cq::Query;
use mpc_lp::Rational;
use mpc_sim::queue::{Inbox, InboxReceiver, LinkSender, SendAttempt};
use mpc_sim::worker::route_input;
use mpc_sim::{
    fold_summaries, BlockPool, Input, Link, MpcConfig, MpcProgram, Packet, RoundStats, RunResult,
    SendOutcome, Step, WorkerCore, WorkerSummary,
};
use mpc_storage::{Database, Relation};

use crate::{NetError, Result};

/// How long a reactor parks on a full peer lane before draining its own
/// inbox and retrying.
const REACTOR_POLL: Duration = Duration::from_micros(200);

/// Service shape and admission policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Number of shared reactor workers (the cluster's `p`).
    pub p: usize,
    /// The space exponent ε of the per-query budget formula.
    pub epsilon: f64,
    /// Per-link lane capacity of the reactor inboxes, in packets.
    pub queue_capacity: usize,
    /// Tuples per block.
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
    /// Input size in bytes (the `N` of the budget).
    pub input_bytes: u64,
    /// Which LP solver path the analysis took (`"closed-form"` or
    /// `"simplex"`).
    pub analysis_path: String,
    /// Always `false`: the LP cache it reported is deleted. The field
    /// stays until `benchmark/`, which reads it, may change.
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

impl QueryOutcome {
    /// The execution half of the outcome as the [`RunResult`] a dedicated
    /// run returns — what [`RunResult::divergence`] compares.
    pub fn run_result(&self) -> RunResult {
        RunResult {
            output: self.output.clone(),
            rounds: self.rounds.clone(),
            per_server_output: self.per_server_output.clone(),
            input_bytes: self.input_bytes,
        }
    }
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
    charged: Mutex<u64>,
    capacity: u64,
}

impl AdmissionGate {
    fn new(capacity: u64) -> Self {
        AdmissionGate { charged: Mutex::new(0), capacity }
    }

    /// Charge `cost` if it fits (an oversized query is admitted alone);
    /// never blocks — a refusal sends the query to the deferral queue.
    fn try_admit(&self, cost: u64) -> bool {
        let mut charged = self.charged.lock().expect("admission mutex poisoned");
        if *charged > 0 && *charged + cost > self.capacity {
            return false;
        }
        *charged += cost;
        true
    }

    fn release(&self, cost: u64) {
        let mut charged = self.charged.lock().expect("admission mutex poisoned");
        *charged = charged.saturating_sub(cost);
    }
}

/// The program handle a query's cores share across reactors.
type SharedProgram = Arc<dyn MpcProgram + Send + Sync>;

/// A packet on the service fabric: the protocol's packets in an envelope
/// naming their query, plus the two messages only a service has. Reactor
/// lanes `0..p` carry peer traffic; lane `p` is the front-end's.
enum SvcPacket {
    /// A query starts: create its core on this reactor.
    Start { qid: u64, program: SharedProgram, domain_size: u64 },
    /// One packet of query `qid`'s round protocol.
    Data { qid: u64, pkt: Packet },
    /// Tear the reactor down.
    Shutdown,
}

/// Reactor/front-end → collector messages.
enum CollectorMsg {
    Meta(u64, QueryMeta),
    Done { qid: u64, server: usize, summary: WorkerSummary },
    Failed { qid: u64, server: usize, error: String },
}

/// Everything the collector needs to assemble a query's outcome.
struct QueryMeta {
    program: SharedProgram,
    input_bytes: u64,
    started: Instant,
    planning_micros: u64,
    analysis_path: String,
    admitted_cost: u64,
    admission: Admission,
}

/// A fully analysed and planned query waiting on the admission gate:
/// everything [`QueryService`] needs to launch it later, in FIFO order.
struct PreparedQuery {
    qid: u64,
    program: SharedProgram,
    db: Arc<Database>,
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
    /// One core per query in flight here (the one being stepped is out).
    cores: HashMap<u64, WorkerCore<'static, SharedProgram>>,
    /// Packets that raced ahead of their query's `Start`.
    pending: HashMap<u64, Vec<Packet>>,
    /// Queries that took a FIN since they were last stepped.
    dirty: Vec<u64>,
    done_tx: mpsc::Sender<CollectorMsg>,
    pool: Arc<BlockPool>,
    block_capacity: usize,
    scratch: Vec<SvcPacket>,
    stopping: bool,
}

impl Reactor {
    fn run(mut self) {
        let mut buf = Vec::new();
        while !self.stopping {
            self.rx.recv_many(&mut buf);
            buf.drain(..).for_each(|pkt| self.dispatch(pkt));
            while let Some(qid) = self.dirty.pop() {
                self.advance(qid);
            }
        }
    }

    /// Apply one packet. Only FINs (and the replays a `Start` triggers)
    /// can complete a round, so only they mark the query dirty.
    fn dispatch(&mut self, pkt: SvcPacket) {
        match pkt {
            SvcPacket::Start { qid, program, domain_size } => {
                let input = Input::Routed { domain_size };
                let pool = Arc::clone(&self.pool);
                match WorkerCore::new(program, self.id, self.p, input, pool, self.block_capacity) {
                    Ok(core) => {
                        self.cores.insert(qid, core);
                        for pkt in self.pending.remove(&qid).unwrap_or_default() {
                            self.feed(qid, pkt);
                        }
                    }
                    Err(e) => self.fail_query(qid, &e.to_string()),
                }
            }
            SvcPacket::Data { qid, pkt } => self.feed(qid, pkt),
            SvcPacket::Shutdown => self.stopping = true,
        }
    }

    /// Hand one protocol packet to its query's core.
    fn feed(&mut self, qid: u64, pkt: Packet) {
        let Some(core) = self.cores.get_mut(&qid) else {
            self.pending.entry(qid).or_default().push(pkt);
            return;
        };
        let closes_a_round = matches!(pkt, Packet::Fin { .. });
        match core.accept(pkt) {
            Ok(()) if closes_a_round => self.dirty.push(qid),
            Ok(()) => {}
            Err(e) => {
                self.cores.remove(&qid);
                self.fail_query(qid, &e.to_string());
            }
        }
    }

    /// Step `qid`'s core through as many rounds as its FIN counts allow.
    fn advance(&mut self, qid: u64) {
        let Some(mut core) = self.cores.remove(&qid) else { return };
        loop {
            match core.step(&mut QueryLink { reactor: self, qid }) {
                Ok(Step::RoundDone(_)) => {}
                Ok(Step::NeedInput) => {
                    self.cores.insert(qid, core);
                    return;
                }
                Ok(Step::Finished(summary)) => {
                    let done = CollectorMsg::Done { qid, server: self.id, summary };
                    let _ = self.done_tx.send(done);
                    return;
                }
                Err(e) => return self.fail_query(qid, &e.to_string()),
            }
        }
    }

    /// Report a per-query failure; its local state is gone and the reactor
    /// keeps serving other queries.
    fn fail_query(&mut self, qid: u64, error: &str) {
        let failed = CollectorMsg::Failed { qid, server: self.id, error: error.to_string() };
        let _ = self.done_tx.send(failed);
    }
}

/// The fabric as the one core being stepped sees it: its sends go out in
/// `qid`'s envelope, and draining the reactor's inbox hands it its own
/// packets while everything else is dispatched as usual.
struct QueryLink<'r> {
    reactor: &'r mut Reactor,
    qid: u64,
}

impl Link for QueryLink<'_> {
    fn send(&mut self, dest: usize, pkt: Packet) -> SendOutcome {
        if self.reactor.stopping {
            return SendOutcome::Closed;
        }
        let enveloped = SvcPacket::Data { qid: self.qid, pkt };
        match self.reactor.peers[dest].send_timeout(enveloped, REACTOR_POLL) {
            SendAttempt::Sent => SendOutcome::Sent,
            SendAttempt::Full(SvcPacket::Data { pkt, .. }) => SendOutcome::Full(pkt),
            SendAttempt::Full(_) | SendAttempt::Closed(_) => SendOutcome::Closed,
        }
    }

    fn try_recv(&mut self, buf: &mut Vec<Packet>) {
        let mut batch = std::mem::take(&mut self.reactor.scratch);
        self.reactor.rx.try_recv_many(&mut batch);
        for pkt in batch.drain(..) {
            match pkt {
                SvcPacket::Data { qid, pkt } if qid == self.qid => buf.push(pkt),
                other => self.reactor.dispatch(other),
            }
        }
        self.reactor.scratch = batch;
    }
}

/// The collector: folds per-reactor summaries into [`QueryOutcome`]s and
/// releases admission budget as queries drain.
fn collector_run(
    config: MpcConfig,
    rx: mpsc::Receiver<CollectorMsg>,
    tx: mpsc::Sender<Result<QueryOutcome>>,
    admission: Arc<AdmissionGate>,
) {
    let mut meta: HashMap<u64, QueryMeta> = HashMap::new();
    let mut parts: HashMap<u64, Vec<Option<WorkerSummary>>> = HashMap::new();
    let mut failed: HashSet<u64> = HashSet::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            CollectorMsg::Meta(qid, m) => {
                meta.insert(qid, m);
            }
            CollectorMsg::Done { qid, server, summary } => {
                if failed.contains(&qid) {
                    continue;
                }
                let entry = parts.entry(qid).or_insert_with(|| vec![None; config.p]);
                entry[server] = Some(summary);
                if entry.iter().any(Option::is_none) {
                    continue;
                }
                let summaries = parts.remove(&qid).into_iter().flatten().flatten().collect();
                let Some(m) = meta.remove(&qid) else {
                    let _ = tx.send(Err(NetError::Protocol(format!(
                        "query {qid} finished without metadata"
                    ))));
                    continue;
                };
                admission.release(m.admitted_cost);
                let _ = tx.send(assemble_outcome(&config, qid, m, summaries));
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
        }
    }
}

fn assemble_outcome(
    config: &MpcConfig,
    qid: u64,
    m: QueryMeta,
    summaries: Vec<WorkerSummary>,
) -> Result<QueryOutcome> {
    let RunResult { output, rounds, per_server_output, input_bytes } =
        fold_summaries(config, m.program.as_ref(), m.input_bytes, summaries)?;
    Ok(QueryOutcome {
        qid,
        output,
        rounds,
        per_server_output,
        input_bytes,
        analysis_path: m.analysis_path,
        cache_hot: false,
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
    /// Accepted submissions whose outcome has not been delivered yet.
    outstanding: usize,
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
        // Lanes 0..p are peers, lane p is the front-end.
        let (lane_senders, receivers): (Vec<_>, Vec<_>) =
            (0..p).map(|_| Inbox::channel::<SvcPacket>(p + 1, cfg.queue_capacity)).unzip();
        let workers: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(id, rx)| {
                let reactor = Reactor {
                    id,
                    p,
                    rx,
                    peers: lane_senders.iter().map(|lanes| lanes[id].clone()).collect(),
                    cores: HashMap::new(),
                    pending: HashMap::new(),
                    dirty: Vec::new(),
                    done_tx: done_tx.clone(),
                    pool: Arc::clone(&pool),
                    block_capacity: cfg.block_capacity,
                    scratch: Vec::new(),
                    stopping: false,
                };
                std::thread::spawn(move || reactor.run())
            })
            .collect();
        let collector = {
            let (config, admission) = (config.clone(), Arc::clone(&admission));
            std::thread::spawn(move || collector_run(config, done_rx, outcome_tx, admission))
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
            outstanding: 0,
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
            self.outstanding += 1;
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
        self.outstanding += 1;
        Ok(Submission { qid, admission })
    }

    /// Launch every deferred query whose budget now fits, oldest first.
    fn drain_deferred(&mut self) -> Result<()> {
        while let Some(front) = self.deferred.front() {
            if !self.admission.try_admit(front.cost) {
                return Ok(());
            }
            let prepared = self.deferred.pop_front().expect("front just checked");
            if let Err(e) = self.launch(prepared) {
                // A query that never launched never reports.
                self.outstanding -= 1;
                return Err(e);
            }
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
        let program: SharedProgram = match job.plan_epsilon {
            Some(eps) => {
                let plan = MultiRoundPlan::build(&job.query, eps)
                    .map_err(|e| NetError::Protocol(format!("plan: {e}")))?;
                Arc::new(
                    PlanProgram::new(&plan, p, job.seed)
                        .map_err(|e| NetError::Protocol(format!("plan program: {e}")))?,
                )
            }
            None => {
                let shares = analysis
                    .shares_for(p)
                    .map_err(|e| NetError::Protocol(format!("hypercube: {e}")))?;
                Arc::new(HyperCubeProgram::with_allocation(&job.query, shares, job.seed))
            }
        };
        let planning_micros = started.elapsed().as_micros() as u64;
        let input_bytes = job.db.total_bytes();
        let budget_bytes = self.config.budget_bytes(input_bytes);
        let qid = self.next_qid;
        self.next_qid += 1;
        let meta = QueryMeta {
            program: Arc::clone(&program),
            input_bytes,
            started,
            planning_micros,
            analysis_path: analysis.lp_solver_path.clone(),
            admitted_cost: budget_bytes,
            admission: Admission::Admitted,
        };
        Ok(PreparedQuery { qid, program, db: Arc::clone(&job.db), cost: budget_bytes, meta })
    }

    /// Inject a prepared (and already admission-charged) query into the
    /// reactors: metadata to the collector, a `Start` to every worker,
    /// then the routed input and the round-1 FINs.
    fn launch(&mut self, prepared: PreparedQuery) -> Result<()> {
        let PreparedQuery { qid, program, db, cost: _, meta } = prepared;
        let p = self.config.p;
        let send_meta = self
            .collector_tx
            .as_ref()
            .ok_or_else(|| NetError::Protocol("service is shut down".to_string()))?
            .send(CollectorMsg::Meta(qid, meta));
        if send_meta.is_err() {
            return Err(NetError::Protocol("service collector is gone".to_string()));
        }
        let domain_size = db.domain_size();
        for w in 0..p {
            let start = SvcPacket::Start { qid, program: Arc::clone(&program), domain_size };
            self.frontend_send(w, start)?;
        }
        // The front-end routes all input itself, preserving the logical
        // input server ids `p + ri` on the blocks.
        let data = |pkt| SvcPacket::Data { qid, pkt };
        let (pool, capacity) = (&self.pool, self.block_capacity);
        route_input(program.as_ref(), &db, p, None, pool, capacity, |dest, block| {
            self.frontend_send(dest, data(Packet::Block(block)))
        })?;
        (0..p).try_for_each(|w| self.frontend_send(w, data(Packet::Fin { round: 1 })))
    }

    /// Block until the next query (in completion order) finishes. The
    /// freed budget immediately launches any deferred queries that now
    /// fit.
    ///
    /// # Errors
    ///
    /// Returns the query's own failure when one failed, a service error
    /// when the cluster died, and [`NetError::Protocol`] at once when no
    /// submitted query is still waiting for its outcome.
    pub fn next_outcome(&mut self) -> Result<QueryOutcome> {
        if self.outstanding == 0 {
            return Err(NetError::Protocol("no submitted query is outstanding".to_string()));
        }
        self.outstanding -= 1;
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
    fn frontend_send(&self, worker: usize, pkt: SvcPacket) -> Result<()> {
        self.frontend_lanes[worker]
            .send(pkt)
            .map_err(|_| NetError::Protocol(format!("service worker {worker} is gone")))
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
        assert_eq!(outcome.run_result().divergence(&reference), None, "same as Cluster::run");
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
            assert_eq!(outcome.run_result().divergence(&reference), None, "query {qid}");
        }
        svc.shutdown().unwrap();
    }

    #[test]
    fn exhausted_budget_defers_then_launches_in_fifo_order() {
        let q = families::triangle();
        // Big enough that the first query is still in flight when the
        // later ones are submitted (planning one takes microseconds).
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
