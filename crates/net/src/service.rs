//! A multi-query front-end over one shared reactor mesh.
//!
//! [`QueryService`] accepts a stream of parsed conjunctive queries,
//! analyses each ([`mpc_core::analysis::QueryAnalysis`]: afresh per
//! submission — nothing is memoised, so a repeated template is planned
//! identically and in the same microseconds every time), admits it
//! against a per-server byte budget, and executes many queries
//! **concurrently** as jobs of one [`mpc_sim::mesh`]: `p` detached reactor
//! threads, each keeping one [`mpc_sim::WorkerCore`] per query in flight,
//! every packet in an envelope naming its query. A query's blocks are
//! exactly those of a dedicated [`mpc_sim::Cluster::run`] of the same
//! program, so its per-round statistics are identical — the multiplexing
//! differential the tests pin down. There is deliberately **no**
//! cross-query barrier — queries in different rounds interleave freely on
//! the reactors.
//!
//! What this front-end adds around the mesh: query ids, analysis and the
//! admission gate. It has no threads of its own: the mesh routes a query's
//! input on the submitting thread, and finished queries are folded into
//! [`QueryOutcome`]s by whichever call next looks — [`QueryService::submit`]
//! without blocking (so their budget is free before it admits anything),
//! [`QueryService::next_outcome`] blocking. A failed query is reported once,
//! with the error the mesh's failure policy picks.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use mpc_core::analysis::QueryAnalysis;
use mpc_core::plan::PlannerChoice;
use mpc_cq::Query;
use mpc_lp::Rational;
use mpc_sim::mesh::Mesh;
use mpc_sim::{
    fold_summaries, AsyncConfig, MpcConfig, MpcProgram, RoundStats, RunResult, WorkerSummary,
};
use mpc_storage::{Database, Relation};

use crate::{NetError, Result};

/// Service shape and admission policy. The reactors run on
/// [`AsyncConfig`]'s default lanes and blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Number of shared reactor workers (the cluster's `p`).
    pub p: usize,
    /// The space exponent ε of the per-query budget formula.
    pub epsilon: f64,
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
        ServiceConfig { p, epsilon, admission_capacity_bytes: 64 << 20, deferral_depth: 16 }
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
struct AdmissionGate {
    charged: u64,
    capacity: u64,
}

impl AdmissionGate {
    /// Charge `cost` if it fits (an oversized query is admitted alone);
    /// never blocks — a refusal sends the query to the deferral queue.
    fn try_admit(&mut self, cost: u64) -> bool {
        if self.charged > 0 && self.charged + cost > self.capacity {
            return false;
        }
        self.charged += cost;
        true
    }
}

/// The program handle a query's cores share across reactors.
type SharedProgram = Arc<dyn MpcProgram + Send + Sync>;

/// Everything the service needs to assemble a query's outcome.
struct QueryMeta {
    qid: u64,
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
    db: Arc<Database>,
    meta: QueryMeta,
}

/// The multi-query front-end. See the module docs for the execution
/// model; the intended life cycle is `start` → interleaved `submit` /
/// `next_outcome` → `shutdown`.
pub struct QueryService {
    config: MpcConfig,
    mesh: Mesh<SharedProgram>,
    reactors: Vec<std::thread::JoinHandle<()>>,
    /// Launched queries by mesh job id.
    running: HashMap<u64, QueryMeta>,
    /// Finished queries whose outcome has not been handed out yet, in
    /// completion order.
    finished: VecDeque<Result<QueryOutcome>>,
    admission: AdmissionGate,
    /// Queries the gate could not admit yet, launched FIFO as finished
    /// queries free capacity.
    deferred: VecDeque<PreparedQuery>,
    deferral_depth: usize,
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
    /// Start the shared cluster: a mesh of `p` detached reactor threads.
    ///
    /// # Errors
    ///
    /// Fails on an invalid cluster shape.
    pub fn start(cfg: &ServiceConfig) -> Result<QueryService> {
        let config = MpcConfig::new(cfg.p, cfg.epsilon);
        // Validate the shape through the simulator's own constructor.
        mpc_sim::Cluster::new(config.clone()).map_err(NetError::Sim)?;
        let lanes = AsyncConfig::default();
        let (mesh, reactors) = Mesh::new(cfg.p, lanes.queue_capacity, lanes.block_capacity);
        let reactors = reactors
            .into_iter()
            .map(|mut reactor| std::thread::spawn(move || reactor.run()))
            .collect();
        Ok(QueryService {
            config,
            mesh,
            reactors,
            running: HashMap::new(),
            finished: VecDeque::new(),
            admission: AdmissionGate { charged: 0, capacity: cfg.admission_capacity_bytes },
            deferred: VecDeque::new(),
            deferral_depth: cfg.deferral_depth,
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
    /// Fails on analysis/planning errors and with [`NetError::Rejected`]
    /// when the deferral queue is already [`ServiceConfig::deferral_depth`]
    /// deep.
    pub fn submit(&mut self, job: &QueryJob) -> Result<Submission> {
        // Queries that finished meanwhile release their budget first.
        self.collect(false);
        let mut prepared = self.prepare(job)?;
        let (qid, cost) = (prepared.meta.qid, prepared.meta.admitted_cost);
        // FIFO fairness: a newcomer may not jump past queued queries
        // even when its own budget would fit right now.
        if self.deferred.is_empty() && self.admission.try_admit(cost) {
            self.launch(prepared);
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

    /// Fold finished queries into outcomes and release their budget:
    /// every one that is done already, or — with `block` — at least one.
    /// Then launch every deferred query whose budget now fits, oldest
    /// first.
    fn collect(&mut self, block: bool) {
        while let Some((job, done)) = self.mesh.next_done(block) {
            let m = self.running.remove(&job).expect("every launched job has its metadata");
            self.admission.charged -= m.admitted_cost;
            let outcome = done
                .map_err(|e| NetError::Protocol(format!("query {} failed: {e}", m.qid)))
                .and_then(|summaries| assemble_outcome(&self.config, m, summaries));
            self.finished.push_back(outcome);
            if block {
                break;
            }
        }
        while self.deferred.front().is_some_and(|q| self.admission.try_admit(q.meta.admitted_cost))
        {
            let prepared = self.deferred.pop_front().expect("front just checked");
            self.launch(prepared);
        }
    }

    /// Analysis + planning: everything up to (but not including) the
    /// admission decision.
    fn prepare(&mut self, job: &QueryJob) -> Result<PreparedQuery> {
        let started = Instant::now();
        let analysis = QueryAnalysis::analyze(&job.query)
            .map_err(|e| NetError::Protocol(format!("analysis: {e}")))?;
        let choice = match job.plan_epsilon {
            Some(plan_epsilon) => PlannerChoice::MultiRound { plan_epsilon },
            None => PlannerChoice::OneRoundHyperCube,
        };
        let program: SharedProgram = choice
            .build(&analysis, &job.db, self.config.p, job.seed)
            .map_err(|e| NetError::Protocol(format!("{choice}: {e}")))?
            .into();
        let planning_micros = started.elapsed().as_micros() as u64;
        let input_bytes = job.db.total_bytes();
        let qid = self.next_qid;
        self.next_qid += 1;
        let meta = QueryMeta {
            qid,
            program,
            input_bytes,
            started,
            planning_micros,
            analysis_path: analysis.lp_solver_path.clone(),
            admitted_cost: self.config.budget_bytes(input_bytes),
            admission: Admission::Admitted,
        };
        Ok(PreparedQuery { db: Arc::clone(&job.db), meta })
    }

    /// Submit a prepared (and already admission-charged) query to the
    /// mesh, which routes its input on this thread.
    fn launch(&mut self, PreparedQuery { db, meta }: PreparedQuery) {
        let job = self.mesh.submit(Arc::clone(&meta.program), &db);
        self.running.insert(job, meta);
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
        if self.finished.is_empty() {
            self.collect(true);
        }
        let stopped = || Err(NetError::Protocol("service stopped".to_string()));
        self.finished.pop_front().unwrap_or_else(stopped)
    }

    /// Tear the shared cluster down: the reactors finish the queries in
    /// flight and exit, and their outcomes are dropped — drain them first.
    ///
    /// # Errors
    ///
    /// Fails when a reactor panicked.
    pub fn shutdown(self) -> Result<()> {
        let QueryService { mesh, reactors, .. } = self;
        drop(mesh);
        if reactors.into_iter().any(|h| h.join().is_err()) {
            return Err(NetError::Protocol("a service thread panicked".to_string()));
        }
        Ok(())
    }
}

fn assemble_outcome(
    config: &MpcConfig,
    m: QueryMeta,
    summaries: Vec<WorkerSummary>,
) -> Result<QueryOutcome> {
    let RunResult { output, rounds, per_server_output, input_bytes } =
        fold_summaries(config, m.program.as_ref(), m.input_bytes, summaries)?;
    Ok(QueryOutcome {
        qid: m.qid,
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

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_sim::Cluster;

    /// The HyperCube run of `q` on a dedicated cluster.
    fn dedicated_run(q: &Query, db: &Database, p: usize, epsilon: f64, seed: u64) -> RunResult {
        let analysis = QueryAnalysis::analyze(q).unwrap();
        let program = PlannerChoice::OneRoundHyperCube.build(&analysis, db, p, seed).unwrap();
        Cluster::new(MpcConfig::new(p, epsilon)).unwrap().run(program.as_ref(), db).unwrap()
    }

    #[test]
    fn service_matches_a_dedicated_cluster_run() {
        let q = families::triangle();
        let db = Arc::new(matching_database(&q, 600, 7));
        let p = 4;
        let reference = dedicated_run(&q, &db, p, 0.5, 99);
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
            let reference = dedicated_run(&q, &db, p, 0.0, seed);
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
