//! `service_mix`: many small queries multiplexed over one `QueryService`.
//!
//! **Closed loop**: the generator keeps [`WINDOW`] queries in flight and
//! submits the next one only when an outcome comes back, because callers of
//! a query service wait for their answer. A slower service therefore
//! receives less load; latency is submit → outcome.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mpc_core::analysis::QueryAnalysis;
use mpc_core::hypercube::HyperCubeProgram;
use mpc_cq::families;
use mpc_cq::parser::parse_query;
use mpc_data::matching_database;
use mpc_lp::{LpCache, QueryLps};
use mpc_net::{Admission, QueryJob, QueryOutcome, QueryService, ServiceConfig};
use mpc_sim::{Cluster, MpcConfig, RunResult};
use mpc_storage::join::evaluate;
use mpc_storage::{Database, Tuple};

use super::staged::{self, Plane, StageCounts};
use super::{step, Samples, Workload};
use crate::metrics::Metrics;
use crate::seed::{derive, SplitMix64};
use crate::span::Tracer;
use crate::stats::median;

const P: usize = 4;
const EPSILON: f64 = 0.5;
/// Queries in flight.
const WINDOW: usize = 4;
/// Queries per timed batch; outcomes are checked between batches.
const BATCH: usize = 200;
/// Queries per warm-up batch.
const WARM_UP_BATCH: usize = 40;
/// Zipf exponent over template ranks.
const THETA: f64 = 1.1;

struct Template {
    text: String,
    db: Arc<Database>,
    seed: u64,
    /// A dedicated `Cluster::run` of the same program: what every
    /// multiplexed outcome of this template must equal.
    reference: RunResult,
}

pub struct ServiceMix {
    templates: Vec<Template>,
    /// Cumulative Zipf weights over template ranks.
    cumulative: Vec<f64>,
    rng: SplitMix64,
    service: Option<QueryService>,
    load: (f64, f64),
    planning_us: Vec<f64>,
    cache_hot: u64,
    outcomes: u64,
    deferred: u64,
    inflight_max: usize,
    /// Traced queries so far; the replica takes the templates in turn.
    traced: usize,
}

impl ServiceMix {
    pub fn new(seed: u64, corrupt: bool) -> Self {
        // Rank order is popularity order; the hottest template has no
        // closed-form LP, so its first analysis runs the simplex and every
        // repeat must be served by the LP cache.
        let shapes = [
            (families::witness_query(), 300),
            (families::triangle(), 500),
            (families::cycle(4), 400),
            (families::star(3), 350),
            (families::chain(3), 450),
        ];
        let cluster = Cluster::new(MpcConfig::new(P, EPSILON)).expect("valid service shape");
        let templates: Vec<Template> = shapes
            .into_iter()
            .enumerate()
            .map(|(rank, (query, n))| {
                let seed = derive(seed, &format!("service.template.{rank}"));
                let db = matching_database(&query, n, seed);
                let program = HyperCubeProgram::new(&query, P, seed).expect("allocation");
                let mut reference = cluster.run(&program, &db).expect("dedicated run");
                let truth = evaluate(&query, &db).expect("the sequential join evaluates");
                assert!(reference.output.same_tuples(&truth), "dedicated run disagrees with join");
                if corrupt {
                    reference
                        .output
                        .insert(Tuple(vec![u64::MAX; query.num_vars()]))
                        .expect("arity");
                }
                Template { text: query.to_string(), db: Arc::new(db), seed, reference }
            })
            .collect();
        let mut total = 0.0;
        let cumulative = (0..templates.len())
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(THETA);
                total
            })
            .collect();
        // A fresh process-wide LP cache, so every run sees the same
        // first-miss-then-hit sequence.
        LpCache::global().clear();
        let service = QueryService::start(&ServiceConfig::new(P, EPSILON)).expect("service starts");
        ServiceMix {
            templates,
            cumulative,
            rng: SplitMix64::new(derive(seed, "service.zipf")),
            service: Some(service),
            load: (0.0, 0.0),
            planning_us: Vec::new(),
            cache_hot: 0,
            outcomes: 0,
            deferred: 0,
            inflight_max: 0,
            traced: 0,
        }
    }

    fn sample_template(&mut self) -> usize {
        let u = self.rng.next_f64() * self.cumulative.last().expect("five templates");
        self.cumulative.iter().position(|&c| u < c).unwrap_or(self.cumulative.len() - 1)
    }

    /// One closed-loop batch of `size` queries, then its checks.
    fn batch(&mut self, size: usize, out: &mut Samples) {
        let mut service = self.service.take().expect("service is running");
        let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
        let mut finished: Vec<(usize, QueryOutcome)> = Vec::with_capacity(size);
        let (mut submitted, mut done, mut failed) = (0, 0, 0);

        let start = Instant::now();
        while done < size {
            while submitted < size && in_flight.len() < WINDOW {
                let rank = self.sample_template();
                let template = &self.templates[rank];
                submitted += 1;
                let at = Instant::now();
                let submission = step(parse_query(&template.text)).and_then(|query| {
                    let job = QueryJob {
                        query,
                        db: Arc::clone(&template.db),
                        seed: template.seed,
                        plan_epsilon: None,
                    };
                    step(service.submit(&job))
                });
                match submission {
                    Ok(submission) => {
                        if matches!(submission.admission, Admission::Deferred { .. }) {
                            self.deferred += 1;
                        }
                        in_flight.insert(submission.qid, (rank, at));
                        self.inflight_max = self.inflight_max.max(in_flight.len());
                    }
                    Err(e) => {
                        eprintln!("submission failed: {e}");
                        failed += 1;
                        done += 1;
                    }
                }
            }
            if in_flight.is_empty() {
                continue;
            }
            match service.next_outcome() {
                Ok(outcome) => {
                    let (rank, at) = in_flight.remove(&outcome.qid).expect("a submitted query");
                    out.query_ms.push(at.elapsed().as_secs_f64() * 1e3);
                    finished.push((rank, outcome));
                }
                Err(e) => {
                    // The service does not say which query failed: retire
                    // the oldest one in flight.
                    eprintln!("query failed: {e}");
                    let oldest = *in_flight.keys().min().expect("one query in flight");
                    in_flight.remove(&oldest);
                    failed += 1;
                }
            }
            done += 1;
        }
        out.timed_s += start.elapsed().as_secs_f64();
        self.service = Some(service);

        for (rank, outcome) in &finished {
            let reference = &self.templates[*rank].reference;
            if !outcome.output.same_tuples(&reference.output) || outcome.rounds != reference.rounds
            {
                failed += 1;
            }
            let max_load = outcome.rounds.iter().map(|r| r.max_bytes_received).max().unwrap_or(0);
            let replication = outcome.rounds.iter().map(|r| r.replication_rate).fold(0.0, f64::max);
            self.load = (self.load.0.max(max_load as f64), self.load.1.max(replication));
            self.planning_us.push(outcome.planning_micros as f64);
            self.cache_hot += u64::from(outcome.cache_hot);
        }
        self.outcomes += finished.len() as u64;
        out.attempted += size as u64;
        out.failed += failed;
    }

    /// The path of one query of `template`, staged: parse → analyse → plan →
    /// the block plane on `p = 4`. What the replica cannot contain is the
    /// wait for the shared reactors, which `harness.trace_cover` then shows.
    fn staged_query(template: &Template, t: &mut Tracer, counts: &mut StageCounts) -> bool {
        let output = t.query(|t| {
            let query = step(t.scope("cq.parse", |_| parse_query(&template.text)))?;
            step(t.scope("core.analyze", |_| QueryAnalysis::analyze(&query)))?;
            let program =
                step(t.scope("core.plan", |_| HyperCubeProgram::new(&query, P, template.seed)))?;
            staged::execute(t, &program, &template.db, P, Plane::Blocks, counts)
        });
        match output {
            Ok(output) => output.same_tuples(&template.reference.output),
            Err(e) => {
                eprintln!("traced query failed: {e}");
                false
            }
        }
    }
}

impl Workload for ServiceMix {
    fn iterate(&mut self, out: &mut Samples) {
        self.batch(BATCH, out);
    }

    fn warm_up(&mut self) {
        self.batch(WARM_UP_BATCH, &mut Samples::default());
    }

    fn load(&self) -> (f64, f64) {
        self.load
    }

    /// The replica takes the five templates in turn, whatever the timed
    /// batches drew, so that a traced run does not depend on how many
    /// batches ran before it.
    fn trace(&mut self, t: &mut Tracer) -> bool {
        let template = &self.templates[self.traced % self.templates.len()];
        self.traced += 1;
        if let Ok(query) = parse_query(&template.text) {
            let _ = t.scope("lp.solve", |_| QueryLps::solve_traced(&query));
        }
        Self::staged_query(template, t, &mut StageCounts::default())
    }

    fn layer_metrics(&mut self, _untraced_p50_ms: f64, m: &mut Metrics) {
        m.set("net.svc_planning_us_p50", median(&self.planning_us));
        if self.outcomes > 0 {
            m.set("net.svc_cache_hot_frac", self.cache_hot as f64 / self.outcomes as f64);
        }
        m.set("net.svc_deferred", self.deferred as f64);
        m.set("net.svc_inflight_max", self.inflight_max as f64);
        // Counts per query: the mean over one staged query of each template.
        let mut counts = StageCounts::default();
        for template in &self.templates {
            Self::staged_query(template, &mut Tracer::disabled(), &mut counts);
        }
        counts.report(self.templates.len() as f64, m);
        m.set("core.rounds", 1.0);
    }

    fn shut_down(mut self: Box<Self>) {
        if let Some(service) = self.service.take() {
            if let Err(e) = service.shutdown() {
                eprintln!("service shutdown failed: {e}");
            }
        }
    }
}
