//! The five single-query workloads: one conjunctive query, text to unioned
//! output, on the simulator backends and the TCP runner.

use std::time::Instant;

use mpc_core::analysis::QueryAnalysis;
use mpc_core::hypercube::HyperCubeProgram;
use mpc_core::multiround::executor::PlanProgram;
use mpc_core::multiround::planner::MultiRoundPlan;
use mpc_core::wco::{PlannerChoice, WcoLoadPrediction, WcoProgram};
use mpc_cq::parser::parse_query;
use mpc_cq::{families, Query};
use mpc_data::skew::degree_planted_database;
use mpc_data::{matching_database, DbStatistics, StatsMode};
use mpc_lp::{QueryLps, Rational};
use mpc_net::{run_distributed, DistConfig, TransportKind};
use mpc_sim::{AsyncConfig, Cluster, MpcConfig, MpcProgram, RoundStats, RunResult};
use mpc_storage::join::evaluate;
use mpc_storage::{Database, Relation, Tuple};

use super::staged::{self, Plane, StageCounts};
use super::{lp_path_metric, step, Samples, Step, Workload};
use crate::metrics::Metrics;
use crate::seed::derive;
use crate::span::Tracer;
use crate::stats::median;

/// Which pipeline a [`SimWorkload`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HcSync,
    HcAsync,
    ChainRounds,
    SkewWco,
    NetTcp,
}

/// Tuples per relation of the triangle's matching database.
const HC_TUPLES: u64 = 20_000;
/// Tuples per relation of the chain's matching database (p50 of 60–90 ms).
const CHAIN_TUPLES: u64 = 4_000;
/// Tuples per relation of the degree-planted triangle input.
const SKEW_TUPLES: usize = 12_000;

/// A planned query: the compiled program and the cluster it runs on.
enum Program {
    Hc(HyperCubeProgram),
    Rounds(PlanProgram),
    Wco(WcoProgram),
}

impl Program {
    fn as_dyn(&self) -> &dyn MpcProgram {
        match self {
            Program::Hc(p) => p,
            Program::Rounds(p) => p,
            Program::Wco(p) => p,
        }
    }
}

struct Planned {
    query: Query,
    analysis: QueryAnalysis,
    program: Program,
    cluster: Cluster,
    /// Tuples the statistics scan visited (`skew_wco` only).
    scanned_tuples: usize,
}

pub struct SimWorkload {
    kind: Kind,
    text: String,
    db: Database,
    p: usize,
    program_seed: u64,
    oracle: Relation,
    /// Per-round statistics of the reference loop, which the event-driven
    /// backend and the TCP runner must reproduce.
    reference_rounds: Vec<RoundStats>,
    load: (f64, f64),
    counts: StageCounts,
}

impl SimWorkload {
    pub fn new(kind: Kind, seed: u64, corrupt: bool) -> Self {
        let (query, db, p) = match kind {
            Kind::HcSync | Kind::HcAsync | Kind::NetTcp => {
                let q = families::triangle();
                let db = matching_database(&q, HC_TUPLES, derive(seed, "hc.db"));
                (q, db, 8)
            }
            Kind::ChainRounds => {
                let q = families::chain(8);
                let db = matching_database(&q, CHAIN_TUPLES, derive(seed, "chain.db"));
                (q, db, 8)
            }
            Kind::SkewWco => {
                let q = families::triangle();
                let m = SKEW_TUPLES;
                let db =
                    degree_planted_database(&q, 8 * m as u64, m, 1, m / 2, derive(seed, "skew.db"));
                (q, db, 27)
            }
        };
        let mut oracle = evaluate(&query, &db).expect("the sequential join evaluates");
        if corrupt {
            oracle.insert(Tuple(vec![u64::MAX; query.num_vars()])).expect("oracle arity");
        }
        let mut workload = SimWorkload {
            kind,
            text: query.to_string(),
            db,
            p,
            program_seed: derive(seed, "program"),
            oracle,
            reference_rounds: Vec::new(),
            load: (0.0, 0.0),
            counts: StageCounts::default(),
        };
        workload.reference_rounds = workload.reference_run().expect("reference run").1.rounds;
        workload
    }

    fn plane(&self) -> Plane {
        match self.kind {
            Kind::HcSync | Kind::ChainRounds | Kind::SkewWco => Plane::Rows,
            Kind::HcAsync => Plane::Blocks,
            Kind::NetTcp => Plane::Wire,
        }
    }

    /// Text → parsed query → analysis → (statistics) → compiled program.
    fn plan(&self, t: &mut Tracer) -> Step<Planned> {
        let query = step(t.scope("cq.parse", |_| parse_query(&self.text)))?;
        let analysis = step(t.scope("core.analyze", |_| QueryAnalysis::analyze(&query)))?;
        let (p, seed) = (self.p, self.program_seed);
        let mut scanned_tuples = 0;
        let (program, epsilon) = match self.kind {
            Kind::HcSync | Kind::HcAsync | Kind::NetTcp => {
                let program = t.scope("core.plan", |_| HyperCubeProgram::new(&query, p, seed));
                (Program::Hc(step(program)?), analysis.space_exponent)
            }
            Kind::ChainRounds => {
                let program = t.scope("core.plan", |_| {
                    let plan = MultiRoundPlan::build(&query, Rational::ZERO)?;
                    PlanProgram::new(&plan, p, seed)
                });
                (Program::Rounds(step(program)?), Rational::ZERO)
            }
            Kind::SkewWco => {
                let epsilon = analysis.space_exponent;
                let stats = t.scope("data.stats_scan", |_| {
                    DbStatistics::collect(&self.db, StatsMode::Exact)
                });
                scanned_tuples = stats.scanned_tuples();
                let program = t.scope("core.plan", |_| {
                    let choice = step(analysis.planner_choice_with_stats(epsilon, p, &stats))?;
                    if choice != PlannerChoice::WorstCaseOptimal {
                        return Err(format!("planner chose {choice} on the skewed triangle"));
                    }
                    step(WcoProgram::new_with_stats(&query, &self.db, p, seed, &stats))
                });
                (Program::Wco(program?), epsilon)
            }
        };
        let cluster = step(Cluster::new(MpcConfig::new(p, epsilon.to_f64())))?;
        Ok(Planned { query, analysis, program, cluster, scanned_tuples })
    }

    /// Run a planned query through this workload's top-level entry point.
    fn run(&self, planned: &Planned) -> Step<RunResult> {
        let Planned { program, cluster, .. } = planned;
        match (self.kind, program) {
            (Kind::HcAsync, Program::Hc(hc)) => {
                step(cluster.run_async(hc, &self.db, &AsyncConfig::new())).map(|r| r.result)
            }
            (Kind::NetTcp, Program::Hc(hc)) => {
                step(run_distributed(cluster, hc, &self.db, &DistConfig::new(TransportKind::Tcp)))
            }
            _ => step(cluster.run(program.as_dyn(), &self.db)),
        }
    }

    /// The plan, and its run on the round-synchronous reference loop.
    fn reference_run(&self) -> Step<(Planned, RunResult)> {
        let planned = self.plan(&mut Tracer::disabled())?;
        let result = step(planned.cluster.run(planned.program.as_dyn(), &self.db))?;
        Ok((planned, result))
    }

    fn output_is_correct(&self, output: &Relation) -> bool {
        output.same_tuples(&self.oracle)
    }
}

impl Workload for SimWorkload {
    fn iterate(&mut self, out: &mut Samples) {
        let start = Instant::now();
        let result = self.plan(&mut Tracer::disabled()).and_then(|planned| self.run(&planned));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        out.query_ms.push(ms);
        out.timed_s += ms / 1e3;
        out.attempted += 1;
        match result {
            Ok(result) => {
                if !self.output_is_correct(&result.output) || result.rounds != self.reference_rounds
                {
                    out.failed += 1;
                }
                self.load = (result.max_load_bytes() as f64, result.max_replication_rate());
            }
            Err(e) => {
                eprintln!("query failed: {e}");
                out.failed += 1;
            }
        }
    }

    fn load(&self) -> (f64, f64) {
        self.load
    }

    fn trace(&mut self, t: &mut Tracer) -> bool {
        // The LP probe runs outside the query span: `analyze` solves the
        // same LPs again, and `core.analyze_ms` is reported net of this.
        if let Ok(query) = parse_query(&self.text) {
            let _ = t.scope("lp.solve", |_| QueryLps::solve_traced(&query));
        }
        let mut counts = StageCounts::default();
        let output = t.query(|t| {
            let planned = self.plan(t)?;
            staged::execute(
                t,
                planned.program.as_dyn(),
                &self.db,
                self.p,
                self.plane(),
                &mut counts,
            )
        });
        self.counts = counts;
        match output {
            Ok(output) => self.output_is_correct(&output),
            Err(e) => {
                eprintln!("traced query failed: {e}");
                false
            }
        }
    }

    fn layer_metrics(&mut self, untraced_p50_ms: f64, m: &mut Metrics) {
        let (planned, reference) = self.reference_run().expect("reference run");
        let Planned { query, analysis, program, cluster, scanned_tuples } = &planned;
        let p = self.p;

        match QueryLps::solve_traced(query) {
            Ok((_, path)) => m.set(lp_path_metric(path), 1.0),
            Err(e) => eprintln!("LP probe failed: {e}"),
        }

        // Measured load against the paper's bound N / p^{1-eps} at the
        // plan's own exponent (1/tau* for HyperCube, 1/rho* for WCO, 1 for
        // the eps = 0 chain plan) and against the planner's prediction.
        let n = self.db.max_relation_size() as u64;
        let (one_minus_eps, predicted_tuples) = match program {
            Program::Hc(_) => (
                1.0 - analysis.space_exponent.to_f64(),
                step(analysis.round_load_profile(analysis.space_exponent, p, n))
                    .map(|profile| profile.max_predicted_tuples()),
            ),
            Program::Rounds(_) => (
                1.0,
                step(analysis.round_load_profile(Rational::ZERO, p, n))
                    .map(|profile| profile.max_predicted_tuples()),
            ),
            Program::Wco(wco) => {
                let plan = wco.plan();
                let heavy: usize = query.var_ids().map(|v| plan.heavy().count(v)).sum();
                m.set("core.heavy_values", heavy as f64);
                m.set("core.heavy_patterns", plan.patterns().len().saturating_sub(1) as f64);
                (
                    1.0 / analysis.rho_star.to_f64(),
                    step(WcoLoadPrediction::predict(plan)).map(|pred| pred.max_predicted_tuples()),
                )
            }
        };
        let bound_bytes = reference.input_bytes as f64 / (p as f64).powf(one_minus_eps);
        m.set("core.rounds", reference.num_rounds() as f64);
        m.set("core.load_vs_bound", reference.max_load_bytes() as f64 / bound_bytes);
        match predicted_tuples {
            Ok(predicted) if predicted > 0.0 => {
                m.set("core.load_vs_predicted", reference.max_load_tuples() as f64 / predicted);
            }
            Ok(_) => {}
            Err(e) => eprintln!("load prediction failed: {e}"),
        }
        m.set("data.stats_scanned_tuples", *scanned_tuples as f64);

        self.counts.report(1.0, m);
        m.set("sim.total_bytes", reference.total_bytes() as f64);
        m.set("sim.balance_ratio", reference.max_balance_ratio());
        m.set("storage.output_tuples", reference.output.len() as f64);
        if !reference.output.is_empty() {
            m.set(
                "storage.output_dup_ratio",
                self.counts.server_outputs as f64 / reference.output.len() as f64,
            );
        }
        let seq_join_ms: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(evaluate(query, &self.db).expect("sequential join"));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        m.set("storage.seq_join_ms", median(&seq_join_ms));

        match (self.kind, program) {
            (Kind::HcAsync, Program::Hc(hc)) => {
                let run = cluster.run_async(hc, &self.db, &AsyncConfig::new()).expect("async run");
                m.set("sim.pool_allocated", run.pool.allocated as f64);
                if run.pool.checked_out > 0 {
                    let hit_rate = run.pool.reused as f64 / run.pool.checked_out as f64;
                    m.set("sim.pool_hit_rate", hit_rate);
                }
                m.set("sim.makespan_ticks", run.schedule.makespan as f64);
                m.set("sim.critical_path_ticks", run.schedule.critical_path as f64);
                m.set("sim.blocked_ticks", run.schedule.total_blocked() as f64);
                m.set("sim.idle_ticks", run.schedule.total_idle() as f64);
                m.set("sim.barrier_wait_ticks", run.schedule.max_barrier_wait() as f64);
            }
            (Kind::NetTcp, Program::Hc(_)) => {
                // The same query with the sockets swapped for in-process
                // lanes: what is left of the ratio is the wire.
                let in_process = DistConfig::new(TransportKind::InProcess);
                let inproc_ms: Vec<f64> = (0..5)
                    .map(|_| {
                        let start = Instant::now();
                        let planned = self.plan(&mut Tracer::disabled()).expect("the query plans");
                        let Program::Hc(hc) = &planned.program else { unreachable!() };
                        run_distributed(&planned.cluster, hc, &self.db, &in_process)
                            .expect("in-process run");
                        start.elapsed().as_secs_f64() * 1e3
                    })
                    .collect();
                let inproc_p50 = median(&inproc_ms);
                m.set("net.inproc_query_ms", inproc_p50);
                m.set("net.tcp_over_inproc", untraced_p50_ms / inproc_p50);
            }
            (Kind::SkewWco, _) => {
                let hc = HyperCubeProgram::new(query, p, self.program_seed).expect("HC plans");
                let hc_run = cluster.run(&hc, &self.db).expect("HC run");
                println!(
                    "  reference: HyperCubeProgram on the same database measures max_load_bytes = {} (WCO: {})",
                    hc_run.max_load_bytes(),
                    reference.max_load_bytes()
                );
            }
            _ => {}
        }
    }
}
