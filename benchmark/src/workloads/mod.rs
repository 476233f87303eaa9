//! The seven workloads and the interface the harness drives them through.

mod plan_only;
mod service_mix;
mod sim;
mod staged;

use mpc_lp::SolverPath;

use crate::metrics::Metrics;
use crate::span::Tracer;

/// The outcome of one stage of a query; errors are only ever reported.
type Step<T> = Result<T, String>;

fn step<T, E: std::fmt::Display>(r: Result<T, E>) -> Step<T> {
    r.map_err(|e| e.to_string())
}

/// The metric that counts analyses answered by `path`.
fn lp_path_metric(path: SolverPath) -> &'static str {
    match path {
        SolverPath::ClosedForm => "lp.path_closed_form",
        SolverPath::CacheHit => "lp.path_cache_hit",
        SolverPath::SparseSimplex => "lp.path_simplex",
    }
}

/// `(name, why)` of every workload, as listed in `BENCHMARK.json`.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("hc_sync", "One-round HyperCube on its own input class on the reference loop: routing, row ingest and local join are all of it; planning is <0.1 ms and must show nothing."),
    ("hc_async", "The same tuples through BlockAssembler, BlockPool, queues and p threads: with hc_sync, the sync-vs-event-driven ratio at a size where the data plane dominates."),
    ("chain_rounds", "L8 at eps=0 in 3 rounds: route_tuples from worker state, intermediate views as large as the input, add_local and three barriers - the multi-round half of the paper."),
    ("skew_wco", "Triangle on degree-planted skew through statistics, planner choice and the WCO program: the only workload where stats and planning are a visible share and the planner moves the load."),
    ("net_tcp", "hc_sync's query over TCP sockets: frame encode/decode, reader threads and the master barrier do the moving; nothing else times mpc-net end to end."),
    ("service_mix", "Many small queries on one QueryService, Zipf over five templates, closed loop with 4 in flight: fixed per-query overhead shows here and a bulk data-plane gain should not."),
    ("plan_only", "No data movement: parse, LP, planner choice, shares and plan compilation over 160 query texts with a cold LP cache per pass - the bypass for data-plane changes, the target for planner ones."),
];

/// What the timed iterations of a run produced.
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall-clock of each query, text to unioned output, in milliseconds.
    pub query_ms: Vec<f64>,
    /// Timed wall-clock spent, in seconds (oracle checks excluded).
    pub timed_s: f64,
    pub attempted: u64,
    /// Errors, outputs that differ from the oracle and rejected submissions.
    pub failed: u64,
}

/// One workload, set up from a seed: its inputs, its oracle and — for the
/// service — the running program under test.
pub trait Workload {
    /// One timed unit of work (a query, a batch or a planning pass) through
    /// the top-level entry point, then its oracle check outside the timing.
    fn iterate(&mut self, out: &mut Samples);

    /// Iterations run before the first timed one, counted in `setup_s`.
    fn warm_up(&mut self) {
        let mut scratch = Samples::default();
        for _ in 0..3 {
            self.iterate(&mut scratch);
        }
    }

    /// `(max_load_bytes, replication)` of the iterations so far.
    fn load(&self) -> (f64, f64);

    /// One iteration of the staged, single-threaded replica of the pipeline,
    /// recording a span per stage. Returns whether its output was correct.
    fn trace(&mut self, tracer: &mut Tracer) -> bool;

    /// Queries one iteration (timed or traced) holds, where it is a pass
    /// over many.
    fn queries_per_iteration(&self) -> f64 {
        1.0
    }

    /// The per-layer counts and reference readings of a traced run; the
    /// harness fills in the span times itself.
    fn layer_metrics(&mut self, untraced_p50_ms: f64, m: &mut Metrics);

    /// Stop whatever `build` started and wait for it to end.
    fn shut_down(self: Box<Self>) {}
}

/// Set the workload `name` up from `seed`. `corrupt` plants a wrong tuple
/// in the oracle, so that every check must fail.
pub fn build(name: &str, seed: u64, corrupt: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "hc_sync" => Box::new(sim::SimWorkload::new(sim::Kind::HcSync, seed, corrupt)),
        "hc_async" => Box::new(sim::SimWorkload::new(sim::Kind::HcAsync, seed, corrupt)),
        "chain_rounds" => Box::new(sim::SimWorkload::new(sim::Kind::ChainRounds, seed, corrupt)),
        "skew_wco" => Box::new(sim::SimWorkload::new(sim::Kind::SkewWco, seed, corrupt)),
        "net_tcp" => Box::new(sim::SimWorkload::new(sim::Kind::NetTcp, seed, corrupt)),
        "service_mix" => Box::new(service_mix::ServiceMix::new(seed, corrupt)),
        "plan_only" => Box::new(plan_only::PlanOnly::new(seed, corrupt)),
        _ => return None,
    })
}
