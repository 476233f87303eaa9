//! Experiment **E11** (the query *service*, not a single run): `mpc-net`'s
//! [`QueryService`] multiplexes many concurrent conjunctive queries over
//! one shared set of per-server reactors, with per-query tag namespaces
//! keeping the FIN accounting separate. This experiment drives the
//! service with a **Zipf-over-templates** workload — a few hot templates
//! dominate — and reports **queries/sec** and **p99 submit-to-completion
//! latency**.
//!
//! The hottest template is deliberately the expensive one to plan (the
//! witness query has no closed-form LP, so every analysis of it runs the
//! simplex). Every submission is analysed and planned afresh — nothing is
//! memoised — and the per-template `planning µs p50` column says what
//! that costs: a repeated template's planning is microseconds against a
//! latency of milliseconds, which is why no plan or LP cache sits here.
//!
//! Built-in correctness gates (any failure exits non-zero, which is how
//! CI uses this binary):
//!
//! * every outcome's output and per-round statistics must equal a
//!   dedicated [`Cluster::run`] of the same program — multiplexing can
//!   change *latency*, never semantics;
//! * at least `--inflight` (≥ 4) queries are genuinely in flight at once.
//!
//! CLI flags: `--scale <f64>` shrinks/grows the per-template databases
//! (CI uses 0.1), `--queries <usize>` sets the workload length,
//! `--inflight <usize>` the concurrency window (clamped to ≥ 4),
//! `--p <usize>` the server count, `--json <path>` (or
//! `MPC_BENCH_JSON=<dir>`) writes the rows as JSON.
//!
//! ```text
//! cargo run --release -p mpc-bench --bin exp_service_throughput
//! ```

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use mpc_bench::{arg_usize, maybe_write_json, scaled, TextTable};
use mpc_core::hypercube::HyperCubeProgram;
use mpc_cq::{families, Query};
use mpc_data::matching_database;
use mpc_net::{QueryJob, QueryOutcome, QueryService, ServiceConfig};
use mpc_sim::{Cluster, MpcConfig, RunResult};
use mpc_storage::Database;

/// Zipf exponent over template ranks: rank `r` drawn ∝ `1/(r+1)^θ`.
const THETA: f64 = 1.1;

/// Per-template aggregate row of the printed table and JSON artefact.
#[derive(Serialize)]
struct Row {
    template: String,
    submissions: u64,
    mean_latency_micros: u64,
    max_latency_micros: u64,
    planning_micros_p50: u64,
    output_tuples: usize,
}

/// Workload-level summary (the headline numbers).
#[derive(Serialize)]
struct Summary {
    queries: u64,
    p: usize,
    inflight_window: usize,
    max_observed_inflight: usize,
    elapsed_micros: u64,
    queries_per_sec: f64,
    mean_latency_micros: u64,
    p99_latency_micros: u64,
}

#[derive(Serialize)]
struct Artefact {
    templates: Vec<Row>,
    summary: Summary,
}

/// A tiny splitmix-style deterministic generator: the workload must be
/// reproducible across runs and platforms, and the shimmed `rand` crate
/// stays out of the timed loop.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn next_f64(state: &mut u64) -> f64 {
    (next_u64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Sample a template rank from the truncated Zipf(θ) distribution.
fn sample_zipf(weights: &[f64], state: &mut u64) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u = next_f64(state) * total;
    for (i, w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

struct Template {
    query: Query,
    db: Arc<Database>,
    seed: u64,
    reference: RunResult,
}

fn main() {
    let p = arg_usize("--p", 4);
    let inflight_window = arg_usize("--inflight", 8).max(4);
    let total_queries = arg_usize("--queries", 48).max(inflight_window);
    let epsilon = 0.5;

    // Rank order is popularity order: the witness query (no closed-form
    // LP → every analysis runs the simplex) is the hottest template.
    let shapes: Vec<(&str, Query, u64)> = vec![
        ("witness", families::witness_query(), scaled(300, 40)),
        ("C3", families::triangle(), scaled(500, 60)),
        ("C4", families::cycle(4), scaled(400, 60)),
        ("S3", families::star(3), scaled(350, 60)),
        ("L3", families::chain(3), scaled(450, 60)),
    ];
    let weights: Vec<f64> = (0..shapes.len()).map(|r| 1.0 / ((r + 1) as f64).powf(THETA)).collect();

    // Pre-build databases and dedicated-run references outside the timed
    // loop: the experiment measures the service, not data generation.
    let cluster = Cluster::new(MpcConfig::new(p, epsilon)).expect("valid config");
    let templates: Vec<Template> = shapes
        .into_iter()
        .enumerate()
        .map(|(ti, (_, query, n))| {
            let seed = 7 * ti as u64 + 1;
            let db = Arc::new(matching_database(&query, n, seed));
            let program = HyperCubeProgram::new(&query, p, seed).expect("allocation");
            let reference = cluster.run(&program, &db).expect("reference run");
            Template { query, db, seed, reference }
        })
        .collect();

    // The timed loop: keep `inflight_window` queries outstanding over one
    // shared service, drain completions as they arrive (out of order).
    let mut svc = QueryService::start(&ServiceConfig::new(p, epsilon)).expect("service starts");
    let mut rng_state = 0x5eed_u64;
    let mut qid_to_template: HashMap<u64, usize> = HashMap::new();
    let mut outcomes: Vec<QueryOutcome> = Vec::new();
    let mut submitted = 0usize;
    let mut outstanding = 0usize;
    let mut max_observed_inflight = 0usize;
    let start = Instant::now();
    while outcomes.len() < total_queries {
        while submitted < total_queries && outstanding < inflight_window {
            let ti = sample_zipf(&weights, &mut rng_state);
            let t = &templates[ti];
            let qid = svc
                .submit(&QueryJob {
                    query: t.query.clone(),
                    db: Arc::clone(&t.db),
                    seed: t.seed,
                    plan_epsilon: None,
                })
                .expect("submission accepted")
                .qid;
            qid_to_template.insert(qid, ti);
            submitted += 1;
            outstanding += 1;
            max_observed_inflight = max_observed_inflight.max(outstanding);
        }
        outcomes.push(svc.next_outcome().expect("outcome"));
        outstanding -= 1;
    }
    let elapsed = start.elapsed();
    svc.shutdown().expect("clean shutdown");

    // Gate 1: every multiplexed outcome equals its dedicated run.
    let mut diverged = false;
    for o in &outcomes {
        let ti = qid_to_template[&o.qid];
        let t = &templates[ti];
        if let Some(what) = t.reference.divergence(&o.run_result()) {
            eprintln!("DIVERGENCE: qid {} ({}) vs its dedicated run: {what}", o.qid, ti);
            diverged = true;
        }
    }

    // Per-template aggregation.
    let names = ["witness", "C3", "C4", "S3", "L3"];
    let mut rows = Vec::new();
    for (ti, t) in templates.iter().enumerate() {
        let mine: Vec<&QueryOutcome> =
            outcomes.iter().filter(|o| qid_to_template[&o.qid] == ti).collect();
        if mine.is_empty() {
            continue;
        }
        let mut planning: Vec<u64> = mine.iter().map(|o| o.planning_micros).collect();
        planning.sort_unstable();
        let lat: Vec<u64> = mine.iter().map(|o| o.latency_micros).collect();
        rows.push(Row {
            template: names[ti].to_string(),
            submissions: mine.len() as u64,
            mean_latency_micros: lat.iter().sum::<u64>() / lat.len() as u64,
            max_latency_micros: *lat.iter().max().expect("non-empty"),
            planning_micros_p50: planning[planning.len() / 2],
            output_tuples: t.reference.output.len(),
        });
    }

    // Gate 2: the window genuinely multiplexed ≥ 4 concurrent queries.
    if max_observed_inflight < 4 {
        eprintln!("FAIL: never reached 4 concurrent queries ({max_observed_inflight})");
        diverged = true;
    }

    let mut latencies: Vec<u64> = outcomes.iter().map(|o| o.latency_micros).collect();
    latencies.sort_unstable();
    let p99 =
        latencies[((latencies.len() as f64 * 0.99).ceil() as usize - 1).min(latencies.len() - 1)];
    let elapsed_micros = elapsed.as_micros() as u64;
    let summary = Summary {
        queries: outcomes.len() as u64,
        p,
        inflight_window,
        max_observed_inflight,
        elapsed_micros,
        queries_per_sec: outcomes.len() as f64 / elapsed.as_secs_f64(),
        mean_latency_micros: latencies.iter().sum::<u64>() / latencies.len() as u64,
        p99_latency_micros: p99,
    };

    let mut table = TextTable::new([
        "template",
        "submissions",
        "mean lat µs",
        "max lat µs",
        "planning µs p50",
        "output",
    ]);
    for r in &rows {
        table.row([
            r.template.clone(),
            r.submissions.to_string(),
            r.mean_latency_micros.to_string(),
            r.max_latency_micros.to_string(),
            r.planning_micros_p50.to_string(),
            r.output_tuples.to_string(),
        ]);
    }
    table.print("Service throughput under a Zipf-over-templates workload (E11)");
    println!(
        "\n{} queries over p = {} shared reactors, window {} (observed {}): \
         {:.1} queries/sec, mean latency {} µs, p99 {} µs.",
        summary.queries,
        summary.p,
        summary.inflight_window,
        summary.max_observed_inflight,
        summary.queries_per_sec,
        summary.mean_latency_micros,
        summary.p99_latency_micros,
    );
    maybe_write_json("exp_service_throughput", &Artefact { templates: rows, summary });

    if diverged {
        eprintln!("\nFAIL: service outcomes diverged from dedicated runs");
        std::process::exit(1);
    }
}
