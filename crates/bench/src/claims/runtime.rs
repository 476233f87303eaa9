//! Beyond the PODS paper: schedules under stragglers (E9), the journal
//! version's output-sensitive bounds (E10, arXiv:1602.06236) and the
//! multi-query service (E11).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mpc_core::analysis::QueryAnalysis;
use mpc_core::hypercube::HyperCubeProgram;
use mpc_core::multiround::executor::PlanProgram;
use mpc_core::multiround::planner::MultiRoundPlan;
use mpc_core::space_exponent::space_exponent;
use mpc_cq::{families, Query};
use mpc_data::{matching_database, output_controlled_database};
use mpc_lp::Rational;
use mpc_net::{QueryJob, QueryOutcome, QueryService, ServiceConfig};
use mpc_sim::{AsyncConfig, Cluster, MpcConfig, MpcProgram, RunResult, StragglerSpec};
use mpc_storage::Database;

use crate::{Outcome, Scale, TextTable};

row! {
    struct ScheduleRow {
        query: String = "query",
        rounds: usize = "rounds",
        stragglers: String = "stragglers",
        max_load_bytes: u64 = "max load B",
        replication: f64 = "repl" => |r| format!("{:.2}", r.replication),
        makespan: u64 = "makespan",
        critical_path: u64 = "crit path",
        max_barrier_wait: u64 = "barrier wait",
        blocked_ticks: u64 = "blocked",
        efficiency: f64 = "efficiency" => |r| format!("{:.2}", r.efficiency),
    }
}

/// One table of E9: programs under every straggler spec of the sweep at
/// one block capacity, with the divergences found on the way.
struct StragglerTable {
    block_capacity: usize,
    rows: Vec<ScheduleRow>,
    failures: Vec<String>,
}

impl StragglerTable {
    /// Run `program` on both backends under each (label, spec, per-link
    /// queue capacity); the last spec shrinks the send window so the
    /// straggler's slow ingest backpressures its senders.
    fn sweep<P: MpcProgram>(&mut self, name: &str, program: &P, db: &Database, cfg: MpcConfig) {
        let specs = [
            ("none", None, 64),
            ("1 × 4", Some(StragglerSpec::new(11, 1, 4)), 64),
            ("1 × 16", Some(StragglerSpec::new(11, 1, 16)), 64),
            ("3 × 4", Some(StragglerSpec::new(23, 3, 4)), 64),
            ("1 × 16, win 2", Some(StragglerSpec::new(11, 1, 16)), 2),
        ];
        let cluster = Cluster::new(cfg).expect("valid config");
        let first = self.rows.len();
        for (label, straggler, capacity) in specs {
            let mut async_cfg = AsyncConfig::new()
                .with_queue_capacity(capacity)
                .with_block_capacity(self.block_capacity);
            if let Some(spec) = straggler {
                async_cfg = async_cfg.with_straggler(spec);
            }
            let synchronous = cluster.run(program, db).expect("synchronous run completes");
            let event_driven =
                cluster.run_async(program, db, &async_cfg).expect("event-driven run completes");
            if let Some(d) = synchronous.divergence(&event_driven.result) {
                self.failures.push(format!("divergence on {name} ({label}): {d}"));
            }
            let (result, sched) = (&event_driven.result, &event_driven.schedule);
            self.rows.push(ScheduleRow {
                query: name.to_string(),
                rounds: result.num_rounds(),
                stragglers: label.to_string(),
                max_load_bytes: result.max_load_bytes(),
                replication: result.max_replication_rate(),
                makespan: sched.makespan,
                critical_path: sched.critical_path,
                max_barrier_wait: sched.max_barrier_wait(),
                blocked_ticks: sched.total_blocked(),
                efficiency: sched.schedule_efficiency(),
            });
        }
        let (baseline, injected) = self.rows[first..].split_first().expect("non-empty sweep");
        for r in injected {
            if (r.max_load_bytes, r.rounds) != (baseline.max_load_bytes, baseline.rounds) {
                let what = format!("divergence on {name} ({}): volumes changed", r.stragglers);
                self.failures.push(what);
            }
        }
        if injected.iter().all(|r| r.makespan <= baseline.makespan) {
            self.failures.push(format!("stragglers did not inflate the makespan of {name}"));
        }
    }
}

/// E9: HyperCube and multi-round plans on the event-driven backend under
/// seeded stragglers. Volumes (max load, replication, rounds) stay what
/// the synchronous backend measures; the virtual-clock makespan inflates.
/// Checks that no run diverges from the synchronous backend, no volume
/// moves with the stragglers, and the worst straggler inflates the
/// makespan. The smoke run repeats the sweep at block capacity 1, the
/// per-tuple degeneration of the block data plane.
pub(super) fn straggler_schedule(scale: Scale) -> Outcome {
    let (n_hc, n_plan) = scale.pick((2000, 600), (200, 100));
    let default_capacity = AsyncConfig::default().block_capacity;
    let mut out = Outcome::default();
    let mut rows = Vec::new();
    for block_capacity in scale.pick(vec![default_capacity], vec![default_capacity, 1]) {
        let mut table = StragglerTable { block_capacity, rows: Vec::new(), failures: Vec::new() };
        // One-round HyperCube on the triangle: the straggler stalls the
        // only barrier.
        let q = families::triangle();
        let db = matching_database(&q, n_hc, 11);
        let eps = space_exponent(&q).expect("LP solvable").to_f64();
        let program = HyperCubeProgram::new(&q, 27, 42).expect("allocation");
        table.sweep("C3 (HC)", &program, &db, MpcConfig::new(27, eps));
        // Multi-round chains: the straggler stalls every round's barrier.
        for k in [4usize, 8] {
            let q = families::chain(k);
            let db = matching_database(&q, n_plan, 7);
            let plan = MultiRoundPlan::build(&q, Rational::ZERO).expect("planable");
            let program = PlanProgram::new(&plan, 8, 5).expect("compilable");
            table.sweep(&format!("L{k} (plan)"), &program, &db, MpcConfig::new(8, 0.0));
        }
        out.table(
            "Straggler injection: volumes constant, schedules inflated (E9)",
            &TextTable::of(&table.rows),
        );
        out.note(
            "Volume columns (max load, replication, rounds) are identical across \
             straggler specs and identical to the synchronous backend; schedule \
             columns come from the event-driven backend's virtual clock.",
        );
        out.failures.extend(table.failures);
        rows.extend(table.rows);
    }
    out.rows(&rows);
    out
}

row! {
    struct SweepRow {
        query: String = "query",
        p: usize = "p",
        n: u64,
        m: u64 = "m",
        lower_tuples: f64 = "lower (m/p)^(1/ρ*)" => |r| format!("{:.1}", r.lower_tuples),
        matching_lower_tuples: f64 = "matching lower"
            => |r| format!("{:.1}", r.matching_lower_tuples),
        rounded_upper_tuples: f64 = "upper Σ n·repl/cells"
            => |r| format!("{:.1}", r.rounded_upper_tuples),
        simulated_max_tuples: u64 = "simulated max tuples",
        max_emitted_per_server: usize = "max emitted/server",
        output_exact: bool,
        in_bracket: bool = "verdict"
            => |r| if r.in_bracket && r.output_exact { "ok" } else { "FAIL" }.to_string(),
    }
}

row! {
    struct RoundRow {
        query: String = "query",
        round: usize = "round",
        predicted_tuples: f64 = "predicted tuples/server"
            => |r| format!("{:.1}", r.predicted_tuples),
        simulated_max_tuples: u64 = "simulated max tuples",
        ratio: f64 = "ratio" => |r| format!("{:.2}", r.ratio),
        ok: bool = "verdict" => |r| if r.ok { "ok" } else { "FAIL" }.to_string(),
    }
}

#[derive(serde::Serialize)]
struct OutputSensitiveRows {
    sweep: Vec<SweepRow>,
    rounds: Vec<RoundRow>,
}

/// E10: the journal version's output-sensitive load bounds. Any correct
/// one-round run must receive at least `(m/p)^{1/ρ*}` tuples on some
/// server, while HyperCube stays within its rounding-aware upper bound
/// `Σⱼ n·replⱼ/cells`; the sweep plants databases whose output
/// cardinality `m` is exact by construction. A second table compares
/// `MultiRoundPlan::predict_loads` with the simulated per-round maxima on
/// matching chains. Checks that every planted output is exact, every load
/// sits inside `[lower, upper × 2]`, every server emits at least `m/p`
/// at its busiest, and every round prediction is within 2× of the
/// simulation.
pub(super) fn output_sensitive(scale: Scale) -> Outcome {
    const SLACK: f64 = 2.0;
    let n = scale.pick(4000, 400);
    let mut out = Outcome::default();
    let cases = [
        (families::triangle(), 27usize),
        (families::cycle(4), 16),
        (families::chain(3), 16),
        (families::star(3), 16),
    ];
    let mut sweep = Vec::new();
    for (q, p) in cases {
        let analysis = QueryAnalysis::analyze(&q).expect("LP solvable");
        let cluster = Cluster::new(MpcConfig::new(p, analysis.space_exponent.to_f64()))
            .expect("cluster config valid");
        let program = HyperCubeProgram::new(&q, p, 0x5EED).expect("HyperCube plans");
        let mut ms: Vec<u64> =
            [0.0, 0.01, 0.1, 0.5, 1.0].iter().map(|f| (n as f64 * f) as u64).collect();
        ms.dedup();
        for (i, m) in ms.into_iter().enumerate() {
            let planted = output_controlled_database(&q, n, m, 42 + i as u64);
            let bounds = analysis.output_bounds(n, m, p).expect("bounds computable");
            let run = cluster.run(&program, &planted.db).expect("HyperCube run succeeds");
            let verdict = bounds
                .bracket(&q, program.allocation(), run.max_load_tuples(), SLACK)
                .expect("bracket computable");
            let max_emitted = run.per_server_output.iter().copied().max().unwrap_or(0);
            let name = q.name();
            out.check(run.output.len() as u64 == planted.output_size, || {
                format!(
                    "{name} m={m}: simulated output {} ≠ planted cardinality {}",
                    run.output.len(),
                    planted.output_size
                )
            });
            out.check(verdict.lower_ok, || {
                format!(
                    "{name} m={m}: simulated load {} beats the proven lower bound {:.2}",
                    verdict.simulated_max_tuples, verdict.lower_tuples
                )
            });
            out.check(verdict.upper_ok, || {
                format!(
                    "{name} m={m}: simulated load {} exceeds upper {:.2} × slack {SLACK}",
                    verdict.simulated_max_tuples, verdict.rounded_upper_tuples
                )
            });
            out.check((max_emitted as f64) + 1e-9 >= bounds.output_lower_per_server, || {
                format!(
                    "{name} m={m}: max emitted/server {max_emitted} below m/p = {:.2}",
                    bounds.output_lower_per_server
                )
            });
            sweep.push(SweepRow {
                query: name.to_string(),
                p,
                n,
                m,
                lower_tuples: bounds.lower_tuples,
                matching_lower_tuples: bounds.matching_lower_tuples,
                rounded_upper_tuples: verdict.rounded_upper_tuples,
                simulated_max_tuples: verdict.simulated_max_tuples,
                max_emitted_per_server: max_emitted,
                output_exact: run.output.len() as u64 == planted.output_size,
                in_bracket: verdict.ok(),
            });
        }
    }
    out.table(
        &format!("E10 — output-sensitive bounds, planted databases (n = {n}, slack = {SLACK})"),
        &TextTable::of(&sweep),
    );
    out.note(
        "Expected shape (journal Thm 4.x): the emission lower bound grows like m^(1/ρ*) and \
         meets the matching-expectation bound n^(1-e/τ*)·(m/p)^(1/τ*) at full output; the \
         simulated HyperCube load is flat in m and sits inside [lower, upper·slack] everywhere.",
    );

    let mut rounds = Vec::new();
    for k in [4usize, 8] {
        let q = families::chain(k);
        let p = 8usize;
        let db = matching_database(&q, n, 7 + k as u64);
        let plan = MultiRoundPlan::build(&q, Rational::ZERO).expect("plan builds");
        let profile = plan.predict_loads(p, n).expect("profile computable");
        let program = PlanProgram::new(&plan, p, 3).expect("plan compiles");
        let cluster = Cluster::new(MpcConfig::new(p, 0.0)).expect("cluster config valid");
        let run = cluster.run(&program, &db).expect("plan runs");
        let truth = mpc_storage::join::evaluate(&q, &db).expect("sequential join");
        out.check(run.output.same_tuples(&truth), || {
            format!("L{k}: multi-round output diverges from sequential join")
        });
        for cmp in profile.compare(&run).expect("round counts match") {
            let ok = cmp.ratio <= SLACK && cmp.ratio >= 1.0 / SLACK;
            out.check(ok, || {
                format!(
                    "L{k} round {}: simulated {} vs predicted {:.1} (ratio {:.2}) outside slack",
                    cmp.round, cmp.simulated_max_tuples, cmp.predicted_tuples, cmp.ratio
                )
            });
            rounds.push(RoundRow {
                query: format!("L{k}"),
                round: cmp.round,
                predicted_tuples: cmp.predicted_tuples,
                simulated_max_tuples: cmp.simulated_max_tuples,
                ratio: cmp.ratio,
                ok,
            });
        }
    }
    out.table(
        &format!(
            "E10b — refined multi-round analysis: predicted vs simulated per-round loads \
             (matching databases, n = {n}, p = 8)"
        ),
        &TextTable::of(&rounds),
    );
    out.rows(&OutputSensitiveRows { sweep, rounds });
    out.passed =
        "\nAll sweep points sit inside the proven bracket; multi-round predictions agree.\n"
            .to_string();
    out
}

row! {
    struct TemplateRow {
        template: String = "template",
        submissions: u64 = "submissions",
        mean_latency_micros: u64 = "mean lat µs",
        max_latency_micros: u64 = "max lat µs",
        planning_micros_p50: u64 = "planning µs p50",
        output_tuples: usize = "output",
    }
}

/// Workload-level summary (the headline numbers).
#[derive(serde::Serialize)]
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

#[derive(serde::Serialize)]
struct ServiceRows {
    templates: Vec<TemplateRow>,
    summary: Summary,
}

/// A splitmix-style deterministic generator: the workload must be
/// reproducible across runs and platforms, and the shimmed `rand` crate
/// stays out of the timed loop.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sample a template rank from the truncated Zipf distribution `weights`.
fn sample_zipf(weights: &[f64], state: &mut u64) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u = (next_u64(state) >> 11) as f64 / (1u64 << 53) as f64 * total;
    for (i, w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

struct Template {
    name: &'static str,
    query: Query,
    db: Arc<Database>,
    seed: u64,
    reference: RunResult,
}

/// E11: the query service under a Zipf-over-templates workload (rank `r`
/// drawn ∝ `1/(r+1)^1.1`), 48 queries with 8 in flight on 4 shared
/// reactors. The hottest template is the expensive one to plan (the
/// witness query has no closed-form LP), and every submission is planned
/// afresh: the `planning µs p50` column says what that costs. Checks that
/// every outcome equals a dedicated `Cluster::run` of its program and
/// that at least 4 queries were in flight at once.
pub(super) fn service_throughput(scale: Scale) -> Outcome {
    const P: usize = 4;
    const INFLIGHT: usize = 8;
    const QUERIES: usize = 48;
    const THETA: f64 = 1.1;
    const EPSILON: f64 = 0.5;
    let shapes = [
        ("witness", families::witness_query(), scale.pick(300, 40)),
        ("C3", families::triangle(), scale.pick(500, 60)),
        ("C4", families::cycle(4), scale.pick(400, 60)),
        ("S3", families::star(3), scale.pick(350, 60)),
        ("L3", families::chain(3), scale.pick(450, 60)),
    ];
    let weights: Vec<f64> = (0..shapes.len()).map(|r| 1.0 / ((r + 1) as f64).powf(THETA)).collect();

    // Databases and dedicated-run references are built outside the timed
    // loop: the experiment measures the service, not data generation.
    let cluster = Cluster::new(MpcConfig::new(P, EPSILON)).expect("valid config");
    let templates: Vec<Template> = shapes
        .into_iter()
        .enumerate()
        .map(|(ti, (name, query, n))| {
            let seed = 7 * ti as u64 + 1;
            let db = Arc::new(matching_database(&query, n, seed));
            let program = HyperCubeProgram::new(&query, P, seed).expect("allocation");
            let reference = cluster.run(&program, &db).expect("reference run");
            Template { name, query, db, seed, reference }
        })
        .collect();

    // The timed loop: keep INFLIGHT queries outstanding over one shared
    // service, drain completions as they arrive (out of order).
    let mut svc = QueryService::start(&ServiceConfig::new(P, EPSILON)).expect("service starts");
    let mut rng_state = 0x5eed_u64;
    let mut qid_to_template: HashMap<u64, usize> = HashMap::new();
    let mut outcomes: Vec<QueryOutcome> = Vec::new();
    let (mut submitted, mut outstanding, mut max_observed_inflight) = (0usize, 0usize, 0usize);
    let start = Instant::now();
    while outcomes.len() < QUERIES {
        while submitted < QUERIES && outstanding < INFLIGHT {
            let ti = sample_zipf(&weights, &mut rng_state);
            let t = &templates[ti];
            let job = QueryJob {
                query: t.query.clone(),
                db: Arc::clone(&t.db),
                seed: t.seed,
                plan_epsilon: None,
            };
            let qid = svc.submit(&job).expect("submission accepted").qid;
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

    let mut out = Outcome::default();
    for o in &outcomes {
        let ti = qid_to_template[&o.qid];
        if let Some(what) = templates[ti].reference.divergence(&o.run_result()) {
            out.failures.push(format!("qid {} ({ti}) vs its dedicated run: {what}", o.qid));
        }
    }
    out.check(max_observed_inflight >= 4, || {
        format!("never reached 4 concurrent queries ({max_observed_inflight})")
    });

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
        rows.push(TemplateRow {
            template: t.name.to_string(),
            submissions: mine.len() as u64,
            mean_latency_micros: lat.iter().sum::<u64>() / lat.len() as u64,
            max_latency_micros: *lat.iter().max().expect("non-empty"),
            planning_micros_p50: planning[planning.len() / 2],
            output_tuples: t.reference.output.len(),
        });
    }
    let mut latencies: Vec<u64> = outcomes.iter().map(|o| o.latency_micros).collect();
    latencies.sort_unstable();
    let p99 =
        latencies[((latencies.len() as f64 * 0.99).ceil() as usize - 1).min(latencies.len() - 1)];
    let summary = Summary {
        queries: outcomes.len() as u64,
        p: P,
        inflight_window: INFLIGHT,
        max_observed_inflight,
        elapsed_micros: elapsed.as_micros() as u64,
        queries_per_sec: outcomes.len() as f64 / elapsed.as_secs_f64(),
        mean_latency_micros: latencies.iter().sum::<u64>() / latencies.len() as u64,
        p99_latency_micros: p99,
    };
    out.table(
        "Service throughput under a Zipf-over-templates workload (E11)",
        &TextTable::of(&rows),
    );
    out.note(&format!(
        "{} queries over p = {} shared reactors, window {} (observed {}): \
         {:.1} queries/sec, mean latency {} µs, p99 {} µs.",
        summary.queries,
        summary.p,
        summary.inflight_window,
        summary.max_observed_inflight,
        summary.queries_per_sec,
        summary.mean_latency_micros,
        summary.p99_latency_micros,
    ));
    out.rows(&ServiceRows { templates: rows, summary });
    out
}
