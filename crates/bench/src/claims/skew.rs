//! Skew: the skew-resilient before/after ablation (E7), the one-round vs
//! worst-case-optimal crossover (E12) and the adaptive runtime (E13).

use mpc_core::analysis::QueryAnalysis;
use mpc_core::hypercube::HyperCubeProgram;
use mpc_core::skew::{HeavyHitterPolicy, SkewResilientProgram};
use mpc_core::space_exponent::space_exponent;
use mpc_core::wco::{PlannerChoice, WcoLoadPrediction, WcoProgram, WorstCaseOptimalPlan};
use mpc_cq::families;
use mpc_data::matching_database;
use mpc_data::skew::{degree_planted_database, heavy_hitter_database, zipf_database};
use mpc_data::{DbStatistics, StatsMode};
use mpc_sim::reroute::RerouteHost;
use mpc_sim::{AsyncConfig, Cluster, MpcConfig, MpcProgram, StragglerSpec};
use mpc_storage::join::evaluate;

use crate::{Outcome, Scale, TextTable};

row! {
    struct SkewRow {
        query: String = "query",
        input: String = "input",
        p: usize,
        vanilla_max_bytes: u64 = "HC max B",
        vanilla_balance: f64 = "HC balance" => |r| format!("{:.2}", r.vanilla_balance),
        vanilla_within_budget: bool = "HC ok",
        resilient_max_bytes: u64 = "skew-res max B",
        resilient_balance: f64 = "skew-res balance" => |r| format!("{:.2}", r.resilient_balance),
        resilient_within_budget: bool = "skew-res ok",
        heavy_values: usize = "heavy vals",
        plans: usize = "plans",
    }
}

/// E7: vanilla HyperCube against the skew-resilient residual plans on
/// identical matching, Zipf and heavy-hitter inputs. Checks that the
/// resilient program answers like vanilla and stays within budget on
/// every row.
pub(super) fn skew_ablation(scale: Scale) -> Outcome {
    let n = scale.pick(6000, 600);
    let p = 32;
    let mut out = Outcome::default();
    let mut rows = Vec::new();
    for q in [families::chain(2), families::cycle(3)] {
        let eps = space_exponent(&q).expect("LP solvable").to_f64();
        let cluster = Cluster::new(MpcConfig::new(p, eps)).expect("valid config");
        let hc = HyperCubeProgram::new(&q, p, 0x5EED).expect("HC plans");
        let inputs = [
            ("matching", matching_database(&q, n, 5)),
            ("zipf θ=0.8", zipf_database(&q, n, n as usize, 0.8, 5)),
            ("zipf θ=1.2", zipf_database(&q, n, n as usize, 1.2, 5)),
            ("heavy 50%", heavy_hitter_database(&q, n, n as usize, 0.5, 5)),
        ];
        for (input, db) in inputs {
            let vanilla = cluster.run(&hc, &db).expect("HC run succeeds");
            let program =
                SkewResilientProgram::new(&q, &db, p, &HeavyHitterPolicy::default(), 0x5EED)
                    .expect("skew-resilient plan builds");
            let resilient = cluster.run(&program, &db).expect("skew-resilient run succeeds");
            out.check(resilient.output.same_tuples(&vanilla.output), || {
                format!("{} on {input}: skew-resilient output differs from vanilla", q.name())
            });
            out.check(resilient.within_budget(), || {
                format!("{} on {input}: over budget even with residual plans", q.name())
            });
            if !vanilla.within_budget() {
                let (name, v, r) = (q.name(), vanilla.summary(), resilient.summary());
                out.report.push_str(&format!(
                    "{name} on {input}: vanilla  {v}\n{name} on {input}: resilient {r}\n"
                ));
            }
            rows.push(SkewRow {
                query: q.name().to_string(),
                input: input.to_string(),
                p,
                vanilla_max_bytes: vanilla.max_load_bytes(),
                vanilla_balance: vanilla.max_balance_ratio(),
                vanilla_within_budget: vanilla.within_budget(),
                resilient_max_bytes: resilient.max_load_bytes(),
                resilient_balance: resilient.max_balance_ratio(),
                resilient_within_budget: resilient.within_budget(),
                heavy_values: program.plan_set().heavy().num_heavy_values(),
                plans: program.plan_set().plans().len(),
            });
        }
    }
    out.table(
        &format!(
            "E7 — skew ablation, before/after: vanilla HyperCube vs skew-resilient residual \
             plans (n ≈ {n}, p = {p})"
        ),
        &TextTable::of(&rows),
    );
    out.note(
        "Expected shape: matchings balance within a small constant of perfect (ratio ≈ 1–2) and \
         detect no heavy hitters (1 plan). Zipf and heavy-hitter inputs concentrate load on the \
         servers owning the heavy hash keys and blow the vanilla budget; the resilient program \
         splits those values into residual plans (heavy variables degenerate, light variables \
         re-partitioned over a dedicated server group) and stays within budget on every row \
         where vanilla HyperCube fails.",
    );
    out.rows(&rows);
    out
}

row! {
    struct CrossoverRow {
        query: String,
        p: usize = "p",
        rounds: usize = "rounds",
        hc_max_tuples: u64 = "HC max tuples",
        wco_max_tuples: u64 = "WCO max tuples",
        wco_predicted: f64 = "WCO predicted" => |r| format!("{:.1}", r.wco_predicted),
        agm_target: f64 = "AGM target" => |r| format!("{:.1}", r.agm_target),
        one_round_target: f64 = "1-round target" => |r| format!("{:.1}", r.one_round_target),
        wco_wins: bool = "winner"
            => |r| if r.wco_wins { "WCO" } else { "one-round" }.to_string(),
    }
}

/// E12: one-round HyperCube against the worst-case-optimal program on
/// `C3`, `C4` and `K4` with one planted key of degree `n/2` per relation.
/// Checks that WCO wins at the largest `p`, that both answer alike, and
/// that every WCO round stays within `4 × predicted + 16` tuples.
pub(super) fn wco_crossover(scale: Scale) -> Outcome {
    const SLACK: f64 = 4.0;
    let n = scale.pick(2000, 300);
    let queries = [
        families::triangle(),
        families::cycle(4),
        families::clique(4).expect("K4 is a valid clique"),
    ];
    let mut out = Outcome::default();
    let mut rows = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let eps = space_exponent(q).expect("LP solvable").to_f64();
        let analysis = QueryAnalysis::analyze(q).expect("analysis succeeds");
        let choice =
            analysis.planner_choice(mpc_lp::Rational::ZERO, true).expect("planner choice resolves");
        out.check(choice == PlannerChoice::WorstCaseOptimal, || {
            format!("{}: a skewed cyclic query is planned as {choice:?}, not WCO", q.name())
        });
        // Heavy enough to pin the one-round load, light enough that the
        // WCO heavy grids stay small.
        let db = degree_planted_database(q, 8 * n as u64, n, 1, n / 2, 41 + qi as u64);
        let first = rows.len();
        for p in [4usize, 8, 16, 32, 64] {
            let cluster = Cluster::new(MpcConfig::new(p, eps)).expect("cluster config valid");
            let hc = HyperCubeProgram::new(q, p, 0x5EED).expect("HC plans");
            let hc = cluster.run(&hc, &db).expect("HC run succeeds");
            let plan = WorstCaseOptimalPlan::build(q, &db, p).expect("WCO plan builds");
            plan.verify_round_floor().expect("round floor holds");
            let pred = WcoLoadPrediction::predict(&plan).expect("prediction succeeds");
            let program = WcoProgram::with_plan(plan, 7 + p as u64);
            let wco = cluster.run(&program, &db).expect("WCO run succeeds");
            out.check(wco.output.same_tuples(&hc.output), || {
                format!(
                    "{} at p = {p}: WCO answered {} tuples, HyperCube {}",
                    q.name(),
                    wco.output.len(),
                    hc.output.len()
                )
            });
            for cmp in pred.compare(&wco).expect("round counts match") {
                out.check(
                    cmp.simulated_max_tuples as f64 <= SLACK * cmp.predicted_tuples + 16.0,
                    || {
                        format!(
                            "{} at p = {p}: round {} measured {} escapes {SLACK} × {:.1} + 16",
                            q.name(),
                            cmp.round,
                            cmp.simulated_max_tuples,
                            cmp.predicted_tuples
                        )
                    },
                );
            }
            rows.push(CrossoverRow {
                query: q.name().to_string(),
                p,
                rounds: wco.num_rounds(),
                hc_max_tuples: hc.max_load_tuples(),
                wco_max_tuples: wco.max_load_tuples(),
                wco_predicted: pred.max_predicted_tuples(),
                agm_target: pred.agm_target,
                one_round_target: pred.one_round_target,
                wco_wins: wco.max_load_tuples() < hc.max_load_tuples(),
            });
        }
        out.table(
            &format!(
                "E12 — {} under a planted heavy hitter (deg = n/2, n = {n}): one-round HyperCube \
                 vs worst-case optimal",
                q.name()
            ),
            &TextTable::of(&rows[first..]),
        );
        let last = rows.last().expect("sweep is non-empty");
        out.check(last.wco_wins, || {
            format!(
                "{}: one-round still wins at p = {} ({} vs {} tuples) — no crossover",
                last.query, last.p, last.hc_max_tuples, last.wco_max_tuples
            )
        });
    }
    out.note(
        "Expected shape: at small p the one-round HyperCube wins (the WCO staging and \
         broadcast rounds cost more than they save), but its max load is pinned at Θ(deg/p^(1/k)) \
         by the planted hitter while the WCO rounds keep decaying as n/p^(1/ρ*) — so the winner \
         column flips to WCO as p grows, on every cyclic query. The measured WCO loads stay \
         inside the slack × predicted bracket computed from the plan's exact tuple masses.",
    );
    out.rows(&rows);
    out
}

row! {
    struct CostRow {
        n: u64 = "n",
        exact_scanned: usize = "exact scan",
        sampled_scanned: usize = "sampled scan",
        exact_output: usize = "exact out",
        sampled_output: usize = "sampled out",
        load_ratio: f64 = "load ×" => |r| format!("{:.2}", r.load_ratio),
    }
}

row! {
    struct MatrixRow {
        stats: String = "stats",
        schedule: String = "schedule",
        backend: String = "backend",
        output_tuples: usize = "out",
        max_load_bytes: u64 = "max load B",
        makespan: Option<u64> = "makespan"
            => |r| r.makespan.map_or("—".to_string(), |m| m.to_string()),
        identical: bool = "ok" => |r| if r.identical { "✓" } else { "DIVERGED" }.to_string(),
    }
}

#[derive(serde::Serialize)]
struct AdaptiveRows {
    cost: Vec<CostRow>,
    matrix: Vec<MatrixRow>,
    recovery: f64,
    moved_cells: usize,
}

/// E13: the adaptive runtime end to end, three gates:
///
/// 1. planning on a sample is sublinear: as the input grows 4× the exact
///    statistics scan grows with it while the sampled scan stays flat, at
///    a sampled plan load within 3× of the exact plan's;
/// 2. rerouting a seeded straggler pinned to a heavy grid cell recovers
///    at least 30% of the static makespan;
/// 3. the output is identical across {exact, sampled} statistics ×
///    {static, rerouting} schedules × {sync, async} backends, and equal to
///    the sequential join.
pub(super) fn adaptive_runtime(scale: Scale) -> Outcome {
    const P: usize = 16;
    const SLOWDOWN: u64 = 16;
    const MIN_RECOVERY: f64 = 0.30;
    let q = families::triangle();
    let base_n = scale.pick(1500, 300);
    // The sample must stay below the smallest swept input, or sampling
    // degenerates to the exact scan and gate 1 is vacuous.
    let budget = (base_n / 2).min(600) as usize;
    let mut out = Outcome::default();

    let cluster = Cluster::new(MpcConfig::new(P, 0.9)).expect("valid config");
    let mut cost = Vec::new();
    for n in [base_n, 2 * base_n, 4 * base_n] {
        let db = heavy_hitter_database(&q, n.max(4) / 2, n as usize, 0.5, 21);
        let exact = DbStatistics::collect(&db, StatsMode::Exact);
        let sampled = DbStatistics::collect(&db, StatsMode::Sampled { budget, seed: 13 });
        let exact_prog =
            WcoProgram::new_with_stats(&q, &db, P, 5, &exact).expect("exact plan builds");
        let sampled_prog =
            WcoProgram::new_with_stats(&q, &db, P, 5, &sampled).expect("sampled plan builds");
        let expected = evaluate(&q, &db).expect("sequential join");
        let exact_run = cluster.run(&exact_prog, &db).expect("exact plan runs");
        let sampled_run = cluster.run(&sampled_prog, &db).expect("sampled plan runs");
        out.check(
            exact_run.output.same_tuples(&expected) && sampled_run.output.same_tuples(&expected),
            || format!("a plan at n = {n} computed a wrong join"),
        );
        cost.push(CostRow {
            n,
            exact_scanned: exact.scanned_tuples(),
            sampled_scanned: sampled.scanned_tuples(),
            exact_output: exact_run.output.len(),
            sampled_output: sampled_run.output.len(),
            load_ratio: sampled_run.max_load_bytes() as f64
                / exact_run.max_load_bytes().max(1) as f64,
        });
    }
    out.table("Planning on a sample: scan cost vs input size (E13, gate 1)", &TextTable::of(&cost));
    let (first, last) = (&cost[0], &cost[cost.len() - 1]);
    let exact_growth = last.exact_scanned as f64 / first.exact_scanned.max(1) as f64;
    let sampled_growth = last.sampled_scanned as f64 / first.sampled_scanned.max(1) as f64;
    out.note(&format!(
        "Input grew 4×: exact scan grew {exact_growth:.2}×, sampled scan {sampled_growth:.2}×."
    ));
    out.check(exact_growth >= 3.0, || {
        "exact statistics scan did not grow with the input (sweep too small?)".to_string()
    });
    out.check(sampled_growth <= 1.5, || {
        "sampled statistics scan grew with the input — not sublinear".to_string()
    });
    out.check(last.load_ratio <= 3.0, || {
        "sampled plan quality degraded: max load over 3× the exact plan's".to_string()
    });

    // Gates 2 and 3 share one workload: a heavy-hitter triangle with the
    // straggler pinned (by seed search) to a movable heavy grid cell.
    let n = base_n * 2;
    let db = heavy_hitter_database(&q, n.max(4) / 2, n as usize, 0.5, 21);
    let expected = evaluate(&q, &db).expect("sequential join");
    let exact_cells = {
        let stats = DbStatistics::collect(&db, StatsMode::Exact);
        WcoProgram::new_with_stats(&q, &db, P, 5, &stats).expect("plan builds").reroutable_cells()
    };
    let Some(straggler) = (0..512u64)
        .map(|seed| StragglerSpec::new(seed, 1, SLOWDOWN))
        .find(|spec| spec.pick(P).iter().any(|c| exact_cells.contains(c)))
    else {
        out.failures.push("no straggler seed hits a heavy grid cell".to_string());
        return out;
    };
    let async_cfg = AsyncConfig::new().with_straggler(straggler);

    let mut matrix = Vec::new();
    let mut recovery = 0.0f64;
    let mut moved_cells = 0usize;
    for (label, mode) in
        [("exact", StatsMode::Exact), ("sampled", StatsMode::Sampled { budget, seed: 13 })]
    {
        let stats = DbStatistics::collect(&db, mode);
        let program = WcoProgram::new_with_stats(&q, &db, P, 5, &stats).expect("plan builds");
        // Observe → decide → act on the event-driven backend: baseline is
        // the static schedule, adaptive the rerouted one, both under the
        // same injected straggler.
        let run = cluster.run_adaptive(&program, &db, &async_cfg).expect("adaptive run completes");
        if let Some(d) = run.divergence() {
            out.failures.push(format!("{label}: static/rerouted divergence: {d}"));
        }
        if label == "exact" {
            recovery = run.recovery();
            moved_cells = run.plan.len();
            out.check(!run.plan.is_empty(), || {
                "the controller moved nothing despite a pinned straggler".to_string()
            });
        }
        // The same plan replayed on the synchronous backend: rerouting is
        // a program transformation, not a backend feature.
        let host = RerouteHost::new(&program, run.plan.clone());
        let sync_static = cluster.run(&program, &db).expect("sync static run");
        let sync_reroute = cluster.run(&host, &db).expect("sync rerouted run");
        let (b, a) = (&run.baseline, &run.adaptive);
        let cells = [
            ("static", "sync", &sync_static, None),
            ("static", "async", &b.result, Some(b.schedule.makespan)),
            ("reroute", "sync", &sync_reroute, None),
            ("reroute", "async", &a.result, Some(a.schedule.makespan)),
        ];
        for (schedule, backend, result, makespan) in cells {
            matrix.push(MatrixRow {
                stats: label.to_string(),
                schedule: schedule.to_string(),
                backend: backend.to_string(),
                output_tuples: result.output.len(),
                max_load_bytes: result.max_load_bytes(),
                makespan,
                identical: result.output.same_tuples(&expected),
            });
        }
    }
    out.table(
        "Output equivalence: stats × schedule × backend (E13, gate 3)",
        &TextTable::of(&matrix),
    );
    out.note(&format!(
        "Straggler: {moved_cells} heavy cell(s) moved; rerouting recovered \
         {:.1}% of the static makespan (gate 2 floor: {:.0}%).",
        recovery * 100.0,
        MIN_RECOVERY * 100.0
    ));
    out.check(matrix.iter().all(|r| r.identical), || {
        "the equivalence matrix has a diverging cell".to_string()
    });
    out.check(recovery >= MIN_RECOVERY, || {
        format!(
            "rerouting recovered only {:.1}% of the straggled makespan (need {:.0}%)",
            recovery * 100.0,
            MIN_RECOVERY * 100.0
        )
    });
    out.rows(&AdaptiveRows { cost, matrix, recovery, moved_cells });
    out.passed = "\nAll E13 gates passed.\n".to_string();
    out
}
