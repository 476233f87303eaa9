//! Experiment **E13** (the adaptive runtime, end to end): sampled
//! statistics feed the planner, the planner's heavy grids declare
//! themselves movable, and the event-driven backend's observed schedule
//! drives mid-round rerouting — three claims, three machine-checked
//! gates (any failure exits non-zero, which is how CI uses this binary):
//!
//! 1. **Planning on a sample is sublinear.** Collecting
//!    `StatsMode::Sampled` statistics scans `O(budget)` tuples per
//!    relation regardless of `n`; as the input grows 4× the exact scan
//!    grows with it while the sampled scan stays flat — at equal plan
//!    quality (both plans compute the exact join; the sampled plan's
//!    max per-server load stays within a small factor of the exact
//!    plan's).
//! 2. **Rerouting recovers the straggled makespan.** A seeded straggler
//!    pinned to a heavy grid cell inflates the static schedule; the
//!    [`mpc_sim::reroute`] controller moves that cell to a fast server
//!    and must recover at least `--recovery` (default 30%) of the
//!    static makespan.
//! 3. **Nothing changes the answer.** The output tuple set is identical
//!    across {exact, sampled} statistics × {static, rerouting}
//!    schedules × {synchronous, event-driven} backends — all eight
//!    cells, each also checked against the sequential join.
//!
//! CLI flags: `--scale <f64>` shrinks/grows the inputs (CI uses 0.1),
//! `--p <usize>` servers (default 16), `--budget <usize>` sample budget
//! (default 600), `--slowdown <usize>` straggler factor (default 16),
//! `--json <path>` (or `MPC_BENCH_JSON=<dir>`) writes the rows as JSON.
//!
//! ```text
//! cargo run --release -p mpc-bench --bin exp_adaptive_runtime
//! ```

use serde::Serialize;

use mpc_bench::{arg_f64, arg_usize, maybe_write_json, scaled, TextTable};
use mpc_core::wco::WcoProgram;
use mpc_cq::families;
use mpc_data::skew::heavy_hitter_database;
use mpc_data::{DbStatistics, StatsMode};
use mpc_sim::reroute::RerouteHost;
use mpc_sim::{AsyncConfig, Cluster, MpcConfig, MpcProgram, StragglerSpec};
use mpc_storage::join::evaluate;
use mpc_storage::Relation;

/// One cell of the equivalence matrix.
#[derive(Serialize)]
struct MatrixRow {
    stats: String,
    schedule: String,
    backend: String,
    output_tuples: usize,
    max_load_bytes: u64,
    makespan: Option<u64>,
    identical: bool,
}

/// One point of the sampling-cost sweep.
#[derive(Serialize)]
struct CostRow {
    n: u64,
    exact_scanned: usize,
    sampled_scanned: usize,
    exact_output: usize,
    sampled_output: usize,
    load_ratio: f64,
}

#[derive(Serialize)]
struct Rows {
    cost: Vec<CostRow>,
    matrix: Vec<MatrixRow>,
    recovery: f64,
    moved_cells: usize,
}

fn fail(msg: &str) -> ! {
    eprintln!("\nFAIL: {msg}");
    std::process::exit(1);
}

/// The straggler seed whose single pick lands on a movable (heavy grid)
/// cell, so the controller has something to move.
fn seed_hitting(cells: &[usize], p: usize, slowdown: u64) -> StragglerSpec {
    for seed in 0..512u64 {
        let spec = StragglerSpec::new(seed, 1, slowdown);
        if spec.pick(p).iter().any(|c| cells.contains(c)) {
            return spec;
        }
    }
    fail("no straggler seed hits a heavy grid cell");
}

fn main() {
    let p = arg_usize("--p", 16);
    let slowdown = arg_usize("--slowdown", 16) as u64;
    let min_recovery = arg_f64("--recovery", 0.30, |v| (0.0..1.0).contains(&v));
    let q = families::triangle();
    let base_n = scaled(1500, 300);
    // The sample must stay below the smallest swept input, or sampling
    // degenerates to the exact scan and the sublinearity gate is vacuous.
    let budget = arg_usize("--budget", (base_n / 2).min(600) as usize);

    // ---------------------------------------------------------------
    // Gate 1: sampled planning cost is sublinear at equal plan quality.
    // ---------------------------------------------------------------
    let mut cost_rows: Vec<CostRow> = Vec::new();
    let mut cost_table =
        TextTable::new(["n", "exact scan", "sampled scan", "exact out", "sampled out", "load ×"]);
    let cluster = Cluster::new(MpcConfig::new(p, 0.9)).expect("valid config");
    for k in [1u64, 2, 4] {
        let n = base_n * k;
        let db = heavy_hitter_database(&q, n.max(4) / 2, n as usize, 0.5, 21);
        let exact = DbStatistics::collect(&db, StatsMode::Exact);
        let sampled = DbStatistics::collect(&db, StatsMode::Sampled { budget, seed: 13 });
        let exact_prog =
            WcoProgram::new_with_stats(&q, &db, p, 5, &exact).expect("exact plan builds");
        let sampled_prog =
            WcoProgram::new_with_stats(&q, &db, p, 5, &sampled).expect("sampled plan builds");
        let expected = evaluate(&q, &db).expect("sequential join");
        let exact_run = cluster.run(&exact_prog, &db).expect("exact plan runs");
        let sampled_run = cluster.run(&sampled_prog, &db).expect("sampled plan runs");
        if !exact_run.output.same_tuples(&expected) || !sampled_run.output.same_tuples(&expected) {
            fail(&format!("a plan at n = {n} computed a wrong join"));
        }
        let load_ratio =
            sampled_run.max_load_bytes() as f64 / exact_run.max_load_bytes().max(1) as f64;
        let row = CostRow {
            n,
            exact_scanned: exact.scanned_tuples(),
            sampled_scanned: sampled.scanned_tuples(),
            exact_output: exact_run.output.len(),
            sampled_output: sampled_run.output.len(),
            load_ratio,
        };
        cost_table.row([
            row.n.to_string(),
            row.exact_scanned.to_string(),
            row.sampled_scanned.to_string(),
            row.exact_output.to_string(),
            row.sampled_output.to_string(),
            format!("{:.2}", row.load_ratio),
        ]);
        cost_rows.push(row);
    }
    cost_table.print("Planning on a sample: scan cost vs input size (E13, gate 1)");
    let first = &cost_rows[0];
    let last = &cost_rows[cost_rows.len() - 1];
    let exact_growth = last.exact_scanned as f64 / first.exact_scanned.max(1) as f64;
    let sampled_growth = last.sampled_scanned as f64 / first.sampled_scanned.max(1) as f64;
    println!(
        "\nInput grew 4×: exact scan grew {exact_growth:.2}×, sampled scan {sampled_growth:.2}×."
    );
    if exact_growth < 3.0 {
        fail("exact statistics scan did not grow with the input (sweep too small?)");
    }
    if sampled_growth > 1.5 {
        fail("sampled statistics scan grew with the input — not sublinear");
    }
    if last.load_ratio > 3.0 {
        fail("sampled plan quality degraded: max load over 3× the exact plan's");
    }

    // ---------------------------------------------------------------
    // Gates 2 + 3 share one workload: a heavy-hitter triangle with the
    // straggler pinned (by seed search) to a movable heavy grid cell.
    // ---------------------------------------------------------------
    let n = base_n * 2;
    let db = heavy_hitter_database(&q, n.max(4) / 2, n as usize, 0.5, 21);
    let expected = evaluate(&q, &db).expect("sequential join");
    let modes: [(&str, StatsMode); 2] =
        [("exact", StatsMode::Exact), ("sampled", StatsMode::Sampled { budget, seed: 13 })];
    let exact_cells = {
        let stats = DbStatistics::collect(&db, StatsMode::Exact);
        WcoProgram::new_with_stats(&q, &db, p, 5, &stats).expect("plan builds").reroutable_cells()
    };
    if exact_cells.is_empty() {
        fail("the heavy-hitter input produced no movable heavy grid cells");
    }
    let straggler = seed_hitting(&exact_cells, p, slowdown);
    let async_cfg = AsyncConfig::new().with_straggler(straggler);

    let mut matrix_rows: Vec<MatrixRow> = Vec::new();
    let mut matrix_table =
        TextTable::new(["stats", "schedule", "backend", "out", "max load B", "makespan", "ok"]);
    let push = |rows: &mut Vec<MatrixRow>,
                table: &mut TextTable,
                stats: &str,
                schedule: &str,
                backend: &str,
                output: &Relation,
                max_load: u64,
                makespan: Option<u64>| {
        let row = MatrixRow {
            stats: stats.to_string(),
            schedule: schedule.to_string(),
            backend: backend.to_string(),
            output_tuples: output.len(),
            max_load_bytes: max_load,
            makespan,
            identical: output.same_tuples(&expected),
        };
        table.row([
            row.stats.clone(),
            row.schedule.clone(),
            row.backend.clone(),
            row.output_tuples.to_string(),
            row.max_load_bytes.to_string(),
            row.makespan.map_or("—".to_string(), |m| m.to_string()),
            if row.identical { "✓".to_string() } else { "DIVERGED".to_string() },
        ]);
        rows.push(row);
    };

    let mut recovery = 0.0f64;
    let mut moved_cells = 0usize;
    for (label, mode) in modes {
        let stats = DbStatistics::collect(&db, mode);
        let program = WcoProgram::new_with_stats(&q, &db, p, 5, &stats).expect("plan builds");
        // Observe → decide → act on the event-driven backend: baseline
        // is the static schedule, adaptive the rerouted one, both under
        // the same injected straggler.
        let run = cluster.run_adaptive(&program, &db, &async_cfg).expect("adaptive run completes");
        if let Some(d) = run.divergence() {
            fail(&format!("{label}: static/rerouted divergence: {d}"));
        }
        if label == "exact" {
            recovery = run.recovery();
            moved_cells = run.plan.len();
            if run.plan.is_empty() {
                fail("the controller moved nothing despite a pinned straggler");
            }
        }
        // The same plan replayed on the synchronous backend: rerouting
        // is a program transformation, not a backend feature.
        let host = RerouteHost::new(&program, run.plan.clone());
        let sync_static = cluster.run(&program, &db).expect("sync static run");
        let sync_reroute = cluster.run(&host, &db).expect("sync rerouted run");
        let b = &run.baseline.result;
        let a = &run.adaptive.result;
        push(
            &mut matrix_rows,
            &mut matrix_table,
            label,
            "static",
            "sync",
            &sync_static.output,
            sync_static.max_load_bytes(),
            None,
        );
        push(
            &mut matrix_rows,
            &mut matrix_table,
            label,
            "static",
            "async",
            &b.output,
            b.max_load_bytes(),
            Some(run.baseline.schedule.makespan),
        );
        push(
            &mut matrix_rows,
            &mut matrix_table,
            label,
            "reroute",
            "sync",
            &sync_reroute.output,
            sync_reroute.max_load_bytes(),
            None,
        );
        push(
            &mut matrix_rows,
            &mut matrix_table,
            label,
            "reroute",
            "async",
            &a.output,
            a.max_load_bytes(),
            Some(run.adaptive.schedule.makespan),
        );
    }
    matrix_table.print("Output equivalence: stats × schedule × backend (E13, gate 3)");
    println!(
        "\nStraggler: {moved_cells} heavy cell(s) moved; rerouting recovered \
         {:.1}% of the static makespan (gate 2 floor: {:.0}%).",
        recovery * 100.0,
        min_recovery * 100.0
    );

    let rows = Rows { cost: cost_rows, matrix: matrix_rows, recovery, moved_cells };
    maybe_write_json("exp_adaptive_runtime", &rows);

    if rows.matrix.iter().any(|r| !r.identical) {
        fail("the equivalence matrix has a diverging cell");
    }
    if recovery < min_recovery {
        fail(&format!(
            "rerouting recovered only {:.1}% of the straggled makespan (need {:.0}%)",
            recovery * 100.0,
            min_recovery * 100.0
        ));
    }
    println!("\nAll E13 gates passed.");
}
