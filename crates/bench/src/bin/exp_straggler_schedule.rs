//! Experiment **E9** (schedules, not just volumes; the ROADMAP "Async
//! mpc-sim" item, motivated by the journal version "Communication Cost in
//! Parallel Query Processing", arXiv:1602.06236, and by the skew paper's
//! observation that stragglers stall barriers): the MPC model counts
//! *rounds and bytes*, but real wall-clock behaviour depends on **when**
//! the bytes move. This experiment runs HyperCube and multi-round plans
//! on the event-driven backend under seeded straggler injection and
//! shows the separation the synchronous backend cannot see:
//!
//! * **volume stats are schedule-independent** — max load, replication
//!   and round count are identical with and without stragglers (and
//!   identical to the synchronous backend: the built-in differential
//!   check exits non-zero on any divergence, which is how CI uses this
//!   binary);
//! * **makespan is not** — slowing `k` servers down by `s`× inflates the
//!   virtual-clock makespan and the per-round barrier wait roughly `s`×,
//!   while the dependency-only critical path of the uninjected run stays
//!   put.
//!
//! CLI flags: `--scale <f64>` shrinks/grows the inputs (CI uses 0.1),
//! `--p <usize>` overrides the server count of the HyperCube case (the
//! multi-round plan cases are fixed at `p = 8`), `--batch-size <usize>`
//! sets the block capacity of the async data plane (CI runs a
//! `--batch-size 1` smoke, degenerating to per-tuple packets, on top of
//! the default), `--json <path>` (or `MPC_BENCH_JSON=<dir>`) writes the
//! rows as JSON.
//!
//! Output shape: one markdown table; rows = (query, straggler spec),
//! columns = volume stats (constant per query) and schedule stats
//! (inflating with the injected slowdown).
//!
//! ```text
//! cargo run --release -p mpc-bench --bin exp_straggler_schedule
//! ```

use serde::Serialize;

use mpc_bench::{arg_usize, maybe_write_json, scaled, TextTable};
use mpc_core::hypercube::HyperCubeProgram;
use mpc_core::multiround::executor::PlanProgram;
use mpc_core::multiround::planner::MultiRoundPlan;
use mpc_core::space_exponent::space_exponent;
use mpc_cq::families;
use mpc_data::matching_database;
use mpc_lp::Rational;
use mpc_sim::{AsyncConfig, Cluster, MpcConfig, MpcProgram, StragglerSpec};

#[derive(Serialize)]
struct Row {
    query: String,
    rounds: usize,
    stragglers: String,
    max_load_bytes: u64,
    replication: f64,
    makespan: u64,
    critical_path: u64,
    max_barrier_wait: u64,
    blocked_ticks: u64,
    efficiency: f64,
}

/// The straggler sweep: (label, spec, per-link queue capacity). `None`
/// is the uninjected baseline; the final row shrinks the send window so
/// the straggler's slow ingest backpressures its senders (blocked > 0).
fn sweep() -> Vec<(&'static str, Option<StragglerSpec>, usize)> {
    vec![
        ("none", None, 64),
        ("1 × 4", Some(StragglerSpec::new(11, 1, 4)), 64),
        ("1 × 16", Some(StragglerSpec::new(11, 1, 16)), 64),
        ("3 × 4", Some(StragglerSpec::new(23, 3, 4)), 64),
        ("1 × 16, win 2", Some(StragglerSpec::new(11, 1, 16)), 2),
    ]
}

/// The accumulated experiment output: JSON rows, the printed table, and
/// the fatal divergence flag.
struct Report {
    rows: Vec<Row>,
    table: TextTable,
    diverged: bool,
}

fn run_case<P: MpcProgram>(
    name: &str,
    program: &P,
    db: &mpc_storage::Database,
    cfg: &MpcConfig,
    batch_size: usize,
    out: &mut Report,
) {
    let cluster = Cluster::new(cfg.clone()).expect("valid config");
    let mut baseline_volumes: Option<(u64, usize)> = None;
    for (label, straggler, capacity) in sweep() {
        let mut async_cfg =
            AsyncConfig::new().with_queue_capacity(capacity).with_block_capacity(batch_size);
        if let Some(spec) = straggler {
            async_cfg = async_cfg.with_straggler(spec);
        }
        // The differential check: any async/sync divergence is fatal.
        let synchronous = cluster.run(program, db).expect("synchronous run completes");
        let event_driven =
            cluster.run_async(program, db, &async_cfg).expect("event-driven run completes");
        if let Some(d) = synchronous.divergence(&event_driven.result) {
            eprintln!("DIVERGENCE on {name} ({label}): {d}");
            out.diverged = true;
        }
        let result = &event_driven.result;
        let sched = &event_driven.schedule;
        // Volumes must also be straggler-independent.
        match baseline_volumes {
            None => baseline_volumes = Some((result.max_load_bytes(), result.num_rounds())),
            Some((bytes, rounds)) => {
                if (result.max_load_bytes(), result.num_rounds()) != (bytes, rounds) {
                    eprintln!("DIVERGENCE on {name} ({label}): volumes changed with stragglers");
                    out.diverged = true;
                }
            }
        }
        let row = Row {
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
        };
        out.table.row([
            row.query.clone(),
            row.rounds.to_string(),
            row.stragglers.clone(),
            row.max_load_bytes.to_string(),
            format!("{:.2}", row.replication),
            row.makespan.to_string(),
            row.critical_path.to_string(),
            row.max_barrier_wait.to_string(),
            row.blocked_ticks.to_string(),
            format!("{:.2}", row.efficiency),
        ]);
        out.rows.push(row);
    }
}

fn main() {
    let n_hc = scaled(2000, 200);
    let n_plan = scaled(600, 100);
    let p = arg_usize("--p", 27);
    let batch_size = arg_usize("--batch-size", AsyncConfig::default().block_capacity);
    let mut out = Report {
        rows: Vec::new(),
        table: TextTable::new([
            "query",
            "rounds",
            "stragglers",
            "max load B",
            "repl",
            "makespan",
            "crit path",
            "barrier wait",
            "blocked",
            "efficiency",
        ]),
        diverged: false,
    };

    // One-round HyperCube on the triangle: the straggler stalls the only
    // barrier.
    {
        let q = families::triangle();
        let db = matching_database(&q, n_hc, 11);
        let eps = space_exponent(&q).expect("LP solvable").to_f64();
        let program = HyperCubeProgram::new(&q, p, 42).expect("allocation");
        run_case("C3 (HC)", &program, &db, &MpcConfig::new(p, eps), batch_size, &mut out);
    }

    // Multi-round chains: the straggler stalls *every* round's barrier.
    for k in [4usize, 8] {
        let q = families::chain(k);
        let db = matching_database(&q, n_plan, 7);
        let plan = MultiRoundPlan::build(&q, Rational::ZERO).expect("planable");
        let program = PlanProgram::new(&plan, 8, 5).expect("compilable");
        run_case(
            &format!("L{k} (plan)"),
            &program,
            &db,
            &MpcConfig::new(8, 0.0),
            batch_size,
            &mut out,
        );
    }

    out.table.print("Straggler injection: volumes constant, schedules inflated (E9)");
    println!(
        "\nVolume columns (max load, replication, rounds) are identical across \
         straggler specs and identical to the synchronous backend; schedule \
         columns come from the event-driven backend's virtual clock."
    );
    maybe_write_json("exp_straggler_schedule", &out.rows);

    if out.diverged {
        eprintln!("\nFAIL: async/sync divergence detected");
        std::process::exit(1);
    }
    // Sanity for CI: injected stragglers must actually inflate makespan.
    let baseline: Vec<&Row> = out.rows.iter().filter(|r| r.stragglers == "none").collect();
    for b in baseline {
        let worst = out
            .rows
            .iter()
            .filter(|r| r.query == b.query && r.stragglers != "none")
            .map(|r| r.makespan)
            .max()
            .unwrap_or(0);
        if worst <= b.makespan {
            eprintln!("\nFAIL: stragglers did not inflate the makespan of {}", b.query);
            std::process::exit(1);
        }
    }
}
