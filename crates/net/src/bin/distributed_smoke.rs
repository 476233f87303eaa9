//! CI smoke for the distributed stack: spawned processes and the
//! multi-query service, both checked against `Cluster::run`.
//!
//! Two stages, both differential:
//!
//! 1. **Spawned multi-process runner** — the triangle query under
//!    one-round HyperCube on `p = 4` worker OS processes over localhost
//!    (`mpc_workerd` spawned next to this binary), compared against the
//!    synchronous reference for identical outputs, per-round volumes and
//!    per-server output counts.
//! 2. **Concurrent service trace** — two queries (triangle + 4-cycle)
//!    multiplexed over one shared cluster, each compared the same way.
//!
//! With `--inject PLAN` (e.g. `--inject kill:w2@round1`) the spawned
//! stage runs a third time with the fault plan armed and crash recovery
//! enabled, and requires the recovered run to match the undisturbed
//! reference byte-for-byte while consuming at least one re-spawn.
//!
//! Any divergence prints what differed and exits non-zero, failing the
//! CI job.

use std::process::exit;
use std::sync::Arc;

use mpc_core::analysis::QueryAnalysis;
use mpc_core::plan::PlannerChoice;
use mpc_net::spec::DbSpec;
use mpc_net::{FaultPlan, JobSpec, MasterConfig, QueryJob, QueryService, ServiceConfig};
use mpc_sim::{Cluster, MpcConfig, RunResult};

fn fail(msg: &str) -> ! {
    eprintln!("distributed_smoke: DIVERGENCE: {msg}");
    exit(1);
}

fn check(label: &str, reference: &RunResult, got: &RunResult) {
    if let Some(what) = reference.divergence(got) {
        fail(&format!("{label}: {what}"));
    }
    println!(
        "distributed_smoke: {label}: OK ({} output tuples, {} rounds)",
        got.output.len(),
        got.num_rounds()
    );
}

/// The spawned-stage program, selected by `--program`.
#[derive(Clone, Copy, PartialEq)]
enum SmokeProgram {
    /// One-round HyperCube on a matching (the default).
    HcTriangle,
    /// The worst-case optimal heavy/light program on a heavy-hitter
    /// input, exercising the staging + broadcast-join round.
    WcoTriangle,
}

impl SmokeProgram {
    fn label(self) -> &'static str {
        match self {
            SmokeProgram::HcTriangle => "C3_hc",
            SmokeProgram::WcoTriangle => "C3_wco",
        }
    }
}

fn smoke_job(program: SmokeProgram) -> JobSpec {
    let (program, db) = match program {
        SmokeProgram::HcTriangle => {
            (PlannerChoice::OneRoundHyperCube, DbSpec::Matching { n: 800, seed: 17 })
        }
        // 0.6 · 800 = 480 planted copies of the heavy key; 480 · share
        // > 800 at every share ≥ 2, so the heavy side activates and the
        // spawned workers run the full two-round WCO dataflow.
        SmokeProgram::WcoTriangle => (
            PlannerChoice::WorstCaseOptimal,
            DbSpec::HeavyHitter { n: 600, tuples: 800, frac: 0.6, seed: 17 },
        ),
    };
    JobSpec {
        program,
        query: mpc_cq::families::triangle().to_string(),
        db,
        p: 4,
        epsilon: 0.5,
        seed: 23,
        block_capacity: 128,
    }
}

fn worker_bin() -> std::path::PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("mpc_workerd")))
        .filter(|p| p.exists())
        .unwrap_or_else(|| {
            fail("spawned: mpc_workerd not found next to this binary (build it first: cargo build -p mpc-net --bins)")
        })
}

fn spawned_stage(program: SmokeProgram) -> RunResult {
    let job = smoke_job(program);
    let built = job.build().unwrap_or_else(|e| fail(&format!("spawned: job build: {e}")));
    let reference = built
        .cluster
        .run(built.program.as_ref(), &built.db)
        .unwrap_or_else(|e| fail(&format!("spawned: reference run: {e}")));
    if program == SmokeProgram::WcoTriangle && reference.num_rounds() != 2 {
        fail("spawned C3_wco p=4: heavy side did not activate (expected 2 rounds)");
    }

    let label = format!("spawned {} p=4", program.label());
    let got = mpc_net::run_spawned(&job, &worker_bin())
        .unwrap_or_else(|e| fail(&format!("spawned: distributed run: {e}")));
    check(&label, &reference, &got);
    reference
}

/// Re-run the spawned stage with `plan` armed and recovery enabled; the
/// recovered run must reproduce the undisturbed reference exactly.
fn fault_stage(program: SmokeProgram, reference: &RunResult, plan: FaultPlan) {
    let job = smoke_job(program);
    let label = format!("spawned {} p=4 under {plan}", program.label());
    let cfg = MasterConfig { max_respawns: 2, faults: Some(plan) };
    let report = mpc_net::run_spawned_with(&job, &worker_bin(), &cfg)
        .unwrap_or_else(|e| fail(&format!("{label}: recovering run: {e}")));
    check(&label, reference, &report.result);
    if report.respawns == 0 {
        fail(&format!("{label}: the fault plan never killed anything (0 respawns)"));
    }
    println!("distributed_smoke: {label}: recovered after {} respawn(s)", report.respawns);
}

fn service_stage() {
    let p = 4;
    let q1 = mpc_cq::families::triangle();
    let q2 = mpc_cq::families::cycle(4);
    let db1 = Arc::new(mpc_data::matching_database(&q1, 700, 5));
    let db2 = Arc::new(mpc_data::matching_database(&q2, 500, 6));

    let mut svc = QueryService::start(&ServiceConfig::new(p, 0.5))
        .unwrap_or_else(|e| fail(&format!("service: start: {e}")));
    // Submit both before draining either: the trace is genuinely
    // concurrent on the shared reactors.
    let a = svc
        .submit(&QueryJob { query: q1.clone(), db: db1.clone(), seed: 31, plan_epsilon: None })
        .unwrap_or_else(|e| fail(&format!("service: submit 1: {e}")))
        .qid;
    let b = svc
        .submit(&QueryJob { query: q2.clone(), db: db2.clone(), seed: 32, plan_epsilon: None })
        .unwrap_or_else(|e| fail(&format!("service: submit 2: {e}")))
        .qid;
    let mut outcomes = Vec::new();
    for _ in 0..2 {
        outcomes
            .push(svc.next_outcome().unwrap_or_else(|e| fail(&format!("service: outcome: {e}"))));
    }
    svc.shutdown().unwrap_or_else(|e| fail(&format!("service: shutdown: {e}")));
    outcomes.sort_by_key(|o| o.qid);

    for (qid, q, db, seed) in [(a, q1, db1, 31), (b, q2, db2, 32)] {
        let cluster = Cluster::new(MpcConfig::new(p, 0.5)).expect("valid config");
        let program = QueryAnalysis::analyze(&q)
            .and_then(|analysis| PlannerChoice::OneRoundHyperCube.build(&analysis, &db, p, seed))
            .unwrap_or_else(|e| fail(&format!("service: reference program: {e}")));
        let reference = cluster
            .run(program.as_ref(), &db)
            .unwrap_or_else(|e| fail(&format!("service: reference run: {e}")));
        check(&format!("service query {qid}"), &reference, &outcomes[qid as usize].run_result());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut inject: Option<FaultPlan> = None;
    let mut program = SmokeProgram::HcTriangle;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--inject" if i + 1 < args.len() => {
                match args[i + 1].parse() {
                    Ok(plan) => inject = Some(plan),
                    Err(e) => fail(&format!("bad --inject plan {:?}: {e}", args[i + 1])),
                }
                i += 2;
            }
            "--program" if i + 1 < args.len() => {
                program = match args[i + 1].as_str() {
                    "hc-triangle" => SmokeProgram::HcTriangle,
                    "wco-triangle" => SmokeProgram::WcoTriangle,
                    other => {
                        fail(&format!("unknown --program {other:?} (hc-triangle | wco-triangle)"))
                    }
                };
                i += 2;
            }
            other => fail(&format!(
                "unknown argument {other:?} \
                 (usage: distributed_smoke [--program NAME] [--inject PLAN])"
            )),
        }
    }
    let reference = spawned_stage(program);
    if let Some(plan) = inject {
        fault_stage(program, &reference, plan);
    }
    service_stage();
    println!("distributed_smoke: all stages passed");
}
