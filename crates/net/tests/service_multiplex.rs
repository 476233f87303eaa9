//! The multi-query service under real concurrency: many queries in
//! flight over one shared cluster, every outcome identical to a
//! dedicated [`Cluster::run`], and repeats of a template planned and
//! answered identically.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use mpc_core::hypercube::HyperCubeProgram;
use mpc_cq::families;
use mpc_data::matching_database;
use mpc_net::{QueryJob, QueryService, ServiceConfig};
use mpc_sim::{Cluster, MpcConfig};
use mpc_storage::Database;

/// Six queries (four templates, two repeated) submitted before any
/// outcome is drained: at least four genuinely concurrent executions
/// multiplexed over `p = 4` shared reactors.
#[test]
fn six_concurrent_queries_multiplex_without_interference() {
    let p = 4;
    let jobs: Vec<(mpc_cq::Query, u64, u64)> = vec![
        (families::triangle(), 500, 1),
        (families::cycle(4), 400, 2),
        (families::star(3), 350, 3),
        (families::chain(3), 450, 4),
        (families::triangle(), 500, 5),
        (families::cycle(4), 400, 6),
    ];
    let dbs: Vec<Arc<Database>> =
        jobs.iter().map(|(q, n, seed)| Arc::new(matching_database(q, *n, *seed))).collect();

    let mut svc = QueryService::start(&ServiceConfig::new(p, 0.5)).unwrap();
    let mut qids = Vec::new();
    for ((q, _, seed), db) in jobs.iter().zip(&dbs) {
        let sub = svc
            .submit(&QueryJob {
                query: q.clone(),
                db: Arc::clone(db),
                seed: *seed,
                plan_epsilon: None,
            })
            .unwrap();
        qids.push(sub.qid);
    }
    assert_eq!(qids.len(), 6, "all six admitted while none had completed");

    let mut outcomes = Vec::new();
    for _ in 0..jobs.len() {
        outcomes.push(svc.next_outcome().unwrap());
    }
    svc.shutdown().unwrap();
    outcomes.sort_by_key(|o| o.qid);

    for (i, ((q, _, seed), db)) in jobs.iter().zip(&dbs).enumerate() {
        let cluster = Cluster::new(MpcConfig::new(p, 0.5)).unwrap();
        let program = HyperCubeProgram::new(q, p, *seed).unwrap();
        let reference = cluster.run(&program, db).unwrap();
        let outcome = &outcomes[i];
        assert_eq!(outcome.qid, qids[i]);
        assert_eq!(
            outcome.run_result().divergence(&reference),
            None,
            "query {i} ({}) differs from a dedicated run",
            q.name()
        );
        assert!(outcome.latency_micros >= outcome.planning_micros.min(outcome.latency_micros));
        assert!(outcome.admitted_cost > 0, "admission charged a real cost");
    }
}

/// Repeats of a template are planned afresh and identically: nothing is
/// memoised between submissions, so every repeat reports the same solver
/// path (the witness query has no closed form: simplex) and, on the same
/// seed, the same outcome round by round.
#[test]
fn repeated_templates_report_the_same_path_and_outcome() {
    let p = 2;
    let q = families::witness_query();
    let db = Arc::new(matching_database(&q, 200, 9));
    let mut svc = QueryService::start(&ServiceConfig::new(p, 0.5)).unwrap();
    let mut outcomes = Vec::new();
    for _ in 0..3 {
        svc.submit(&QueryJob {
            query: q.clone(),
            db: Arc::clone(&db),
            seed: 7,
            plan_epsilon: None,
        })
        .unwrap();
        outcomes.push(svc.next_outcome().unwrap());
    }
    svc.shutdown().unwrap();
    let first = outcomes[0].run_result();
    for (i, repeat) in outcomes.iter().enumerate() {
        assert_eq!(repeat.analysis_path, "simplex", "submission {i}");
        assert_eq!(repeat.run_result().divergence(&first), None, "submission {i}");
    }
}

/// `next_outcome` with nothing outstanding — on a fresh service, and once
/// every outcome has been drained — is an error at once, not a hang.
#[test]
fn next_outcome_without_outstanding_queries_errors_instead_of_blocking() {
    /// `svc.next_outcome()` on another thread; `None` if it blocks 5 s.
    fn next_within_timeout(mut svc: QueryService) -> Option<(bool, QueryService)> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let outcome = svc.next_outcome();
            let _ = tx.send((outcome.is_err(), svc));
        });
        rx.recv_timeout(Duration::from_secs(5)).ok()
    }

    let svc = QueryService::start(&ServiceConfig::new(2, 0.5)).unwrap();
    let (failed, mut svc) = next_within_timeout(svc).expect("a fresh service does not block");
    assert!(failed, "nothing was submitted");

    let q = families::triangle();
    let db = Arc::new(matching_database(&q, 200, 3));
    svc.submit(&QueryJob { query: q, db, seed: 1, plan_epsilon: None }).unwrap();
    svc.next_outcome().unwrap();
    let (failed, svc) = next_within_timeout(svc).expect("a drained service does not block");
    assert!(failed, "the one outcome was already delivered");
    svc.shutdown().unwrap();
}

/// A multi-round plan and a one-round query interleaved on the same
/// reactors: round namespaces keep the FIN accounting per query.
#[test]
fn mixed_round_counts_interleave_cleanly() {
    let p = 3;
    let mr_q = families::chain(4);
    let hc_q = families::triangle();
    let mr_db = Arc::new(matching_database(&mr_q, 300, 21));
    let hc_db = Arc::new(matching_database(&hc_q, 300, 22));

    let mut svc = QueryService::start(&ServiceConfig::new(p, 0.0)).unwrap();
    let a = svc
        .submit(&QueryJob {
            query: mr_q.clone(),
            db: Arc::clone(&mr_db),
            seed: 1,
            plan_epsilon: Some(mpc_lp::Rational::ZERO),
        })
        .unwrap()
        .qid;
    let b = svc
        .submit(&QueryJob {
            query: hc_q.clone(),
            db: Arc::clone(&hc_db),
            seed: 2,
            plan_epsilon: None,
        })
        .unwrap()
        .qid;
    let mut outcomes = [svc.next_outcome().unwrap(), svc.next_outcome().unwrap()];
    svc.shutdown().unwrap();
    outcomes.sort_by_key(|o| o.qid);

    let cluster = Cluster::new(MpcConfig::new(p, 0.0)).unwrap();
    let plan = mpc_core::multiround::planner::MultiRoundPlan::build(&mr_q, mpc_lp::Rational::ZERO)
        .unwrap();
    let mr_prog = mpc_core::multiround::executor::PlanProgram::new(&plan, p, 1).unwrap();
    let mr_ref = cluster.run(&mr_prog, &mr_db).unwrap();
    assert!(mr_ref.rounds.len() > 1, "the chain plan is genuinely multi-round");
    let hc_prog = HyperCubeProgram::new(&hc_q, p, 2).unwrap();
    let hc_ref = cluster.run(&hc_prog, &hc_db).unwrap();

    assert_eq!(outcomes[a as usize].run_result().divergence(&mr_ref), None, "multi-round query");
    assert_eq!(outcomes[b as usize].run_result().divergence(&hc_ref), None, "one-round query");
}
