//! Differential equivalence of the two `mpc-sim` backends: for every kind
//! of program this workspace ships — one-round HyperCube, multi-round
//! plans, skew-resilient residual routing, broadcast baseline — the
//! event-driven backend must produce **identical join outputs and
//! identical per-round communication volumes** to the round-synchronous
//! reference. The async path can change *schedules*, never semantics.

use mpc_query::core::hypercube::HyperCubeProgram;
use mpc_query::core::multiround::executor::PlanProgram;
use mpc_query::cq::families;
use mpc_query::data::skew::{heavy_hitter_database, zipf_database};
use mpc_query::prelude::*;
use mpc_query::sim::{AsyncConfig, MpcProgram, StragglerSpec};
use mpc_query::skew::SkewResilientProgram;
use mpc_query::storage::join::evaluate;

fn assert_equivalent<P: MpcProgram>(
    label: &str,
    program: &P,
    db: &Database,
    cfg: &MpcConfig,
    async_cfg: &AsyncConfig,
) {
    let cluster = Cluster::new(cfg.clone()).expect("valid config");
    let synchronous =
        cluster.run(program, db).unwrap_or_else(|e| panic!("{label}: synchronous run failed: {e}"));
    let event_driven = cluster
        .run_async(program, db, async_cfg)
        .unwrap_or_else(|e| panic!("{label}: event-driven run failed: {e}"));
    assert_eq!(synchronous.divergence(&event_driven.result), None, "{label}: backends diverged");
    // The schedule invariants hold on every equivalent run, too.
    let sched = &event_driven.schedule;
    assert!(sched.makespan >= sched.critical_path, "{label}: makespan below critical path");
    for s in &sched.servers {
        assert!(s.span_partition_holds(), "{label}: server {} timeline leaks", s.server);
    }
    // The block data plane leaks no blocks on a clean run.
    let pool = &event_driven.pool;
    assert!(pool.balanced(), "{label}: block pool unbalanced: {pool:?}");
}

#[test]
fn hypercube_triangle_is_backend_independent() {
    let q = families::triangle();
    let db = matching_database(&q, 1500, 11);
    let program = HyperCubeProgram::new(&q, 64, 42).unwrap();
    let cfg = MpcConfig::new(64, 1.0 / 3.0);
    assert_equivalent("HC triangle", &program, &db, &cfg, &AsyncConfig::new());

    // And the async output is the true join.
    let cluster = Cluster::new(cfg).unwrap();
    let run = cluster.run_async(&program, &db, &AsyncConfig::new()).unwrap();
    let truth = evaluate(&q, &db).unwrap();
    assert!(run.result.output.same_tuples(&truth));
}

#[test]
fn hypercube_across_queries_and_capacities() {
    for q in [families::chain(2), families::star(3), families::cycle(4)] {
        let db = matching_database(&q, 400, 17);
        let program = HyperCubeProgram::new(&q, 16, 7).unwrap();
        let cfg = MpcConfig::new(16, 0.5);
        for capacity in [1, 4, 256] {
            assert_equivalent(
                &format!("HC {} cap={capacity}", q.name()),
                &program,
                &db,
                &cfg,
                &AsyncConfig::new().with_queue_capacity(capacity),
            );
        }
    }
}

#[test]
fn multi_round_plans_are_backend_independent() {
    // L4 at ε = 0 (2 rounds), L8 at ε = 0 (3 rounds), C6 (3 rounds).
    for (q, n) in
        [(families::chain(4), 800u64), (families::chain(8), 300), (families::cycle(6), 300)]
    {
        let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
        let program = PlanProgram::new(&plan, 8, 5).unwrap();
        let db = matching_database(&q, n, 3);
        let cfg = MpcConfig::new(8, 0.0);
        assert_equivalent(&format!("plan {}", q.name()), &program, &db, &cfg, &AsyncConfig::new());
    }
}

#[test]
fn skew_resilient_program_is_backend_independent() {
    let q = families::chain(2);
    let cfg = MpcConfig::new(32, 0.0);
    for (label, db) in [
        ("zipf 1.2", zipf_database(&q, 2000, 2000, 1.2, 5)),
        ("heavy 50%", heavy_hitter_database(&q, 1500, 1500, 0.5, 7)),
    ] {
        let program =
            SkewResilientProgram::new(&q, &db, 32, &HeavyHitterPolicy::default(), 42).unwrap();
        assert_equivalent(&format!("skew {label}"), &program, &db, &cfg, &AsyncConfig::new());
    }
}

/// The differential matrix of the block data plane: every program kind
/// × block capacities spanning per-tuple (1), awkward (7), steady-state
/// (64) and whole-round (4096) blocks × tight and roomy queues. Identical
/// outputs and per-round volumes everywhere — block capacity 1 must
/// degenerate to the old per-tuple plane exactly.
#[test]
fn differential_matrix_over_block_and_queue_capacities() {
    let hc_q = families::triangle();
    let hc_db = matching_database(&hc_q, 400, 11);
    let hc = HyperCubeProgram::new(&hc_q, 8, 42).unwrap();
    let hc_cfg = MpcConfig::new(8, 1.0 / 3.0);

    let mr_q = families::chain(4);
    let plan = MultiRoundPlan::build(&mr_q, Rational::ZERO).unwrap();
    let mr = PlanProgram::new(&plan, 8, 5).unwrap();
    let mr_db = matching_database(&mr_q, 400, 3);
    let mr_cfg = MpcConfig::new(8, 0.0);

    let sk_q = families::chain(2);
    let sk_db = zipf_database(&sk_q, 800, 800, 1.2, 5);
    let sk =
        SkewResilientProgram::new(&sk_q, &sk_db, 8, &HeavyHitterPolicy::default(), 42).unwrap();
    let sk_cfg = MpcConfig::new(8, 0.0);

    for block in [1usize, 7, 64, 4096] {
        for queue in [2usize, 64] {
            let async_cfg =
                AsyncConfig::new().with_block_capacity(block).with_queue_capacity(queue);
            assert_equivalent(
                &format!("matrix HC block={block} queue={queue}"),
                &hc,
                &hc_db,
                &hc_cfg,
                &async_cfg,
            );
            assert_equivalent(
                &format!("matrix plan block={block} queue={queue}"),
                &mr,
                &mr_db,
                &mr_cfg,
                &async_cfg,
            );
            assert_equivalent(
                &format!("matrix skew block={block} queue={queue}"),
                &sk,
                &sk_db,
                &sk_cfg,
                &async_cfg,
            );
        }
    }
}

/// With block capacity 1 every block carries exactly one tuple, so the
/// pool's checkout count equals the total delivered tuple count — the
/// observable signature of the per-tuple degeneration.
#[test]
fn block_capacity_one_checks_out_one_block_per_tuple() {
    let q = families::triangle();
    let db = matching_database(&q, 500, 9);
    let program = HyperCubeProgram::new(&q, 8, 7).unwrap();
    let cluster = Cluster::new(MpcConfig::new(8, 1.0 / 3.0)).unwrap();
    let run = cluster.run_async(&program, &db, &AsyncConfig::new().with_block_capacity(1)).unwrap();
    let delivered: u64 = run.result.rounds.iter().map(|r| r.total_tuples_received).sum();
    assert_eq!(run.pool.checked_out, delivered, "one block per delivered tuple");
    assert!(run.pool.balanced());
}

#[test]
fn broadcast_baseline_is_backend_independent() {
    let q = families::triangle();
    let db = matching_database(&q, 300, 23);
    let program = mpc_query::sim::program::BroadcastProgram::new(q);
    assert_equivalent("broadcast", &program, &db, &MpcConfig::new(8, 1.0), &AsyncConfig::new());
}

#[test]
fn stragglers_change_the_schedule_but_not_the_result() {
    let q = families::triangle();
    let db = matching_database(&q, 1000, 9);
    let program = HyperCubeProgram::new(&q, 27, 3).unwrap();
    let cluster = Cluster::new(MpcConfig::new(27, 1.0 / 3.0)).unwrap();

    let plain = cluster.run_async(&program, &db, &AsyncConfig::new()).unwrap();
    let slowed = cluster
        .run_async(&program, &db, &AsyncConfig::new().with_straggler(StragglerSpec::new(1, 3, 12)))
        .unwrap();

    // Semantics and volumes: untouched.
    assert!(plain.result.output.same_tuples(&slowed.result.output));
    assert_eq!(plain.result.rounds, slowed.result.rounds);
    // Schedule: a straggler on the barrier inflates makespan and the
    // round spread.
    assert!(slowed.schedule.makespan > plain.schedule.makespan);
    assert!(slowed.schedule.max_barrier_wait() >= plain.schedule.max_barrier_wait());
    assert_eq!(slowed.schedule.stragglers, StragglerSpec::new(1, 3, 12).pick(27));
}
