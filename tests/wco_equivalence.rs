//! The WCO differential wall: the worst-case optimal heavy/light program
//! must answer **exactly** what the sequential join and the one-round
//! HyperCube answer — on every backend and every transport this
//! workspace ships.
//!
//! Matrix: queries {C3, C4, K4, skewed C3/C4/K4 instances} ×
//! {synchronous `Cluster::run`, event-driven `run_async` at block
//! capacities 1 / 64 / 4096, in-process channel transport, localhost
//! TCP}. Swapping the execution substrate may change schedules and packet
//! boundaries, never the answer set, the per-round volumes or the
//! per-server output counts.

use mpc_query::core::hypercube::HyperCubeProgram;
use mpc_query::core::wco::WcoProgram;
use mpc_query::data::skew::heavy_hitter_database;
use mpc_query::net::{run_distributed, DistConfig, TransportKind};
use mpc_query::prelude::*;
use mpc_query::storage::join::evaluate;

/// The test matrix: (label, query, database, p). Skewed instances are
/// sized so the planted degree crosses the heavy threshold
/// (`deg · share > |R|`), forcing the two-round staging + broadcast path;
/// matchings stay skew-free and collapse WCO to the light HyperCube.
fn cases() -> Vec<(String, Query, Database, usize)> {
    let c3 = families::triangle();
    let c4 = families::cycle(4);
    let k4 = families::clique(4).expect("K4 is a valid clique");
    vec![
        ("C3 matching".into(), c3.clone(), matching_database(&c3, 600, 11), 8),
        ("C4 matching".into(), c4.clone(), matching_database(&c4, 500, 12), 8),
        ("K4 matching".into(), k4.clone(), matching_database(&k4, 400, 13), 8),
        // 0.6 · 800 = 480 planted copies; 480 · 2 > 800, so the heavy
        // side activates at the p = 8 cover shares.
        ("C3 skewed".into(), c3.clone(), heavy_hitter_database(&c3, 600, 800, 0.6, 14), 8),
        ("C4 skewed".into(), c4.clone(), heavy_hitter_database(&c4, 600, 800, 0.6, 15), 8),
        // K4 stays small: the sequential evaluator's greedy order joins
        // the three x1-atoms first, producing Θ(deg³) partials on the
        // heavy key — deg = 0.55 · 150 ≈ 83 keeps that tractable while
        // 83 · 2 > 150 still crosses the heavy threshold.
        ("K4 skewed".into(), k4.clone(), heavy_hitter_database(&k4, 300, 150, 0.55, 16), 8),
    ]
}

#[test]
fn wco_matches_sequential_join_and_hypercube_on_the_sync_backend() {
    for (label, q, db, p) in cases() {
        let truth = evaluate(&q, &db).expect("sequential join evaluates");
        let cfg = MpcConfig::new(p, 0.9);
        let cluster = Cluster::new(cfg.clone()).expect("valid config");

        let hc = HyperCubeProgram::new(&q, p, 42).expect("HC program builds");
        let hc_run = cluster.run(&hc, &db).expect("HC run succeeds");
        assert!(hc_run.output.same_tuples(&truth), "{label}: HyperCube vs sequential");

        let wco = WcoProgram::new(&q, &db, p, 42).expect("WCO program builds");
        let wco_run = cluster.run(&wco, &db).expect("WCO run succeeds");
        assert!(wco_run.output.same_tuples(&truth), "{label}: WCO vs sequential");
        assert!(wco_run.output.same_tuples(&hc_run.output), "{label}: WCO vs HyperCube");
        if label.ends_with("skewed") {
            assert_eq!(wco_run.num_rounds(), 2, "{label}: heavy side activates");
        } else {
            assert_eq!(wco_run.num_rounds(), 1, "{label}: matchings stay one-round");
        }
    }
}

#[test]
fn wco_is_backend_independent_across_block_capacities() {
    for (label, q, db, p) in cases() {
        let truth = evaluate(&q, &db).expect("sequential join evaluates");
        let cluster = Cluster::new(MpcConfig::new(p, 0.9)).expect("valid config");
        let wco = WcoProgram::new(&q, &db, p, 7).expect("WCO program builds");
        for block in [1usize, 64, 4096] {
            let async_cfg = AsyncConfig::new().with_block_capacity(block);
            let synchronous = cluster
                .run(&wco, &db)
                .unwrap_or_else(|e| panic!("{label} block={block}: synchronous run failed: {e}"));
            let event_driven = cluster
                .run_async(&wco, &db, &async_cfg)
                .unwrap_or_else(|e| panic!("{label} block={block}: event-driven run failed: {e}"));
            assert_eq!(
                synchronous.divergence(&event_driven.result),
                None,
                "{label} block={block}: sync and async backends diverged"
            );
            assert!(
                synchronous.output.same_tuples(&truth),
                "{label} block={block}: output is not the sequential join"
            );
        }
    }
}

#[test]
fn wco_is_transport_independent_in_process_and_tcp() {
    for (label, q, db, p) in cases() {
        let truth = evaluate(&q, &db).expect("sequential join evaluates");
        let cluster = Cluster::new(MpcConfig::new(p, 0.9)).expect("valid config");
        let wco = WcoProgram::new(&q, &db, p, 9).expect("WCO program builds");
        // The sync reference against the in-process mesh and real
        // localhost TCP sockets.
        let reference = cluster.run(&wco, &db).expect("reference run succeeds");
        for transport in [TransportKind::InProcess, TransportKind::Tcp] {
            let run = run_distributed(&cluster, &wco, &db, &DistConfig::new(transport))
                .unwrap_or_else(|e| panic!("{label}: {transport:?} run failed: {e}"));
            assert_eq!(reference.divergence(&run), None, "{label}: transports diverged");
        }
        assert!(
            reference.output.same_tuples(&truth),
            "{label}: reference output is not the sequential join"
        );
    }
}
