//! The PR's acceptance differential: for every program family the
//! workspace ships, the distributed runner must produce **identical
//! outputs and identical per-round communication volumes** to the
//! synchronous [`Cluster::run`] reference — over the in-process channel
//! transport *and* over real localhost TCP sockets. Swapping the fabric
//! can change schedules and packet boundaries, never semantics.

use mpc_core::hypercube::HyperCubeProgram;
use mpc_core::multiround::executor::PlanProgram;
use mpc_core::multiround::planner::MultiRoundPlan;
use mpc_core::skew::{HeavyHitterPolicy, SkewResilientProgram};
use mpc_cq::families;
use mpc_data::matching_database;
use mpc_data::skew::zipf_database;
use mpc_lp::Rational;
use mpc_net::{run_distributed, DistConfig, NetError, TransportKind};
use mpc_sim::{AsyncConfig, Cluster, MpcConfig, MpcProgram, RouteSink, ServerState, SimError};
use mpc_storage::{Database, Relation, StorageError};

fn assert_transport_invariant<P: MpcProgram>(
    label: &str,
    program: &P,
    db: &Database,
    cfg: &MpcConfig,
    dist: &DistConfig,
) {
    let cluster = Cluster::new(cfg.clone()).expect("valid config");
    let reference = cluster.run(program, db).expect("reference run succeeds");
    for transport in [TransportKind::InProcess, TransportKind::Tcp] {
        let run = run_distributed(&cluster, program, db, &DistConfig { transport, ..dist.clone() })
            .unwrap_or_else(|e| panic!("{label}: {transport:?} run failed: {e}"));
        assert_eq!(reference.divergence(&run), None, "{label}: transports diverged");
    }
}

#[test]
fn hypercube_triangle_is_transport_independent() {
    let q = families::triangle();
    let db = matching_database(&q, 800, 11);
    let program = HyperCubeProgram::new(&q, 8, 42).unwrap();
    let cfg = MpcConfig::new(8, 1.0 / 3.0);
    assert_transport_invariant("HC triangle", &program, &db, &cfg, &DistConfig::default());
}

#[test]
fn multi_round_plans_are_transport_independent() {
    for (q, n) in [(families::chain(4), 500u64), (families::cycle(6), 250)] {
        let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
        let program = PlanProgram::new(&plan, 6, 5).unwrap();
        let db = matching_database(&q, n, 3);
        let cfg = MpcConfig::new(6, 0.0);
        assert_transport_invariant(
            &format!("plan {}", q.name()),
            &program,
            &db,
            &cfg,
            &DistConfig::default(),
        );
    }
}

#[test]
fn skew_resilient_routing_is_transport_independent() {
    let q = families::chain(2);
    let db = zipf_database(&q, 1200, 1200, 1.2, 5);
    let program = SkewResilientProgram::new(&q, &db, 8, &HeavyHitterPolicy::default(), 42).unwrap();
    let cfg = MpcConfig::new(8, 0.0);
    assert_transport_invariant("skew zipf 1.2", &program, &db, &cfg, &DistConfig::default());
}

/// Packet boundaries must not matter: tiny blocks (many frames) and tight
/// in-process queues stress the backpressure paths of both transports.
#[test]
fn block_and_queue_shapes_do_not_change_semantics() {
    let q = families::triangle();
    let db = matching_database(&q, 400, 7);
    let program = HyperCubeProgram::new(&q, 4, 9).unwrap();
    let cfg = MpcConfig::new(4, 1.0 / 3.0);
    let cluster = Cluster::new(cfg.clone()).unwrap();
    let reference = cluster.run(&program, &db).unwrap();
    for (block, queue) in [(1usize, 2usize), (7, 4), (512, 64)] {
        let label = format!("HC block={block} queue={queue}");
        let dist = DistConfig { block_capacity: block, ..DistConfig::default() };
        assert_transport_invariant(&label, &program, &db, &cfg, &dist);
        let lanes = AsyncConfig::new().with_block_capacity(block).with_queue_capacity(queue);
        let run = cluster.run_async(&program, &db, &lanes).unwrap();
        assert_eq!(reference.divergence(&run.result), None, "{label}: lanes diverged");
    }
}

/// Routes every input row to server 0 under the tag `T`, first two values
/// wide, then three: a program bug every backend must report the same way.
struct TwoArities;

impl MpcProgram for TwoArities {
    fn num_rounds(&self) -> usize {
        1
    }

    fn route_input_into(
        &self,
        relation: &Relation,
        _p: usize,
        sink: &mut dyn RouteSink,
    ) -> mpc_sim::Result<()> {
        for t in relation.iter() {
            sink.emit("T", &[t[0], t[0]], &[0])?;
            sink.emit("T", &[t[0], t[0], t[0]], &[0])?;
        }
        Ok(())
    }

    fn output(&self, _: usize, _: &ServerState) -> mpc_sim::Result<Relation> {
        Ok(Relation::empty("out", 1))
    }

    fn output_arity(&self) -> usize {
        1
    }
}

/// Hashes every input row to a server; round 1's compute fails on the
/// last server only, so every other worker finishes the round and is
/// released by the failure instead of causing it.
struct LastServerFails {
    p: usize,
}

impl MpcProgram for LastServerFails {
    fn num_rounds(&self) -> usize {
        1
    }

    fn route_input_into(
        &self,
        relation: &Relation,
        p: usize,
        sink: &mut dyn RouteSink,
    ) -> mpc_sim::Result<()> {
        relation.iter().try_for_each(|t| sink.emit("R", t, &[t[0] as usize % p]))
    }

    fn compute(
        &self,
        round: usize,
        server: usize,
        _: &ServerState,
    ) -> mpc_sim::Result<Vec<Relation>> {
        if server + 1 == self.p {
            return Err(SimError::Program(format!("server {server} failed in round {round}")));
        }
        Ok(Vec::new())
    }

    fn output(&self, _: usize, _: &ServerState) -> mpc_sim::Result<Relation> {
        Ok(Relation::empty("out", 1))
    }

    fn output_arity(&self) -> usize {
        1
    }
}

/// Every backend reports a failing program's own error, never the abort
/// that unwound the other workers after it.
fn assert_same_error_everywhere<P: MpcProgram>(program: &P, expected: &SimError) {
    let mut db = Database::new(10);
    db.insert_relation(Relation::from_tuples("R", 1, vec![[1u64], [2]]).unwrap());
    let cluster = Cluster::new(MpcConfig::new(2, 1.0)).unwrap();
    assert_eq!(&cluster.run(program, &db).unwrap_err(), expected, "reference loop");
    for block_capacity in [1, 256] {
        let cfg = AsyncConfig::new().with_block_capacity(block_capacity);
        let err = cluster.run_async(program, &db, &cfg).unwrap_err();
        assert_eq!(&err, expected, "event-driven, blocks of {block_capacity}");
    }
    for transport in [TransportKind::InProcess, TransportKind::Tcp] {
        match run_distributed(&cluster, program, &db, &DistConfig::new(transport)) {
            Err(NetError::Sim(err)) => assert_eq!(&err, expected, "{transport:?} runner"),
            other => panic!("{transport:?} runner: {other:?}"),
        }
    }
}

#[test]
fn a_second_arity_under_one_tag_is_the_same_error_on_every_backend() {
    let clash = StorageError::TupleArity { relation: "T".into(), expected: 2, actual: 3 };
    assert_same_error_everywhere(&TwoArities, &SimError::Storage(clash.to_string()));
    let failed = SimError::Program("server 1 failed in round 1".into());
    assert_same_error_everywhere(&LastServerFails { p: 2 }, &failed);
}
