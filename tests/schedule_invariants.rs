//! Property tests of the virtual-clock schedule model: a seeded case loop
//! (the style of `tests/property_invariants.rs`) over random queries,
//! server counts, window sizes and straggler draws, asserting on every run
//! that
//!
//! 1. `makespan ≥ critical_path` — backpressure can only delay, never
//!    accelerate, the pure data-dependency schedule;
//! 2. each server's busy + blocked + idle spans exactly partition its
//!    timeline `[0, finish]`;
//! 3. the schedule covers exactly the synchronous run's rounds, and the
//!    async backend's round count matches the synchronous backend's.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use mpc_query::core::hypercube::HyperCubeProgram;
use mpc_query::cq::families;
use mpc_query::prelude::*;
use mpc_query::sim::schedule::{simulate, MsgRecord};
use mpc_query::sim::{AsyncConfig, CostModel, MpcProgram, ScheduleStats, StragglerSpec};

fn check_invariants(label: &str, stats: &ScheduleStats, sync_rounds: usize) {
    assert!(
        stats.makespan >= stats.critical_path,
        "{label}: makespan {} below critical path {}",
        stats.makespan,
        stats.critical_path
    );
    for s in &stats.servers {
        assert!(
            s.span_partition_holds(),
            "{label}: server {}: busy {} + blocked {} + idle {} != finish {}",
            s.server,
            s.busy,
            s.blocked,
            s.idle,
            s.finish
        );
        assert_eq!(
            s.round_finish.len(),
            sync_rounds,
            "{label}: server {} round timeline length",
            s.server
        );
        // Round finishes are non-decreasing and end at the server's
        // finish time.
        for w in s.round_finish.windows(2) {
            assert!(w[0] <= w[1], "{label}: round finishes must be monotone");
        }
        assert_eq!(s.round_finish.last().copied().unwrap_or(0), s.finish);
    }
    assert_eq!(stats.num_rounds(), sync_rounds, "{label}: schedule round count");
    let eff = stats.schedule_efficiency();
    assert!((0.0..=1.0).contains(&eff), "{label}: efficiency {eff} out of range");
}

#[test]
fn seeded_schedule_property_loop() {
    let mut rng = StdRng::seed_from_u64(0xA57C);
    for case in 0..24 {
        // A random query family instance, sized to stay fast.
        let q = match rng.gen_range(0..4usize) {
            0 => families::chain(rng.gen_range(2..5)),
            1 => families::cycle(rng.gen_range(3..5)),
            2 => families::star(rng.gen_range(2..4)),
            _ => families::triangle(),
        };
        let n = rng.gen_range(100..400u64);
        let p = [4usize, 8, 9, 16][rng.gen_range(0..4usize)];
        let db = matching_database(&q, n, rng.gen());
        let program = match HyperCubeProgram::new(&q, p, rng.gen()) {
            Ok(program) => program,
            Err(e) => panic!("case {case}: allocation failed for {}: {e}", q.name()),
        };
        let cfg = MpcConfig::new(p, 1.0);
        let cluster = Cluster::new(cfg).unwrap();
        let sync_rounds = cluster.run(&program, &db).unwrap().num_rounds();

        let mut async_cfg = AsyncConfig::new().with_queue_capacity(1 << rng.gen_range(0..7usize));
        if rng.gen_bool(0.5) {
            async_cfg = async_cfg.with_straggler(StragglerSpec::new(
                rng.gen(),
                rng.gen_range(0..3),
                rng.gen_range(1..10),
            ));
        }

        let label = format!("case {case} ({}, p = {p})", q.name());
        let run = cluster.run_async(&program, &db, &async_cfg).unwrap();
        check_invariants(&label, &run.schedule, sync_rounds);
    }
}

#[test]
fn multi_round_plans_replay_every_synchronous_round() {
    use mpc_query::core::multiround::executor::PlanProgram;

    for (q, p) in [(families::chain(4), 16usize), (families::chain(8), 8), (families::cycle(6), 8)]
    {
        let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
        let program = PlanProgram::new(&plan, p, 3).unwrap();
        let db = matching_database(&q, 400, 7);
        let cluster = Cluster::new(MpcConfig::new(p, 0.0)).unwrap();
        let sync = cluster.run(&program, &db).unwrap();
        let run = cluster.run_async(&program, &db, &AsyncConfig::new()).unwrap();
        assert_eq!(run.result.num_rounds(), sync.num_rounds());
        check_invariants(&format!("plan {}", q.name()), &run.schedule, sync.num_rounds());
    }
}

/// Random protocol-valid traffic: round 1 from input actors (ids ≥ p),
/// later rounds from workers, seqs monotone per sender and round.
fn random_traffic(rng: &mut StdRng, p: usize, rounds: usize) -> Vec<MsgRecord> {
    let mut traffic = Vec::new();
    let inputs = rng.gen_range(1..4usize);
    for round in 1..=rounds {
        let senders: Vec<usize> =
            if round == 1 { (p..p + inputs).collect() } else { (0..p).collect() };
        for from in senders {
            for seq in 0..rng.gen_range(0..12u64) {
                traffic.push(MsgRecord {
                    round,
                    from,
                    to: rng.gen_range(0..p),
                    seq,
                    bytes: rng.gen_range(8..2048u64),
                    tuples: rng.gen_range(1..32u64),
                });
            }
        }
    }
    traffic
}

/// The double-buffered replay keeps the makespan at or above the critical
/// path and each server's spans partitioning its timeline, and it depends
/// only on the traffic, not on the order it was recorded in. Completing at
/// all also certifies the per-link FIFO: the event loop asserts on every
/// ingest that overlap never reorders a link.
#[test]
fn pipelined_replay_properties_on_random_traffic() {
    let mut rng = StdRng::seed_from_u64(0x0E71A9);
    for case in 0..60 {
        let p = rng.gen_range(2..9usize);
        let rounds = rng.gen_range(1..5usize);
        let mut traffic = random_traffic(&mut rng, p, rounds);
        let window = 1usize << rng.gen_range(0..7usize);
        let cost = CostModel {
            link_latency: rng.gen_range(0..32),
            send_ticks_per_byte: rng.gen_range(0..4),
            recv_ticks_per_byte: rng.gen_range(0..4),
            compute_ticks_per_tuple: rng.gen_range(0..8),
            round_overhead: rng.gen_range(0..64),
        };
        let slowdown: Vec<u64> = (0..p).map(|_| rng.gen_range(1..4u64)).collect();

        let piped = simulate(p, rounds, &traffic, &cost, &slowdown, window);
        let label = format!("case {case} (p = {p}, rounds = {rounds})");
        check_invariants(&label, &piped, rounds);
        traffic.shuffle(&mut rng);
        let shuffled = simulate(p, rounds, &traffic, &cost, &slowdown, window);
        assert_eq!(piped, shuffled, "{label}: the recording order leaked into the replay");
    }
}

/// The replay `run_async` reports under the default configuration, pinned
/// tick for tick on two fixed runs: a one-round HyperCube and a
/// three-round plan. The replay canonicalises the recorded traffic, so
/// these numbers depend on the traffic, the cost model, the window and
/// the one round of overlap, never on how the threads interleaved.
#[test]
fn default_replay_is_pinned_on_two_fixed_runs() {
    use mpc_query::core::multiround::executor::PlanProgram;

    fn schedule<P: MpcProgram>(program: &P, db: &Database, p: usize, eps: f64) -> ScheduleStats {
        let cluster = Cluster::new(MpcConfig::new(p, eps)).unwrap();
        cluster.run_async(program, db, &AsyncConfig::new()).unwrap().schedule
    }
    let spans = |s: &ScheduleStats| -> Vec<(u64, u64, u64)> {
        s.servers.iter().map(|t| (t.busy, t.blocked, t.idle)).collect()
    };

    let q = families::triangle();
    let hc = schedule(
        &HyperCubeProgram::new(&q, 8, 11).unwrap(),
        &matching_database(&q, 600, 5),
        8,
        1.0 / 3.0,
    );
    assert_eq!((hc.makespan, hc.critical_path), (29948, 25228), "C3 HyperCube");
    assert_eq!(hc.barrier_wait, [17136]);
    assert_eq!(
        spans(&hc),
        [
            (10600, 0, 2212),
            (11776, 0, 4836),
            (10120, 0, 7044),
            (10960, 0, 9604),
            (10624, 0, 11908),
            (11320, 0, 14436),
            (10384, 0, 16772),
            (10744, 0, 19204),
        ]
    );

    let q = families::chain(8);
    let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
    let l8 =
        schedule(&PlanProgram::new(&plan, 8, 5).unwrap(), &matching_database(&q, 300, 3), 8, 0.0);
    assert_eq!((l8.makespan, l8.critical_path), (30880, 26400), "L8 plan at eps = 0");
    assert_eq!(l8.barrier_wait, [5680, 7532, 6640]);
    assert_eq!(
        spans(&l8),
        [
            (19920, 0, 4320),
            (23648, 0, 3296),
            (24192, 0, 3464),
            (21744, 0, 5776),
            (21776, 0, 6712),
            (22376, 0, 6848),
            (26400, 0, 4116),
            (23384, 0, 7496),
        ]
    );
}

#[test]
fn barrier_wait_reflects_injected_stragglers() {
    // One straggler, heavy slowdown: the per-round spread must grow
    // relative to the uninjected schedule.
    let q = families::triangle();
    let db = matching_database(&q, 800, 3);
    let program = HyperCubeProgram::new(&q, 27, 1).unwrap();
    let cluster = Cluster::new(MpcConfig::new(27, 1.0 / 3.0)).unwrap();
    let plain = cluster.run_async(&program, &db, &AsyncConfig::new()).unwrap();
    let slowed = cluster
        .run_async(&program, &db, &AsyncConfig::new().with_straggler(StragglerSpec::new(5, 1, 16)))
        .unwrap();
    assert!(slowed.schedule.max_barrier_wait() > plain.schedule.max_barrier_wait());
    // The straggler is the last server to finish.
    let straggler = slowed.schedule.stragglers[0];
    let finish =
        |s: &ScheduleStats| s.servers.iter().max_by_key(|t| t.finish).map(|t| t.server).unwrap();
    assert_eq!(finish(&slowed.schedule), straggler);
}
