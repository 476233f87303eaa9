//! The worker core under generated adversity, without a single thread:
//! `p` [`WorkerCore`]s over a simulated network whose only promise is the
//! one every real fabric makes — per-link FIFO. Which link delivers next,
//! how many packets a drain hands over, which core gets to step and which
//! sends find their link full are all drawn from a seeded generator.
//!
//! For every interleaving the cores must reach summaries whose fold is
//! indistinguishable ([`RunResult::divergence`]) from [`Cluster::run`] of
//! the same program: the cores deliver exactly the packets the reference
//! loop delivers, whatever order they arrive in. That covers what threads
//! only hit by luck — blocks one and two rounds ahead of a slow server,
//! FINs overtaking other senders' blocks, the drain-while-full send loop —
//! for HyperCube (one round), a three-round plan and the two-round
//! worst-case-optimal program, with the input routed by a router and
//! sharded across the workers.
//!
//! Throughout, each core's state must stay what its last round left it:
//! deliveries are staged, and the state changes only at
//! [`Step::RoundDone`], whichever packets a step or an accept took in.

use std::collections::VecDeque;
use std::sync::Arc;

use mpc_query::core::hypercube::HyperCubeProgram;
use mpc_query::core::multiround::executor::PlanProgram;
use mpc_query::core::wco::WcoProgram;
use mpc_query::data::skew::heavy_hitter_database;
use mpc_query::prelude::*;
use mpc_query::sim::worker::route_input;
use mpc_query::sim::{
    fold_summaries, BlockPool, Input, Link, MpcProgram, Packet, RunResult, SendOutcome,
    ServerState, SimError, Step, WorkerCore, WorkerSummary,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `links[to][from]` with `from = p` for the input router.
struct Net {
    links: Vec<Vec<VecDeque<Packet>>>,
    rng: StdRng,
}

impl Net {
    /// Move a random number of packets bound for `to` into `buf`, each
    /// from the head of a randomly chosen non-empty link.
    fn deliver_some(&mut self, to: usize, buf: &mut Vec<Packet>) {
        for _ in 0..self.rng.gen_range(0..6) {
            let ready: Vec<usize> = (0..self.links[to].len())
                .filter(|&from| !self.links[to][from].is_empty())
                .collect();
            if ready.is_empty() {
                return;
            }
            let from = ready[self.rng.gen_range(0..ready.len())];
            buf.extend(self.links[to][from].pop_front());
        }
    }
}

/// Server `id`'s end of the network. A quarter of its sends find the link
/// full, so the core's drain-and-retry loop runs all the time.
struct Port<'n> {
    net: &'n mut Net,
    id: usize,
}

impl Link for Port<'_> {
    fn send(&mut self, dest: usize, pkt: Packet) -> SendOutcome {
        assert_ne!(dest, self.id, "self-deliveries never reach the link");
        if self.net.rng.gen_bool(0.25) {
            return SendOutcome::Full(pkt);
        }
        self.net.links[dest][self.id].push_back(pkt);
        SendOutcome::Sent
    }

    fn try_recv(&mut self, buf: &mut Vec<Packet>) {
        self.net.deliver_some(self.id, buf);
    }
}

/// What a server's state holds: its relations and its per-round volumes.
type Snapshot = (Vec<Relation>, (Vec<u64>, Vec<u64>));

fn snapshot(state: &ServerState, rounds: usize) -> Snapshot {
    (state.relations().cloned().collect(), state.received_volumes(rounds))
}

/// Drive `p` cores to completion under the interleaving `seed` draws and
/// fold their summaries, checking after every step and every accepted
/// packet that a core's state is still the one its last round left.
fn run_cores<P: MpcProgram>(
    program: &P,
    db: &Database,
    config: &MpcConfig,
    sharded: bool,
    seed: u64,
) -> RunResult {
    let p = config.p;
    let pool = Arc::new(BlockPool::new());
    let capacity = [1, 7, 256][seed as usize % 3];
    let mut net = Net {
        links: (0..p).map(|_| (0..=p).map(|_| VecDeque::new()).collect()).collect(),
        rng: StdRng::seed_from_u64(seed),
    };
    let input = if sharded {
        Input::Sharded(db)
    } else {
        // The router's whole output sits on its links before any core
        // moves; the cores pull it in whatever order the seed says.
        route_input(program, db, p, None, &pool, capacity, |dest, block| {
            net.links[dest][p].push_back(Packet::Block(block));
            Ok::<(), SimError>(())
        })
        .expect("input routes");
        (0..p).for_each(|dest| net.links[dest][p].push_back(Packet::Fin { round: 1 }));
        Input::Routed { domain_size: db.domain_size() }
    };
    let mut cores: Vec<_> = (0..p)
        .map(|id| WorkerCore::new(program, id, p, input, Arc::clone(&pool), capacity).unwrap())
        .collect();
    let rounds = program.num_rounds();
    let mut seen: Vec<Snapshot> = cores.iter().map(|core| snapshot(core.state(), rounds)).collect();
    let unchanged = |core: &WorkerCore<'_, &P>, seen: &Snapshot, id: usize| {
        let (relations, volumes) = seen;
        let state = core.state();
        assert!(state.relations().eq(relations), "server {id}: rows arrived before their round");
        assert_eq!(&state.received_volumes(rounds), volumes, "server {id}: volume came early");
    };
    let mut summaries: Vec<Option<WorkerSummary>> = vec![None; p];
    let mut buf = Vec::new();
    while summaries.iter().any(Option::is_none) {
        let id = net.rng.gen_range(0..p);
        if summaries[id].is_some() {
            continue;
        }
        match cores[id].step(&mut Port { net: &mut net, id }).expect("a clean run") {
            Step::NeedInput => {
                unchanged(&cores[id], &seen[id], id);
                net.deliver_some(id, &mut buf);
                for pkt in buf.drain(..) {
                    cores[id].accept(pkt).expect("a clean run");
                    unchanged(&cores[id], &seen[id], id);
                }
            }
            Step::RoundDone(_) => seen[id] = snapshot(cores[id].state(), rounds),
            Step::Finished(summary) => summaries[id] = Some(summary),
        }
    }
    assert!(net.links.iter().flatten().all(VecDeque::is_empty), "every packet was delivered");
    assert!(pool.stats().balanced(), "every block went back to the pool");
    let summaries = summaries.into_iter().flatten().collect();
    fold_summaries(config, program, db.total_bytes(), summaries).expect("summaries fold")
}

fn assert_every_interleaving_matches<P: MpcProgram>(
    label: &str,
    program: &P,
    db: &Database,
    config: MpcConfig,
    rounds: usize,
) {
    let reference = Cluster::new(config.clone()).unwrap().run(program, db).expect("reference run");
    assert_eq!(reference.num_rounds(), rounds, "{label}: the case is as multi-round as intended");
    for seed in 0..12 {
        for sharded in [false, true] {
            let cores = run_cores(program, db, &config, sharded, seed);
            assert_eq!(reference.divergence(&cores), None, "{label}, seed {seed}, {sharded}");
        }
    }
}

#[test]
fn hypercube_is_interleaving_independent() {
    let q = families::triangle();
    let db = matching_database(&q, 300, 11);
    let program = HyperCubeProgram::new(&q, 8, 42).unwrap();
    assert_every_interleaving_matches("HC C3", &program, &db, MpcConfig::new(8, 1.0 / 3.0), 1);
}

#[test]
fn a_three_round_plan_is_interleaving_independent() {
    let q = families::chain(8);
    let db = matching_database(&q, 120, 5);
    let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
    let program = PlanProgram::new(&plan, 6, 3).unwrap();
    assert_every_interleaving_matches("plan L8", &program, &db, MpcConfig::new(6, 0.0), 3);
}

#[test]
fn the_two_round_wco_program_is_interleaving_independent() {
    let q = families::triangle();
    // 0.6 · 400 = 240 planted copies; 240 · 2 > 400, so the heavy side
    // activates and round 2 carries the staged tuples to the heavy grids.
    let db = heavy_hitter_database(&q, 300, 400, 0.6, 14);
    let program = WcoProgram::new(&q, &db, 8, 9).unwrap();
    assert_every_interleaving_matches("WCO C3", &program, &db, MpcConfig::new(8, 0.9), 2);
}

/// A two-round plan whose round 2 routes from the state while its own and
/// its peers' blocks stream in: `run_cores` checks after every accepted
/// packet that the state is the one round 1 left.
#[test]
fn a_server_state_changes_only_when_its_round_closes() {
    let q = families::chain(4);
    let db = matching_database(&q, 90, 21);
    let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
    let program = PlanProgram::new(&plan, 4, 5).unwrap();
    assert_every_interleaving_matches("plan L4", &program, &db, MpcConfig::new(4, 0.0), 2);
}
