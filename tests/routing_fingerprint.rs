//! Routing fingerprints: what every planner-side program sends, pinned.
//!
//! Each program is run under [`Cluster::run`] behind a recording wrapper
//! whose sink tap folds the `(tag, row, destinations)` sequence of every
//! `(round, sender)` into a stable hash on its way to the executor. Hash functions, seed derivation,
//! share choice, group carving, heavy sets and the order of emitted
//! messages all feed the hash, so a refactor of the routing or planning
//! code that moves any of them moves a constant below. The constants were
//! recorded before the grid router and the heavy/light core replaced the
//! per-program copies, and have held since through push-style routing.

use std::collections::BTreeMap;
use std::sync::Mutex;

use mpc_query::core::heavy::{Group, HeavyValues};
use mpc_query::cq::VarId;
use mpc_query::data::skew::{degree_planted_database, heavy_hitter_database, zipf_database};
use mpc_query::data::{DbStatistics, StatsMode};
use mpc_query::prelude::*;
use mpc_query::sim::{MpcProgram, RouteSink, ServerState};
use mpc_query::storage::join::evaluate;
use mpc_query::storage::Value;

/// FNV-1a over 64-bit words.
fn mix(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Hash, message count and delivered copies of one sender's sequence.
type Trace = (u64, usize, usize);

/// Folds every emitted row into a [`Trace`] and passes it on to `inner`.
struct Tap<'s> {
    inner: &'s mut dyn RouteSink,
    trace: Trace,
}

impl RouteSink for Tap<'_> {
    fn emit(&mut self, tag: &str, row: &[Value], dests: &[usize]) -> mpc_query::sim::Result<()> {
        let (h, msgs, copies) = &mut self.trace;
        for b in tag.bytes() {
            mix(h, u64::from(b));
        }
        mix(h, u64::MAX);
        for v in row {
            mix(h, *v);
        }
        mix(h, u64::MAX - 1);
        for d in dests {
            mix(h, *d as u64);
        }
        mix(h, u64::MAX - 2);
        *msgs += 1;
        *copies += dests.len();
        self.inner.emit(tag, row, dests)
    }
}

/// Delegates everything to `inner` and records what it routes.
struct Recorder<'a, P: ?Sized> {
    inner: &'a P,
    log: Mutex<BTreeMap<(usize, String), Trace>>,
}

impl<'a, P: MpcProgram + ?Sized> Recorder<'a, P> {
    fn new(inner: &'a P) -> Self {
        Recorder { inner, log: Mutex::new(BTreeMap::new()) }
    }

    /// Run `route` behind a tap on `sink` and log what passed as the
    /// `(round, sender)` sequence.
    fn record(
        &self,
        round: usize,
        sender: String,
        sink: &mut dyn RouteSink,
        route: impl FnOnce(&mut dyn RouteSink) -> mpc_query::sim::Result<()>,
    ) -> mpc_query::sim::Result<()> {
        let mut tap = Tap { inner: sink, trace: (0xcbf2_9ce4_8422_2325, 0, 0) };
        route(&mut tap)?;
        let previous =
            self.log.lock().expect("no recorder call panics").insert((round, sender), tap.trace);
        assert!(previous.is_none(), "one routing call per (round, sender)");
        Ok(())
    }

    /// One hash over all senders in `(round, sender)` order, total
    /// messages, total copies.
    fn fingerprint(&self) -> Trace {
        let log = self.log.lock().expect("no recorder call panics");
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let (mut msgs, mut copies) = (0, 0);
        for ((round, sender), (hash, m, c)) in log.iter() {
            mix(&mut h, *round as u64);
            for b in sender.bytes() {
                mix(&mut h, u64::from(b));
            }
            mix(&mut h, *hash);
            msgs += m;
            copies += c;
        }
        (h, msgs, copies)
    }
}

impl<P: MpcProgram + ?Sized> MpcProgram for Recorder<'_, P> {
    fn num_rounds(&self) -> usize {
        self.inner.num_rounds()
    }

    fn route_input_into(
        &self,
        relation: &Relation,
        p: usize,
        sink: &mut dyn RouteSink,
    ) -> mpc_query::sim::Result<()> {
        self.record(1, format!("in:{}", relation.name()), sink, |tap| {
            self.inner.route_input_into(relation, p, tap)
        })
    }

    fn compute(
        &self,
        round: usize,
        server: usize,
        state: &ServerState,
    ) -> mpc_query::sim::Result<Vec<Relation>> {
        self.inner.compute(round, server, state)
    }

    fn route_tuples_into(
        &self,
        round: usize,
        server: usize,
        state: &ServerState,
        sink: &mut dyn RouteSink,
    ) -> mpc_query::sim::Result<()> {
        self.record(round, format!("s{server:04}"), sink, |tap| {
            self.inner.route_tuples_into(round, server, state, tap)
        })
    }

    fn output(&self, server: usize, state: &ServerState) -> mpc_query::sim::Result<Relation> {
        self.inner.output(server, state)
    }

    fn output_name(&self) -> String {
        self.inner.output_name()
    }

    fn output_arity(&self) -> usize {
        self.inner.output_arity()
    }
}

/// Run `program` on `db` under the recorder; the output must be the
/// sequential join unless the program is a partial one.
fn trace<P: MpcProgram + ?Sized>(
    program: &P,
    q: &Query,
    db: &Database,
    p: usize,
    exact: bool,
) -> Trace {
    let recorder = Recorder::new(program);
    let result = Cluster::new(MpcConfig::new(p, 1.0)).unwrap().run(&recorder, db).unwrap();
    if exact {
        assert!(result.output.same_tuples(&evaluate(q, db).unwrap()), "{}", q.name());
    }
    recorder.fingerprint()
}

/// [`trace`] of `program`, which the same program built by
/// [`PlannerChoice::build`] must match: `build` only dispatches.
fn trace_built<P: MpcProgram>(
    program: &P,
    choice: PlannerChoice,
    q: &Query,
    db: &Database,
    p: usize,
    seed: u64,
) -> Trace {
    let analysis = QueryAnalysis::analyze(q).unwrap();
    let built = choice.build(&analysis, db, p, seed).unwrap();
    let traced = trace(program, q, db, p, true);
    assert_eq!(trace(built.as_ref(), q, db, p, true), traced, "{choice} on {}", q.name());
    traced
}

/// The heavy values of every variable, by probing the domain — the one
/// question both heavy-value types answered before they became one.
fn heavy_values(q: &Query, n: u64, is_heavy: impl Fn(VarId, u64) -> bool) -> String {
    q.var_ids()
        .map(|v| format!("{:?}", (0..=n).filter(|x| is_heavy(v, *x)).collect::<Vec<u64>>()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Heavy values first, then one line per server group: heavy variables,
/// shares, `@offset+group_size`.
fn shape(heavy: &HeavyValues, groups: &[Group], q: &Query, n: u64) -> Vec<String> {
    std::iter::once(heavy_values(q, n, |v, x| heavy.is_heavy(v, x)))
        .chain(groups.iter().map(|g| {
            let vars: Vec<usize> = g.heavy_vars.iter().map(|v| v.0).collect();
            format!("{vars:?} {:?} @{}+{}", g.shares, g.offset, g.group_size)
        }))
        .collect()
}

#[test]
fn hypercube_triangle_routing_is_pinned() {
    let q = families::triangle();
    let db = matching_database(&q, 600, 7);
    let hc = PlannerChoice::OneRoundHyperCube;
    let small = HyperCubeProgram::new(&q, 8, 42).unwrap();
    assert_eq!(trace_built(&small, hc, &q, &db, 8, 42), (14856406840721113320, 1800, 3600));
    let large = HyperCubeProgram::new(&q, 64, 42).unwrap();
    assert_eq!(trace_built(&large, hc, &q, &db, 64, 42), (14104157559195680997, 1800, 7200));
}

#[test]
fn partial_hypercube_routing_is_pinned() {
    // L3 has ε* = 1/2; at ε = 0 only p of the p² virtual cells exist.
    let q = families::chain(3);
    let db = matching_database(&q, 800, 31);
    let program = PartialHyperCubeProgram::new(&q, 16, Rational::ZERO, 9).unwrap();
    assert!(program.expected_fraction() < 0.2);
    assert_eq!(trace(&program, &q, &db, 16, false), (7382999925419684909, 2400, 2417));
}

#[test]
fn multi_round_chain_routing_is_pinned() {
    let q = families::chain(8);
    let db = matching_database(&q, 300, 23);
    let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
    let program = PlanProgram::new(&plan, 8, 2).unwrap();
    assert_eq!(program.num_rounds(), 3);
    let choice = PlannerChoice::MultiRound { plan_epsilon: Rational::ZERO };
    assert_eq!(trace_built(&program, choice, &q, &db, 8, 2), (14704911742004079219, 4268, 4268));
}

#[test]
fn skew_resilient_routing_and_plans_are_pinned() {
    let policy = HeavyHitterPolicy::default();
    let choice = PlannerChoice::OneRoundSkewResilient { scale: policy.scale };

    let q = families::chain(2);
    let db = zipf_database(&q, 3000, 3000, 1.2, 5);
    let program = SkewResilientProgram::new(&q, &db, 32, &policy, 42).unwrap();
    assert_eq!(
        shape(program.plan_set().heavy(), program.plan_set().plans(), &q, 3000),
        ["[] [1, 2, 3, 4] []", "[] [1, 25, 1] @0+25", "[1] [1, 1, 7] @25+7",]
    );
    assert_eq!(trace_built(&program, choice, &q, &db, 32, 42), (15620753659358018653, 6000, 6030));

    let q = families::triangle();
    let db = heavy_hitter_database(&q, 1000, 2000, 0.5, 11);
    let program = SkewResilientProgram::new(&q, &db, 32, &policy, 42).unwrap();
    assert_eq!(
        shape(program.plan_set().heavy(), program.plan_set().plans(), &q, 1000),
        [
            "[1] [1] [1]",
            "[] [2, 1, 3] @0+7",
            "[0] [1, 2, 2] @6+5",
            "[1] [2, 1, 2] @10+5",
            "[0, 1] [1, 1, 3] @14+3",
            "[2] [2, 2, 1] @17+5",
            "[0, 2] [1, 3, 1] @21+3",
            "[1, 2] [3, 1, 1] @24+3",
            "[0, 1, 2] [1, 1, 1] @27+1",
        ]
    );
    assert_eq!(trace_built(&program, choice, &q, &db, 32, 42), (776147128319156622, 6000, 18001));
}

#[test]
fn wco_routing_and_plans_are_pinned() {
    // Two keys of degree 250 in 600 tuples: 250 · 3 > 600 at the p = 27
    // shares (3, 3, 3), so both are heavy at every variable.
    let q = families::triangle();
    let db = degree_planted_database(&q, 2400, 600, 2, 250, 17);

    let exact = DbStatistics::collect(&db, StatsMode::Exact);
    let program = WcoProgram::new_with_stats(&q, &db, 27, 5, &exact).unwrap();
    assert_eq!(program.num_rounds(), 2);
    assert_eq!(
        shape(program.plan().heavy(), program.plan().patterns(), &q, 2400),
        ["[1, 2] [1, 2] [1, 2]", "[] [3, 3, 2] @0+26", "[0, 1, 2] [1, 1, 1] @18+1",]
    );
    let wco = PlannerChoice::WorstCaseOptimal;
    assert_eq!(trace_built(&program, wco, &q, &db, 27, 5), (17469224017460809696, 324, 824));

    let sampled = DbStatistics::collect(&db, StatsMode::Sampled { budget: 200, seed: 3 });
    let program = WcoProgram::new_with_stats(&q, &db, 27, 5, &sampled).unwrap();
    assert_eq!(
        shape(program.plan().heavy(), program.plan().patterns(), &q, 2400),
        [
            "[1, 2] [1, 2] [1, 2]",
            "[] [2, 1, 1] @0+2",
            "[0] [2, 2, 1] @2+4",
            "[1] [1, 2, 2] @6+4",
            "[0, 1] [1, 2, 2] @10+4",
            "[2] [2, 1, 2] @14+4",
            "[0, 2] [2, 2, 1] @18+4",
            "[1, 2] [2, 1, 2] @22+4",
            "[0, 1, 2] [1, 1, 1] @26+1",
        ]
    );
    assert_eq!(trace(&program, &q, &db, 27, true), (10268717469364771567, 3900, 5812));

    // One planted key on half of every relation: the exact scan finds
    // three heavy subsets populated in every atom and carves four groups.
    let db = heavy_hitter_database(&q, 1000, 2000, 0.5, 11);
    let program = WcoProgram::new(&q, &db, 27, 5).unwrap();
    assert_eq!(
        shape(program.plan().heavy(), program.plan().patterns(), &q, 1000),
        [
            "[1] [1] [1]",
            "[] [3, 2, 2] @0+13",
            "[1] [2, 1, 4] @12+8",
            "[1, 2] [5, 1, 1] @20+5",
            "[0, 1, 2] [1, 1, 1] @25+1",
        ]
    );
    assert_eq!(trace_built(&program, wco, &q, &db, 27, 5), (16196464149606346382, 9004, 14014));
}
