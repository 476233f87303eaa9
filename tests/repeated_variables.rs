//! A tuple that disagrees with itself on a repeated variable — `R(x,x,y)`
//! with `t[0] ≠ t[1]` — can never join. The one grid router drops it for
//! every program; before it, the multi-round operators and the partial
//! HyperCube shipped such tuples to the cells of their last position.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mpc_query::core::hypercube::{HyperCubeProgram, PartialHyperCubeProgram};
use mpc_query::core::multiround::executor::PlanProgram;
use mpc_query::prelude::*;
use mpc_query::sim::{MpcProgram, RouteSink, Routed, ServerState};
use mpc_query::storage::join::evaluate;
use mpc_query::storage::{Tuple, Value};

/// `R(x,x,y), S(y,z), T(z,w), U(w,v)`: a chain of four atoms (two rounds
/// at ε = 0) whose first atom repeats a variable.
fn query() -> Query {
    Query::new(
        "rep",
        vec![
            ("R", vec!["x", "x", "y"]),
            ("S", vec!["y", "z"]),
            ("T", vec!["z", "w"]),
            ("U", vec!["w", "v"]),
        ],
    )
    .unwrap()
}

/// Small domain, so that a third of `R` agrees with itself and the join is
/// not empty.
fn database(q: &Query, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new(12);
    for atom in q.atoms() {
        let rows: Vec<Vec<u64>> = (0..150)
            .map(|_| {
                let mut row: Vec<u64> = atom.vars.iter().map(|_| rng.gen_range(0..12)).collect();
                if atom.name == "R" && rng.gen_range(0..3) == 0 {
                    row[1] = row[0];
                }
                row
            })
            .collect();
        db.insert_relation(Relation::from_tuples(&atom.name, atom.arity(), rows).unwrap());
    }
    db
}

/// Delegates to `inner`, keeping every `R` message it routes.
struct Spy<'a, P> {
    inner: &'a P,
    r_messages: Mutex<Vec<Routed>>,
}

/// Passes every row on to `inner`, keeping a copy of the `R` ones.
struct Tap<'s> {
    inner: &'s mut dyn RouteSink,
    kept: &'s Mutex<Vec<Routed>>,
}

impl RouteSink for Tap<'_> {
    fn emit(&mut self, tag: &str, row: &[Value], dests: &[usize]) -> mpc_query::sim::Result<()> {
        if tag == "R" {
            self.kept.lock().unwrap().push(Routed::new(tag, Tuple::new(row), dests.to_vec()));
        }
        self.inner.emit(tag, row, dests)
    }
}

impl<P: MpcProgram> MpcProgram for Spy<'_, P> {
    fn num_rounds(&self) -> usize {
        self.inner.num_rounds()
    }
    fn route_input_into(
        &self,
        relation: &Relation,
        p: usize,
        sink: &mut dyn RouteSink,
    ) -> mpc_query::sim::Result<()> {
        let mut tap = Tap { inner: sink, kept: &self.r_messages };
        self.inner.route_input_into(relation, p, &mut tap)
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
        let mut tap = Tap { inner: sink, kept: &self.r_messages };
        self.inner.route_tuples_into(round, server, state, &mut tap)
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

/// Run under the spy: the output is the sequential join, every
/// self-consistent `R` tuple was routed somewhere, no other one at all.
fn check<P: MpcProgram>(program: &P, q: &Query, db: &Database, p: usize, what: &str) {
    let spy = Spy { inner: program, r_messages: Mutex::new(Vec::new()) };
    let result = Cluster::new(MpcConfig::new(p, 1.0)).unwrap().run(&spy, db).unwrap();
    let truth = evaluate(q, db).unwrap();
    assert!(!truth.is_empty(), "{what}: the join has answers");
    assert!(result.output.same_tuples(&truth), "{what}: output differs from the join");

    let routed = spy.r_messages.into_inner().unwrap();
    let consistent = db.relation("R").unwrap().iter().filter(|t| t[0] == t[1]).count();
    assert!(consistent > 0 && consistent < db.relation("R").unwrap().len());
    assert_eq!(routed.len(), consistent, "{what}: exactly the consistent tuples travel");
    for msg in &routed {
        let t = msg.tuple.values();
        assert_eq!(t[0], t[1], "{what}: {t:?} contradicts itself and was routed");
        assert!(!msg.destinations.is_empty(), "{what}: {t:?} was routed nowhere");
    }
}

#[test]
fn self_contradicting_tuples_are_dropped_by_every_program() {
    let q = query();
    for seed in [3u64, 17] {
        let db = database(&q, seed);

        let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
        let program = PlanProgram::new(&plan, 8, seed).unwrap();
        assert!(program.num_rounds() >= 2);
        check(&program, &q, &db, 8, "multi-round plan");

        // ε = ε*: every virtual cell is materialised, so the partial
        // program reports the whole join.
        let eps = space_exponent(&q).unwrap();
        let program = PartialHyperCubeProgram::new(&q, 16, eps, seed).unwrap();
        assert!(program.expected_fraction() > 0.99);
        check(&program, &q, &db, 16, "partial HyperCube");

        let program = HyperCubeProgram::new(&q, 16, seed).unwrap();
        check(&program, &q, &db, 16, "HyperCube");
    }
}
