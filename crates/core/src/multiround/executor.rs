//! Execution of multi-round plans on the MPC simulator.
//!
//! A [`MultiRoundPlan`] becomes an [`MpcProgram`] of one grid
//! ([`crate::grid`]) per operator: the operator's own share allocation
//! over its own variables, hashed coordinates from its own seeds, all `p`
//! servers. What this module adds is *when* tuples travel. Base relations
//! are routed in round 1 straight to the cells of the operator that
//! consumes them — even if that operator only runs in a later round, the
//! routing depends only on the tuple, so the data simply waits at the
//! right server. At the end of each round every server locally evaluates
//! the operators of that round for which it holds data, producing
//! intermediate views; at the beginning of the next round the view tuples
//! are shipped — as join tuples, exactly what the tuple-based MPC model of
//! Section 4.1 permits — to the cells of the operator that consumes them.
//! After the final round each server projects its part of the final view
//! onto the original variable order.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mpc_cq::Query;
use mpc_sim::{MpcProgram, RouteSink, ServerState};
use mpc_storage::{Relation, Value};

use crate::error::CoreError;
use crate::grid::{hashed, AtomRoute, Grid};
use crate::multiround::planner::MultiRoundPlan;
use crate::Result;

/// One operator of a plan, instantiated for execution: the routing rule of
/// each of its atoms in its own grid, and its hash seeds.
#[derive(Debug, Clone)]
struct OperatorExec {
    round: usize,
    view_name: String,
    query: Query,
    routes: Vec<AtomRoute>,
    seeds: Vec<u64>,
}

impl OperatorExec {
    /// Route the rows of `rel` as the operator's atom `atom`, under the
    /// atom's name.
    fn route(&self, sink: &mut dyn RouteSink, atom: usize, rel: &Relation) -> mpc_sim::Result<()> {
        let (route, coord) = (&self.routes[atom], hashed(&self.seeds));
        let tag = &self.query.atoms()[atom].name;
        let mut cells = Vec::new();
        for t in rel.iter() {
            cells.clear();
            if route.cells_into(t, &coord, &mut cells) {
                sink.emit(tag, t, &cells)?;
            }
        }
        Ok(())
    }
}

/// A multi-round plan compiled into an executable MPC program.
#[derive(Debug, Clone)]
pub struct PlanProgram {
    original: Query,
    num_rounds: usize,
    operators: Vec<OperatorExec>,
    /// Relation/view name → index of the operator that consumes it.
    consumer_of: HashMap<String, usize>,
    /// View name → round in which it is produced.
    produced_in_round: HashMap<String, usize>,
    /// For each original variable (in order), the column of the final view
    /// holding its value.
    final_projection: Vec<usize>,
    final_view: String,
}

impl PlanProgram {
    /// Compile a plan for execution on `p` servers with the given hash
    /// seed.
    ///
    /// # Errors
    ///
    /// Propagates plan-validation and share-allocation errors; rejects
    /// plans in which one relation is consumed by two operators.
    pub fn new(plan: &MultiRoundPlan, p: usize, seed: u64) -> Result<Self> {
        plan.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut operators = Vec::new();
        let mut consumer_of = HashMap::new();
        let mut produced_in_round = HashMap::new();

        for (li, level) in plan.levels().iter().enumerate() {
            let round = li + 1;
            for op in &level.operators {
                let shares = op.allocation(p)?.shares;
                let seeds: Vec<u64> = (0..op.query.num_vars()).map(|_| rng.gen()).collect();
                let index = operators.len();
                for atom in op.query.atoms() {
                    if consumer_of.insert(atom.name.clone(), index).is_some() {
                        return Err(CoreError::InvalidPlan(format!(
                            "relation {} is consumed by two operators",
                            atom.name
                        )));
                    }
                }
                produced_in_round.insert(op.view_name.clone(), round);
                operators.push(OperatorExec {
                    round,
                    view_name: op.view_name.clone(),
                    query: op.query.clone(),
                    routes: Grid::new(&shares, 0).routes(&op.query),
                    seeds,
                });
            }
        }

        let final_op = operators
            .last()
            .ok_or_else(|| CoreError::InvalidPlan("plan has no operators".to_string()))?;
        let final_view = final_op.view_name.clone();
        let final_vars = final_op.query.var_names();
        let mut final_projection = Vec::with_capacity(plan.original().num_vars());
        for v in plan.original().var_names() {
            let col = final_vars.iter().position(|w| w == v).ok_or_else(|| {
                CoreError::InvalidPlan(format!("final operator does not bind {v}"))
            })?;
            final_projection.push(col);
        }

        Ok(PlanProgram {
            original: plan.original().clone(),
            num_rounds: plan.num_rounds(),
            operators,
            consumer_of,
            produced_in_round,
            final_projection,
            final_view,
        })
    }

    /// The query this program computes.
    pub fn original(&self) -> &Query {
        &self.original
    }
}

impl MpcProgram for PlanProgram {
    fn num_rounds(&self) -> usize {
        self.num_rounds
    }

    fn route_input_into(
        &self,
        relation: &Relation,
        _p: usize,
        sink: &mut dyn RouteSink,
    ) -> mpc_sim::Result<()> {
        let Some(&op_idx) = self.consumer_of.get(relation.name()) else {
            return Ok(());
        };
        let op = &self.operators[op_idx];
        match op.query.atom_by_name(relation.name()) {
            Some((id, _)) => op.route(sink, id.0, relation),
            None => Ok(()),
        }
    }

    fn compute(
        &self,
        round: usize,
        _server: usize,
        state: &ServerState,
    ) -> mpc_sim::Result<Vec<Relation>> {
        let mut produced = Vec::new();
        for op in self.operators.iter().filter(|op| op.round == round) {
            if op.query.atoms().iter().any(|a| state.relation(&a.name).is_none()) {
                continue;
            }
            produced.push(mpc_storage::join::evaluate(&op.query, state)?);
        }
        Ok(produced)
    }

    fn route_tuples_into(
        &self,
        round: usize,
        _server: usize,
        state: &ServerState,
        sink: &mut dyn RouteSink,
    ) -> mpc_sim::Result<()> {
        for op in self.operators.iter().filter(|op| op.round == round) {
            for (id, atom) in op.query.atoms().iter().enumerate() {
                // Base relations were already placed in round 1; only views
                // produced in earlier rounds travel now.
                let Some(&produced_round) = self.produced_in_round.get(&atom.name) else {
                    continue;
                };
                if produced_round >= round {
                    continue;
                }
                if let Some(rel) = state.relation(&atom.name) {
                    op.route(sink, id, rel)?;
                }
            }
        }
        Ok(())
    }

    fn output(&self, _server: usize, state: &ServerState) -> mpc_sim::Result<Relation> {
        let mut out = Relation::empty(self.original.name(), self.original.num_vars());
        if let Some(view) = state.relation(&self.final_view) {
            out.reserve(view.len());
            let mut projected: Vec<Value> = Vec::with_capacity(self.final_projection.len());
            for t in view.iter() {
                projected.clear();
                projected.extend(self.final_projection.iter().map(|&c| t[c]));
                out.insert_row(&projected)?;
            }
        }
        Ok(out)
    }

    fn output_name(&self) -> String {
        self.original.name().to_string()
    }

    fn output_arity(&self) -> usize {
        self.original.num_vars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_lp::Rational;
    use mpc_sim::{Cluster, MpcConfig, RunResult};
    use mpc_storage::join::evaluate;
    use mpc_storage::Database;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    /// Compile `plan` for `p` servers and run it at the plan's ε.
    fn execute(plan: &MultiRoundPlan, db: &Database, p: usize, seed: u64) -> RunResult {
        let program = PlanProgram::new(plan, p, seed).unwrap();
        let config = MpcConfig::new(p, plan.epsilon().to_f64());
        Cluster::new(config).unwrap().run(&program, db).unwrap()
    }

    /// Plan `q` at `epsilon` and run it.
    fn run(q: &Query, db: &Database, p: usize, epsilon: Rational, seed: u64) -> RunResult {
        execute(&MultiRoundPlan::build(q, epsilon).unwrap(), db, p, seed)
    }

    #[test]
    fn chain_l4_two_rounds_at_epsilon_zero() {
        let q = families::chain(4);
        let db = matching_database(&q, 1200, 3);
        let result = run(&q, &db, 16, Rational::ZERO, 7);
        assert_eq!(result.num_rounds(), 2);
        let expected = evaluate(&q, &db).unwrap();
        assert_eq!(expected.len(), 1200);
        assert!(result.output.same_tuples(&expected));
        assert!(result.within_budget(), "L4 bushy plan stays within the ε = 0 budget");
    }

    #[test]
    fn chain_l16_two_rounds_at_epsilon_half() {
        // Example 4.2.
        let q = families::chain(16);
        let db = matching_database(&q, 300, 5);
        let result = run(&q, &db, 16, r(1, 2), 11);
        assert_eq!(result.num_rounds(), 2);
        let expected = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&expected));
    }

    #[test]
    fn chain_l8_three_rounds_at_epsilon_zero() {
        let q = families::chain(8);
        let db = matching_database(&q, 500, 23);
        let result = run(&q, &db, 8, Rational::ZERO, 2);
        assert_eq!(result.num_rounds(), 3);
        let expected = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&expected));
    }

    #[test]
    fn spoke_two_rounds_at_epsilon_zero() {
        let q = families::spoke(3);
        let db = matching_database(&q, 400, 9);
        let result = run(&q, &db, 9, Rational::ZERO, 3);
        assert_eq!(result.num_rounds(), 2);
        let expected = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&expected));
    }

    #[test]
    fn cycle_c6_multi_round_matches_sequential() {
        let q = families::cycle(6);
        let db = matching_database(&q, 400, 13);
        let result = run(&q, &db, 8, Rational::ZERO, 5);
        assert_eq!(result.num_rounds(), 3);
        let expected = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&expected));
    }

    #[test]
    fn single_round_queries_collapse_to_hypercube() {
        let q = families::star(3);
        let db = matching_database(&q, 600, 21);
        let result = run(&q, &db, 8, Rational::ZERO, 1);
        assert_eq!(result.num_rounds(), 1);
        let expected = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&expected));
    }

    #[test]
    fn binomial_query_multi_round() {
        let q = families::binomial(4, 2).unwrap();
        let db = matching_database(&q, 200, 2);
        let result = run(&q, &db, 8, Rational::ZERO, 17);
        let expected = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&expected));
        assert_eq!(result.num_rounds(), 2);
    }

    #[test]
    fn plan_reuse_with_different_seeds_is_consistent() {
        let q = families::chain(6);
        let db = matching_database(&q, 300, 4);
        let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
        let a = execute(&plan, &db, 8, 1);
        let b = execute(&plan, &db, 8, 2);
        assert!(a.output.same_tuples(&b.output));
        let expected = evaluate(&q, &db).unwrap();
        assert!(a.output.same_tuples(&expected));
    }

    #[test]
    fn deterministic_given_seed() {
        let q = families::chain(5);
        let db = matching_database(&q, 200, 6);
        let a = run(&q, &db, 8, Rational::ZERO, 99);
        let b = run(&q, &db, 8, Rational::ZERO, 99);
        assert_eq!(a.output.sorted_tuples(), b.output.sorted_tuples());
        assert_eq!(
            a.rounds.iter().map(|r| r.total_bytes_received).collect::<Vec<_>>(),
            b.rounds.iter().map(|r| r.total_bytes_received).collect::<Vec<_>>()
        );
    }
}
