//! The skew-resilient one-round program: every residual plan's grid
//! ([`crate::grid`]) side by side on disjoint server groups, hashed
//! coordinates throughout.
//!
//! What this program adds is the fan-out across plans (Beame et al. 2014,
//! Section 4). The plan for heavy set `H` must see exactly the
//! `S_j`-tuples whose heavy pattern is `H ∩ vars(S_j)`, so a tuple `t` is
//! sent to every plan `H` with `H ∩ vars(S_j) = h(t)` — its own pattern's
//! plan plus the plans that additionally fix variables `t` does not
//! mention. That cross-plan replication is a factor of at most
//! `2^{|capable ∖ vars(S_j)|}`, independent of `p`, and it is what makes
//! the outputs line up: an answer whose heavy configuration is `G` is
//! produced by plan `G` and by no other, so the per-plan outputs partition
//! the join result. Destinations remain a pure function of
//! `(tag, tuple)`, as the tuple-based MPC model requires — the database
//! statistics are consumed at *planning* time, not at routing time.

use mpc_cq::{Atom, Query};
use mpc_data::{DbStatistics, StatsMode};
use mpc_sim::{MpcProgram, RouteSink, ServerState};
use mpc_storage::{Database, Relation, Value};

use crate::grid::{derive_seeds, hashed, local_join, AtomRoute};
use crate::heavy::{group_of_server, GroupRoutes};
use crate::shares::ShareAllocation;
use crate::skew::{HeavyHitterDetector, HeavyHitterPolicy, ResidualPlanSet};
use crate::Result;

/// A one-round [`MpcProgram`] that executes every residual plan of a
/// [`ResidualPlanSet`] side by side on disjoint server groups.
#[derive(Debug, Clone)]
pub struct SkewResilientProgram {
    query: Query,
    plans: ResidualPlanSet,
    /// The plans' groups compiled for routing.
    routes: GroupRoutes,
    /// Per-variable hash seeds, shared by every plan (a value must land on
    /// the same coordinate no matter which plan routes it).
    seeds: Vec<u64>,
}

impl SkewResilientProgram {
    /// Plan against the given database: detect heavy hitters with `policy`
    /// relative to the optimal HyperCube allocation for `p` servers, build
    /// the residual plans and bake both into a routable program.
    ///
    /// # Errors
    ///
    /// Propagates allocation and planning errors.
    pub fn new(
        query: &Query,
        db: &Database,
        p: usize,
        policy: &HeavyHitterPolicy,
        seed: u64,
    ) -> Result<Self> {
        Self::with_mode(query, db, p, policy, seed, StatsMode::Exact)
    }

    /// Like [`SkewResilientProgram::new`], but collecting the planning
    /// statistics under an explicit [`StatsMode`] — the adaptive-runtime
    /// path. One [`DbStatistics`] artefact feeds detection, pattern
    /// counting and the degree-LP share refinement, so sampled planning
    /// costs `O(p · budget)` instead of repeated full scans.
    ///
    /// # Errors
    ///
    /// Propagates allocation and planning errors.
    pub(crate) fn with_mode(
        query: &Query,
        db: &Database,
        p: usize,
        policy: &HeavyHitterPolicy,
        seed: u64,
        mode: StatsMode,
    ) -> Result<Self> {
        let base = ShareAllocation::optimal(query, p)?;
        let stats = DbStatistics::collect(db, mode);
        let detector = HeavyHitterDetector::new(policy.clone());
        let heavy = detector.detect_from_stats(query, &stats, &base)?;
        let plans = ResidualPlanSet::build_with_stats(query, db, heavy, p, &stats)?;
        Ok(Self::with_plans(query, plans, seed))
    }

    /// Build the program from an explicit plan set.
    pub fn with_plans(query: &Query, plans: ResidualPlanSet, seed: u64) -> Self {
        let routes = GroupRoutes::new(query, plans.heavy(), plans.plans());
        let seeds = derive_seeds(seed, query.num_vars());
        SkewResilientProgram { query: query.clone(), plans, routes, seeds }
    }

    /// The residual plan set in use.
    pub fn plan_set(&self) -> &ResidualPlanSet {
        &self.plans
    }

    /// The index of the plan that *owns* a tuple's pattern class — the
    /// plan whose heavy set equals the tuple's own heavy pattern. Every
    /// tuple has exactly one owning plan ([`None`] only for tuples that
    /// disagree on a repeated variable and are dropped).
    pub fn owning_plan(&self, atom: &Atom, tuple: &[Value]) -> Option<usize> {
        self.routes.group_of(self.plans.heavy().pattern(atom, tuple)?)
    }

    /// The indices of all plans a tuple is routed to: those agreeing with
    /// its pattern on the atom's variables.
    pub fn routed_plans(&self, atom: &Atom, tuple: &[Value]) -> Vec<usize> {
        let mut plans = Vec::new();
        if let Some((id, _)) = self.query.atom_by_name(&atom.name) {
            self.fan_out(id.0, tuple, |plan, _| plans.push(plan));
        }
        plans
    }

    /// Destination servers of one tuple of `atom` (global indices).
    pub fn destinations(&self, atom: &Atom, tuple: &[Value]) -> Vec<usize> {
        let mut dests = Vec::new();
        if let Some((id, _)) = self.query.atom_by_name(&atom.name) {
            self.cells_into(id.0, tuple, &mut dests);
        }
        dests
    }

    /// Call `each(plan index, the atom's route in that plan)` for every
    /// plan whose heavy set induces the tuple's own pattern on atom number
    /// `id`; `false` for a tuple that disagrees with itself on a repeated
    /// variable.
    fn fan_out(&self, id: usize, tuple: &[Value], mut each: impl FnMut(usize, &AtomRoute)) -> bool {
        let atom = &self.query.atoms()[id];
        let Some(pattern) = self.plans.heavy().pattern(atom, tuple) else { return false };
        for (plan, _, route) in self.routes.inducing(id, pattern) {
            each(plan, route);
        }
        true
    }

    /// Append the tuple's cells in every plan it is routed to.
    fn cells_into(&self, id: usize, tuple: &[Value], out: &mut Vec<usize>) -> bool {
        let coord = hashed(&self.seeds);
        self.fan_out(id, tuple, |_, route| {
            route.cells_into(tuple, &coord, out);
        })
    }
}

impl MpcProgram for SkewResilientProgram {
    fn num_rounds(&self) -> usize {
        1
    }

    fn route_input_into(
        &self,
        relation: &Relation,
        _p: usize,
        sink: &mut dyn RouteSink,
    ) -> mpc_sim::Result<()> {
        let Some((id, _)) = self.query.atom_by_name(relation.name()) else {
            // Relations not mentioned by the query are simply not shuffled.
            return Ok(());
        };
        let mut cells = Vec::new();
        for t in relation.iter() {
            cells.clear();
            if self.cells_into(id.0, t, &mut cells) {
                sink.emit(relation.name(), t, &cells)?;
            }
        }
        Ok(())
    }

    fn output(&self, server: usize, state: &ServerState) -> mpc_sim::Result<Relation> {
        // Idle servers (beyond the packed plan grids) report nothing.
        if group_of_server(self.plans.plans(), server).is_none() {
            return Ok(Relation::empty(self.query.name(), self.query.num_vars()));
        }
        local_join(&self.query, state)
    }

    fn output_name(&self) -> String {
        self.query.name().to_string()
    }

    fn output_arity(&self) -> usize {
        self.query.num_vars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_data::skew::{heavy_hitter_database, zipf_database};
    use mpc_sim::{Cluster, MpcConfig, RunResult};
    use mpc_storage::join::evaluate;

    /// The program planned under `mode` with the default policy and `seed`,
    /// and its run on `p` servers at space exponent `eps`.
    fn run(
        q: &Query,
        db: &Database,
        p: usize,
        eps: f64,
        seed: u64,
        mode: StatsMode,
    ) -> (SkewResilientProgram, RunResult) {
        let policy = HeavyHitterPolicy::default();
        let program = SkewResilientProgram::with_mode(q, db, p, &policy, seed, mode).unwrap();
        let result = Cluster::new(MpcConfig::new(p, eps)).unwrap().run(&program, db).unwrap();
        (program, result)
    }

    #[test]
    fn matches_sequential_join_on_skewed_chain() {
        let q = families::chain(2);
        let db = heavy_hitter_database(&q, 1000, 1000, 0.5, 3);
        let (program, result) = run(&q, &db, 16, 0.0, 0x5EED, StatsMode::Exact);
        let truth = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&truth));
        assert_eq!(program.plan_set().plans().len(), 2);
        assert!(program.plan_set().heavy().num_heavy_values() >= 1);
    }

    #[test]
    fn matches_sequential_join_on_zipf_cycle() {
        let q = families::cycle(3);
        let db = zipf_database(&q, 400, 1200, 1.5, 9);
        let (_, result) = run(&q, &db, 27, 1.0 / 3.0, 0x5EED, StatsMode::Exact);
        let truth = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&truth));
    }

    #[test]
    fn skew_free_input_runs_as_plain_hypercube() {
        let q = families::triangle();
        let db = matching_database(&q, 500, 11);
        let (program, result) = run(&q, &db, 27, 1.0 / 3.0, 0x5EED, StatsMode::Exact);
        assert_eq!(program.plan_set().plans().len(), 1);
        assert_eq!(program.plan_set().heavy().num_heavy_values(), 0);
        let truth = evaluate(&q, &db).unwrap();
        assert!(result.output.same_tuples(&truth));
        assert!(result.within_budget());
    }

    #[test]
    fn each_answer_is_produced_by_exactly_one_server() {
        let q = families::chain(2);
        let db = heavy_hitter_database(&q, 800, 800, 0.4, 21);
        let (_, result) = run(&q, &db, 24, 0.0, 0x5EED, StatsMode::Exact);
        let produced: usize = result.per_server_output.iter().sum();
        assert_eq!(
            produced,
            result.output.len(),
            "per-plan outputs partition the answers — no cross-server duplicates"
        );
    }

    #[test]
    fn destinations_are_deterministic_and_in_range() {
        let q = families::chain(2);
        let db = heavy_hitter_database(&q, 1000, 1000, 0.5, 3);
        let policy = HeavyHitterPolicy::default();
        let program = SkewResilientProgram::new(&q, &db, 16, &policy, 42).unwrap();
        for rel in db.relations() {
            let (_, atom) = q.atom_by_name(rel.name()).unwrap();
            for t in rel.iter() {
                let d1 = program.destinations(atom, t);
                assert!(!d1.is_empty(), "every well-formed tuple is routed somewhere");
                assert_eq!(d1, program.destinations(atom, t));
                assert!(d1.iter().all(|&s| s < 16));
                // The owning plan is among the routed plans.
                let owner = program.owning_plan(atom, t).unwrap();
                assert!(program.routed_plans(atom, t).contains(&owner));
            }
        }
    }

    #[test]
    fn sampled_planning_preserves_the_output() {
        // The core graceful-degradation property: whatever the sample saw
        // or missed, the computed join is byte-identical to the exact
        // plan's (and to the sequential truth).
        let q = families::chain(2);
        for seed in [3u64, 8, 21] {
            let db = zipf_database(&q, 3000, 3000, 1.2, seed);
            let (_, exact) = run(&q, &db, 16, 0.0, 7, StatsMode::Exact);
            let mode = StatsMode::Sampled { budget: 500, seed };
            let (_, sampled) = run(&q, &db, 16, 0.0, 7, mode);
            let truth = evaluate(&q, &db).unwrap();
            assert!(exact.output.same_tuples(&truth));
            assert!(sampled.output.same_tuples(&truth), "seed {seed}");
        }
    }

    #[test]
    fn unknown_relation_is_ignored_by_routing() {
        let q = families::chain(2);
        let db = matching_database(&q, 100, 1);
        let program =
            SkewResilientProgram::new(&q, &db, 8, &HeavyHitterPolicy::default(), 1).unwrap();
        let junk = Relation::from_tuples("Junk", 2, vec![[1u64, 2]]).unwrap();
        assert!((&program as &dyn MpcProgram).route_input(&junk, 8).unwrap().is_empty());
    }
}
