//! The skew-resilient one-round program: light tuples through the ordinary
//! HyperCube grid, heavy tuples through their residual plan's grid.
//!
//! Routing (Beame et al. 2014, Section 4): a base tuple `t` of atom `S_j`
//! has a *heavy pattern* `h(t) = {x ∈ vars(S_j) : t[x] heavy}`. The plan
//! for heavy set `H` must see exactly the `S_j`-tuples whose pattern is
//! `H ∩ vars(S_j)`, so `t` is sent to every plan `H` with
//! `H ∩ vars(S_j) = h(t)` — its own pattern's plan plus the plans that
//! additionally fix variables `t` does not mention. That cross-plan
//! replication is a factor of at most `2^{|capable ∖ vars(S_j)|}`,
//! independent of `p`, and it is what makes the outputs line up: an answer
//! whose heavy configuration is `G` is produced by plan `G` and by no
//! other, so the per-plan outputs partition the join result.
//!
//! Within a plan the routing is ordinary HyperCube over the plan's share
//! vector: heavy variables have share 1 (their single coordinate carries
//! no information — the residual shares on the light variables do the
//! balancing), and variables absent from the atom are free dimensions.
//! Destinations remain a pure function of `(tag, tuple)`, as the
//! tuple-based MPC model requires — the database statistics are consumed
//! at *planning* time, not at routing time.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mpc_core::shares::ShareAllocation;
use mpc_cq::{Atom, Query};
use mpc_data::{DbStatistics, StatsMode};
use mpc_sim::program::hash_value;
use mpc_sim::{Cluster, MpcConfig, MpcProgram, Routed, RunResult, ServerState};
use mpc_storage::{Database, Relation, Tuple, Value};

use crate::detector::{HeavyHitterDetector, HeavyHitterPolicy};
use crate::residual::{consistent_cells, ResidualPlanSet};
use crate::Result;

/// A one-round [`MpcProgram`] that executes every residual plan of a
/// [`ResidualPlanSet`] side by side on disjoint server groups.
#[derive(Debug, Clone)]
pub struct SkewResilientProgram {
    query: Query,
    plans: ResidualPlanSet,
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
    pub fn with_mode(
        query: &Query,
        db: &Database,
        p: usize,
        policy: &HeavyHitterPolicy,
        seed: u64,
        mode: StatsMode,
    ) -> Result<Self> {
        let base = ShareAllocation::optimal(query, p).map_err(crate::SkewError::from)?;
        let stats = DbStatistics::collect(db, mode);
        let detector = HeavyHitterDetector::new(policy.clone());
        let heavy = detector.detect_from_stats(query, &stats, &base)?;
        let plans = ResidualPlanSet::build_with_stats(query, db, heavy, p, &stats)?;
        Ok(Self::with_plans(query, plans, seed))
    }

    /// Build the program from an explicit plan set.
    pub fn with_plans(query: &Query, plans: ResidualPlanSet, seed: u64) -> Self {
        let seeds = derive_seeds(seed, query.num_vars());
        SkewResilientProgram { query: query.clone(), plans, seeds }
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
        let pattern = self.plans.heavy_pattern(atom, tuple)?;
        self.plans.plan_for_pattern(&pattern)
    }

    /// The indices of all plans a tuple is routed to: those agreeing with
    /// its pattern on the atom's variables.
    pub fn routed_plans(&self, atom: &Atom, tuple: &[Value]) -> Vec<usize> {
        let Some(pattern) = self.plans.heavy_pattern(atom, tuple) else {
            return Vec::new();
        };
        let vars = atom.distinct_vars();
        self.plans
            .plans()
            .iter()
            .enumerate()
            .filter(|(_, pl)| {
                pl.heavy_vars
                    .intersection(&vars)
                    .copied()
                    .collect::<std::collections::BTreeSet<_>>()
                    == pattern
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Destination servers of one tuple of `atom` (global indices).
    pub fn destinations(&self, atom: &Atom, tuple: &[Value]) -> Vec<usize> {
        let mut dests = Vec::new();
        for idx in self.routed_plans(atom, tuple) {
            let plan = &self.plans.plans()[idx];
            let mut partial: Vec<Option<usize>> = vec![None; self.query.num_vars()];
            for (pos, var) in atom.vars.iter().enumerate() {
                let coord = hash_value(self.seeds[var.0], tuple[pos], plan.shares[var.0].max(1));
                partial[var.0] = Some(coord);
            }
            dests.extend(
                consistent_cells(&plan.shares, &partial).into_iter().map(|c| plan.offset + c),
            );
        }
        dests
    }
}

impl MpcProgram for SkewResilientProgram {
    fn num_rounds(&self) -> usize {
        1
    }

    fn route_input(&self, relation: &Relation, _p: usize) -> mpc_sim::Result<Vec<Routed>> {
        let Some((_, atom)) = self.query.atom_by_name(relation.name()) else {
            // Relations not mentioned by the query are simply not shuffled.
            return Ok(Vec::new());
        };
        Ok(relation
            .iter()
            .map(|t| Routed::new(relation.name(), Tuple::new(t), self.destinations(atom, t)))
            .collect())
    }

    fn compute(
        &self,
        _round: usize,
        _server: usize,
        _state: &ServerState,
    ) -> mpc_sim::Result<Vec<Relation>> {
        Ok(Vec::new())
    }

    fn output(&self, server: usize, state: &ServerState) -> mpc_sim::Result<Relation> {
        // Idle servers (beyond the packed plan grids) and cells that never
        // received a complete atom set report nothing.
        if self.plans.plan_of_server(server).is_none() {
            return Ok(Relation::empty(self.query.name(), self.query.num_vars()));
        }
        for atom in self.query.atoms() {
            if state.relation(&atom.name).is_none() {
                return Ok(Relation::empty(self.query.name(), self.query.num_vars()));
            }
        }
        Ok(mpc_storage::join::evaluate(&self.query, state)?)
    }

    fn output_name(&self) -> String {
        self.query.name().to_string()
    }

    fn output_arity(&self) -> usize {
        self.query.num_vars()
    }
}

/// Convenience entry point mirroring [`mpc_core::hypercube::HyperCube`]:
/// plan against the database, run on a cluster, return result + plan
/// diagnostics.
#[derive(Debug, Clone)]
pub struct SkewResilient;

/// The outcome of a skew-resilient run.
#[derive(Debug, Clone)]
pub struct SkewResilientOutcome {
    /// Simulator output and per-round statistics.
    pub result: RunResult,
    /// The residual plan set that was executed (plan shares, server
    /// groups, detected heavy values).
    pub plan_set: ResidualPlanSet,
}

impl SkewResilientOutcome {
    /// Number of residual plans (1 = no heavy hitters detected, the run
    /// was an ordinary HyperCube).
    pub fn num_plans(&self) -> usize {
        self.plan_set.plans().len()
    }

    /// Total number of detected heavy (variable, value) pairs.
    pub fn num_heavy_values(&self) -> usize {
        self.plan_set.heavy().num_heavy_values()
    }
}

impl SkewResilient {
    /// Run the skew-resilient HyperCube for `q` on `db` under the given
    /// configuration with the default detection policy and seed.
    ///
    /// # Errors
    ///
    /// Propagates planning, configuration and simulation errors.
    pub fn run(q: &Query, db: &Database, config: &MpcConfig) -> Result<SkewResilientOutcome> {
        Self::run_seeded(q, db, config, &HeavyHitterPolicy::default(), 0x5EED)
    }

    /// Run with an explicit policy and hash seed.
    ///
    /// # Errors
    ///
    /// Propagates planning, configuration and simulation errors.
    pub fn run_seeded(
        q: &Query,
        db: &Database,
        config: &MpcConfig,
        policy: &HeavyHitterPolicy,
        seed: u64,
    ) -> Result<SkewResilientOutcome> {
        Self::run_with_mode(q, db, config, policy, seed, StatsMode::Exact)
    }

    /// Run with an explicit [`StatsMode`]: `Sampled` plans from a seeded
    /// sub-linear sample instead of full scans. The *output* is identical
    /// either way — sampling moves tuples between plans, not out of the
    /// join — only load balance and planning cost differ.
    ///
    /// # Errors
    ///
    /// Propagates planning, configuration and simulation errors.
    pub fn run_with_mode(
        q: &Query,
        db: &Database,
        config: &MpcConfig,
        policy: &HeavyHitterPolicy,
        seed: u64,
        mode: StatsMode,
    ) -> Result<SkewResilientOutcome> {
        let program = SkewResilientProgram::with_mode(q, db, config.p, policy, seed, mode)?;
        let plan_set = program.plan_set().clone();
        let cluster = Cluster::new(config.clone()).map_err(crate::SkewError::from)?;
        let result = cluster.run(&program, db).map_err(crate::SkewError::from)?;
        Ok(SkewResilientOutcome { result, plan_set })
    }
}

/// Derive `k` independent per-variable seeds from one master seed (same
/// scheme as the vanilla HyperCube program).
fn derive_seeds(seed: u64, k: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k).map(|_| rng.gen()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_data::skew::{heavy_hitter_database, zipf_database};
    use mpc_storage::join::evaluate;

    #[test]
    fn matches_sequential_join_on_skewed_chain() {
        let q = families::chain(2);
        let db = heavy_hitter_database(&q, 1000, 1000, 0.5, 3);
        let cfg = MpcConfig::new(16, 0.0);
        let outcome = SkewResilient::run(&q, &db, &cfg).unwrap();
        let truth = evaluate(&q, &db).unwrap();
        assert!(outcome.result.output.same_tuples(&truth));
        assert_eq!(outcome.num_plans(), 2);
        assert!(outcome.num_heavy_values() >= 1);
    }

    #[test]
    fn matches_sequential_join_on_zipf_cycle() {
        let q = families::cycle(3);
        let db = zipf_database(&q, 400, 1200, 1.5, 9);
        let cfg = MpcConfig::new(27, 1.0 / 3.0);
        let outcome = SkewResilient::run(&q, &db, &cfg).unwrap();
        let truth = evaluate(&q, &db).unwrap();
        assert!(outcome.result.output.same_tuples(&truth));
    }

    #[test]
    fn skew_free_input_runs_as_plain_hypercube() {
        let q = families::triangle();
        let db = matching_database(&q, 500, 11);
        let outcome = SkewResilient::run(&q, &db, &MpcConfig::new(27, 1.0 / 3.0)).unwrap();
        assert_eq!(outcome.num_plans(), 1);
        assert_eq!(outcome.num_heavy_values(), 0);
        let truth = evaluate(&q, &db).unwrap();
        assert!(outcome.result.output.same_tuples(&truth));
        assert!(outcome.result.within_budget());
    }

    #[test]
    fn each_answer_is_produced_by_exactly_one_server() {
        let q = families::chain(2);
        let db = heavy_hitter_database(&q, 800, 800, 0.4, 21);
        let outcome = SkewResilient::run(&q, &db, &MpcConfig::new(24, 0.0)).unwrap();
        let produced: usize = outcome.result.per_server_output.iter().sum();
        assert_eq!(
            produced,
            outcome.result.output.len(),
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
            let cfg = MpcConfig::new(16, 0.0);
            let policy = HeavyHitterPolicy::default();
            let exact = SkewResilient::run_seeded(&q, &db, &cfg, &policy, 7).unwrap();
            let sampled = SkewResilient::run_with_mode(
                &q,
                &db,
                &cfg,
                &policy,
                7,
                StatsMode::Sampled { budget: 500, seed },
            )
            .unwrap();
            let truth = evaluate(&q, &db).unwrap();
            assert!(exact.result.output.same_tuples(&truth));
            assert!(sampled.result.output.same_tuples(&truth), "seed {seed}");
        }
    }

    #[test]
    fn unknown_relation_is_ignored_by_routing() {
        let q = families::chain(2);
        let db = matching_database(&q, 100, 1);
        let program =
            SkewResilientProgram::new(&q, &db, 8, &HeavyHitterPolicy::default(), 1).unwrap();
        let junk = Relation::from_tuples("Junk", 2, vec![[1u64, 2]]).unwrap();
        assert!(program.route_input(&junk, 8).unwrap().is_empty());
    }
}
