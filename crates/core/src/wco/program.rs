//! [`WcoProgram`]: a [`WorstCaseOptimalPlan`] compiled to an
//! [`MpcProgram`], runnable unchanged on `Cluster::run`, `run_async` and
//! the `mpc-net` transports — one grid ([`crate::grid`]) per pattern
//! group, plus the two things only this program has: value-indexed
//! coordinates on a group's heavy dimensions, and a staging round.
//!
//! Dataflow (two rounds when any heavy pattern is active, one otherwise):
//!
//! * **Round 1** — the input server of relation `R` sends each tuple
//!   whose heavy pattern is `∅` into the light grid, and *stages* each
//!   tuple needed by at least one heavy grid onto a single server chosen
//!   by hashing the whole tuple over all `p` servers (tag
//!   `wco.stage##R`). Staging spreads the heavy-bound volume evenly:
//!   `O(ℓn/p)` extra per server.
//! * **Round 2** — every server re-emits its staged tuples to the grid
//!   cells of the heavy patterns that want them, under the plain relation
//!   tag. Atoms missing a grid dimension are replicated across it (the
//!   broadcast-join). Destinations are a pure function of
//!   `(tag, tuple, round)`, as the tuple-based model requires.
//! * **Output** — every grid cell (light or heavy) evaluates the query
//!   locally; cells of no grid (possible when `p` exceeds the sum of
//!   grid volumes) only staged and report nothing. Each answer is formed
//!   in exactly one cell of exactly one grid — the partition property the
//!   differential suite pins.

use mpc_cq::{Query, VarId};
use mpc_sim::program::{hash_to_bucket, hash_value};
use mpc_sim::{MpcProgram, RouteSink, ServerState};
use mpc_storage::{Database, Relation, Value};

use crate::grid::{derive_seeds, local_join, AtomRoute};
use crate::heavy::{group_of_server, GroupRoutes, Mask};
use crate::wco::plan::WorstCaseOptimalPlan;
use crate::Result;

/// Tag prefix of staged (round-1 parked, round-2 re-emitted) tuples.
const STAGE_PREFIX: &str = "wco.stage##";

/// The worst-case optimal heavy/light program. See the [module
/// docs](self) for the round structure.
#[derive(Debug, Clone)]
pub struct WcoProgram {
    plan: WorstCaseOptimalPlan,
    /// The plan's pattern groups compiled for routing, the light one
    /// first.
    routes: GroupRoutes,
    /// Per variable: its [`Mask`] bit. A dimension is value-indexed in
    /// the groups whose configuration has that bit.
    var_bits: Vec<Mask>,
    /// Per-variable hash seeds for light dimensions.
    var_seeds: Vec<u64>,
    /// Seed of the round-1 staging hash.
    stage_seed: u64,
}

impl WcoProgram {
    /// Plan against `db` and compile.
    ///
    /// # Errors
    ///
    /// Propagates planning (LP, allocation) errors; rejects `p = 0`.
    pub fn new(query: &Query, db: &Database, p: usize, seed: u64) -> Result<Self> {
        Ok(Self::with_plan(WorstCaseOptimalPlan::build(query, db, p)?, seed))
    }

    /// Plan from shared, possibly sampled [`mpc_data::DbStatistics`] and
    /// compile (see [`WorstCaseOptimalPlan::build_with_stats`] for what
    /// changes under sampling — plan quality, never the output).
    ///
    /// # Errors
    ///
    /// Propagates planning (LP, allocation) errors; rejects `p = 0`.
    pub fn new_with_stats(
        query: &Query,
        db: &Database,
        p: usize,
        seed: u64,
        stats: &mpc_data::DbStatistics,
    ) -> Result<Self> {
        Ok(Self::with_plan(WorstCaseOptimalPlan::build_with_stats(query, db, p, stats)?, seed))
    }

    /// Compile an already-built plan.
    pub fn with_plan(plan: WorstCaseOptimalPlan, seed: u64) -> Self {
        let (query, heavy) = (plan.query(), plan.heavy());
        let routes = GroupRoutes::new(query, heavy, plan.patterns());
        let var_bits = query.var_ids().map(|v| heavy.bit(v)).collect();
        // One generator: the per-variable seeds, then the staging seed.
        let mut var_seeds = derive_seeds(seed, query.num_vars() + 1);
        let stage_seed = var_seeds.pop().expect("k + 1 seeds were derived");
        WcoProgram { plan, routes, var_bits, var_seeds, stage_seed }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &WorstCaseOptimalPlan {
        &self.plan
    }

    /// Append the destination cells of one tuple in the grid of a group
    /// with heavy configuration `h`, where its atom routes by `route`:
    /// heavy dimensions are value-indexed (heavy rank mod share), light
    /// dimensions hashed.
    fn group_cells(&self, h: Mask, route: &AtomRoute, tuple: &[Value], out: &mut Vec<usize>) {
        let coord = |var: VarId, value: Value, share: usize| {
            if self.var_bits[var.0] & h != 0 {
                // Only tuples whose pattern the group induces on the atom
                // are routed at it, so the value has a rank.
                self.plan.heavy().rank(var, value).expect("a heavy value on a heavy dimension")
                    % share
            } else {
                hash_value(self.var_seeds[var.0], value, share)
            }
        };
        route.cells_into(tuple, coord, out);
    }

    /// The single staging server of a tuple: an even hash of the whole
    /// tuple over all `p` servers, salted per relation so distinct
    /// relations spread independently.
    fn stage_server(&self, atom_index: usize, tuple: &[Value]) -> usize {
        let salt = self.stage_seed ^ (atom_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        hash_to_bucket(salt, tuple, self.plan.p())
    }
}

impl MpcProgram for WcoProgram {
    fn num_rounds(&self) -> usize {
        self.plan.num_rounds()
    }

    fn route_input_into(
        &self,
        relation: &Relation,
        _p: usize,
        sink: &mut dyn RouteSink,
    ) -> mpc_sim::Result<()> {
        let Some((id, atom)) = self.plan.query().atom_by_name(relation.name()) else {
            return Ok(());
        };
        let stage_tag = format!("{STAGE_PREFIX}{}", relation.name());
        let mut cells = Vec::new();
        for t in relation.iter() {
            // Tuples disagreeing on a repeated variable never join.
            let Some(phi) = self.plan.heavy().pattern(atom, t) else { continue };
            let mut staged = false;
            for (group, h, route) in self.routes.inducing(id.0, phi) {
                if group > 0 {
                    // The heavy grids fill in round 2, from one staged copy.
                    staged = true;
                    break;
                }
                cells.clear();
                self.group_cells(h, route, t, &mut cells);
                sink.emit(relation.name(), t, &cells)?;
            }
            if staged {
                sink.emit(&stage_tag, t, &[self.stage_server(id.0, t)])?;
            }
        }
        Ok(())
    }

    fn route_tuples_into(
        &self,
        round: usize,
        _server: usize,
        state: &ServerState,
        sink: &mut dyn RouteSink,
    ) -> mpc_sim::Result<()> {
        if round != 2 {
            return Ok(());
        }
        let mut cells = Vec::new();
        for tag in state.tags() {
            let Some(name) = tag.strip_prefix(STAGE_PREFIX) else { continue };
            let Some((id, atom)) = self.plan.query().atom_by_name(name) else { continue };
            let staged = state.relation(tag).expect("tag was just listed");
            for t in staged.iter() {
                let Some(phi) = self.plan.heavy().pattern(atom, t) else { continue };
                cells.clear();
                for (_, h, route) in self.routes.inducing(id.0, phi).filter(|(g, ..)| *g > 0) {
                    self.group_cells(h, route, t, &mut cells);
                }
                if !cells.is_empty() {
                    sink.emit(name, t, &cells)?;
                }
            }
        }
        Ok(())
    }

    fn output(&self, server: usize, state: &ServerState) -> mpc_sim::Result<Relation> {
        let query = self.plan.query();
        if group_of_server(self.plan.patterns(), server).is_none() {
            // A pure staging server: holds parked copies, owns no grid cell.
            return Ok(Relation::empty(query.name(), query.num_vars()));
        }
        // Staged tags remain in the state, but the evaluator only reads
        // the relations the query's atoms name.
        local_join(query, state)
    }

    /// The heavy grid cells. A heavy cell's final-round inbound is
    /// exactly the round-2 broadcast-join flows under plain atom tags
    /// (light tuples go to the light grid in round 1, staged copies
    /// travel under `STAGE_PREFIX` tags), and [`WcoProgram::output`]
    /// evaluates the query on precisely those relations — a pure
    /// function of the tuples routed at the cell. That satisfies the
    /// relocation contract of [`MpcProgram::reroutable_cells`], so the
    /// adaptive runtime may move a heavy cell off a straggler without
    /// changing the join.
    fn reroutable_cells(&self) -> Vec<usize> {
        if self.plan.num_rounds() < 2 {
            // One-round (skew-free) plans have no movable round-2 inbound.
            return Vec::new();
        }
        (0..self.plan.p())
            .filter(|&s| matches!(group_of_server(self.plan.patterns(), s), Some(g) if g >= 1))
            .collect()
    }

    fn output_name(&self) -> String {
        self.plan.query().name().to_string()
    }

    fn output_arity(&self) -> usize {
        self.plan.query().num_vars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_data::skew::{heavy_hitter_database, zipf_database};
    use mpc_sim::{Cluster, MpcConfig};
    use mpc_storage::join::evaluate;

    fn run_wco(q: &Query, db: &Database, p: usize, seed: u64) -> mpc_sim::RunResult {
        let program = WcoProgram::new(q, db, p, seed).unwrap();
        let cluster = Cluster::new(MpcConfig::new(p, 0.9)).unwrap();
        cluster.run(&program, db).unwrap()
    }

    #[test]
    fn matches_sequential_join_on_matchings() {
        let q = families::triangle();
        let db = matching_database(&q, 900, 3);
        let result = run_wco(&q, &db, 27, 7);
        assert!(result.output.same_tuples(&evaluate(&q, &db).unwrap()));
        assert_eq!(result.rounds.len(), 1, "skew-free input is one round");
    }

    #[test]
    fn matches_sequential_join_on_zipf_skew() {
        // Moderate Zipf skew may or may not cross the heavy threshold;
        // the output must be exact either way.
        for (qi, q) in [families::triangle(), families::cycle(4)].into_iter().enumerate() {
            let db = zipf_database(&q, 600, 1500, 1.4, 21 + qi as u64);
            let result = run_wco(&q, &db, 16, 5);
            let expected = evaluate(&q, &db).unwrap();
            assert!(
                result.output.same_tuples(&expected),
                "{}: {} vs {} tuples",
                q.name(),
                result.output.len(),
                expected.len()
            );
        }
    }

    #[test]
    fn matches_sequential_join_under_heavy_hitters() {
        // Half of every relation shares one key: the heavy side activates
        // and the broadcast-join round runs.
        for (qi, q) in [families::triangle(), families::cycle(4)].into_iter().enumerate() {
            // deg = 0.6·1500 = 900 planted copies; 900·share > 1500 at
            // every share ≥ 2, so the hitter is heavy for both queries.
            let db = heavy_hitter_database(&q, 1200, 1500, 0.6, 21 + qi as u64);
            let result = run_wco(&q, &db, 16, 5);
            let expected = evaluate(&q, &db).unwrap();
            assert!(
                result.output.same_tuples(&expected),
                "{}: {} vs {} tuples",
                q.name(),
                result.output.len(),
                expected.len()
            );
            assert_eq!(result.rounds.len(), 2, "{}: skew activates the heavy side", q.name());
        }
    }

    #[test]
    fn answers_partition_across_servers_exactly() {
        // Σ per-server outputs == total output: no duplicate answers
        // across grids (each answer is formed in exactly one cell).
        let q = families::triangle();
        let db = heavy_hitter_database(&q, 500, 1200, 0.5, 9);
        let result = run_wco(&q, &db, 12, 3);
        let total: usize = result.per_server_output.iter().sum();
        assert_eq!(total, result.output.len());
    }

    #[test]
    fn single_heavy_value_triangle_is_exact() {
        // A planted star: value 0 occurs in every S3 tuple's second slot,
        // making x1 maximally heavy. All answers go through one pattern.
        let q = families::triangle();
        let mut db = Database::new(64);
        let s1: Vec<[u64; 2]> = (1..=20).map(|i| [0u64, i]).collect();
        let s2: Vec<[u64; 2]> = (1..=20).map(|i| [i, i + 20]).collect();
        let s3: Vec<[u64; 2]> = (21..=40).map(|i| [i, 0u64]).collect();
        db.insert_relation(Relation::from_tuples("S1", 2, s1).unwrap());
        db.insert_relation(Relation::from_tuples("S2", 2, s2).unwrap());
        db.insert_relation(Relation::from_tuples("S3", 2, s3).unwrap());
        let expected = evaluate(&q, &db).unwrap();
        assert_eq!(expected.len(), 20, "the star closes 20 triangles");
        let result = run_wco(&q, &db, 8, 11);
        assert!(result.output.same_tuples(&expected));
    }

    #[test]
    fn sampled_planning_preserves_the_output() {
        // The tentpole guarantee: a plan built from a seeded sample routes
        // differently (its heavy lists may be smaller, its grids differ)
        // but computes the *same* join — sampling degrades balance, never
        // correctness.
        use mpc_data::{DbStatistics, StatsMode};
        for (qi, q) in [families::triangle(), families::cycle(4)].into_iter().enumerate() {
            let db = zipf_database(&q, 2500, 4000, 1.3, 31 + qi as u64);
            let expected = evaluate(&q, &db).unwrap();
            for seed in [2u64, 19] {
                let mode = StatsMode::Sampled { budget: 600, seed };
                let stats = DbStatistics::collect(&db, mode);
                let program = WcoProgram::new_with_stats(&q, &db, 16, 5, &stats).unwrap();
                let cluster = Cluster::new(MpcConfig::new(16, 0.9)).unwrap();
                let result = cluster.run(&program, &db).unwrap();
                assert!(
                    result.output.same_tuples(&expected),
                    "{} seed {seed}: {} vs {} tuples",
                    q.name(),
                    result.output.len(),
                    expected.len()
                );
                // Answers still partition across servers: no duplicates.
                let total: usize = result.per_server_output.iter().sum();
                assert_eq!(total, result.output.len());
            }
        }
    }

    #[test]
    fn reroutable_cells_are_exactly_the_heavy_grid() {
        let q = families::triangle();
        let db = heavy_hitter_database(&q, 1200, 1500, 0.6, 21);
        let program = WcoProgram::new(&q, &db, 16, 5).unwrap();
        let cells = program.reroutable_cells();
        assert!(!cells.is_empty(), "heavy input must expose movable cells");
        for &c in &cells {
            let pi = group_of_server(program.plan().patterns(), c).expect("a cell owns a grid");
            assert!(pi >= 1, "server {c} is in the light grid, not movable");
        }
        // Skew-free input: one round, nothing movable.
        let flat = matching_database(&q, 900, 3);
        let one_round = WcoProgram::new(&q, &flat, 27, 7).unwrap();
        assert_eq!(one_round.num_rounds(), 1);
        assert!(one_round.reroutable_cells().is_empty());
    }

    #[test]
    fn adaptive_rerouting_preserves_the_join_and_recovers_makespan() {
        // The differential wall of the adaptive runtime: inject a
        // straggler on a heavy grid cell, let the controller move the
        // cell, and pin that (a) the rerouted output is byte-identical
        // to the static one and the sequential join, (b) answers still
        // partition across servers, (c) the rerouted makespan is
        // strictly shorter, (d) the decision replays deterministically.
        use mpc_sim::{AsyncConfig, StragglerSpec};
        let q = families::triangle();
        let db = heavy_hitter_database(&q, 1200, 1500, 0.6, 21);
        let p = 16;
        let program = WcoProgram::new(&q, &db, p, 5).unwrap();
        let cells = program.reroutable_cells();
        // Pick the first straggler seed that lands on a movable cell, so
        // the plan is guaranteed non-trivial.
        let seed = (0..64u64)
            .find(|&s| StragglerSpec::new(s, 1, 8).pick(p).iter().any(|c| cells.contains(c)))
            .expect("some seed hits a heavy cell");
        let cfg = AsyncConfig::new().with_straggler(StragglerSpec::new(seed, 1, 8));
        let cluster = Cluster::new(MpcConfig::new(p, 0.9)).unwrap();
        let run = cluster.run_adaptive(&program, &db, &cfg).unwrap();
        assert!(!run.plan.is_empty(), "the straggling heavy cell must move");
        assert_eq!(run.divergence(), None);
        assert!(run.adaptive.result.output.same_tuples(&evaluate(&q, &db).unwrap()));
        let placed: usize = run.adaptive.result.per_server_output.iter().sum();
        assert_eq!(placed, run.adaptive.result.output.len(), "answers still partition");
        assert!(
            run.recovery() > 0.0,
            "moving work off the straggler must shorten the schedule \
             (static {} vs rerouted {})",
            run.baseline.schedule.makespan,
            run.adaptive.schedule.makespan
        );
        let again = cluster.run_adaptive(&program, &db, &cfg).unwrap();
        assert_eq!(run.plan, again.plan, "the decision is deterministic");
        assert!(run.adaptive.result.output.same_tuples(&again.adaptive.result.output));
    }

    #[test]
    fn rerouting_is_inert_without_stragglers() {
        // No straggler, no signal: the plan is empty and the adaptive
        // run replays the static schedule's volumes exactly.
        use mpc_sim::AsyncConfig;
        let q = families::triangle();
        let db = heavy_hitter_database(&q, 800, 1000, 0.5, 9);
        let cluster = Cluster::new(MpcConfig::new(12, 0.9)).unwrap();
        let program = WcoProgram::new(&q, &db, 12, 3).unwrap();
        let run = cluster.run_adaptive(&program, &db, &AsyncConfig::new()).unwrap();
        assert!(run.plan.is_empty());
        assert_eq!(run.divergence(), None);
        assert_eq!(run.baseline.result.rounds, run.adaptive.result.rounds);
        assert_eq!(run.baseline.result.per_server_output, run.adaptive.result.per_server_output);
    }

    #[test]
    fn routing_is_deterministic() {
        let q = families::triangle();
        let db = heavy_hitter_database(&q, 300, 800, 0.5, 13);
        let a = run_wco(&q, &db, 9, 5);
        let b = run_wco(&q, &db, 9, 5);
        assert!(a.output.same_tuples(&b.output));
        assert_eq!(a.rounds, b.rounds);
    }
}
