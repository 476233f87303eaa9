//! The worst-case optimal plan: what BKS 2018 decides on top of the
//! shared heavy/light core ([`crate::heavy`]).
//!
//! * **Which subsets get a group** — only the *active* ones: heavy
//!   configurations `H` for which every atom has a compatible tuple
//!   (under sampled statistics, every non-empty `H`: a sample can witness
//!   a pattern, never rule one out). When `p` cannot host them all, the
//!   heavy variable carrying the least tuple mass is demoted first.
//! * **The heavy share** — a heavy variable is a *value-indexed*
//!   dimension (coordinate = heavy rank mod share), capped at its number
//!   of heavy values; shares are grown greedily against the cell load.
//! * **Two rounds** — heavy-bound tuples are staged evenly in round 1 and
//!   fanned out in round 2 ([`crate::wco::program`]); the plan records
//!   the staged volume for the load prediction.
//!
//! Planning consumes the database *statistics*, never the data at routing
//! time: heavy value lists, group offsets and share vectors are frozen
//! into the plan, so every process planning from the same
//! `(query, database, p)` builds bit-identical routing.

use mpc_cq::{Query, VarId};
use mpc_data::{DbStatistics, StatsMode};
use mpc_lp::{QueryLps, Rational};
use mpc_storage::Database;

use crate::error::CoreError;
use crate::heavy::{carve, grow_shares, Group, HeavyValues, Mask, PatternCounts};
use crate::multiround::lower_bound::round_lower_bound;
use crate::shares::ShareAllocation;
use crate::wco::effective_epsilon;
use crate::Result;

/// The worst-case optimal multi-round plan for one `(query, database, p)`
/// triple: heavy value lists, one grid per active heavy pattern, and the
/// light HyperCube — see the [module docs](crate::wco) for the algorithm.
#[derive(Debug, Clone)]
pub struct WorstCaseOptimalPlan {
    query: Query,
    p: usize,
    /// Largest base relation cardinality (the `n` of the load targets).
    n: u64,
    heavy: HeavyValues,
    /// Pattern groups; index 0 is the light pattern. A heavy group's heavy
    /// variables are *value-indexed* dimensions (coordinate = heavy rank
    /// mod share), its light variables hashed.
    patterns: Vec<Group>,
    /// Number of base tuples the staging round distributes (tuples
    /// needed by at least one heavy grid) — exact under
    /// [`StatsMode::Exact`], a scaled estimate under sampling.
    staged_tuples: u64,
    /// `τ*` of the full query (the one-round load exponent).
    tau_star: Rational,
    /// `ρ*` of the full query (the AGM load exponent).
    rho_star: Rational,
}

impl WorstCaseOptimalPlan {
    /// Plan against the given database with exact (full-scan) statistics.
    ///
    /// Missing relations are treated as empty (the join is then empty,
    /// and so is every pattern's grid traffic). Heavy variables are
    /// demoted by total heavy mass when `p` cannot host one group per
    /// active pattern plus the light grid.
    ///
    /// # Errors
    ///
    /// Rejects `p = 0`; propagates LP and allocation errors.
    pub fn build(query: &Query, db: &Database, p: usize) -> Result<Self> {
        Self::build_with_stats(query, db, p, &DbStatistics::collect(db, StatsMode::Exact))
    }

    /// Plan from already-collected [`DbStatistics`] — the adaptive-runtime
    /// entry point, sharing one scan (or one seeded sample) with the
    /// strategy picker and the skew detector.
    ///
    /// Under [`StatsMode::Exact`] this is exactly [`Self::build`] (and
    /// cheaper when the caller already holds the statistics: the per-column
    /// counts are read, not recomputed per `(atom, position)`).
    /// Under [`StatsMode::Sampled`] planning touches only the sampled
    /// tuples, so its cost is `O(budget · #relations)` instead of
    /// `O(Σ n_R)`, and two things change — both on the side of caution,
    /// never correctness:
    ///
    /// * heavy values, pattern masses and [`Self::staged_tuples`] become
    ///   scaled estimates within [`mpc_data::RelationStats::slack_for`];
    /// * **every** non-empty subset of the detected heavy variables is
    ///   treated as active: a sampled scan can prove a pattern populated
    ///   but never empty, and a grid-less active pattern would silently
    ///   drop the answers routed at it. Extra patterns only cost servers
    ///   (each idle grid still gets ≥ 1), and demotion keeps the pattern
    ///   count below `p` as in the exact path.
    ///
    /// A heavy value the sample misses is *consistently* light to routing
    /// and planning alike (the plan's [`HeavyValues`] are the single
    /// source of truth at both), so the computed join is byte-identical
    /// to the exact plan's — only the load balance degrades.
    ///
    /// # Errors
    ///
    /// Rejects `p = 0`; propagates LP and allocation errors.
    pub fn build_with_stats(
        query: &Query,
        db: &Database,
        p: usize,
        stats: &DbStatistics,
    ) -> Result<Self> {
        if p == 0 {
            return Err(CoreError::InvalidPlan("p must be at least 1".to_string()));
        }
        let lps = QueryLps::solve(query)?;
        let tau_star = lps.covering_number();
        let rho_star = lps.edge_cover().total();
        let n = query
            .atoms()
            .iter()
            .filter_map(|a| db.relation(&a.name).ok())
            .map(|r| r.len() as u64)
            .max()
            .unwrap_or(0);

        let base = ShareAllocation::optimal(query, p)?;
        let mut heavy = HeavyValues::detect(query, stats, &base, 1.0);

        // Demote until every active pattern (plus the light grid) can be
        // granted at least one server.
        let (counts, active) = loop {
            let counts = PatternCounts::scan(query, db, &heavy, stats);
            let active = active_patterns(&heavy, &counts, stats.is_sampled());
            if active.len() < p {
                break (counts, active);
            }
            let mentioning = |var: &VarId| -> u64 {
                let bit = heavy.bit(*var);
                counts.patterns().filter(|(_, phi, _)| phi & bit != 0).map(|(.., n)| n).sum()
            };
            let weakest = heavy
                .heavy_vars()
                .into_iter()
                .min_by_key(mentioning)
                .expect("active patterns imply heavy variables");
            heavy.demote(weakest);
        };

        // One group per active pattern after the light one, carved
        // proportionally to the tuple mass each attracts.
        let configs: Vec<Mask> = std::iter::once(0).chain(active.iter().copied()).collect();
        let patterns = carve(p, &configs, &heavy, &counts, |group| {
            if group.heavy_vars.is_empty() {
                return Ok(ShareAllocation::optimal(query, group.group_size)?.shares);
            }
            // A dimension wider than its value list is wasted.
            let cap =
                |v: VarId| if group.heavy_vars.contains(&v) { heavy.count(v) } else { usize::MAX };
            let weights: Vec<f64> = group.atom_tuples.iter().map(|m| *m as f64).collect();
            Ok(grow_shares(query, &weights, group.group_size, cap, vec![1; query.num_vars()]))
        })?;

        // A base tuple is staged when some heavy grid needs it, i.e. its
        // own pattern is the one some active `H` induces on its atom.
        let staged_tuples = counts
            .patterns()
            .filter(|(vars, phi, _)| active.iter().any(|h| h & vars == *phi))
            .map(|(.., n)| n)
            .sum();

        Ok(WorstCaseOptimalPlan {
            query: query.clone(),
            p,
            n,
            heavy,
            patterns,
            staged_tuples,
            tau_star,
            rho_star,
        })
    }

    /// The planned query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The server count the plan was carved for.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The largest base relation cardinality.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The heavy value lists.
    pub fn heavy(&self) -> &HeavyValues {
        &self.heavy
    }

    /// All pattern groups, the light pattern first.
    pub fn patterns(&self) -> &[Group] {
        &self.patterns
    }

    /// Tuples the staging shuffle of round 1 distributes (exact under
    /// exact statistics, a scaled estimate under sampling).
    pub fn staged_tuples(&self) -> u64 {
        self.staged_tuples
    }

    /// `τ*` of the query (one-round load exponent `n/p^{1/τ*}`).
    pub fn tau_star(&self) -> Rational {
        self.tau_star
    }

    /// `ρ*` of the query (AGM load exponent `n/p^{1/ρ*}`).
    pub fn rho_star(&self) -> Rational {
        self.rho_star
    }

    /// Rounds this plan executes on *this* database: 1 when no heavy
    /// pattern is active (pure skew-free HyperCube), 2 otherwise.
    pub fn num_rounds(&self) -> usize {
        if self.patterns.len() > 1 {
            2
        } else {
            1
        }
    }

    /// Rounds the strategy needs on *worst-case* databases for this
    /// query: single-atom queries are one shuffle; everything else may
    /// need the staging + broadcast-join pair.
    pub fn worst_case_rounds(&self) -> usize {
        if self.query.num_atoms() <= 1 {
            1
        } else {
            2
        }
    }

    /// The multi-round lower bound at this strategy's effective space
    /// exponent `ε = 1 − 1/ρ*` — the floor [`Self::worst_case_rounds`]
    /// is verified against. The bound is stated over matching databases,
    /// so for queries with `τ* = ρ*` (cycles, cliques) it evaluates at
    /// `ε = ε*` where one round suffices on matchings — the strategy's
    /// extra round is the price of *skewed* inputs, which the matching
    /// bound cannot see. At any `ε < ε*` the same machinery certifies
    /// ≥ 2 rounds, which is what the property suite checks.
    ///
    /// # Errors
    ///
    /// Propagates LP/enumeration errors of the lower-bound machinery.
    pub fn round_floor(&self) -> Result<usize> {
        round_lower_bound(&self.query, effective_epsilon(self.rho_star)?)
    }

    /// Verify the plan against the existing multi-round lower bound
    /// (`multiround/lower_bound.rs`): this strategy's worst-case round
    /// count must sit on or above [`Self::round_floor`] — it must never
    /// claim fewer rounds than tuple-based MPC(ε) algorithms are allowed
    /// at the AGM load target.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidPlan`] if the strategy claims fewer rounds
    /// than the lower bound allows; propagated LP errors.
    pub fn verify_round_floor(&self) -> Result<usize> {
        let floor = self.round_floor()?;
        if self.worst_case_rounds() < floor {
            return Err(CoreError::InvalidPlan(format!(
                "worst-case optimal strategy claims {} round(s) but the lower bound at \
                 ε = 1 − 1/ρ* is {floor}",
                self.worst_case_rounds()
            )));
        }
        Ok(floor)
    }
}

/// The *active* heavy configurations: subsets `H` of the heavy variables
/// for which **every** atom has at least one compatible tuple (otherwise
/// the residual join is empty and `H` needs no grid). Under sampled
/// statistics every non-empty subset is active: a sample can witness a
/// pattern but never certify its absence, and a tuple routed at a missing
/// grid would be dropped, losing answers.
fn active_patterns(heavy: &HeavyValues, counts: &PatternCounts, sampled: bool) -> Vec<Mask> {
    (1..1 << heavy.heavy_vars().len())
        .filter(|h| sampled || counts.atom_tuples(*h).all(|n| n > 0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_data::skew::{heavy_hitter_database, zipf_database};
    use std::collections::BTreeSet;

    #[test]
    fn skew_free_input_collapses_to_the_light_hypercube() {
        let q = families::triangle();
        let db = matching_database(&q, 600, 7);
        let plan = WorstCaseOptimalPlan::build(&q, &db, 27).unwrap();
        assert_eq!(plan.patterns().len(), 1, "no heavy values on a matching");
        assert_eq!(plan.num_rounds(), 1);
        let light = &plan.patterns()[0];
        assert!(light.heavy_vars.is_empty());
        assert_eq!(light.shares, vec![3, 3, 3], "the cover-based p^(1/3) shares");
        assert_eq!(plan.staged_tuples(), 0);
    }

    #[test]
    fn heavy_hitter_triangle_activates_heavy_patterns_on_disjoint_groups() {
        let q = families::triangle();
        let db = heavy_hitter_database(&q, 1000, 2000, 0.5, 11);
        let plan = WorstCaseOptimalPlan::build(&q, &db, 32).unwrap();
        assert!(plan.patterns().len() > 1, "half of every relation shares one key");
        assert_eq!(plan.num_rounds(), 2);
        assert!(plan.staged_tuples() > 0);
        // Grids are disjoint and fit.
        let mut end = 0usize;
        for pat in plan.patterns() {
            assert!(pat.offset >= end);
            assert!(pat.cells() <= pat.group_size);
            end = pat.offset + pat.cells();
        }
        assert!(end <= 32);
        // Heavy dimensions never exceed their value count.
        for pat in plan.patterns().iter().skip(1) {
            for v in &pat.heavy_vars {
                assert!(pat.shares[v.0] <= plan.heavy().count(*v).max(1));
            }
            // Only the all-heavy configuration leaves no residual query.
            let rho = crate::wco::load::residual_rho_star(&q, pat).unwrap();
            assert_eq!(rho.is_none(), pat.heavy_vars.len() == q.num_vars());
        }
    }

    #[test]
    fn round_floor_verification_holds_for_the_triangle() {
        // ε_eff = 1 − 1/ρ* = 1/3 = ε* for C3: over matchings one round
        // suffices at that ε, so the floor is 1 and the strategy's 2
        // worst-case rounds sit above it. Below ε* the same machinery
        // certifies ≥ 2 rounds — the regime the extra round pays for.
        let q = families::triangle();
        let db = heavy_hitter_database(&q, 500, 1000, 0.5, 3);
        let plan = WorstCaseOptimalPlan::build(&q, &db, 16).unwrap();
        assert_eq!(plan.worst_case_rounds(), 2);
        assert_eq!(plan.verify_round_floor().unwrap(), 1);
        assert_eq!(round_lower_bound(&q, Rational::ZERO).unwrap(), 2);
    }

    #[test]
    fn demotion_keeps_one_group_per_server() {
        let q = families::cycle(4);
        let db = zipf_database(&q, 400, 1200, 1.6, 5);
        // p = 2: at most the light grid plus one heavy group.
        let plan = WorstCaseOptimalPlan::build(&q, &db, 2).unwrap();
        assert!(plan.patterns().len() <= 2);
        let used: usize = plan.patterns().iter().map(Group::cells).sum();
        assert!(used <= 2);
    }

    #[test]
    fn rejects_zero_servers() {
        let q = families::triangle();
        let db = matching_database(&q, 50, 1);
        assert!(WorstCaseOptimalPlan::build(&q, &db, 0).is_err());
    }

    #[test]
    fn exact_stats_plan_is_the_default_plan() {
        // `build` is `build_with_stats` under exact statistics: same heavy
        // lists, same grids, same carving — for skewed and skew-free data.
        let q = families::triangle();
        for db in [matching_database(&q, 600, 7), heavy_hitter_database(&q, 1000, 2000, 0.5, 11)] {
            let stats = DbStatistics::collect(&db, StatsMode::Exact);
            let a = WorstCaseOptimalPlan::build(&q, &db, 32).unwrap();
            let b = WorstCaseOptimalPlan::build_with_stats(&q, &db, 32, &stats).unwrap();
            assert_eq!(a.patterns().len(), b.patterns().len());
            for (pa, pb) in a.patterns().iter().zip(b.patterns()) {
                assert_eq!(pa.heavy_vars, pb.heavy_vars);
                assert_eq!(pa.shares, pb.shares);
                assert_eq!(pa.offset, pb.offset);
                assert_eq!(pa.group_size, pb.group_size);
            }
            assert_eq!(a.staged_tuples(), b.staged_tuples());
            for v in q.var_ids() {
                assert_eq!(a.heavy().of(v), b.heavy().of(v));
            }
        }
    }

    #[test]
    fn sampled_plans_are_valid_and_sublinear() {
        // Property wall over seeds: a sampled plan's grids must be
        // disjoint and fit `p`, its heavy set must be a subset story the
        // sample can defend, and — crucially — every non-empty subset of
        // its heavy variables must own a grid (the conservative activity
        // rule that makes sampled routing lossless).
        let q = families::triangle();
        for seed in 0..5u64 {
            let db = heavy_hitter_database(&q, 1500, 3000, 0.4, 50 + seed);
            let mode = StatsMode::Sampled { budget: 500, seed };
            let stats = DbStatistics::collect(&db, mode);
            let plan = WorstCaseOptimalPlan::build_with_stats(&q, &db, 32, &stats).unwrap();

            let mut end = 0usize;
            for pat in plan.patterns() {
                assert!(pat.offset >= end);
                assert!(pat.cells() <= pat.group_size);
                end = pat.offset + pat.cells();
            }
            assert!(end <= 32);

            let capable = plan.heavy().heavy_vars();
            if !capable.is_empty() {
                for mask in 1usize..(1 << capable.len()) {
                    let h: BTreeSet<VarId> = capable
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, v)| *v)
                        .collect();
                    assert!(
                        plan.patterns().iter().skip(1).any(|p| p.heavy_vars == h),
                        "seed {seed}: sampled plan misses active pattern {h:?}"
                    );
                }
            }
            // Planning read only the sample, not the relations.
            assert_eq!(stats.scanned_tuples(), 3 * 500);
        }
    }
}
