//! Residual query plans (Beame et al. 2014, Section 4): what the
//! one-round skew planner decides on top of the shared heavy/light core
//! ([`crate::heavy`]).
//!
//! * **Which subsets get a group** — all `2^h` subsets of the
//!   heavy-capable variables, the light plan (`∅`) first. When `2^h > p`
//!   the least *severe* variables (worst frequency / threshold ratio) are
//!   demoted first.
//! * **The heavy share** — 1: a heavy variable's single coordinate carries
//!   no information, the residual shares on the light variables do the
//!   balancing, and everything still happens in one round.
//! * **The share candidates** — two per plan, keeping whichever estimates
//!   the lower cell load: the cover-based [`ShareAllocation`] of the
//!   residual query (the paper's worst-case-optimal choice,
//!   cardinality-blind; one cover LP per heavy subset — closed form, else
//!   sparse simplex, solved afresh: microseconds at residual sizes, and
//!   the plan set depends on its inputs alone), and a statistics-aware
//!   vector from the **degree-aware LP** of BKS14 §5
//!   ([`mpc_lp::degree`]): per-pattern cardinalities and per-column
//!   maximum degrees become LP constraints, the optimal exponents are
//!   floored onto the group's integer grid, and the leftover integer slack
//!   is filled greedily.
//!
//! [`ResidualPlanSet::build_with_stats`] plans from a shared
//! [`mpc_data::DbStatistics`] artefact — exact or sampled;
//! [`ResidualPlanSet::build`] collects exact ones itself.

use std::collections::BTreeSet;

use mpc_cq::{Query, VarId};
use mpc_data::{DbStatistics, StatsMode};
use mpc_lp::degree::{rational_log, solve_degree_lp, DegreeStatistics};
use mpc_lp::Rational;
use mpc_storage::Database;

use crate::heavy::{
    carve, cell_load, grow_shares, residual_query, Group, HeavyValues, Mask, PatternCounts,
};
use crate::shares::ShareAllocation;
use crate::{CoreError, Result};

/// Denominator of the rationalised `log` grid the degree LP solves on:
/// statistics are rounded to multiples of `1/12` in exponent space, which
/// keeps the LP data small and moves the optimum by at most one grid step.
const LOG_GRID: i128 = 12;

/// The complete set of residual plans for a query, a database and `p`
/// servers: one [`Group`] per heavy-variable subset, on disjoint servers.
/// A plan's heavy variables have share 1 (their single coordinate carries
/// no information); its light ones are hashed.
#[derive(Debug, Clone)]
pub struct ResidualPlanSet {
    heavy: HeavyValues,
    plans: Vec<Group>,
}

impl ResidualPlanSet {
    /// Build the plan set from exact statistics. If `2^h > p` for `h`
    /// heavy-capable variables, the least severe variables are demoted to
    /// light (their heavy sets dropped) until every residual plan can be
    /// granted at least one server.
    ///
    /// # Errors
    ///
    /// Rejects `p == 0` and propagates share-allocation errors.
    pub fn build(q: &Query, db: &Database, heavy: HeavyValues, p: usize) -> Result<Self> {
        let stats = DbStatistics::collect(db, StatsMode::Exact);
        Self::build_with_stats(q, db, heavy, p, &stats)
    }

    /// Like [`ResidualPlanSet::build`], but planning from an
    /// already-collected [`DbStatistics`] artefact — exact or sampled.
    /// With sampled statistics the per-pattern tuple counts are estimated
    /// from the sample (scaled by `n/budget`), so building the plan set
    /// never scans the database; group sizing and share refinement degrade
    /// gracefully with the sample, while routing correctness is untouched
    /// (plans are correct for *any* heavy set).
    ///
    /// # Errors
    ///
    /// Rejects `p == 0` and propagates share-allocation errors.
    pub fn build_with_stats(
        q: &Query,
        db: &Database,
        mut heavy: HeavyValues,
        p: usize,
        stats: &DbStatistics,
    ) -> Result<Self> {
        if p == 0 {
            return Err(CoreError::InvalidPlan("p must be at least 1".to_string()));
        }
        if heavy.num_vars() != q.num_vars() {
            return Err(CoreError::InvalidPlan(format!(
                "heavy hitters cover {} variables but the query has {}",
                heavy.num_vars(),
                q.num_vars()
            )));
        }

        // Keep the most severe heavy variables while 2^h ≤ p.
        let mut capable = heavy.heavy_vars();
        capable.sort_by(|a, b| {
            heavy.severity(*b).partial_cmp(&heavy.severity(*a)).expect("severities are finite")
        });
        while (1usize << capable.len().min(usize::BITS as usize - 1)) > p {
            heavy.demote(capable.pop().expect("2^h > p ≥ 1 implies a heavy variable"));
        }

        // One plan per subset of the capable variables, the light plan
        // (mask 0) first, on a group proportional to the mass it attracts.
        let counts = PatternCounts::scan(q, db, &heavy, stats);
        let subsets: Vec<Mask> = (0..1 << capable.len()).collect();
        let plans = carve(p, &subsets, &heavy, &counts, |group| {
            let residual = residual_query(q, &group.heavy_vars);
            // Cell loads are compared in bytes: wider atoms weigh more.
            let bytes: Vec<f64> = q
                .atoms()
                .iter()
                .zip(&group.atom_tuples)
                .map(|(atom, m)| *m as f64 * atom.arity() as f64 * 8.0)
                .collect();

            // Candidate 1: the residual query's cover-based shares, lifted
            // to full width.
            let lifted = match &residual {
                Some(rq) => {
                    Some(lift_shares(q, rq, &ShareAllocation::optimal(rq, group.group_size)?))
                }
                None => None,
            };
            // Candidate 2: statistics-aware shares from the degree LP.
            let refined = statistics_shares(
                q,
                residual.as_ref(),
                &group.heavy_vars,
                &group.atom_tuples,
                &bytes,
                stats,
                group.group_size,
            );
            Ok(match lifted {
                Some(lifted) if cell_load(q, &bytes, &lifted) <= cell_load(q, &bytes, &refined) => {
                    lifted
                }
                _ => refined,
            })
        })?;

        Ok(ResidualPlanSet { heavy, plans })
    }

    /// The (possibly demoted) heavy hitters the plans are keyed on.
    pub fn heavy(&self) -> &HeavyValues {
        &self.heavy
    }

    /// All plans, light plan first.
    pub fn plans(&self) -> &[Group] {
        &self.plans
    }
}

/// Lift a residual allocation to a full-width share vector over the
/// original query's variables (absent variables get share 1).
fn lift_shares(q: &Query, residual: &Query, alloc: &ShareAllocation) -> Vec<usize> {
    (0..q.num_vars())
        .map(|i| residual.var_id(&q.var_names()[i]).map(|rv| alloc.share(rv).max(1)).unwrap_or(1))
        .collect()
}

/// Statistics-aware shares: solve the degree-aware LP of BKS14 §5 on the
/// residual query — per-pattern cardinalities as `ν_j`, per-column maximum
/// frequencies (capped at the pattern mass) as `δ_{j,x}` — floor the
/// optimal exponents `e_x` onto the integer grid `p_x = ⌊group^{e_x}⌋`,
/// then fill the leftover integer slack with the load-greedy loop of
/// [`grow_shares`], heavy variables pinned at 1. Falls back to the pure
/// greedy fill when the residual is degenerate or the LP errors (never
/// observed for workspace sizes).
fn statistics_shares(
    q: &Query,
    residual: Option<&Query>,
    heavy_vars: &BTreeSet<VarId>,
    tuples: &[u64],
    bytes: &[f64],
    stats: &DbStatistics,
    group: usize,
) -> Vec<usize> {
    let mut shares = vec![1usize; q.num_vars()];
    if group > 1 {
        let exponents =
            residual.and_then(|rq| degree_lp_exponents(q, rq, heavy_vars, tuples, stats, group));
        if let Some(exponents) = exponents {
            for (v, e) in exponents {
                shares[v.0] = (group as f64).powf(e.to_f64()).floor().max(1.0) as usize;
            }
            // Flooring each factor keeps ∏ p_x ≤ group^{Σ e_x} ≤ group,
            // but guard against float dust anyway.
            if shares.iter().product::<usize>() > group {
                shares = vec![1; q.num_vars()];
            }
        }
    }
    let cap = |v: VarId| if heavy_vars.contains(&v) { 1 } else { usize::MAX };
    grow_shares(q, bytes, group, cap, shares)
}

/// The optimal exponents of the degree-aware LP for `rq`, the residual
/// query of `heavy_vars`, mapped back to the original query's light
/// variables; `tuples[j]` is the pattern mass of atom `j`. `None` when the
/// LP fails.
fn degree_lp_exponents(
    q: &Query,
    rq: &Query,
    heavy_vars: &BTreeSet<VarId>,
    tuples: &[u64],
    stats: &DbStatistics,
    group: usize,
) -> Option<Vec<(VarId, Rational)>> {
    // Exponent space has base `group` (shares are p_x = group^{e_x}):
    // ν_j = log_group(m_j) over the pattern mass, δ capped at ν_j.
    let mut cardinality = Vec::with_capacity(rq.num_atoms());
    let mut degree = vec![vec![Rational::ZERO; rq.num_vars()]; rq.num_atoms()];
    let mut rj = 0usize;
    for (atom, &mass) in q.atoms().iter().zip(tuples) {
        let lights: Vec<(usize, VarId)> = atom
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| !heavy_vars.contains(v))
            .map(|(pos, v)| (pos, *v))
            .collect();
        if lights.is_empty() {
            continue; // fully-heavy atom: dropped from the residual
        }
        cardinality.push(rational_log(mass, group, LOG_GRID));
        let rs = stats.relation(&atom.name);
        for (pos, var) in lights {
            let rv = rq.var_id(&q.var_names()[var.0])?;
            // Maximum degree of the column, an upper bound for the
            // residual subset; capped at the pattern mass.
            let maxdeg = rs.map_or(0, |rs| rs.max_estimate(pos).round() as u64).min(mass);
            let d = rational_log(maxdeg, group, LOG_GRID).min(cardinality[rj]);
            if d > degree[rj][rv.0] {
                degree[rj][rv.0] = d;
            }
        }
        rj += 1;
    }
    let sol = solve_degree_lp(rq, &DegreeStatistics { cardinality, degree }).ok()?;
    Some(
        (0..q.num_vars())
            .filter_map(|v| {
                let rv = rq.var_id(&q.var_names()[v])?;
                Some((VarId(v), sol.exponents[rv.0]))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skew::HeavyHitterDetector;
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_data::skew::heavy_hitter_database;

    /// Total servers actually holding grid cells, `Σ cells ≤ p`.
    fn servers_used(set: &ResidualPlanSet) -> usize {
        set.plans.iter().map(Group::cells).sum()
    }

    fn detect(q: &Query, db: &Database, p: usize) -> HeavyValues {
        let alloc = ShareAllocation::optimal(q, p).unwrap();
        let stats = DbStatistics::collect(db, StatsMode::Exact);
        HeavyHitterDetector::default().detect_from_stats(q, &stats, &alloc).unwrap()
    }

    fn plan_set(q: &Query, db: &Database, p: usize) -> ResidualPlanSet {
        ResidualPlanSet::build(q, db, detect(q, db, p), p).unwrap()
    }

    #[test]
    fn skew_free_input_collapses_to_one_plan() {
        let q = families::chain(2);
        let db = matching_database(&q, 1000, 3);
        let set = plan_set(&q, &db, 16);
        assert_eq!(set.plans().len(), 1);
        let light = &set.plans()[0];
        assert!(light.heavy_vars.is_empty());
        assert_eq!(light.group_size, 16);
        // The light plan of a skew-free chain is the ordinary hash join:
        // all servers on x1.
        assert_eq!(light.shares, vec![1, 16, 1]);
    }

    #[test]
    fn heavy_chain_gets_two_disjoint_plans() {
        let q = families::chain(2);
        let db = heavy_hitter_database(&q, 2000, 2000, 0.5, 7);
        let set = plan_set(&q, &db, 32);
        assert_eq!(set.plans().len(), 2, "one light plan + one plan for {{x1}}");
        let light = &set.plans()[0];
        let heavy = &set.plans()[1];
        let x1 = q.var_id("x1").unwrap();
        assert!(heavy.heavy_vars.contains(&x1));
        // Disjoint server ranges.
        assert!(light.offset + light.cells() <= heavy.offset);
        assert!(servers_used(&set) <= 32);
        // The heavy plan keeps x1 degenerate and spreads on the light
        // variables instead.
        assert_eq!(heavy.shares[x1.0], 1);
        assert!(heavy.shares.iter().product::<usize>() > 1);
        // Proportional sizing favours the light plan (it attracts more
        // than half the tuple mass: all of S1 plus the light part of S2).
        assert!(light.group_size > heavy.group_size);
    }

    #[test]
    fn too_many_heavy_vars_are_demoted_by_severity() {
        let q = families::cycle(3);
        let db = heavy_hitter_database(&q, 2000, 2000, 0.5, 3);
        let heavy = detect(&q, &db, 27);
        assert_eq!(heavy.heavy_vars().len(), 3);
        // p = 4 can host at most 4 plans = 2 capable variables.
        let set = ResidualPlanSet::build(&q, &db, heavy, 4).unwrap();
        assert!(set.heavy().heavy_vars().len() <= 2);
        assert!(set.plans().len() <= 4);
        assert!(servers_used(&set) <= 4);
    }

    #[test]
    fn pattern_respects_repeated_variables() {
        let q = Query::new("q", vec![("S", vec!["x", "x"]), ("T", vec!["x", "y"])]).unwrap();
        let mut db = Database::new(100);
        db.insert_relation(
            mpc_storage::Relation::from_tuples("S", 2, vec![[1u64, 1], [2, 2]]).unwrap(),
        );
        db.insert_relation(mpc_storage::Relation::from_tuples("T", 2, vec![[1u64, 5]]).unwrap());
        // Force an empty heavy set: in a two-tuple relation, *every* value
        // exceeds the n_R / p_x threshold, which is not what this test is
        // about.
        let set = ResidualPlanSet::build(&q, &db, HeavyValues::none(q.num_vars()), 8).unwrap();
        let (_, s) = q.atom_by_name("S").unwrap();
        // Conflicting repeated variable → no pattern (never joins).
        assert_eq!(set.heavy().pattern(s, &[1, 2]), None);
        // Consistent repeated variable → a (light) pattern.
        assert_eq!(set.heavy().pattern(s, &[1, 1]), Some(0));
    }

    #[test]
    fn statistics_shares_follow_cardinalities() {
        // Product residual S1'(x0) × S2'(x2) with |S2'| ≫ |S1'|: the
        // degree-LP shares put (almost) everything on x2, unlike the
        // cover-based (√g, √g) split.
        let q = families::chain(2);
        let x1: BTreeSet<VarId> = [q.var_id("x1").unwrap()].into_iter().collect();
        let stats = DbStatistics::collect(&Database::new(100), StatsMode::Exact);
        let rq = residual_query(&q, &x1);
        let shares =
            statistics_shares(&q, rq.as_ref(), &x1, &[4, 2000], &[64.0, 32000.0], &stats, 8);
        assert_eq!(shares[q.var_id("x1").unwrap().0], 1, "heavy variables stay degenerate");
        assert!(
            shares[q.var_id("x2").unwrap().0] >= 4,
            "the big relation's variable takes the servers: {shares:?}"
        );
    }

    #[test]
    fn degree_constraints_steer_shares_off_skewed_columns() {
        // Chain join where S2's x1-column is a single value: every
        // S2-tuple agrees on x1, so partitioning on x1 alone cannot split
        // S2 — the degree constraint `ν − e_{x2} ≤ t` forces share onto
        // x2. The cardinality-only optimum would be the all-on-x1 split
        // [1, 16, 1]; the degree LP lands on the balanced [1, 4, 4].
        let q = families::chain(2);
        let no_heavy: BTreeSet<VarId> = BTreeSet::new();
        let mut db = Database::new(100_000);
        db.insert_relation(
            mpc_storage::Relation::from_tuples(
                "S1",
                2,
                (0..1000u64).map(|i| [i, i]).collect::<Vec<_>>(),
            )
            .unwrap(),
        );
        // S2(x1, x2) with constant x1: max degree on x1 = |S2|.
        db.insert_relation(
            mpc_storage::Relation::from_tuples(
                "S2",
                2,
                (0..1000u64).map(|i| [1, i]).collect::<Vec<_>>(),
            )
            .unwrap(),
        );
        let stats = DbStatistics::collect(&db, StatsMode::Exact);
        let shares = statistics_shares(
            &q,
            Some(&q),
            &no_heavy,
            &[1000, 1000],
            &[16000.0, 16000.0],
            &stats,
            16,
        );
        let (x1, x2) = (q.var_id("x1").unwrap(), q.var_id("x2").unwrap());
        assert!(shares[x2.0] >= 4, "the degree bound forces share onto x2: {shares:?}");
        assert!(shares[x1.0] < 16, "x1 no longer takes the whole grid: {shares:?}");
    }

    /// The property wall of the sampled planner: over a seeded loop,
    /// whenever the exact plan set fits the server budget (it always
    /// does by construction), the sampled plan set fits the same budget —
    /// sampling shifts group sizes and shares, never the invariants.
    #[test]
    fn sampled_plans_stay_within_budget_whenever_exact_plans_do() {
        let q = families::chain(2);
        let p = 32;
        for seed in 0..6u64 {
            let db = mpc_data::skew::zipf_database(&q, 4000, 4000, 1.1, seed);
            let alloc = ShareAllocation::optimal(&q, p).unwrap();

            let exact_set = plan_set(&q, &db, p);
            assert!(servers_used(&exact_set) <= p);

            let stats =
                DbStatistics::collect(&db, StatsMode::Sampled { budget: 600, seed: seed * 17 + 3 });
            let sampled_heavy =
                HeavyHitterDetector::default().detect_from_stats(&q, &stats, &alloc).unwrap();
            let sampled_set =
                ResidualPlanSet::build_with_stats(&q, &db, sampled_heavy, p, &stats).unwrap();

            // Same budget invariants as the exact plan set…
            assert!(servers_used(&sampled_set) <= p, "seed {seed}");
            assert!(sampled_set.plans().len() <= exact_set.plans().len().max(1) * 2);
            let mut end = 0usize;
            for plan in sampled_set.plans() {
                assert!(plan.cells() <= plan.group_size, "seed {seed}: grid fits its group");
                assert!(plan.offset >= end, "seed {seed}: groups are disjoint");
                end = plan.offset + plan.cells();
            }
            assert!(end <= p);
            // …and graceful degradation: the sampled heavy set never
            // grows beyond the exact one by more than the slack allows
            // (subset-with-bounded-misses is pinned in detector tests).
            assert!(
                sampled_set.heavy().num_heavy_values() <= exact_set.heavy().num_heavy_values() + 4,
                "seed {seed}"
            );
        }
    }
}
