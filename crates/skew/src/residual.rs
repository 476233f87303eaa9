//! Residual query plans (Beame et al. 2014, Section 4).
//!
//! Fix a set `H` of query variables to *heavy* values. The answers whose
//! heavy configuration is exactly `H` are the answers of the **residual
//! query** `q_H`: the query obtained by deleting the variables of `H` from
//! every atom (an atom all of whose variables are heavy degenerates into a
//! filter). Because each heavy value exceeds the `n_R / p_x` frequency
//! threshold, there are at most `p_x` heavy values per variable — few — so
//! the residual queries can each be given their own, smaller, HyperCube
//! grid in which the heavy variables have share 1 and the remaining
//! (light) variables share the servers of the plan's group.
//!
//! [`ResidualPlanSet::build`] enumerates one plan per subset of the
//! heavy-capable variables (the light plan is the subset `∅`), carves the
//! `p` servers into disjoint groups sized proportionally to the tuple mass
//! each plan attracts, and equips every plan with two share candidates:
//!
//! * the cover-based [`ShareAllocation`] of its residual query (the
//!   paper's worst-case-optimal choice, cardinality-blind) — one cover LP
//!   per heavy subset, served through the memoising LP cache of `mpc-lp`,
//!   so isomorphic residuals across plans, rebuilds and sibling queries
//!   cost one solve, and
//! * a statistics-aware share vector from the **degree-aware LP** of
//!   BKS14 §5 ([`mpc_lp::degree`]): per-pattern cardinalities and
//!   per-column maximum degrees become LP constraints, the optimal
//!   exponents are floored onto the group's integer grid, and the leftover
//!   integer slack is filled greedily against the estimated per-server
//!   load `Σ_j |R_j^H| / ∏_{x ∈ lightvars(R_j)} p_x`,
//!
//! keeping whichever estimates lower. Degenerate (heavy or absent)
//! variables always get share 1.
//!
//! [`ResidualPlanSet::build_with_stats`] is the adaptive-runtime entry
//! point: it plans from a shared [`mpc_data::DbStatistics`] artefact —
//! pattern counts come from the sample (scaled) when the statistics are
//! sampled, so the whole planning pass costs `O(p · budget)` instead of a
//! full scan. [`ResidualPlanSet::build`] keeps the exact behaviour.

use std::collections::{BTreeMap, BTreeSet};

use mpc_core::shares::ShareAllocation;
use mpc_cq::{Atom, Query, VarId};
use mpc_data::{DbStatistics, StatsMode};
use mpc_lp::degree::{rational_log, solve_degree_lp, DegreeStatistics};
use mpc_lp::Rational;
use mpc_storage::Database;

use crate::detector::HeavyHitters;
use crate::error::SkewError;
use crate::Result;

/// Denominator of the rationalised `log` grid the degree LP solves on:
/// statistics are rounded to multiples of `1/12` in exponent space, which
/// keeps cache keys small and moves the optimum by at most one grid step.
const LOG_GRID: i128 = 12;

/// One residual plan: the servers and shares dedicated to the answers
/// whose heavy configuration is exactly [`ResidualPlan::heavy_vars`].
#[derive(Debug, Clone)]
pub struct ResidualPlan {
    /// The variables fixed to heavy values in this plan (`∅` = the light
    /// plan, the ordinary HyperCube over the group).
    pub heavy_vars: BTreeSet<VarId>,
    /// The residual query `q_H` (heavy variables deleted); `None` when
    /// every variable is heavy and the residual is a pure filter.
    pub residual: Option<Query>,
    /// The cover-based allocation of the residual query within this
    /// plan's group, kept for reporting even when the cardinality-aware
    /// candidate won.
    pub allocation: Option<ShareAllocation>,
    /// The share vector actually used for routing, full-width over the
    /// *original* query's variables; heavy and absent variables have
    /// share 1.
    pub shares: Vec<usize>,
    /// First server (global index) of this plan's group.
    pub offset: usize,
    /// Number of servers the group was granted (`cells() ≤ group_size`).
    pub group_size: usize,
    /// Estimated tuples routed to this plan (before replication), used for
    /// proportional group sizing.
    pub weight_tuples: u64,
}

impl ResidualPlan {
    /// Number of grid cells actually used, `∏ shares ≤ group_size`.
    pub fn cells(&self) -> usize {
        self.shares.iter().product()
    }

    /// Does global server `s` belong to this plan's grid?
    pub fn owns_server(&self, s: usize) -> bool {
        s >= self.offset && s < self.offset + self.cells()
    }
}

/// The complete set of residual plans for a query, a database and `p`
/// servers: disjoint server groups, one per heavy-variable subset.
#[derive(Debug, Clone)]
pub struct ResidualPlanSet {
    heavy: HeavyHitters,
    plans: Vec<ResidualPlan>,
    p: usize,
}

impl ResidualPlanSet {
    /// Build the plan set. If `2^h > p` for `h` heavy-capable variables,
    /// the least severe variables are demoted to light (their heavy sets
    /// dropped) until every residual plan can be granted at least one
    /// server.
    ///
    /// # Errors
    ///
    /// Rejects `p == 0` and propagates share-allocation errors.
    pub fn build(q: &Query, db: &Database, heavy: HeavyHitters, p: usize) -> Result<Self> {
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
        heavy: HeavyHitters,
        p: usize,
        stats: &DbStatistics,
    ) -> Result<Self> {
        if p == 0 {
            return Err(SkewError::InvalidPlan("p must be at least 1".to_string()));
        }
        if heavy.num_vars() != q.num_vars() {
            return Err(SkewError::InvalidPlan(format!(
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
            capable.pop();
        }
        let kept: BTreeSet<VarId> = capable.iter().copied().collect();
        let heavy = heavy.restricted_to(&kept);
        let mut capable: Vec<VarId> = kept.into_iter().collect();
        capable.sort_unstable();

        // Per-atom tuple counts by heavy pattern: one scan of the input,
        // or — with sampled statistics — one scaled pass over the sample.
        let pattern_counts = count_patterns_with_stats(q, db, &heavy, stats);

        // One plan per subset of the capable variables, the light plan
        // (mask 0) first.
        let subsets: Vec<BTreeSet<VarId>> = (0..(1usize << capable.len()))
            .map(|mask| {
                capable
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, v)| *v)
                    .collect()
            })
            .collect();

        // Tuple mass attracted by each plan, for proportional group sizing.
        let weights: Vec<u64> = subsets
            .iter()
            .map(|h| {
                q.atoms()
                    .iter()
                    .zip(&pattern_counts)
                    .map(|(atom, counts)| {
                        let pattern: BTreeSet<VarId> =
                            atom.distinct_vars().intersection(h).copied().collect();
                        counts.get(&pattern).copied().unwrap_or(0)
                    })
                    .sum()
            })
            .collect();
        let group_sizes = proportional_groups(p, &weights);

        let mut plans = Vec::with_capacity(subsets.len());
        let mut offset = 0usize;
        for ((heavy_vars, group_size), weight_tuples) in
            subsets.into_iter().zip(group_sizes).zip(weights)
        {
            let residual = residual_query(q, &heavy_vars);
            let allocation = match &residual {
                Some(rq) => Some(ShareAllocation::optimal(rq, group_size)?),
                None => None,
            };

            // Candidate 1: cover-based shares, lifted to full width.
            let lifted = allocation.as_ref().map(|alloc| {
                let rq = residual.as_ref().expect("allocation implies residual");
                lift_shares(q, rq, alloc)
            });
            // Candidate 2: statistics-aware shares from the degree LP.
            let refined = statistics_shares(q, &heavy_vars, &pattern_counts, stats, group_size);

            let shares = match lifted {
                Some(lifted)
                    if estimated_load(q, &heavy_vars, &pattern_counts, &lifted)
                        <= estimated_load(q, &heavy_vars, &pattern_counts, &refined) =>
                {
                    lifted
                }
                _ => refined,
            };

            let plan = ResidualPlan {
                heavy_vars,
                residual,
                allocation,
                shares,
                offset,
                group_size,
                weight_tuples,
            };
            offset += plan.cells();
            plans.push(plan);
        }

        Ok(ResidualPlanSet { heavy, plans, p })
    }

    /// The (possibly demoted) heavy hitters the plans are keyed on.
    pub fn heavy(&self) -> &HeavyHitters {
        &self.heavy
    }

    /// All plans, light plan first.
    pub fn plans(&self) -> &[ResidualPlan] {
        &self.plans
    }

    /// The number of servers the plan set was built for.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Total servers actually holding grid cells, `Σ cells ≤ p`.
    pub fn servers_used(&self) -> usize {
        self.plans.iter().map(ResidualPlan::cells).sum()
    }

    /// The plan whose heavy-variable set is exactly `pattern`.
    pub fn plan_for_pattern(&self, pattern: &BTreeSet<VarId>) -> Option<usize> {
        self.plans.iter().position(|pl| &pl.heavy_vars == pattern)
    }

    /// The plan owning global server `s`, if any (servers beyond
    /// [`ResidualPlanSet::servers_used`] are idle).
    pub fn plan_of_server(&self, s: usize) -> Option<usize> {
        self.plans.iter().position(|pl| pl.owns_server(s))
    }

    /// The heavy pattern of a tuple of `atom`: the atom's variables whose
    /// value is heavy. Returns `None` for tuples that disagree on a
    /// repeated variable (they can never contribute to an answer).
    pub fn heavy_pattern(
        &self,
        atom: &Atom,
        tuple: &[mpc_storage::Value],
    ) -> Option<BTreeSet<VarId>> {
        let mut pattern = BTreeSet::new();
        let mut seen: BTreeMap<VarId, u64> = BTreeMap::new();
        for (pos, var) in atom.vars.iter().enumerate() {
            let value = tuple[pos];
            match seen.insert(*var, value) {
                Some(prev) if prev != value => return None,
                _ => {}
            }
            if self.heavy.is_heavy(*var, value) {
                pattern.insert(*var);
            }
        }
        Some(pattern)
    }
}

/// The residual query `q_H`: heavy variables deleted from every atom,
/// fully-heavy atoms dropped. `None` when every atom is fully heavy.
pub fn residual_query(q: &Query, heavy_vars: &BTreeSet<VarId>) -> Option<Query> {
    let mut atoms: Vec<(String, Vec<String>)> = Vec::new();
    for atom in q.atoms() {
        let light: Vec<String> = atom
            .vars
            .iter()
            .filter(|v| !heavy_vars.contains(v))
            .map(|v| q.var_names()[v.0].clone())
            .collect();
        if !light.is_empty() {
            atoms.push((atom.name.clone(), light));
        }
    }
    if atoms.is_empty() {
        return None;
    }
    let label: Vec<&str> = heavy_vars.iter().map(|v| q.var_names()[v.0].as_str()).collect();
    Query::new(format!("{}|{}", q.name(), label.join(",")), atoms).ok()
}

/// Per-atom tuple counts keyed by heavy pattern. With sampled statistics
/// the counts are estimated from the sample and scaled (rounded to the
/// nearest tuple); otherwise the relation is scanned once.
fn count_patterns_with_stats(
    q: &Query,
    db: &Database,
    heavy: &HeavyHitters,
    stats: &DbStatistics,
) -> Vec<BTreeMap<BTreeSet<VarId>, u64>> {
    q.atoms()
        .iter()
        .map(|atom| {
            let mut counts: BTreeMap<BTreeSet<VarId>, u64> = BTreeMap::new();
            let pattern_of = |t: &[mpc_storage::Value]| -> BTreeSet<VarId> {
                atom.vars
                    .iter()
                    .enumerate()
                    .filter(|(pos, var)| heavy.is_heavy(**var, t[*pos]))
                    .map(|(_, var)| *var)
                    .collect()
            };
            if let Some((tuples, scale)) = stats.relation(&atom.name).and_then(|rs| rs.sample()) {
                for t in tuples.iter() {
                    *counts.entry(pattern_of(t)).or_insert(0) += 1;
                }
                for c in counts.values_mut() {
                    *c = (*c as f64 * scale).round().max(1.0) as u64;
                }
            } else if let Ok(rel) = db.relation(&atom.name) {
                for t in rel.iter() {
                    *counts.entry(pattern_of(t)).or_insert(0) += 1;
                }
            }
            counts
        })
        .collect()
}

/// Carve `p` servers into groups proportional to `weights`, at least one
/// server per group; leftovers go to the heaviest groups.
fn proportional_groups(p: usize, weights: &[u64]) -> Vec<usize> {
    let m = weights.len();
    debug_assert!(m <= p, "caller guarantees 2^h ≤ p");
    let total: u64 = weights.iter().sum();
    let mut sizes: Vec<usize> = if total == 0 {
        vec![p / m; m]
    } else {
        weights.iter().map(|w| (p as f64 * *w as f64 / total as f64).floor() as usize).collect()
    };
    for s in &mut sizes {
        *s = (*s).max(1);
    }
    // The max(1) clamp may overshoot: shrink the largest groups.
    while sizes.iter().sum::<usize>() > p {
        let (idx, _) = sizes
            .iter()
            .enumerate()
            .filter(|(_, s)| **s > 1)
            .max_by_key(|(_, s)| **s)
            .expect("sum > p ≥ m implies some group > 1");
        sizes[idx] -= 1;
    }
    // Hand leftovers to the heaviest groups (ties: first wins, which is
    // the light plan for equal weights).
    while sizes.iter().sum::<usize>() < p {
        let (idx, _) = weights
            .iter()
            .enumerate()
            .max_by(|(i, a), (j, b)| {
                let la = **a as f64 / sizes[*i] as f64;
                let lb = **b as f64 / sizes[*j] as f64;
                la.partial_cmp(&lb).expect("finite").then(j.cmp(i))
            })
            .expect("at least one group");
        sizes[idx] += 1;
    }
    sizes
}

/// Lift a residual allocation to a full-width share vector over the
/// original query's variables (absent variables get share 1).
fn lift_shares(q: &Query, residual: &Query, alloc: &ShareAllocation) -> Vec<usize> {
    (0..q.num_vars())
        .map(|i| residual.var_id(&q.var_names()[i]).map(|rv| alloc.share(rv).max(1)).unwrap_or(1))
        .collect()
}

/// Estimated per-server load of a plan in tuple-bytes: each atom's routed
/// tuples spread over its hashed dimensions and replicate along the rest,
/// so one server expects `Σ_j bytes_j / ∏_{x ∈ lightvars_j} p_x`.
fn estimated_load(
    q: &Query,
    heavy_vars: &BTreeSet<VarId>,
    pattern_counts: &[BTreeMap<BTreeSet<VarId>, u64>],
    shares: &[usize],
) -> f64 {
    q.atoms()
        .iter()
        .zip(pattern_counts)
        .map(|(atom, counts)| {
            let pattern: BTreeSet<VarId> =
                atom.distinct_vars().intersection(heavy_vars).copied().collect();
            let tuples = counts.get(&pattern).copied().unwrap_or(0);
            let bytes = tuples as f64 * atom.arity() as f64 * 8.0;
            let spread: usize = atom
                .distinct_vars()
                .iter()
                .filter(|v| !heavy_vars.contains(v))
                .map(|v| shares[v.0])
                .product();
            bytes / spread as f64
        })
        .sum()
}

/// Statistics-aware shares: solve the degree-aware LP of BKS14 §5 on the
/// residual query — per-pattern cardinalities as `ν_j`, per-column maximum
/// frequencies (capped at the pattern mass) as `δ_{j,x}` — floor the
/// optimal exponents `e_x` onto the integer grid `p_x = ⌊group^{e_x}⌋`,
/// then fill the leftover integer slack with the load-greedy loop of
/// [`fill_shares`]. Falls back to the pure greedy fill when the residual
/// is degenerate or the LP errors (never observed for workspace sizes).
fn statistics_shares(
    q: &Query,
    heavy_vars: &BTreeSet<VarId>,
    pattern_counts: &[BTreeMap<BTreeSet<VarId>, u64>],
    stats: &DbStatistics,
    group: usize,
) -> Vec<usize> {
    let mut shares = vec![1usize; q.num_vars()];
    if group > 1 {
        if let Some(exponents) = degree_lp_exponents(q, heavy_vars, pattern_counts, stats, group) {
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
    fill_shares(q, heavy_vars, pattern_counts, group, shares)
}

/// The optimal exponents of the degree-aware LP for the residual query of
/// `heavy_vars`, mapped back to the original query's light variables.
/// `None` when the residual is a pure filter or the LP fails.
fn degree_lp_exponents(
    q: &Query,
    heavy_vars: &BTreeSet<VarId>,
    pattern_counts: &[BTreeMap<BTreeSet<VarId>, u64>],
    stats: &DbStatistics,
    group: usize,
) -> Option<Vec<(VarId, Rational)>> {
    let rq = residual_query(q, heavy_vars)?;
    // Exponent space has base `group` (shares are p_x = group^{e_x}):
    // ν_j = log_group(m_j) over the pattern mass, δ capped at ν_j.
    let mut cardinality = Vec::with_capacity(rq.num_atoms());
    let mut degree = vec![vec![Rational::ZERO; rq.num_vars()]; rq.num_atoms()];
    let mut rj = 0usize;
    for (atom, counts) in q.atoms().iter().zip(pattern_counts) {
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
        let pattern: BTreeSet<VarId> =
            atom.distinct_vars().intersection(heavy_vars).copied().collect();
        let mass = counts.get(&pattern).copied().unwrap_or(0);
        cardinality.push(rational_log(mass, group, LOG_GRID));
        let rs = stats.relation(&atom.name);
        for (pos, var) in lights {
            let rv = rq.var_id(&q.var_names()[var.0])?;
            // Maximum degree of the column, an upper bound for the
            // residual subset; capped at the pattern mass.
            let maxdeg = rs
                .map(|rs| {
                    rs.column_estimates(pos).map(|(_, est)| est).fold(0.0f64, f64::max).round()
                        as u64
                })
                .unwrap_or(0)
                .min(mass);
            let d = rational_log(maxdeg, group, LOG_GRID).min(cardinality[rj]);
            if d > degree[rj][rv.0] {
                degree[rj][rv.0] = d;
            }
        }
        rj += 1;
    }
    let sol = solve_degree_lp(&rq, &DegreeStatistics { cardinality, degree }).ok()?;
    Some(
        (0..q.num_vars())
            .filter_map(|v| {
                let rv = rq.var_id(&q.var_names()[v])?;
                Some((VarId(v), sol.exponents[rv.0]))
            })
            .collect(),
    )
}

/// Load-greedy integer fill: grow, one unit at a time, the light variable
/// whose increment most reduces the estimated load, while the grid stays
/// within `group` servers. Used to top up the degree-LP floor (and, from
/// an all-ones start, as the LP-free fallback).
fn fill_shares(
    q: &Query,
    heavy_vars: &BTreeSet<VarId>,
    pattern_counts: &[BTreeMap<BTreeSet<VarId>, u64>],
    group: usize,
    mut shares: Vec<usize>,
) -> Vec<usize> {
    loop {
        let product: usize = shares.iter().product();
        let current = estimated_load(q, heavy_vars, pattern_counts, &shares);
        let mut best: Option<(usize, f64)> = None;
        for v in 0..shares.len() {
            if heavy_vars.contains(&VarId(v)) {
                continue;
            }
            if product / shares[v] * (shares[v] + 1) > group {
                continue;
            }
            shares[v] += 1;
            let load = estimated_load(q, heavy_vars, pattern_counts, &shares);
            shares[v] -= 1;
            if load < current && best.is_none_or(|(_, b)| load < b) {
                best = Some((v, load));
            }
        }
        match best {
            Some((v, _)) => shares[v] += 1,
            None => return shares,
        }
    }
}

/// Enumerate the cells of a mixed-radix grid consistent with partial
/// coordinates (`None` = free dimension), over an arbitrary full-width
/// share vector. Re-exported from [`mpc_core::shares`] so HyperCube and
/// the residual plans share one implementation of the routing enumeration.
pub use mpc_core::shares::consistent_cells;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::HeavyHitterDetector;
    use mpc_core::shares::ShareAllocation;
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_data::skew::heavy_hitter_database;

    fn plan_set(q: &Query, db: &Database, p: usize) -> ResidualPlanSet {
        let alloc = ShareAllocation::optimal(q, p).unwrap();
        let heavy = HeavyHitterDetector::default().detect(q, db, &alloc).unwrap();
        ResidualPlanSet::build(q, db, heavy, p).unwrap()
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
        assert!(set.servers_used() <= 32);
        // The heavy plan keeps x1 degenerate and spreads on the light
        // variables instead.
        assert_eq!(heavy.shares[x1.0], 1);
        assert!(heavy.shares.iter().product::<usize>() > 1);
        // Proportional sizing favours the light plan (it attracts more
        // than half the tuple mass: all of S1 plus the light part of S2).
        assert!(light.group_size > heavy.group_size);
    }

    #[test]
    fn residual_query_deletes_heavy_positions() {
        let q = families::chain(2); // S1(x0,x1), S2(x1,x2)
        let x1 = q.var_id("x1").unwrap();
        let rq = residual_query(&q, &[x1].into_iter().collect()).unwrap();
        assert_eq!(rq.num_atoms(), 2);
        let (_, s1) = rq.atom_by_name("S1").unwrap();
        assert_eq!(s1.arity(), 1, "S1(x0,x1) becomes S1(x0)");
        // Fixing every variable leaves a pure filter.
        let all: BTreeSet<VarId> = q.var_ids().collect();
        assert!(residual_query(&q, &all).is_none());
    }

    #[test]
    fn plan_lookup_by_pattern_and_server() {
        let q = families::chain(2);
        let db = heavy_hitter_database(&q, 2000, 2000, 0.5, 7);
        let set = plan_set(&q, &db, 32);
        let x1 = q.var_id("x1").unwrap();
        let light = set.plan_for_pattern(&BTreeSet::new()).unwrap();
        let heavy = set.plan_for_pattern(&[x1].into_iter().collect()).unwrap();
        assert_ne!(light, heavy);
        for s in 0..set.servers_used() {
            let owner = set.plan_of_server(s).expect("used servers have an owner");
            assert!(set.plans()[owner].owns_server(s));
        }
        assert_eq!(set.plan_of_server(32), None);
    }

    #[test]
    fn too_many_heavy_vars_are_demoted_by_severity() {
        let q = families::cycle(3);
        let db = heavy_hitter_database(&q, 2000, 2000, 0.5, 3);
        let alloc = ShareAllocation::optimal(&q, 27).unwrap();
        let heavy = HeavyHitterDetector::default().detect(&q, &db, &alloc).unwrap();
        assert_eq!(heavy.heavy_vars().len(), 3);
        // p = 4 can host at most 4 plans = 2 capable variables.
        let set = ResidualPlanSet::build(&q, &db, heavy, 4).unwrap();
        assert!(set.heavy().heavy_vars().len() <= 2);
        assert!(set.plans().len() <= 4);
        assert!(set.servers_used() <= 4);
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
        let set = ResidualPlanSet::build(&q, &db, HeavyHitters::none(q.num_vars()), 8).unwrap();
        let (_, s) = q.atom_by_name("S").unwrap();
        // Conflicting repeated variable → no pattern (never joins).
        assert_eq!(set.heavy_pattern(s, &[1, 2]), None);
        // Consistent repeated variable → a (light) pattern.
        assert_eq!(set.heavy_pattern(s, &[1, 1]), Some(BTreeSet::new()));
    }

    #[test]
    fn residual_cover_solves_hit_the_lp_cache() {
        // Building a plan set solves one cover LP per heavy subset; a
        // rebuild must answer every one of them from the global LP cache.
        // Counters are process-global and monotonic, so comparing before/
        // after deltas is safe under concurrent tests.
        let q = families::cycle(3);
        let db = heavy_hitter_database(&q, 2000, 2000, 0.5, 3);
        let _warm = plan_set(&q, &db, 27);
        let before = mpc_query_lp_stats();
        let rebuilt = plan_set(&q, &db, 27);
        let after = mpc_query_lp_stats();
        // Recognised-family residuals (like the light plan's C3) take the
        // closed form and never touch the cache; every other residual must
        // hit on the rebuild.
        let cacheable = rebuilt
            .plans()
            .iter()
            .filter_map(|p| p.residual.as_ref())
            .filter(|rq| mpc_cq::families::recognize(rq).is_none())
            .count() as u64;
        assert!(cacheable >= 2, "cycle with heavy vars has multiple non-family residuals");
        assert!(
            after.hits >= before.hits + cacheable,
            "expected ≥{cacheable} cache hits, stats before {before:?} after {after:?}"
        );
    }

    fn mpc_query_lp_stats() -> mpc_lp::cache::CacheStats {
        mpc_lp::LpCache::global().stats()
    }

    #[test]
    fn consistent_cells_mixed_radix() {
        let shares = [2usize, 3, 1];
        assert_eq!(consistent_cells(&shares, &[Some(1), Some(2), Some(0)]), vec![5]);
        assert_eq!(consistent_cells(&shares, &[Some(0), None, Some(0)]), vec![0, 1, 2]);
        assert_eq!(consistent_cells(&shares, &[None, None, None]).len(), 6);
    }

    #[test]
    fn proportional_groups_respect_minimums_and_total() {
        assert_eq!(proportional_groups(8, &[0, 0]), vec![4, 4]);
        let sizes = proportional_groups(32, &[9000, 3000]);
        assert_eq!(sizes.iter().sum::<usize>(), 32);
        assert!(sizes[0] > sizes[1]);
        assert!(sizes.iter().all(|&s| s >= 1));
        // Tiny p still grants every group one server.
        let sizes = proportional_groups(4, &[1000, 1, 1, 1]);
        assert_eq!(sizes, vec![1, 1, 1, 1]);
    }

    #[test]
    fn statistics_shares_follow_cardinalities() {
        // Product residual S1'(x0) × S2'(x2) with |S2'| ≫ |S1'|: the
        // degree-LP shares put (almost) everything on x2, unlike the
        // cover-based (√g, √g) split.
        let q = families::chain(2);
        let x1: BTreeSet<VarId> = [q.var_id("x1").unwrap()].into_iter().collect();
        let counts =
            vec![BTreeMap::from([(x1.clone(), 4u64)]), BTreeMap::from([(x1.clone(), 2000u64)])];
        let stats = DbStatistics::collect(&Database::new(100), StatsMode::Exact);
        let shares = statistics_shares(&q, &x1, &counts, &stats, 8);
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
        let empty = BTreeSet::new();
        let counts = vec![
            BTreeMap::from([(empty.clone(), 1000u64)]),
            BTreeMap::from([(empty.clone(), 1000u64)]),
        ];
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
        let shares = statistics_shares(&q, &no_heavy, &counts, &stats, 16);
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

            let exact_heavy = HeavyHitterDetector::default().detect(&q, &db, &alloc).unwrap();
            let exact_set = ResidualPlanSet::build(&q, &db, exact_heavy, p).unwrap();
            assert!(exact_set.servers_used() <= p);

            let stats =
                DbStatistics::collect(&db, StatsMode::Sampled { budget: 600, seed: seed * 17 + 3 });
            let sampled_heavy =
                HeavyHitterDetector::default().detect_from_stats(&q, &stats, &alloc).unwrap();
            let sampled_set =
                ResidualPlanSet::build_with_stats(&q, &db, sampled_heavy, p, &stats).unwrap();

            // Same budget invariants as the exact plan set…
            assert!(sampled_set.servers_used() <= p, "seed {seed}");
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
