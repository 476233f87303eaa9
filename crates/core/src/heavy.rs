//! The heavy/light split both skew planners are built on.
//!
//! HyperCube's load guarantee assumes every value of a partitioned
//! variable `x` occurs `O(|R| / p_x)` times. A value that occurs more
//! often than `|R| / p_x` in some column holding `x` overloads the
//! coordinate it hashes to whatever the hash function — it is **heavy**
//! ([`heavy_occurrences`] is the one place that comparison is made). A
//! variable the grid does not partition (share 1) has no heavy values, and
//! since `∏ p_x ≤ p` at most `log₂ p` variables can have any.
//!
//! BKS14 (arXiv:1401.1872, §4) and BKS 2018 (arXiv:1604.01848) treat heavy
//! values with one and the same object. A tuple `t` of atom `S_j` has a
//! **heavy pattern** `h(t) = {x ∈ vars(S_j) : t[x] heavy}`; an answer has
//! a heavy configuration `H`, and the answers with configuration exactly
//! `H` are those of the **residual query** `q_H` ([`residual_query`]) over
//! the tuples whose pattern is `H ∩ vars(S_j)`. Each `H` that gets a
//! server [`Group`] gets one sized by the tuple mass it attracts
//! ([`PatternCounts`], [`carve`]), with a share vector grown against the
//! expected load of one cell ([`cell_load`], [`grow_shares`]); a tuple is
//! sent to every group inducing its pattern on its atom
//! ([`GroupRoutes::inducing`]), and the per-group outputs partition the
//! answers.
//!
//! Patterns and heavy-variable subsets are [`Mask`]s over the variables
//! that have heavy values, so classifying a tuple builds no collection.
//! What the two planners decide for themselves — which subsets get a
//! group, what a heavy dimension's share is, which share candidates
//! compete, one round or two — stays in [`crate::skew::residual`] and
//! [`crate::wco::plan`].

use std::collections::{BTreeMap, BTreeSet};

use mpc_cq::{Atom, Query, VarId};
use mpc_data::{DbStatistics, RelationStats};
use mpc_storage::{Database, Relation, Value};

use crate::grid::{AtomRoute, Grid};
use crate::shares::ShareAllocation;
use crate::Result;

/// A set of heavy-capable variables — a tuple's heavy pattern or a
/// group's heavy configuration — as a bitmask: bit `i` is the `i`-th
/// variable of [`HeavyValues::heavy_vars`].
pub type Mask = u64;

/// The heavy values of every query variable, plus how far the worst of
/// them exceeded the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct HeavyValues {
    /// Sorted heavy values, indexed by `VarId`.
    values: Vec<Vec<Value>>,
    /// Worst `frequency / threshold` ratio recorded per variable (1.0 when
    /// nothing was recorded).
    severity: Vec<f64>,
}

impl HeavyValues {
    /// No heavy values for any of `k` variables.
    pub fn none(k: usize) -> Self {
        HeavyValues { values: vec![Vec::new(); k], severity: vec![1.0; k] }
    }

    /// Everything [`heavy_occurrences`] reports for `q` under the share
    /// allocation `alloc`. Under sampled statistics a value the sample
    /// missed is light for every consumer of the result alike, which
    /// costs balance, never answers.
    pub fn detect(q: &Query, stats: &DbStatistics, alloc: &ShareAllocation, scale: f64) -> Self {
        let mut heavy = Self::none(q.num_vars());
        for (var, value, severity) in heavy_occurrences(q, stats, alloc, scale) {
            heavy.insert(var, value, severity);
        }
        heavy
    }

    /// Number of query variables covered.
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// The sorted heavy values of a variable.
    pub fn of(&self, var: VarId) -> &[Value] {
        &self.values[var.0]
    }

    /// Is `value` heavy at `var`?
    pub fn is_heavy(&self, var: VarId, value: Value) -> bool {
        self.rank(var, value).is_some()
    }

    /// The index of a heavy value in its variable's sorted list — the
    /// coordinate of a value-indexed grid dimension before the modulus.
    pub fn rank(&self, var: VarId, value: Value) -> Option<usize> {
        self.values.get(var.0)?.binary_search(&value).ok()
    }

    /// Number of heavy values at `var`.
    pub fn count(&self, var: VarId) -> usize {
        self.values[var.0].len()
    }

    /// Total number of heavy (variable, value) pairs.
    pub fn num_heavy_values(&self) -> usize {
        self.values.iter().map(Vec::len).sum()
    }

    /// True when no variable has heavy values.
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(Vec::is_empty)
    }

    /// The variables with at least one heavy value, ascending.
    pub fn heavy_vars(&self) -> Vec<VarId> {
        (0..self.values.len()).filter(|&i| !self.values[i].is_empty()).map(VarId).collect()
    }

    /// Worst recorded `frequency / threshold` ratio of a variable.
    pub(crate) fn severity(&self, var: VarId) -> f64 {
        self.severity.get(var.0).copied().unwrap_or(1.0)
    }

    /// Record a heavy value.
    pub fn insert(&mut self, var: VarId, value: Value, severity: f64) {
        if let Err(at) = self.values[var.0].binary_search(&value) {
            self.values[var.0].insert(at, value);
        }
        if severity > self.severity[var.0] {
            self.severity[var.0] = severity;
        }
    }

    /// Drop the heavy values of `var`: every tuple is light there from now
    /// on. Renumbers the [`Mask`] bits of the variables after it.
    pub(crate) fn demote(&mut self, var: VarId) {
        self.values[var.0].clear();
    }

    /// The [`Mask`] bit of `var`; 0 for a variable without heavy values.
    pub fn bit(&self, var: VarId) -> Mask {
        if self.values[var.0].is_empty() {
            return 0;
        }
        1 << self.values[..var.0].iter().filter(|list| !list.is_empty()).count()
    }

    /// The [`Mask`] of the variables among `vars` that have heavy values.
    pub(crate) fn mask_of(&self, vars: impl IntoIterator<Item = VarId>) -> Mask {
        vars.into_iter().fold(0, |mask, var| mask | self.bit(var))
    }

    /// The variables a [`Mask`] stands for.
    pub(crate) fn vars_of(&self, mask: Mask) -> BTreeSet<VarId> {
        self.heavy_vars()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 != 0)
            .map(|(_, v)| v)
            .collect()
    }

    /// The heavy pattern of one tuple of `atom`: the atom's variables
    /// whose value is heavy. `None` for a tuple that disagrees with itself
    /// on a repeated variable (it can never contribute to an answer).
    pub fn pattern(&self, atom: &Atom, tuple: &[Value]) -> Option<Mask> {
        let mut mask = 0;
        for (pos, var) in atom.vars.iter().enumerate() {
            if let Some(first) = atom.vars[..pos].iter().position(|w| w == var) {
                if tuple[first] != tuple[pos] {
                    return None;
                }
            } else if self.is_heavy(*var, tuple[pos]) {
                mask |= self.bit(*var);
            }
        }
        Some(mask)
    }
}

/// The frequency above which a value is heavy in a column of `total`
/// tuples whose variable has share `share`: `scale · |R| / p_x`.
pub fn threshold(total: usize, share: usize, scale: f64) -> f64 {
    scale * total as f64 / share as f64
}

/// Every `(variable, value, frequency / threshold)` whose (estimated)
/// frequency in some column holding the variable exceeds
/// [`threshold`] — the values hashing cannot balance. Variables with
/// share 1 and relations the statistics do not cover yield nothing; a
/// value heavy in two columns is yielded twice.
pub fn heavy_occurrences<'a>(
    q: &'a Query,
    stats: &'a DbStatistics,
    alloc: &'a ShareAllocation,
    scale: f64,
) -> impl Iterator<Item = (VarId, Value, f64)> + 'a {
    q.atoms().iter().flat_map(move |atom| {
        let rs = stats.relation(&atom.name);
        atom.vars.iter().enumerate().flat_map(move |(pos, var)| {
            let share = alloc.share(*var);
            let limit = rs.map_or(0.0, |rs| threshold(rs.total(), share, scale));
            rs.filter(|_| share > 1 && limit > 0.0)
                .into_iter()
                .flat_map(move |rs| rs.column_estimates(pos))
                .filter(move |(_, frequency)| *frequency > limit)
                .map(move |(value, frequency)| (*var, value, frequency / limit))
        })
    })
}

/// Tuples per atom and heavy pattern: one scan of the input under exact
/// statistics, one pass over the sample (scaled to the relation, at least
/// 1 per observed pattern) under sampled ones. Tuples that disagree with
/// themselves on a repeated variable are not counted — they are not
/// routed either.
#[derive(Debug, Clone)]
pub struct PatternCounts {
    /// Per atom: the bits of its heavy-capable variables, and its tuple
    /// count per pattern.
    atoms: Vec<(Mask, BTreeMap<Mask, u64>)>,
}

impl PatternCounts {
    /// Count the patterns of every atom of `q` under `heavy`. A relation
    /// missing from both `stats` and `db` counts as empty.
    pub fn scan(q: &Query, db: &Database, heavy: &HeavyValues, stats: &DbStatistics) -> Self {
        let atoms = q
            .atoms()
            .iter()
            .map(|atom| {
                let sample = stats.relation(&atom.name).and_then(RelationStats::sample);
                let rows = sample.map(|(rows, _)| rows).or_else(|| db.relation(&atom.name).ok());
                let mut counts: BTreeMap<Mask, u64> = BTreeMap::new();
                for t in rows.into_iter().flat_map(Relation::iter) {
                    if let Some(pattern) = heavy.pattern(atom, t) {
                        *counts.entry(pattern).or_insert(0) += 1;
                    }
                }
                if let Some((_, scale)) = sample {
                    for c in counts.values_mut() {
                        *c = (*c as f64 * scale).round().max(1.0) as u64;
                    }
                }
                (heavy.mask_of(atom.vars.iter().copied()), counts)
            })
            .collect();
        PatternCounts { atoms }
    }

    /// Per atom, the tuples the group of heavy configuration `h` needs:
    /// those whose pattern is `h` restricted to the atom's variables.
    pub(crate) fn atom_tuples(&self, h: Mask) -> impl Iterator<Item = u64> + '_ {
        self.atoms.iter().map(move |(vars, counts)| counts.get(&(h & vars)).copied().unwrap_or(0))
    }

    /// The tuple mass configuration `h` attracts, `Σ_j atom_tuples(h)[j]`.
    pub(crate) fn mass(&self, h: Mask) -> u64 {
        self.atom_tuples(h).sum()
    }

    /// Every `(atom's heavy-capable variables, pattern, tuples)` counted.
    pub fn patterns(&self) -> impl Iterator<Item = (Mask, Mask, u64)> + '_ {
        self.atoms
            .iter()
            .flat_map(|(vars, counts)| counts.iter().map(move |(phi, n)| (*vars, *phi, *n)))
    }
}

/// One server group of a heavy/light plan: the servers and shares
/// dedicated to the answers whose heavy configuration is exactly
/// [`Group::heavy_vars`]. A plan's groups sit on disjoint server ranges,
/// back to back from server 0, the light group (`heavy_vars = ∅`) first.
#[derive(Debug, Clone)]
pub struct Group {
    /// The variables fixed to heavy values (`∅` = the light group).
    pub heavy_vars: BTreeSet<VarId>,
    /// Full-width share vector over the query's variables; the product is
    /// ≤ [`Group::group_size`].
    pub shares: Vec<usize>,
    /// First server (global index) of the group's grid.
    pub offset: usize,
    /// Servers granted to the group (`cells() ≤ group_size`).
    pub group_size: usize,
    /// Tuples each atom routes into this grid (before replication), in
    /// atom order — counted by the planning scan, or scaled up from the
    /// planning sample.
    pub atom_tuples: Vec<u64>,
}

impl Group {
    /// Number of grid cells, `∏ shares`.
    pub fn cells(&self) -> usize {
        self.shares.iter().product()
    }

    /// Does global server `s` belong to this group's grid?
    pub fn owns_server(&self, s: usize) -> bool {
        s >= self.offset && s < self.offset + self.cells()
    }

    /// Replication factor of one tuple of `atom` in this grid: the
    /// product of the shares of the dimensions the atom does not fix.
    pub(crate) fn replication_of(&self, atom: &Atom) -> usize {
        let fixed = atom.distinct_vars();
        self.shares
            .iter()
            .enumerate()
            .filter(|(i, _)| !fixed.contains(&VarId(*i)))
            .map(|(_, s)| *s)
            .product()
    }
}

/// The group owning global server `s`, if any: servers beyond the last
/// grid belong to none.
pub fn group_of_server(groups: &[Group], s: usize) -> Option<usize> {
    groups.iter().position(|g| g.owns_server(s))
}

/// Carve `p` servers into one [`Group`] per heavy configuration of
/// `configs`, in order: each sized by the tuple mass it attracts (at
/// least one server), each grid starting where the previous one ends.
/// `shares(group)` picks a group's share vector, seeing the group with
/// everything but its shares filled in.
///
/// # Errors
///
/// Propagates the errors of `shares`.
pub fn carve(
    p: usize,
    configs: &[Mask],
    heavy: &HeavyValues,
    counts: &PatternCounts,
    mut shares: impl FnMut(&Group) -> Result<Vec<usize>>,
) -> Result<Vec<Group>> {
    let masses: Vec<u64> = configs.iter().map(|h| counts.mass(*h)).collect();
    let mut groups = Vec::with_capacity(configs.len());
    let mut offset = 0;
    for (&h, group_size) in configs.iter().zip(proportional_groups(p, &masses)) {
        let mut group = Group {
            heavy_vars: heavy.vars_of(h),
            shares: Vec::new(),
            offset,
            group_size,
            atom_tuples: counts.atom_tuples(h).collect(),
        };
        group.shares = shares(&group)?;
        offset += group.cells();
        groups.push(group);
    }
    Ok(groups)
}

/// A plan's groups compiled for routing: per group its heavy
/// configuration and the route of every atom in its grid, and per atom
/// the [`Mask`] of its heavy-capable variables.
#[derive(Debug, Clone)]
pub struct GroupRoutes {
    groups: Vec<(Mask, Vec<AtomRoute>)>,
    atom_vars: Vec<Mask>,
}

impl GroupRoutes {
    /// Compile `groups`, planned for `q` under `heavy`.
    pub fn new(q: &Query, heavy: &HeavyValues, groups: &[Group]) -> Self {
        let groups = groups
            .iter()
            .map(|g| {
                let h = heavy.mask_of(g.heavy_vars.iter().copied());
                (h, Grid::new(&g.shares, g.offset).routes(q))
            })
            .collect();
        let atom_vars =
            q.atoms().iter().map(|atom| heavy.mask_of(atom.vars.iter().copied())).collect();
        GroupRoutes { groups, atom_vars }
    }

    /// The groups that need a tuple of atom number `atom` whose heavy
    /// pattern is `phi` — those whose configuration induces exactly `phi`
    /// on the atom — as `(group, configuration, the atom's route there)`,
    /// in group order.
    pub fn inducing(
        &self,
        atom: usize,
        phi: Mask,
    ) -> impl Iterator<Item = (usize, Mask, &AtomRoute)> + '_ {
        let vars = self.atom_vars[atom];
        self.groups
            .iter()
            .enumerate()
            .filter(move |(_, (h, _))| h & vars == phi)
            .map(move |(g, (h, routes))| (g, *h, &routes[atom]))
    }

    /// The group whose heavy configuration is exactly `h`.
    pub(crate) fn group_of(&self, h: Mask) -> Option<usize> {
        self.groups.iter().position(|(config, _)| *config == h)
    }
}

/// Carve `p` servers into groups proportional to `weights`, at least one
/// server per group; leftovers go to the group with the highest
/// weight-per-server (ties: the first).
fn proportional_groups(p: usize, weights: &[u64]) -> Vec<usize> {
    let m = weights.len();
    debug_assert!(m <= p, "caller guarantees one server per group");
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

/// The residual query `q_H`, named `q|H`: heavy variables deleted from
/// every atom, fully-heavy atoms dropped. `None` when every atom is fully
/// heavy and the residual is a pure filter.
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

/// Expected load of one grid cell: each atom's routed weight `w_j`
/// (tuples or bytes) spreads over the dimensions the atom fixes and
/// replicates along the rest, `Σ_j w_j / ∏_{x ∈ vars(S_j)} p_x`.
pub fn cell_load(q: &Query, weights: &[f64], shares: &[usize]) -> f64 {
    q.atoms()
        .iter()
        .zip(weights)
        .map(|(atom, w)| {
            let distinct =
                atom.vars.iter().enumerate().filter(|(pos, v)| !atom.vars[..*pos].contains(v));
            let spread: usize = distinct.map(|(_, v)| shares[v.0]).product();
            w / spread as f64
        })
        .sum()
}

/// Load-greedy integer share search: from `shares`, grow one unit at a
/// time the variable whose increment most reduces [`cell_load`], while
/// the grid fits `group` servers and no variable exceeds `cap(var)`
/// (1 pins a dimension, `usize::MAX` leaves it free).
pub fn grow_shares(
    q: &Query,
    weights: &[f64],
    group: usize,
    cap: impl Fn(VarId) -> usize,
    mut shares: Vec<usize>,
) -> Vec<usize> {
    loop {
        let product: usize = shares.iter().product();
        let current = cell_load(q, weights, &shares);
        let mut best: Option<(usize, f64)> = None;
        for v in 0..shares.len() {
            if shares[v] >= cap(VarId(v)) || product / shares[v] * (shares[v] + 1) > group {
                continue;
            }
            shares[v] += 1;
            let load = cell_load(q, weights, &shares);
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

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;
    use mpc_data::skew::{heavy_hitter_database, zipf_database};
    use mpc_data::StatsMode;

    /// The set-based definition the masks replace.
    fn pattern_as_set(
        heavy: &HeavyValues,
        atom: &Atom,
        tuple: &[Value],
    ) -> Option<BTreeSet<VarId>> {
        let mut pattern = BTreeSet::new();
        let mut seen: BTreeMap<VarId, Value> = BTreeMap::new();
        for (pos, var) in atom.vars.iter().enumerate() {
            match seen.insert(*var, tuple[pos]) {
                Some(prev) if prev != tuple[pos] => return None,
                _ => {}
            }
            if heavy.is_heavy(*var, tuple[pos]) {
                pattern.insert(*var);
            }
        }
        Some(pattern)
    }

    fn detect(q: &Query, db: &Database, p: usize, mode: StatsMode) -> (HeavyValues, DbStatistics) {
        let stats = DbStatistics::collect(db, mode);
        let alloc = ShareAllocation::optimal(q, p).unwrap();
        (HeavyValues::detect(q, &stats, &alloc, 1.0), stats)
    }

    #[test]
    fn pattern_masks_agree_with_the_set_definition_on_every_tuple() {
        for (q, db) in [
            (
                families::triangle(),
                heavy_hitter_database(&families::triangle(), 800, 1500, 0.5, 11),
            ),
            (families::chain(2), zipf_database(&families::chain(2), 3000, 3000, 1.2, 5)),
            (families::cycle(4), heavy_hitter_database(&families::cycle(4), 600, 1200, 0.6, 21)),
        ] {
            let (heavy, _) = detect(&q, &db, 27, StatsMode::Exact);
            assert!(!heavy.is_empty(), "{}: skewed input", q.name());
            let mut heavy_tuples = 0;
            for atom in q.atoms() {
                for t in db.relation(&atom.name).unwrap().iter() {
                    let mask = heavy.pattern(atom, t).expect("no repeated variables");
                    assert_eq!(Some(heavy.vars_of(mask)), pattern_as_set(&heavy, atom, t));
                    assert_eq!(heavy.mask_of(heavy.vars_of(mask)), mask);
                    assert_eq!(mask & !heavy.mask_of(atom.vars.iter().copied()), 0);
                    heavy_tuples += usize::from(mask != 0);
                }
            }
            assert!(heavy_tuples > 0, "{}: some tuple is heavy", q.name());
        }
    }

    #[test]
    fn patterns_respect_repeated_variables_and_demotion() {
        let q = Query::new("q", vec![("S", vec!["x", "x", "y"]), ("T", vec!["y", "z"])]).unwrap();
        let (x, y, z) = (VarId(0), VarId(1), VarId(2));
        let mut heavy = HeavyValues::none(3);
        heavy.insert(x, 7, 2.0);
        heavy.insert(z, 9, 3.0);
        heavy.insert(z, 4, 1.5);
        assert_eq!((heavy.of(z), heavy.rank(z, 9), heavy.severity(z)), (&[4, 9][..], Some(1), 3.0));
        assert_eq!((heavy.bit(x), heavy.bit(y), heavy.bit(z)), (1, 0, 2));
        let s = &q.atoms()[0];
        assert_eq!(heavy.pattern(s, &[7, 7, 1]), Some(1));
        assert_eq!(heavy.pattern(s, &[1, 1, 1]), Some(0));
        assert_eq!(heavy.pattern(s, &[7, 1, 1]), None, "x = 7 and x = 1 at once");
        assert_eq!(pattern_as_set(&heavy, s, &[7, 1, 1]), None);
        // Demoting x renumbers z.
        heavy.demote(x);
        assert_eq!((heavy.bit(x), heavy.bit(z)), (0, 1));
        assert_eq!(heavy.pattern(s, &[7, 7, 1]), Some(0));
        assert_eq!(heavy.heavy_vars(), vec![z]);
        assert_eq!(heavy.num_heavy_values(), 2);
    }

    #[test]
    fn a_full_budget_sample_counts_what_the_scan_counts() {
        let q = families::triangle();
        let db = heavy_hitter_database(&q, 800, 1500, 0.5, 11);
        let (heavy, exact) = detect(&q, &db, 27, StatsMode::Exact);
        let (same, sampled) = detect(&q, &db, 27, StatsMode::Sampled { budget: 1500, seed: 3 });
        assert_eq!(heavy, same);
        assert!(sampled.is_sampled() && !exact.is_sampled());
        let scanned = PatternCounts::scan(&q, &db, &heavy, &exact);
        let estimated = PatternCounts::scan(&q, &db, &heavy, &sampled);
        assert_eq!(
            scanned.patterns().collect::<Vec<_>>(),
            estimated.patterns().collect::<Vec<_>>()
        );
        let all: Mask = (1 << heavy.heavy_vars().len()) - 1;
        for h in 0..=all {
            assert!(scanned.atom_tuples(h).eq(estimated.atom_tuples(h)));
            assert_eq!(scanned.mass(h), estimated.mass(h));
        }
        // Every tuple has exactly one pattern.
        assert_eq!(scanned.patterns().map(|(.., n)| n).sum::<u64>(), 3 * 1500);
        // A smaller sample scales its counts back up to the relation.
        let tenth = DbStatistics::collect(&db, StatsMode::Sampled { budget: 150, seed: 3 });
        let rough = PatternCounts::scan(&q, &db, &heavy, &tenth);
        let total = rough.patterns().map(|(.., n)| n).sum::<u64>();
        assert!((4000..=5000).contains(&total), "scaled total {total}");
    }

    #[test]
    fn detection_thresholds_on_share_and_scale() {
        let q = families::chain(2);
        let db = zipf_database(&q, 6000, 6000, 1.0, 5);
        let stats = DbStatistics::collect(&db, StatsMode::Exact);
        let alloc = ShareAllocation::optimal(&q, 32).unwrap();
        let x1 = q.var_id("x1").unwrap();
        let strict = HeavyValues::detect(&q, &stats, &alloc, 4.0);
        let lax = HeavyValues::detect(&q, &stats, &alloc, 0.25);
        assert!(lax.count(x1) > strict.count(x1));
        // Only the partitioned variable can be heavy, and every reported
        // occurrence is above its threshold.
        assert_eq!(lax.heavy_vars(), vec![x1]);
        assert!(heavy_occurrences(&q, &stats, &alloc, 0.25).all(|(v, _, s)| v == x1 && s > 1.0));
        assert_eq!(threshold(6000, 32, 0.25), 46.875);
        // One server partitions nothing.
        let one = ShareAllocation::optimal(&q, 1).unwrap();
        assert!(HeavyValues::detect(&q, &stats, &one, 0.25).is_empty());
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
    fn residual_query_deletes_heavy_positions() {
        let q = families::triangle();
        let x1 = q.var_id("x1").unwrap();
        let rq = residual_query(&q, &[x1].into_iter().collect()).unwrap();
        assert_eq!(rq.name(), "C3|x1");
        assert_eq!(rq.num_atoms(), 3);
        // S1(x1,x2) and S3(x3,x1) lose a position; S2(x2,x3) is intact.
        let total: usize = rq.atoms().iter().map(Atom::arity).sum();
        assert_eq!(total, 4);
        let (_, s1) = rq.atom_by_name("S1").unwrap();
        assert_eq!(s1.arity(), 1, "S1(x1,x2) becomes S1(x2)");
        // Fixing every variable leaves a pure filter.
        let all: BTreeSet<VarId> = q.var_ids().collect();
        assert!(residual_query(&q, &all).is_none());
    }

    #[test]
    fn greedy_shares_follow_weights_and_caps() {
        // Product S1(x0) × S2(x2) once x1 is pinned, |S2| ≫ |S1|: the
        // big relation's variable takes the servers.
        let q = families::chain(2);
        let pinned = |caps: [usize; 3]| move |v: VarId| caps[v.0];
        let shares =
            grow_shares(&q, &[4.0, 2000.0], 8, pinned([usize::MAX, 1, usize::MAX]), vec![1; 3]);
        assert_eq!(shares[1], 1, "a capped dimension stays put");
        assert!(shares[2] >= 4, "{shares:?}");
        assert!(shares.iter().product::<usize>() <= 8);
        // A cap below what the load would ask for is respected.
        let capped = grow_shares(&q, &[4.0, 2000.0], 8, pinned([usize::MAX, 1, 2]), vec![1; 3]);
        assert_eq!(capped[2], 2);
        // S1(x0,x1) fixes x0 and x1: 100 / (2·1) + 10 / (1·5).
        assert_eq!(cell_load(&q, &[100.0, 10.0], &[2, 1, 5]), 52.0);
    }
}
