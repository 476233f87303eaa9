//! Database statistics behind one switch: **exact** frequency histograms
//! or **seeded sub-linear samples** of them.
//!
//! Every planner in this workspace — the HyperCube skew detector, the
//! residual plans of `mpc-core::skew`, the heavy/light split of
//! `mpc-core::wco` — consumes the same two statistics: per-column value
//! frequencies and per-relation cardinalities. [`DbStatistics::collect`]
//! computes them once, under a [`StatsMode`] chosen by the caller:
//!
//! * [`StatsMode::Exact`] scans every tuple once per relation (the
//!   behaviour all planners had before the adaptive runtime); counts are
//!   true and the confidence slack ([`RelationStats::slack_for`]) is zero.
//! * [`StatsMode::Sampled`] draws a seeded uniform sample of `budget`
//!   tuples per relation **without replacement** (a partial Fisher–Yates
//!   over the index space, `O(budget)` time and memory) and scales the
//!   in-sample counts by `n / budget`. Planning cost becomes sub-linear
//!   in `n`; estimates carry the confidence slack of
//!   [`RelationStats::slack_for`].
//!
//! Sampling can only degrade plan *quality*, never *correctness*: a
//! heavy value the sample misses is treated as light by **every**
//! consumer of the same statistics, so routing stays self-consistent and
//! the computed output is unchanged (the property walls in `mpc-core::skew`
//! and `tests/` pin this).
//!
//! [`DbStatistics::scanned_tuples`] reports how many tuples the
//! collection actually visited — the deterministic cost metric the
//! `exp_adaptive_runtime` experiment uses to demonstrate sub-linear
//! planning (wall clocks are reported too, but the gate is on scans).

use std::collections::{BTreeMap, HashMap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mpc_storage::{Database, Relation, Value};

/// How planners obtain their statistics: one full scan, or a seeded
/// sub-linear sample.
///
/// The default is [`StatsMode::Exact`]; switch to [`StatsMode::Sampled`]
/// when the scan itself is the bottleneck (long-running services planning
/// against large, already-loaded inputs).
///
/// ```
/// use mpc_data::stats::{DbStatistics, StatsMode};
///
/// let q = mpc_cq::families::chain(2);
/// let db = mpc_data::skew::zipf_database(&q, 4000, 4000, 1.2, 7);
///
/// // Exact statistics visit every tuple of every relation…
/// let exact = DbStatistics::collect(&db, StatsMode::Exact);
/// assert_eq!(exact.scanned_tuples(), 8000);
///
/// // …a sampled collection visits only `budget` tuples per relation,
/// // and still finds the head of the Zipf distribution.
/// let sampled = DbStatistics::collect(&db, StatsMode::Sampled { budget: 400, seed: 1 });
/// assert_eq!(sampled.scanned_tuples(), 800);
/// let s1 = sampled.relation("S1").unwrap();
/// assert!(s1.estimate(0, 1) > s1.total() as f64 / 100.0, "the top key is visible");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StatsMode {
    /// Full scans: counts are exact, collection cost is `O(Σ n_R)`.
    #[default]
    Exact,
    /// Seeded uniform samples: `budget` tuples per relation, collection
    /// cost `O(budget · #relations)`, estimates within the slack of
    /// [`RelationStats::slack_for`] with high probability.
    Sampled {
        /// Tuples drawn per relation (capped at the relation size).
        budget: usize,
        /// Seed of the per-relation sampling RNG (decorrelated per
        /// relation by hashing the relation name into the seed).
        seed: u64,
    },
}

impl StatsMode {
    /// True for [`StatsMode::Sampled`].
    pub fn is_sampled(&self) -> bool {
        matches!(self, StatsMode::Sampled { .. })
    }
}

/// The collected statistics of one relation: per-column frequency counts
/// (exact, or raw in-sample counts plus the scale factor) and, in sampled
/// mode, the drawn tuples themselves (so pattern-level statistics can be
/// estimated from the same sample without touching the relation again).
#[derive(Debug, Clone)]
pub struct RelationStats {
    total: usize,
    /// Raw per-column counts: exact when `sample` is `None`, in-sample
    /// otherwise.
    columns: Vec<BTreeMap<Value, u64>>,
    /// The sampled rows (`None` = exact statistics).
    sample: Option<Relation>,
    scanned: usize,
}

impl RelationStats {
    /// Exact statistics: one full scan building every column histogram.
    pub fn exact(rel: &Relation) -> Self {
        let columns = crate::skew::frequency_histograms(rel)
            .into_iter()
            .map(|h| h.into_iter().map(|(v, c)| (v, c as u64)).collect())
            .collect();
        RelationStats { total: rel.len(), columns, sample: None, scanned: rel.len() }
    }

    /// Sampled statistics: `budget` tuples drawn uniformly without
    /// replacement (partial Fisher–Yates over the index space, so the
    /// cost is `O(budget)` regardless of `rel.len()`).
    pub fn sampled(rel: &Relation, budget: usize, seed: u64) -> Self {
        let m = budget.min(rel.len());
        if m == rel.len() {
            // A budget at or above the relation size is a full scan.
            return RelationStats { sample: Some(rel.clone()), ..Self::exact(rel) };
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut swapped: HashMap<usize, usize> = HashMap::new();
        let mut sample = Relation::empty(rel.name(), rel.arity());
        sample.reserve(m);
        for i in 0..m {
            let j = rng.gen_range(i..rel.len());
            let vi = *swapped.get(&i).unwrap_or(&i);
            let vj = *swapped.get(&j).unwrap_or(&j);
            swapped.insert(j, vi);
            sample.insert_row(rel.row(vj)).expect("a row of the sampled relation");
        }
        let mut columns: Vec<BTreeMap<Value, u64>> = vec![BTreeMap::new(); rel.arity()];
        for t in sample.iter() {
            for (idx, value) in t.iter().enumerate() {
                *columns[idx].entry(*value).or_insert(0) += 1;
            }
        }
        RelationStats { total: rel.len(), columns, sample: Some(sample), scanned: m }
    }

    /// True cardinality of the relation (always exact — `len()` is O(1)).
    pub fn total(&self) -> usize {
        self.total
    }

    /// True when these statistics come from a sample.
    pub fn is_sampled(&self) -> bool {
        self.sample.is_some()
    }

    /// Tuples visited to build these statistics.
    pub fn scanned(&self) -> usize {
        self.scanned
    }

    /// The factor raw in-sample counts are scaled by (`1.0` for exact).
    pub fn scale(&self) -> f64 {
        match &self.sample {
            Some(s) if !s.is_empty() => self.total as f64 / s.len() as f64,
            _ => 1.0,
        }
    }

    /// Estimated frequency of `value` in column `col`: the exact count,
    /// or the scaled in-sample count.
    pub fn estimate(&self, col: usize, value: Value) -> f64 {
        self.columns.get(col).and_then(|h| h.get(&value)).copied().unwrap_or(0) as f64
            * self.scale()
    }

    /// Iterate the values observed in column `col` with their estimated
    /// frequencies. In sampled mode only in-sample values appear —
    /// exactly the property that makes a missed hitter *consistently*
    /// light everywhere.
    pub fn column_estimates(&self, col: usize) -> impl Iterator<Item = (Value, f64)> + '_ {
        let scale = self.scale();
        self.columns
            .get(col)
            .into_iter()
            .flat_map(move |h| h.iter().map(move |(v, c)| (*v, *c as f64 * scale)))
    }

    /// The sampled rows with their per-row weight (`None` = exact
    /// statistics; iterate the relation itself with weight 1).
    pub fn sample(&self) -> Option<(&Relation, f64)> {
        self.sample.as_ref().map(|s| (s, self.scale()))
    }

    /// High-probability additive slack of an estimate around `estimated`:
    /// `3·σ` of the binomial estimator, `3·√(estimated · n / m)` (zero
    /// for exact statistics). An exact frequency `f` and its estimate
    /// differ by more than `slack_for(max(f, estimate))` only with
    /// probability `< 10⁻²` per value; the detector agreement tests in
    /// `mpc-core::skew` assert exactly this envelope.
    pub fn slack_for(&self, estimated: f64) -> f64 {
        match &self.sample {
            Some(s) if !s.is_empty() && s.len() < self.total => {
                3.0 * (estimated.max(self.scale()) * self.scale()).sqrt()
            }
            _ => 0.0,
        }
    }
}

/// Statistics for a whole database under one [`StatsMode`]: the single
/// artefact planners share so analysis, skew detection and WCO planning
/// cost **one** scan (or one sample) between them.
#[derive(Debug, Clone)]
pub struct DbStatistics {
    mode: StatsMode,
    relations: BTreeMap<String, RelationStats>,
}

impl DbStatistics {
    /// Collect statistics for every relation of `db`.
    pub fn collect(db: &Database, mode: StatsMode) -> Self {
        let relations = db
            .relations()
            .map(|rel| {
                let stats = match mode {
                    StatsMode::Exact => RelationStats::exact(rel),
                    StatsMode::Sampled { budget, seed } => {
                        RelationStats::sampled(rel, budget, seed ^ fnv1a(rel.name()))
                    }
                };
                (rel.name().to_string(), stats)
            })
            .collect();
        DbStatistics { mode, relations }
    }

    /// The mode these statistics were collected under.
    pub fn mode(&self) -> StatsMode {
        self.mode
    }

    /// True when collected under [`StatsMode::Sampled`].
    pub fn is_sampled(&self) -> bool {
        self.mode.is_sampled()
    }

    /// The statistics of one relation.
    pub fn relation(&self, name: &str) -> Option<&RelationStats> {
        self.relations.get(name)
    }

    /// Total tuples visited across all relations — the deterministic
    /// planning-cost metric (`Σ n_R` exact, `Σ min(budget, n_R)` sampled).
    pub fn scanned_tuples(&self) -> usize {
        self.relations.values().map(RelationStats::scanned).sum()
    }
}

/// FNV-1a over a name, used to decorrelate per-relation sampling seeds.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;

    fn zipf_db(n: u64, seed: u64) -> Database {
        crate::skew::zipf_database(&families::chain(2), n, n as usize, 1.2, seed)
    }

    #[test]
    fn exact_statistics_match_histograms() {
        let db = zipf_db(2000, 3);
        let stats = DbStatistics::collect(&db, StatsMode::Exact);
        assert!(!stats.is_sampled());
        for rel in db.relations() {
            let rs = stats.relation(rel.name()).unwrap();
            assert_eq!(rs.total(), rel.len());
            assert_eq!(rs.scale(), 1.0);
            assert_eq!(rs.slack_for(100.0), 0.0);
            let hist = crate::skew::frequency_histograms(rel);
            for (col, h) in hist.iter().enumerate() {
                for (v, c) in h {
                    assert_eq!(rs.estimate(col, *v), *c as f64);
                }
            }
        }
        assert_eq!(stats.scanned_tuples(), db.relations().map(Relation::len).sum::<usize>());
    }

    #[test]
    fn sampling_is_sublinear_and_deterministic() {
        let db = zipf_db(4000, 9);
        let mode = StatsMode::Sampled { budget: 300, seed: 11 };
        let a = DbStatistics::collect(&db, mode);
        let b = DbStatistics::collect(&db, mode);
        assert_eq!(a.scanned_tuples(), 600);
        for rel in db.relations() {
            let ra = a.relation(rel.name()).unwrap();
            let rb = b.relation(rel.name()).unwrap();
            assert!(ra.is_sampled());
            assert_eq!(ra.sample().unwrap().0, rb.sample().unwrap().0, "same seed, same sample");
            // The sample has no duplicate indices: a draw with replacement
            // would have lost rows to the sample relation's deduplication.
            let (tuples, scale) = ra.sample().unwrap();
            assert_eq!(tuples.len(), 300, "sampling is without replacement");
            assert!(tuples.iter().all(|t| rel.contains(t)));
            assert!((scale - rel.len() as f64 / tuples.len() as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn sampled_estimates_are_close_for_heavy_values() {
        let db = zipf_db(6000, 5);
        let exact = DbStatistics::collect(&db, StatsMode::Exact);
        let sampled = DbStatistics::collect(&db, StatsMode::Sampled { budget: 1200, seed: 2 });
        for rel in db.relations() {
            let e = exact.relation(rel.name()).unwrap();
            let s = sampled.relation(rel.name()).unwrap();
            // The head of the Zipf distribution is estimated within slack.
            for value in 1..=3u64 {
                let truth = e.estimate(0, value);
                let est = s.estimate(0, value);
                assert!(
                    (truth - est).abs() <= s.slack_for(truth.max(est)),
                    "{}: value {value} true {truth} est {est} slack {}",
                    rel.name(),
                    s.slack_for(truth.max(est))
                );
            }
        }
    }

    #[test]
    fn oversized_budget_degenerates_to_exact_counts() {
        let db = zipf_db(500, 1);
        let stats = DbStatistics::collect(&db, StatsMode::Sampled { budget: 100_000, seed: 4 });
        for rel in db.relations() {
            let rs = stats.relation(rel.name()).unwrap();
            assert!(rs.is_sampled(), "mode is still sampled…");
            assert_eq!(rs.scale(), 1.0, "…but the scale is 1: the sample is the relation");
            assert_eq!(rs.slack_for(10.0), 0.0);
        }
    }
}
