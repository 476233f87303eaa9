//! Database statistics behind one switch: **exact** sorted per-column
//! counts or **seeded sub-linear samples** of them.
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
//! Either way a column is counted by sorting: it is copied into one
//! reused buffer, sorted and run-length encoded into `(value, count)`
//! pairs in ascending value order — `O(n log n)` per column for `n`
//! counted rows, with the column maximum recorded on the way.
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
    /// Full scans: counts are exact, collection cost is `O(n log n)` per
    /// column of an `n`-tuple relation.
    #[default]
    Exact,
    /// Seeded uniform samples: `budget` tuples per relation, collection
    /// cost `O(budget log budget)` per column, estimates within the slack of
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

/// One column's sorted run-length counts.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnCounts {
    /// Every distinct value with its raw count, in ascending value order.
    pub(crate) runs: Vec<(Value, u64)>,
    /// The largest count (0 for an empty column).
    pub(crate) max: u64,
}

/// Count column `col` of `rel` by sorting: copy it into `scratch` (reused
/// across columns), sort it, and run-length encode it — `O(n log n)`.
///
/// # Panics
///
/// Panics if `col` is out of range for the relation's arity (and the
/// relation is non-empty).
pub(crate) fn column_counts(rel: &Relation, col: usize, scratch: &mut Vec<Value>) -> ColumnCounts {
    scratch.clear();
    scratch.extend(rel.iter().map(|row| row[col]));
    scratch.sort_unstable();
    let mut counts = ColumnCounts::default();
    for run in scratch.chunk_by(|a, b| a == b) {
        let count = run.len() as u64;
        counts.max = counts.max.max(count);
        counts.runs.push((run[0], count));
    }
    counts
}

/// [`column_counts`] of every column of `rel`, through one scratch buffer.
fn count_columns(rel: &Relation) -> Vec<ColumnCounts> {
    let mut scratch = Vec::with_capacity(rel.len());
    (0..rel.arity()).map(|col| column_counts(rel, col, &mut scratch)).collect()
}

/// The collected statistics of one relation: per-column sorted counts
/// (exact, or raw in-sample counts plus the scale factor) and, in sampled
/// mode, the drawn tuples themselves (so pattern-level statistics can be
/// estimated from the same sample without touching the relation again).
#[derive(Debug, Clone)]
pub struct RelationStats {
    total: usize,
    /// Raw per-column counts: exact when `sample` is `None`, in-sample
    /// otherwise.
    columns: Vec<ColumnCounts>,
    /// The sampled rows (`None` = exact statistics).
    sample: Option<Relation>,
    scanned: usize,
}

impl RelationStats {
    /// Exact statistics: one sorted count per column.
    pub fn exact(rel: &Relation) -> Self {
        RelationStats {
            total: rel.len(),
            columns: count_columns(rel),
            sample: None,
            scanned: rel.len(),
        }
    }

    /// Sampled statistics: `budget` tuples drawn uniformly without
    /// replacement (partial Fisher–Yates over the index space, so the
    /// cost is `O(budget)` regardless of `rel.len()`). A budget at or
    /// above the relation size yields the exact statistics.
    pub fn sampled(rel: &Relation, budget: usize, seed: u64) -> Self {
        let m = budget.min(rel.len());
        if m == rel.len() {
            return Self::exact(rel);
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
        RelationStats {
            total: rel.len(),
            columns: count_columns(&sample),
            sample: Some(sample),
            scanned: m,
        }
    }

    /// True cardinality of the relation (always exact — `len()` is O(1)).
    pub fn total(&self) -> usize {
        self.total
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
        let count = self.columns.get(col).and_then(|c| {
            c.runs.binary_search_by_key(&value, |&(v, _)| v).ok().map(|i| c.runs[i].1)
        });
        count.unwrap_or(0) as f64 * self.scale()
    }

    /// The largest estimated frequency in column `col` — the maximum of
    /// [`RelationStats::column_estimates`], recorded while counting (0 for
    /// an empty or missing column).
    pub fn max_estimate(&self, col: usize) -> f64 {
        self.columns.get(col).map_or(0, |c| c.max) as f64 * self.scale()
    }

    /// Iterate the values observed in column `col`, in ascending order,
    /// with their estimated frequencies. In sampled mode only in-sample
    /// values appear — exactly the property that makes a missed hitter
    /// *consistently* light everywhere.
    pub fn column_estimates(&self, col: usize) -> impl Iterator<Item = (Value, f64)> + '_ {
        let scale = self.scale();
        self.columns
            .get(col)
            .into_iter()
            .flat_map(move |c| c.runs.iter().map(move |&(v, n)| (v, n as f64 * scale)))
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
            let hist = crate::skew::tests::frequency_histograms(rel);
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
            assert!(ra.sample().is_some());
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
        assert!(stats.is_sampled(), "the mode is still sampled…");
        for rel in db.relations() {
            let rs = stats.relation(rel.name()).unwrap();
            assert!(rs.sample().is_none(), "…but the relation is counted, not copied");
            assert_eq!(rs.scale(), 1.0);
            assert_eq!(rs.slack_for(10.0), 0.0);
            assert_eq!(rs.scanned(), rel.len());
        }
    }

    /// The binary relation `rows` reshaped to `arity` columns: each row
    /// `(x, y)` becomes `[x, y, x + y][..arity]`, so narrowing merges
    /// rows and the third column repeats values across rows.
    fn reshaped(rows: &Relation, arity: usize) -> Relation {
        let wide = rows.iter().map(|t| [t[0], t[1], t[0] + t[1]][..arity].to_vec());
        Relation::from_tuples("R", arity, wide).unwrap()
    }

    /// `rs` against the `BTreeMap` oracle over the rows it counted (the
    /// sample, or `rel` itself), entry for entry and in the same order.
    fn assert_counts_match_oracle(rel: &Relation, rs: &RelationStats) {
        let (counted, scale) = rs.sample().unwrap_or((rel, 1.0));
        for (col, hist) in crate::skew::tests::frequency_histograms(counted).iter().enumerate() {
            let expected: Vec<(Value, f64)> =
                hist.iter().map(|(v, c)| (*v, *c as f64 * scale)).collect();
            assert_eq!(rs.column_estimates(col).collect::<Vec<_>>(), expected, "column {col}");
            for &(v, est) in &expected {
                assert_eq!(rs.estimate(col, v), est);
            }
            // Generated values start at 1; the other probe sits in the
            // first gap above an occurring value.
            let gap = hist.keys().map(|v| v + 1).find(|v| !hist.contains_key(v));
            for absent in [Some(0), gap].into_iter().flatten() {
                assert_eq!(rs.estimate(col, absent), 0.0, "column {col}, value {absent}");
            }
            let max = hist.values().max().copied().unwrap_or(0);
            assert_eq!(rs.max_estimate(col), max as f64 * scale, "column {col}");
        }
        assert_eq!(rs.column_estimates(rel.arity()).count(), 0);
        assert_eq!(rs.max_estimate(rel.arity()), 0.0);
    }

    #[test]
    fn sorted_counts_equal_the_histogram_oracle() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let bases = [
                Relation::empty("R", 2),
                Relation::from_tuples("R", 2, [[7u64, 7]]).unwrap(),
                crate::skew::zipf_relation("R", 300, 600, 1.1, &mut rng),
                crate::skew::degree_planted_relation("R", 2000, 600, 2, 150, &mut rng),
            ];
            for base in &bases {
                for arity in 0..=3 {
                    let rel = reshaped(base, arity);
                    assert_counts_match_oracle(&rel, &RelationStats::exact(&rel));
                    for budget in [0, rel.len() / 3, rel.len()] {
                        let rs = RelationStats::sampled(&rel, budget, seed);
                        assert_eq!(rs.scanned(), budget);
                        assert_counts_match_oracle(&rel, &rs);
                    }
                }
            }
        }
    }
}
