//! Heavy-hitter detection for the one-round residual plans (Beame et al.
//! 2014, "Skew in Parallel Query Processing", Section 3).
//!
//! What a heavy value is, and the one comparison that decides it, live in
//! [`crate::heavy`]. This module adds the tuning that is on the wire
//! (`PlannerChoice::OneRoundSkewResilient { scale }`): a [`HeavyHitterPolicy`]
//! multiplies the `n_R / p_x` threshold, and a [`HeavyHitterDetector`]
//! applies it to collected [`DbStatistics`]. Detection is a statistics
//! pass — the resulting sets are baked into the routing function, which
//! therefore stays a pure function of the tuple as the tuple-based MPC
//! model requires.

use mpc_cq::Query;
use mpc_data::DbStatistics;

use crate::heavy::HeavyValues;
use crate::shares::ShareAllocation;
use crate::Result;

/// Tuning knobs of the detector.
#[derive(Debug, Clone, PartialEq)]
pub struct HeavyHitterPolicy {
    /// Multiplier on the `n_R / p_x` frequency threshold: values are heavy
    /// when their frequency exceeds `scale · n_R / p_x`. Values below 1
    /// detect more aggressively, values above 1 more conservatively.
    pub scale: f64,
}

impl Default for HeavyHitterPolicy {
    fn default() -> Self {
        HeavyHitterPolicy { scale: 1.0 }
    }
}

/// Classifies values as heavy per query variable.
#[derive(Debug, Clone, Default)]
pub struct HeavyHitterDetector {
    policy: HeavyHitterPolicy,
}

impl HeavyHitterDetector {
    /// A detector with the given policy.
    pub fn new(policy: HeavyHitterPolicy) -> Self {
        HeavyHitterDetector { policy }
    }

    /// Detect the heavy hitters of a database from its collected
    /// statistics, with respect to the share allocation `alloc` (normally
    /// [`ShareAllocation::optimal`] for the query): a value of variable
    /// `x` is heavy when its frequency in *some* column holding `x`
    /// exceeds `scale · n_R / p_x`. Variables with share 1 are skipped
    /// (hashing does not partition them), as are atoms whose relation the
    /// statistics do not cover. Analysis, detection and planning share one
    /// [`DbStatistics`] artefact instead of scanning the database once
    /// each.
    ///
    /// Exact statistics are one full scan. Sampled statistics cost
    /// `O(budget)` per relation instead of `O(n_R)`: frequencies are the
    /// scaled in-sample counts, so the detected set is a subset of the
    /// exact one up to the estimator's confidence slack
    /// ([`mpc_data::RelationStats::slack_for`]). A hitter the sample
    /// misses is *consistently* missed — the residual plans route its
    /// tuples through the light grid, which is slower, never wrong.
    ///
    /// ```
    /// use mpc_core::shares::ShareAllocation;
    /// use mpc_core::skew::HeavyHitterDetector;
    /// use mpc_data::{DbStatistics, StatsMode};
    ///
    /// let q = mpc_cq::families::chain(2);
    /// let db = mpc_data::skew::zipf_database(&q, 6000, 6000, 1.2, 5);
    /// let alloc = ShareAllocation::optimal(&q, 32).unwrap();
    ///
    /// // A 10% sample still catches the head of the Zipf distribution.
    /// let stats = DbStatistics::collect(&db, StatsMode::Sampled { budget: 600, seed: 42 });
    /// let heavy = HeavyHitterDetector::default().detect_from_stats(&q, &stats, &alloc).unwrap();
    /// assert!(heavy.is_heavy(q.var_id("x1").unwrap(), 1));
    /// ```
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` reserves room for statistics
    /// sources that can fail (sketches).
    pub fn detect_from_stats(
        &self,
        q: &Query,
        stats: &DbStatistics,
        alloc: &ShareAllocation,
    ) -> Result<HeavyValues> {
        Ok(HeavyValues::detect(q, stats, alloc, self.policy.scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_data::skew::{heavy_hitter_database, zipf_database};
    use mpc_data::StatsMode;
    use mpc_storage::Database;

    fn detect_with(q: &Query, db: &Database, p: usize, policy: HeavyHitterPolicy) -> HeavyValues {
        let alloc = ShareAllocation::optimal(q, p).unwrap();
        let stats = DbStatistics::collect(db, StatsMode::Exact);
        HeavyHitterDetector::new(policy).detect_from_stats(q, &stats, &alloc).unwrap()
    }

    fn detect(q: &Query, db: &Database, p: usize) -> HeavyValues {
        detect_with(q, db, p, HeavyHitterPolicy::default())
    }

    #[test]
    fn matchings_have_no_heavy_hitters() {
        let q = families::chain(2);
        let db = matching_database(&q, 2000, 5);
        let heavy = detect(&q, &db, 32);
        assert!(heavy.is_empty());
        assert_eq!(heavy.num_heavy_values(), 0);
    }

    #[test]
    fn heavy_hitter_value_is_found_on_the_join_variable() {
        let q = families::chain(2);
        let db = heavy_hitter_database(&q, 2000, 2000, 0.5, 7);
        let heavy = detect(&q, &db, 32);
        // Chain(2) puts the whole hypercube on x1 (S2's first column); the
        // generator plants value 1 there.
        let x1 = q.var_id("x1").unwrap();
        assert!(heavy.is_heavy(x1, 1));
        assert_eq!(heavy.heavy_vars(), vec![x1]);
        assert!(heavy.severity(x1) > 2.0, "value 1 holds half the relation");
        // x0 and x2 have share 1: skew there is invisible by design.
        assert!(!heavy.is_heavy(q.var_id("x0").unwrap(), 1));
    }

    #[test]
    fn zipf_heavy_values_are_a_prefix_of_the_key_space() {
        let q = families::chain(2);
        let db = zipf_database(&q, 6000, 6000, 1.2, 5);
        let heavy = detect(&q, &db, 32);
        let x1 = q.var_id("x1").unwrap();
        let values = heavy.of(x1);
        assert!(!values.is_empty(), "zipf(1.2) exceeds the n/32 threshold");
        assert!(values.len() < 20, "only the head of the distribution is heavy");
        assert!(values.contains(&1), "the most frequent key is heavy");
    }

    #[test]
    fn scale_controls_sensitivity() {
        let q = families::chain(2);
        let db = zipf_database(&q, 6000, 6000, 1.0, 5);
        let strict = detect_with(&q, &db, 32, HeavyHitterPolicy { scale: 4.0 });
        let lax = detect_with(&q, &db, 32, HeavyHitterPolicy { scale: 0.25 });
        assert!(lax.num_heavy_values() > strict.num_heavy_values());
    }

    #[test]
    fn restriction_drops_other_variables() {
        let q = families::cycle(3);
        let db = heavy_hitter_database(&q, 2000, 2000, 0.5, 3);
        let heavy = detect(&q, &db, 27);
        assert!(heavy.heavy_vars().len() >= 2, "every relation plants a heavy first column");
        let mut restricted = heavy.clone();
        for demoted in &heavy.heavy_vars()[1..] {
            restricted.demote(*demoted);
        }
        assert_eq!(restricted.heavy_vars(), vec![heavy.heavy_vars()[0]]);
    }

    #[test]
    fn missing_relations_are_skipped() {
        let q = families::chain(2);
        let db = Database::new(100);
        let heavy = detect(&q, &db, 16);
        assert!(heavy.is_empty());
    }

    /// The detector-agreement wall of the adaptive runtime: over a seeded
    /// loop of Zipf and planted heavy-hitter databases, the sampled heavy
    /// set must be a subset-with-bounded-misses of the exact one — every
    /// miss (and every extra) is *provably light-ish*, i.e. its true
    /// frequency sits within the sampling confidence slack of the
    /// threshold in every column that could have flagged it.
    #[test]
    fn sampled_heavy_set_is_subset_with_bounded_misses() {
        let q = families::chain(2);
        let p = 32;
        let budget = 900;
        for seed in 0..6u64 {
            for db in [
                zipf_database(&q, 6000, 6000, 1.1, seed),
                heavy_hitter_database(&q, 4000, 4000, 0.3, seed),
            ] {
                let alloc = ShareAllocation::optimal(&q, p).unwrap();
                let policy = HeavyHitterPolicy::default();
                let exact = detect(&q, &db, p);
                let counts = DbStatistics::collect(&db, StatsMode::Exact);
                let stats =
                    DbStatistics::collect(&db, StatsMode::Sampled { budget, seed: seed * 31 + 7 });
                let sampled =
                    HeavyHitterDetector::default().detect_from_stats(&q, &stats, &alloc).unwrap();

                // Every disagreement must be explained by the estimator's
                // slack in every (atom, column) that could flag the value.
                for atom in q.atoms() {
                    let Ok(rel) = db.relation(&atom.name) else { continue };
                    let truth = counts.relation(&atom.name).unwrap();
                    let rs = stats.relation(&atom.name).unwrap();
                    for (pos, var) in atom.vars.iter().enumerate() {
                        let share = alloc.share(*var);
                        if share <= 1 {
                            continue;
                        }
                        let threshold = crate::heavy::threshold(rel.len(), share, policy.scale);
                        for (value, truth_f) in truth.column_estimates(pos) {
                            let est = rs.estimate(pos, value);
                            let slack = rs.slack_for(truth_f.max(est));
                            let miss =
                                exact.is_heavy(*var, value) && !sampled.is_heavy(*var, value);
                            let extra =
                                sampled.is_heavy(*var, value) && !exact.is_heavy(*var, value);
                            if miss && truth_f > threshold {
                                assert!(
                                    truth_f <= threshold + slack,
                                    "seed {seed}: missed hitter {value} of {} col {pos} has \
                                     frequency {truth_f} ≫ threshold {threshold} + slack {slack}",
                                    atom.name
                                );
                            }
                            if extra && est > threshold {
                                assert!(
                                    truth_f + slack > threshold,
                                    "seed {seed}: spurious hitter {value} of {} col {pos} is \
                                     truly light: {truth_f} ≤ {threshold} − slack {slack}",
                                    atom.name
                                );
                            }
                        }
                    }
                }

                // And the planted hitter itself (half / a third of the
                // relation) is far above the slack envelope: it is NEVER
                // missed.
                let x1 = q.var_id("x1").unwrap();
                if exact.is_heavy(x1, 1) && exact.severity(x1) > 4.0 {
                    assert!(
                        sampled.is_heavy(x1, 1),
                        "seed {seed}: a dominant hitter must survive sampling"
                    );
                }
            }
        }
    }
}
