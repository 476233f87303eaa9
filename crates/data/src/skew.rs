//! Skewed data generators.
//!
//! The HyperCube load guarantees of Proposition 3.2 are stated for matching
//! databases — skew-free inputs in which every attribute is a key. Real
//! data has heavy hitters; the skew ablation (claim E7 in README.md, `exp E7`)
//! compares per-server loads on these skewed inputs against matchings.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use mpc_cq::Query;
use mpc_storage::{Database, Relation};

/// Sample `count` binary tuples whose *first* attribute follows a Zipf
/// distribution with exponent `theta` over `[n]` and whose second attribute
/// is uniform over `[n]`. `theta = 0` is uniform; larger values concentrate
/// mass on small keys.
pub(crate) fn zipf_relation(
    name: &str,
    n: u64,
    count: usize,
    theta: f64,
    rng: &mut StdRng,
) -> Relation {
    assert!(n >= 1);
    // Precompute the Zipf CDF.
    let weights: Vec<f64> = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(n as usize);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }

    let mut rel = Relation::empty(name, 2);
    let mut inserted = 0usize;
    let mut attempts = 0usize;
    // Rejection on duplicates: cap attempts so adversarial parameters
    // (count close to n²) still terminate.
    while inserted < count && attempts < count * 20 {
        attempts += 1;
        let u: f64 = rng.gen();
        let x = match cdf.binary_search_by(|c| c.partial_cmp(&u).expect("no NaN in CDF")) {
            Ok(i) => i as u64 + 1,
            Err(i) => (i as u64 + 1).min(n),
        };
        let y = rng.gen_range(1..=n);
        if rel.insert_row(&[x, y]).expect("arity 2 by construction") {
            inserted += 1;
        }
    }
    rel
}

/// A binary relation with a single heavy hitter: a fraction `heavy_frac` of
/// the `count` tuples share the same first-attribute value `1`; the rest is
/// a matching-like diagonal. This is the canonical worst case for hash
/// partitioning on the first attribute.
pub fn heavy_hitter_relation(
    name: &str,
    n: u64,
    count: usize,
    heavy_frac: f64,
    rng: &mut StdRng,
) -> Relation {
    assert!((0.0..=1.0).contains(&heavy_frac));
    let heavy = ((count as f64) * heavy_frac).round() as usize;
    let mut rel = Relation::empty(name, 2);
    let mut y = 0u64;
    while (rel.len()) < heavy && y < n {
        y += 1;
        rel.insert_row(&[1, y]).expect("arity 2 by construction");
    }
    while rel.len() < count {
        let x = rng.gen_range(1..=n);
        let y = rng.gen_range(1..=n);
        rel.insert_row(&[x, y]).expect("arity 2 by construction");
    }
    rel
}

/// A database for a binary-relation query in which every relation is
/// Zipf-skewed with the given exponent. Non-binary atoms are rejected.
///
/// # Panics
///
/// Panics if the query contains a non-binary atom (the skew generators are
/// only defined for binary relations).
pub fn zipf_database(
    q: &Query,
    n: u64,
    tuples_per_relation: usize,
    theta: f64,
    seed: u64,
) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new(n);
    for atom in q.atoms() {
        assert_eq!(atom.arity(), 2, "zipf_database only supports binary atoms");
        db.insert_relation(zipf_relation(&atom.name, n, tuples_per_relation, theta, &mut rng));
    }
    db
}

/// A database for a binary-relation query in which every relation is a
/// [`heavy_hitter_relation`] with the given heavy fraction: the canonical
/// adversarial input for hash partitioning. Non-binary atoms are rejected.
///
/// # Panics
///
/// Panics if the query contains a non-binary atom (the skew generators are
/// only defined for binary relations).
pub fn heavy_hitter_database(
    q: &Query,
    n: u64,
    tuples_per_relation: usize,
    heavy_frac: f64,
    seed: u64,
) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new(n);
    for atom in q.atoms() {
        assert_eq!(atom.arity(), 2, "heavy_hitter_database only supports binary atoms");
        db.insert_relation(heavy_hitter_relation(
            &atom.name,
            n,
            tuples_per_relation,
            heavy_frac,
            &mut rng,
        ));
    }
    db
}

/// A binary relation with **exactly controlled skew**: `heavy_keys`
/// distinct first-attribute values each occur in exactly `degree` tuples;
/// the remainder of the `count` tuples is a light filler whose
/// first-attribute values are drawn above the heavy range (so no light
/// tuple accidentally raises a heavy key's degree). Unlike
/// [`heavy_hitter_relation`] (whose planted degree is silently capped at
/// `n`), this generator panics when the request is unsatisfiable — the
/// property suite uses it to place degrees exactly on either side of the
/// WCO heavy threshold `deg · share > |R|`.
///
/// Heavy keys are `1..=heavy_keys`; their partner values enumerate
/// `1..=degree`. Light tuples draw both attributes uniformly from
/// `heavy_keys+1..=n`.
///
/// # Panics
///
/// Panics when `degree > n`, when `heavy_keys · degree > count`, or when
/// the light filler has no room (`n ≤ heavy_keys` with light tuples
/// required, or more light tuples than the remaining domain square).
pub fn degree_planted_relation(
    name: &str,
    n: u64,
    count: usize,
    heavy_keys: u64,
    degree: usize,
    rng: &mut StdRng,
) -> Relation {
    assert!(degree as u64 <= n, "degree {degree} exceeds the domain size {n}");
    let heavy_total =
        (heavy_keys as usize).checked_mul(degree).expect("heavy tuple count fits in usize");
    assert!(
        heavy_total <= count,
        "{heavy_keys} keys of degree {degree} need {heavy_total} tuples, only {count} requested"
    );
    let light = count - heavy_total;
    if light > 0 {
        let light_domain = n.saturating_sub(heavy_keys);
        assert!(
            (light as u64) <= light_domain.saturating_mul(light_domain),
            "cannot fit {light} distinct light tuples above the heavy range"
        );
    }
    let mut rel = Relation::empty(name, 2);
    for x in 1..=heavy_keys {
        for y in 1..=degree as u64 {
            rel.insert_row(&[x, y]).expect("arity 2 by construction");
        }
    }
    while rel.len() < count {
        let x = rng.gen_range(heavy_keys + 1..=n);
        let y = rng.gen_range(heavy_keys + 1..=n);
        rel.insert_row(&[x, y]).expect("arity 2 by construction");
    }
    rel
}

/// A database for a binary-relation query in which every relation is a
/// [`degree_planted_relation`] with the same parameters — the shared heavy
/// keys `1..=heavy_keys` join across relations, closing cyclic queries
/// through the heavy side deterministically. Non-binary atoms are
/// rejected.
///
/// # Panics
///
/// Panics if the query contains a non-binary atom, or when the per-relation
/// construction is unsatisfiable (see [`degree_planted_relation`]).
pub fn degree_planted_database(
    q: &Query,
    n: u64,
    tuples_per_relation: usize,
    heavy_keys: u64,
    degree: usize,
    seed: u64,
) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new(n);
    for atom in q.atoms() {
        assert_eq!(atom.arity(), 2, "degree_planted_database only supports binary atoms");
        db.insert_relation(degree_planted_relation(
            &atom.name,
            n,
            tuples_per_relation,
            heavy_keys,
            degree,
            &mut rng,
        ));
    }
    db
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use mpc_cq::families;

    /// Exact frequency histograms of **every** column of a relation, one
    /// `BTreeMap` entry per distinct value, built in a single scan: the
    /// independent oracle the sorted counts of [`crate::stats`] are compared
    /// against.
    pub(crate) fn frequency_histograms(rel: &Relation) -> Vec<BTreeMap<u64, usize>> {
        let mut columns: Vec<BTreeMap<u64, usize>> = vec![BTreeMap::new(); rel.arity()];
        for t in rel.iter() {
            for (idx, value) in t.iter().enumerate() {
                *columns[idx].entry(*value).or_insert(0usize) += 1;
            }
        }
        columns
    }

    /// Measure the *skew* of one column of a relation: the ratio between the
    /// most frequent value's count and the mean count over the values that
    /// actually **occur** in that column (not over the whole domain `[n]`), so
    /// a relation whose column support is tiny but uniform still reports 1.
    /// A matching has skew exactly 1 in every column; the empty relation
    /// reports 1 by convention.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the relation's arity (and the
    /// relation is non-empty).
    pub(crate) fn attribute_skew(rel: &Relation, idx: usize) -> f64 {
        if rel.is_empty() {
            return 1.0;
        }
        let counts = crate::stats::column_counts(rel, idx, &mut Vec::new());
        let avg = rel.len() as f64 / counts.runs.len() as f64;
        counts.max as f64 / avg
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let rel = zipf_relation("S", 1000, 2000, 0.0, &mut rng);
        assert!(rel.len() >= 1900, "rejection sampling should find enough tuples");
        assert!(attribute_skew(&rel, 0) < 4.0);
    }

    #[test]
    fn zipf_large_theta_is_skewed() {
        let mut rng = StdRng::seed_from_u64(3);
        let uniform = zipf_relation("U", 1000, 2000, 0.0, &mut rng);
        let skewed = zipf_relation("Z", 1000, 2000, 1.5, &mut rng);
        assert!(
            attribute_skew(&skewed, 0) > 2.0 * attribute_skew(&uniform, 0),
            "zipf(1.5) should be much more skewed than uniform"
        );
    }

    #[test]
    fn heavy_hitter_concentration() {
        let mut rng = StdRng::seed_from_u64(9);
        let rel = heavy_hitter_relation("H", 10_000, 1000, 0.5, &mut rng);
        assert_eq!(rel.len(), 1000);
        let ones = rel.iter().filter(|t| t[0] == 1).count();
        assert!(ones >= 450, "about half the tuples share the heavy key, got {ones}");
        assert!(attribute_skew(&rel, 0) > 50.0);
    }

    #[test]
    fn zipf_database_is_deterministic() {
        let q = families::cycle(3);
        let a = zipf_database(&q, 500, 800, 1.0, 7);
        let b = zipf_database(&q, 500, 800, 1.0, 7);
        assert_eq!(a, b);
        assert_eq!(a.relations().count(), 3);
    }

    #[test]
    fn matching_has_unit_skew() {
        let mut rng = StdRng::seed_from_u64(5);
        let rel = crate::matching::matching_relation("S", 2, 100, &mut rng);
        assert!((attribute_skew(&rel, 0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_relation_skew_is_one() {
        let rel = Relation::empty("E", 2);
        assert_eq!(attribute_skew(&rel, 0), 1.0);
        assert_eq!(attribute_skew(&rel, 1), 1.0);
    }

    #[test]
    fn frequency_histogram_counts_exactly() {
        let rel = Relation::from_tuples("R", 2, vec![[1u64, 7], [1, 8], [2, 7]]).unwrap();
        let [col0, col1] = &frequency_histograms(&rel)[..] else { panic!("two columns") };
        assert_eq!(col0.get(&1), Some(&2));
        assert_eq!(col0.get(&2), Some(&1));
        assert_eq!(col1.get(&7), Some(&2));
        assert_eq!(col1.len(), 2);
    }

    #[test]
    fn one_pass_histograms_agree_with_per_column() {
        let mut rng = StdRng::seed_from_u64(17);
        let rel = zipf_relation("Z", 500, 900, 1.1, &mut rng);
        let all = frequency_histograms(&rel);
        assert_eq!(all.len(), 2);
        let mut scratch = Vec::new();
        for (idx, histogram) in all.iter().enumerate() {
            let sorted = crate::stats::column_counts(&rel, idx, &mut scratch).runs;
            let oracle: Vec<(u64, u64)> = histogram.iter().map(|(v, c)| (*v, *c as u64)).collect();
            assert_eq!(sorted, oracle, "column {idx}");
        }
        assert!(frequency_histograms(&Relation::empty("E", 3)).iter().all(BTreeMap::is_empty));
    }

    #[test]
    fn attribute_skew_covers_any_column() {
        let mut rng = StdRng::seed_from_u64(9);
        let rel = heavy_hitter_relation("H", 10_000, 1000, 0.5, &mut rng);
        // The first column carries the heavy hitter; the second is (near-)
        // uniform, so its skew is far smaller.
        assert!(attribute_skew(&rel, 0) > 10.0 * attribute_skew(&rel, 1));
        let hist = &frequency_histograms(&rel)[0];
        let max = *hist.values().max().unwrap() as f64;
        assert_eq!(attribute_skew(&rel, 0), max / (rel.len() as f64 / hist.len() as f64));
    }

    #[test]
    fn degree_planted_relation_has_exact_degrees() {
        let mut rng = StdRng::seed_from_u64(21);
        let rel = degree_planted_relation("D", 5000, 2000, 3, 400, &mut rng);
        assert_eq!(rel.len(), 2000);
        let hist = &frequency_histograms(&rel)[0];
        for key in 1..=3u64 {
            assert_eq!(hist.get(&key), Some(&400), "heavy key {key} has exact degree");
        }
        // Light values never collide with the heavy range.
        for (value, count) in hist {
            if *value > 3 {
                assert!(*count < 400, "light value {value} stayed light ({count})");
            }
        }
    }

    #[test]
    fn degree_planted_database_closes_cyclic_answers() {
        // The shared heavy keys join across relations, so a triangle over
        // the planted database has at least the all-heavy answers.
        let q = families::triangle();
        let db = degree_planted_database(&q, 4000, 1500, 2, 300, 31);
        let out = mpc_storage::join::evaluate(&q, &db).unwrap();
        assert!(!out.is_empty(), "heavy keys close triangles");
        let a = degree_planted_database(&q, 4000, 1500, 2, 300, 31);
        assert_eq!(db, a, "deterministic per seed");
    }

    #[test]
    #[should_panic(expected = "only 100 requested")]
    fn degree_planted_rejects_overfull_requests() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = degree_planted_relation("D", 1000, 100, 10, 50, &mut rng);
    }

    #[test]
    fn heavy_hitter_database_is_deterministic_and_skewed() {
        let q = families::chain(2);
        let a = heavy_hitter_database(&q, 2000, 1500, 0.4, 11);
        let b = heavy_hitter_database(&q, 2000, 1500, 0.4, 11);
        assert_eq!(a, b);
        assert_eq!(a.relations().count(), 2);
        for rel in a.relations() {
            assert!(attribute_skew(rel, 0) > 10.0, "every relation carries a heavy hitter");
        }
    }
}
