//! Matching databases (Section 2.5 of the paper).
//!
//! A relation of arity `a` is an *`a`-dimensional matching* over `[n]` when
//! it has exactly `n` tuples and each of its columns contains every value
//! `1, …, n` exactly once (every attribute is a key). A *matching database*
//! instantiates every relation of a query with an independent uniformly
//! random matching. These inputs have no skew, and the paper's one-round
//! bound is tight over them.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use mpc_cq::Query;
use mpc_storage::{Database, Relation};

/// Generate a uniformly random `arity`-dimensional matching over `[n]`.
///
/// The first column is the identity `1..=n`; the remaining columns are
/// independent uniformly random permutations, matching the paper's
/// distribution up to relabelling of tuples (the *set* of tuples is what
/// matters and its distribution is exactly uniform over `a`-dimensional
/// matchings).
pub(crate) fn matching_relation(name: &str, arity: usize, n: u64, rng: &mut StdRng) -> Relation {
    assert!(arity >= 1, "relations must have arity >= 1");
    let perms: Vec<Vec<u64>> = (1..arity)
        .map(|_| {
            let mut perm: Vec<u64> = (1..=n).collect();
            perm.shuffle(rng);
            perm
        })
        .collect();
    let mut rel = Relation::empty(name, arity);
    rel.reserve(n as usize);
    let mut row = Vec::with_capacity(arity);
    for i in 0..n as usize {
        row.clear();
        row.push(i as u64 + 1);
        row.extend(perms.iter().map(|perm| perm[i]));
        rel.insert_row(&row).expect("arity is consistent by construction");
    }
    rel
}

/// Generate a uniformly random matching database for the query: one
/// independent matching per atom, with the arity of that atom.
pub fn matching_database(q: &Query, n: u64, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new(n);
    for atom in q.atoms() {
        db.insert_relation(matching_relation(&atom.name, atom.arity(), n, &mut rng));
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;
    use mpc_storage::join::evaluate;

    /// Check whether a relation is an `arity`-dimensional matching over `[n]`:
    /// exactly `n` tuples and every column a permutation of `1..=n`.
    fn is_matching(rel: &Relation, n: u64) -> bool {
        if rel.len() as u64 != n {
            return false;
        }
        for col in 0..rel.arity() {
            let mut seen = vec![false; n as usize];
            for t in rel.iter() {
                let v = t[col];
                if v < 1 || v > n || seen[(v - 1) as usize] {
                    return false;
                }
                seen[(v - 1) as usize] = true;
            }
            if seen.iter().any(|s| !s) {
                return false;
            }
        }
        true
    }

    #[test]
    fn matchings_have_permutation_columns() {
        let mut rng = StdRng::seed_from_u64(7);
        for arity in 1..=4 {
            let rel = matching_relation("S", arity, 50, &mut rng);
            assert_eq!(rel.len(), 50);
            assert!(is_matching(&rel, 50), "arity {arity}");
        }
    }

    #[test]
    fn matching_database_covers_all_atoms() {
        let q = families::cycle(4);
        let db = matching_database(&q, 100, 1);
        assert_eq!(db.relations().count(), 4);
        for atom in q.atoms() {
            assert!(is_matching(db.relation(&atom.name).unwrap(), 100), "{}", atom.name);
        }
        assert!(db.validate_for(&q).is_ok());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let q = families::chain(3);
        let a = matching_database(&q, 64, 42);
        let b = matching_database(&q, 64, 42);
        let c = matching_database(&q, 64, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn chain_answers_on_matchings_have_size_n() {
        // Lemma 3.4 / Table 1: Lk over matchings has exactly n answers
        // (composition of permutations is a permutation).
        for k in 1..=4 {
            let q = families::chain(k);
            let db = matching_database(&q, 40, 11 + k as u64);
            let out = evaluate(&q, &db).unwrap();
            assert_eq!(out.len(), 40, "L{k}");
        }
    }

    #[test]
    fn star_answers_on_matchings_have_size_n() {
        let q = families::star(3);
        let db = matching_database(&q, 30, 5);
        let out = evaluate(&q, &db).unwrap();
        assert_eq!(out.len(), 30);
    }

    #[test]
    fn non_matchings_are_rejected_by_checker() {
        let rel = Relation::from_tuples("S", 2, vec![[1u64, 1], [2, 1]]).unwrap();
        assert!(!is_matching(&rel, 2));
        let small = Relation::from_tuples("S", 2, vec![[1u64, 1]]).unwrap();
        assert!(!is_matching(&small, 2));
    }
}
