//! Databases with an **exactly controlled output cardinality** — the
//! inputs of the output-sensitive sweep (journal version,
//! arXiv:1602.06236).
//!
//! Over matching databases the answer count is a random variable with
//! expectation `n^{1+χ}` (Lemma 3.4) — useless when an experiment must
//! sweep the output size `m` independently of the input size `n`. The
//! planted construction pins it exactly:
//!
//! * **Diagonal answers.** Every relation contains the `m` diagonal tuples
//!   `(t, …, t)` for `t = 1, …, m`. Any atom evaluated on diagonal tuples
//!   forces its variables equal, so a connected query's planted answers
//!   are exactly the `m` all-equal assignments.
//! * **Join-free padding.** Each relation is padded to exactly `n` tuples
//!   with globally fresh values (every padding value occurs exactly once
//!   in the whole database). A padding tuple can therefore never agree
//!   with any tuple of another relation on a shared variable, and in a
//!   connected query with at least two atoms every atom shares a variable
//!   with the rest — so padding contributes **zero** answers.
//!
//! The result: `|q(I)| = m` exactly, every relation has exactly `n`
//! tuples, and every column is duplicate-free (skew-free, so the
//! HyperCube load guarantees apply unchanged). The seed shifts all values
//! by a random offset so different seeds exercise different hash routes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mpc_cq::Query;
use mpc_storage::{Database, Relation, Tuple};

/// A generated database together with the output cardinality it
/// guarantees — the "exact cardinality" handle the output-sensitive
/// sweep needs (no trial evaluation required).
#[derive(Debug, Clone)]
pub struct PlantedJoin {
    /// The generated database (`n` tuples per relation).
    pub db: Database,
    /// The exact answer count `|q(db)| = m`, by construction.
    pub output_size: u64,
}

/// Generate a database for `q` with exactly `n` tuples per relation and
/// exactly `m` query answers (`m ≤ n`).
///
/// ```
/// use mpc_data::planted::output_controlled_database;
///
/// let q = mpc_cq::families::triangle();
/// let planted = output_controlled_database(&q, 500, 37, 1);
/// let out = mpc_storage::join::evaluate(&q, &planted.db).unwrap();
/// assert_eq!(out.len() as u64, planted.output_size);
/// assert_eq!(planted.output_size, 37);
/// ```
///
/// # Panics
///
/// Panics when `m > n`, when the query is disconnected (padding could
/// then join), or when a single-atom query is asked for `m < n` (every
/// tuple of a single-atom query is an answer, so only `m = n` is
/// realisable).
pub fn output_controlled_database(q: &Query, n: u64, m: u64, seed: u64) -> PlantedJoin {
    assert!(m <= n, "cannot plant more answers than tuples per relation (m = {m}, n = {n})");
    assert!(q.is_connected(), "output_controlled_database requires a connected query");
    assert!(q.num_atoms() >= 2 || m == n, "single-atom queries answer every tuple: m must equal n");

    let mut rng = StdRng::seed_from_u64(seed);
    let offset: u64 = rng.gen_range(0..1u64 << 32);
    // Fresh values start above the diagonal block and never repeat.
    let mut next_fresh: u64 = m + 1;

    let mut relations = Vec::with_capacity(q.num_atoms());
    for atom in q.atoms() {
        let mut rel = Relation::empty(&atom.name, atom.arity());
        for t in 1..=m {
            rel.insert(Tuple(vec![t + offset; atom.arity()]))
                .expect("arity is consistent by construction");
        }
        while (rel.len() as u64) < n {
            let values: Vec<u64> = (0..atom.arity())
                .map(|_| {
                    let v = next_fresh + offset;
                    next_fresh += 1;
                    v
                })
                .collect();
            rel.insert(Tuple(values)).expect("fresh values never collide");
        }
        relations.push(rel);
    }

    let mut db = Database::new(offset + next_fresh);
    for rel in relations {
        db.insert_relation(rel);
    }
    PlantedJoin { db, output_size: m }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;
    use mpc_storage::join::evaluate;

    use crate::skew::tests::attribute_skew;

    #[test]
    fn output_size_is_exact_across_families() {
        for q in [
            families::triangle(),
            families::cycle(5),
            families::chain(3),
            families::chain(4),
            families::star(3),
            families::spoke(2),
            families::binomial(4, 2).unwrap(),
        ] {
            for m in [0u64, 1, 7, 50] {
                let planted = output_controlled_database(&q, 50, m, 11);
                let out = evaluate(&q, &planted.db).unwrap();
                assert_eq!(out.len() as u64, m, "{} with m = {m}", q.name());
                assert_eq!(planted.output_size, m);
                for atom in q.atoms() {
                    assert_eq!(planted.db.relation(&atom.name).unwrap().len(), 50);
                }
            }
        }
    }

    #[test]
    fn planted_inputs_are_skew_free() {
        let q = families::triangle();
        let planted = output_controlled_database(&q, 200, 60, 5);
        for rel in planted.db.relations() {
            for col in 0..rel.arity() {
                assert!((attribute_skew(rel, col) - 1.0).abs() < 1e-9, "column {col} has skew");
            }
        }
    }

    #[test]
    fn deterministic_per_seed_and_seed_sensitive() {
        let q = families::chain(3);
        let a = output_controlled_database(&q, 80, 10, 42);
        let b = output_controlled_database(&q, 80, 10, 42);
        let c = output_controlled_database(&q, 80, 10, 43);
        assert_eq!(a.db, b.db);
        assert_ne!(a.db, c.db);
    }

    #[test]
    fn single_atom_full_output_is_allowed() {
        let q = families::chain(1);
        let planted = output_controlled_database(&q, 40, 40, 3);
        assert_eq!(evaluate(&q, &planted.db).unwrap().len(), 40);
    }

    #[test]
    #[should_panic(expected = "single-atom")]
    fn single_atom_partial_output_is_rejected() {
        let _ = output_controlled_database(&families::chain(1), 40, 10, 3);
    }

    #[test]
    #[should_panic(expected = "more answers than tuples")]
    fn m_above_n_is_rejected() {
        let _ = output_controlled_database(&families::triangle(), 10, 11, 3);
    }
}
