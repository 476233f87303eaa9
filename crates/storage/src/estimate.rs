//! Answer-size estimates: the matching-database expectation of Lemma 3.4
//! and the AGM-style bound from a fractional edge cover.

use mpc_cq::Query;
use mpc_lp::cover::solve_edge_cover;

use crate::database::Database;
use crate::error::StorageError;
use crate::Result;

/// The exponent `k + ℓ − a = c + χ(q)` of the expected number of answers
/// of `q` over a uniformly random matching database with domain `[n]`,
/// `E[|q(I)|] = n^{k + ℓ − a}`: `n^{1 + χ(q)}` for a connected query
/// (Lemma 3.4), multiplied over the components in general.
pub fn expected_answer_exponent(q: &Query) -> i64 {
    q.num_vars() as i64 + q.num_atoms() as i64 - q.total_arity() as i64
}

/// The AGM-style upper bound `∏ⱼ |Sⱼ|^{uⱼ}` where `u` is an optimal
/// fractional edge cover of `q` (Friedgut's inequality applied to indicator
/// weights, Section 2.6).
///
/// # Errors
///
/// Returns an error if a relation is missing or the LP fails.
pub fn agm_bound(q: &Query, db: &Database) -> Result<f64> {
    db.validate_for(q)?;
    let cover = solve_edge_cover(q).map_err(|e| StorageError::Query(e.to_string()))?;
    let mut bound = 1.0f64;
    for a in q.atom_ids() {
        let atom = q.atom(a)?;
        let size = db.relation(&atom.name)?.len() as f64;
        let weight = cover.weight(a).to_f64();
        if weight > 0.0 {
            if size == 0.0 {
                return Ok(0.0);
            }
            bound *= size.powf(weight);
        }
    }
    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::evaluate;
    use crate::relation::Relation;
    use mpc_cq::families;

    #[test]
    fn expected_sizes_match_table_1() {
        // Lk and Tk: expected size n.
        assert_eq!(expected_answer_exponent(&families::chain(3)), 1);
        assert_eq!(expected_answer_exponent(&families::star(4)), 1);
        // Ck: expected size 1.
        assert_eq!(expected_answer_exponent(&families::cycle(3)), 0);
        assert_eq!(expected_answer_exponent(&families::cycle(6)), 0);
        // B(k,m): n^{k−(m−1)·C(k,m)}.
        let b32 = families::binomial(3, 2).unwrap();
        assert_eq!(expected_answer_exponent(&b32), 3 - 3);
        let b42 = families::binomial(4, 2).unwrap();
        assert_eq!(expected_answer_exponent(&b42), 4 - 6);
    }

    #[test]
    fn exponent_equals_c_plus_chi() {
        for q in [
            families::chain(4),
            families::cycle(5),
            families::star(3),
            families::spoke(2),
            families::binomial(4, 2).unwrap(),
        ] {
            assert_eq!(
                expected_answer_exponent(&q),
                q.num_connected_components() as i64 + q.characteristic(),
                "{}",
                q.name()
            );
        }
    }

    #[test]
    fn agm_bound_dominates_actual_output() {
        // |C3| ≤ sqrt(|S1|·|S2|·|S3|).
        let q = families::cycle(3);
        let mut db = Database::new(4);
        for name in ["S1", "S2", "S3"] {
            db.insert_relation(
                Relation::from_tuples(name, 2, vec![[1u64, 2], [2, 3], [3, 1], [4, 4]]).unwrap(),
            );
        }
        let actual = evaluate(&q, &db).unwrap().len() as f64;
        let bound = agm_bound(&q, &db).unwrap();
        assert!(actual <= bound + 1e-9, "actual {actual} > bound {bound}");
        assert!((bound - 8.0).abs() < 1e-9); // sqrt(4·4·4) = 8
    }

    #[test]
    fn agm_bound_zero_when_a_relation_is_empty() {
        let q = families::chain(2);
        let mut db = Database::new(4);
        db.insert_relation(Relation::from_tuples("S1", 2, vec![[1u64, 2]]).unwrap());
        db.insert_relation(Relation::empty("S2", 2));
        assert_eq!(agm_bound(&q, &db).unwrap(), 0.0);
    }
}
