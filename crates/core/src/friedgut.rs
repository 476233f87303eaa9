//! Friedgut's inequality (Section 2.6) and the answer-size bounds derived
//! from it.
//!
//! For a query `q` with atoms `S₁, …, S_ℓ` and a fractional **edge cover**
//! `u = (u₁, …, u_ℓ)`, Friedgut's inequality states that for any
//! non-negative weights `wⱼ(aⱼ)` on the tuples of each relation,
//!
//! ```text
//!   Σ_{a ∈ [n]^k}  ∏ⱼ wⱼ(aⱼ)   ≤   ∏ⱼ ( Σ_{aⱼ} wⱼ(aⱼ)^{1/uⱼ} )^{uⱼ} .
//! ```
//!
//! Instantiating `wⱼ` with the 0/1 indicator of the relation instance
//! turns the left side into the number of query answers `|q(I)|` and the
//! right side into the AGM-style bound `∏ⱼ |Sⱼ|^{uⱼ}` — the inequality the
//! paper uses (with a *tight packing* playing the role of the cover) at
//! the heart of the one-round lower bound (Lemma 3.7).
//!
//! This module evaluates both sides for indicator weights and for
//! arbitrary per-tuple weights, so the inequality itself becomes a
//! testable invariant of the codebase.

use std::collections::HashMap;

use mpc_cq::Query;
use mpc_lp::cover::{solve_edge_cover, EdgeCover};
use mpc_lp::Rational;
use mpc_storage::{Database, Relation};

use crate::error::CoreError;
use crate::Result;

/// The two sides of Friedgut's inequality for a given weighting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FriedgutSides {
    /// The left-hand side `Σ_a ∏ⱼ wⱼ(aⱼ)`.
    pub lhs: f64,
    /// The right-hand side `∏ⱼ (Σ wⱼ^{1/uⱼ})^{uⱼ}`.
    pub rhs: f64,
}

impl FriedgutSides {
    /// True if the inequality holds (up to floating-point slack).
    pub fn holds(&self) -> bool {
        self.lhs <= self.rhs * (1.0 + 1e-9) + 1e-9
    }
}

/// Per-relation tuple weights: a map from tuple to a non-negative weight.
/// Tuples not present have weight 0.
pub type TupleWeights = HashMap<mpc_storage::Tuple, f64>;

/// Evaluate both sides of Friedgut's inequality for indicator weights
/// (weight 1 for every tuple present in the database), using an optimal
/// fractional edge cover of `q`. The left side is then `|q(I)|` and the
/// right side is the AGM bound `∏ⱼ |Sⱼ|^{uⱼ}`.
///
/// # Errors
///
/// Propagates LP and storage errors.
pub fn indicator_sides(q: &Query, db: &Database) -> Result<FriedgutSides> {
    let cover = solve_edge_cover(q)?;
    let lhs = mpc_storage::join::evaluate(q, db)?.len() as f64;
    let rhs = rhs_for_indicator(q, db, &cover)?;
    Ok(FriedgutSides { lhs, rhs })
}

/// The right-hand side for indicator weights: `∏ⱼ |Sⱼ|^{uⱼ}` (with the
/// convention `|Sⱼ|^0 · …` handled via the `uⱼ → 0` limit, i.e. a factor
/// `max wⱼ = 1` for non-empty relations).
fn rhs_for_indicator(q: &Query, db: &Database, cover: &EdgeCover) -> Result<f64> {
    let mut rhs = 1.0f64;
    for a in q.atom_ids() {
        let atom = q.atom(a)?;
        let rel = db.relation(&atom.name)?;
        let u = cover.weight(a).to_f64();
        if u > 0.0 {
            if rel.is_empty() {
                return Ok(0.0);
            }
            rhs *= (rel.len() as f64).powf(u);
        } else if rel.is_empty() {
            // lim_{u→0} (Σ w^{1/u})^u = max w = 0 for an empty relation.
            return Ok(0.0);
        }
    }
    Ok(rhs)
}

/// Evaluate both sides for arbitrary non-negative tuple weights and an
/// explicit fractional edge cover `u` (one weight per atom, in atom
/// order). Weights for tuples that are absent from the map are 0.
///
/// The left side enumerates the joint assignments by joining the supports
/// of the weight maps, so it is exact whenever the supports are finite
/// (which they are — they are maps).
///
/// # Errors
///
/// Returns [`CoreError::InvalidPlan`] if the cover has the wrong width or
/// is not a valid fractional edge cover of `q`, and propagates storage
/// errors.
pub fn weighted_sides(
    q: &Query,
    weights: &[TupleWeights],
    cover: &[Rational],
) -> Result<FriedgutSides> {
    if weights.len() != q.num_atoms() || cover.len() != q.num_atoms() {
        return Err(CoreError::InvalidPlan(format!(
            "expected {} weight maps and cover entries",
            q.num_atoms()
        )));
    }
    // Validate the cover: every variable must be covered with total ≥ 1.
    for v in q.var_ids() {
        let mut total = Rational::ZERO;
        for a in q.atoms_of_var(v) {
            total += cover[a.0];
        }
        if total < Rational::ONE {
            return Err(CoreError::InvalidPlan(format!(
                "edge cover leaves variable {} uncovered",
                q.var_name(v)?
            )));
        }
    }

    // Build a database whose relations are the supports, then join it to
    // enumerate the assignments with non-zero product on the left side.
    let mut db = Database::new(u64::MAX);
    for (atom, w) in q.atoms().iter().zip(weights) {
        let mut rel = Relation::empty(&atom.name, atom.arity());
        for t in w.keys() {
            if t.arity() != atom.arity() {
                return Err(CoreError::InvalidPlan(format!(
                    "weight tuple arity {} does not match atom {} of arity {}",
                    t.arity(),
                    atom.name,
                    atom.arity()
                )));
            }
            rel.insert(t.clone())?;
        }
        db.insert_relation(rel);
    }
    let assignments = mpc_storage::join::evaluate(q, &db)?;

    // LHS: sum over joint assignments of the product of the per-atom weights.
    let mut lhs = 0.0f64;
    for a in assignments.iter() {
        let mut product = 1.0f64;
        for (atom, w) in q.atoms().iter().zip(weights) {
            let projected =
                mpc_storage::Tuple(atom.vars.iter().map(|v| a[v.0]).collect::<Vec<_>>());
            product *= w.get(&projected).copied().unwrap_or(0.0);
        }
        lhs += product;
    }

    // RHS: ∏ⱼ (Σ wⱼ^{1/uⱼ})^{uⱼ}, with the u → 0 limit giving max wⱼ.
    let mut rhs = 1.0f64;
    for (j, w) in weights.iter().enumerate() {
        let u = cover[j].to_f64();
        if u > 0.0 {
            let sum: f64 = w.values().map(|x| x.powf(1.0 / u)).sum();
            rhs *= sum.powf(u);
        } else {
            let max = w.values().copied().fold(0.0f64, f64::max);
            rhs *= max;
        }
    }
    Ok(FriedgutSides { lhs, rhs })
}

/// The AGM-style output bound `∏ⱼ |Sⱼ|^{uⱼ}` with an optimal fractional
/// edge cover — the corollary of Friedgut's inequality the paper spells
/// out for `C₃` (`|C3| ≤ √(|S1|·|S2|·|S3|)`).
///
/// # Errors
///
/// Propagates LP and storage errors.
pub fn agm_output_bound(q: &Query, db: &Database) -> Result<f64> {
    let cover = solve_edge_cover(q)?;
    rhs_for_indicator(q, db, &cover)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_storage::Tuple;

    #[test]
    fn indicator_inequality_holds_on_matchings() {
        for q in [
            families::triangle(),
            families::cycle(5),
            families::chain(4),
            families::star(3),
            families::binomial(3, 2).unwrap(),
        ] {
            let db = matching_database(&q, 200, 3);
            let sides = indicator_sides(&q, &db).unwrap();
            assert!(sides.holds(), "{}: lhs {} > rhs {}", q.name(), sides.lhs, sides.rhs);
        }
    }

    #[test]
    fn triangle_bound_is_sqrt_of_sizes() {
        // |C3| ≤ sqrt(|S1||S2||S3|): with n-tuple matchings the bound is n^{3/2}.
        let q = families::triangle();
        let n = 400u64;
        let db = matching_database(&q, n, 9);
        let bound = agm_output_bound(&q, &db).unwrap();
        assert!((bound - (n as f64).powf(1.5)).abs() < 1e-6);
        let sides = indicator_sides(&q, &db).unwrap();
        assert!(sides.lhs <= bound);
    }

    #[test]
    fn empty_relation_gives_zero_bound() {
        let q = families::chain(2);
        let mut db = matching_database(&q, 50, 1);
        db.insert_relation(Relation::empty("S2", 2));
        assert_eq!(agm_output_bound(&q, &db).unwrap(), 0.0);
        let sides = indicator_sides(&q, &db).unwrap();
        assert_eq!(sides.lhs, 0.0);
        assert!(sides.holds());
    }

    #[test]
    fn weighted_inequality_on_paper_example_l3() {
        // The paper's L3 example with cover (1, 0, 1): the middle factor
        // becomes max β. Use small weight maps and check the inequality.
        let q = families::chain(3);
        let mut alpha = TupleWeights::new();
        let mut beta = TupleWeights::new();
        let mut gamma = TupleWeights::new();
        for i in 0..5u64 {
            alpha.insert(Tuple(vec![i, i + 1]), 0.5 + i as f64 * 0.1);
            beta.insert(Tuple(vec![i + 1, i + 2]), 1.0 + i as f64);
            gamma.insert(Tuple(vec![i + 2, i + 3]), 0.25);
        }
        let cover = vec![Rational::ONE, Rational::ZERO, Rational::ONE];
        let sides = weighted_sides(&q, &[alpha, beta, gamma], &cover).unwrap();
        assert!(sides.lhs > 0.0);
        assert!(sides.holds(), "lhs {} rhs {}", sides.lhs, sides.rhs);
    }

    #[test]
    fn weighted_inequality_on_triangle_with_half_cover() {
        let q = families::triangle();
        let mut maps = vec![TupleWeights::new(), TupleWeights::new(), TupleWeights::new()];
        // A small dense block of weighted tuples.
        for x in 0..4u64 {
            for y in 0..4u64 {
                maps[0].insert(Tuple(vec![x, y]), 1.0 + (x + y) as f64 * 0.3);
                maps[1].insert(Tuple(vec![x, y]), 2.0 - (x as f64) * 0.2);
                maps[2].insert(Tuple(vec![x, y]), 0.5 + (y as f64) * 0.1);
            }
        }
        let half = Rational::new(1, 2);
        let sides = weighted_sides(&q, &maps, &[half, half, half]).unwrap();
        assert!(sides.lhs > 0.0);
        assert!(sides.holds(), "lhs {} rhs {}", sides.lhs, sides.rhs);
    }

    #[test]
    fn invalid_cover_is_rejected() {
        let q = families::triangle();
        let maps = vec![TupleWeights::new(), TupleWeights::new(), TupleWeights::new()];
        // (1/4, 1/4, 1/4) does not cover any variable fully.
        let bad = vec![Rational::new(1, 4); 3];
        assert!(weighted_sides(&q, &maps, &bad).is_err());
        // Wrong width.
        assert!(weighted_sides(&q, &maps, &[Rational::ONE]).is_err());
    }

    #[test]
    fn mismatched_weight_arity_is_rejected() {
        let q = families::chain(2);
        let mut bad = TupleWeights::new();
        bad.insert(Tuple(vec![1]), 1.0);
        let ok = TupleWeights::new();
        let cover = vec![Rational::ONE, Rational::ONE];
        assert!(weighted_sides(&q, &[bad, ok], &cover).is_err());
    }
}
