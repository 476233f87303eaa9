//! Space exponents and the one-round class `Γ¹_ε` (Theorem 1.1,
//! Corollary 3.10, Section 4.1).
//!
//! The *space exponent* of a query is the smallest `ε` for which it can be
//! computed in a single round of MPC(ε); over matching databases it equals
//! `ε*(q) = 1 − 1/τ*(q)` where `τ*` is the fractional covering number. The
//! class `Γ¹_ε` consists of the connected queries with
//! `τ*(q) ≤ 1/(1 − ε)` — exactly those computable in one round at space
//! exponent `ε` — and is the building block of the multi-round classes
//! `Γ^r_ε`.

use mpc_cq::Query;
use mpc_lp::cover::tau_star;
use mpc_lp::Rational;

use crate::error::CoreError;
use crate::Result;

/// The fractional covering number `τ*(q)`.
///
/// # Errors
///
/// Propagates LP errors.
pub fn covering_number(q: &Query) -> Result<Rational> {
    Ok(tau_star(q)?)
}

/// The space exponent `ε*(q) = 1 − 1/τ*(q)` of a query (Theorem 1.1): the
/// smallest `ε` at which one round suffices over matching databases.
///
/// # Errors
///
/// Propagates LP errors.
pub fn space_exponent(q: &Query) -> Result<Rational> {
    let tau = covering_number(q)?;
    Ok(Rational::ONE - tau.recip()?)
}

/// Membership in `Γ¹_ε`: is the connected query computable in one round at
/// space exponent `ε`, i.e. is `τ*(q) ≤ 1/(1 − ε)`?
///
/// `ε = 1` is degenerate (everything fits); `ε` is given as an exact
/// rational.
///
/// # Errors
///
/// Propagates LP errors.
pub fn gamma_one_contains(q: &Query, epsilon: Rational) -> Result<bool> {
    if epsilon >= Rational::ONE {
        return Ok(true);
    }
    if epsilon.is_negative() {
        return Err(CoreError::InvalidPlan(format!("ε must be ≥ 0, got {epsilon}")));
    }
    let tau = covering_number(q)?;
    let threshold = (Rational::ONE - epsilon).recip()?;
    Ok(tau <= threshold)
}

/// `kε = 2 ⌊1/(1−ε)⌋`: the longest chain query in `Γ¹_ε` (Example 4.2).
/// Multi-round plans for chains use `L_{kε}` as their one-round operator.
///
/// # Panics
///
/// Panics if `ε ≥ 1` (degenerate).
pub fn k_epsilon(epsilon: Rational) -> usize {
    assert!(epsilon < Rational::ONE, "ε must be < 1");
    let inv = (Rational::ONE - epsilon).recip().expect("1 − ε > 0");
    (2 * inv.floor()) as usize
}

/// `mε = ⌊2/(1−ε)⌋`: the longest cycle query in `Γ¹_ε` (Lemma 4.9).
///
/// # Panics
///
/// Panics if `ε ≥ 1` (degenerate).
pub(crate) fn m_epsilon(epsilon: Rational) -> usize {
    assert!(epsilon < Rational::ONE, "ε must be < 1");
    let ratio = Rational::new(2, 1).checked_div(&(Rational::ONE - epsilon)).expect("1 − ε > 0");
    ratio.floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn table_1_space_exponents() {
        // Ck: 1 − 2/k.
        assert_eq!(space_exponent(&families::cycle(3)).unwrap(), r(1, 3));
        assert_eq!(space_exponent(&families::cycle(4)).unwrap(), r(1, 2));
        assert_eq!(space_exponent(&families::cycle(5)).unwrap(), r(3, 5));
        // Tk: 0.
        assert_eq!(space_exponent(&families::star(5)).unwrap(), Rational::ZERO);
        // Lk: 1 − 1/⌈k/2⌉.
        assert_eq!(space_exponent(&families::chain(2)).unwrap(), Rational::ZERO);
        assert_eq!(space_exponent(&families::chain(3)).unwrap(), r(1, 2));
        assert_eq!(space_exponent(&families::chain(5)).unwrap(), r(2, 3));
        // B(k,m): 1 − m/k.
        assert_eq!(space_exponent(&families::binomial(4, 2).unwrap()).unwrap(), r(1, 2));
        // SPk: 1 − 1/k.
        assert_eq!(space_exponent(&families::spoke(3)).unwrap(), r(2, 3));
    }

    #[test]
    fn corollary_3_10_zero_space_exponent() {
        // ε* = 0 iff a variable occurs in every atom.
        for q in [families::star(4), families::chain(2), families::chain(1)] {
            assert_eq!(space_exponent(&q).unwrap(), Rational::ZERO, "{}", q.name());
            assert!(q.shared_variable().is_some());
        }
        for q in [families::chain(3), families::cycle(3), families::spoke(2)] {
            assert!(space_exponent(&q).unwrap().is_positive(), "{}", q.name());
            assert!(q.shared_variable().is_none());
        }
    }

    #[test]
    fn gamma_one_membership() {
        // Γ¹_0 = queries with τ* = 1.
        assert!(gamma_one_contains(&families::chain(2), Rational::ZERO).unwrap());
        assert!(!gamma_one_contains(&families::chain(3), Rational::ZERO).unwrap());
        // Γ¹_{1/2} = τ* ≤ 2: contains L4 and C4 but not L5 or C5.
        let half = r(1, 2);
        assert!(gamma_one_contains(&families::chain(4), half).unwrap());
        assert!(gamma_one_contains(&families::cycle(4), half).unwrap());
        assert!(!gamma_one_contains(&families::chain(5), half).unwrap());
        assert!(!gamma_one_contains(&families::cycle(5), half).unwrap());
        // ε = 1 is degenerate: everything is one-round computable.
        assert!(gamma_one_contains(&families::cycle(9), Rational::ONE).unwrap());
        // Negative ε is rejected.
        assert!(gamma_one_contains(&families::cycle(3), r(-1, 2)).is_err());
    }

    #[test]
    fn query_is_in_gamma_one_at_its_space_exponent() {
        for q in [
            families::chain(3),
            families::chain(6),
            families::cycle(5),
            families::binomial(3, 2).unwrap(),
            families::spoke(2),
        ] {
            let eps = space_exponent(&q).unwrap();
            assert!(gamma_one_contains(&q, eps).unwrap(), "{} at its ε*", q.name());
            // Strictly below ε* it is not (unless ε* = 0).
            if eps.is_positive() {
                let below = eps - r(1, 1000);
                assert!(!gamma_one_contains(&q, below).unwrap(), "{} below ε*", q.name());
            }
        }
    }

    #[test]
    fn k_and_m_epsilon_values() {
        // ε = 0: kε = 2, mε = 2.
        assert_eq!(k_epsilon(Rational::ZERO), 2);
        assert_eq!(m_epsilon(Rational::ZERO), 2);
        // ε = 1/2: kε = 4, mε = 4.
        assert_eq!(k_epsilon(r(1, 2)), 4);
        assert_eq!(m_epsilon(r(1, 2)), 4);
        // ε = 2/3: kε = 6, mε = 6.
        assert_eq!(k_epsilon(r(2, 3)), 6);
        assert_eq!(m_epsilon(r(2, 3)), 6);
        // ε = 1/3: 1/(1−ε) = 3/2 → kε = 2, mε = 3.
        assert_eq!(k_epsilon(r(1, 3)), 2);
        assert_eq!(m_epsilon(r(1, 3)), 3);
    }

    #[test]
    fn k_epsilon_matches_longest_chain_in_gamma_one() {
        for eps in [Rational::ZERO, r(1, 3), r(1, 2), r(2, 3)] {
            let k = k_epsilon(eps);
            assert!(
                gamma_one_contains(&families::chain(k), eps).unwrap(),
                "L{k} should be in Γ¹ at ε = {eps}"
            );
            assert!(
                !gamma_one_contains(&families::chain(k + 1), eps).unwrap(),
                "L{} should not be in Γ¹ at ε = {eps}",
                k + 1
            );
        }
    }

    #[test]
    fn m_epsilon_matches_longest_cycle_in_gamma_one() {
        for eps in [Rational::ZERO, r(1, 2), r(2, 3)] {
            let m = m_epsilon(eps);
            assert!(
                gamma_one_contains(&families::cycle(m.max(2)), eps).unwrap(),
                "C{m} should be in Γ¹ at ε = {eps}"
            );
            assert!(
                !gamma_one_contains(&families::cycle(m + 1), eps).unwrap(),
                "C{} should not be in Γ¹ at ε = {eps}",
                m + 1
            );
        }
    }
}
