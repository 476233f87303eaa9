//! Round lower bounds for the tuple-based MPC model (Section 4.2).
//!
//! The paper's multi-round lower bounds are certified by **(ε,r)-plans**
//! (Definition 4.4): decreasing atom sets `atoms(q) ⊃ M₁ ⊃ ⋯ ⊃ M_r` where
//! each `M_{j+1}` is *ε-good* for the contraction `q / M̄_j` and the final
//! contraction is still not one-round computable. An ε-good set `M` is one
//! where (1) no one-round-computable (`Γ¹_ε`) connected subquery contains
//! two atoms of `M`, and (2) the complement `M̄` has characteristic 0 (its
//! connected components are tree-like). Theorem 4.5 turns such a plan into
//! a failure probability for every tuple-based algorithm with too few
//! rounds.
//!
//! This module implements
//!
//! * [`is_epsilon_good`] — the exact check of Definition 4.4,
//! * [`find_er_plan`] — a greedy construction of (ε,r)-plans that recovers
//!   the paper's plans for chains and cycles,
//! * [`round_lower_bound_via_plan`] — the bound implied by the constructed
//!   plan, and
//! * [`round_lower_bound`] — the closed-form bounds
//!   `⌈log_{kε} diam(q)⌉` for tree-like queries (Corollary 4.8) and
//!   `⌈log_{kε}(k/(mε+1))⌉ + 1` for cycles (Lemma 4.9), falling back to the
//!   plan-based bound otherwise.

use std::collections::BTreeSet;

use mpc_cq::{AtomId, Query};
use mpc_lp::Rational;

use crate::error::CoreError;
use crate::multiround::planner::ceil_log;
use crate::space_exponent::{gamma_one_contains, k_epsilon, m_epsilon};
use crate::Result;

/// Maximum number of atoms for which the exponential subquery enumeration
/// used by the goodness checks is allowed.
const MAX_ATOMS_FOR_ENUMERATION: usize = 18;

/// Check whether `m` is an ε-good set of atoms for the (connected) query
/// `q` (Definition 4.4):
///
/// 1. every connected subquery of `q` belonging to `Γ¹_ε` contains at most
///    one atom of `m`, and
/// 2. `χ(M̄) = 0` where `M̄ = atoms(q) − m` (equivalently, every connected
///    component of `M̄` is tree-like). An empty complement vacuously
///    satisfies this.
///
/// # Errors
///
/// Propagates LP errors; refuses queries with more than 18 atoms (the check
/// enumerates connected subqueries).
pub fn is_epsilon_good(q: &Query, m: &[AtomId], epsilon: Rational) -> Result<bool> {
    if q.num_atoms() > MAX_ATOMS_FOR_ENUMERATION {
        return Err(CoreError::Unsupported(format!(
            "ε-goodness check enumerates connected subqueries; {} has too many atoms",
            q.name()
        )));
    }
    let m_set: BTreeSet<AtomId> = m.iter().copied().collect();

    // Condition 1.
    for subset in q.connected_subqueries() {
        let in_m = subset.iter().filter(|a| m_set.contains(a)).count();
        if in_m >= 2 {
            let sub = q.induced_subquery(&subset)?;
            if gamma_one_contains(&sub, epsilon)? {
                return Ok(false);
            }
        }
    }

    // Condition 2.
    let complement: Vec<AtomId> = q.complement_atoms(m);
    if !complement.is_empty() && q.characteristic_of_atoms(&complement)? != 0 {
        return Ok(false);
    }
    Ok(true)
}

/// Greedily find a large ε-good set for `q`: scan the atoms in order and
/// keep those that do not put two `M`-atoms inside any `Γ¹_ε` connected
/// subquery; finally verify the full Definition 4.4 conditions.
/// Returns `None` when the greedy choice fails the verification (the
/// goodness machinery is then inconclusive for this query).
///
/// # Errors
///
/// Propagates LP errors.
pub(crate) fn greedy_good_set(q: &Query, epsilon: Rational) -> Result<Option<Vec<AtomId>>> {
    if q.num_atoms() > MAX_ATOMS_FOR_ENUMERATION {
        return Err(CoreError::Unsupported(format!(
            "greedy ε-good search not supported for {} atoms",
            q.num_atoms()
        )));
    }
    // Pre-compute the atom sets of connected Γ¹_ε subqueries.
    let mut gamma_sets: Vec<BTreeSet<AtomId>> = Vec::new();
    for subset in q.connected_subqueries() {
        if subset.len() >= 2 {
            let sub = q.induced_subquery(&subset)?;
            if gamma_one_contains(&sub, epsilon)? {
                gamma_sets.push(subset.into_iter().collect());
            }
        }
    }

    let mut chosen: Vec<AtomId> = Vec::new();
    for a in q.atom_ids() {
        let conflict =
            gamma_sets.iter().any(|s| s.contains(&a) && chosen.iter().any(|c| s.contains(c)));
        if !conflict {
            chosen.push(a);
        }
    }

    if is_epsilon_good(q, &chosen, epsilon)? {
        Ok(Some(chosen))
    } else {
        Ok(None)
    }
}

/// A constructed (ε,r)-plan: the chain of contracted queries together with
/// the good set chosen at each step (expressed over the atoms of the
/// contracted query of that step).
#[derive(Debug, Clone)]
pub struct ErPlan {
    /// ε used for the construction.
    pub epsilon: Rational,
    /// The good set chosen at each step (over the *current* contracted
    /// query of that step, by atom name for readability).
    pub steps: Vec<Vec<String>>,
    /// The final contracted query (not in `Γ¹_ε`).
    pub final_query: Query,
}

impl ErPlan {
    /// The plan length `r`.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if no contraction step was possible.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Greedily construct an (ε,r)-plan for `q` (Definition 4.4), mirroring the
/// constructions of Lemma 4.6 (chains) and Lemma 4.9 (cycles): repeatedly
/// choose an ε-good set `M` of the current contracted query and contract
/// everything outside `M`, stopping while the contraction is still outside
/// `Γ¹_ε`.
///
/// Returns `None` when `q` itself is already in `Γ¹_ε` (no lower bound
/// beyond one round can be certified).
///
/// # Errors
///
/// Propagates LP errors.
pub fn find_er_plan(q: &Query, epsilon: Rational) -> Result<Option<ErPlan>> {
    if gamma_one_contains(q, epsilon)? {
        return Ok(None);
    }
    let mut steps: Vec<Vec<String>> = Vec::new();
    let mut current = q.clone();

    while let Some(good) = greedy_good_set(&current, epsilon)? {
        if good.len() < 2 {
            break;
        }
        let complement = current.complement_atoms(&good);
        if complement.is_empty() {
            break;
        }
        let contracted = match current.contract(&complement) {
            Ok(c) => c,
            Err(_) => break,
        };
        if gamma_one_contains(&contracted, epsilon)? {
            // Contracting further would violate condition (b) of the plan.
            break;
        }
        let names = good
            .iter()
            .map(|a| current.atom(*a).map(|at| at.name.clone()))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        steps.push(names);
        current = contracted;
    }

    Ok(Some(ErPlan { epsilon, steps, final_query: current }))
}

/// The round lower bound implied by the greedy (ε,r)-plan: a plan of length
/// `r` makes `r + 1` rounds insufficient (Theorem 4.5), so at least
/// `r + 2` rounds are needed; a query outside `Γ¹_ε` with an empty plan
/// still needs at least 2 rounds, and a query inside `Γ¹_ε` needs 1.
///
/// # Errors
///
/// Propagates LP errors.
pub fn round_lower_bound_via_plan(q: &Query, epsilon: Rational) -> Result<usize> {
    match find_er_plan(q, epsilon)? {
        None => Ok(1),
        Some(plan) => Ok(plan.len() + 2),
    }
}

/// Detect whether `q` is (isomorphic to) the cycle query `C_k`: connected,
/// every atom binary with two distinct variables, every variable of degree
/// exactly 2 and `k = ℓ ≥ 3`. Returns `k` if so.
pub(crate) fn cycle_length(q: &Query) -> Option<usize> {
    if !q.is_connected() || q.num_atoms() < 3 || q.num_atoms() != q.num_vars() {
        return None;
    }
    for atom in q.atoms() {
        if atom.arity() != 2 || atom.distinct_vars().len() != 2 {
            return None;
        }
    }
    for v in q.var_ids() {
        if q.atoms_of_var(v).len() != 2 {
            return None;
        }
    }
    Some(q.num_atoms())
}

/// The round lower bound for a connected query in the tuple-based MPC(ε)
/// model:
///
/// * `1` if the query is in `Γ¹_ε`;
/// * tree-like queries: `⌈log_{kε} diam(q)⌉` (Corollary 4.8);
/// * cycles `C_k`: `⌈log_{kε}(k / (mε + 1))⌉ + 1` (Lemma 4.9);
/// * otherwise the plan-based bound of [`round_lower_bound_via_plan`]
///   (at least 2, since the query is not one-round computable).
///
/// # Errors
///
/// Propagates LP errors; requires a connected query.
pub fn round_lower_bound(q: &Query, epsilon: Rational) -> Result<usize> {
    if !q.is_connected() {
        return Err(CoreError::Unsupported(
            "round lower bounds are stated for connected queries".to_string(),
        ));
    }
    if gamma_one_contains(q, epsilon)? {
        return Ok(1);
    }
    let ke = k_epsilon(epsilon).max(2);
    if q.is_tree_like() {
        let diam = q.diameter().expect("connected query has a diameter");
        return Ok(ceil_log(diam.max(1), ke).max(2));
    }
    if let Some(k) = cycle_length(q) {
        let me = m_epsilon(epsilon);
        // ⌈ log_{kε}( k / (mε+1) ) ⌉ + 1, computed in integer arithmetic:
        // the smallest r with kε^r · (mε+1) ≥ k.
        let mut r = 0usize;
        let mut reach = me + 1;
        while reach < k {
            reach = reach.saturating_mul(ke);
            r += 1;
        }
        return Ok((r + 1).max(2));
    }
    round_lower_bound_via_plan(q, epsilon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn paper_good_set_for_chains() {
        // For Lk at ε = 0, taking every second atom is ε-good (Lemma 4.6).
        let q = families::chain(6);
        let every_other: Vec<AtomId> =
            ["S1", "S3", "S5"].iter().map(|n| q.atom_by_name(n).unwrap().0).collect();
        assert!(is_epsilon_good(&q, &every_other, Rational::ZERO).unwrap());
        // Two adjacent atoms are NOT ε-good (they lie in a Γ¹_0 pair).
        let adjacent: Vec<AtomId> =
            ["S1", "S2"].iter().map(|n| q.atom_by_name(n).unwrap().0).collect();
        assert!(!is_epsilon_good(&q, &adjacent, Rational::ZERO).unwrap());
    }

    #[test]
    fn goodness_requires_tree_like_complement() {
        // In C6 at ε = 0 the set {S1, S4} is ε-good: the complement
        // {S2,S3,S5,S6} consists of two paths (tree-like) and no Γ¹_0 pair
        // contains both S1 and S4.
        let q = families::cycle(6);
        let m: Vec<AtomId> = ["S1", "S4"].iter().map(|n| q.atom_by_name(n).unwrap().0).collect();
        assert!(is_epsilon_good(&q, &m, Rational::ZERO).unwrap());
        // The empty set is trivially good only if the whole query is
        // tree-like; C6 is not (χ = −1).
        assert!(!is_epsilon_good(&q, &[], Rational::ZERO).unwrap());
        // For a chain the empty set is good (complement is the whole chain,
        // which is tree-like).
        assert!(is_epsilon_good(&families::chain(4), &[], Rational::ZERO).unwrap());
    }

    #[test]
    fn greedy_good_set_for_chain_takes_alternate_atoms() {
        let q = families::chain(8);
        let good = greedy_good_set(&q, Rational::ZERO).unwrap().unwrap();
        // Greedy picks S1, S3, S5, S7.
        assert_eq!(good.len(), 4);
        let names: Vec<&str> = good.iter().map(|a| q.atom(*a).unwrap().name.as_str()).collect();
        assert_eq!(names, vec!["S1", "S3", "S5", "S7"]);
    }

    #[test]
    fn er_plan_for_chains_has_expected_length() {
        // For Lk at ε = 0 the greedy construction contracts halves of the
        // chain while the contraction stays outside Γ¹_0, yielding
        // ⌈log₂ k⌉ − 2 steps (so that the implied bound, steps + 2, equals
        // the ⌈log₂ k⌉ rounds of Corollary 4.8).
        for (k, expected_r) in [(4usize, 0usize), (8, 1), (16, 2), (5, 1)] {
            let plan = find_er_plan(&families::chain(k), Rational::ZERO).unwrap().unwrap();
            assert_eq!(plan.len(), expected_r, "L{k}");
            // The final query must not be one-round computable.
            assert!(!gamma_one_contains(&plan.final_query, Rational::ZERO).unwrap());
        }
        // L2 is already in Γ¹_0: no plan.
        assert!(find_er_plan(&families::chain(2), Rational::ZERO).unwrap().is_none());
    }

    #[test]
    fn plan_based_bound_matches_closed_form_for_chains() {
        for k in [3usize, 4, 5, 8, 9, 16] {
            let q = families::chain(k);
            let via_plan = round_lower_bound_via_plan(&q, Rational::ZERO).unwrap();
            let closed = round_lower_bound(&q, Rational::ZERO).unwrap();
            assert_eq!(via_plan, closed, "L{k}");
            assert_eq!(closed, ceil_log(k, 2), "L{k}");
        }
    }

    #[test]
    fn corollary_4_8_tree_like_bounds() {
        // Lk: diam = k, so the bound is ⌈log_{kε} k⌉.
        assert_eq!(round_lower_bound(&families::chain(16), Rational::ZERO).unwrap(), 4);
        assert_eq!(round_lower_bound(&families::chain(16), r(1, 2)).unwrap(), 2);
        assert_eq!(round_lower_bound(&families::chain(5), r(1, 2)).unwrap(), 2);
        // Stars are one-round queries.
        assert_eq!(round_lower_bound(&families::star(7), Rational::ZERO).unwrap(), 1);
        // SPk at ε = 0: tree-like with diameter 4 → ⌈log₂ 4⌉ = 2, matching
        // the two-round upper bound of Section 4.1.
        assert_eq!(round_lower_bound(&families::spoke(3), Rational::ZERO).unwrap(), 2);
    }

    #[test]
    fn lemma_4_9_cycle_bounds() {
        // C5 at ε = 0: mε = 2, kε = 2 → ⌈log₂(5/3)⌉ + 1 = 2.
        assert_eq!(round_lower_bound(&families::cycle(5), Rational::ZERO).unwrap(), 2);
        // C12 at ε = 0: smallest r with 3·2^r ≥ 12 is 2 → bound 3.
        assert_eq!(round_lower_bound(&families::cycle(12), Rational::ZERO).unwrap(), 3);
        // C3 at ε = 1/3 is one-round computable.
        assert_eq!(round_lower_bound(&families::cycle(3), r(1, 3)).unwrap(), 1);
        // C3 at ε = 0 needs at least 2 rounds.
        assert_eq!(round_lower_bound(&families::cycle(3), Rational::ZERO).unwrap(), 2);
    }

    #[test]
    fn cycle_detection() {
        assert_eq!(cycle_length(&families::cycle(5)), Some(5));
        assert_eq!(cycle_length(&families::cycle(3)), Some(3));
        assert_eq!(cycle_length(&families::chain(4)), None);
        assert_eq!(cycle_length(&families::star(3)), None);
        assert_eq!(cycle_length(&families::binomial(4, 2).unwrap()), None);
    }

    #[test]
    fn lower_bound_never_exceeds_planner_upper_bound() {
        use crate::multiround::planner::MultiRoundPlan;
        for (q, eps) in [
            (families::chain(9), Rational::ZERO),
            (families::chain(12), r(1, 2)),
            (families::cycle(6), Rational::ZERO),
            (families::cycle(8), r(1, 2)),
            (families::spoke(3), Rational::ZERO),
            (families::binomial(4, 2).unwrap(), Rational::ZERO),
            (families::star(4), Rational::ZERO),
        ] {
            let lower = round_lower_bound(&q, eps).unwrap();
            let plan = MultiRoundPlan::build(&q, eps).unwrap();
            assert!(
                lower <= plan.num_rounds(),
                "{}: lower bound {} exceeds plan depth {}",
                q.name(),
                lower,
                plan.num_rounds()
            );
            // Theorem 1.2: the gap between bounds is at most ~1 round for
            // these families.
            assert!(plan.num_rounds() - lower <= 1, "{}: gap too large", q.name());
        }
    }

    #[test]
    fn disconnected_queries_are_rejected() {
        let q = mpc_cq::Query::new("q", vec![("R", vec!["x"]), ("S", vec!["y"])]).unwrap();
        assert!(round_lower_bound(&q, Rational::ZERO).is_err());
    }

    #[test]
    fn non_tree_non_cycle_queries_fall_back_to_plan_bound() {
        // B(4,2) at ε = 0 is neither tree-like nor a cycle; it is not in
        // Γ¹_0 so the bound is at least 2.
        let q = families::binomial(4, 2).unwrap();
        let bound = round_lower_bound(&q, Rational::ZERO).unwrap();
        assert!(bound >= 2);
    }
}
