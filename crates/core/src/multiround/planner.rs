//! Multi-round plan construction (`Γ^r_ε`, Section 4.1).
//!
//! A query is in `Γ^{r}_ε` if it has a query plan of depth `r` in which
//! every operator is a connected query computable in one round at space
//! exponent `ε` (i.e. an element of `Γ¹_ε`, equivalently
//! `τ* ≤ 1/(1−ε)`). The planner below builds such plans greedily, level by
//! level: the atoms of the current query are partitioned into connected
//! groups that each stay inside `Γ¹_ε`; every group of two or more atoms
//! becomes a one-round *operator* producing an intermediate view, and the
//! next level joins the views (plus any pass-through atoms). Because any
//! two atoms sharing a variable always form a `Γ¹_ε` query, the number of
//! atoms strictly decreases at every level and the construction terminates.
//!
//! On the paper's examples the plans coincide with the optimal ones:
//! `L_16` at ε = 1/2 becomes two rounds of `L_4` operators (Example 4.2);
//! `SP_k` at ε = 0 becomes the two-round plan of Section 4.1; `L_k` at
//! ε = 0 becomes the `⌈log₂ k⌉`-deep bushy binary-join tree of Table 2.

use serde::Serialize;

use mpc_cq::{AtomId, Query};
use mpc_lp::cover::VertexCover;
use mpc_lp::{QueryLps, Rational};

use crate::error::CoreError;
use crate::shares::ShareAllocation;
use crate::space_exponent::{gamma_one_contains, k_epsilon};
use crate::Result;

/// What [`MultiRoundPlan::build`] requires of its arguments: a connected
/// query and `ε ∈ [0, 1)`.
///
/// # Errors
///
/// [`CoreError::Unsupported`] for a disconnected query,
/// [`CoreError::InvalidPlan`] for an ε out of range.
pub(crate) fn check_plannable(q: &Query, epsilon: Rational) -> Result<()> {
    if !q.is_connected() {
        return Err(CoreError::Unsupported(format!(
            "{} is disconnected; multi-round planning requires a connected query",
            q.name()
        )));
    }
    if epsilon.is_negative() || epsilon >= Rational::ONE {
        return Err(CoreError::InvalidPlan(format!("ε must lie in [0, 1), got {epsilon}")));
    }
    Ok(())
}

/// One one-round operator of a plan: a connected query in `Γ¹_ε` over the
/// relation names of its level (base relations and/or earlier views),
/// producing a view named [`Operator::view_name`] whose columns are the
/// operator query's variables in order.
#[derive(Debug, Clone, Serialize)]
pub struct Operator {
    /// Name of the produced view.
    pub view_name: String,
    /// The operator query (its name equals `view_name`).
    pub query: Query,
    /// An optimal fractional vertex cover of [`Operator::query`], solved
    /// once when the plan is built: it certifies the operator's `Γ¹_ε`
    /// membership and fixes its shares on any `p`.
    #[serde(skip)]
    pub cover: VertexCover,
}

impl Operator {
    /// An operator computing `query` as the view of the same name.
    fn new(query: Query) -> Result<Self> {
        let cover = QueryLps::solve(&query)?.vertex_cover().clone();
        Ok(Operator { view_name: query.name().to_string(), query, cover })
    }

    /// The operator's HyperCube shares on `p` servers: its cover, rounded.
    ///
    /// # Errors
    ///
    /// Those of [`ShareAllocation::from_cover`] (`p = 0`).
    pub fn allocation(&self, p: usize) -> Result<ShareAllocation> {
        ShareAllocation::from_cover(&self.query, &self.cover, p)
    }
}

/// One level (round) of a plan.
#[derive(Debug, Clone, Serialize)]
pub struct PlanLevel {
    /// The operators evaluated in this round (in parallel).
    pub operators: Vec<Operator>,
}

/// A multi-round plan for a connected query.
#[derive(Debug, Clone, Serialize)]
pub struct MultiRoundPlan {
    original: Query,
    epsilon: Rational,
    levels: Vec<PlanLevel>,
}

impl MultiRoundPlan {
    /// Build a plan for `q` at space exponent `epsilon`.
    ///
    /// ```
    /// use mpc_core::multiround::planner::MultiRoundPlan;
    /// use mpc_lp::Rational;
    ///
    /// // Example 4.2 of the paper: at ε = 1/2 the chain L16 is answered in
    /// // two rounds of L4 operators (L4 has τ* = 2 = 1/(1−ε)).
    /// let q = mpc_cq::families::chain(16);
    /// let plan = MultiRoundPlan::build(&q, Rational::new(1, 2)).unwrap();
    /// plan.validate().unwrap();
    /// assert_eq!(plan.num_rounds(), 2);
    ///
    /// // At ε = 0 every operator is a binary join, giving the
    /// // ⌈log₂ 16⌉ = 4-deep bushy tree of Table 2.
    /// let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
    /// assert_eq!(plan.num_rounds(), 4);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unsupported`] for disconnected queries and
    /// propagates LP errors.
    pub fn build(q: &Query, epsilon: Rational) -> Result<MultiRoundPlan> {
        check_plannable(q, epsilon)?;

        let mut levels: Vec<PlanLevel> = Vec::new();
        let mut current = q.clone();
        let mut level_no = 0usize;

        loop {
            if gamma_one_contains(&current, epsilon)? {
                // Final level: a single operator computing the remaining query.
                let last = Operator::new(current.with_name(format!("{}__final", q.name())))?;
                levels.push(PlanLevel { operators: vec![last] });
                break;
            }

            level_no += 1;
            let groups = greedy_partition(&current, epsilon)?;
            let mut operators = Vec::new();
            let mut next_atoms: Vec<(String, Vec<String>)> = Vec::new();
            for (gi, group) in groups.iter().enumerate() {
                if group.len() == 1 {
                    // Pass-through: the atom survives unchanged into the
                    // next level.
                    let atom = current.atom(group[0])?;
                    let vars = atom
                        .vars
                        .iter()
                        .map(|v| current.var_name(*v).map(str::to_string))
                        .collect::<std::result::Result<Vec<_>, _>>()?;
                    next_atoms.push((atom.name.clone(), vars));
                } else {
                    let op = Operator::new(
                        current.induced_subquery(group)?.with_name(format!("V{level_no}_{gi}")),
                    )?;
                    next_atoms.push((op.view_name.clone(), op.query.var_names().to_vec()));
                    operators.push(op);
                }
            }

            if operators.is_empty() {
                return Err(CoreError::InvalidPlan(format!(
                    "planner made no progress on {} at ε = {epsilon}",
                    current.name()
                )));
            }
            levels.push(PlanLevel { operators });
            current = Query::new(format!("{}__lvl{level_no}", q.name()), next_atoms)?;
        }

        Ok(MultiRoundPlan { original: q.clone(), epsilon, levels })
    }

    /// The query this plan computes.
    pub fn original(&self) -> &Query {
        &self.original
    }

    /// The space exponent the plan was built for.
    pub fn epsilon(&self) -> Rational {
        self.epsilon
    }

    /// The plan levels, one per round.
    pub fn levels(&self) -> &[PlanLevel] {
        &self.levels
    }

    /// Number of communication rounds (= plan depth).
    pub fn num_rounds(&self) -> usize {
        self.levels.len()
    }

    /// The final operator (the one producing the query answer).
    pub(crate) fn final_operator(&self) -> &Operator {
        &self.levels.last().expect("plans have at least one level").operators[0]
    }

    /// Total number of operators across all levels.
    pub fn num_operators(&self) -> usize {
        self.levels.iter().map(|l| l.operators.len()).sum()
    }

    /// Validate the plan: every operator must be connected and in `Γ¹_ε`,
    /// and the final operator must bind every variable of the original
    /// query. Membership is certified by the operator's own cover, without
    /// solving an LP: a valid cover of value `≤ 1/(1−ε)` bounds `τ*`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPlan`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        // `build` admits only ε ∈ [0, 1), so the threshold is finite.
        let threshold = (Rational::ONE - self.epsilon).recip()?;
        for (li, level) in self.levels.iter().enumerate() {
            for op in &level.operators {
                if !op.query.is_connected() {
                    return Err(CoreError::InvalidPlan(format!(
                        "operator {} in level {} is disconnected",
                        op.view_name, li
                    )));
                }
                if !op.cover.is_valid_for(&op.query) || op.cover.total() > threshold {
                    return Err(CoreError::InvalidPlan(format!(
                        "operator {} in level {} is not one-round computable at ε = {}",
                        op.view_name, li, self.epsilon
                    )));
                }
            }
        }
        let final_vars = self.final_operator().query.var_names();
        for v in self.original.var_names() {
            if !final_vars.contains(v) {
                return Err(CoreError::InvalidPlan(format!(
                    "final operator does not bind variable {v}"
                )));
            }
        }
        Ok(())
    }
}

/// Partition the atoms of `q` into connected groups, each inside `Γ¹_ε`,
/// greedily absorbing adjacent atoms.
fn greedy_partition(q: &Query, epsilon: Rational) -> Result<Vec<Vec<AtomId>>> {
    let mut unassigned: Vec<AtomId> = q.atom_ids().collect();
    let mut groups: Vec<Vec<AtomId>> = Vec::new();

    while !unassigned.is_empty() {
        let seed = unassigned.remove(0);
        let mut group = vec![seed];
        loop {
            let mut grew = false;
            let mut idx = 0;
            while idx < unassigned.len() {
                let candidate = unassigned[idx];
                let mut tentative = group.clone();
                tentative.push(candidate);
                if q.atoms_connected(&tentative)
                    && gamma_one_contains(&q.induced_subquery(&tentative)?, epsilon)?
                {
                    group.push(candidate);
                    unassigned.remove(idx);
                    grew = true;
                } else {
                    idx += 1;
                }
            }
            if !grew {
                break;
            }
        }
        group.sort();
        groups.push(group);
    }
    Ok(groups)
}

/// The analytic round upper bound of Lemma 4.3:
/// `⌈log_{kε}(rad(q))⌉ + 1` for tree-like queries and
/// `⌈log_{kε}(rad(q) + 1)⌉ + 1` for general connected queries
/// (and simply 1 when the query is already in `Γ¹_ε`).
///
/// # Errors
///
/// Returns [`CoreError::Unsupported`] for disconnected queries.
pub fn round_upper_bound(q: &Query, epsilon: Rational) -> Result<usize> {
    if !q.is_connected() {
        return Err(CoreError::Unsupported("radius bound needs a connected query".to_string()));
    }
    if gamma_one_contains(q, epsilon)? {
        return Ok(1);
    }
    let rad = q.radius().expect("connected query has a radius");
    let base = k_epsilon(epsilon);
    let target = if q.is_tree_like() { rad } else { rad + 1 };
    Ok(ceil_log(target.max(1), base.max(2)) + 1)
}

/// `⌈log_base(x)⌉` for integers (0 when `x ≤ 1`).
pub(crate) fn ceil_log(x: usize, base: usize) -> usize {
    debug_assert!(base >= 2);
    let mut value = 1usize;
    let mut steps = 0usize;
    while value < x {
        value = value.saturating_mul(base);
        steps += 1;
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::{families, Query};

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn ceil_log_values() {
        assert_eq!(ceil_log(1, 2), 0);
        assert_eq!(ceil_log(2, 2), 1);
        assert_eq!(ceil_log(3, 2), 2);
        assert_eq!(ceil_log(16, 2), 4);
        assert_eq!(ceil_log(17, 2), 5);
        assert_eq!(ceil_log(16, 4), 2);
        assert_eq!(ceil_log(5, 4), 2);
    }

    #[test]
    fn chains_at_epsilon_zero_take_log_k_rounds() {
        // Table 2: Lk needs ⌈log₂ k⌉ rounds at ε = 0.
        for (k, expected) in [(2usize, 1usize), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (16, 4)] {
            let plan = MultiRoundPlan::build(&families::chain(k), Rational::ZERO).unwrap();
            assert_eq!(plan.num_rounds(), expected, "L{k}");
            plan.validate().unwrap();
        }
    }

    #[test]
    fn example_4_2_l16_at_half_takes_two_rounds() {
        let plan = MultiRoundPlan::build(&families::chain(16), r(1, 2)).unwrap();
        assert_eq!(plan.num_rounds(), 2);
        // First level: four L4 operators.
        assert_eq!(plan.levels()[0].operators.len(), 4);
        for op in &plan.levels()[0].operators {
            assert_eq!(op.query.num_atoms(), 4);
        }
        plan.validate().unwrap();
    }

    #[test]
    fn chain_round_counts_match_log_base_k_epsilon() {
        // Lk at exponent ε takes ⌈log_{kε} k⌉ rounds.
        for (k, eps, expected) in [
            (16usize, r(1, 2), 2usize),
            (8, r(1, 2), 2),
            (4, r(1, 2), 1),
            (5, r(1, 2), 2),
            (27, r(2, 3), 2),
            (36, r(2, 3), 2),
            (37, r(2, 3), 3),
        ] {
            let plan = MultiRoundPlan::build(&families::chain(k), eps).unwrap();
            assert_eq!(plan.num_rounds(), expected, "L{k} at ε = {eps}");
        }
    }

    #[test]
    fn spoke_takes_two_rounds_at_epsilon_zero() {
        // SPk: one round per Section 4.1 is impossible (τ* = k); the
        // two-round plan joins the Ri-Si pairs first, then everything on z.
        for k in 2..=4 {
            let plan = MultiRoundPlan::build(&families::spoke(k), Rational::ZERO).unwrap();
            assert_eq!(plan.num_rounds(), 2, "SP{k}");
            assert_eq!(plan.levels()[0].operators.len(), k);
            plan.validate().unwrap();
        }
    }

    #[test]
    fn star_and_l2_take_one_round() {
        for q in [families::star(5), families::chain(2), families::chain(1)] {
            let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
            assert_eq!(plan.num_rounds(), 1, "{}", q.name());
            plan.validate().unwrap();
        }
    }

    #[test]
    fn cycles_at_epsilon_zero() {
        // Ck at ε = 0 takes about ⌈log₂ k⌉ rounds (Table 2).
        for (k, expected) in [(3usize, 2usize), (4, 2), (6, 3), (8, 3)] {
            let plan = MultiRoundPlan::build(&families::cycle(k), Rational::ZERO).unwrap();
            assert_eq!(plan.num_rounds(), expected, "C{k}");
            plan.validate().unwrap();
        }
    }

    #[test]
    fn triangle_at_its_space_exponent_is_one_round() {
        let plan = MultiRoundPlan::build(&families::cycle(3), r(1, 3)).unwrap();
        assert_eq!(plan.num_rounds(), 1);
    }

    #[test]
    fn final_operator_binds_all_variables() {
        for q in [families::chain(7), families::cycle(5), families::spoke(3)] {
            let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
            let final_vars = plan.final_operator().query.var_names();
            for v in q.var_names() {
                assert!(final_vars.contains(v), "{} missing {v}", q.name());
            }
        }
    }

    #[test]
    fn disconnected_queries_are_rejected() {
        let q = Query::new("q", vec![("R", vec!["x"]), ("S", vec!["y"])]).unwrap();
        assert!(MultiRoundPlan::build(&q, Rational::ZERO).is_err());
    }

    #[test]
    fn invalid_epsilon_is_rejected() {
        let q = families::chain(3);
        assert!(MultiRoundPlan::build(&q, Rational::ONE).is_err());
        assert!(MultiRoundPlan::build(&q, r(-1, 2)).is_err());
    }

    #[test]
    fn lemma_4_3_upper_bound() {
        // Tree-like: ⌈log_kε rad⌉ + 1.
        assert_eq!(round_upper_bound(&families::chain(8), Rational::ZERO).unwrap(), 3);
        // For L16 at ε = 1/2 the radius-based bound gives 3; the planner's
        // bushy plan (Example 4.2) does better with 2 rounds.
        assert_eq!(round_upper_bound(&families::chain(16), r(1, 2)).unwrap(), 3);
        // Already one-round queries report 1.
        assert_eq!(round_upper_bound(&families::star(4), Rational::ZERO).unwrap(), 1);
        // Non-tree-like queries use rad + 1.
        assert_eq!(round_upper_bound(&families::cycle(6), Rational::ZERO).unwrap(), 3);
        // Planner depth never exceeds... the greedy plan is compared
        // against the analytic bound for chains, where both are exact.
        for k in [4usize, 8, 16] {
            let plan = MultiRoundPlan::build(&families::chain(k), Rational::ZERO).unwrap();
            assert!(
                plan.num_rounds()
                    <= round_upper_bound(&families::chain(k), Rational::ZERO).unwrap()
            );
        }
    }

    #[test]
    fn operator_shares_round_the_cover_solved_at_build() {
        // The oracle is the old body: solve the operator's LP again.
        let queries = (4..=24).map(families::chain).chain((3..=8).map(families::cycle));
        for q in queries {
            for eps in [Rational::ZERO, r(1, 3), r(1, 2)] {
                let plan = MultiRoundPlan::build(&q, eps).unwrap();
                for op in plan.levels().iter().flat_map(|level| &level.operators) {
                    for p in [16, 64] {
                        assert_eq!(
                            op.allocation(p).unwrap(),
                            ShareAllocation::optimal(&op.query, p).unwrap(),
                            "{} at ε = {eps}, p = {p}: {}",
                            q.name(),
                            op.view_name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn plan_operators_are_all_in_gamma_one() {
        for (q, eps) in [
            (families::chain(10), Rational::ZERO),
            (families::chain(12), r(1, 2)),
            (families::cycle(7), Rational::ZERO),
            (families::spoke(4), Rational::ZERO),
            (families::binomial(4, 2).unwrap(), Rational::ZERO),
        ] {
            let plan = MultiRoundPlan::build(&q, eps).unwrap();
            plan.validate().unwrap();
            for level in plan.levels() {
                for op in &level.operators {
                    assert!(gamma_one_contains(&op.query, eps).unwrap());
                }
            }
        }
    }
}
