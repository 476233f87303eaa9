//! The fractional vertex-cover, edge-packing and edge-cover LPs of a query
//! hypergraph (Figure 1 of the paper).
//!
//! * **Vertex cover** (primal): assign `vᵢ ≥ 0` to every variable so that
//!   every atom is covered, `Σ_{i: xᵢ ∈ vars(Sⱼ)} vᵢ ≥ 1`; minimise `Σ vᵢ`.
//! * **Edge packing** (dual): assign `uⱼ ≥ 0` to every atom so that every
//!   variable is not over-packed, `Σ_{j: xᵢ ∈ vars(Sⱼ)} uⱼ ≤ 1`; maximise
//!   `Σ uⱼ`.
//!
//! The two optima coincide: this common value is the **fractional covering
//! number `τ*(q)`**, which determines the one-round space exponent
//! `ε*(q) = 1 − 1/τ*(q)` (Theorem 1.1). The *edge cover* LP (`≥ 1`
//! constraints on variables, minimise) is different from the packing; it is
//! used for AGM-style output-size bounds and coincides with the packing only
//! when both are tight (Section 2.3).

use std::fmt;

use serde::{Deserialize, Serialize};

use mpc_cq::{AtomId, Query, VarId};

use crate::error::LpError;
use crate::rational::Rational;
use crate::simplex::{ConstraintOp, LinearProgram, Objective};
use crate::Result;

/// An (optimal) fractional vertex cover: one weight per variable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VertexCover {
    weights: Vec<Rational>,
    total: Rational,
}

impl VertexCover {
    /// Construct from per-variable weights (validated lazily via
    /// [`VertexCover::is_valid_for`]).
    pub fn from_weights(weights: Vec<Rational>) -> Result<Self> {
        let total = Rational::sum(weights.iter())?;
        Ok(VertexCover { weights, total })
    }

    /// The weight `vᵢ` of a variable.
    pub fn weight(&self, v: VarId) -> Rational {
        self.weights.get(v.0).copied().unwrap_or(Rational::ZERO)
    }

    /// All weights, indexed by [`VarId`].
    pub fn weights(&self) -> &[Rational] {
        &self.weights
    }

    /// The cover value `Σᵢ vᵢ`.
    pub fn total(&self) -> Rational {
        self.total
    }

    /// True if these weights satisfy every covering constraint of `q`
    /// (and are non-negative).
    pub fn is_valid_for(&self, q: &Query) -> bool {
        if self.weights.len() != q.num_vars() {
            return false;
        }
        if self.weights.iter().any(Rational::is_negative) {
            return false;
        }
        q.atom_ids().all(|a| {
            let vars = q.vars_of_atom(a).expect("atom id from the query itself");
            let sum = vars.iter().fold(Rational::ZERO, |acc, v| acc + self.weight(*v));
            sum >= Rational::ONE
        })
    }

    /// True if every covering constraint holds with equality (a *tight*
    /// cover in the sense of Section 2.3).
    pub fn is_tight_for(&self, q: &Query) -> bool {
        self.weights.len() == q.num_vars()
            && q.atom_ids().all(|a| {
                let vars = q.vars_of_atom(a).expect("atom id from the query itself");
                let sum = vars.iter().fold(Rational::ZERO, |acc, v| acc + self.weight(*v));
                sum == Rational::ONE
            })
    }
}

/// An (optimal) fractional edge packing: one weight per atom.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgePacking {
    weights: Vec<Rational>,
    total: Rational,
}

impl EdgePacking {
    /// Construct from per-atom weights.
    pub fn from_weights(weights: Vec<Rational>) -> Result<Self> {
        let total = Rational::sum(weights.iter())?;
        Ok(EdgePacking { weights, total })
    }

    /// The weight `uⱼ` of an atom.
    pub fn weight(&self, a: AtomId) -> Rational {
        self.weights.get(a.0).copied().unwrap_or(Rational::ZERO)
    }

    /// All weights, indexed by [`AtomId`].
    pub fn weights(&self) -> &[Rational] {
        &self.weights
    }

    /// The packing value `Σⱼ uⱼ`.
    pub fn total(&self) -> Rational {
        self.total
    }

    /// True if these weights satisfy every packing constraint of `q`.
    pub fn is_valid_for(&self, q: &Query) -> bool {
        if self.weights.len() != q.num_atoms() {
            return false;
        }
        if self.weights.iter().any(Rational::is_negative) {
            return false;
        }
        q.var_ids().all(|v| {
            let sum = q.atoms_of_var(v).iter().fold(Rational::ZERO, |acc, a| acc + self.weight(*a));
            sum <= Rational::ONE
        })
    }

    /// True if every packing constraint holds with equality.
    pub fn is_tight_for(&self, q: &Query) -> bool {
        self.weights.len() == q.num_atoms()
            && q.var_ids().all(|v| {
                let sum =
                    q.atoms_of_var(v).iter().fold(Rational::ZERO, |acc, a| acc + self.weight(*a));
                sum == Rational::ONE
            })
    }

    /// The slack `u'ᵢ = 1 − Σ_{j: xᵢ ∈ vars(Sⱼ)} uⱼ` of each variable; these
    /// are the weights given to the unary `Tᵢ` atoms of the *extended query*
    /// in the proof of Lemma 3.9.
    pub fn variable_slacks(&self, q: &Query) -> Vec<Rational> {
        q.var_ids()
            .map(|v| {
                let sum =
                    q.atoms_of_var(v).iter().fold(Rational::ZERO, |acc, a| acc + self.weight(*a));
                Rational::ONE - sum
            })
            .collect()
    }
}

/// An (optimal) fractional edge cover: one weight per atom, with `≥ 1`
/// constraints per variable. Used for AGM-style answer-size bounds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeCover {
    weights: Vec<Rational>,
    total: Rational,
}

impl EdgeCover {
    /// Construct from per-atom weights.
    pub fn from_weights(weights: Vec<Rational>) -> Result<Self> {
        let total = Rational::sum(weights.iter())?;
        Ok(EdgeCover { weights, total })
    }

    /// The weight of an atom.
    pub fn weight(&self, a: AtomId) -> Rational {
        self.weights.get(a.0).copied().unwrap_or(Rational::ZERO)
    }

    /// All weights, indexed by [`AtomId`].
    pub fn weights(&self) -> &[Rational] {
        &self.weights
    }

    /// The cover value `Σⱼ uⱼ`.
    pub fn total(&self) -> Rational {
        self.total
    }

    /// True if every variable is covered: `Σ_{j: xᵢ ∈ vars(Sⱼ)} uⱼ ≥ 1`.
    pub fn is_valid_for(&self, q: &Query) -> bool {
        if self.weights.len() != q.num_atoms() {
            return false;
        }
        if self.weights.iter().any(Rational::is_negative) {
            return false;
        }
        q.var_ids().all(|v| {
            let sum = q.atoms_of_var(v).iter().fold(Rational::ZERO, |acc, a| acc + self.weight(*a));
            sum >= Rational::ONE
        })
    }
}

/// The solved LP triple of a query: optimal vertex cover, edge packing and
/// edge cover, all exact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryLps {
    vertex_cover: VertexCover,
    edge_packing: EdgePacking,
    edge_cover: EdgeCover,
}

/// Which solver path produced a [`QueryLps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverPath {
    /// Never constructed: the memoising tier it reported is deleted. Kept,
    /// like the stand-in in [`crate::cache`], only because `benchmark/`
    /// matches on it.
    CacheHit,
    /// The query was recognised as a known family and the certified
    /// analytic optimum was returned.
    ClosedForm,
    /// The sparse revised simplex solved the LPs.
    SparseSimplex,
}

impl fmt::Display for SolverPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverPath::CacheHit => write!(f, "cache-hit"),
            SolverPath::ClosedForm => write!(f, "closed-form"),
            SolverPath::SparseSimplex => write!(f, "simplex"),
        }
    }
}

impl QueryLps {
    /// Solve all three LPs for the query, through one of two paths:
    ///
    /// 1. **closed form** — queries recognised (up to variable/atom
    ///    renaming) as a cycle `C_k`, chain `L_k`, star `T_k`, binomial
    ///    `B_{k,m}` or spoke `SP_k` get the certificate-checked analytic
    ///    optimum from [`crate::families::closed_form`]; recognition +
    ///    certification is `O(nnz)`;
    /// 2. **sparse simplex** — everything else is solved exactly by the
    ///    sparse revised simplex ([`QueryLps::solve_sparse`]).
    ///
    /// Nothing is memoised, so the result is a pure function of the query:
    /// the same text gets the same cover — and downstream the same shares
    /// and plan — whatever the process solved before. (A memo table keyed
    /// by [`mpc_cq::signature`] used to sit between the two paths; on the
    /// workspace's own traffic computing the key cost more than the solves
    /// it saved, and a transported optimum need not be the vertex the
    /// simplex returns for the query itself.) The dense-tableau oracle is
    /// kept as [`QueryLps::solve_dense`].
    ///
    /// # Errors
    ///
    /// Propagates simplex errors; the cover and packing LPs of a non-empty
    /// query are always feasible and bounded, so errors indicate arithmetic
    /// overflow ([`LpError::Overflow`], never observed for realistic query
    /// sizes).
    pub fn solve(q: &Query) -> Result<QueryLps> {
        Self::solve_traced(q).map(|(lps, _)| lps)
    }

    /// Like [`QueryLps::solve`], additionally reporting which path
    /// answered.
    pub fn solve_traced(q: &Query) -> Result<(QueryLps, SolverPath)> {
        if let Some(lps) = Self::try_closed_form(q)? {
            return Ok((lps, SolverPath::ClosedForm));
        }
        Ok((Self::solve_sparse(q)?, SolverPath::SparseSimplex))
    }

    /// The closed-form layer, with the debug-build cross-check against the
    /// simplex oracle (release builds rely on the — always sufficient —
    /// feasibility+duality certificates instead).
    fn try_closed_form(q: &Query) -> Result<Option<QueryLps>> {
        let Some((_family, lps)) = crate::families::closed_form(q) else {
            return Ok(None);
        };
        debug_assert_eq!(
            lps.covering_number(),
            Self::solve_sparse(q)?.covering_number(),
            "closed form disagrees with simplex for {_family}"
        );
        Ok(Some(lps))
    }

    /// Solve with the sparse revised simplex alone.
    ///
    /// Exactly two LP solves suffice for the whole triple: the duals of
    /// the edge-packing LP (a `≤`-form LP that needs no phase 1) are an
    /// optimal vertex cover, and the duals of the *fractional vertex
    /// weighting* LP (`max Σy` with per-atom sums `≤ 1`) are an optimal
    /// edge cover. Both extracted solutions are verified for feasibility
    /// and strong duality before returning.
    ///
    /// # Errors
    ///
    /// Propagates simplex errors, and reports [`LpError::Malformed`] if an
    /// extracted dual fails verification (a solver bug, not a property of
    /// the query).
    pub fn solve_sparse(q: &Query) -> Result<QueryLps> {
        // Edge packing: max Σu, per-variable sums ≤ 1; duals = cover.
        let l = q.num_atoms();
        let mut packing_lp = LinearProgram::new(Objective::Maximize, vec![Rational::ONE; l]);
        for v in q.var_ids() {
            let mut row = vec![Rational::ZERO; l];
            for a in q.atoms_of_var(v) {
                row[a.0] = Rational::ONE;
            }
            packing_lp = packing_lp.constrain(row, ConstraintOp::Le, Rational::ONE)?;
        }
        let packing_sol = packing_lp.solve_sparse()?;
        let edge_packing = EdgePacking::from_weights(packing_sol.variables)?;
        let vertex_cover = VertexCover::from_weights(packing_sol.duals)?;

        // Vertex weighting: max Σy, per-atom sums ≤ 1; duals = edge cover.
        let k = q.num_vars();
        let mut weighting_lp = LinearProgram::new(Objective::Maximize, vec![Rational::ONE; k]);
        for a in q.atom_ids() {
            let mut row = vec![Rational::ZERO; k];
            for v in q.vars_of_atom(a)? {
                row[v.0] = Rational::ONE;
            }
            weighting_lp = weighting_lp.constrain(row, ConstraintOp::Le, Rational::ONE)?;
        }
        let weighting_sol = weighting_lp.solve_sparse()?;
        let edge_cover = EdgeCover::from_weights(weighting_sol.duals)?;

        let lps = QueryLps { vertex_cover, edge_packing, edge_cover };
        if !lps.vertex_cover.is_valid_for(q) || lps.vertex_cover.total() != lps.edge_packing.total()
        {
            return Err(LpError::Malformed(format!(
                "extracted cover dual invalid for {}: cover {} vs packing {}",
                q.name(),
                lps.vertex_cover.total(),
                lps.edge_packing.total()
            )));
        }
        if !lps.edge_cover.is_valid_for(q)
            || lps.edge_cover.total() != weighting_sol.objective_value
        {
            return Err(LpError::Malformed(format!(
                "extracted edge-cover dual invalid for {}",
                q.name()
            )));
        }
        Ok(lps)
    }

    /// Solve all three LPs with the dense two-phase tableau solver — the
    /// slow reference oracle the sparse path and the closed forms are
    /// validated against in tests and experiment smoke runs.
    ///
    /// # Errors
    ///
    /// As for [`QueryLps::solve`].
    pub fn solve_dense(q: &Query) -> Result<QueryLps> {
        let vertex_cover = solve_vertex_cover(q)?;
        let edge_packing = solve_edge_packing(q)?;
        let edge_cover = solve_edge_cover(q)?;
        if vertex_cover.total() != edge_packing.total() {
            // LP duality guarantees equality; a mismatch is a solver bug.
            return Err(LpError::Malformed(format!(
                "duality violated for {}: cover {} vs packing {}",
                q.name(),
                vertex_cover.total(),
                edge_packing.total()
            )));
        }
        Ok(QueryLps { vertex_cover, edge_packing, edge_cover })
    }

    /// Assemble a triple from already-validated parts (the closed forms).
    pub(crate) fn from_parts(
        vertex_cover: VertexCover,
        edge_packing: EdgePacking,
        edge_cover: EdgeCover,
    ) -> QueryLps {
        QueryLps { vertex_cover, edge_packing, edge_cover }
    }

    /// The fractional covering number `τ*(q)`.
    pub fn covering_number(&self) -> Rational {
        self.vertex_cover.total()
    }

    /// The optimal fractional vertex cover.
    pub fn vertex_cover(&self) -> &VertexCover {
        &self.vertex_cover
    }

    /// The optimal fractional edge packing.
    pub fn edge_packing(&self) -> &EdgePacking {
        &self.edge_packing
    }

    /// The optimal fractional edge cover.
    pub fn edge_cover(&self) -> &EdgeCover {
        &self.edge_cover
    }
}

/// Solve the fractional vertex-cover LP of `q` with the dense oracle.
pub fn solve_vertex_cover(q: &Query) -> Result<VertexCover> {
    let k = q.num_vars();
    let mut lp = LinearProgram::new(Objective::Minimize, vec![Rational::ONE; k]);
    for a in q.atom_ids() {
        let mut row = vec![Rational::ZERO; k];
        for v in q.vars_of_atom(a)? {
            row[v.0] = Rational::ONE;
        }
        lp = lp.constrain(row, ConstraintOp::Ge, Rational::ONE)?;
    }
    let sol = lp.solve()?;
    Ok(VertexCover { weights: sol.variables, total: sol.objective_value })
}

/// Solve the fractional edge-packing LP of `q` with the dense oracle.
pub fn solve_edge_packing(q: &Query) -> Result<EdgePacking> {
    let l = q.num_atoms();
    let mut lp = LinearProgram::new(Objective::Maximize, vec![Rational::ONE; l]);
    for v in q.var_ids() {
        let mut row = vec![Rational::ZERO; l];
        for a in q.atoms_of_var(v) {
            row[a.0] = Rational::ONE;
        }
        lp = lp.constrain(row, ConstraintOp::Le, Rational::ONE)?;
    }
    let sol = lp.solve()?;
    Ok(EdgePacking { weights: sol.variables, total: sol.objective_value })
}

/// Solve the fractional edge-cover LP of `q` with the dense oracle.
pub fn solve_edge_cover(q: &Query) -> Result<EdgeCover> {
    let l = q.num_atoms();
    let mut lp = LinearProgram::new(Objective::Minimize, vec![Rational::ONE; l]);
    for v in q.var_ids() {
        let mut row = vec![Rational::ZERO; l];
        for a in q.atoms_of_var(v) {
            row[a.0] = Rational::ONE;
        }
        lp = lp.constrain(row, ConstraintOp::Ge, Rational::ONE)?;
    }
    let sol = lp.solve()?;
    Ok(EdgeCover { weights: sol.variables, total: sol.objective_value })
}

/// The fractional covering number `τ*(q)` (shortcut for
/// `QueryLps::solve(q)?.covering_number()`, so it shares the closed-form
/// fast path).
pub fn tau_star(q: &Query) -> Result<Rational> {
    Ok(QueryLps::solve(q)?.covering_number())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn tau_star_of_running_examples() {
        // Table 1 of the paper.
        assert_eq!(tau_star(&families::cycle(3)).unwrap(), r(3, 2));
        assert_eq!(tau_star(&families::cycle(4)).unwrap(), r(2, 1));
        assert_eq!(tau_star(&families::cycle(5)).unwrap(), r(5, 2));
        assert_eq!(tau_star(&families::cycle(6)).unwrap(), r(3, 1));
        for k in 1..=5 {
            assert_eq!(tau_star(&families::star(k)).unwrap(), r(1, 1), "T{k}");
        }
        for k in 1..=7usize {
            assert_eq!(tau_star(&families::chain(k)).unwrap(), r(k.div_ceil(2) as i128, 1), "L{k}");
        }
        // B(k,m): τ* = k/m.
        assert_eq!(tau_star(&families::binomial(4, 2).unwrap()).unwrap(), r(2, 1));
        assert_eq!(tau_star(&families::binomial(3, 2).unwrap()).unwrap(), r(3, 2));
        assert_eq!(tau_star(&families::binomial(5, 3).unwrap()).unwrap(), r(5, 3));
        // SPk: τ* = k.
        for k in 1..=4 {
            assert_eq!(tau_star(&families::spoke(k)).unwrap(), r(k as i128, 1), "SP{k}");
        }
    }

    #[test]
    fn duality_cover_equals_packing() {
        for q in [
            families::cycle(3),
            families::cycle(5),
            families::chain(4),
            families::star(3),
            families::binomial(4, 2).unwrap(),
            families::spoke(2),
            families::witness_query(),
        ] {
            let lps = QueryLps::solve(&q).unwrap();
            assert_eq!(
                lps.vertex_cover().total(),
                lps.edge_packing().total(),
                "duality for {}",
                q.name()
            );
            assert!(lps.vertex_cover().is_valid_for(&q), "cover valid for {}", q.name());
            assert!(lps.edge_packing().is_valid_for(&q), "packing valid for {}", q.name());
            assert!(lps.edge_cover().is_valid_for(&q), "edge cover valid for {}", q.name());
        }
    }

    #[test]
    fn example_2_2_l3_cover_and_packing() {
        // Example 2.2: τ*(L3) = 2; the optimal packing (1,0,1) is tight.
        let l3 = families::chain(3);
        let lps = QueryLps::solve(&l3).unwrap();
        assert_eq!(lps.covering_number(), r(2, 1));
        // The canonical optimal packing (1,0,1) is valid and tight.
        let packing = EdgePacking::from_weights(vec![r(1, 1), r(0, 1), r(1, 1)]).unwrap();
        assert!(packing.is_valid_for(&l3));
        assert!(packing.is_tight_for(&l3));
        assert_eq!(packing.total(), lps.covering_number());
        // The canonical optimal cover (0,1,1,0) is valid but NOT tight.
        let cover = VertexCover::from_weights(vec![r(0, 1), r(1, 1), r(1, 1), r(0, 1)]).unwrap();
        assert!(cover.is_valid_for(&l3));
        assert!(!cover.is_tight_for(&l3));
    }

    #[test]
    fn triangle_cover_is_half_each_and_tight() {
        let c3 = families::cycle(3);
        let cover = VertexCover::from_weights(vec![r(1, 2); 3]).unwrap();
        assert!(cover.is_valid_for(&c3));
        assert!(cover.is_tight_for(&c3));
        assert_eq!(cover.total(), r(3, 2));
        let lps = QueryLps::solve(&c3).unwrap();
        assert_eq!(lps.covering_number(), r(3, 2));
        // Packing slack for the extended query: all zero when tight.
        let packing = EdgePacking::from_weights(vec![r(1, 2); 3]).unwrap();
        assert!(packing.is_tight_for(&c3));
        assert!(packing.variable_slacks(&c3).iter().all(Rational::is_zero));
    }

    #[test]
    fn star_cover_puts_weight_on_center() {
        let t3 = families::star(3);
        let lps = QueryLps::solve(&t3).unwrap();
        assert_eq!(lps.covering_number(), Rational::ONE);
        let cover = lps.vertex_cover();
        assert!(cover.is_valid_for(&t3));
        // The returned optimal cover must put full weight on the center z.
        let z = t3.var_id("z").unwrap();
        assert_eq!(cover.weight(z), Rational::ONE);
    }

    #[test]
    fn edge_cover_differs_from_packing_for_chains() {
        // For L3, the optimal edge cover has value 2 (S1 and S3), equal to
        // the packing here; for T3 (star), edge cover = 3 but packing = 1.
        let t3 = families::star(3);
        let lps = QueryLps::solve(&t3).unwrap();
        assert_eq!(lps.edge_cover().total(), r(3, 1));
        assert_eq!(lps.edge_packing().total(), r(1, 1));
    }

    #[test]
    fn variable_slacks_complement_packing() {
        let l3 = families::chain(3);
        let lps = QueryLps::solve(&l3).unwrap();
        let slacks = lps.edge_packing().variable_slacks(&l3);
        // Every slack is in [0, 1].
        assert!(slacks.iter().all(|s| !s.is_negative() && *s <= Rational::ONE));
        // Lemma 3.9(b): Σ_j a_j u_j + Σ_i u'_i = k.
        let mut total = Rational::ZERO;
        for a in l3.atom_ids() {
            let arity = r(l3.atom(a).unwrap().arity() as i128, 1);
            total += arity * lps.edge_packing().weight(a);
        }
        for s in &slacks {
            total += *s;
        }
        assert_eq!(total, r(l3.num_vars() as i128, 1));
    }

    #[test]
    fn invalid_covers_are_rejected() {
        let c3 = families::cycle(3);
        let too_small = VertexCover::from_weights(vec![r(1, 4); 3]).unwrap();
        assert!(!too_small.is_valid_for(&c3));
        let wrong_len = VertexCover::from_weights(vec![r(1, 1); 2]).unwrap();
        assert!(!wrong_len.is_valid_for(&c3));
        let negative = VertexCover::from_weights(vec![r(3, 2), r(-1, 2), r(1, 2)]).unwrap();
        assert!(!negative.is_valid_for(&c3));
        let over_packed = EdgePacking::from_weights(vec![r(1, 1); 3]).unwrap();
        assert!(!over_packed.is_valid_for(&c3));
    }

    #[test]
    fn witness_query_tau_star() {
        // q(w,x,y,z) = R(w), S1(w,x), S2(x,y), S3(y,z), T(z): τ* = 2 is noted
        // in the footnote of Section 3.2 (before removing unary atoms... the
        // footnote query has τ* = 2; with the extra unary atoms here the
        // packing can use R, S2 and T: τ* = 3).
        let q = families::witness_query();
        let tau = tau_star(&q).unwrap();
        assert_eq!(tau, r(3, 1));
        // Dropping the unary atoms leaves L3 with τ* = 2, the value used in
        // Prop 3.12's analysis of the subquery q' = S1,S2,S3.
        let s1 = q.atom_by_name("S1").unwrap().0;
        let s2 = q.atom_by_name("S2").unwrap().0;
        let s3 = q.atom_by_name("S3").unwrap().0;
        let sub = q.induced_subquery(&[s1, s2, s3]).unwrap();
        assert_eq!(tau_star(&sub).unwrap(), r(2, 1));
    }

    #[test]
    fn corollary_3_10_tau_one_iff_shared_variable() {
        // τ*(q) = 1 iff some variable occurs in all atoms.
        let cases = [
            (families::star(4), true),
            (families::chain(2), true),
            (families::chain(3), false),
            (families::cycle(3), false),
            (families::spoke(2), false),
            (families::binomial(3, 2).unwrap(), false),
        ];
        for (q, expect_one) in cases {
            let tau = tau_star(&q).unwrap();
            assert_eq!(tau == Rational::ONE, expect_one, "{}", q.name());
            assert_eq!(q.has_variable_in_all_atoms(), expect_one, "{}", q.name());
        }
    }
}
