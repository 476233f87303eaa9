//! One-stop structural analysis of a query: everything Table 1 and Table 2
//! of the paper report, computed exactly.

use serde::Serialize;

use mpc_cq::Query;
use mpc_data::DbStatistics;
use mpc_lp::cover::VertexCover;
use mpc_lp::{QueryLps, Rational};

use crate::heavy::heavy_occurrences;
use crate::multiround::load::PlanLoadPrediction;
use crate::multiround::lower_bound::round_lower_bound;
use crate::multiround::planner::{check_plannable, round_upper_bound, MultiRoundPlan};
use crate::output_sensitive::OutputSensitiveBounds;
use crate::plan::PlannerChoice;
use crate::shares::ShareAllocation;
use crate::Result;

/// Round bounds of a query at a particular space exponent ε.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RoundBounds {
    /// Lower bound for tuple-based MPC(ε) algorithms (Corollary 4.8 /
    /// Lemma 4.9 / Theorem 4.5).
    pub lower: usize,
    /// Depth of the greedy `Γ^r_ε` plan this library constructs (an upper
    /// bound achieved by an executable algorithm).
    pub plan_depth: usize,
    /// The analytic radius-based upper bound of Lemma 4.3.
    pub radius_upper: usize,
}

/// The complete structural analysis of a connected conjunctive query.
#[derive(Debug, Clone, Serialize)]
pub struct QueryAnalysis {
    /// The analysed query (display form).
    pub query_text: String,
    /// Query name.
    pub name: String,
    /// Number of variables `k`.
    pub num_vars: usize,
    /// Number of atoms `ℓ`.
    pub num_atoms: usize,
    /// Total arity `a`.
    pub total_arity: usize,
    /// The characteristic `χ(q) = k + ℓ − a − c`.
    pub characteristic: i64,
    /// Whether the query is tree-like (connected and `χ = 0`).
    pub is_tree_like: bool,
    /// Hypergraph radius.
    pub radius: Option<usize>,
    /// Hypergraph diameter.
    pub diameter: Option<usize>,
    /// The fractional covering number `τ*`.
    pub tau_star: Rational,
    /// An optimal fractional vertex cover (one weight per variable).
    pub vertex_cover: Vec<Rational>,
    /// An optimal fractional edge packing (one weight per atom).
    pub edge_packing: Vec<Rational>,
    /// An optimal fractional edge cover (one weight per atom) — the AGM
    /// exponents used by the output-sensitive bounds.
    pub edge_cover: Vec<Rational>,
    /// The fractional edge-cover value `ρ*` (the AGM exponent of the
    /// journal version's emission lower bound).
    pub rho_star: Rational,
    /// The one-round space exponent `ε* = 1 − 1/τ*`.
    pub space_exponent: Rational,
    /// Share exponents `vᵢ/τ*` (Section 3.1), one per variable.
    pub share_exponents: Vec<Rational>,
    /// Exponent `e` such that the expected answer size over matching
    /// databases is `n^e` (Lemma 3.4: `e = 1 + χ` for connected queries).
    pub expected_answer_exponent: i64,
    /// Which LP-solver path produced the triple: `"closed-form"` or
    /// `"simplex"` (see `mpc_lp::SolverPath`).
    pub lp_solver_path: String,
    #[serde(skip)]
    query: Query,
}

impl QueryAnalysis {
    /// Analyse a query.
    ///
    /// The LP triple comes from [`QueryLps::solve`] (closed-form families,
    /// else sparse simplex); [`QueryAnalysis::lp_solver_path`] records
    /// which path answered. Nothing is memoised: the analysis is a pure
    /// function of `q`, identical whatever was analysed before it.
    ///
    /// # Errors
    ///
    /// Propagates LP errors.
    pub fn analyze(q: &Query) -> Result<Self> {
        let (lps, path) = QueryLps::solve_traced(q)?;
        let tau = lps.covering_number();
        let space_exponent = Rational::ONE - tau.recip()?;
        let share_exponents = lps
            .vertex_cover()
            .weights()
            .iter()
            .map(|v| v.checked_div(&tau))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        Ok(QueryAnalysis {
            query_text: q.to_string(),
            name: q.name().to_string(),
            num_vars: q.num_vars(),
            num_atoms: q.num_atoms(),
            total_arity: q.total_arity(),
            characteristic: q.characteristic(),
            is_tree_like: q.is_tree_like(),
            radius: q.radius(),
            diameter: q.diameter(),
            tau_star: tau,
            vertex_cover: lps.vertex_cover().weights().to_vec(),
            edge_packing: lps.edge_packing().weights().to_vec(),
            edge_cover: lps.edge_cover().weights().to_vec(),
            rho_star: lps.edge_cover().total(),
            space_exponent,
            share_exponents,
            expected_answer_exponent: mpc_storage::estimate::expected_answer_exponent(q),
            lp_solver_path: path.to_string(),
            query: q.clone(),
        })
    }

    /// The analysed query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The integer share allocation for `p` servers: the optimal cover this
    /// analysis already holds, rounded (no LP is solved).
    ///
    /// # Errors
    ///
    /// Rejects `p == 0`.
    pub fn shares_for(&self, p: usize) -> Result<ShareAllocation> {
        let cover = VertexCover::from_weights(self.vertex_cover.clone())?;
        ShareAllocation::from_cover(&self.query, &cover, p)
    }

    /// Round lower/upper bounds at a given space exponent (connected
    /// queries only).
    ///
    /// # Errors
    ///
    /// Propagates LP and planning errors.
    pub fn round_bounds(&self, epsilon: Rational) -> Result<RoundBounds> {
        let lower = round_lower_bound(&self.query, epsilon)?;
        let plan = MultiRoundPlan::build(&self.query, epsilon)?;
        let radius_upper = round_upper_bound(&self.query, epsilon)?;
        Ok(RoundBounds { lower, plan_depth: plan.num_rounds(), radius_upper })
    }

    /// The journal version's output-sensitive load bounds at `(n, m, p)`,
    /// built from this analysis' already-solved LP duals (no re-solve).
    ///
    /// # Errors
    ///
    /// Propagates rational-arithmetic errors.
    pub fn output_bounds(&self, n: u64, m: u64, p: usize) -> Result<OutputSensitiveBounds> {
        OutputSensitiveBounds::from_lp_values(
            self.tau_star,
            self.rho_star,
            self.expected_answer_exponent,
            self.num_atoms,
            n,
            m,
            p,
        )
    }

    /// The journal version's refined multi-round analysis: plan the query
    /// at `epsilon` and predict the per-round per-server loads on `p`
    /// servers over `n`-tuple base relations.
    ///
    /// # Errors
    ///
    /// Propagates planning and LP errors.
    pub fn round_load_profile(
        &self,
        epsilon: Rational,
        p: usize,
        n: u64,
    ) -> Result<PlanLoadPrediction> {
        MultiRoundPlan::build(&self.query, epsilon)?.predict_loads(p, n)
    }

    /// The strategy picker: which planner should run this query at space
    /// exponent `epsilon`, given whether the data is skewed (heavy
    /// hitters above the share threshold).
    ///
    /// | data      | tree-like, 1 round | tree-like, deep | cyclic |
    /// |-----------|--------------------|-----------------|--------|
    /// | skew-free | HyperCube          | multi-round     | HyperCube / multi-round |
    /// | skewed    | skew-resilient     | multi-round     | **worst-case optimal**  |
    ///
    /// Skew-free data never needs the heavy machinery (the HyperCube is
    /// already optimal there, Proposition 3.2); skewed tree-like queries
    /// are handled by the one-round residual plans of [`crate::skew`] or the
    /// multi-round `Γ^r_ε` plan; skewed *cyclic* queries are where the
    /// one-round load provably degrades to `n/p^{1/2}`-style bounds and
    /// the BKS 2018 heavy/light strategy
    /// ([`crate::wco::WorstCaseOptimalPlan`]) wins.
    ///
    /// When the caller holds [`DbStatistics`] rather than a pre-computed
    /// skew verdict, use [`QueryAnalysis::planner_choice_with_stats`] —
    /// it derives `skewed` from the same scan (or sample) every other
    /// planner consumes. The answer carries what its program needs (the
    /// plan's ε, the default skew threshold), so
    /// [`PlannerChoice::build`] runs it as it is.
    ///
    /// ```
    /// use mpc_core::analysis::QueryAnalysis;
    /// use mpc_core::plan::PlannerChoice;
    /// use mpc_lp::Rational;
    ///
    /// // The triangle is one-round computable at its ε* = 1/3 — but only
    /// // the worst-case optimal strategy survives skew on a cyclic query.
    /// let c3 = QueryAnalysis::analyze(&mpc_cq::families::triangle()).unwrap();
    /// let eps = Rational::new(1, 3);
    /// assert_eq!(c3.planner_choice(eps, false).unwrap(), PlannerChoice::OneRoundHyperCube);
    /// assert_eq!(c3.planner_choice(eps, true).unwrap(), PlannerChoice::WorstCaseOptimal);
    ///
    /// // A deep chain at ε = 0 takes the multi-round plan either way.
    /// let l8 = QueryAnalysis::analyze(&mpc_cq::families::chain(8)).unwrap();
    /// let deep = PlannerChoice::MultiRound { plan_epsilon: Rational::ZERO };
    /// assert_eq!(l8.planner_choice(Rational::ZERO, true).unwrap(), deep);
    /// ```
    ///
    /// # Errors
    ///
    /// Those of multi-round planning's argument check: a disconnected
    /// query is [`crate::CoreError::Unsupported`], `ε ∉ [0, 1)` is
    /// [`crate::CoreError::InvalidPlan`].
    pub fn planner_choice(&self, epsilon: Rational, skewed: bool) -> Result<PlannerChoice> {
        check_plannable(&self.query, epsilon)?;
        // The `Γ^r_ε` plan has depth 1 exactly when the query itself is in
        // `Γ¹_ε`, i.e. `τ* ≤ 1/(1−ε)` ⇔ `ε*(q) = 1 − 1/τ* ≤ ε` — a bit
        // this analysis already holds.
        let one_round = self.space_exponent <= epsilon;
        Ok(match (skewed, self.is_tree_like, one_round) {
            (false, _, true) => PlannerChoice::OneRoundHyperCube,
            (true, true, true) => PlannerChoice::OneRoundSkewResilient { scale: 1.0 },
            (true, false, _) => PlannerChoice::WorstCaseOptimal,
            _ => PlannerChoice::MultiRound { plan_epsilon: epsilon },
        })
    }

    /// Does the data exceed the share-threshold skew bound anywhere?
    ///
    /// A value is skew evidence at variable `x` when its (estimated)
    /// frequency at some occurrence of `x` exceeds `|R| / p_x` for that
    /// atom's relation and `x`'s integer share on `p` servers — the exact
    /// threshold beyond which hash-partitioning cannot balance the
    /// HyperCube, and the very comparison both skew planners key heavy
    /// values on ([`heavy_occurrences`]). Variables with share 1 are never
    /// skew evidence: the HyperCube does not balance on them.
    ///
    /// The verdict is read from [`DbStatistics`], so one scan (or one
    /// seeded sample) serves analysis, detection and planning alike; under
    /// sampled statistics the verdict inherits the sample's confidence —
    /// a hitter the sample missed is consistently invisible to every
    /// consumer, which degrades balance, never correctness.
    ///
    /// # Errors
    ///
    /// Propagates LP/allocation errors from the share computation.
    pub fn is_skewed(&self, p: usize, stats: &DbStatistics) -> Result<bool> {
        let alloc = self.shares_for(p)?;
        let skewed = heavy_occurrences(&self.query, stats, &alloc, 1.0).next().is_some();
        Ok(skewed)
    }

    /// [`QueryAnalysis::planner_choice`] with the skew verdict derived
    /// from shared [`DbStatistics`] (see [`QueryAnalysis::is_skewed`])
    /// instead of a caller-supplied boolean — the entry point of the
    /// adaptive runtime, where one `DbStatistics::collect` feeds the
    /// strategy picker, the heavy-hitter detector and the WCO planner
    /// without re-scanning the database.
    ///
    /// # Errors
    ///
    /// Propagates planning and LP errors.
    pub fn planner_choice_with_stats(
        &self,
        epsilon: Rational,
        p: usize,
        stats: &DbStatistics,
    ) -> Result<PlannerChoice> {
        let skewed = self.is_skewed(p, stats)?;
        self.planner_choice(epsilon, skewed)
    }

    /// Human-readable one-line summary (used by the table binaries).
    pub fn summary(&self) -> String {
        format!(
            "{}: k={} ℓ={} τ*={} ε*={} χ={} rad={:?} diam={:?} E[|q|]=n^{}",
            self.name,
            self.num_vars,
            self.num_atoms,
            self.tau_star,
            self.space_exponent,
            self.characteristic,
            self.radius,
            self.diameter,
            self.expected_answer_exponent
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn table_1_rows() {
        // Ck row.
        let a = QueryAnalysis::analyze(&families::cycle(5)).unwrap();
        assert_eq!(a.tau_star, r(5, 2));
        assert_eq!(a.space_exponent, r(3, 5));
        assert_eq!(a.share_exponents, vec![r(1, 5); 5]);
        assert_eq!(a.expected_answer_exponent, 0); // E = n^0 = 1

        // Tk row.
        let a = QueryAnalysis::analyze(&families::star(4)).unwrap();
        assert_eq!(a.tau_star, Rational::ONE);
        assert_eq!(a.space_exponent, Rational::ZERO);
        assert_eq!(a.expected_answer_exponent, 1); // E = n

        // Lk row.
        let a = QueryAnalysis::analyze(&families::chain(5)).unwrap();
        assert_eq!(a.tau_star, r(3, 1));
        assert_eq!(a.space_exponent, r(2, 3));
        assert_eq!(a.expected_answer_exponent, 1);
        // B(k,m) row.
        let a = QueryAnalysis::analyze(&families::binomial(4, 2).unwrap()).unwrap();
        assert_eq!(a.tau_star, r(2, 1));
        assert_eq!(a.space_exponent, r(1, 2));
        assert_eq!(a.expected_answer_exponent, 4 - 6);
    }

    #[test]
    fn share_exponents_sum_to_one() {
        for q in [families::cycle(3), families::chain(7), families::spoke(3)] {
            let a = QueryAnalysis::analyze(&q).unwrap();
            assert_eq!(Rational::sum(a.share_exponents.iter()).unwrap(), Rational::ONE);
        }
    }

    #[test]
    fn table_2_round_bounds() {
        // Lk at ε = 0: ⌈log₂ k⌉ rounds, lower = upper.
        let a = QueryAnalysis::analyze(&families::chain(8)).unwrap();
        let b = a.round_bounds(Rational::ZERO).unwrap();
        assert_eq!(b.lower, 3);
        assert_eq!(b.plan_depth, 3);
        // SPk at ε = 0: exactly two rounds.
        let a = QueryAnalysis::analyze(&families::spoke(4)).unwrap();
        let b = a.round_bounds(Rational::ZERO).unwrap();
        assert_eq!(b.lower, 2);
        assert_eq!(b.plan_depth, 2);
        // Tk: one round suffices.
        let a = QueryAnalysis::analyze(&families::star(6)).unwrap();
        let b = a.round_bounds(Rational::ZERO).unwrap();
        assert_eq!(b.lower, 1);
        assert_eq!(b.plan_depth, 1);
    }

    #[test]
    fn summary_mentions_key_quantities() {
        let a = QueryAnalysis::analyze(&families::cycle(3)).unwrap();
        let s = a.summary();
        assert!(s.contains("C3"));
        assert!(s.contains("3/2"));
        assert!(s.contains("1/3"));
    }

    #[test]
    fn solver_path_is_recorded() {
        let a = QueryAnalysis::analyze(&families::cycle(11)).unwrap();
        assert_eq!(a.lp_solver_path, "closed-form");
        // The witness query is no family: simplex, however often it (or
        // anything else, on any test thread) has been analysed before.
        for _ in 0..2 {
            let w = QueryAnalysis::analyze(&families::witness_query()).unwrap();
            assert_eq!(w.lp_solver_path, "simplex");
        }
    }

    #[test]
    fn edge_cover_and_rho_star_are_exposed() {
        // T3: packing value 1 but edge cover 3 (one unit per leaf atom).
        let a = QueryAnalysis::analyze(&families::star(3)).unwrap();
        assert_eq!(a.rho_star, r(3, 1));
        assert_eq!(a.edge_cover.len(), a.num_atoms);
        assert_eq!(Rational::sum(a.edge_cover.iter()).unwrap(), a.rho_star);
        // C4: cover and packing coincide at 2.
        let a = QueryAnalysis::analyze(&families::cycle(4)).unwrap();
        assert_eq!(a.rho_star, r(2, 1));
    }

    #[test]
    fn output_bounds_reuse_the_analysis_duals() {
        let a = QueryAnalysis::analyze(&families::cycle(3)).unwrap();
        let b = a.output_bounds(1000, 1000, 8).unwrap();
        assert_eq!(b.tau_star, a.tau_star);
        assert_eq!(b.rho_star, a.rho_star);
        // (1000/8)^(2/3) = 25.
        assert!((b.lower_tuples - 25.0).abs() < 1e-9);
    }

    #[test]
    fn round_load_profile_covers_every_plan_round() {
        let a = QueryAnalysis::analyze(&families::chain(8)).unwrap();
        let profile = a.round_load_profile(Rational::ZERO, 8, 500).unwrap();
        assert_eq!(profile.rounds.len(), 3); // ⌈log₂ 8⌉
        assert!(profile.max_predicted_tuples() > 0.0);
    }

    #[test]
    fn planner_choice_equals_the_depth_of_the_plan_it_no_longer_builds() {
        // The oracle is the old body: build the whole `Γ^r_ε` plan and
        // ask whether it has one round.
        let oracle = |a: &QueryAnalysis, eps: Rational, skewed: bool| {
            let one_round = MultiRoundPlan::build(a.query(), eps).unwrap().num_rounds() == 1;
            match (skewed, a.is_tree_like, one_round) {
                (false, _, true) => PlannerChoice::OneRoundHyperCube,
                (true, true, true) => PlannerChoice::OneRoundSkewResilient { scale: 1.0 },
                (true, false, _) => PlannerChoice::WorstCaseOptimal,
                _ => PlannerChoice::MultiRound { plan_epsilon: eps },
            }
        };
        let queries = (3..=6)
            .map(families::cycle)
            .chain((2..=9).map(families::chain))
            .chain((2..=5).map(families::star))
            .chain((2..=4).map(families::spoke))
            .chain([families::binomial(4, 2).unwrap(), families::witness_query()]);
        let mut seen = std::collections::BTreeSet::new();
        for q in queries {
            let a = QueryAnalysis::analyze(&q).unwrap();
            for eps in [Rational::ZERO, r(1, 3), r(1, 2), r(2, 3), r(3, 4)] {
                for skewed in [false, true] {
                    let choice = a.planner_choice(eps, skewed).unwrap();
                    assert_eq!(
                        choice,
                        oracle(&a, eps, skewed),
                        "{} ε={eps} skewed={skewed}",
                        a.name
                    );
                    seen.insert(choice.to_string());
                }
            }
        }
        assert_eq!(seen.len(), 4, "every choice was exercised: {seen:?}");

        // The plan's two argument errors survive, whatever the skew.
        let c3 = QueryAnalysis::analyze(&families::triangle()).unwrap();
        let apart = mpc_cq::parser::parse_query("q(x,y) :- R(x), S(y)").unwrap();
        let apart = QueryAnalysis::analyze(&apart).unwrap();
        for skewed in [false, true] {
            for eps in [Rational::ONE, r(3, 2), r(-1, 2)] {
                let err = c3.planner_choice(eps, skewed).unwrap_err();
                assert!(matches!(err, crate::CoreError::InvalidPlan(_)), "{eps}: {err}");
            }
            let err = apart.planner_choice(Rational::ZERO, skewed).unwrap_err();
            assert!(matches!(err, crate::CoreError::Unsupported(_)), "{err}");
        }
    }

    #[test]
    fn stats_driven_planner_choice_detects_skew() {
        let q = families::triangle();
        let a = QueryAnalysis::analyze(&q).unwrap();
        let eps = r(1, 3);
        // A matching database is skew-free: no value repeats in a column.
        let db = mpc_data::matching_database(&q, 600, 7);
        let stats = DbStatistics::collect(&db, mpc_data::StatsMode::Exact);
        assert!(!a.is_skewed(27, &stats).unwrap());
        assert_eq!(
            a.planner_choice_with_stats(eps, 27, &stats).unwrap(),
            PlannerChoice::OneRoundHyperCube
        );
        // A planted hitter on half of every relation crosses `|R| / p_x`.
        let db = mpc_data::skew::heavy_hitter_database(&q, 1000, 2000, 0.5, 11);
        let stats = DbStatistics::collect(&db, mpc_data::StatsMode::Exact);
        assert!(a.is_skewed(27, &stats).unwrap());
        assert_eq!(
            a.planner_choice_with_stats(eps, 27, &stats).unwrap(),
            PlannerChoice::WorstCaseOptimal
        );
        // A seeded sample reaches the same verdict from O(budget) tuples:
        // a value on half the relation cannot hide from 400 draws.
        let mode = mpc_data::StatsMode::Sampled { budget: 400, seed: 3 };
        let sampled = DbStatistics::collect(&db, mode);
        assert!(a.is_skewed(27, &sampled).unwrap());
    }

    #[test]
    fn shares_for_exposes_allocation() {
        let a = QueryAnalysis::analyze(&families::cycle(3)).unwrap();
        let alloc = a.shares_for(27).unwrap();
        assert_eq!(alloc.shares, vec![3, 3, 3]);
        // The stored cover, rounded, is the allocation a fresh solve gives.
        for q in [families::chain(7), families::witness_query(), families::spoke(3)] {
            let a = QueryAnalysis::analyze(&q).unwrap();
            for p in [1, 16, 64] {
                assert_eq!(a.shares_for(p).unwrap(), ShareAllocation::optimal(&q, p).unwrap());
            }
        }
    }
}
