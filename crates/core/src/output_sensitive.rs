//! Output-sensitive load bounds of the journal version (*Beame, Koutris &
//! Suciu, "Communication Cost in Parallel Query Processing"*,
//! arXiv:1602.06236).
//!
//! The 2013 conference paper states its one-round bounds in terms of the
//! input size alone: any one-round algorithm needs per-server load
//! `L ≳ n / p^{1/τ*}` and HyperCube achieves it. The journal version
//! refines both sides with the **output cardinality `m`**:
//!
//! * **Emission lower bound** (instance-level, deterministic). A server
//!   that received at most `L` tuples of each relation can emit at most
//!   `L^{ρ*}` answers, where `ρ*` is the optimal *fractional edge cover*
//!   value — this is the AGM/Friedgut bound applied to the server's
//!   received fragments (Section 4 of the journal version; the same
//!   inequality that powers Lemma 3.7 of the conference paper). Since the
//!   `p` servers together must emit all `m` answers,
//!   `m ≤ p · L^{ρ*}`, i.e. `L ≥ (m/p)^{1/ρ*}`. This holds for **every**
//!   run of every correct tuple-based algorithm, which is what makes it a
//!   hard CI gate: a simulated max load below it is a simulator bug.
//! * **Matching-expectation lower bound** (distributional). Over random
//!   matching databases, a server receiving an `L/n` fraction of each
//!   relation knows an expected `(L/n)^{τ*}` fraction of the `E[|q|] = n^e`
//!   answers (`e = c + χ(q)`, Lemma 3.4), for `τ*` the optimal edge
//!   *packing* value. Reporting `m` answers in expectation therefore needs
//!   `p · (L/n)^{τ*} · n^e ≥ m`, i.e.
//!   `L ≥ n^{1−e/τ*} · (m/p)^{1/τ*}`; at `m = E[|q|]` this is exactly the
//!   conference bound `n / p^{1/τ*}`.
//! * **Upper bound**. HyperCube with fractional shares receives at most
//!   `ℓ · n / p^{1/τ*}` tuples per server in expectation on skew-free
//!   inputs; [`OutputSensitiveBounds::rounded_upper_tuples`] re-derives the
//!   same quantity from an actual *integer* [`ShareAllocation`], so the
//!   rounding penalty is part of the predicted number rather than hidden
//!   in a constant.
//!
//! All exponents are **exact rationals** read off the LP layer's duals
//! (the packing/cover totals of [`QueryLps`]); only the final evaluation
//! at concrete `(n, m, p)` goes through `f64`.

use serde::Serialize;
use std::fmt;

use mpc_cq::Query;
use mpc_lp::{QueryLps, Rational};

use crate::shares::ShareAllocation;
use crate::Result;

/// A load expression `coeff · n^a · m^b · p^c` with exact rational
/// exponents, evaluated lazily so the symbolic form stays inspectable
/// (and testable against the journal's closed forms).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LoadExpr {
    /// Multiplicative constant (usually 1 or the number of atoms `ℓ`).
    pub coeff: Rational,
    /// Exponent of the per-relation input cardinality `n`.
    pub n_exp: Rational,
    /// Exponent of the output cardinality `m`.
    pub m_exp: Rational,
    /// Exponent of the server count `p`.
    pub p_exp: Rational,
}

impl LoadExpr {
    /// Evaluate at concrete `(n, m, p)`, in tuples. `0^0 = 1` by the usual
    /// convention; an expression with positive `m`-exponent evaluates to 0
    /// at `m = 0` (no output ⇒ no emission obligation).
    pub fn eval(&self, n: u64, m: u64, p: usize) -> f64 {
        self.coeff.to_f64()
            * pow(n as f64, self.n_exp)
            * pow(m as f64, self.m_exp)
            * pow(p as f64, self.p_exp)
    }
}

impl fmt::Display for LoadExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.coeff != Rational::ONE {
            parts.push(self.coeff.to_string());
        }
        for (base, exp) in [("n", self.n_exp), ("m", self.m_exp), ("p", self.p_exp)] {
            if exp == Rational::ONE {
                parts.push(base.to_string());
            } else if !exp.is_zero() {
                parts.push(format!("{base}^({exp})"));
            }
        }
        if parts.is_empty() {
            parts.push("1".to_string());
        }
        write!(f, "{}", parts.join("·"))
    }
}

/// `base^exp` for a rational exponent (`0^0 = 1`, `0^positive = 0`).
fn pow(base: f64, exp: Rational) -> f64 {
    if exp.is_zero() {
        return 1.0;
    }
    base.powf(exp.to_f64())
}

/// The journal-version load bounds of a query at `(n, m, p)`: `n` tuples
/// per relation, exactly `m` output tuples, `p` servers. Loads are in
/// tuples received per server in the (single) communication round.
#[derive(Debug, Clone, Serialize)]
pub struct OutputSensitiveBounds {
    /// Per-relation input cardinality.
    pub n: u64,
    /// Output cardinality.
    pub m: u64,
    /// Server count.
    pub p: usize,
    /// Optimal fractional edge-packing value `τ*` (= vertex-cover value).
    pub tau_star: Rational,
    /// Optimal fractional edge-cover value `ρ*` (the AGM exponent).
    pub rho_star: Rational,
    /// Exponent `e` with `E[|q|] = n^e` over matching databases.
    pub answer_exponent: i64,
    /// The emission lower bound `(m/p)^{1/ρ*}` in symbolic form.
    pub lower: LoadExpr,
    /// The matching-expectation lower bound
    /// `n^{1−e/τ*} · (m/p)^{1/τ*}` in symbolic form.
    pub matching_lower: LoadExpr,
    /// The fractional-share HyperCube upper bound `ℓ · n / p^{1/τ*}` in
    /// symbolic form.
    pub upper: LoadExpr,
    /// [`OutputSensitiveBounds::lower`] evaluated at `(n, m, p)`.
    pub lower_tuples: f64,
    /// [`OutputSensitiveBounds::matching_lower`] evaluated at `(n, m, p)`.
    pub matching_lower_tuples: f64,
    /// [`OutputSensitiveBounds::upper`] evaluated at `(n, m, p)`.
    pub upper_tuples: f64,
    /// Some server must *emit* at least `m/p` answers (before cross-server
    /// deduplication): every answer is emitted somewhere.
    pub output_lower_per_server: f64,
}

impl OutputSensitiveBounds {
    /// Compute the bounds for a query from the packing and edge-cover
    /// duals of [`QueryLps::solve`] (closed form, else sparse simplex).
    ///
    /// ```
    /// use mpc_core::output_sensitive::OutputSensitiveBounds;
    ///
    /// // C3 with full output m = E[|q|]: the matching-expectation bound
    /// // collapses to the conference bound n / p^(1/τ*) = n / p^(2/3).
    /// let q = mpc_cq::families::triangle();
    /// let b = OutputSensitiveBounds::compute(&q, 1000, 1, 8).unwrap();
    /// assert_eq!(b.tau_star, mpc_lp::Rational::new(3, 2));
    /// assert!((b.matching_lower_tuples - 1000.0 / 8f64.powf(2.0 / 3.0)).abs() < 1e-6);
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates LP errors.
    pub fn compute(q: &Query, n: u64, m: u64, p: usize) -> Result<Self> {
        let lps = QueryLps::solve(q)?;
        Self::from_lp_values(
            lps.edge_packing().total(),
            lps.edge_cover().total(),
            mpc_storage::estimate::expected_answer_exponent(q),
            q.num_atoms(),
            n,
            m,
            p,
        )
    }

    /// Build the bounds from already-solved LP values: the packing total
    /// `τ*`, the edge-cover total `ρ*`, the matching answer exponent `e`
    /// and the atom count `ℓ`. This is what [`crate::analysis::QueryAnalysis`]
    /// calls, so an analysis never re-solves the LPs.
    ///
    /// # Errors
    ///
    /// Rejects non-positive `τ*`/`ρ*` (impossible for real queries) and
    /// propagates rational-arithmetic errors.
    pub fn from_lp_values(
        tau_star: Rational,
        rho_star: Rational,
        answer_exponent: i64,
        num_atoms: usize,
        n: u64,
        m: u64,
        p: usize,
    ) -> Result<Self> {
        let inv_tau = tau_star.recip()?;
        let inv_rho = rho_star.recip()?;
        let lower = LoadExpr {
            coeff: Rational::ONE,
            n_exp: Rational::ZERO,
            m_exp: inv_rho,
            p_exp: Rational::ZERO - inv_rho,
        };
        let matching_lower = LoadExpr {
            coeff: Rational::ONE,
            n_exp: Rational::ONE - inv_tau.checked_mul(&Rational::from_int(answer_exponent))?,
            m_exp: inv_tau,
            p_exp: Rational::ZERO - inv_tau,
        };
        let upper = LoadExpr {
            coeff: Rational::new(num_atoms as i128, 1),
            n_exp: Rational::ONE,
            m_exp: Rational::ZERO,
            p_exp: Rational::ZERO - inv_tau,
        };
        Ok(OutputSensitiveBounds {
            n,
            m,
            p,
            tau_star,
            rho_star,
            answer_exponent,
            lower_tuples: lower.eval(n, m, p),
            matching_lower_tuples: matching_lower.eval(n, m, p),
            upper_tuples: upper.eval(n, m, p),
            output_lower_per_server: m as f64 / p as f64,
            lower,
            matching_lower,
            upper,
        })
    }

    /// The expected per-server received tuples of HyperCube under an
    /// actual **integer** share allocation: `Σⱼ n · replⱼ / cells`, where
    /// `replⱼ` is the replication factor of atom `j` and `cells` the cells
    /// actually used. This is the upper bound the CI gate compares against
    /// (times a slack factor for hash imbalance), so share rounding is
    /// accounted for exactly instead of being absorbed into a constant.
    ///
    /// # Errors
    ///
    /// Propagates query-structure errors.
    pub fn rounded_upper_tuples(&self, q: &Query, alloc: &ShareAllocation) -> Result<f64> {
        let cells = alloc.num_cells() as f64;
        let mut total = 0.0;
        for a in q.atom_ids() {
            total += self.n as f64 * alloc.replication_of_atom(q, a)? as f64 / cells;
        }
        Ok(total)
    }

    /// Check a simulated one-round run against the bracket
    /// `lower ≤ simulated ≤ rounded_upper · slack`.
    ///
    /// # Errors
    ///
    /// Propagates query-structure errors from the rounded upper bound.
    pub fn bracket(
        &self,
        q: &Query,
        alloc: &ShareAllocation,
        simulated_max_tuples: u64,
        slack: f64,
    ) -> Result<BracketVerdict> {
        let rounded_upper = self.rounded_upper_tuples(q, alloc)?;
        let simulated = simulated_max_tuples as f64;
        Ok(BracketVerdict {
            lower_tuples: self.lower_tuples,
            rounded_upper_tuples: rounded_upper,
            slack,
            simulated_max_tuples,
            lower_ok: simulated + 1e-9 >= self.lower_tuples,
            upper_ok: simulated <= rounded_upper * slack + 1e-9,
        })
    }
}

/// The outcome of checking a simulated load against the proven bracket.
#[derive(Debug, Clone, Serialize)]
pub struct BracketVerdict {
    /// The emission lower bound `(m/p)^{1/ρ*}`.
    pub lower_tuples: f64,
    /// The rounding-aware upper bound (before slack).
    pub rounded_upper_tuples: f64,
    /// The slack factor applied to the upper bound.
    pub slack: f64,
    /// The simulated max per-server tuples received.
    pub simulated_max_tuples: u64,
    /// `simulated ≥ lower` (must always hold; a violation is a bug).
    pub lower_ok: bool,
    /// `simulated ≤ rounded_upper · slack`.
    pub upper_ok: bool,
}

impl BracketVerdict {
    /// True when the simulated load sits inside the bracket.
    pub fn ok(&self) -> bool {
        self.lower_ok && self.upper_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9 * b.abs().max(1.0), "{a} vs {b}");
    }

    #[test]
    fn cycle_closed_forms() {
        // C_k: τ* = ρ* = k/2, e = 0.
        for k in [3usize, 4, 5, 6] {
            let b = OutputSensitiveBounds::compute(&families::cycle(k), 1000, 8, 64).unwrap();
            assert_eq!(b.tau_star, r(k as i128, 2));
            assert_eq!(b.rho_star, r(k as i128, 2));
            assert_eq!(b.answer_exponent, 0);
            let inv = r(2, k as i128);
            assert_eq!(
                b.lower,
                LoadExpr {
                    coeff: Rational::ONE,
                    n_exp: Rational::ZERO,
                    m_exp: inv,
                    p_exp: Rational::ZERO - inv
                }
            );
            assert_eq!(
                b.matching_lower,
                LoadExpr {
                    coeff: Rational::ONE,
                    n_exp: Rational::ONE,
                    m_exp: inv,
                    p_exp: Rational::ZERO - inv
                }
            );
            assert_eq!(b.upper.coeff, r(k as i128, 1));
        }
        // C3 at (n, m, p) = (1000, 1000, 8): lower = (1000/8)^(2/3) = 25.
        let b = OutputSensitiveBounds::compute(&families::cycle(3), 1000, 1000, 8).unwrap();
        close(b.lower_tuples, 25.0);
    }

    #[test]
    fn star_closed_forms() {
        // T_k: τ* = 1, ρ* = k, e = 1. The matching-expectation bound is
        // exactly m/p; the emission bound is (m/p)^(1/k).
        for k in [2usize, 3, 5] {
            let b = OutputSensitiveBounds::compute(&families::star(k), 500, 400, 16).unwrap();
            assert_eq!(b.tau_star, Rational::ONE);
            assert_eq!(b.rho_star, r(k as i128, 1));
            assert_eq!(b.answer_exponent, 1);
            assert_eq!(b.matching_lower.n_exp, Rational::ZERO);
            assert_eq!(b.matching_lower.m_exp, Rational::ONE);
            close(b.matching_lower_tuples, 400.0 / 16.0);
            close(b.lower_tuples, (400.0 / 16.0f64).powf(1.0 / k as f64));
        }
    }

    #[test]
    fn chain_closed_forms() {
        // L_k: τ* = ⌈k/2⌉ but ρ* = ⌊k/2⌋ + 1 — the two coincide only for
        // odd chains (an even chain's far endpoint needs one extra cover
        // unit), which is exactly why the emission bound needs the edge
        // cover and not the packing.
        for k in [3usize, 4, 5, 8] {
            let b = OutputSensitiveBounds::compute(&families::chain(k), 1000, 1000, 16).unwrap();
            assert_eq!(b.tau_star, r(k.div_ceil(2) as i128, 1));
            assert_eq!(b.rho_star, r((k / 2 + 1) as i128, 1));
            assert_eq!(b.answer_exponent, 1);
        }
    }

    #[test]
    fn full_output_recovers_conference_bound() {
        // At m = E[|q|] = n^e the matching-expectation bound equals
        // n / p^(1/τ*) exactly.
        for (q, e) in [(families::chain(5), 1i32), (families::star(3), 1), (families::cycle(4), 0)]
        {
            let n = 4096u64;
            let m = (n as f64).powi(e) as u64;
            let b = OutputSensitiveBounds::compute(&q, n, m, 64).unwrap();
            let tau = b.tau_star.to_f64();
            close(b.matching_lower_tuples, n as f64 / 64f64.powf(1.0 / tau));
        }
    }

    #[test]
    fn bounds_are_monotone_in_m() {
        let q = families::cycle(3);
        let mut prev = 0.0;
        for m in [0u64, 10, 100, 1000] {
            let b = OutputSensitiveBounds::compute(&q, 1000, m, 27).unwrap();
            assert!(b.lower_tuples >= prev);
            prev = b.lower_tuples;
        }
        // m = 0: no emission obligation at all.
        let b = OutputSensitiveBounds::compute(&q, 1000, 0, 27).unwrap();
        assert_eq!(b.lower_tuples, 0.0);
        assert_eq!(b.output_lower_per_server, 0.0);
    }

    #[test]
    fn rounded_upper_accounts_for_integer_shares() {
        // C3 on p = 64: shares (4,4,4), every atom replicated 4× over 64
        // cells, so the rounding-aware upper is 3·n·4/64 = 187.5 for
        // n = 1000 — within a whisker of the fractional ℓ·n/p^(2/3).
        let q = families::triangle();
        let alloc = ShareAllocation::optimal(&q, 64).unwrap();
        let b = OutputSensitiveBounds::compute(&q, 1000, 1, 64).unwrap();
        let rounded = b.rounded_upper_tuples(&q, &alloc).unwrap();
        close(rounded, 187.5);
        close(b.upper_tuples, 3.0 * 1000.0 / 64f64.powf(2.0 / 3.0));
    }

    #[test]
    fn bracket_verdicts() {
        let q = families::triangle();
        let alloc = ShareAllocation::optimal(&q, 64).unwrap();
        let b = OutputSensitiveBounds::compute(&q, 1000, 1000, 64).unwrap();
        let good = b.bracket(&q, &alloc, 200, 2.0).unwrap();
        assert!(good.ok(), "{good:?}");
        // Below the emission bound: physically impossible for a correct run.
        let too_low = b.bracket(&q, &alloc, 1, 2.0).unwrap();
        assert!(!too_low.lower_ok && !too_low.ok());
        // Far above the rounded upper (even with slack): overload.
        let too_high = b.bracket(&q, &alloc, 10_000, 2.0).unwrap();
        assert!(!too_high.upper_ok && !too_high.ok());
    }

    #[test]
    fn load_expr_display_and_eval() {
        let e = LoadExpr {
            coeff: r(3, 1),
            n_exp: Rational::ONE,
            m_exp: Rational::ZERO,
            p_exp: r(-2, 3),
        };
        assert_eq!(e.to_string(), "3·n·p^(-2/3)");
        close(e.eval(1000, 5, 8), 3.0 * 1000.0 / 4.0);
        let unit = LoadExpr {
            coeff: Rational::ONE,
            n_exp: Rational::ZERO,
            m_exp: Rational::ZERO,
            p_exp: Rational::ZERO,
        };
        assert_eq!(unit.to_string(), "1");
        assert_eq!(unit.eval(0, 0, 1), 1.0);
    }
}
