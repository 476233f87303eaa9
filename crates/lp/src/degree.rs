//! The **degree-aware statistics LP** of Beame–Koutris–Suciu 2014, §5
//! (arXiv:1401.1872): share exponents that minimise the per-server load
//! given *statistics* — per-atom cardinalities **and per-(atom, variable)
//! maximum degrees** — rather than cardinalities alone.
//!
//! # The LP
//!
//! Fix a base `b` (the server count of the grid being planned) and write
//! every statistic as a `log_b` exponent: `ν_j = log_b |R_j|` and
//! `δ_{j,x} = log_b maxdeg_{j,x}` (the largest number of `R_j`-tuples
//! agreeing on one value of `x`). With shares `p_x = b^{e_x}`, atom `j`
//! sends `|R_j| / ∏_{x ∈ vars_j} p_x` tuples to a server **if hashing
//! balances** — but the tuples sharing one value of `x` cannot be split
//! along the `x` dimension, so `maxdeg_{j,x} / ∏_{y ∈ vars_j∖x} p_y` is a
//! floor no hash can beat. The statistics LP minimises the worst exponent:
//!
//! ```text
//! minimise t   subject to   Σ_x e_x ≤ 1,   e_x ≥ 0, and per atom j:
//!     ν_j     − Σ_{x ∈ vars_j}    e_x ≤ t          (cardinality)
//!     δ_{j,x} − Σ_{y ∈ vars_j∖x}  e_y ≤ t  ∀x      (degree)
//! ```
//!
//! Skew-free statistics (`δ_{j,x} ≤ ν_j − 1`, i.e. every degree is at
//! most `|R_j| / b`) make every degree constraint slack at any feasible
//! point, and the LP collapses to the classic share LP whose optimum is
//! the fractional-vertex-cover scaling `e_x = v_x / τ*` (see
//! [`solve_degree_lp`] for the duality argument). That is the **closed
//! form** path; everything else is an exact **sparse simplex** solve —
//! the same two paths as [`crate::QueryLps::solve`], and like it nothing
//! is memoised: the shares are a pure function of `(q, stats)`.
//!
//! Statistics are *rationalised* logs (see [`rational_log`]): the
//! rounding moves the optimum by at most the grid width, which affects
//! plan **quality** only — correctness of routing never depends on the
//! statistics.

use mpc_cq::Query;

use crate::cover::SolverPath;
use crate::error::LpError;
use crate::rational::Rational;
use crate::simplex::{ConstraintOp, LinearProgram, Objective};
use crate::QueryLps;
use crate::Result;

/// The statistics of one query instance, as `log_b` exponents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeStatistics {
    /// `cardinality[j] = ν_j`, one per atom.
    pub cardinality: Vec<Rational>,
    /// `degree[j][x] = δ_{j,x}`, one full-width row per atom (entries of
    /// variables not occurring in the atom are ignored; `0` means the
    /// column is key-like — at most `b⁰ = 1` tuple per value… per the
    /// rationalised grid).
    pub degree: Vec<Vec<Rational>>,
}

impl DegreeStatistics {
    /// Statistics with the given cardinality exponents and all-zero
    /// (key-like) degrees.
    pub fn cardinalities_only(q: &Query, cardinality: Vec<Rational>) -> Self {
        DegreeStatistics {
            cardinality,
            degree: vec![vec![Rational::ZERO; q.num_vars()]; q.num_atoms()],
        }
    }

    fn validate(&self, q: &Query) -> Result<()> {
        if self.cardinality.len() != q.num_atoms() || self.degree.len() != q.num_atoms() {
            return Err(LpError::Malformed(format!(
                "statistics cover {} atoms but {} has {}",
                self.cardinality.len(),
                q.name(),
                q.num_atoms()
            )));
        }
        if self.degree.iter().any(|row| row.len() != q.num_vars()) {
            return Err(LpError::Malformed(format!(
                "degree rows must be full-width ({} variables)",
                q.num_vars()
            )));
        }
        Ok(())
    }
}

/// An optimal solution of the statistics LP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeShares {
    /// Share exponents `e_x`, one per variable; `Σ e_x ≤ 1`.
    pub exponents: Vec<Rational>,
    /// The optimal load exponent `t` (clamped at 0: loads below one tuple
    /// are not meaningful).
    pub load_exponent: Rational,
    /// Which solver path answered.
    pub path: SolverPath,
}

/// `log_base(value)` rounded to the nearest multiple of
/// `1 / denominator`, clamped at 0. The rationalisation keeps the LP data
/// exact and small; a denominator of 12–24
/// places the optimum within one grid step of the real-valued optimum,
/// which affects plan quality only.
pub fn rational_log(value: u64, base: usize, denominator: i128) -> Rational {
    if value <= 1 || base <= 1 {
        return Rational::ZERO;
    }
    let raw = (value as f64).ln() / (base as f64).ln();
    let num = (raw * denominator as f64).round() as i128;
    Rational::new(num.max(0), denominator)
}

/// Solve the degree-aware statistics LP: closed form when the statistics
/// are uniform and skew-free, sparse simplex otherwise.
///
/// # Example
///
/// A chain join `S1(x0,x1) ⋈ S2(x1,x2)` where `S2` is a thousand times
/// larger than `S1`: the LP spends the whole share budget on `S2`'s
/// variables — unlike the cardinality-blind cover split, which would
/// waste share on `x0`.
///
/// ```
/// use mpc_lp::degree::{solve_degree_lp, rational_log, DegreeStatistics};
/// use mpc_lp::Rational;
///
/// let q = mpc_cq::families::chain(2);
/// let stats = DegreeStatistics::cardinalities_only(
///     &q,
///     vec![rational_log(8, 8, 12), rational_log(8000, 8, 12)],
/// );
/// let sol = solve_degree_lp(&q, &stats).unwrap();
/// let x0 = q.var_id("x0").unwrap();
/// assert_eq!(sol.exponents[x0.0], Rational::ZERO, "nothing on S1's private variable");
/// assert_eq!(sol.load_exponent, Rational::new(10, 3), "t = ν₂ − 1 = 13/3 − 1");
/// ```
///
/// # Errors
///
/// Rejects empty queries and malformed statistics; propagates simplex
/// errors (never observed for realistic sizes).
pub fn solve_degree_lp(q: &Query, stats: &DegreeStatistics) -> Result<DegreeShares> {
    if q.num_atoms() == 0 {
        return Err(LpError::Malformed("degree LP needs at least one atom".to_string()));
    }
    stats.validate(q)?;

    // Closed form. Uniform cardinalities with dominated degrees
    // reduce to the classic share LP: for ANY e with Σe ≤ 1, the optimal
    // fractional edge packing u (Σu = τ*) gives
    //   Σ_j u_j · (Σ_{x ∈ vars_j} e_x) ≤ Σ_x e_x · Σ_{j ∋ x} u_j ≤ Σ_x e_x ≤ 1,
    // so min_j Σ_{x ∈ vars_j} e_x ≤ 1/τ* and t ≥ ν − 1/τ*; the cover
    // scaling e_x = v_x/τ* attains it. Dominated degrees (δ ≤ ν − 1)
    // keep every degree constraint below that optimum:
    //   δ_{j,x} − Σ_{y ≠ x} e_y ≤ ν − 1 ≤ ν − 1/τ*.
    let nu0 = stats.cardinality[0];
    let uniform = stats.cardinality.iter().all(|nu| *nu == nu0);
    let dominated =
        q.atoms().iter().zip(&stats.degree).all(|(atom, row)| {
            atom.distinct_vars().iter().all(|v| row[v.0] <= nu0 - Rational::ONE)
        });
    if uniform && dominated {
        let lps = QueryLps::solve(q)?;
        let tau = lps.covering_number();
        let exponents = lps
            .vertex_cover()
            .weights()
            .iter()
            .map(|v| v.checked_div(&tau))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let t = (nu0 - tau.recip()?).max(Rational::ZERO);
        debug_assert!(is_feasible(q, stats, &exponents, t), "closed form must be feasible");
        return Ok(DegreeShares { exponents, load_exponent: t, path: SolverPath::ClosedForm });
    }

    // Sparse simplex, in shifted ≤-form so the origin is
    // feasible: with C = max statistic and z = C − t, maximise z s.t.
    //   z − Σ_{x ∈ vars_j} e_x ≤ C − ν_j,
    //   z − Σ_{y ∈ vars_j∖x} e_y ≤ C − δ_{j,x}   (only rows with δ > 0:
    //     a zero δ is vacuous once t is clamped at 0),
    //   Σ e_x ≤ 1.
    let k = q.num_vars();
    let mut big_c = Rational::ZERO;
    for (j, atom) in q.atoms().iter().enumerate() {
        big_c = big_c.max(stats.cardinality[j]);
        for v in atom.distinct_vars() {
            big_c = big_c.max(stats.degree[j][v.0]);
        }
    }
    let mut obj = vec![Rational::ZERO; k + 1];
    obj[0] = Rational::ONE;
    let mut lp = LinearProgram::new(Objective::Maximize, obj);
    for (j, atom) in q.atoms().iter().enumerate() {
        let vars = atom.distinct_vars();
        let mut row = vec![Rational::ZERO; k + 1];
        row[0] = Rational::ONE;
        for v in &vars {
            row[v.0 + 1] = -Rational::ONE;
        }
        lp = lp.constrain(row, ConstraintOp::Le, big_c - stats.cardinality[j])?;
        for x in &vars {
            if !stats.degree[j][x.0].is_positive() {
                continue;
            }
            let mut row = vec![Rational::ZERO; k + 1];
            row[0] = Rational::ONE;
            for y in &vars {
                if y != x {
                    row[y.0 + 1] = -Rational::ONE;
                }
            }
            lp = lp.constrain(row, ConstraintOp::Le, big_c - stats.degree[j][x.0])?;
        }
    }
    let mut budget = vec![Rational::ONE; k + 1];
    budget[0] = Rational::ZERO;
    lp = lp.constrain(budget, ConstraintOp::Le, Rational::ONE)?;

    let sol = lp.solve_sparse()?;
    let exponents: Vec<Rational> = sol.variables[1..].to_vec();
    let t = (big_c - sol.variables[0]).max(Rational::ZERO);
    if !is_feasible(q, stats, &exponents, t) {
        return Err(LpError::Malformed(format!(
            "degree LP solution infeasible for {} (solver bug)",
            q.name()
        )));
    }
    Ok(DegreeShares { exponents, load_exponent: t, path: SolverPath::SparseSimplex })
}

/// Do `(exponents, t)` satisfy every constraint of the statistics LP?
pub(crate) fn is_feasible(
    q: &Query,
    stats: &DegreeStatistics,
    exponents: &[Rational],
    t: Rational,
) -> bool {
    if exponents.len() != q.num_vars() || exponents.iter().any(Rational::is_negative) {
        return false;
    }
    let total = exponents.iter().fold(Rational::ZERO, |acc, e| acc + *e);
    if total > Rational::ONE {
        return false;
    }
    q.atoms().iter().enumerate().all(|(j, atom)| {
        let vars = atom.distinct_vars();
        let sum = vars.iter().fold(Rational::ZERO, |acc, v| acc + exponents[v.0]);
        if stats.cardinality[j] - sum > t {
            return false;
        }
        vars.iter().all(|x| {
            if !stats.degree[j][x.0].is_positive() {
                return true;
            }
            let rest = sum - exponents[x.0];
            stats.degree[j][x.0] - rest <= t
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn uniform_keylike_statistics_take_the_closed_form() {
        // Matching-style statistics: every atom has ν = 1, every degree 0.
        let q = families::cycle(3);
        let stats = DegreeStatistics::cardinalities_only(&q, vec![Rational::ONE; 3]);
        let sol = solve_degree_lp(&q, &stats).unwrap();
        assert_eq!(sol.path, SolverPath::ClosedForm);
        assert_eq!(sol.exponents, vec![r(1, 3); 3], "cover scaling v/τ*");
        assert_eq!(sol.load_exponent, r(1, 3), "t = 1 − 1/τ* = 1/3");
    }

    #[test]
    fn heavy_degree_shifts_the_shares() {
        // Triangle with a high max degree on x1 in S1: partitioning along
        // x1 cannot split those tuples, so the LP moves share off x1.
        let q = families::cycle(3);
        let x1 = q.var_id("x1").unwrap();
        let mut stats = DegreeStatistics::cardinalities_only(&q, vec![Rational::ONE; 3]);
        // S1 is the atom containing x1 in first position; give x1 degree
        // ν (one value carries the whole relation) in every atom it
        // touches, so e_{x1} earns nothing.
        for (j, atom) in q.atoms().iter().enumerate() {
            if atom.distinct_vars().contains(&x1) {
                stats.degree[j][x1.0] = Rational::ONE;
            }
        }
        let sol = solve_degree_lp(&q, &stats).unwrap();
        assert_eq!(sol.path, SolverPath::SparseSimplex);
        assert!(is_feasible(&q, &stats, &sol.exponents, sol.load_exponent));
        // With degree ν on x1, t ≥ ν − Σ_{y≠x1} e_y; the optimum stops
        // spending on x1 entirely.
        assert!(sol.exponents[x1.0].is_zero(), "no share on the degenerate dimension");
        // And the optimum is strictly worse than the skew-free 1/3.
        assert!(sol.load_exponent > r(1, 3));
    }

    #[test]
    fn cardinality_asymmetry_beats_the_cover_split() {
        // chain(2): S1 tiny (ν = 1/3), S2 at ν = 1. Spending the budget on
        // S2's variables drives the load all the way to zero (e.g.
        // e_{x1} = 1 covers both atoms), which no cover split achieves.
        let q = families::chain(2);
        let stats = DegreeStatistics::cardinalities_only(&q, vec![r(1, 3), Rational::ONE]);
        let sol = solve_degree_lp(&q, &stats).unwrap();
        assert!(is_feasible(&q, &stats, &sol.exponents, sol.load_exponent));
        assert_eq!(sol.load_exponent, Rational::ZERO, "statistics-aware optimum");
    }

    #[test]
    fn rational_log_rounds_to_the_grid() {
        assert_eq!(rational_log(8, 8, 12), Rational::ONE);
        assert_eq!(rational_log(1, 8, 12), Rational::ZERO);
        assert_eq!(rational_log(0, 8, 12), Rational::ZERO);
        assert_eq!(rational_log(64, 8, 12), r(2, 1));
        // √8 → 1/2 exactly on the 12-grid.
        assert_eq!(rational_log(3, 9, 12), r(1, 2));
        assert_eq!(rational_log(5, 1, 12), Rational::ZERO, "base 1 has no exponents");
    }

    #[test]
    fn degenerate_and_malformed_inputs_are_rejected() {
        let q = families::chain(2);
        let short = DegreeStatistics { cardinality: vec![Rational::ONE], degree: vec![] };
        assert!(solve_degree_lp(&q, &short).is_err());
        let ragged = DegreeStatistics {
            cardinality: vec![Rational::ONE; 2],
            degree: vec![vec![Rational::ZERO; 1]; 2],
        };
        assert!(solve_degree_lp(&q, &ragged).is_err());
    }

    #[test]
    fn single_atom_queries_solve() {
        // One atom R(x,y), ν = 1: spread over both variables, t = 0.
        let q = mpc_cq::Query::new("one", vec![("R", vec!["x", "y"])]).unwrap();
        let stats = DegreeStatistics::cardinalities_only(&q, vec![Rational::ONE]);
        let sol = solve_degree_lp(&q, &stats).unwrap();
        assert_eq!(sol.load_exponent, Rational::ZERO, "ν − 1 = 0 with the whole budget");
    }
}
