//! A sparse **revised simplex** solver over exact rationals.
//!
//! The cover/packing LPs of a query hypergraph are extremely sparse: the
//! constraint matrix has one nonzero per variable-in-atom incidence. The
//! dense tableau of [`crate::simplex`] spends `O(rows·cols)` per pivot
//! regardless; this module keeps the constraint matrix in **column-major
//! sparse form** and maintains the basis inverse as a **product of eta
//! matrices** (the classic product-form-of-the-inverse factorization), so
//! one simplex iteration costs `O(nnz + m·|etas|)`:
//!
//! * `FTRAN` (`x = B⁻¹ a`) applies the eta file forwards,
//! * `BTRAN` (`yᵀ = c_Bᵀ B⁻¹`) applies it backwards,
//! * a pivot appends one eta vector; the file is rebuilt from scratch
//!   (`refactorize`) when it grows past a threshold, which also keeps the
//!   rational entries short.
//!
//! Pricing is a small-candidate **steepest-edge** rule — the few columns
//! with the largest exact reduced cost are FTRAN-ed and scored by
//! `rc² / (1 + ‖B⁻¹a‖²)` — with a fallback to **Bland's rule** after a run
//! of degenerate pivots, which restores the textbook termination guarantee
//! (cycling is only possible among degenerate pivots, and under Bland's
//! rule no cycle exists).
//!
//! All arithmetic is checked: a long pivot sequence that would overflow
//! `i128` reports [`LpError::Overflow`] instead of panicking.

use crate::error::LpError;
use crate::rational::Rational;
use crate::simplex::{ConstraintOp, LinearProgram, Objective};
use crate::Result;

/// Consecutive degenerate pivots tolerated before switching to Bland's
/// rule (left again after the next progress-making pivot).
const DEGENERATE_STREAK_LIMIT: usize = 12;

/// Number of top-reduced-cost candidates scored by the steepest-edge rule.
/// Each candidate costs one FTRAN; three is the measured sweet spot on the
/// cover/packing suite (fewer loses the edge-norm signal on spoke-like
/// LPs, more pays FTRANs without reducing pivots).
const PRICING_CANDIDATES: usize = 3;

/// An optimal solution of a [`LinearProgram`] solved by the sparse revised
/// simplex, including the dual values needed to read a vertex cover off an
/// edge-packing solve (and vice versa).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseSolution {
    /// Optimal objective value (in the original optimisation direction).
    pub objective_value: Rational,
    /// Optimal values of the structural variables.
    pub variables: Vec<Rational>,
    /// Dual value of each constraint, normalised so that for a `Maximize`
    /// LP with `≤` rows the duals are the usual non-negative multipliers
    /// with `Σᵢ dualsᵢ·bᵢ = objective_value` (rows that were sign-flipped
    /// during presolve, and `Minimize` objectives, have the sign folded
    /// back in).
    pub duals: Vec<Rational>,
}

impl LinearProgram {
    /// Solve with the sparse revised simplex (same contract as
    /// [`LinearProgram::solve`], plus dual values).
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] / [`LpError::Unbounded`] as for the dense
    ///   solver,
    /// * [`LpError::Overflow`] if exact arithmetic exceeds `i128`,
    /// * [`LpError::Malformed`] for an LP without variables.
    pub fn solve_sparse(&self) -> Result<SparseSolution> {
        if self.costs.is_empty() {
            return Err(LpError::Malformed("LP has no variables".to_string()));
        }
        Solver::build(self)?.run(self)
    }
}

/// One eta matrix: identity except for column `row`, recording the
/// FTRAN-ed entering column `d = B⁻¹ a` of a pivot at `row`.
struct Eta {
    row: usize,
    pivot: Rational,
    /// Off-pivot nonzeros of `d` (row index ≠ `row`).
    others: Vec<(usize, Rational)>,
}

struct Solver {
    m: usize,
    n_struct: usize,
    /// Structural + slack/surplus columns (artificials start here).
    n_real: usize,
    n_total: usize,
    /// Column-major sparse constraint matrix (all columns incl. slacks and
    /// artificials).
    cols: Vec<Vec<(usize, Rational)>>,
    /// Sign-normalised right-hand sides (`≥ 0`).
    rhs: Vec<Rational>,
    /// Which original rows were multiplied by −1 during presolve.
    negated: Vec<bool>,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// Current values of the basic variables (row-aligned, `≥ 0`).
    x_b: Vec<Rational>,
    etas: Vec<Eta>,
    bland: bool,
    degenerate_streak: usize,
}

impl Solver {
    fn build(lp: &LinearProgram) -> Result<Solver> {
        let m = lp.constraints.len();
        let n_struct = lp.num_vars();
        let n_slack = lp
            .constraints
            .iter()
            .filter(|c| matches!(c.op, ConstraintOp::Le | ConstraintOp::Ge))
            .count();
        let n_real = n_struct + n_slack;

        let mut cols: Vec<Vec<(usize, Rational)>> = vec![Vec::new(); n_real];
        let mut rhs = Vec::with_capacity(m);
        let mut negated = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut artificial_rows: Vec<usize> = Vec::new();

        let mut slack_cursor = n_struct;
        for (i, c) in lp.constraints.iter().enumerate() {
            let flip = c.rhs.is_negative();
            negated.push(flip);
            let sign = |r: Rational| if flip { -r } else { r };
            for (j, coeff) in c.coeffs.iter().enumerate() {
                if !coeff.is_zero() {
                    cols[j].push((i, sign(*coeff)));
                }
            }
            rhs.push(sign(c.rhs));
            let slack_sign = match c.op {
                ConstraintOp::Le => Some(sign(Rational::ONE)),
                ConstraintOp::Ge => Some(sign(-Rational::ONE)),
                ConstraintOp::Eq => None,
            };
            match slack_sign {
                Some(s) => {
                    cols[slack_cursor].push((i, s));
                    if s == Rational::ONE {
                        // The slack starts basic: no artificial needed.
                        basis.push(slack_cursor);
                    } else {
                        basis.push(usize::MAX); // placeholder, artificial below
                        artificial_rows.push(i);
                    }
                    slack_cursor += 1;
                }
                None => {
                    basis.push(usize::MAX);
                    artificial_rows.push(i);
                }
            }
        }

        // One artificial unit column per row that lacks a basic slack.
        let n_total = n_real + artificial_rows.len();
        for (k, &row) in artificial_rows.iter().enumerate() {
            cols.push(vec![(row, Rational::ONE)]);
            basis[row] = n_real + k;
        }

        let mut in_basis = vec![false; n_total];
        for &b in &basis {
            in_basis[b] = true;
        }
        let x_b = rhs.clone();

        Ok(Solver {
            m,
            n_struct,
            n_real,
            n_total,
            cols,
            rhs,
            negated,
            basis,
            in_basis,
            x_b,
            etas: Vec::new(),
            bland: false,
            degenerate_streak: 0,
        })
    }

    /// `x ← Eₖ…E₁ x` (apply the eta file forwards).
    fn apply_etas(&self, x: &mut [Rational]) -> Result<()> {
        for eta in &self.etas {
            let xr = x[eta.row];
            if xr.is_zero() {
                continue;
            }
            let t = xr.checked_div(&eta.pivot)?;
            for (i, v) in &eta.others {
                if !x[*i].is_zero() || !t.is_zero() {
                    x[*i] = x[*i].checked_sub(&v.checked_mul(&t)?)?;
                }
            }
            x[eta.row] = t;
        }
        Ok(())
    }

    /// `B⁻¹ a` for a sparse column, as a dense vector.
    fn ftran_col(&self, col: usize) -> Result<Vec<Rational>> {
        let mut x = vec![Rational::ZERO; self.m];
        for (i, v) in &self.cols[col] {
            x[*i] = *v;
        }
        self.apply_etas(&mut x)?;
        Ok(x)
    }

    /// `yᵀ = c_Bᵀ B⁻¹` (apply the eta file backwards).
    fn btran(&self, costs: &[Rational]) -> Result<Vec<Rational>> {
        let mut y: Vec<Rational> =
            self.basis.iter().map(|&b| costs.get(b).copied().unwrap_or(Rational::ZERO)).collect();
        for eta in self.etas.iter().rev() {
            let mut num = y[eta.row];
            for (i, v) in &eta.others {
                if !y[*i].is_zero() {
                    num = num.checked_sub(&y[*i].checked_mul(v)?)?;
                }
            }
            y[eta.row] = num.checked_div(&eta.pivot)?;
        }
        Ok(y)
    }

    /// Reduced cost of a column against the BTRAN-ed multipliers.
    fn reduced_cost(&self, y: &[Rational], costs: &[Rational], j: usize) -> Result<Rational> {
        let mut z = Rational::ZERO;
        for (i, v) in &self.cols[j] {
            if !y[*i].is_zero() {
                z = z.checked_add(&y[*i].checked_mul(v)?)?;
            }
        }
        costs[j].checked_sub(&z)
    }

    /// Append the eta of a pivot of column `col` (with FTRAN-ed image `d`)
    /// at `row`, updating the basic values with step `t`.
    fn pivot(&mut self, row: usize, col: usize, d: Vec<Rational>, t: Rational) -> Result<()> {
        let mut others = Vec::new();
        let mut pivot_value = Rational::ZERO;
        for (i, v) in d.into_iter().enumerate() {
            if v.is_zero() {
                continue;
            }
            if i == row {
                pivot_value = v;
            } else {
                others.push((i, v));
                if !t.is_zero() {
                    self.x_b[i] = self.x_b[i].checked_sub(&v.checked_mul(&t)?)?;
                }
            }
        }
        debug_assert!(!pivot_value.is_zero(), "pivot element must be non-zero");
        self.x_b[row] = t;
        self.in_basis[self.basis[row]] = false;
        self.in_basis[col] = true;
        self.basis[row] = col;
        self.etas.push(Eta { row, pivot: pivot_value, others });
        if self.etas.len() > 3 * self.m + 32 {
            self.refactorize()?;
        }
        Ok(())
    }

    /// Rebuild the eta file from the current basis: pivot every basic
    /// column back in, preferring its own row. This both bounds the file
    /// length and resets rational entry growth.
    fn refactorize(&mut self) -> Result<()> {
        let old_basis = self.basis.clone();
        self.etas.clear();
        let mut placed = vec![false; self.m];
        let mut new_basis = vec![usize::MAX; self.m];
        for (home, &col) in old_basis.iter().enumerate() {
            let d = self.ftran_col(col)?;
            let row = if !placed[home] && !d[home].is_zero() {
                home
            } else {
                (0..self.m)
                    .find(|&r| !placed[r] && !d[r].is_zero())
                    .ok_or_else(|| LpError::Malformed("singular basis".to_string()))?
            };
            let pivot = d[row];
            let mut others = Vec::new();
            for (i, v) in d.into_iter().enumerate() {
                if i != row && !v.is_zero() {
                    others.push((i, v));
                }
            }
            self.etas.push(Eta { row, pivot, others });
            placed[row] = true;
            new_basis[row] = col;
        }
        self.basis = new_basis;
        self.in_basis = vec![false; self.n_total];
        for &b in &self.basis {
            self.in_basis[b] = true;
        }
        let mut x = self.rhs.clone();
        self.apply_etas(&mut x)?;
        self.x_b = x;
        Ok(())
    }

    /// Primal simplex iterations (maximisation) over columns
    /// `0..allowed_cols`.
    fn optimize(&mut self, costs: &[Rational], allowed_cols: usize) -> Result<()> {
        let max_iters = 20_000 + 200 * (self.n_total + self.m);
        for _ in 0..max_iters {
            let y = self.btran(costs)?;
            // Price: gather improving columns.
            let mut candidates: Vec<(usize, Rational)> = Vec::new();
            for j in 0..allowed_cols {
                if self.in_basis[j] {
                    continue;
                }
                let rc = self.reduced_cost(&y, costs, j)?;
                if rc.is_positive() {
                    if self.bland {
                        candidates.push((j, rc));
                        break; // smallest index suffices under Bland
                    }
                    candidates.push((j, rc));
                }
            }
            if candidates.is_empty() {
                return Ok(());
            }

            let (entering, d) = if self.bland {
                let j = candidates[0].0;
                (j, self.ftran_col(j)?)
            } else {
                // Steepest-edge over the best few candidates by reduced
                // cost; the choice only affects iteration count, so the
                // scoring may safely use f64.
                candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                candidates.truncate(PRICING_CANDIDATES);
                let mut best: Option<(usize, Vec<Rational>, f64)> = None;
                for (j, rc) in &candidates {
                    let d = self.ftran_col(*j)?;
                    let norm: f64 = d.iter().map(|v| v.to_f64() * v.to_f64()).sum();
                    let rcf = rc.to_f64();
                    let score = rcf * rcf / (1.0 + norm);
                    let score = if score.is_finite() { score } else { 0.0 };
                    if best.as_ref().is_none_or(|(_, _, s)| score > *s) {
                        best = Some((*j, d, score));
                    }
                }
                let (j, d, _) = best.expect("candidates is non-empty");
                (j, d)
            };

            // Ratio test. Rows whose basic variable is an artificial pinned
            // at zero are always eligible (with step 0) whenever the
            // entering column meets them: this drives artificials out and
            // keeps them at zero in phase 2.
            let mut leaving: Option<(usize, Rational)> = None;
            for (i, &di) in d.iter().enumerate().take(self.m) {
                let eligible = di.is_positive()
                    || (self.basis[i] >= self.n_real && self.x_b[i].is_zero() && !di.is_zero());
                if !eligible {
                    continue;
                }
                let ratio =
                    if di.is_positive() { self.x_b[i].checked_div(&di)? } else { Rational::ZERO };
                let better = match &leaving {
                    None => true,
                    Some((li, lr)) => {
                        ratio < *lr || (ratio == *lr && self.basis[i] < self.basis[*li])
                    }
                };
                if better {
                    leaving = Some((i, ratio));
                }
            }
            let Some((row, t)) = leaving else {
                return Err(LpError::Unbounded);
            };

            if t.is_zero() {
                self.degenerate_streak += 1;
                if self.degenerate_streak > DEGENERATE_STREAK_LIMIT {
                    self.bland = true;
                }
            } else {
                self.degenerate_streak = 0;
                self.bland = false;
            }
            let col = entering;
            self.pivot(row, col, d, t)?;
        }
        Err(LpError::Malformed("sparse simplex iteration limit exceeded".to_string()))
    }

    fn run(mut self, lp: &LinearProgram) -> Result<SparseSolution> {
        // Phase 1 (only when some row needed an artificial): maximise
        // −Σ artificials.
        if self.n_total > self.n_real {
            let mut phase1 = vec![Rational::ZERO; self.n_total];
            for c in phase1.iter_mut().skip(self.n_real) {
                *c = -Rational::ONE;
            }
            self.optimize(&phase1, self.n_real)?;
            for i in 0..self.m {
                if self.basis[i] >= self.n_real && !self.x_b[i].is_zero() {
                    return Err(LpError::Infeasible);
                }
            }
            self.evict_artificials()?;
            self.bland = false;
            self.degenerate_streak = 0;
        }

        // Phase 2.
        let flip = matches!(lp.objective, Objective::Minimize);
        let mut phase2 = vec![Rational::ZERO; self.n_total];
        for (j, c) in lp.costs.iter().enumerate() {
            phase2[j] = if flip { -*c } else { *c };
        }
        self.optimize(&phase2, self.n_real)?;

        let mut variables = vec![Rational::ZERO; self.n_struct];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n_struct {
                variables[b] = self.x_b[i];
            }
        }
        let mut objective_value = Rational::ZERO;
        for (j, v) in variables.iter().enumerate() {
            if !v.is_zero() {
                objective_value = objective_value.checked_add(&lp.costs[j].checked_mul(v)?)?;
            }
        }

        // Duals: y = c_B B⁻¹ in the internal (maximisation, sign-normalised
        // rows) form, folded back to the original row/objective signs.
        let y = self.btran(&phase2)?;
        let mut duals = Vec::with_capacity(self.m);
        for (i, yi) in y.into_iter().enumerate() {
            let mut v = yi;
            if self.negated[i] {
                v = -v;
            }
            if flip {
                v = -v;
            }
            duals.push(v);
        }

        Ok(SparseSolution { objective_value, variables, duals })
    }

    /// After phase 1, pivot artificials out of the basis where a real
    /// replacement column exists; redundant rows keep their (zero-valued)
    /// artificial, which the ratio test then pins at zero.
    fn evict_artificials(&mut self) -> Result<()> {
        for row in 0..self.m {
            if self.basis[row] < self.n_real {
                continue;
            }
            debug_assert!(self.x_b[row].is_zero(), "artificial basic at non-zero level");
            for j in 0..self.n_real {
                if self.in_basis[j] {
                    continue;
                }
                let d = self.ftran_col(j)?;
                if !d[row].is_zero() {
                    self.pivot(row, j, d, Rational::ZERO)?;
                    break;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{ConstraintOp, LinearProgram, Objective};

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn matches_dense_on_textbook_lps() {
        // Same cases as the dense solver's unit tests.
        let lp = LinearProgram::new(Objective::Maximize, vec![r(1, 1), r(1, 1)])
            .constrain(vec![r(1, 1), r(0, 1)], ConstraintOp::Le, r(3, 1))
            .unwrap()
            .constrain(vec![r(0, 1), r(1, 1)], ConstraintOp::Le, r(4, 1))
            .unwrap()
            .constrain(vec![r(1, 1), r(1, 1)], ConstraintOp::Le, r(5, 1))
            .unwrap();
        let sparse = lp.solve_sparse().unwrap();
        let dense = lp.solve().unwrap();
        assert_eq!(sparse.objective_value, dense.objective_value);

        let lp = LinearProgram::new(Objective::Minimize, vec![r(1, 1), r(1, 1)])
            .constrain(vec![r(1, 1), r(2, 1)], ConstraintOp::Ge, r(4, 1))
            .unwrap()
            .constrain(vec![r(3, 1), r(1, 1)], ConstraintOp::Ge, r(6, 1))
            .unwrap();
        let sol = lp.solve_sparse().unwrap();
        assert_eq!(sol.objective_value, r(14, 5));
        assert_eq!(sol.variables, vec![r(8, 5), r(6, 5)]);
    }

    #[test]
    fn equality_and_redundant_rows() {
        let lp = LinearProgram::new(Objective::Maximize, vec![r(2, 1), r(3, 1)])
            .constrain(vec![r(1, 1), r(1, 1)], ConstraintOp::Eq, r(4, 1))
            .unwrap()
            .constrain(vec![r(1, 1), r(0, 1)], ConstraintOp::Le, r(3, 1))
            .unwrap();
        assert_eq!(lp.solve_sparse().unwrap().objective_value, r(12, 1));

        // Redundant equality: the artificial stays pinned at zero.
        let lp = LinearProgram::new(Objective::Maximize, vec![r(1, 1), r(1, 1)])
            .constrain(vec![r(1, 1), r(1, 1)], ConstraintOp::Eq, r(2, 1))
            .unwrap()
            .constrain(vec![r(2, 1), r(2, 1)], ConstraintOp::Eq, r(4, 1))
            .unwrap()
            .constrain(vec![r(1, 1), r(0, 1)], ConstraintOp::Le, r(2, 1))
            .unwrap();
        assert_eq!(lp.solve_sparse().unwrap().objective_value, r(2, 1));
    }

    #[test]
    fn infeasible_and_unbounded() {
        let lp = LinearProgram::new(Objective::Maximize, vec![r(1, 1)])
            .constrain(vec![r(1, 1)], ConstraintOp::Le, r(1, 1))
            .unwrap()
            .constrain(vec![r(1, 1)], ConstraintOp::Ge, r(2, 1))
            .unwrap();
        assert_eq!(lp.solve_sparse().unwrap_err(), LpError::Infeasible);

        let lp = LinearProgram::new(Objective::Maximize, vec![r(1, 1)])
            .constrain(vec![r(1, 1)], ConstraintOp::Ge, r(1, 1))
            .unwrap();
        assert_eq!(lp.solve_sparse().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalised() {
        let lp = LinearProgram::new(Objective::Maximize, vec![r(1, 1)])
            .constrain(vec![r(-1, 1)], ConstraintOp::Le, r(-2, 1))
            .unwrap()
            .constrain(vec![r(1, 1)], ConstraintOp::Le, r(5, 1))
            .unwrap();
        assert_eq!(lp.solve_sparse().unwrap().objective_value, r(5, 1));
    }

    #[test]
    fn duals_certify_packing_optimum() {
        // C3 edge-packing LP: max u1+u2+u3 with pairwise sums ≤ 1. The
        // duals are an optimal vertex cover: (1/2, 1/2, 1/2), total 3/2.
        let lp = LinearProgram::new(Objective::Maximize, vec![r(1, 1); 3])
            .constrain(vec![r(1, 1), r(0, 1), r(1, 1)], ConstraintOp::Le, r(1, 1))
            .unwrap()
            .constrain(vec![r(1, 1), r(1, 1), r(0, 1)], ConstraintOp::Le, r(1, 1))
            .unwrap()
            .constrain(vec![r(0, 1), r(1, 1), r(1, 1)], ConstraintOp::Le, r(1, 1))
            .unwrap();
        let sol = lp.solve_sparse().unwrap();
        assert_eq!(sol.objective_value, r(3, 2));
        let dual_total = sol.duals.iter().fold(Rational::ZERO, |acc, d| acc + *d);
        assert_eq!(dual_total, r(3, 2));
        assert!(sol.duals.iter().all(|d| !d.is_negative()));
    }

    #[test]
    fn many_pivots_trigger_refactorization() {
        // A staircase LP large enough to overflow the eta-file threshold.
        let n = 24usize;
        let mut lp = LinearProgram::new(Objective::Maximize, vec![r(1, 1); n]);
        for i in 0..n {
            let mut row = vec![r(0, 1); n];
            row[i] = r(1, 1);
            if i + 1 < n {
                row[i + 1] = r(1, 2);
            }
            lp = lp.constrain(row, ConstraintOp::Le, r(1, 1)).unwrap();
        }
        let sparse = lp.solve_sparse().unwrap();
        let dense = lp.solve().unwrap();
        assert_eq!(sparse.objective_value, dense.objective_value);
    }

    #[test]
    fn empty_lp_rejected() {
        let lp = LinearProgram::new(Objective::Maximize, vec![]);
        assert!(matches!(lp.solve_sparse().unwrap_err(), LpError::Malformed(_)));
    }
}
