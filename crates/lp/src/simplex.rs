//! A small dense two-phase primal simplex solver over exact rationals.
//!
//! This is the slow, independent **oracle** of the LP layer: a dense
//! tableau with exact [`Rational`] arithmetic and Bland's anti-cycling
//! rule, trivially auditable and used to validate the production sparse
//! revised simplex ([`crate::sparse`]) and the closed-form family solutions
//! ([`crate::families`]). All arithmetic is checked: adversarial inputs
//! that drive intermediate rationals past `i128` report
//! [`crate::LpError::Overflow`] instead of panicking.

use serde::{Deserialize, Serialize};

use crate::error::LpError;
use crate::rational::Rational;
use crate::Result;

/// Direction of optimisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Objective {
    /// Maximise the cost vector.
    Maximize,
    /// Minimise the cost vector.
    Minimize,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConstraintOp {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

/// One linear constraint `coeffs · x  (≤ | ≥ | =)  rhs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Constraint {
    /// Coefficient of each structural variable.
    pub coeffs: Vec<Rational>,
    /// The comparison operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: Rational,
}

/// A linear program over non-negative structural variables `x ≥ 0`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct LinearProgram {
    /// Optimisation direction.
    pub objective: Objective,
    /// Cost of each structural variable.
    pub costs: Vec<Rational>,
    /// The constraints.
    pub constraints: Vec<Constraint>,
}

/// An optimal solution of a [`LinearProgram`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct LpSolution {
    /// Optimal objective value (in the original optimisation direction).
    pub objective_value: Rational,
    /// Optimal values of the structural variables.
    pub variables: Vec<Rational>,
}

impl LinearProgram {
    /// Create an LP with the given direction and costs and no constraints.
    pub fn new(objective: Objective, costs: Vec<Rational>) -> Self {
        LinearProgram { objective, costs, constraints: Vec::new() }
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.costs.len()
    }

    /// Add a constraint; returns `self` for chaining.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Malformed`] if the coefficient row width differs
    /// from the number of variables.
    pub(crate) fn constrain(
        mut self,
        coeffs: Vec<Rational>,
        op: ConstraintOp,
        rhs: Rational,
    ) -> Result<Self> {
        if coeffs.len() != self.costs.len() {
            return Err(LpError::Malformed(format!(
                "constraint has {} coefficients but the LP has {} variables",
                coeffs.len(),
                self.costs.len()
            )));
        }
        self.constraints.push(Constraint { coeffs, op, rhs });
        Ok(self)
    }

    /// Solve the LP with the two-phase simplex method.
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] if no feasible point exists,
    /// * [`LpError::Unbounded`] if the objective is unbounded,
    /// * [`LpError::Malformed`] if the LP has no variables.
    pub fn solve(&self) -> Result<LpSolution> {
        if self.costs.is_empty() {
            return Err(LpError::Malformed("LP has no variables".to_string()));
        }
        Tableau::build(self)?.solve(self)
    }
}

/// Internal simplex tableau.
struct Tableau {
    /// `rows[i]` = coefficients of every column for constraint `i`.
    rows: Vec<Vec<Rational>>,
    /// Right-hand sides (kept non-negative).
    rhs: Vec<Rational>,
    /// Index of the basic variable of each row.
    basis: Vec<usize>,
    /// Number of structural variables.
    n_struct: usize,
    /// Total number of non-artificial columns (structural + slack/surplus).
    n_real: usize,
    /// Total number of columns including artificials.
    n_total: usize,
}

impl Tableau {
    /// Build the phase-1 tableau: slack/surplus columns plus one artificial
    /// variable per row (simple and uniformly correct for tiny LPs).
    fn build(lp: &LinearProgram) -> Result<Tableau> {
        let n_struct = lp.num_vars();
        let m = lp.constraints.len();
        let n_slack = lp
            .constraints
            .iter()
            .filter(|c| matches!(c.op, ConstraintOp::Le | ConstraintOp::Ge))
            .count();
        let n_real = n_struct + n_slack;
        let n_total = n_real + m;

        let mut rows = Vec::with_capacity(m);
        let mut rhs = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);

        let mut slack_cursor = n_struct;
        for (i, c) in lp.constraints.iter().enumerate() {
            let mut row = vec![Rational::ZERO; n_total];
            for (j, coeff) in c.coeffs.iter().enumerate() {
                row[j] = *coeff;
            }
            let mut b = c.rhs;
            match c.op {
                ConstraintOp::Le => {
                    row[slack_cursor] = Rational::ONE;
                    slack_cursor += 1;
                }
                ConstraintOp::Ge => {
                    row[slack_cursor] = -Rational::ONE;
                    slack_cursor += 1;
                }
                ConstraintOp::Eq => {}
            }
            // Keep b ≥ 0 so the all-artificial basis is feasible.
            if b.is_negative() {
                for entry in row.iter_mut() {
                    *entry = -*entry;
                }
                b = -b;
            }
            // Artificial variable for this row.
            row[n_real + i] = Rational::ONE;
            rows.push(row);
            rhs.push(b);
            basis.push(n_real + i);
        }

        Ok(Tableau { rows, rhs, basis, n_struct, n_real, n_total })
    }

    fn solve(mut self, lp: &LinearProgram) -> Result<LpSolution> {
        // Phase 1: maximise −Σ artificials; feasible iff optimum is 0.
        let mut phase1_costs = vec![Rational::ZERO; self.n_total];
        for c in phase1_costs.iter_mut().skip(self.n_real) {
            *c = -Rational::ONE;
        }
        self.optimize(&phase1_costs, self.n_total)?;
        let phase1_value = self.objective_value(&phase1_costs)?;
        if !phase1_value.is_zero() {
            return Err(LpError::Infeasible);
        }
        self.evict_artificials()?;

        // Phase 2: optimise the real objective over non-artificial columns.
        let mut phase2_costs = vec![Rational::ZERO; self.n_total];
        let flip = matches!(lp.objective, Objective::Minimize);
        for (j, c) in lp.costs.iter().enumerate() {
            phase2_costs[j] = if flip { -*c } else { *c };
        }
        self.optimize(&phase2_costs, self.n_real)?;

        let mut variables = vec![Rational::ZERO; self.n_struct];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n_struct {
                variables[b] = self.rhs[i];
            }
        }
        let mut objective_value = Rational::ZERO;
        for (j, v) in variables.iter().enumerate() {
            objective_value = objective_value.checked_add(&lp.costs[j].checked_mul(v)?)?;
        }
        Ok(LpSolution { objective_value, variables })
    }

    /// Reduced cost of column `j` for the given cost vector.
    fn reduced_cost(&self, costs: &[Rational], j: usize) -> Result<Rational> {
        let mut z = Rational::ZERO;
        for (i, row) in self.rows.iter().enumerate() {
            let cb = costs[self.basis[i]];
            if !cb.is_zero() && !row[j].is_zero() {
                z = z.checked_add(&cb.checked_mul(&row[j])?)?;
            }
        }
        costs[j].checked_sub(&z)
    }

    fn objective_value(&self, costs: &[Rational]) -> Result<Rational> {
        let mut v = Rational::ZERO;
        for (i, &b) in self.basis.iter().enumerate() {
            if !costs[b].is_zero() {
                v = v.checked_add(&costs[b].checked_mul(&self.rhs[i])?)?;
            }
        }
        Ok(v)
    }

    /// Primal simplex iterations (maximisation) restricted to columns
    /// `0..allowed_cols`, with Bland's rule.
    fn optimize(&mut self, costs: &[Rational], allowed_cols: usize) -> Result<()> {
        // The number of bases is finite and Bland's rule prevents cycling,
        // but keep a generous safety bound against logic errors.
        let max_iters = 10_000 + 100 * (self.n_total + self.rows.len());
        for _ in 0..max_iters {
            // Entering column: smallest index with positive reduced cost.
            let mut entering = None;
            for j in 0..allowed_cols {
                if self.reduced_cost(costs, j)?.is_positive() {
                    entering = Some(j);
                    break;
                }
            }
            let Some(entering) = entering else {
                return Ok(());
            };

            // Ratio test with Bland's tie-break (smallest basis index).
            let mut leaving: Option<(usize, Rational)> = None;
            for (i, row) in self.rows.iter().enumerate() {
                if row[entering].is_positive() {
                    let ratio = self.rhs[i].checked_div(&row[entering])?;
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
            }
            let Some((pivot_row, _)) = leaving else {
                return Err(LpError::Unbounded);
            };
            self.pivot(pivot_row, entering)?;
        }
        Err(LpError::Malformed("simplex iteration limit exceeded".to_string()))
    }

    /// Pivot so that column `col` becomes basic in row `row`.
    fn pivot(&mut self, row: usize, col: usize) -> Result<()> {
        let pivot = self.rows[row][col];
        debug_assert!(!pivot.is_zero(), "pivot element must be non-zero");
        let inv = pivot.recip()?;
        for entry in self.rows[row].iter_mut() {
            *entry = entry.checked_mul(&inv)?;
        }
        self.rhs[row] = self.rhs[row].checked_mul(&inv)?;

        for i in 0..self.rows.len() {
            if i == row {
                continue;
            }
            let factor = self.rows[i][col];
            if factor.is_zero() {
                continue;
            }
            for j in 0..self.n_total {
                if !self.rows[row][j].is_zero() {
                    let delta = factor.checked_mul(&self.rows[row][j])?;
                    self.rows[i][j] = self.rows[i][j].checked_sub(&delta)?;
                }
            }
            self.rhs[i] = self.rhs[i].checked_sub(&factor.checked_mul(&self.rhs[row])?)?;
        }
        self.basis[row] = col;
        Ok(())
    }

    /// After phase 1, pivot any artificial variable out of the basis, or
    /// drop its (redundant) row when that is impossible.
    fn evict_artificials(&mut self) -> Result<()> {
        let mut i = 0;
        while i < self.rows.len() {
            if self.basis[i] >= self.n_real {
                debug_assert!(self.rhs[i].is_zero(), "artificial basic at non-zero level");
                let replacement = (0..self.n_real).find(|&j| !self.rows[i][j].is_zero());
                match replacement {
                    Some(col) => {
                        self.pivot(i, col)?;
                        i += 1;
                    }
                    None => {
                        // Redundant row: remove it entirely.
                        self.rows.remove(i);
                        self.rhs.remove(i);
                        self.basis.remove(i);
                    }
                }
            } else {
                i += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn maximize_simple_le() {
        // max x + y  s.t. x ≤ 3, y ≤ 4, x + y ≤ 5  → 5.
        let lp = LinearProgram::new(Objective::Maximize, vec![r(1, 1), r(1, 1)])
            .constrain(vec![r(1, 1), r(0, 1)], ConstraintOp::Le, r(3, 1))
            .unwrap()
            .constrain(vec![r(0, 1), r(1, 1)], ConstraintOp::Le, r(4, 1))
            .unwrap()
            .constrain(vec![r(1, 1), r(1, 1)], ConstraintOp::Le, r(5, 1))
            .unwrap();
        let sol = lp.solve().unwrap();
        assert_eq!(sol.objective_value, r(5, 1));
        assert_eq!(sol.variables[0] + sol.variables[1], r(5, 1));
    }

    #[test]
    fn minimize_with_ge_constraints() {
        // min x + y  s.t. x + 2y ≥ 4, 3x + y ≥ 6 → optimum 14/5 at (8/5, 6/5).
        let lp = LinearProgram::new(Objective::Minimize, vec![r(1, 1), r(1, 1)])
            .constrain(vec![r(1, 1), r(2, 1)], ConstraintOp::Ge, r(4, 1))
            .unwrap()
            .constrain(vec![r(3, 1), r(1, 1)], ConstraintOp::Ge, r(6, 1))
            .unwrap();
        let sol = lp.solve().unwrap();
        assert_eq!(sol.objective_value, r(14, 5));
        assert_eq!(sol.variables, vec![r(8, 5), r(6, 5)]);
    }

    #[test]
    fn equality_constraints() {
        // max 2x + 3y  s.t. x + y = 4, x ≤ 3 → x=0..? optimum y=4, x=0 → 12.
        let lp = LinearProgram::new(Objective::Maximize, vec![r(2, 1), r(3, 1)])
            .constrain(vec![r(1, 1), r(1, 1)], ConstraintOp::Eq, r(4, 1))
            .unwrap()
            .constrain(vec![r(1, 1), r(0, 1)], ConstraintOp::Le, r(3, 1))
            .unwrap();
        let sol = lp.solve().unwrap();
        assert_eq!(sol.objective_value, r(12, 1));
        assert_eq!(sol.variables, vec![r(0, 1), r(4, 1)]);
    }

    #[test]
    fn infeasible_detected() {
        // x ≤ 1 and x ≥ 2 simultaneously.
        let lp = LinearProgram::new(Objective::Maximize, vec![r(1, 1)])
            .constrain(vec![r(1, 1)], ConstraintOp::Le, r(1, 1))
            .unwrap()
            .constrain(vec![r(1, 1)], ConstraintOp::Ge, r(2, 1))
            .unwrap();
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // max x with only x ≥ 1.
        let lp = LinearProgram::new(Objective::Maximize, vec![r(1, 1)])
            .constrain(vec![r(1, 1)], ConstraintOp::Ge, r(1, 1))
            .unwrap();
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalised() {
        // max x  s.t. −x ≤ −2  (i.e. x ≥ 2), x ≤ 5 → 5.
        let lp = LinearProgram::new(Objective::Maximize, vec![r(1, 1)])
            .constrain(vec![r(-1, 1)], ConstraintOp::Le, r(-2, 1))
            .unwrap()
            .constrain(vec![r(1, 1)], ConstraintOp::Le, r(5, 1))
            .unwrap();
        let sol = lp.solve().unwrap();
        assert_eq!(sol.objective_value, r(5, 1));
    }

    #[test]
    fn fractional_optimum_is_exact() {
        // The C3 vertex-cover LP directly: min v1+v2+v3 with pairwise sums ≥ 1.
        let lp = LinearProgram::new(Objective::Minimize, vec![r(1, 1), r(1, 1), r(1, 1)])
            .constrain(vec![r(1, 1), r(1, 1), r(0, 1)], ConstraintOp::Ge, r(1, 1))
            .unwrap()
            .constrain(vec![r(0, 1), r(1, 1), r(1, 1)], ConstraintOp::Ge, r(1, 1))
            .unwrap()
            .constrain(vec![r(1, 1), r(0, 1), r(1, 1)], ConstraintOp::Ge, r(1, 1))
            .unwrap();
        let sol = lp.solve().unwrap();
        assert_eq!(sol.objective_value, r(3, 2));
    }

    #[test]
    fn degenerate_redundant_constraints() {
        // Redundant equalities exercise artificial eviction / row dropping.
        let lp = LinearProgram::new(Objective::Maximize, vec![r(1, 1), r(1, 1)])
            .constrain(vec![r(1, 1), r(1, 1)], ConstraintOp::Eq, r(2, 1))
            .unwrap()
            .constrain(vec![r(2, 1), r(2, 1)], ConstraintOp::Eq, r(4, 1))
            .unwrap()
            .constrain(vec![r(1, 1), r(0, 1)], ConstraintOp::Le, r(2, 1))
            .unwrap();
        let sol = lp.solve().unwrap();
        assert_eq!(sol.objective_value, r(2, 1));
    }

    #[test]
    fn mismatched_constraint_width_rejected() {
        let err = LinearProgram::new(Objective::Maximize, vec![r(1, 1), r(1, 1)])
            .constrain(vec![r(1, 1)], ConstraintOp::Le, r(1, 1))
            .unwrap_err();
        assert!(matches!(err, LpError::Malformed(_)));
    }

    #[test]
    fn empty_lp_rejected() {
        let lp = LinearProgram::new(Objective::Maximize, vec![]);
        assert!(matches!(lp.solve().unwrap_err(), LpError::Malformed(_)));
    }

    #[test]
    fn adversarial_pivots_overflow_gracefully() {
        // Coefficients with huge pairwise-coprime denominators: the first
        // eliminations multiply the denominators together, exceeding i128.
        // The solver must report LpError::Overflow — not panic — for both
        // the dense tableau and the sparse revised simplex.
        let p: Vec<i128> = vec![
            1_000_000_000_000_000_000_000_000_000_057,
            1_000_000_000_000_000_000_000_000_000_061,
            1_000_000_000_000_000_000_000_000_000_063,
            1_000_000_000_000_000_000_000_000_000_069,
            1_000_000_000_000_000_000_000_000_000_073,
            1_000_000_000_000_000_000_000_000_000_077,
        ];
        let mut lp = LinearProgram::new(Objective::Maximize, vec![r(1, 1); 3]);
        for i in 0..2 {
            lp = lp
                .constrain(
                    vec![r(1, p[3 * i]), r(1, p[3 * i + 1]), r(1, p[3 * i + 2])],
                    ConstraintOp::Le,
                    r(1, 1),
                )
                .unwrap();
        }
        let dense = lp.solve();
        assert!(
            matches!(dense, Err(LpError::Overflow(_))),
            "dense solver must surface overflow, got {dense:?}"
        );
        let sparse = lp.solve_sparse();
        assert!(
            matches!(sparse, Err(LpError::Overflow(_))),
            "sparse solver must surface overflow, got {sparse:?}"
        );
    }

    #[test]
    fn zero_objective_feasibility_check() {
        // Any feasible LP with zero costs solves to 0.
        let lp = LinearProgram::new(Objective::Maximize, vec![Rational::ZERO])
            .constrain(vec![r(1, 1)], ConstraintOp::Le, r(10, 1))
            .unwrap();
        assert_eq!(lp.solve().unwrap().objective_value, Rational::ZERO);
    }
}
