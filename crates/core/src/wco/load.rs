//! Per-round load predictions for [`WorstCaseOptimalPlan`], mirroring
//! `MultiRoundPlan::predict_loads` — and the AGM / one-round load targets
//! the crossover experiment brackets runs against.
//!
//! Unlike the multi-round profile (which estimates view sizes over
//! matchings), the WCO prediction is computed from the **exact** tuple
//! masses the planning scan recorded: round 1 is the light HyperCube
//! delivery plus the even staging share, round 2 the largest per-cell
//! broadcast-join volume over the active heavy grids. The simulated max
//! exceeds the prediction only by hash imbalance.

use serde::Serialize;

use mpc_cq::Query;
use mpc_lp::{QueryLps, Rational};
use mpc_sim::RunResult;

use crate::heavy::{residual_query, Group};
use crate::multiround::load::{self, RoundComparison, RoundLoadPrediction};
use crate::shares::fractional_power;
use crate::wco::plan::WorstCaseOptimalPlan;
use crate::Result;

/// Predicted communication of one pattern group.
#[derive(Debug, Clone, Serialize)]
pub struct PatternLoadPrediction {
    /// Comma-joined heavy variable names (empty for the light pattern).
    pub heavy_vars: String,
    /// Grid cells of the pattern.
    pub cells: usize,
    /// The round the pattern's grid is filled in (1 for the light
    /// HyperCube, 2 for heavy broadcast-joins).
    pub round: usize,
    /// Expected tuples delivered to one cell of this grid,
    /// `Σ_A mass_A · repl_A / cells`.
    pub expected_cell_tuples: f64,
}

/// The complete load profile of a worst-case optimal plan.
#[derive(Debug, Clone, Serialize)]
pub struct WcoLoadPrediction {
    /// Server count.
    pub p: usize,
    /// Largest base relation cardinality.
    pub n: u64,
    /// One prediction per round (1 or 2 entries).
    pub rounds: Vec<RoundLoadPrediction>,
    /// Per-pattern detail, light pattern first.
    pub patterns: Vec<PatternLoadPrediction>,
    /// The AGM-matching worst-case target `n / p^{1/ρ*}` this strategy
    /// aims for (triangle: `n / p^{2/3}`).
    pub agm_target: f64,
    /// The one-round HyperCube target `n / p^{1/τ*}` it is compared
    /// against (equal to the AGM target only when `τ* = ρ*`).
    pub one_round_target: f64,
}

impl WcoLoadPrediction {
    /// Predict the per-round per-server loads of `plan` from the exact
    /// tuple masses recorded at planning time.
    ///
    /// # Errors
    ///
    /// Propagates rational-arithmetic errors (degenerate `τ*`/`ρ*`
    /// cannot occur for well-formed queries).
    pub fn predict(plan: &WorstCaseOptimalPlan) -> Result<Self> {
        let p = plan.p();
        let n = plan.n();
        let query = plan.query();
        let mut patterns = Vec::with_capacity(plan.patterns().len());
        let mut round2_max = 0.0f64;
        for (pi, pat) in plan.patterns().iter().enumerate() {
            let cells = pat.cells().max(1) as f64;
            let expected: f64 = query
                .atoms()
                .iter()
                .zip(&pat.atom_tuples)
                .map(|(atom, m)| *m as f64 * pat.replication_of(atom) as f64 / cells)
                .sum();
            if pi > 0 {
                round2_max = round2_max.max(expected);
            }
            let names: Vec<&str> =
                pat.heavy_vars.iter().map(|v| query.var_names()[v.0].as_str()).collect();
            patterns.push(PatternLoadPrediction {
                heavy_vars: names.join(","),
                cells: pat.cells(),
                round: if pi == 0 { 1 } else { 2 },
                expected_cell_tuples: expected,
            });
        }
        // Round 1: the light grid delivery plus every server's even share
        // of the staging shuffle.
        let staging_share = plan.staged_tuples() as f64 / p as f64;
        let round1 = patterns[0].expected_cell_tuples + staging_share;
        let mut rounds = vec![RoundLoadPrediction { round: 1, predicted_tuples: round1 }];
        if plan.num_rounds() == 2 {
            rounds.push(RoundLoadPrediction { round: 2, predicted_tuples: round2_max });
        }
        Ok(WcoLoadPrediction {
            p,
            n,
            rounds,
            patterns,
            agm_target: load_target(n, p, plan.rho_star())?,
            one_round_target: load_target(n, p, plan.tau_star())?,
        })
    }

    /// The largest predicted per-round load.
    pub fn max_predicted_tuples(&self) -> f64 {
        load::max_predicted_tuples(&self.rounds)
    }

    /// Compare the prediction with a simulated run, round by round (the
    /// same contract as `PlanLoadPrediction::compare`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPlan`](crate::CoreError::InvalidPlan)
    /// when the run has a different round count than the plan.
    pub fn compare(&self, result: &RunResult) -> Result<Vec<RoundComparison>> {
        load::compare_rounds(&self.rounds, result)
    }
}

/// The load target `n / p^{1/e}` for a rational exponent `e` (`ρ*` gives
/// the AGM worst-case target, `τ*` the one-round HyperCube target).
///
/// # Errors
///
/// Propagates rational-arithmetic errors on `e = 0`.
pub fn load_target(n: u64, p: usize, e: Rational) -> Result<f64> {
    Ok(n as f64 / fractional_power(p, e.recip()?))
}

/// The fractional edge-cover value `ρ*_H` of a group's residual query
/// (its heavy variables deleted) — the AGM exponent of the group's load
/// target `n_H / u^{1/ρ*_H}`; `None` when every variable is heavy and the
/// residual is a pure filter.
///
/// # Errors
///
/// Propagates LP errors.
pub fn residual_rho_star(query: &Query, group: &Group) -> Result<Option<Rational>> {
    match residual_query(query, &group.heavy_vars) {
        Some(rq) => Ok(Some(QueryLps::solve(&rq)?.edge_cover().total())),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_data::skew::heavy_hitter_database;
    use mpc_sim::{Cluster, MpcConfig};

    use crate::wco::WcoProgram;

    #[test]
    fn triangle_targets_are_the_paper_exponents() {
        // C3: ρ* = τ* = 3/2 → both targets n/p^{2/3}.
        let q = families::triangle();
        let db = matching_database(&q, 1000, 1);
        let plan = WorstCaseOptimalPlan::build(&q, &db, 64).unwrap();
        let pred = WcoLoadPrediction::predict(&plan).unwrap();
        let expected = 1000.0 / 64f64.powf(2.0 / 3.0);
        assert!((pred.agm_target - expected).abs() < 1e-9);
        assert!((pred.one_round_target - expected).abs() < 1e-9);
    }

    #[test]
    fn skew_free_profile_is_one_round_of_the_light_grid() {
        let q = families::triangle();
        let db = matching_database(&q, 2700, 5);
        let plan = WorstCaseOptimalPlan::build(&q, &db, 27).unwrap();
        let pred = WcoLoadPrediction::predict(&plan).unwrap();
        assert_eq!(pred.rounds.len(), 1);
        // 3 relations × n tuples × replication 3 / 27 cells = n/3.
        assert!((pred.rounds[0].predicted_tuples - 900.0).abs() < 1e-9);
        assert_eq!(pred.patterns.len(), 1);
        assert_eq!(pred.patterns[0].heavy_vars, "");
    }

    #[test]
    fn prediction_brackets_simulation_under_skew() {
        let q = families::triangle();
        let db = heavy_hitter_database(&q, 800, 2000, 0.5, 17);
        let plan = WorstCaseOptimalPlan::build(&q, &db, 16).unwrap();
        let pred = WcoLoadPrediction::predict(&plan).unwrap();
        assert_eq!(pred.rounds.len(), 2);
        let program = WcoProgram::with_plan(plan, 29);
        let cluster = Cluster::new(MpcConfig::new(16, 0.9)).unwrap();
        let result = cluster.run(&program, &db).unwrap();
        let rows = pred.compare(&result).unwrap();
        for row in &rows {
            assert!(
                row.simulated_max_tuples as f64 <= 4.0 * row.predicted_tuples + 16.0,
                "round {}: simulated {} far above predicted {}",
                row.round,
                row.simulated_max_tuples,
                row.predicted_tuples
            );
        }
    }

    #[test]
    fn comparison_rejects_mismatched_round_counts() {
        let q = families::triangle();
        // deg = 0.6·1000 = 600 planted copies; 600·2 > 1000 makes the
        // hitter heavy at the p = 8 share of 2.
        let db = heavy_hitter_database(&q, 800, 1000, 0.6, 3);
        let plan = WorstCaseOptimalPlan::build(&q, &db, 8).unwrap();
        assert_eq!(plan.num_rounds(), 2);
        let pred = WcoLoadPrediction::predict(&plan).unwrap();
        // A one-round HyperCube run cannot be compared to it.
        let hc = crate::hypercube::HyperCubeProgram::new(&q, 8, 0x5EED).unwrap();
        let one_round = Cluster::new(MpcConfig::new(8, 0.9)).unwrap().run(&hc, &db).unwrap();
        assert!(pred.compare(&one_round).is_err());
    }
}
