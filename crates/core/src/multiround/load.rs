//! Per-round load predictions for multi-round plans — the refined
//! multi-round analysis of the journal version (arXiv:1602.06236,
//! Section 6).
//!
//! The conference paper's multi-round story counts *rounds*; the journal
//! version also tracks the **load of every round**: a `Γ^r_ε` plan runs
//! each operator as a one-round HyperCube at the operator's own `τ*`, so
//! round `t` costs each server the sum, over the tuples arriving in round
//! `t`, of `size · replication / cells` — and over matching databases the
//! intermediate views of tree-like operators are themselves matchings
//! (`n^{1+χ}` tuples, Lemma 3.4), which makes the per-round prediction a
//! closed form the simulator can be checked against.
//!
//! [`MultiRoundPlan::predict_loads`] mirrors the executor's routing
//! schedule exactly: base relations are shuffled in **round 1** straight
//! to the grid of the operator that consumes them (even when that operator
//! runs later), while a view produced in round `r` travels at the start of
//! the round of its consuming operator. The prediction for a round is the
//! *expected* per-server tuple count; the simulated max exceeds it only by
//! hash imbalance, which is what the comparison's slack absorbs.

use serde::Serialize;

use mpc_sim::RunResult;

use crate::error::CoreError;
use crate::multiround::planner::MultiRoundPlan;
use crate::Result;

/// Predicted communication of one operator of a plan.
#[derive(Debug, Clone, Serialize)]
pub struct OperatorLoadPrediction {
    /// The view the operator produces.
    pub view_name: String,
    /// The round the operator runs in (1-based).
    pub round: usize,
    /// Estimated tuples of each input relation/view the operator consumes,
    /// in atom order.
    pub input_tuples: Vec<(String, f64)>,
    /// Estimated tuples of the produced view: `s^{1+χ}` for input size `s`
    /// (Lemma 3.4 over matchings), at least 1.
    pub output_tuples: f64,
    /// Expected tuples this operator's shuffles deliver to one server,
    /// summed over its inputs (`Σ size · repl / cells`).
    pub expected_server_tuples: f64,
}

/// Predicted per-server load of one round of a plan.
#[derive(Debug, Clone, Serialize)]
pub struct RoundLoadPrediction {
    /// Round number (1-based).
    pub round: usize,
    /// Expected tuples received per server this round, summed over every
    /// shuffle the executor schedules for this round.
    pub predicted_tuples: f64,
}

/// The complete load profile of a plan at `(p, n)`.
#[derive(Debug, Clone, Serialize)]
pub struct PlanLoadPrediction {
    /// Server count the profile was computed for.
    pub p: usize,
    /// Per-relation input cardinality the profile was computed for.
    pub n: u64,
    /// One prediction per round.
    pub rounds: Vec<RoundLoadPrediction>,
    /// Per-operator detail (allocation-aware).
    pub operators: Vec<OperatorLoadPrediction>,
}

impl PlanLoadPrediction {
    /// The largest predicted per-round load.
    pub fn max_predicted_tuples(&self) -> f64 {
        max_predicted_tuples(&self.rounds)
    }

    /// Compare the prediction with a simulated run, round by round.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPlan`] when the run has a different
    /// round count than the plan.
    pub fn compare(&self, result: &RunResult) -> Result<Vec<RoundComparison>> {
        compare_rounds(&self.rounds, result)
    }
}

/// The largest predicted load of a per-round profile — the one body
/// behind every prediction's `max_predicted_tuples`.
pub(crate) fn max_predicted_tuples(rounds: &[RoundLoadPrediction]) -> f64 {
    rounds.iter().map(|r| r.predicted_tuples).fold(0.0, f64::max)
}

/// A per-round profile against a simulated run, round by round — the one
/// body behind every prediction's `compare`.
pub(crate) fn compare_rounds(
    rounds: &[RoundLoadPrediction],
    result: &RunResult,
) -> Result<Vec<RoundComparison>> {
    if result.num_rounds() != rounds.len() {
        return Err(CoreError::InvalidPlan(format!(
            "run has {} rounds but the prediction covers {}",
            result.num_rounds(),
            rounds.len()
        )));
    }
    Ok(rounds
        .iter()
        .zip(&result.rounds)
        .map(|(pred, stats)| RoundComparison {
            round: pred.round,
            predicted_tuples: pred.predicted_tuples,
            simulated_max_tuples: stats.max_tuples_received,
            ratio: if pred.predicted_tuples > 0.0 {
                stats.max_tuples_received as f64 / pred.predicted_tuples
            } else {
                1.0
            },
        })
        .collect())
}

/// One row of the predicted-vs-simulated comparison.
#[derive(Debug, Clone, Serialize)]
pub struct RoundComparison {
    /// Round number (1-based).
    pub round: usize,
    /// Predicted expected per-server tuples.
    pub predicted_tuples: f64,
    /// Simulated max per-server tuples received.
    pub simulated_max_tuples: u64,
    /// `simulated / predicted` (1.0 when nothing was predicted).
    pub ratio: f64,
}

impl MultiRoundPlan {
    /// Predict the per-round per-server loads of this plan on `p` servers
    /// over a database with `n` tuples per base relation, under the
    /// journal's analysis (each operator a one-round HyperCube at its own
    /// `τ*`, views estimated by the matching expectation `s^{1+χ}`).
    ///
    /// ```
    /// use mpc_core::multiround::planner::MultiRoundPlan;
    /// use mpc_lp::Rational;
    ///
    /// // L4 at ε = 0 is two rounds of binary joins; every shuffle is
    /// // replication-free, so round 1 delivers all 4n base tuples
    /// // (n/2 per server on p = 8) and round 2 the two n-tuple views.
    /// let plan = MultiRoundPlan::build(&mpc_cq::families::chain(4), Rational::ZERO).unwrap();
    /// let profile = plan.predict_loads(8, 1000).unwrap();
    /// assert_eq!(profile.rounds.len(), 2);
    /// assert!((profile.rounds[0].predicted_tuples - 500.0).abs() < 1e-9);
    /// assert!((profile.rounds[1].predicted_tuples - 250.0).abs() < 1e-9);
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates LP/allocation errors; rejects `p == 0`.
    pub fn predict_loads(&self, p: usize, n: u64) -> Result<PlanLoadPrediction> {
        if p == 0 {
            return Err(CoreError::InvalidPlan("p must be at least 1".to_string()));
        }
        let mut rounds: Vec<RoundLoadPrediction> = (1..=self.num_rounds())
            .map(|round| RoundLoadPrediction { round, predicted_tuples: 0.0 })
            .collect();
        let mut operators = Vec::new();
        // Estimated size of each view, by name, as levels are processed.
        let mut view_sizes: std::collections::HashMap<String, f64> =
            std::collections::HashMap::new();

        for (li, level) in self.levels().iter().enumerate() {
            let round = li + 1;
            for op in &level.operators {
                let alloc = op.allocation(p)?;
                let cells = alloc.num_cells() as f64;
                let mut input_tuples = Vec::new();
                let mut expected_server_tuples = 0.0;
                let mut max_input = 0.0f64;
                for a in op.query.atom_ids() {
                    let atom = op.query.atom(a)?;
                    let size = view_sizes.get(&atom.name).copied().unwrap_or(n as f64);
                    max_input = max_input.max(size);
                    let contribution =
                        size * alloc.replication_of_atom(&op.query, a)? as f64 / cells;
                    expected_server_tuples += contribution;
                    // The executor ships base relations in round 1 and a
                    // view at the start of its consumer's round.
                    let arrival = if view_sizes.contains_key(&atom.name) { round } else { 1 };
                    rounds[arrival - 1].predicted_tuples += contribution;
                    input_tuples.push((atom.name.clone(), size));
                }
                // Lemma 3.4: a connected query over matchings of size s has
                // expected answer count s^{1+χ} (at least 1 answer-slot).
                let chi = op.query.characteristic();
                let output_tuples = max_input.powi(1 + chi as i32).max(1.0);
                view_sizes.insert(op.view_name.clone(), output_tuples);
                operators.push(OperatorLoadPrediction {
                    view_name: op.view_name.clone(),
                    round,
                    input_tuples,
                    output_tuples,
                    expected_server_tuples,
                });
            }
        }

        Ok(PlanLoadPrediction { p, n, rounds, operators })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;
    use mpc_data::matching_database;
    use mpc_lp::Rational;
    use mpc_sim::{Cluster, MpcConfig};

    use crate::hypercube::HyperCubeProgram;
    use crate::multiround::executor::PlanProgram;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9 * b.abs().max(1.0), "{a} vs {b}");
    }

    #[test]
    fn chain_l4_profile_matches_hand_computation() {
        // L4 at ε = 0, p = 8, n = 1000. Level 1: two L2 operators, each a
        // replication-free hash join (shares all on the middle variable):
        // round 1 delivers 4 relations × n/8 tuples per server = n/2.
        // Level 2: the final join of V1(x0,x1,x2) and V2(x2,x3,x4), views
        // of expected size n (χ(L2) = 0): round 2 delivers 2n/8 = n/4.
        let plan = MultiRoundPlan::build(&families::chain(4), Rational::ZERO).unwrap();
        let profile = plan.predict_loads(8, 1000).unwrap();
        assert_eq!(profile.rounds.len(), 2);
        close(profile.rounds[0].predicted_tuples, 500.0);
        close(profile.rounds[1].predicted_tuples, 250.0);
        close(profile.max_predicted_tuples(), 500.0);
        // All three operators are tree-like: views of expected size n.
        for op in &profile.operators {
            close(op.output_tuples, 1000.0);
        }
    }

    #[test]
    fn base_relations_of_late_operators_count_in_round_one() {
        // SP2 at ε = 0: level 1 joins the two R-S pairs, level 2 joins the
        // views. Every base relation arrives in round 1 even though the
        // final operator runs in round 2.
        let plan = MultiRoundPlan::build(&families::spoke(2), Rational::ZERO).unwrap();
        let profile = plan.predict_loads(4, 400).unwrap();
        let base_total: f64 = profile.rounds[0].predicted_tuples;
        assert!(base_total > 0.0);
        // 4 base relations spread over the operators' grids.
        assert_eq!(profile.rounds.len(), plan.num_rounds());
    }

    #[test]
    fn prediction_brackets_simulation_for_matching_chains() {
        // Over matchings the chain profile is sharp: intermediate views
        // are matchings of exactly n tuples, so the simulated max load per
        // round sits within hash-imbalance slack of the prediction.
        for (k, p) in [(4usize, 8usize), (8, 8)] {
            let q = families::chain(k);
            let n = 2000u64;
            let db = matching_database(&q, n, 17);
            let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
            let profile = plan.predict_loads(p, n).unwrap();
            let program = PlanProgram::new(&plan, p, 3).unwrap();
            let cluster = Cluster::new(MpcConfig::new(p, 0.0)).unwrap();
            let rows = profile.compare(&cluster.run(&program, &db).unwrap()).unwrap();
            assert_eq!(rows.len(), plan.num_rounds());
            for row in &rows {
                assert!(
                    row.ratio >= 1.0 / 2.0 && row.ratio <= 2.0,
                    "L{k} round {}: predicted {} vs simulated {}",
                    row.round,
                    row.predicted_tuples,
                    row.simulated_max_tuples
                );
            }
        }
    }

    #[test]
    fn comparison_rejects_mismatched_round_counts() {
        let q = families::chain(4);
        let db = matching_database(&q, 300, 5);
        let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
        let profile = plan.predict_loads(8, 300).unwrap();
        // A one-round HyperCube run has the wrong round count for the
        // two-round plan profile.
        let hc = HyperCubeProgram::new(&q, 8, 0x5EED).unwrap();
        let one_round = Cluster::new(MpcConfig::new(8, 0.9)).unwrap().run(&hc, &db).unwrap();
        assert!(profile.compare(&one_round).is_err());
    }

    #[test]
    fn zero_p_is_rejected() {
        let plan = MultiRoundPlan::build(&families::chain(4), Rational::ZERO).unwrap();
        assert!(plan.predict_loads(0, 100).is_err());
    }
}
