//! Section 4, more rounds: the rounds/space tradeoff of Table 2 (T2), the
//! chain round counts (E3), one round versus two on `SP_k` (E4) and the
//! connected-components dichotomy of Theorem 4.10 (E5).

use mpc_core::analysis::QueryAnalysis;
use mpc_core::hypercube::HyperCubeProgram;
use mpc_core::multiround::executor::PlanProgram;
use mpc_core::multiround::lower_bound::round_lower_bound;
use mpc_core::multiround::planner::MultiRoundPlan;
use mpc_core::space_exponent::{k_epsilon, space_exponent};
use mpc_cq::families;
use mpc_data::matching_database;
use mpc_graph::experiment::{theorem_4_10_experiment, CcExperimentConfig, CcExperimentRow};
use mpc_lp::Rational;
use mpc_sim::{Cluster, MpcConfig};
use mpc_storage::join::evaluate;

use crate::{Columns, Outcome, Scale};

/// `⌈log_{kε} k⌉`: the rounds a chain or cycle of `k` atoms needs when
/// one round joins `kε` of them (Example 4.2).
fn rounds_needed(k: usize, k_eps: usize) -> usize {
    let (mut rounds, mut reach) = (0, 1);
    while reach < k {
        reach *= k_eps;
        rounds += 1;
    }
    rounds
}

row! {
    struct Table2Row {
        query: String = "query",
        space_exponent: String = "space exponent ε*",
        rounds_at_eps0_lower: usize = "rounds @ ε=0 (lower)",
        rounds_at_eps0_plan: usize = "rounds @ ε=0 (plan)",
        rounds_at_eps_half_plan: usize = "rounds @ ε=1/2",
        rounds_at_eps_two_thirds_plan: usize = "rounds @ ε=2/3",
        simulated_correct: bool = "simulated == sequential",
    }
}

/// T2: Table 2, each ε = 0 plan executed at `p = 16`.
pub(super) fn table2(scale: Scale) -> Outcome {
    let n = scale.pick(400, 50);
    let p = 16;
    let queries = [
        families::cycle(4),
        families::cycle(6),
        families::cycle(8),
        families::chain(4),
        families::chain(8),
        families::chain(16),
        families::star(4),
        families::spoke(2),
        families::spoke(3),
        families::spoke(4),
    ];
    let rounds_at = |q, eps| MultiRoundPlan::build(q, eps).expect("planning succeeds").num_rounds();
    let mut rows = Vec::new();
    for q in &queries {
        let db = matching_database(q, n, 7);
        let plan = MultiRoundPlan::build(q, Rational::ZERO).expect("planning succeeds");
        let program = PlanProgram::new(&plan, p, 3).expect("plan compiles");
        let cluster = Cluster::new(MpcConfig::new(p, 0.0)).expect("valid config");
        let result = cluster.run(&program, &db).expect("execution succeeds");
        rows.push(Table2Row {
            query: q.name().to_string(),
            space_exponent: QueryAnalysis::analyze(q).expect("analyses").space_exponent.to_string(),
            rounds_at_eps0_lower: round_lower_bound(q, Rational::ZERO).expect("bound computable"),
            rounds_at_eps0_plan: rounds_at(q, Rational::ZERO),
            rounds_at_eps_half_plan: rounds_at(q, Rational::new(1, 2)),
            rounds_at_eps_two_thirds_plan: rounds_at(q, Rational::new(2, 3)),
            simulated_correct: result.output.same_tuples(&evaluate(q, &db).expect("evaluates")),
        });
    }
    Outcome::new(
        &format!("Table 2 (paper §4) — rounds/space tradeoff, simulated at p = {p}, n = {n}"),
        &rows,
        "Paper reference: Ck and Lk need ⌈log k⌉ rounds at ε = 0 and \
         ~log k / log(2/(1−ε)) in general; Tk needs 1 round; SPk needs 2 rounds at ε = 0 \
         despite a one-round space exponent of 1 − 1/k.",
        check_table2(&rows),
    )
}

/// `Ck` and `Lk` plans take `⌈log_{kε} k⌉` rounds at every ε (`kε` = 2,
/// 4, 6 for ε = 0, 1/2, 2/3), `Tk` one and `SPk` two at ε = 0; no plan
/// beats the lower bound, and every ε = 0 plan computes the join.
fn check_table2(rows: &[Table2Row]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        let family = r.query.trim_end_matches(|c: char| c.is_ascii_digit());
        let k: usize = r.query[family.len()..].parse().expect("family names end in k");
        let plans =
            [r.rounds_at_eps0_plan, r.rounds_at_eps_half_plan, r.rounds_at_eps_two_thirds_plan];
        let expected = match family {
            "C" | "L" => [2, 4, 6].map(|k_eps| rounds_needed(k, k_eps)),
            "T" => [1; 3],
            _ => [2, plans[1], plans[2]],
        };
        if plans != expected || r.rounds_at_eps0_lower > plans[0] || !r.simulated_correct {
            failures.push(format!(
                "{}: plans take {plans:?} rounds at ε = 0, 1/2, 2/3 (expected {expected:?}), \
                 lower bound {}, simulated == sequential: {}",
                r.query, r.rounds_at_eps0_lower, r.simulated_correct
            ));
        }
    }
    failures
}

row! {
    struct ChainRow {
        k: usize = "k",
        epsilon: String = "ε",
        k_epsilon: usize = "kε",
        lower_bound: usize = "lower bound",
        plan_rounds: usize = "plan rounds",
        executed_rounds: usize = "executed rounds",
        max_bytes_per_round: u64 = "max bytes/round",
        correct: bool = "correct",
    }
}

/// E3: the chain `L_k` planned and executed at three space exponents.
pub(super) fn chain_rounds(scale: Scale) -> Outcome {
    let n = scale.pick(1000, 100);
    let p = 16;
    let mut rows = Vec::new();
    for k in [4usize, 8, 16, 32] {
        let q = families::chain(k);
        let db = matching_database(&q, n, 3 + k as u64);
        let truth = evaluate(&q, &db).expect("sequential evaluation succeeds");
        for eps in [Rational::ZERO, Rational::new(1, 2), Rational::new(2, 3)] {
            let plan = MultiRoundPlan::build(&q, eps).expect("planning succeeds");
            let program = PlanProgram::new(&plan, p, 5).expect("plan compiles");
            let cluster = Cluster::new(MpcConfig::new(p, eps.to_f64())).expect("valid config");
            let result = cluster.run(&program, &db).expect("execution succeeds");
            rows.push(ChainRow {
                k,
                epsilon: eps.to_string(),
                k_epsilon: k_epsilon(eps),
                lower_bound: round_lower_bound(&q, eps).expect("bound computable"),
                plan_rounds: plan.num_rounds(),
                executed_rounds: result.num_rounds(),
                max_bytes_per_round: result.max_load_bytes(),
                correct: result.output.same_tuples(&truth),
            });
        }
    }
    Outcome::new(
        &format!("E3 — rounds vs space exponent for chain queries Lk (n = {n}, p = {p})"),
        &rows,
        "Expected shape (Example 4.2 / Cor 4.8): rounds = ⌈log_kε k⌉ with kε = 2⌊1/(1−ε)⌋; \
         L16 drops from 4 rounds (ε=0) to 2 rounds (ε=1/2); the lower bound matches the plan \
         depth for chains.",
        check_chain_rounds(&rows),
    )
}

fn check_chain_rounds(rows: &[ChainRow]) -> Vec<String> {
    rows.iter()
        .filter(|r| {
            let bound = rounds_needed(r.k, r.k_epsilon);
            [r.lower_bound, r.plan_rounds, r.executed_rounds] != [bound; 3] || !r.correct
        })
        .map(|r| {
            format!(
                "L{} at ε = {}: lower bound {}, plan {}, executed {} rounds, ⌈log_{} {}⌉ = {} \
                 (correct: {})",
                r.k,
                r.epsilon,
                r.lower_bound,
                r.plan_rounds,
                r.executed_rounds,
                r.k_epsilon,
                r.k,
                rounds_needed(r.k, r.k_epsilon),
                r.correct
            )
        })
        .collect()
}

row! {
    struct SpokeRow {
        k: usize = "k",
        p: usize = "p",
        one_round_epsilon: String = "1-round ε* = 1-1/k",
        one_round_replication: f64 = "1-round replication"
            => |r| format!("{:.2}", r.one_round_replication),
        one_round_max_bytes: u64 = "1-round max bytes",
        two_round_replication: f64 = "2-round max replication"
            => |r| format!("{:.2}", r.two_round_replication),
        two_round_max_bytes: u64 = "2-round max bytes",
        both_correct: bool = "correct",
    }
}

/// E4: `SP_k` in one HyperCube round against the two-round plan.
pub(super) fn spoke_tradeoff(scale: Scale) -> Outcome {
    let n = scale.pick(2000, 200);
    let mut rows = Vec::new();
    for k in [2usize, 3, 4, 5] {
        let q = families::spoke(k);
        let db = matching_database(&q, n, 31 + k as u64);
        let truth = evaluate(&q, &db).expect("sequential evaluation succeeds");
        let plan = MultiRoundPlan::build(&q, Rational::ZERO).expect("planning succeeds");
        let eps = space_exponent(&q).expect("LP solvable");
        for p in [16usize, 64] {
            let hc = HyperCubeProgram::new(&q, p, 0x5EED).expect("HC plans");
            let cluster = Cluster::new(MpcConfig::new(p, eps.to_f64())).expect("valid config");
            let one_round = cluster.run(&hc, &db).expect("HC run succeeds");
            let program = PlanProgram::new(&plan, p, 7).expect("plan compiles");
            let cluster = Cluster::new(MpcConfig::new(p, 0.0)).expect("valid config");
            let two_round = cluster.run(&program, &db).expect("plan execution succeeds");
            rows.push(SpokeRow {
                k,
                p,
                one_round_epsilon: eps.to_string(),
                one_round_replication: one_round.max_replication_rate(),
                one_round_max_bytes: one_round.max_load_bytes(),
                two_round_replication: two_round.max_replication_rate(),
                two_round_max_bytes: two_round.max_load_bytes(),
                both_correct: one_round.output.same_tuples(&truth)
                    && two_round.output.same_tuples(&truth),
            });
        }
    }
    Outcome::new(
        &format!(
            "E4 — SPk: one round with replication p^(1-1/k) vs two rounds with O(1) (n = {n})"
        ),
        &rows,
        "Expected shape (§4.1): the one-round replication grows towards p as k grows \
         (p^(1-1/k)), while the two-round plan keeps every round's replication near 1.",
        check_spoke_tradeoff(&rows),
    )
}

/// The shape, not the unrounded bound: integer shares put `k = 5` at
/// `p = 16` above `p^(1−1/k)`.
fn check_spoke_tradeoff(rows: &[SpokeRow]) -> Vec<String> {
    let mut failures: Vec<String> = rows
        .iter()
        .filter(|r| (r.two_round_replication - 1.0).abs() >= 0.005 || !r.both_correct)
        .map(|r| {
            format!(
                "SP{} at p = {}: two-round replication {:.2} (correct: {})",
                r.k, r.p, r.two_round_replication, r.both_correct
            )
        })
        .collect();
    for a in rows {
        if let Some(b) = rows.iter().find(|b| b.p == a.p && b.k == a.k + 1) {
            if b.one_round_replication <= a.one_round_replication {
                failures.push(format!(
                    "p = {}: one-round replication {:.2} at k = {} does not exceed {:.2} at k = {}",
                    a.p, b.one_round_replication, b.k, a.one_round_replication, a.k
                ));
            }
        }
    }
    failures
}

/// The average degree of E5's dense instances.
const DENSE_DEGREE: usize = 32;

impl Columns for CcExperimentRow {
    fn header() -> Vec<&'static str> {
        vec![
            "p",
            "layers k = ⌊√p⌋",
            "sparse rounds (label prop.)",
            "sparse within budget",
            "dense rounds",
            "dense within budget",
            "2-round alg. on sparse within budget",
        ]
    }

    fn cells(&self) -> Vec<String> {
        let converged = if self.sparse_converged { "" } else { " (not converged)" };
        vec![
            self.p.to_string(),
            self.k.to_string(),
            format!("{}{converged}", self.sparse_rounds),
            self.sparse_within_budget.to_string(),
            self.dense_rounds.to_string(),
            self.dense_within_budget.to_string(),
            self.dense_on_sparse_within_budget.to_string(),
        ]
    }
}

/// E5: connected components of layered path graphs with `⌊√p⌋` layers
/// (label propagation) against the two-round dense algorithm.
pub(super) fn connected_components(scale: Scale) -> Outcome {
    let config = CcExperimentConfig {
        layer_size: scale.pick(64, 16),
        dense_degree: DENSE_DEGREE,
        max_rounds: 64,
        ..Default::default()
    };
    let rows = theorem_4_10_experiment(&[4, 16, 64, 256], &config).expect("experiment runs");
    Outcome::new(
        &format!(
            "E5 — Theorem 4.10: connected components, sparse vs dense (layer size {}, ε = 0)",
            config.layer_size
        ),
        &rows,
        "Expected shape: sparse round counts grow with p (Ω(log p) for any tuple-based \
         algorithm; Θ(p^δ) for label propagation), while dense graphs finish in 2 rounds — \
         within budget only while their degree reaches p² (here at p = 4 only: server 0 \
         collects p spanning forests of V − 1 edges against a budget of 2·E/p) — and the same \
         2-round algorithm violates the budget on sparse inputs.",
        check_connected_components(&rows),
    )
}

/// Server 0 of the dense algorithm receives `p` spanning forests of
/// `V − 1` edges; the ε = 0 budget is `2·E/p` with `E = V·d/2`, so the
/// dense instance fits exactly when `d ≥ p²` (approximately: `V − 1 < V`).
fn check_connected_components(rows: &[CcExperimentRow]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        let dense_fits = DENSE_DEGREE >= r.p * r.p;
        if !r.sparse_converged
            || r.dense_rounds != 2
            || r.dense_on_sparse_within_budget
            || r.dense_within_budget != dense_fits
        {
            failures.push(format!(
                "p = {}: sparse converged {} in {} rounds; dense {} rounds, within budget {} \
                 (degree {DENSE_DEGREE} vs p² = {}); 2-round on sparse within budget {}",
                r.p,
                r.sparse_converged,
                r.sparse_rounds,
                r.dense_rounds,
                r.dense_within_budget,
                r.p * r.p,
                r.dense_on_sparse_within_budget
            ));
        }
    }
    for w in rows.windows(2) {
        if w[1].sparse_rounds <= w[0].sparse_rounds {
            failures.push(format!(
                "sparse rounds do not grow from p = {} ({}) to p = {} ({})",
                w[0].p, w[0].sparse_rounds, w[1].p, w[1].sparse_rounds
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_needed_is_the_ceiling_log() {
        assert_eq!([4, 8, 16, 32].map(|k| rounds_needed(k, 2)), [2, 3, 4, 5]);
        assert_eq!(rounds_needed(16, 4), 2);
        assert_eq!(rounds_needed(6, 6), 1);
        assert_eq!(rounds_needed(8, 6), 2);
    }

    #[test]
    fn table2_fails_a_spoke_that_takes_one_round() {
        let row = Table2Row {
            query: "SP3".to_string(),
            space_exponent: "2/3".to_string(),
            rounds_at_eps0_lower: 1,
            rounds_at_eps0_plan: 1,
            rounds_at_eps_half_plan: 1,
            rounds_at_eps_two_thirds_plan: 1,
            simulated_correct: true,
        };
        assert_eq!(check_table2(&[row]).len(), 1);
    }

    #[test]
    fn chain_rounds_fails_a_plan_off_the_log_bound() {
        let row = ChainRow {
            k: 16,
            epsilon: "1/2".to_string(),
            k_epsilon: 4,
            lower_bound: 2,
            plan_rounds: 3,
            executed_rounds: 3,
            max_bytes_per_round: 6784,
            correct: true,
        };
        assert_eq!(check_chain_rounds(&[row]).len(), 1);
    }

    #[test]
    fn spoke_tradeoff_fails_replication_that_does_not_grow_with_k() {
        let row = |k, one_round_replication| SpokeRow {
            k,
            p: 16,
            one_round_epsilon: String::new(),
            one_round_replication,
            one_round_max_bytes: 0,
            two_round_replication: 1.0,
            two_round_max_bytes: 0,
            both_correct: true,
        };
        assert!(check_spoke_tradeoff(&[row(2, 4.0), row(3, 5.33)]).is_empty());
        assert_eq!(check_spoke_tradeoff(&[row(2, 4.0), row(3, 4.0)]).len(), 1);
    }

    #[test]
    fn connected_components_fails_a_dense_run_over_budget_at_p_4() {
        let row = CcExperimentRow {
            p: 4,
            k: 2,
            layer_size: 16,
            sparse_rounds: 3,
            sparse_converged: true,
            sparse_within_budget: true,
            dense_rounds: 2,
            dense_within_budget: false,
            dense_on_sparse_within_budget: false,
        };
        assert_eq!(check_connected_components(&[row]).len(), 1);
    }
}
