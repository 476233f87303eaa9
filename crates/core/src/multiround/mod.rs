//! Multi-round query evaluation in the tuple-based MPC model (Section 4).
//!
//! * [`planner`] — constructs round-by-round query plans whose operators
//!   are one-round (`Γ¹_ε`) subqueries, realising the classes `Γ^r_ε` of
//!   Section 4.1 (Example 4.2's bushy plans for chains, the two-round plan
//!   for `SP_k`, and the radius-based bound of Lemma 4.3).
//! * [`executor`] — turns a plan into an [`mpc_sim::MpcProgram`]: one
//!   HyperCube shuffle per operator per round, intermediate views shipped
//!   as join tuples (exactly what the tuple-based model allows).
//! * [`lower_bound`] — ε-good sets and (ε,r)-plans (Definition 4.4) and the
//!   round lower bounds of Theorem 4.5 / Corollary 4.8 / Lemma 4.9.
//! * [`load`] — the journal version's refined multi-round analysis:
//!   per-round per-server load predictions for a plan
//!   ([`MultiRoundPlan::predict_loads`]) and the predicted-vs-simulated
//!   comparison against a [`mpc_sim::RunResult`].

pub mod executor;
pub mod load;
pub mod lower_bound;
pub mod planner;

pub use executor::PlanProgram;
pub use load::{OperatorLoadPrediction, PlanLoadPrediction, RoundComparison, RoundLoadPrediction};
pub use lower_bound::{
    find_er_plan, is_epsilon_good, round_lower_bound, round_lower_bound_via_plan,
};
pub use planner::{MultiRoundPlan, Operator, PlanLevel};
