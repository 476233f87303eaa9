//! The planners by name, and the one place a name becomes a program.
//!
//! A [`PlannerChoice`] is both what [`QueryAnalysis::planner_choice`]
//! recommends and what a job asks to run; [`PlannerChoice::build`] turns
//! it into the boxed [`MpcProgram`] every executor takes.

use mpc_lp::Rational;
use mpc_sim::program::BroadcastProgram;
use mpc_sim::MpcProgram;
use mpc_storage::Database;

use crate::analysis::QueryAnalysis;
use crate::hypercube::HyperCubeProgram;
use crate::multiround::executor::PlanProgram;
use crate::multiround::planner::MultiRoundPlan;
use crate::skew::{HeavyHitterPolicy, SkewResilientProgram};
use crate::wco::WcoProgram;
use crate::Result;

/// A planner strategy with the parameters its program needs — the "which
/// planner when" table of [`QueryAnalysis::planner_choice`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlannerChoice {
    /// Skew-free and one-round computable at the target ε: the ordinary
    /// HyperCube ([`HyperCubeProgram`]).
    OneRoundHyperCube,
    /// One-round computable but skewed: the residual plans of
    /// [`crate::skew`] (heavy subsets on disjoint groups, still one round).
    OneRoundSkewResilient {
        /// Heavy-hitter threshold multiplier ([`HeavyHitterPolicy::scale`]).
        scale: f64,
    },
    /// Tree-like but too deep for one round at the target ε: the greedy
    /// `Γ^r_ε` plan ([`MultiRoundPlan`]).
    MultiRound {
        /// The plan's space exponent ε.
        plan_epsilon: Rational,
    },
    /// Cyclic and skewed: the worst-case optimal heavy/light strategy of
    /// [`crate::wco`], load target `n/p^{1/ρ*}`.
    WorstCaseOptimal,
    /// The broadcast-everything baseline ([`BroadcastProgram`]).
    Broadcast,
}

impl std::fmt::Display for PlannerChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PlannerChoice::OneRoundHyperCube => "one-round-hypercube",
            PlannerChoice::OneRoundSkewResilient { .. } => "one-round-skew-resilient",
            PlannerChoice::MultiRound { .. } => "multi-round",
            PlannerChoice::WorstCaseOptimal => "worst-case-optimal",
            PlannerChoice::Broadcast => "broadcast",
        })
    }
}

impl PlannerChoice {
    /// Build the program for `analysis`'s query on `p` servers. The
    /// HyperCube rounds the cover the analysis holds; the skew-resilient
    /// and worst-case optimal planners plan against `db`.
    ///
    /// # Errors
    ///
    /// Those of the chosen planner.
    pub fn build(
        &self,
        analysis: &QueryAnalysis,
        db: &Database,
        p: usize,
        seed: u64,
    ) -> Result<Box<dyn MpcProgram + Send + Sync>> {
        let q = analysis.query();
        Ok(match *self {
            PlannerChoice::OneRoundHyperCube => {
                Box::new(HyperCubeProgram::with_allocation(q, analysis.shares_for(p)?, seed))
            }
            PlannerChoice::OneRoundSkewResilient { scale } => {
                Box::new(SkewResilientProgram::new(q, db, p, &HeavyHitterPolicy { scale }, seed)?)
            }
            PlannerChoice::MultiRound { plan_epsilon } => {
                Box::new(PlanProgram::new(&MultiRoundPlan::build(q, plan_epsilon)?, p, seed)?)
            }
            PlannerChoice::WorstCaseOptimal => Box::new(WcoProgram::new(q, db, p, seed)?),
            PlannerChoice::Broadcast => Box::new(BroadcastProgram::new(q.clone())),
        })
    }
}
