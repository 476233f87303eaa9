//! Worst-case optimal multi-round algorithms (Beame, Koutris & Suciu,
//! "Worst-Case Optimal Algorithms for Parallel Query Processing",
//! arXiv:1604.01848).
//!
//! The one-round HyperCube is optimal over *skew-free* (matching-like)
//! databases, but on worst-case inputs a single round cannot do better
//! than load `Ω(n/p^{1/2})` on the triangle query, while the AGM bound
//! says `Õ(n/p^{1/ρ*}) = Õ(n/p^{2/3})` tuples per server are enough to
//! hold a `1/p` share of any output. The paper closes that gap with O(1)
//! extra rounds and a **heavy/light split**:
//!
//! * a value is *heavy* at variable `x` when its degree in some atom
//!   containing `x` exceeds `|R| / p_x` (the share threshold) — there are
//!   at most `ℓ · p_x` such values per variable, few enough to enumerate;
//! * answers whose variables are all light are produced by the ordinary
//!   **skew-free HyperCube** at the cover-based shares (for C₃ that is
//!   shares `p^{1/3}` and load `Õ(n/p^{2/3})`);
//! * answers with heavy configuration exactly `H ≠ ∅` are produced by a
//!   dedicated **broadcast-join round**: the few heavy values of each
//!   `x ∈ H` become *value-indexed* grid dimensions of a server group of
//!   their own, atoms missing a dimension are replicated across it (the
//!   broadcast), and the residual light variables are hashed with the
//!   residual query's own cover shares — one fractional edge-cover LP per
//!   residual subquery (closed form, else sparse simplex; solved afresh).
//!
//! Because a potential answer has exactly one heavy configuration, the
//! per-group outputs **partition** the join result: no duplicates, no
//! losses — the property the equivalence suite pins byte-for-byte against
//! the sequential join.
//!
//! * [`plan`] — [`WorstCaseOptimalPlan`]: degree statistics, heavy
//!   patterns, and one [`crate::heavy::Group`] per active pattern with its
//!   share vector.
//! * [`program`] — [`WcoProgram`]: the plan compiled to an
//!   [`mpc_sim::MpcProgram`] (round 1: light HyperCube + even staging;
//!   round 2: the broadcast-join for every active heavy pattern).
//! * [`load`] — [`WcoLoadPrediction`]: exact per-round expected loads
//!   (mirroring `MultiRoundPlan::predict_loads`), the AGM load target
//!   `n/p^{1/ρ*}`, and the verification hook against the multi-round
//!   lower bound of [`crate::multiround::lower_bound`].

pub mod load;
pub mod plan;
pub mod program;

pub use load::{PatternLoadPrediction, WcoLoadPrediction};
pub use plan::WorstCaseOptimalPlan;
pub use program::WcoProgram;

/// The planner enum, re-exported at its old path for `benchmark/`.
pub use crate::plan::PlannerChoice;

use mpc_lp::Rational;

/// The effective space exponent of the worst-case optimal strategy:
/// its load target is `n/p^{1/ρ*}`, i.e. `ε = 1 − 1/ρ*`. This is the ε
/// at which the multi-round lower bound must be consulted.
///
/// # Errors
///
/// Propagates rational-arithmetic errors (`ρ* = 0` cannot occur for
/// well-formed queries).
pub fn effective_epsilon(rho_star: Rational) -> crate::Result<Rational> {
    Ok(Rational::ONE - rho_star.recip()?)
}
