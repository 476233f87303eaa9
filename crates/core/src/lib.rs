//! **mpc-core** — the algorithms and bounds of *Beame, Koutris & Suciu,
//! "Communication Steps for Parallel Query Processing" (PODS 2013)*.
//!
//! Built on the substrates of this workspace (`mpc-cq` queries, `mpc-lp`
//! exact LPs, `mpc-storage` relations, `mpc-data` generators and `mpc-sim`
//! — the MPC cluster simulator), this crate provides the paper's actual
//! contributions:
//!
//! * [`shares`] — HyperCube *share exponents* `e_i = v_i / τ` read off an
//!   optimal fractional vertex cover, and their integer rounding to actual
//!   per-variable shares `p_i` with `∏ p_i ≤ p` (Section 3.1).
//! * [`grid`] — the server grid `[p₁] × ⋯ × [p_k]` and the paper's one
//!   routing rule — a tuple goes to every cell that agrees with its
//!   coordinates — compiled once per atom and shared by every program
//!   below.
//! * [`hypercube`] — the **HyperCube (HC) algorithm**: the one-round
//!   MPC(ε) program over the grid of the optimal shares
//!   (Proposition 3.2), plus the *partial-answer* variant run below the
//!   space exponent (Proposition 3.11).
//! * [`baseline`] — broadcast and single-key shuffle joins expressed as MPC
//!   programs, for load comparisons.
//! * [`space_exponent`] — `ε*(q) = 1 − 1/τ*(q)` and the one-round class
//!   `Γ¹_ε` (Theorem 1.1, Corollary 3.10).
//! * [`multiround`] — multi-round query plans (`Γ^r_ε`, Lemma 4.3 /
//!   Example 4.2), their execution on the simulator, the round lower
//!   bounds from ε-good sets and (ε,r)-plans (Definition 4.4,
//!   Theorem 4.5, Corollary 4.8, Lemma 4.9), and the journal version's
//!   per-round load predictions ([`multiround::load`]).
//! * [`output_sensitive`] — the journal version's output-sensitive load
//!   bounds parameterised by `(n, m, p)` (arXiv:1602.06236), with exact
//!   rational exponents read off the LP duals.
//! * [`heavy`] — the heavy/light split both skew planners share: heavy
//!   values and the threshold that defines them, heavy patterns, pattern
//!   counts, the one server-group type ([`heavy::Group`]) with its carving
//!   and route table, residual queries, the greedy share search.
//! * [`skew`] — the **skew-resilient** one-round HyperCube of BKS14
//!   (arXiv:1401.1872) on top of it: heavy-hitter detection and one
//!   residual plan per heavy subset, on disjoint server groups.
//! * [`wco`] — the **worst-case optimal** multi-round strategy of BKS
//!   2018 (arXiv:1604.01848) on top of it: broadcast-join rounds for the
//!   active heavy patterns, the skew-free HyperCube for the light side —
//!   load `Õ(n/p^{1/ρ*})` on *every* database in O(1) rounds, beating
//!   the one-round `n/p^{1/τ*}` on cycles and cliques.
//! * [`analysis`] — the one-stop [`analysis::QueryAnalysis`] report used by
//!   the Table 1 / Table 2 reproduction binaries, and the strategy picker.
//! * [`plan`] — [`plan::PlannerChoice`], the planners by name, and the one
//!   `build` that turns a choice into a runnable program.
//!
//! # Quick start
//!
//! ```
//! use mpc_core::analysis::QueryAnalysis;
//! use mpc_core::hypercube::HyperCubeProgram;
//! use mpc_lp::Rational;
//! use mpc_sim::{Cluster, MpcConfig};
//!
//! // The triangle query C3 has τ* = 3/2, hence space exponent 1/3.
//! let q = mpc_cq::families::triangle();
//! let analysis = QueryAnalysis::analyze(&q).unwrap();
//! assert_eq!(analysis.space_exponent, Rational::new(1, 3));
//!
//! // Run HyperCube on 8 servers over a random matching database.
//! let db = mpc_data::matching_database(&q, 500, 42);
//! let program = HyperCubeProgram::new(&q, 8, 0x5EED).unwrap();
//! let cluster = Cluster::new(MpcConfig::new(8, 1.0 / 3.0)).unwrap();
//! let result = cluster.run(&program, &db).unwrap();
//! let expected = mpc_storage::join::evaluate(&q, &db).unwrap();
//! assert!(result.output.same_tuples(&expected));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baseline;
pub mod error;
pub mod grid;
pub mod heavy;
pub mod hypercube;
pub mod multiround;
pub mod output_sensitive;
pub mod plan;
pub mod shares;
pub mod skew;
pub mod space_exponent;
pub mod wco;

pub use error::CoreError;

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
