//! Skew-resilient HyperCube processing, after *Beame, Koutris & Suciu,
//! "Skew in Parallel Query Processing" (2014, arXiv:1401.1872)*.
//!
//! The HyperCube load guarantee of the PODS 2013 paper —
//! `O(n / p^{1/τ*})` per server — is stated for *skew-free* (matching)
//! databases. A single value occurring `ω(n / p_x)` times in a partitioned
//! column defeats it: every tuple carrying that value hashes to the same
//! coordinate, and one server drowns (the `exp_skew_ablation` experiment
//! measures exactly this). The 2014 follow-up recovers near-optimal load
//! when the heavy values are *known*, by processing each heavy
//! configuration with its own **residual query plan**, still in one round.
//!
//! This one-round planner and the worst-case optimal two-round planner of
//! [`crate::wco`] are built on one heavy/light core, [`crate::heavy`]
//! (heavy values, the threshold, patterns, pattern counts, group carving,
//! residual queries, the greedy share search), and route through one grid
//! router, [`crate::grid`]. What is here is what BKS14 decides for itself:
//!
//! * [`detector`] — [`HeavyHitterDetector`] with its [`HeavyHitterPolicy`]:
//!   the `scale` on the `n_R / p_x` threshold, applied to collected
//!   [`mpc_data::DbStatistics`] — exact, or a seeded sub-linear sample.
//! * [`residual`] — [`ResidualPlanSet`]: one [`crate::heavy::Group`] per
//!   subset `H` of the heavy-capable variables, demoted by severity when
//!   `2^h > p`; heavy variables get share 1, and the light ones the better
//!   of the residual query's cover shares and the **degree-aware
//!   statistics LP** of [`mpc_lp::degree`].
//! * [`program`] — [`SkewResilientProgram`]: an [`mpc_sim::MpcProgram`]
//!   that sends each tuple to every plan inducing its heavy pattern, still
//!   in one round, so [`mpc_sim::Cluster::run`] executes it unchanged.
//!
//! # Quick start
//!
//! ```
//! use mpc_core::skew::{HeavyHitterPolicy, SkewResilientProgram};
//! use mpc_sim::{Cluster, MpcConfig};
//!
//! // A chain join whose join variable carries a massive heavy hitter:
//! // vanilla HyperCube piles half of S2 onto one server.
//! let q = mpc_cq::families::chain(2);
//! let db = mpc_data::skew::heavy_hitter_database(&q, 2000, 2000, 0.5, 7);
//!
//! let policy = HeavyHitterPolicy::default();
//! let program = SkewResilientProgram::new(&q, &db, 32, &policy, 0x5EED).unwrap();
//! // The detector found the heavy value and split off a residual plan…
//! assert_eq!(program.plan_set().plans().len(), 2);
//! // …and the output still equals the sequential join.
//! let result = Cluster::new(MpcConfig::new(32, 0.0)).unwrap().run(&program, &db).unwrap();
//! let truth = mpc_storage::join::evaluate(&q, &db).unwrap();
//! assert!(result.output.same_tuples(&truth));
//! ```

pub mod detector;
pub mod program;
pub mod residual;

pub use detector::{HeavyHitterDetector, HeavyHitterPolicy};
pub use program::SkewResilientProgram;
pub use residual::ResidualPlanSet;
