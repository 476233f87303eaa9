//! Exact linear programming for query hypergraphs.
//!
//! The MPC analysis of *Beame, Koutris & Suciu (PODS 2013)* is driven by the
//! **fractional covering number** `τ*(q)` of the query hypergraph: the
//! optimal value of the fractional vertex-cover LP (equivalently, by LP
//! duality, of the fractional edge-packing LP — Figure 1 of the paper).
//! The one-round space exponent is `ε*(q) = 1 − 1/τ*(q)` and the HyperCube
//! share exponents are read off an optimal vertex cover.
//!
//! Because these quantities are *exact rationals* (e.g. `τ*(C₃) = 3/2`,
//! share exponents `1/3`), this crate implements
//!
//! * [`Rational`]: exact rational arithmetic over `i128`,
//! * [`simplex`]: a small dense two-phase primal simplex solver with
//!   Bland's anti-cycling rule, kept as the slow, independent **oracle**,
//! * [`sparse`]: the production solver — a sparse revised simplex with an
//!   eta-factorised basis and steepest-edge/Bland pricing,
//! * [`families`]: certificate-checked **closed-form** optima for the
//!   recognised query families (cycles, chains, stars, `B_{k,m}`, spokes),
//! * [`degree`]: the **degree-aware statistics LP** of BKS14 §5, which
//!   refines the share LP with per-relation cardinality and max-degree
//!   constraints, and
//! * [`cover`]: builders and solvers for the vertex-cover, edge-packing and
//!   edge-cover LPs of a [`mpc_cq::Query`], plus duality/tightness checks.
//!
//! [`QueryLps::solve`] and [`solve_degree_lp`] take one of **two paths**:
//! closed form, else sparse simplex. Nothing is memoised — solving these
//! LPs costs microseconds (11–15 µs for two arity-5 atoms sharing a variable)
//! where the isomorphism-invariant key a memo table needs costs up to
//! milliseconds ([`mpc_cq::signature`]) — so an analysis is a pure function
//! of the query text and no solve takes a lock. ([`cache`] is an inert
//! stand-in that only `benchmark/` still names.)
//!
//! # Example
//!
//! ```
//! use mpc_cq::families;
//! use mpc_lp::cover::QueryLps;
//! use mpc_lp::Rational;
//!
//! let c3 = families::cycle(3);
//! let lps = QueryLps::solve(&c3).unwrap();
//! assert_eq!(lps.covering_number(), Rational::new(3, 2));   // τ*(C3) = 3/2
//! assert_eq!(lps.vertex_cover().total(), lps.edge_packing().total()); // LP duality
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cover;
pub mod degree;
pub mod error;
pub mod families;
pub mod rational;
pub mod simplex;
pub mod sparse;

pub use cache::LpCache;
pub use cover::{QueryLps, SolverPath};
pub use degree::{solve_degree_lp, DegreeShares, DegreeStatistics};
pub use error::LpError;
pub use rational::Rational;

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, LpError>;
