//! Data generators for the MPC experiments.
//!
//! Three input families are used throughout the paper and its reproduction:
//!
//! * [`matching`] — *matching databases* (Section 2.5): every relation of
//!   arity `a` is an `a`-dimensional matching over `[n]`, i.e. it has
//!   exactly `n` tuples and every column is a permutation of `1..=n`.
//!   These are the skew-free inputs over which the one-round bound
//!   `ε ≥ 1 − 1/τ*` is tight.
//! * [`skew`] — Zipf-skewed and heavy-hitter relations, used by the skew
//!   ablation (the paper defers skew handling to Koutris–Suciu 2011 but
//!   notes the HC guarantees need skew-free inputs).
//! * [`graphs`] — graph inputs for the connected-components application
//!   (Theorem 4.10): layered path graphs whose components correspond to
//!   `L_k` answers, plus sparse/dense random graphs for the contrast with
//!   the dense-graph `O(1)`-round algorithms.
//! * [`planted`] — databases with an **exactly controlled output
//!   cardinality** (`|q(I)| = m` by construction), used by the
//!   output-sensitive sweep of the journal version (arXiv:1602.06236).
//! * [`stats`] — the statistics layer every planner consumes:
//!   [`DbStatistics`] collects sorted per-column frequency counts either
//!   **exactly** (one full scan) or from a **seeded sub-linear sample**,
//!   behind the [`StatsMode`] switch of the adaptive runtime.
//!
//! All generators are deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graphs;
pub mod matching;
pub mod planted;
pub mod skew;
pub mod stats;

pub use graphs::LayeredGraph;
pub use matching::matching_database;
pub use planted::{output_controlled_database, PlantedJoin};
pub use stats::{DbStatistics, RelationStats, StatsMode};
