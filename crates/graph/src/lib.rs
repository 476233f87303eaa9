//! Connected components and transitive closure on the MPC model — the
//! application behind Theorem 4.10 of the paper.
//!
//! The paper shows that for any fixed `ε < 1`, no tuple-based MPC(ε)
//! algorithm computes CONNECTED-COMPONENTS of *sparse* graphs in `o(log p)`
//! rounds: the hard instances are layered path graphs whose components are
//! exactly the answers of a long chain query `L_k` with `k ≈ p^δ`. In
//! contrast, *dense* graphs admit O(1)-round algorithms (Karloff, Suri &
//! Vassilvitskii), which is why the sparse lower bound is interesting.
//!
//! This crate provides both sides as executable [`mpc_sim::MpcProgram`]s:
//!
//! * [`cc::LabelPropagationCc`] — the classic tuple-based label-propagation
//!   algorithm (min-label flooding), which needs `Θ(diameter)` rounds;
//! * [`dense::DenseTwoRoundCc`] — the 2-round spanning-forest algorithm
//!   that works within budget on sufficiently dense graphs;
//! * [`tc::PathDoublingTc`] — transitive closure in `O(log diameter)`
//!   rounds by path doubling;
//! * [`rounds_until_right`] — how many rounds a fixed-round program
//!   actually needs on a given graph;
//! * [`experiment`] — the Theorem 4.10 experiment: rounds needed vs. `p` on
//!   layered path graphs, contrasted with the dense 2-round algorithm.
//!
//! Like every program of the workspace, these run by building them and
//! calling [`mpc_sim::Cluster::run`] on an [`edge_database`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc;
pub mod dense;
pub mod experiment;
pub mod tc;

use mpc_sim::RunResult;
use mpc_storage::{Database, Relation};

pub use cc::LabelPropagationCc;
pub use dense::DenseTwoRoundCc;

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, mpc_core::CoreError>;

/// The database holding one edge relation over vertices `1..=num_vertices`.
pub fn edge_database(edges: &Relation, num_vertices: u64) -> Database {
    let mut db = Database::new(num_vertices);
    db.insert_relation(edges.clone());
    db
}

/// Add a round until the answer is right: call `attempt` with 1, 2, …,
/// `max_rounds` rounds until it reports a right answer, and return that
/// round count, whether the answer was right (false only when
/// `max_rounds` was not enough) and the run.
///
/// # Errors
///
/// The first error an attempt returns.
pub fn rounds_until_right(
    max_rounds: usize,
    mut attempt: impl FnMut(usize) -> Result<(bool, RunResult)>,
) -> Result<(usize, bool, RunResult)> {
    let mut rounds = 1;
    loop {
        let (right, run) = attempt(rounds)?;
        if right || rounds >= max_rounds {
            return Ok((rounds, right, run));
        }
        rounds += 1;
    }
}
