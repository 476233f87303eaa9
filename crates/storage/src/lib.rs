//! Relations, database instances and the local (single-server) join engine.
//!
//! This crate is the storage substrate of the PODS 2013 reproduction. The
//! MPC model moves *tuples of integers* between servers; locally each
//! server is computationally unbounded, so any correct in-memory join
//! suffices. We provide
//!
//! * [`Relation`]: a named set of fixed-arity `u64` rows stored flat (one
//!   row-major vector, rows lent as `&[Value]`, a row-id hash table for
//!   deduplication) with exact size accounting (tuples / bytes / bits);
//!   [`Tuple`] is the *owned* row, used where a row travels by value,
//! * [`Database`]: an instance binding every relation symbol of a query to
//!   an instance, plus its domain size `n`; [`RelationSource`] is the
//!   lending view of it that the join engine reads, so a simulated server
//!   can lend its relations without building a `Database`,
//! * [`join`]: evaluation of a full conjunctive query on a
//!   [`RelationSource`] by connected-order hash joins — used both as the
//!   per-server local evaluation inside the simulator and as the sequential
//!   ground truth the parallel algorithms are checked against, and
//! * [`estimate`]: the expected answer size `n^{1+χ(q)}` over random
//!   matching databases (Lemma 3.4) and the AGM-style upper bound from a
//!   fractional edge cover.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
pub mod error;
pub mod estimate;
mod hash;
pub mod join;
pub mod relation;

pub use database::{Database, RelationSource};
pub use error::StorageError;
pub use relation::{Relation, Tuple, Value};

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, StorageError>;
