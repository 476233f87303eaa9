//! Conjunctive queries and their structural measures.
//!
//! This crate is the query-representation substrate for the reproduction of
//! *Beame, Koutris & Suciu, "Communication Steps for Parallel Query
//! Processing" (PODS 2013)*. It provides
//!
//! * [`Query`]: full conjunctive queries without self-joins, together with
//!   their hypergraph view (one node per variable, one hyperedge per atom),
//! * structural measures used throughout the paper: connectivity and
//!   connected components, the *characteristic* `χ(q) = k + ℓ − Σ aⱼ − c`
//!   (Section 2.3), contraction `q / M`, radius and diameter of the
//!   hypergraph, tree-likeness and acyclicity,
//! * the paper's running query families (`C_k`, `L_k`, `T_k`, `B_{k,m}`,
//!   `SP_k`, the JOIN-WITNESS query) in [`families`], together with
//!   [`families::recognize`] which classifies an arbitrary query as one of
//!   them up to renaming (feeding the LP layer's closed-form solver),
//! * canonical hypergraph signatures ([`signature`]) — an isomorphism
//!   test for queries; costly, and with no production caller — and
//! * a small text [`parser`] for the usual `q(x,y) :- R(x,y), S(y,z)`
//!   notation.
//!
//! Everything downstream — the LP layer that computes fractional vertex
//! covers, the HyperCube shuffle, the multi-round planner and the round
//! lower bounds — is driven by the structures defined here.
//!
//! # Example
//!
//! ```
//! use mpc_cq::families;
//!
//! // The triangle query C3(x1,x2,x3) = S1(x1,x2), S2(x2,x3), S3(x3,x1).
//! let c3 = families::cycle(3);
//! assert!(c3.is_connected());
//! assert_eq!(c3.characteristic(), -1);
//! assert_eq!(c3.diameter(), Some(1));
//! assert!(!c3.is_tree_like());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characteristic;
pub mod distance;
pub mod error;
pub mod families;
pub mod hypergraph;
pub mod parser;
pub mod query;
pub mod signature;
pub mod structure;

pub use error::CqError;
pub use query::{Atom, AtomId, Query, VarId};
pub use signature::{CanonicalForm, QuerySignature};

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, CqError>;
