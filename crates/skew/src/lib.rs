//! The skew-resilient planner now lives in [`mpc_core::skew`]; this crate
//! only re-exports, under its old path, the names `benchmark/` imports.
//!
//! ```
//! use std::any::TypeId;
//! assert_eq!(
//!     TypeId::of::<mpc_skew::SkewResilientProgram>(),
//!     TypeId::of::<mpc_core::skew::SkewResilientProgram>(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mpc_core::skew::{
    HeavyHitterDetector, HeavyHitterPolicy, ResidualPlanSet, SkewResilientProgram,
};
