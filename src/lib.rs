//! # mpc-query
//!
//! Parallel query processing in the **Massively Parallel Communication
//! (MPC)** model — a faithful, executable reproduction of *Beame, Koutris &
//! Suciu, "Communication Steps for Parallel Query Processing" (PODS 2013)*.
//!
//! The library answers, for any full conjunctive query `q` and any number
//! of servers `p`:
//!
//! * how to shuffle the data in **one round** with the provably minimal
//!   replication — the **HyperCube** algorithm with share exponents
//!   derived from the fractional vertex cover
//!   ([`core::hypercube`], [`core::shares`]);
//! * what that minimum is — the **space exponent** `ε*(q) = 1 − 1/τ*(q)`
//!   ([`core::space_exponent`]) — and what fraction of the answers any
//!   one-round algorithm can report below it
//!   ([`core::hypercube::PartialHyperCubeProgram`]);
//! * how many **rounds** are needed and sufficient at a given replication
//!   level — multi-round plans, their execution, and the matching round
//!   lower bounds ([`core::multiround`]);
//! * what this implies for iterative graph computations — connected
//!   components need `Ω(log p)` rounds on sparse graphs ([`graph`]).
//!
//! All algorithms are [`sim::MpcProgram`]s: build one and hand it to the
//! in-process cluster simulator's [`sim::Cluster::run`] ([`sim`]), which
//! accounts for exactly the costs the theory talks about: bytes received
//! per server per round, replication rates, and round counts.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`cq`] | `mpc-cq` | conjunctive queries, hypergraphs, χ, radius/diameter, query families |
//! | [`lp`] | `mpc-lp` | exact rational simplex, vertex cover / edge packing LPs, τ* |
//! | [`storage`] | `mpc-storage` | tuples, relations, databases, local joins, size estimates |
//! | [`data`] | `mpc-data` | matching databases, skewed data, layered graphs |
//! | [`sim`] | `mpc-sim` | the MPC(ε) cluster simulator (synchronous + event-driven backends, schedule metrics) and program trait |
//! | [`core`] | `mpc-core` | HyperCube, shares, space exponents, multi-round plans and bounds; the skew-resilient and worst-case optimal planners; `PlannerChoice` and its one `build` |
//! | [`skew`] | `mpc-core` | heavy-hitter detection and skew-resilient residual plans ([`core::skew`]) |
//! | [`graph`] | `mpc-graph` | connected components on the MPC model |
//! | [`net`] | `mpc-net` | framed block transport (in-process + TCP), spawned-process runner, multi-query service |
//!
//! ## Quick start
//!
//! ```
//! use mpc_query::prelude::*;
//!
//! // Analyse the triangle query and run it on 64 simulated servers.
//! let q = mpc_query::cq::families::triangle();
//! let analysis = QueryAnalysis::analyze(&q)?;
//! assert_eq!(analysis.space_exponent, Rational::new(1, 3));
//!
//! let db = mpc_query::data::matching_database(&q, 1_000, 42);
//! let cluster = Cluster::new(MpcConfig::new(64, analysis.space_exponent.to_f64()))?;
//! let result = cluster.run(&HyperCubeProgram::new(&q, 64, 0x5EED)?, &db)?;
//! assert!(result.within_budget());
//!
//! // The parallel result equals the sequential join.
//! let truth = mpc_query::storage::join::evaluate(&q, &db)?;
//! assert!(result.output.same_tuples(&truth));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mpc_cq as cq;
pub use mpc_data as data;
pub use mpc_graph as graph;
pub use mpc_lp as lp;
pub use mpc_net as net;
pub use mpc_sim as sim;
pub use mpc_storage as storage;

/// The paper's algorithms and bounds (re-export of `mpc-core`).
pub use mpc_core as core;
/// Skew-resilient residual plans (re-export of `mpc_core::skew`).
pub use mpc_core::skew;

/// Commonly used items.
pub mod prelude {
    pub use mpc_core::analysis::QueryAnalysis;
    pub use mpc_core::hypercube::{HyperCubeProgram, PartialHyperCubeProgram};
    pub use mpc_core::multiround::executor::PlanProgram;
    pub use mpc_core::multiround::load::PlanLoadPrediction;
    pub use mpc_core::multiround::planner::MultiRoundPlan;
    pub use mpc_core::output_sensitive::OutputSensitiveBounds;
    pub use mpc_core::plan::PlannerChoice;
    pub use mpc_core::shares::ShareAllocation;
    pub use mpc_core::skew::{HeavyHitterPolicy, SkewResilientProgram};
    pub use mpc_core::space_exponent::{gamma_one_contains, space_exponent};
    pub use mpc_core::wco::{WcoLoadPrediction, WcoProgram, WorstCaseOptimalPlan};
    pub use mpc_cq::{families, parser::parse_query, Query};
    pub use mpc_data::{matching_database, output_controlled_database};
    pub use mpc_lp::Rational;
    pub use mpc_net::{QueryJob, QueryService, ServiceConfig, TransportKind};
    pub use mpc_sim::{AsyncConfig, Cluster, CostModel, MpcConfig, StragglerSpec};
    pub use mpc_storage::{Database, Relation, Tuple};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    /// Compile-time smoke test: every symbol the prelude advertises
    /// resolves. Types are checked by naming them in signatures, functions
    /// by coercion to a function value; the assertions only keep the
    /// bindings observably alive.
    #[test]
    fn prelude_symbols_resolve() {
        #[allow(clippy::too_many_arguments)] // one parameter per advertised type
        fn _takes_types(
            _: &QueryAnalysis,
            _: &HyperCubeProgram,
            _: &PartialHyperCubeProgram,
            _: &PlanProgram,
            _: &MultiRoundPlan,
            _: &PlanLoadPrediction,
            _: &OutputSensitiveBounds,
            _: &ShareAllocation,
            _: &Query,
            _: &Rational,
            _: &Cluster,
            _: &MpcConfig,
            _: &AsyncConfig,
            _: &CostModel,
            _: &StragglerSpec,
            _: &Database,
            _: &Relation,
            _: &Tuple,
            _: &SkewResilientProgram,
            _: &HeavyHitterPolicy,
            _: &QueryJob,
            _: &QueryService,
            _: &ServiceConfig,
            _: &TransportKind,
            _: &WorstCaseOptimalPlan,
            _: &WcoProgram,
            _: &WcoLoadPrediction,
            _: &PlannerChoice,
        ) {
        }
        let _parse: fn(&str) -> Result<Query, crate::cq::CqError> = parse_query;
        let _matching: fn(&Query, u64, u64) -> Database = matching_database;
        let _planted: fn(&Query, u64, u64, u64) -> crate::data::PlantedJoin =
            output_controlled_database;
        let _gamma: fn(&Query, Rational) -> Result<bool, crate::core::CoreError> =
            gamma_one_contains;
        let _eps: fn(&Query) -> Result<Rational, crate::core::CoreError> = space_exponent;
        let _triangle: fn() -> Query = families::triangle;
        assert_eq!(Rational::ZERO, Rational::new(0, 1));
    }

    #[test]
    fn prelude_exposes_the_workflow() {
        let q = parse_query("T2(z,x,y) :- S1(z,x), S2(z,y)").unwrap();
        let analysis = QueryAnalysis::analyze(&q).unwrap();
        assert_eq!(analysis.space_exponent, Rational::ZERO);
        let db = matching_database(&q, 200, 3);
        let program = HyperCubeProgram::new(&q, 8, 0x5EED).unwrap();
        let result = Cluster::new(MpcConfig::new(8, 0.0)).unwrap().run(&program, &db).unwrap();
        assert_eq!(result.output.len(), 200);
    }
}
