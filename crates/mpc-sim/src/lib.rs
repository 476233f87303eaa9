//! A round-synchronous simulator of the **Massively Parallel Communication
//! (MPC) model** of Beame, Koutris & Suciu (PODS 2013, Section 2.1).
//!
//! The model: `p` servers connected by private channels compute a query in
//! synchronous rounds. In each round every server first receives data, then
//! performs unbounded local computation. The only resource that is bounded
//! is **communication**: each server may receive at most `O(N / p^{1−ε})`
//! bits per round, where `N` is the input size and `ε ∈ [0, 1]` is the
//! *space exponent* (the replication rate per round is then `O(p^ε)`).
//!
//! This crate does not measure wall-clock time; it measures exactly the
//! quantities the theory speaks about:
//!
//! * per-server, per-round received bytes/tuples (maximum and total),
//! * the replication rate of each round,
//! * the number of rounds,
//! * whether the load budget `c · N / p^{1−ε}` was respected.
//!
//! Two backends execute programs. [`Cluster::run`] is the
//! **round-synchronous** reference: a global barrier between delivery and
//! computation, exactly the model of Section 2.1. [`Cluster::run_async`]
//! is the **event-driven** backend ([`cluster_async`]): one job on a
//! reactor [`mesh`], every server an independent task over bounded
//! per-link queues ([`queue`]) with backpressure and no global barrier,
//! producing — on top of the same volume statistics — a virtual-clock
//! [`ScheduleStats`] timeline ([`schedule`]): busy/blocked/idle spans,
//! per-round barrier waits, critical path and makespan, with deterministic
//! straggler injection. [`RunResult::divergence`] is how the tests assert
//! the two backends agree on outputs and volumes for every program.
//!
//! Programs are expressed against the [`MpcProgram`] trait, routing each
//! row into the [`RouteSink`] the executor hands them: round 1 routes
//! base tuples from the input servers (one per relation, Section 2.4);
//! later rounds may only send *join tuples* whose destinations depend on
//! the tuple itself — the **tuple-based MPC model** of Section 4.1 — which
//! is the class of algorithms covered by the paper's multi-round lower
//! bounds and exactly what a multi-round MapReduce job can do.
//!
//! The per-server local computation (hash joins) is executed with rayon
//! across simulated servers, purely as an implementation detail.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod cluster;
pub mod cluster_async;
pub mod config;
pub mod error;
pub mod mesh;
pub mod message;
pub mod pool;
pub mod program;
pub mod queue;
pub mod reroute;
pub mod schedule;
pub mod server;
pub mod stats;
pub mod worker;

pub use block::{BlockAssembler, TupleBlock};
pub use cluster::{union_outputs, Cluster};
pub use cluster_async::{AsyncConfig, AsyncRunResult};
pub use config::MpcConfig;
pub use error::SimError;
pub use message::Routed;
pub use pool::{BlockPool, PoolStats};
pub use program::{MpcProgram, RouteSink};
pub use reroute::{AdaptiveRunResult, RerouteController, RerouteHost, ReroutePlan};
pub use schedule::{CostModel, MsgRecord, ScheduleStats, ServerTimeline, StragglerSpec};
pub use server::{RoundStage, ServerState};
pub use stats::{RoundStats, RunResult};
pub use worker::{
    fold_summaries, resolve_reports, Input, Link, Packet, RestorePoint, SendOutcome, Step,
    Transport, WorkerCore, WorkerSummary,
};

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, SimError>;
