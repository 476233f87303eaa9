//! Distributed execution and a multi-query service for the MPC
//! simulator — the "millions of users" tier of the reproduction.
//!
//! Everything below `mpc-net` runs the tuple-based MPC protocol of Beame,
//! Koutris & Suciu inside one process. This crate lifts the same protocol
//! onto a real network stack, in three layers:
//!
//! * **[`frame`]** — a length-prefixed binary wire format. Data frames
//!   carry the row-major [`mpc_sim::TupleBlock`] buffer verbatim (8-byte
//!   values, row after row — the one row codec relations in control
//!   frames use too), and the decoder fills buffers lent by a
//!   [`mpc_sim::BlockPool`], so the receive path allocates nothing in
//!   steady state — and nothing at all for a count its frame cannot back.
//!   Control frames cover the master/worker handshake, per-round barriers
//!   and fail-fast aborts.
//! * **the TCP transport and [`run_distributed`]** — the socket
//!   implementation of the simulator's [`mpc_sim::Transport`] trait.
//!   [`run_distributed`] drives one [`mpc_sim::WorkerCore`] per server
//!   over it — or, in-process, runs the job on the simulator's reactor
//!   mesh ([`mpc_sim::mesh`]) — and rebuilds the exact
//!   [`mpc_sim::RunResult`] the single-process backends produce.
//! * **[`run_spawned`] / [`spec`]** — the spawned-process mode: each
//!   server is a real OS process (`mpc_workerd`) coordinated over
//!   localhost by a master (hello handshake, per-round ready/proceed
//!   signals, clean shutdown, fail-fast on worker death or recovery from
//!   it — the D-FDB coordination pattern). Each half of the protocol, the
//!   master's and the worker's, is one state machine under one driver. A
//!   [`JobSpec`] describes the job in a self-contained wire form so
//!   workers can rebuild the program and database on their own.
//! * **[`service`]** — a [`QueryService`] front-end that accepts a stream
//!   of parsed CQs, analyses them (afresh per submission; nothing is
//!   memoised), admits them against a server byte budget, and multiplexes many
//!   concurrent query executions as jobs of one shared reactor mesh
//!   ([`mpc_sim::mesh`]): one worker core per query on each reactor, packets
//!   addressed by query id.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod control;
pub mod fault;
pub mod frame;
mod master;
mod recovery;
mod runner;
pub mod service;
pub mod spec;
mod transport;

use std::fmt;

pub use fault::{Fault, FaultKind, FaultPhase, FaultPlan};
pub use frame::Frame;
pub use master::{run_spawned, run_spawned_with, SpawnedReport};
pub use recovery::MasterConfig;
pub use runner::{run_distributed, worker_main, DistConfig, TransportKind};
pub use service::{Admission, QueryJob, QueryOutcome, QueryService, ServiceConfig, Submission};
pub use spec::JobSpec;

/// Errors raised by the networking layer.
#[derive(Debug)]
pub enum NetError {
    /// An error surfaced by the simulator core (program, storage, config).
    Sim(mpc_sim::SimError),
    /// A socket or process error.
    Io(std::io::Error),
    /// The peer violated the wire protocol (bad frame, unexpected state),
    /// or a worker died / aborted mid-job.
    Protocol(String),
    /// The service declined a submission outright (deferral queue full).
    Rejected(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Sim(e) => write!(f, "simulator error: {e}"),
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            NetError::Rejected(msg) => write!(f, "rejected: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<mpc_sim::SimError> for NetError {
    fn from(e: mpc_sim::SimError) -> Self {
        NetError::Sim(e)
    }
}

/// Storage errors reach this crate only while ingesting data that came
/// off a socket (blocks, checkpoints, summaries): a malformed shape is the
/// peer's protocol violation.
impl From<mpc_storage::StorageError> for NetError {
    fn from(e: mpc_storage::StorageError) -> Self {
        NetError::Protocol(format!("malformed relation data: {e}"))
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, NetError>;
