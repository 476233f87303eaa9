//! Error type for the simulator.

use std::fmt;

/// Errors raised while running an MPC program on the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A storage-level error (missing relation, arity mismatch, ...).
    Storage(String),
    /// A server exceeded the per-round load budget and the configuration
    /// requested hard enforcement ([`crate::MpcConfig::fail_on_overload`]).
    Overload {
        /// Round in which the budget was exceeded (1-based).
        round: usize,
        /// The overloaded server.
        server: usize,
        /// Bytes received by that server in that round.
        received_bytes: u64,
        /// The budget in bytes.
        budget_bytes: u64,
    },
    /// A program-level error (invalid destinations, internal failure, ...).
    Program(String),
    /// The configuration is invalid (e.g. `p = 0` or `ε ∉ [0, 1]`).
    InvalidConfig(String),
    /// A peer broke the round protocol of [`crate::worker`]: a block or
    /// FIN for a round the job does not have or that is already closed.
    Protocol(String),
    /// This task is unwinding because another one failed (it was sent an
    /// abort, or found a peer's link closed) — never the root cause.
    Aborted(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Storage(msg) => write!(f, "storage error: {msg}"),
            SimError::Overload { round, server, received_bytes, budget_bytes } => write!(
                f,
                "server {server} received {received_bytes} bytes in round {round}, exceeding the budget of {budget_bytes} bytes"
            ),
            SimError::Program(msg) => write!(f, "program error: {msg}"),
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            SimError::Aborted(msg) => write!(f, "aborted: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<mpc_storage::StorageError> for SimError {
    fn from(e: mpc_storage::StorageError) -> Self {
        SimError::Storage(e.to_string())
    }
}

impl From<mpc_cq::CqError> for SimError {
    fn from(e: mpc_cq::CqError) -> Self {
        SimError::Program(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = SimError::Overload { round: 2, server: 5, received_bytes: 100, budget_bytes: 64 };
        let s = e.to_string();
        assert!(s.contains("server 5") && s.contains("round 2"));
        assert!(SimError::InvalidConfig("p = 0".into()).to_string().contains("p = 0"));
    }
}
