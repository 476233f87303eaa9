//! Error type for the simulator.

use std::fmt;

/// Errors raised while running an MPC program on the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A storage-level error (missing relation, arity mismatch, ...).
    Storage(String),
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
        let e = SimError::Aborted("worker 5: a peer aborted".into());
        assert_eq!(e.to_string(), "aborted: worker 5: a peer aborted");
        assert!(SimError::InvalidConfig("p = 0".into()).to_string().contains("p = 0"));
    }
}
