//! Simulation configuration: the MPC(ε) parameters.

use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::Result;

/// The constant `c` of the per-round load budget `c · N / p^{1−ε}`. The
/// paper hides it in the `O(·)`; every run here uses the same one.
const LOAD_FACTOR: f64 = 2.0;

/// Configuration of an `MPC(ε)` simulation.
///
/// Each server may receive `c · N / p^{1−ε}` bytes per round
/// ([`MpcConfig::budget_bytes`], `c = 2`). A run never aborts over the
/// budget: every backend records a violation in
/// [`RoundStats::exceeds_budget`](crate::RoundStats::exceeds_budget), since
/// the lower bounds reason about what *can* be achieved under the budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MpcConfig {
    /// Number of worker servers `p`.
    pub p: usize,
    /// The space exponent `ε ∈ [0, 1]`.
    pub epsilon: f64,
}

impl MpcConfig {
    /// A configuration with the given number of servers and space
    /// exponent.
    pub fn new(p: usize, epsilon: f64) -> Self {
        MpcConfig { p, epsilon }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when `p == 0` or `ε ∉ [0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if self.p == 0 {
            return Err(SimError::InvalidConfig("p must be at least 1".to_string()));
        }
        if !(0.0..=1.0).contains(&self.epsilon) || self.epsilon.is_nan() {
            return Err(SimError::InvalidConfig(format!(
                "epsilon must lie in [0, 1], got {}",
                self.epsilon
            )));
        }
        Ok(())
    }

    /// The per-server per-round budget in bytes for an input of
    /// `input_bytes` bytes: `c · N / p^{1−ε}`.
    pub fn budget_bytes(&self, input_bytes: u64) -> u64 {
        let denom = (self.p as f64).powf(1.0 - self.epsilon);
        (LOAD_FACTOR * input_bytes as f64 / denom).ceil() as u64
    }

    /// The replication rate `p^ε` permitted by this configuration.
    pub fn allowed_replication(&self) -> f64 {
        (self.p as f64).powf(self.epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(MpcConfig::new(8, 0.0).validate().is_ok());
        assert!(MpcConfig::new(8, 1.0).validate().is_ok());
        assert!(MpcConfig::new(0, 0.0).validate().is_err());
        assert!(MpcConfig::new(8, -0.1).validate().is_err());
        assert!(MpcConfig::new(8, 1.1).validate().is_err());
        assert!(MpcConfig::new(8, f64::NAN).validate().is_err());
    }

    #[test]
    fn budget_scaling_with_epsilon() {
        let n = 1_000_000u64;
        // ε = 0: budget = c·N/p.
        let c0 = MpcConfig::new(100, 0.0);
        assert_eq!(c0.budget_bytes(n), 20_000);
        // ε = 1: budget = c·N (degenerate — whole input per server).
        let c1 = MpcConfig::new(100, 1.0);
        assert_eq!(c1.budget_bytes(n), 2 * n);
        // ε = 1/2: budget = c·N/√p.
        let ch = MpcConfig::new(100, 0.5);
        assert_eq!(ch.budget_bytes(n), 200_000);
        // Monotone in ε.
        assert!(c0.budget_bytes(n) < ch.budget_bytes(n));
        assert!(ch.budget_bytes(n) < c1.budget_bytes(n));
    }

    #[test]
    fn replication_rate() {
        let cfg = MpcConfig::new(64, 0.5);
        assert!((cfg.allowed_replication() - 8.0).abs() < 1e-9);
        assert_eq!(MpcConfig::new(64, 0.0).allowed_replication(), 1.0);
    }
}
