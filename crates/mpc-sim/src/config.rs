//! Simulation configuration: the MPC(ε) parameters.

use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::Result;

/// Configuration of an `MPC(ε)` simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MpcConfig {
    /// Number of worker servers `p`.
    pub p: usize,
    /// The space exponent `ε ∈ [0, 1]`: each server may receive
    /// `load_factor · N / p^{1−ε}` bytes per round.
    pub epsilon: f64,
    /// The constant `c` in the load budget `c · N / p^{1−ε}`.
    pub load_factor: f64,
    /// If `true`, exceeding the budget aborts the run with
    /// [`SimError::Overload`]; otherwise violations are only recorded in
    /// the per-round statistics (the default — lower bounds reason about
    /// what *can* be achieved under the budget, so observing the violation
    /// is usually what an experiment wants).
    pub fail_on_overload: bool,
}

impl MpcConfig {
    /// A configuration with the given number of servers and space exponent,
    /// load factor 2 and soft budget enforcement.
    pub fn new(p: usize, epsilon: f64) -> Self {
        MpcConfig { p, epsilon, load_factor: 2.0, fail_on_overload: false }
    }

    /// Builder-style: set the load factor `c`.
    #[must_use]
    pub fn with_load_factor(mut self, c: f64) -> Self {
        self.load_factor = c;
        self
    }

    /// Builder-style: make budget violations hard errors.
    #[must_use]
    pub fn with_hard_budget(mut self) -> Self {
        self.fail_on_overload = true;
        self
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when `p == 0`, `ε ∉ [0, 1]` or
    /// the load factor is not positive.
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
        if self.load_factor <= 0.0 || !self.load_factor.is_finite() {
            return Err(SimError::InvalidConfig(format!(
                "load factor must be positive, got {}",
                self.load_factor
            )));
        }
        Ok(())
    }

    /// The per-server per-round budget in bytes for an input of
    /// `input_bytes` bytes: `c · N / p^{1−ε}`.
    pub fn budget_bytes(&self, input_bytes: u64) -> u64 {
        let denom = (self.p as f64).powf(1.0 - self.epsilon);
        (self.load_factor * input_bytes as f64 / denom).ceil() as u64
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
        assert!(MpcConfig::new(8, 0.5).with_load_factor(0.0).validate().is_err());
    }

    #[test]
    fn budget_scaling_with_epsilon() {
        let n = 1_000_000u64;
        // ε = 0: budget = c·N/p.
        let c0 = MpcConfig::new(100, 0.0).with_load_factor(1.0);
        assert_eq!(c0.budget_bytes(n), 10_000);
        // ε = 1: budget = c·N (degenerate — whole input per server).
        let c1 = MpcConfig::new(100, 1.0).with_load_factor(1.0);
        assert_eq!(c1.budget_bytes(n), n);
        // ε = 1/2: budget = c·N/√p.
        let ch = MpcConfig::new(100, 0.5).with_load_factor(1.0);
        assert_eq!(ch.budget_bytes(n), 100_000);
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

    #[test]
    fn builders() {
        let cfg = MpcConfig::new(4, 0.25).with_load_factor(3.0).with_hard_budget();
        assert_eq!(cfg.load_factor, 3.0);
        assert!(cfg.fail_on_overload);
    }
}
