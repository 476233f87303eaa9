//! Communication statistics collected by the simulator.

use std::fmt;

use serde::Serialize;

use mpc_storage::Relation;

/// Communication statistics of one round.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RoundStats {
    /// Round number (1-based).
    pub round: usize,
    /// Maximum bytes received by any single server this round — the
    /// quantity bounded by `c · N / p^{1−ε}` in the MPC model.
    pub max_bytes_received: u64,
    /// Total bytes received across all servers this round.
    pub total_bytes_received: u64,
    /// Maximum tuples received by any single server this round.
    pub max_tuples_received: u64,
    /// Total tuples received across all servers this round.
    pub total_tuples_received: u64,
    /// The configured per-server budget in bytes for this input.
    pub budget_bytes: u64,
    /// Whether some server exceeded the budget this round.
    pub exceeds_budget: bool,
    /// `total_bytes_received / input_bytes`: the replication rate of this
    /// round (the model allows up to `c · p^ε`).
    pub replication_rate: f64,
    /// Ratio of max to mean received bytes: 1.0 means perfectly balanced.
    pub balance_ratio: f64,
}

/// The result of running an [`crate::MpcProgram`] on the simulator.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The union of all servers' outputs (deduplicated).
    pub output: Relation,
    /// Per-round communication statistics.
    pub rounds: Vec<RoundStats>,
    /// Number of output tuples produced by each server (before
    /// deduplication across servers).
    pub per_server_output: Vec<usize>,
    /// Input size in bytes (the `N` used for the budget).
    pub input_bytes: u64,
}

impl RunResult {
    /// Number of communication rounds executed.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The maximum per-server load (bytes) over all rounds.
    pub fn max_load_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.max_bytes_received).max().unwrap_or(0)
    }

    /// The maximum per-server load (tuples) over all rounds.
    pub fn max_load_tuples(&self) -> u64 {
        self.rounds.iter().map(|r| r.max_tuples_received).max().unwrap_or(0)
    }

    /// True if every round respected the budget.
    pub fn within_budget(&self) -> bool {
        self.rounds.iter().all(|r| !r.exceeds_budget)
    }

    /// The largest replication rate over all rounds.
    pub fn max_replication_rate(&self) -> f64 {
        self.rounds.iter().map(|r| r.replication_rate).fold(0.0, f64::max)
    }

    /// Total bytes shuffled over the whole execution.
    pub fn total_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.total_bytes_received).sum()
    }

    /// The worst max/mean balance ratio over all rounds (1.0 for an empty
    /// run — perfectly balanced by convention).
    pub fn max_balance_ratio(&self) -> f64 {
        self.rounds.iter().map(|r| r.balance_ratio).fold(1.0, f64::max)
    }

    /// The first observable difference between this run and `other`, if
    /// any: output tuple set, per-round statistics, per-server output
    /// counts, input accounting. `None` means the two runs are the same
    /// run as far as the MPC model can tell — the one comparison every
    /// differential wall (backends, transports, recovery, service) makes.
    pub fn divergence(&self, other: &RunResult) -> Option<String> {
        if !self.output.same_tuples(&other.output) {
            return Some(format!(
                "outputs differ: {} vs {} tuples",
                self.output.len(),
                other.output.len()
            ));
        }
        if self.rounds.len() != other.rounds.len() {
            return Some(format!(
                "round counts differ: {} vs {}",
                self.rounds.len(),
                other.rounds.len()
            ));
        }
        if let Some((a, b)) = self.rounds.iter().zip(&other.rounds).find(|(a, b)| a != b) {
            return Some(format!("round {} statistics differ: {a:?} vs {b:?}", a.round));
        }
        if self.per_server_output != other.per_server_output {
            return Some(format!(
                "per-server output counts differ: {:?} vs {:?}",
                self.per_server_output, other.per_server_output
            ));
        }
        if self.input_bytes != other.input_bytes {
            return Some(format!(
                "input accounting differs: {} vs {} bytes",
                self.input_bytes, other.input_bytes
            ));
        }
        None
    }

    /// One-line human-readable digest of the run: round count, worst
    /// per-server load, replication, balance and the budget verdict. The
    /// experiment binaries print this instead of each hand-formatting the
    /// same fields.
    pub fn summary(&self) -> String {
        format!(
            "{} round(s), {} answers, max load {} B, replication {:.2}, balance {:.2}, {}",
            self.num_rounds(),
            self.output.len(),
            self.max_load_bytes(),
            self.max_replication_rate(),
            self.max_balance_ratio(),
            if self.within_budget() { "within budget" } else { "OVER BUDGET" }
        )
    }
}

impl fmt::Display for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(round: usize, max: u64, total: u64, budget: u64) -> RoundStats {
        RoundStats {
            round,
            max_bytes_received: max,
            total_bytes_received: total,
            max_tuples_received: max / 16,
            total_tuples_received: total / 16,
            budget_bytes: budget,
            exceeds_budget: max > budget,
            replication_rate: total as f64 / 1000.0,
            balance_ratio: 1.0,
        }
    }

    #[test]
    fn aggregations() {
        let result = RunResult {
            output: Relation::empty("q", 2),
            rounds: vec![round(1, 100, 800, 128), round(2, 200, 600, 128)],
            per_server_output: vec![1, 2, 3],
            input_bytes: 1000,
        };
        assert_eq!(result.num_rounds(), 2);
        assert_eq!(result.max_load_bytes(), 200);
        assert!(!result.within_budget());
        assert_eq!(result.total_bytes(), 1400);
        assert!((result.max_replication_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn summary_and_display_agree() {
        let result = RunResult {
            output: Relation::empty("q", 2),
            rounds: vec![round(1, 100, 800, 128), round(2, 200, 600, 128)],
            per_server_output: vec![1, 2, 3],
            input_bytes: 1000,
        };
        let s = result.summary();
        assert_eq!(s, result.to_string());
        assert!(s.contains("2 round(s)"));
        assert!(s.contains("max load 200 B"));
        assert!(s.contains("OVER BUDGET"));
        assert_eq!(result.max_balance_ratio(), 1.0);
        let ok = RunResult {
            output: Relation::empty("q", 1),
            rounds: vec![round(1, 100, 800, 128)],
            per_server_output: vec![],
            input_bytes: 1000,
        };
        assert!(ok.summary().contains("within budget"));
    }

    #[test]
    fn divergence_names_the_first_field_that_differs() {
        let base = RunResult {
            output: Relation::from_tuples("q", 1, vec![[1u64], [2]]).unwrap(),
            rounds: vec![round(1, 100, 800, 128)],
            per_server_output: vec![1, 1],
            input_bytes: 1000,
        };
        assert_eq!(base.divergence(&base.clone()), None);
        let mut other = base.clone();
        other.output = Relation::from_tuples("q", 1, vec![[1u64]]).unwrap();
        assert!(base.divergence(&other).unwrap().contains("outputs differ"));
        let mut other = base.clone();
        other.rounds.push(round(2, 1, 1, 128));
        assert!(base.divergence(&other).unwrap().contains("round counts"));
        let mut other = base.clone();
        other.rounds[0].max_bytes_received += 1;
        assert!(base.divergence(&other).unwrap().contains("round 1 statistics"));
        let mut other = base.clone();
        other.per_server_output = vec![2, 0];
        assert!(base.divergence(&other).unwrap().contains("per-server"));
        let mut other = base.clone();
        other.input_bytes += 8;
        assert!(base.divergence(&other).unwrap().contains("input accounting"));
    }

    #[test]
    fn empty_run() {
        let result = RunResult {
            output: Relation::empty("q", 1),
            rounds: vec![],
            per_server_output: vec![],
            input_bytes: 0,
        };
        assert_eq!(result.max_load_bytes(), 0);
        assert!(result.within_budget());
        assert_eq!(result.max_replication_rate(), 0.0);
    }
}
