//! Crash recovery for the spawned-process master: one knob.
//!
//! The MPC protocol is round-synchronous: every round ends at a global
//! `Ready`/`Proceed` barrier, which makes the barrier the natural
//! checkpoint cut. With [`MasterConfig::max_respawns`] above zero the
//! master says so with one `recovery=1` line on its workers' job wire
//! form; each worker then sends a
//! [`Frame::Checkpoint`](crate::Frame::Checkpoint) at every barrier and
//! keeps its outbound frames of the last two rounds for replay. When the
//! master finds a worker dead (its connection closed or its process
//! exited) it re-spawns the worker from the same [`JobSpec`] after a
//! back-off, restores it from its latest
//! checkpoint, and has the surviving peers retransmit the in-flight round
//! from their replay logs — the query never restarts. Once the respawn
//! budget is spent the master falls back to the fail-fast abort.

use crate::fault::FaultPlan;
use crate::spec::JobSpec;

/// Everything configurable about a spawned-process run beyond the
/// [`JobSpec`] itself.
#[derive(Debug, Clone, Default)]
pub struct MasterConfig {
    /// How many re-spawns the whole job may consume. `0` (the default)
    /// disables recovery: the first dead worker aborts the job.
    pub max_respawns: usize,
    /// Deterministic faults to inject into the spawned workers (passed
    /// as `--fault` arguments; `None` runs clean).
    pub faults: Option<FaultPlan>,
}

/// The job wire line that makes a worker recoverable.
const RECOVERY_LINE: &str = "recovery=1";

/// Rounds of outbound frames a recoverable worker keeps for replay.
/// Workers checkpoint every round, so a rejoining peer restores from at
/// most one round back: the log holds the round in flight and the one
/// before it.
pub(crate) const REPLAY_ROUNDS: usize = 2;

impl MasterConfig {
    /// The wire form this master hands `job`'s workers: the spec's own,
    /// plus [`RECOVERY_LINE`] when it may re-spawn them
    /// ([`JobSpec::from_wire`] skips it like any unknown key).
    pub(crate) fn job_wire(&self, job: &JobSpec) -> String {
        let mut wire = job.to_wire();
        if self.max_respawns > 0 {
            wire.push_str(RECOVERY_LINE);
            wire.push('\n');
        }
        wire
    }
}

/// Whether a job wire form asks its worker to stay recoverable: keep a
/// replay log, accept rejoining peers, and checkpoint every round.
pub(crate) fn recovery_requested(wire: &str) -> bool {
    wire.lines().any(|line| line.trim() == RECOVERY_LINE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DbSpec;
    use mpc_core::plan::PlannerChoice;

    fn job() -> JobSpec {
        JobSpec {
            program: PlannerChoice::OneRoundHyperCube,
            query: mpc_cq::families::triangle().to_string(),
            db: DbSpec::Matching { n: 10, seed: 1 },
            p: 2,
            epsilon: 0.5,
            seed: 1,
            block_capacity: 16,
        }
    }

    #[test]
    fn policy_defaults_fail_fast() {
        let cfg = MasterConfig::default();
        assert_eq!(cfg.max_respawns, 0);
        assert!(!recovery_requested(&cfg.job_wire(&job())));
    }

    #[test]
    fn settings_ride_the_job_wire_form() {
        let cfg = MasterConfig { max_respawns: 2, faults: None };
        let wire = cfg.job_wire(&job());
        assert!(recovery_requested(&wire));
        assert_eq!(JobSpec::from_wire(&wire).unwrap(), job(), "the flag is skipped as a key");
        assert!(!recovery_requested(&job().to_wire()));
    }
}
