//! Fault-injection recovery tests: real `mpc_workerd` processes killed
//! at every lifecycle phase by a deterministic [`FaultPlan`], with the
//! master's respawn budget either re-spawning them (the run must
//! finish **byte-identical** to the undisturbed reference) or failing
//! fast (the abort must surface within the liveness deadline, never
//! hang).

use std::path::Path;
use std::time::{Duration, Instant};

use mpc_core::plan::PlannerChoice;
use mpc_lp::Rational;
use mpc_net::spec::DbSpec;
use mpc_net::{FaultPlan, JobSpec, MasterConfig};
use mpc_sim::RunResult;

fn worker_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_mpc_workerd"))
}

/// One-round HyperCube job: phases reachable are handshake, round1,
/// barrier1 and summary.
fn hypercube_job() -> JobSpec {
    JobSpec {
        program: PlannerChoice::OneRoundHyperCube,
        query: mpc_cq::families::triangle().to_string(),
        db: DbSpec::Matching { n: 400, seed: 11 },
        p: 4,
        epsilon: 0.5,
        seed: 11,
        block_capacity: 128,
    }
}

/// Multi-round chain plan: kills at round ≥ 2 exercise restore from a
/// mid-plan checkpoint plus replay of the in-flight round.
fn multiround_job() -> JobSpec {
    JobSpec {
        program: PlannerChoice::MultiRound { plan_epsilon: Rational::ZERO },
        query: mpc_cq::families::chain(4).to_string(),
        db: DbSpec::Matching { n: 240, seed: 5 },
        p: 3,
        epsilon: 0.0,
        seed: 7,
        block_capacity: 64,
    }
}

/// The undisturbed semantic truth: the synchronous reference run.
fn reference_run(job: &JobSpec) -> RunResult {
    let built = job.build().expect("job builds");
    built.cluster.run(built.program.as_ref(), &built.db).expect("reference run succeeds")
}

/// Run `job` under `plan` with recovery enabled; the result must be
/// byte-identical to `reference` and at least one re-spawn must have
/// actually happened (otherwise the fault never fired and the test
/// would pass vacuously). Returns the re-spawn count.
fn assert_recovers(label: &str, job: &JobSpec, reference: &RunResult, plan: &str) -> usize {
    let cfg = MasterConfig {
        max_respawns: 2,
        faults: Some(FaultPlan::parse(plan).expect("valid fault plan")),
    };
    let report = mpc_net::run_spawned_with(job, worker_bin(), &cfg)
        .unwrap_or_else(|e| panic!("{label} under {plan}: recovery failed: {e}"));
    assert_eq!(report.result.divergence(reference), None, "{label} under {plan}");
    assert!(report.respawns >= 1, "{label} under {plan}: the kill never fired");
    report.respawns
}

/// With recovery disabled, a killed worker must abort the job with a
/// real error — quickly, not after some multi-minute socket timeout.
fn assert_fails_fast(label: &str, job: &JobSpec, plan: &str) {
    let cfg = MasterConfig {
        max_respawns: 0,
        faults: Some(FaultPlan::parse(plan).expect("valid fault plan")),
    };
    let start = Instant::now();
    let err = mpc_net::run_spawned_with(job, worker_bin(), &cfg)
        .expect_err("a killed worker without recovery must fail the job");
    let elapsed = start.elapsed();
    assert!(!err.to_string().is_empty(), "{label}: the abort carries a reason");
    assert!(
        elapsed < Duration::from_secs(5),
        "{label} under {plan}: abort took {elapsed:?}, the liveness poll never noticed"
    );
}

#[test]
fn kill_at_each_phase_recovers_byte_identically() {
    let job = hypercube_job();
    let reference = reference_run(&job);
    for plan in ["kill:w2@handshake", "kill:w2@round1", "kill:w1@barrier1", "kill:w3@summary"] {
        assert_recovers("HC triangle p=4", &job, &reference, plan);
    }
}

#[test]
fn midplan_kill_restores_checkpoint_and_replays() {
    let job = multiround_job();
    let reference = reference_run(&job);
    let rounds = reference.rounds.len();
    assert!(rounds >= 2, "the chain plan must be genuinely multi-round (got {rounds})");
    // Killing at the start of the last round forces a restore from the
    // round `rounds - 1` checkpoint; killing at the last barrier forces
    // a restore of completed state plus replay of peers' final frames.
    assert_recovers("plan L4 p=3", &job, &reference, &format!("kill:w1@round{rounds}"));
    assert_recovers("plan L4 p=3", &job, &reference, &format!("kill:w0@barrier{rounds}"));
}

#[test]
fn sequential_kills_in_different_rounds_both_recover() {
    let job = multiround_job();
    let reference = reference_run(&job);
    assert!(reference.rounds.len() >= 2, "needs two data rounds");
    let respawns =
        assert_recovers("plan L4 p=3", &job, &reference, "kill:w1@round1,kill:w2@round2");
    assert_eq!(respawns, 2, "both kills fired and both workers were re-spawned");
}

#[test]
fn two_deaths_in_one_round_both_recover() {
    // The first replacement gets its peer table only once the second one
    // said Hello, so it never dials the dead worker's address.
    let job = hypercube_job();
    let reference = reference_run(&job);
    let respawns =
        assert_recovers("HC triangle p=4", &job, &reference, "kill:w1@round1,kill:w2@round1");
    assert_eq!(respawns, 2, "both kills fired and both workers were re-spawned");
}

#[test]
fn seeded_kill_campaign_is_replayable() {
    let job = hypercube_job();
    let reference = reference_run(&job);
    let plan = FaultPlan::seeded_kill(42, job.p, 1);
    assert_eq!(plan, FaultPlan::seeded_kill(42, job.p, 1), "same seed, same kill");
    assert_recovers("HC triangle p=4 (seeded)", &job, &reference, &plan.to_string());
}

#[test]
fn recovery_off_aborts_cleanly_not_forever() {
    let job = hypercube_job();
    assert_fails_fast("HC triangle p=4", &job, "kill:w2@round1");
}

#[test]
fn exhausted_respawn_budget_falls_back_to_abort() {
    // Two workers die in the same round; one re-spawn of budget cannot
    // cover the second death, so the policy-exhausted fallback must abort
    // the job instead of retrying forever — and at once: the master sees
    // the second death while the first is still being replaced, instead
    // of waiting on a replacement that can never rejoin a dead peer.
    let job = hypercube_job();
    let cfg = MasterConfig {
        max_respawns: 1,
        faults: Some(FaultPlan::parse("kill:w1@round1,kill:w2@round1").expect("valid plan")),
    };
    let start = Instant::now();
    let err = mpc_net::run_spawned_with(&job, worker_bin(), &cfg)
        .expect_err("two deaths on a one-respawn budget must abort");
    assert!(!err.to_string().is_empty(), "the abort carries a reason");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "policy-exhausted abort must not hang (took {:?})",
        start.elapsed()
    );
}
