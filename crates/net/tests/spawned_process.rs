//! End-to-end test of the spawned-process mode: real `mpc_workerd` OS
//! processes over localhost, coordinated by the in-test master, checked
//! against the synchronous reference.

use std::path::Path;

use mpc_core::plan::PlannerChoice;
use mpc_lp::Rational;
use mpc_net::spec::DbSpec;
use mpc_net::JobSpec;

fn worker_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_mpc_workerd"))
}

fn assert_spawned_matches_reference(label: &str, job: &JobSpec) {
    let built = job.build().expect("job builds");
    let reference =
        built.cluster.run(built.program.as_ref(), &built.db).expect("reference run succeeds");
    let got = mpc_net::run_spawned(job, worker_bin())
        .unwrap_or_else(|e| panic!("{label}: spawned run failed: {e}"));
    assert_eq!(got.divergence(&reference), None, "{label}");
}

#[test]
fn spawned_hypercube_matches_reference() {
    let job = JobSpec {
        program: PlannerChoice::OneRoundHyperCube,
        query: mpc_cq::families::triangle().to_string(),
        db: DbSpec::Matching { n: 600, seed: 3 },
        p: 4,
        epsilon: 0.5,
        seed: 11,
        block_capacity: 128,
    };
    assert_spawned_matches_reference("spawned HC triangle p=4", &job);
}

#[test]
fn spawned_multiround_matches_reference() {
    let job = JobSpec {
        program: PlannerChoice::MultiRound { plan_epsilon: Rational::ZERO },
        query: mpc_cq::families::chain(4).to_string(),
        db: DbSpec::Matching { n: 300, seed: 5 },
        p: 3,
        epsilon: 0.0,
        seed: 7,
        block_capacity: 64,
    };
    assert_spawned_matches_reference("spawned plan L4 p=3", &job);
}

#[test]
fn dead_worker_fails_the_job_fast_not_forever() {
    // Point the master at a "worker binary" that exits immediately: the
    // handshake can never complete, and the accept deadline (not an
    // infinite hang) must surface an error. `true` exists on any CI
    // image; a missing binary also errors, which is equally acceptable.
    let job = JobSpec {
        program: PlannerChoice::OneRoundHyperCube,
        query: mpc_cq::families::triangle().to_string(),
        db: DbSpec::Matching { n: 100, seed: 1 },
        p: 2,
        epsilon: 0.5,
        seed: 1,
        block_capacity: 16,
    };
    let err = mpc_net::run_spawned(&job, Path::new("/usr/bin/true"))
        .or_else(|_| mpc_net::run_spawned(&job, Path::new("/bin/true")))
        .expect_err("a worker that never dials in must fail the job");
    let msg = err.to_string();
    assert!(!msg.is_empty(), "the failure carries a reason");
}
