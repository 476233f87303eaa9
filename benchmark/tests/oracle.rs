//! The command must fail when an output differs from its oracle, and only
//! then. `skew_wco` is the cheapest workload to run unoptimised.

use std::process::Command;

fn run(extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mpc-benchmark"))
        .args(["--workload", "skew_wco", "--seed", "5", "--iterations", "1", "--trace", "0"])
        .args(extra)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.success(), stdout.lines().last().unwrap_or_default().to_string())
}

#[test]
fn a_correct_run_succeeds_and_ends_with_its_result_line() {
    let (success, last) = run(&[]);
    assert!(success);
    assert!(last.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "), "{last}");
    for metric in ["setup_s", "query_ms_p50", "queries_per_s", "peak_rss_mb", "max_load_bytes"] {
        assert!(last.contains(&format!("\"{metric}\": {{\"value\": ")), "{last} lacks {metric}");
    }
}

#[test]
fn a_corrupted_oracle_fails_the_run() {
    let (success, last) = run(&["--corrupt-oracle"]);
    assert!(!success);
    assert!(last.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1, "), "{last}");
}
