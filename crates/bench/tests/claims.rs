//! Every claim of the paper holds at smoke scale, and README's experiments
//! table lists exactly the claim table.

use mpc_bench::{Scale, CLAIMS};

#[test]
fn every_claim_holds_at_smoke_scale() {
    // One thread per claim: the slowest claim, not their sum, sets the
    // wall time.
    let failures: Vec<String> = std::thread::scope(|s| {
        let runs: Vec<_> =
            CLAIMS.iter().map(|c| (c.id, s.spawn(move || (c.run)(Scale::Smoke)))).collect();
        runs.into_iter()
            .flat_map(|(id, run)| match run.join() {
                Ok(outcome) => outcome.failures.iter().map(|f| format!("{id}: {f}")).collect(),
                Err(_) => vec![format!("{id}: panicked")],
            })
            .collect()
    });
    assert!(failures.is_empty(), "violated checks:\n{}", failures.join("\n"));
}

#[test]
fn readme_lists_every_claim_once() {
    let readme = include_str!("../../../README.md");
    let header = "| Claim | Command | Paper claim / section | What it shows | JSON artefact |";
    let table = &readme[readme.find(header).expect("README has the claims table")..];
    let rows: Vec<&str> = table.lines().skip(2).take_while(|l| l.starts_with('|')).collect();
    let expected: Vec<String> = CLAIMS
        .iter()
        .map(|c| {
            format!(
                "| {} | `exp {}` | {} | {} | `{}.json` |",
                c.id, c.id, c.paper, c.shows, c.artefact
            )
        })
        .collect();
    assert_eq!(rows, expected, "README's experiments table must match mpc_bench::CLAIMS");
}
