//! Run one claim of the paper: `exp <ID> [--smoke] [--json <path>]`.
//!
//! Prints the claim's tables and notes, writes its rows as JSON to
//! `<path>` (or to `$MPC_BENCH_JSON/<artefact>.json` when that variable is
//! set), and exits non-zero with one line per violated check. `--smoke`
//! runs the small grid the test suite runs. `exp` alone lists the claims.
//!
//! ```text
//! cargo run --release -p mpc-bench --bin exp -- E3 --smoke
//! ```

use std::path::PathBuf;
use std::process::exit;

use mpc_bench::{json_output_path, write_json, Scale, CLAIMS};

fn usage() -> ! {
    eprintln!("usage: exp <ID> [--smoke] [--json <path>]\n");
    for c in CLAIMS {
        eprintln!("  {:<4} {} — {}", c.id, c.artefact, c.paper);
    }
    exit(2);
}

fn main() {
    let (mut id, mut scale, mut json) = (None, Scale::Full, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => scale = Scale::Smoke,
            "--json" => json = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            _ if id.is_none() && !arg.starts_with('-') => id = Some(arg),
            _ => usage(),
        }
    }
    let Some(claim) = id.and_then(|id| CLAIMS.iter().find(|c| c.id == id)) else { usage() };
    let outcome = (claim.run)(scale);
    print!("{}", outcome.report);
    if let Some(path) = json.or_else(|| json_output_path(claim.artefact)) {
        write_json(&path, &outcome.json);
    }
    if outcome.failures.is_empty() {
        print!("{}", outcome.passed);
        return;
    }
    for failure in &outcome.failures {
        eprintln!("FAIL {}: {failure}", claim.id);
    }
    exit(1);
}
