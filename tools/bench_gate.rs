//! CI bench gate: compare a freshly produced `BENCH_*.json` artefact
//! against the committed baseline and fail on regressions.
//!
//! The artefacts are the machine-readable rows the `lp_solver`,
//! `local_join` and `async_backend` benches write via
//! `mpc_bench::maybe_write_json` (`mpc_bench::BenchRow`):
//! a JSON array of `{"name": "...", "mean_ns": <int>, "iterations": <int>}`
//! objects. This tool is dependency-free (the workspace's `serde_json`
//! shim has no parser) and parses exactly that shape.
//!
//! **Gate rule.** Per-case ratios `fresh/base` are first normalised by
//! their median — the median ratio is the hardware factor between the
//! machine that recorded the baseline and the machine running the gate,
//! and dividing it out makes the gate portable across runners. A case
//! fails when its normalised ratio exceeds the threshold (default 2.0):
//! "more than 2× slower than the suite-wide median regression". Cases
//! present in only one file are reported but do not fail the gate (bench
//! suites legitimately grow).
//!
//! **Ratchets.** `--max-ratio <numerator> <denominator> <limit>`
//! (repeatable) additionally asserts `mean_ns(numerator) ≤ limit ×
//! mean_ns(denominator)` *within the fresh artefact* — both cases ran on
//! the same machine in the same process, so the bound needs no hardware
//! normalisation and cannot drift with runner speed. CI uses it to lock
//! the async backend at ≤ 1.2× the synchronous backend on the headline
//! HyperCube case.
//!
//! ```text
//! bench_gate <baseline.json> <fresh.json> [--threshold 2.0]
//!            [--max-ratio <case_a> <case_b> <limit>]...
//! ```
//!
//! Exit status: 0 when every matched case passes, 1 on regression, a
//! violated ratchet, or unreadable/empty input.

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;

/// One benchmark measurement.
#[derive(Debug, Clone, PartialEq)]
struct BenchRow {
    name: String,
    mean_ns: u128,
}

/// Parse the fixed artefact shape: a JSON array of flat objects with
/// `"name"` (string) and `"mean_ns"` (unsigned integer) members. Other
/// members (e.g. `"iterations"`) are ignored. Returns `Err` with a
/// description on any shape violation.
fn parse_rows(text: &str) -> Result<Vec<BenchRow>, String> {
    let mut rows = Vec::new();
    let body = text.trim();
    let body = body
        .strip_prefix('[')
        .and_then(|b| b.strip_suffix(']'))
        .ok_or("artefact is not a JSON array")?;
    for (i, object) in body.split('}').enumerate() {
        let object = object.trim().trim_start_matches(',').trim();
        if object.is_empty() {
            continue;
        }
        let object = object.strip_prefix('{').ok_or(format!("row {i}: expected an object"))?;
        let mut name: Option<String> = None;
        let mut mean_ns: Option<u128> = None;
        for field in split_top_level_fields(object) {
            let (key, value) =
                field.split_once(':').ok_or(format!("row {i}: member without a colon"))?;
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            match key {
                "name" => {
                    let v = value
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or(format!("row {i}: name is not a string"))?;
                    name = Some(v.to_string());
                }
                "mean_ns" => {
                    let v = value
                        .parse::<u128>()
                        .map_err(|e| format!("row {i}: mean_ns not an integer: {e}"))?;
                    mean_ns = Some(v);
                }
                _ => {}
            }
        }
        rows.push(BenchRow {
            name: name.ok_or(format!("row {i}: missing name"))?,
            mean_ns: mean_ns.ok_or(format!("row {i}: missing mean_ns"))?,
        });
    }
    if rows.is_empty() {
        return Err("artefact contains no rows".to_string());
    }
    Ok(rows)
}

/// Split the member list of a flat JSON object on commas that are outside
/// string literals (names like `sparse/B12_2` contain no commas today,
/// but quoted commas must not split a member).
fn split_top_level_fields(object: &str) -> Vec<&str> {
    let mut fields = Vec::new();
    let mut start = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in object.char_indices() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            ',' if !in_string => {
                fields.push(&object[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    if start < object.len() {
        fields.push(&object[start..]);
    }
    fields
}

/// Median of a non-empty slice (mean of the middle pair for even lengths).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The comparison report: per-case normalised ratios plus bookkeeping.
struct GateReport {
    hardware_factor: f64,
    /// `(name, raw_ratio, normalised_ratio)` per matched case.
    cases: Vec<(String, f64, f64)>,
    only_in_base: Vec<String>,
    only_in_fresh: Vec<String>,
}

/// Compare fresh rows against the baseline.
fn compare(base: &[BenchRow], fresh: &[BenchRow]) -> Result<GateReport, String> {
    let mut cases = Vec::new();
    let mut only_in_base = Vec::new();
    for b in base {
        match fresh.iter().find(|f| f.name == b.name) {
            Some(f) => {
                let ratio = f.mean_ns.max(1) as f64 / b.mean_ns.max(1) as f64;
                cases.push((b.name.clone(), ratio, 0.0));
            }
            None => only_in_base.push(b.name.clone()),
        }
    }
    let only_in_fresh: Vec<String> = fresh
        .iter()
        .filter(|f| base.iter().all(|b| b.name != f.name))
        .map(|f| f.name.clone())
        .collect();
    if cases.is_empty() {
        return Err("no case names in common between baseline and fresh artefact".to_string());
    }
    let mut ratios: Vec<f64> = cases.iter().map(|(_, r, _)| *r).collect();
    let hardware_factor = median(&mut ratios);
    for case in &mut cases {
        case.2 = case.1 / hardware_factor;
    }
    Ok(GateReport { hardware_factor, cases, only_in_base, only_in_fresh })
}

/// A `--max-ratio` ratchet: `mean_ns(numerator) ≤ limit × mean_ns(denominator)`
/// checked within one artefact.
#[derive(Debug, Clone)]
struct MaxRatio {
    numerator: String,
    denominator: String,
    limit: f64,
}

/// Check the ratchets against the fresh rows. Returns the per-ratchet
/// report lines and the names of violated ratchets.
fn check_ratchets(
    fresh: &[BenchRow],
    ratchets: &[MaxRatio],
) -> Result<(String, Vec<String>), String> {
    let mut out = String::new();
    let mut violated = Vec::new();
    for r in ratchets {
        let num = fresh
            .iter()
            .find(|f| f.name == r.numerator)
            .ok_or(format!("--max-ratio case {} not in the fresh artefact", r.numerator))?;
        let den = fresh
            .iter()
            .find(|f| f.name == r.denominator)
            .ok_or(format!("--max-ratio case {} not in the fresh artefact", r.denominator))?;
        let ratio = num.mean_ns.max(1) as f64 / den.mean_ns.max(1) as f64;
        let verdict = if ratio > r.limit { "VIOLATED" } else { "ok" };
        let _ = writeln!(
            out,
            "  ratchet {} / {}: {ratio:.3}× (limit {:.3}×) — {verdict}",
            r.numerator, r.denominator, r.limit
        );
        if ratio > r.limit {
            violated.push(format!("{} / {}", r.numerator, r.denominator));
        }
    }
    Ok((out, violated))
}

fn run(
    baseline_path: &str,
    fresh_path: &str,
    threshold: f64,
    ratchets: &[MaxRatio],
) -> Result<String, String> {
    let base_text = fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let fresh_text = fs::read_to_string(fresh_path)
        .map_err(|e| format!("cannot read fresh artefact {fresh_path}: {e}"))?;
    let base = parse_rows(&base_text).map_err(|e| format!("{baseline_path}: {e}"))?;
    let fresh = parse_rows(&fresh_text).map_err(|e| format!("{fresh_path}: {e}"))?;
    let report = compare(&base, &fresh)?;
    let (ratchet_lines, violated) = check_ratchets(&fresh, ratchets)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench gate: {} matched case(s), hardware factor {:.3} (median fresh/base ratio)",
        report.cases.len(),
        report.hardware_factor
    );
    if report.hardware_factor > threshold {
        // Median normalisation cancels uniform slowdowns by design, so a
        // large hardware factor is either a slower runner or a real
        // across-the-board regression — surface it loudly either way.
        let _ = writeln!(
            out,
            "WARNING: median ratio {:.2} exceeds the threshold — either this runner is \
             much slower than the baseline recorder, or EVERY case regressed together \
             (which the per-case gate cannot see)",
            report.hardware_factor
        );
    }
    let mut regressions = Vec::new();
    for (name, raw, normalised) in &report.cases {
        let verdict = if *normalised > threshold { "REGRESSED" } else { "ok" };
        let _ = writeln!(out, "  {name}: raw {raw:.3}×, vs median {normalised:.3}× — {verdict}");
        if *normalised > threshold {
            regressions.push(name.clone());
        }
    }
    for name in &report.only_in_base {
        let _ = writeln!(out, "  (baseline-only case, skipped: {name})");
    }
    for name in &report.only_in_fresh {
        let _ = writeln!(out, "  (new case, no baseline yet: {name})");
    }
    out.push_str(&ratchet_lines);
    if regressions.is_empty() && violated.is_empty() {
        let _ = writeln!(out, "PASS: no case more than {threshold}× slower than the median");
        Ok(out)
    } else {
        if !regressions.is_empty() {
            let _ = writeln!(
                out,
                "FAIL: {} case(s) regressed more than {threshold}× vs the suite median: {}",
                regressions.len(),
                regressions.join(", ")
            );
        }
        if !violated.is_empty() {
            let _ = writeln!(
                out,
                "FAIL: {} ratchet(s) violated in the fresh artefact: {}",
                violated.len(),
                violated.join("; ")
            );
        }
        Err(out)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut positional = Vec::new();
    let mut threshold = 2.0f64;
    let mut ratchets = Vec::new();
    let mut i = 1;
    while i < args.len() {
        if args[i] == "--threshold" {
            match args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 1.0 => threshold = v,
                _ => {
                    eprintln!("--threshold needs a value > 1.0");
                    return ExitCode::FAILURE;
                }
            }
            i += 2;
        } else if args[i] == "--max-ratio" {
            let (Some(num), Some(den), Some(limit)) = (
                args.get(i + 1),
                args.get(i + 2),
                args.get(i + 3).and_then(|v| v.parse::<f64>().ok()),
            ) else {
                eprintln!("--max-ratio needs <numerator_case> <denominator_case> <limit>");
                return ExitCode::FAILURE;
            };
            if limit <= 0.0 {
                eprintln!("--max-ratio limit must be positive");
                return ExitCode::FAILURE;
            }
            ratchets.push(MaxRatio { numerator: num.clone(), denominator: den.clone(), limit });
            i += 4;
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    let [baseline, fresh] = positional.as_slice() else {
        eprintln!(
            "usage: bench_gate <baseline.json> <fresh.json> [--threshold 2.0] \
             [--max-ratio <case_a> <case_b> <limit>]..."
        );
        return ExitCode::FAILURE;
    };
    match run(baseline, fresh, threshold, &ratchets) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(report) => {
            eprint!("{report}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
  {
    "name": "sparse/C3",
    "mean_ns": 1000,
    "iterations": 15
  },
  {
    "name": "dense/C3",
    "mean_ns": 4000,
    "iterations": 15
  },
  {
    "name": "fastpath/C3",
    "mean_ns": 200,
    "iterations": 15
  }
]"#;

    fn rows(pairs: &[(&str, u128)]) -> Vec<BenchRow> {
        pairs.iter().map(|(n, m)| BenchRow { name: n.to_string(), mean_ns: *m }).collect()
    }

    #[test]
    fn parses_the_artefact_shape() {
        let parsed = parse_rows(SAMPLE).unwrap();
        assert_eq!(parsed, rows(&[("sparse/C3", 1000), ("dense/C3", 4000), ("fastpath/C3", 200)]));
    }

    #[test]
    fn rejects_malformed_artefacts() {
        assert!(parse_rows("{}").is_err());
        assert!(parse_rows("[]").is_err());
        assert!(parse_rows(r#"[{"name": "x"}]"#).is_err());
        assert!(parse_rows(r#"[{"mean_ns": 3}]"#).is_err());
        assert!(parse_rows(r#"[{"name": "x", "mean_ns": "fast"}]"#).is_err());
    }

    #[test]
    fn uniform_slowdown_is_absorbed_by_the_hardware_factor() {
        // Every case 5× slower: a slower runner, not a regression.
        let base = rows(&[("a", 100), ("b", 200), ("c", 400)]);
        let fresh = rows(&[("a", 500), ("b", 1000), ("c", 2000)]);
        let report = compare(&base, &fresh).unwrap();
        assert!((report.hardware_factor - 5.0).abs() < 1e-9);
        assert!(report.cases.iter().all(|(_, _, n)| (n - 1.0).abs() < 1e-9));
    }

    #[test]
    fn single_case_regression_is_flagged() {
        let base = rows(&[("a", 100), ("b", 200), ("c", 400)]);
        // `c` regresses 10× while the others are unchanged.
        let fresh = rows(&[("a", 100), ("b", 200), ("c", 4000)]);
        let report = compare(&base, &fresh).unwrap();
        assert!((report.hardware_factor - 1.0).abs() < 1e-9);
        let c = report.cases.iter().find(|(n, _, _)| n == "c").unwrap();
        assert!(c.2 > 2.0, "normalised ratio {}", c.2);
        let a = report.cases.iter().find(|(n, _, _)| n == "a").unwrap();
        assert!(a.2 <= 2.0);
    }

    #[test]
    fn unmatched_cases_are_reported_not_fatal() {
        let base = rows(&[("a", 100), ("gone", 50)]);
        let fresh = rows(&[("a", 120), ("new", 70)]);
        let report = compare(&base, &fresh).unwrap();
        assert_eq!(report.only_in_base, vec!["gone".to_string()]);
        assert_eq!(report.only_in_fresh, vec!["new".to_string()]);
        assert_eq!(report.cases.len(), 1);
    }

    #[test]
    fn disjoint_suites_are_an_error() {
        let base = rows(&[("a", 100)]);
        let fresh = rows(&[("b", 100)]);
        assert!(compare(&base, &fresh).is_err());
    }

    #[test]
    fn median_of_even_and_odd_lengths() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn end_to_end_pass_and_fail() {
        let dir = std::env::temp_dir().join("bench_gate_test");
        fs::create_dir_all(&dir).unwrap();
        let base_path = dir.join("base.json");
        let fresh_path = dir.join("fresh.json");
        fs::write(&base_path, SAMPLE).unwrap();
        fs::write(&fresh_path, SAMPLE).unwrap();
        let ok = run(base_path.to_str().unwrap(), fresh_path.to_str().unwrap(), 2.0, &[]);
        assert!(ok.is_ok());
        assert!(ok.unwrap().contains("PASS"));
        // One case blown up 100×.
        fs::write(&fresh_path, SAMPLE.replace("\"mean_ns\": 200", "\"mean_ns\": 20000")).unwrap();
        let bad = run(base_path.to_str().unwrap(), fresh_path.to_str().unwrap(), 2.0, &[]);
        assert!(bad.is_err());
        assert!(bad.unwrap_err().contains("FAIL"));
    }

    fn ratchet(num: &str, den: &str, limit: f64) -> MaxRatio {
        MaxRatio { numerator: num.to_string(), denominator: den.to_string(), limit }
    }

    #[test]
    fn ratchet_passes_within_limit_and_fails_beyond_it() {
        // dense is 4× sparse in SAMPLE.
        let fresh = parse_rows(SAMPLE).unwrap();
        let (lines, violated) =
            check_ratchets(&fresh, &[ratchet("dense/C3", "sparse/C3", 4.5)]).unwrap();
        assert!(violated.is_empty(), "{lines}");
        assert!(lines.contains("4.000× (limit 4.500×) — ok"));

        let (lines, violated) =
            check_ratchets(&fresh, &[ratchet("dense/C3", "sparse/C3", 3.0)]).unwrap();
        assert_eq!(violated, vec!["dense/C3 / sparse/C3".to_string()]);
        assert!(lines.contains("VIOLATED"));
    }

    #[test]
    fn ratchet_on_a_missing_case_is_an_error() {
        let fresh = parse_rows(SAMPLE).unwrap();
        assert!(check_ratchets(&fresh, &[ratchet("nope", "sparse/C3", 2.0)]).is_err());
        assert!(check_ratchets(&fresh, &[ratchet("sparse/C3", "nope", 2.0)]).is_err());
    }

    #[test]
    fn a_violated_ratchet_fails_the_gate_even_without_regressions() {
        let dir = std::env::temp_dir().join("bench_gate_ratchet_test");
        fs::create_dir_all(&dir).unwrap();
        let base_path = dir.join("base.json");
        let fresh_path = dir.join("fresh.json");
        fs::write(&base_path, SAMPLE).unwrap();
        fs::write(&fresh_path, SAMPLE).unwrap();
        // Identical artefacts: the median gate passes, the ratchet decides.
        let ok = run(
            base_path.to_str().unwrap(),
            fresh_path.to_str().unwrap(),
            2.0,
            &[ratchet("dense/C3", "sparse/C3", 4.0)],
        );
        assert!(ok.is_ok());
        let bad = run(
            base_path.to_str().unwrap(),
            fresh_path.to_str().unwrap(),
            2.0,
            &[ratchet("dense/C3", "sparse/C3", 1.2)],
        );
        assert!(bad.is_err());
        assert!(bad.unwrap_err().contains("ratchet(s) violated"));
    }
}
