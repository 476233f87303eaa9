//! The repo benchmark (see `BENCHMARK.json` and `benchmark/README.md`).
//!
//! ```text
//! mpc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mpc-benchmark [--smoke] [--seed <n>] [--seconds <s>]   every workload, one child each
//! mpc-benchmark --check-counts [--seed <n>]
//! ```
//!
//! Every run restricts itself to one CPU (`affinity.rs` says why).
//! `--trace 0` measures the end-to-end metrics through each workload's
//! top-level entry point; `--trace 1` runs the staged replica and reports the
//! per-layer metrics. The last line of a single-workload run is its result
//! as one JSON object; the exit code is non-zero when any operation failed
//! its check.

mod affinity;
mod metrics;
mod procfs;
mod seed;
mod span;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use metrics::{Metrics, RunReport, END_TO_END, EXACT, PER_LAYER};
use span::{self_ms_by_name, Tracer};
use stats::{median, quantile, sorted, tail_percentile, windows, Mark};
use workloads::{Samples, Workload, WORKLOADS};

/// An untraced run sets its workload up before its timed part and again
/// after it, each time at least `MIN_SETUPS` times and on until
/// `SETUP_SECONDS` have passed or `MAX_SETUPS` are done, so that short
/// set-ups are sampled more often. `setup_s` is the fastest of them all, by
/// the reasoning of `stats::windows`; the two sides are a timed part apart
/// because a slow burst of the machine outlasts either of them.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 8;
const SETUP_SECONDS: f64 = 1.0;
/// Timed work per window of an untraced run, in seconds. `query_ms_p50` and
/// `queries_per_s` are those of the run's best window (see `stats::windows`).
const WINDOW_SECONDS: f64 = 0.25;
/// Share of a traced run's time spent on untraced iterations, which give
/// the p50 the staged spans are compared with.
const UNTRACED_SHARE: f64 = 0.3;
/// Iterations per workload and mode under `--smoke` and `--check-counts`.
const SMOKE_ITERATIONS: usize = 3;
const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run exactly this many iterations instead of for `seconds`.
    iterations: Option<usize>,
    smoke: bool,
    check_counts: bool,
    /// Plant a wrong tuple in every oracle: the run must then fail.
    corrupt_oracle: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 8.0,
        trace: false,
        iterations: None,
        smoke: false,
        check_counts: false,
        corrupt_oracle: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--iterations" => {
                let n: usize = value()?.parse().map_err(|e| format!("--iterations: {e}"))?;
                if n == 0 {
                    return Err("--iterations must be at least 1".to_string());
                }
                out.iterations = Some(n);
            }
            "--smoke" => out.smoke = true,
            "--check-counts" => out.check_counts = true,
            "--corrupt-oracle" => out.corrupt_oracle = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &out.workload {
        if !WORKLOADS.iter().any(|(n, _)| n == name) {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload {name}; one of {}", names.join(", ")));
        }
    }
    Ok(out)
}

/// Has a measuring loop that started at `start` and ran `done` iterations
/// finished?
fn finished(args: &Args, seconds: f64, start: Instant, done: usize) -> bool {
    match args.iterations {
        Some(n) => done >= n,
        None => start.elapsed().as_secs_f64() >= seconds,
    }
}

fn build(name: &str, args: &Args) -> Box<dyn Workload> {
    workloads::build(name, args.seed, args.corrupt_oracle).expect("workload names are validated")
}

/// Set the workload up several times over (once under `--iterations`),
/// adding each set-up's time to `setup_s`, and return the last one.
fn set_up(name: &str, args: &Args, setup_s: &mut Vec<f64>) -> Box<dyn Workload> {
    let setting_up = Instant::now();
    let enough = |done: usize| match args.iterations {
        Some(_) => true,
        None => {
            done >= MAX_SETUPS
                || (done >= MIN_SETUPS && setting_up.elapsed().as_secs_f64() >= SETUP_SECONDS)
        }
    };
    for done in 1.. {
        let start = Instant::now();
        let mut fresh = build(name, args);
        fresh.warm_up();
        setup_s.push(start.elapsed().as_secs_f64());
        if enough(done) {
            return fresh;
        }
        fresh.shut_down();
    }
    unreachable!("the loop returns")
}

/// `--trace 0`: the end-to-end metrics, through the top-level entry point.
fn run_untraced(name: &str, args: &Args) -> RunReport {
    let mut setup_s = Vec::new();
    let mut workload = set_up(name, args, &mut setup_s);

    let mut samples = Samples::default();
    let mut marks = Vec::new();
    let start = Instant::now();
    while !finished(args, args.seconds, start, marks.len()) {
        workload.iterate(&mut samples);
        marks.push(Mark {
            samples: samples.query_ms.len(),
            timed_s: samples.timed_s,
            queries: samples.attempted,
        });
    }
    let (max_load_bytes, replication) = workload.load();
    workload.shut_down();
    let peak_rss_mb = procfs::peak_rss_mb();
    if args.iterations.is_none() {
        set_up(name, args, &mut setup_s).shut_down();
    }

    let mut report =
        RunReport { attempted: samples.attempted, failed: samples.failed, ..RunReport::default() };
    let m = &mut report.metrics;
    // Time and throughput are read off the quietest window of the run.
    let windows = windows(&samples.query_ms, &marks, WINDOW_SECONDS);
    m.set("setup_s", setup_s.iter().copied().fold(f64::INFINITY, f64::min));
    m.set("query_ms_p50", windows.iter().map(|w| w.0).fold(f64::INFINITY, f64::min));
    m.set("queries_per_s", windows.iter().map(|w| w.1).fold(0.0, f64::max));
    m.set("peak_rss_mb", peak_rss_mb);
    m.set("max_load_bytes", max_load_bytes);
    m.set("replication", replication);
    println!(
        "{name}: {} timed samples over {:.2} s in {} windows; whole run: p50 {:.4} ms, {:.2} queries/s",
        samples.query_ms.len(),
        samples.timed_s,
        windows.len(),
        median(&samples.query_ms),
        samples.attempted as f64 / samples.timed_s
    );
    report
}

/// `--trace 1`: untraced iterations for the reference p50, then the staged
/// replica under spans, then the workload's own counts.
fn run_traced(name: &str, args: &Args) -> RunReport {
    let mut workload = build(name, args);
    workload.warm_up();
    let per_iteration = workload.queries_per_iteration();

    let mut samples = Samples::default();
    let cpu_before = procfs::cpu_ms();
    let start = Instant::now();
    let mut done = 0;
    while !finished(args, args.seconds * UNTRACED_SHARE, start, done) {
        workload.iterate(&mut samples);
        done += 1;
    }
    let cpu_ms = procfs::cpu_ms() - cpu_before;

    // Every fourth replica iteration records no spans: the gap between the
    // two kinds is what recording costs.
    let mut tracer = Tracer::new();
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (samples.attempted, samples.failed);
    let start = Instant::now();
    let mut done = 0;
    while !finished(args, args.seconds * (1.0 - UNTRACED_SHARE), start, done) {
        let plain = done % 4 == 3;
        let at = Instant::now();
        let correct = if plain {
            workload.trace(&mut Tracer::disabled())
        } else {
            workload.trace(&mut tracer)
        };
        let ms = at.elapsed().as_secs_f64() * 1e3;
        if plain { &mut plain_ms } else { &mut traced_ms }.push(ms);
        attempted += 1;
        failed += u64::from(!correct);
        done += 1;
    }

    let mut report = RunReport { attempted, failed, ..RunReport::default() };
    let m = &mut report.metrics;
    let spans = tracer.spans();
    let by_name = self_ms_by_name(spans);
    for (metric, _) in PER_LAYER {
        if let Some(per_query) = metric.strip_suffix("_ms").and_then(|stage| by_name.get(stage)) {
            m.set(metric, median(per_query) / per_iteration);
        }
    }
    if let (Some(analyze), Some(solve)) = (by_name.get("core.analyze"), by_name.get("lp.solve")) {
        // `analyze` solves the LPs itself; the probe timed them alone.
        let net: Vec<f64> = analyze.iter().zip(solve).map(|(a, s)| (a - s).max(0.0)).collect();
        m.set("core.analyze_ms", median(&net) / per_iteration);
    }

    let query_ms = sorted(&samples.query_ms);
    let p50 = quantile(&query_ms, 0.5);
    let staged_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "query")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6 / per_iteration)
        .collect();
    m.set("harness.query_ms_p50", p50);
    m.set("harness.query_ms_p90", quantile(&query_ms, 0.9));
    if let Some(pct) = tail_percentile(query_ms.len()) {
        m.set("harness.tail_pct", pct);
        m.set("harness.query_ms_tail", quantile(&query_ms, pct / 100.0));
    }
    m.set("harness.samples", query_ms.len() as f64);
    m.set("harness.cpu_ms_per_query", cpu_ms / samples.attempted as f64);
    if p50 > 0.0 {
        m.set("harness.trace_cover", median(&staged_ms) / p50);
    }
    if !plain_ms.is_empty() {
        m.set("harness.trace_overhead_frac", median(&traced_ms) / median(&plain_ms) - 1.0);
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    m.set("harness.nproc", nproc as f64);
    workload.layer_metrics(p50, m);
    workload.shut_down();

    println!(
        "{name}: {} untraced samples, {} traced and {} plain replica iterations",
        query_ms.len(),
        traced_ms.len(),
        plain_ms.len()
    );
    print_layer_shares(&by_name);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{name}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    report
}

/// Print each layer's share of the staged query: its spans' self time
/// against the whole replica (root self time is the harness's own).
fn print_layer_shares(by_name: &BTreeMap<&'static str, Vec<f64>>) {
    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, per_query) in by_name {
        let layer = name.split('.').next().unwrap_or(name);
        *layers.entry(if *name == "query" { "harness" } else { layer }).or_default() +=
            median(per_query);
    }
    // The LP probe runs beside the query, not inside it.
    let total: f64 = layers.iter().filter(|(l, _)| **l != "lp").map(|(_, ms)| ms).sum();
    let shares: Vec<String> =
        layers.iter().map(|(l, ms)| format!("{l} {:.1}%", 100.0 * ms / total)).collect();
    println!("  layer shares of the staged query: {}", shares.join(", "));
}

fn run_one(name: &str, args: &Args) -> RunReport {
    if args.trace {
        run_traced(name, args)
    } else {
        run_untraced(name, args)
    }
}

/// Every workload in a child process of its own, untraced then traced, so
/// that peak memory and the process-wide LP cache are per workload.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut failures = Vec::new();
    for (name, _) in WORKLOADS {
        for (trace, seconds) in [("0", args.seconds), ("1", args.seconds / 4.0)] {
            let mut child = Command::new(&exe);
            child.args(["--workload", name, "--trace", trace]);
            child.args(["--seed", &args.seed.to_string(), "--seconds", &seconds.to_string()]);
            if args.smoke {
                child.args(["--iterations", &SMOKE_ITERATIONS.to_string()]);
            }
            if args.corrupt_oracle {
                child.arg("--corrupt-oracle");
            }
            let status = child.status().map_err(|e| format!("cannot start {name}: {e}"))?;
            if !status.success() {
                failures.push(format!("{name} --trace {trace}: {status}"));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("failed runs:\n  {}", failures.join("\n  ")))
    }
}

/// Run every workload twice at a fixed iteration count and require every
/// metric marked exact to repeat.
fn check_counts(args: &Args) -> Result<(), String> {
    let fixed = Args { iterations: Some(SMOKE_ITERATIONS), ..args.clone() };
    let mut differences = Vec::new();
    for (name, _) in WORKLOADS {
        let runs: Vec<Metrics> = (0..2)
            .map(|_| {
                let mut all = run_one(name, &Args { trace: false, ..fixed.clone() }).metrics;
                let traced = run_one(name, &Args { trace: true, ..fixed.clone() }).metrics;
                for (metric, _) in PER_LAYER {
                    all.set(metric, traced.get(metric));
                }
                all
            })
            .collect();
        for metric in EXACT {
            let (a, b) = (runs[0].get(metric), runs[1].get(metric));
            if a != b {
                differences.push(format!("{name} {metric}: {a} then {b}"));
            }
        }
    }
    if differences.is_empty() {
        println!("check-counts: {} exact metrics repeat on every workload", EXACT.len());
        Ok(())
    } else {
        Err(format!("exact metrics that did not repeat:\n  {}", differences.join("\n  ")))
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so that every thread inherits it.
    if affinity::pin_to_one_cpu().is_none() {
        eprintln!("could not restrict the run to one CPU; its times will be less steady");
    }
    let outcome = if args.check_counts {
        check_counts(&args)
    } else if let Some(name) = &args.workload {
        let report = run_one(name, &args);
        let defs = if args.trace { PER_LAYER } else { END_TO_END };
        print!("{}", report.table(defs));
        if let Some(metric) = report.non_finite(defs) {
            Err(format!("{metric} is not a finite number; no result line is printed"))
        } else {
            println!("{}", report.result_line(defs));
            if report.failed == 0 {
                Ok(())
            } else {
                Err(format!("{} of {} operations failed", report.failed, report.attempted))
            }
        }
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_invocation_parses() {
        let a = args(&["--workload", "hc_sync", "--seed", "7", "--seconds", "10", "--trace", "1"])
            .expect("valid");
        assert_eq!(a.workload.as_deref(), Some("hc_sync"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(a.iterations, None);
    }

    #[test]
    fn bad_invocations_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--iterations", "0"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn benchmark_json_lists_the_workloads_with_their_reasons() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is too long");
            let entry = format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks workload {name}");
        }
        assert_eq!(json.matches("\"why\": ").count(), WORKLOADS.len());
    }
}
