//! Experiment **E10** (journal version, arXiv:1602.06236): the
//! **output-sensitive load bounds**. The 2017 journal version of the paper
//! refines the input-size-only bounds of PODS 2013 with the output
//! cardinality `m`: any correct one-round run must receive at least
//! `(m/p)^{1/ρ*}` tuples on some server (the AGM emission bound, an
//! instance-level theorem), while HyperCube stays within its
//! rounding-aware upper bound `Σⱼ n·replⱼ/cells`. This experiment sweeps
//! `m` on planted databases whose output cardinality is exact by
//! construction and **exits non-zero** if any simulated load ever beats
//! the proven lower bound or exceeds the upper bound by more than the
//! rounding slack — which is how CI uses it.
//!
//! A second table runs the journal's refined multi-round analysis:
//! per-round load predictions of `MultiRoundPlan::predict_loads` against
//! the simulated per-round maxima on matching chains, gated to agree
//! within the same slack.
//!
//! CLI flags: `--scale <f64>` shrinks/grows the inputs (CI uses 0.1),
//! `--slack <f64>` sets the hash-imbalance slack factor (default 2.0),
//! `--json <path>` (or `MPC_BENCH_JSON=<dir>`) writes the rows as JSON.
//!
//! Output shape: two markdown tables; rows of the first = (query, m) sweep
//! points with bounds and the simulated load, rows of the second =
//! (chain, round) with predicted vs simulated tuples.
//!
//! ```text
//! cargo run --release -p mpc-bench --bin exp_output_sensitive
//! ```

use serde::Serialize;

use mpc_bench::{maybe_write_json, scaled, TextTable};
use mpc_core::analysis::QueryAnalysis;
use mpc_core::hypercube::HyperCubeProgram;
use mpc_core::multiround::executor::PlanProgram;
use mpc_core::multiround::planner::MultiRoundPlan;
use mpc_core::shares::ShareAllocation;
use mpc_cq::families;
use mpc_data::matching_database;
use mpc_data::output_controlled_database;
use mpc_lp::Rational;
use mpc_sim::{Cluster, MpcConfig};

#[derive(Serialize)]
struct SweepRow {
    query: String,
    p: usize,
    n: u64,
    m: u64,
    lower_tuples: f64,
    matching_lower_tuples: f64,
    rounded_upper_tuples: f64,
    simulated_max_tuples: u64,
    max_emitted_per_server: usize,
    output_exact: bool,
    in_bracket: bool,
}

#[derive(Serialize)]
struct RoundRow {
    query: String,
    round: usize,
    predicted_tuples: f64,
    simulated_max_tuples: u64,
    ratio: f64,
    ok: bool,
}

fn main() {
    let n = scaled(4000, 240);
    let slack = mpc_bench::arg_f64("--slack", 2.0, |v| v >= 1.0);
    let mut failures: Vec<String> = Vec::new();

    // ---- One-round sweep: output-sensitive bounds vs simulated loads ----
    let cases = [
        (families::triangle(), 27usize),
        (families::cycle(4), 16),
        (families::chain(3), 16),
        (families::star(3), 16),
    ];
    let mut table = TextTable::new([
        "query",
        "p",
        "m",
        "lower (m/p)^(1/ρ*)",
        "matching lower",
        "upper Σ n·repl/cells",
        "simulated max tuples",
        "max emitted/server",
        "verdict",
    ]);
    let mut sweep_rows = Vec::new();
    for (q, p) in cases {
        let analysis = QueryAnalysis::analyze(&q).expect("LP solvable");
        let cluster = Cluster::new(MpcConfig::new(p, analysis.space_exponent.to_f64()))
            .expect("cluster config valid");
        let program = HyperCubeProgram::new(&q, p, 0x5EED).expect("HyperCube plans");
        let m_sweep: Vec<u64> = {
            let mut ms: Vec<u64> =
                [0.0, 0.01, 0.1, 0.5, 1.0].iter().map(|f| (n as f64 * f) as u64).collect();
            ms.dedup();
            ms
        };
        for (i, &m) in m_sweep.iter().enumerate() {
            let planted = output_controlled_database(&q, n, m, 42 + i as u64);
            let bounds = analysis.output_bounds(n, m, p).expect("bounds computable");
            let run = cluster.run(&program, &planted.db).expect("HyperCube run succeeds");
            let verdict = bounds
                .bracket(&q, program.allocation(), run.max_load_tuples(), slack)
                .expect("bracket computable");
            let max_emitted = run.per_server_output.iter().copied().max().unwrap_or(0);
            let output_exact = run.output.len() as u64 == planted.output_size;

            if !output_exact {
                failures.push(format!(
                    "{} m={m}: simulated output {} ≠ planted cardinality {}",
                    q.name(),
                    run.output.len(),
                    planted.output_size
                ));
            }
            if !verdict.lower_ok {
                failures.push(format!(
                    "{} m={m}: simulated load {} beats the proven lower bound {:.2}",
                    q.name(),
                    verdict.simulated_max_tuples,
                    verdict.lower_tuples
                ));
            }
            if !verdict.upper_ok {
                failures.push(format!(
                    "{} m={m}: simulated load {} exceeds upper {:.2} × slack {slack}",
                    q.name(),
                    verdict.simulated_max_tuples,
                    verdict.rounded_upper_tuples
                ));
            }
            if (max_emitted as f64) + 1e-9 < bounds.output_lower_per_server {
                failures.push(format!(
                    "{} m={m}: max emitted/server {max_emitted} below m/p = {:.2}",
                    q.name(),
                    bounds.output_lower_per_server
                ));
            }

            let row = SweepRow {
                query: q.name().to_string(),
                p,
                n,
                m,
                lower_tuples: bounds.lower_tuples,
                matching_lower_tuples: bounds.matching_lower_tuples,
                rounded_upper_tuples: verdict.rounded_upper_tuples,
                simulated_max_tuples: verdict.simulated_max_tuples,
                max_emitted_per_server: max_emitted,
                output_exact,
                in_bracket: verdict.ok(),
            };
            table.row([
                row.query.clone(),
                p.to_string(),
                m.to_string(),
                format!("{:.1}", row.lower_tuples),
                format!("{:.1}", row.matching_lower_tuples),
                format!("{:.1}", row.rounded_upper_tuples),
                row.simulated_max_tuples.to_string(),
                row.max_emitted_per_server.to_string(),
                if row.in_bracket && row.output_exact {
                    "ok".to_string()
                } else {
                    "FAIL".to_string()
                },
            ]);
            sweep_rows.push(row);
        }
    }
    table.print(&format!(
        "E10 — output-sensitive bounds, planted databases (n = {n}, slack = {slack})"
    ));
    println!(
        "\nExpected shape (journal Thm 4.x): the emission lower bound grows like m^(1/ρ*) and \
         meets the matching-expectation bound n^(1-e/τ*)·(m/p)^(1/τ*) at full output; the \
         simulated HyperCube load is flat in m and sits inside [lower, upper·slack] everywhere."
    );

    // ---- Multi-round: predicted vs simulated per-round loads ------------
    let mut round_table = TextTable::new([
        "query",
        "round",
        "predicted tuples/server",
        "simulated max tuples",
        "ratio",
        "verdict",
    ]);
    let mut round_rows = Vec::new();
    for k in [4usize, 8] {
        let q = families::chain(k);
        let p = 8usize;
        let db = matching_database(&q, n, 7 + k as u64);
        let plan = MultiRoundPlan::build(&q, Rational::ZERO).expect("plan builds");
        let profile = plan.predict_loads(p, n).expect("profile computable");
        let program = PlanProgram::new(&plan, p, 3).expect("plan compiles");
        let cluster = Cluster::new(MpcConfig::new(p, 0.0)).expect("cluster config valid");
        let run = cluster.run(&program, &db).expect("plan runs");
        let truth = mpc_storage::join::evaluate(&q, &db).expect("sequential join");
        if !run.output.same_tuples(&truth) {
            failures.push(format!("L{k}: multi-round output diverges from sequential join"));
        }
        for cmp in profile.compare(&run).expect("round counts match") {
            let ok = cmp.ratio <= slack && cmp.ratio >= 1.0 / slack;
            if !ok {
                failures.push(format!(
                    "L{k} round {}: simulated {} vs predicted {:.1} (ratio {:.2}) outside slack",
                    cmp.round, cmp.simulated_max_tuples, cmp.predicted_tuples, cmp.ratio
                ));
            }
            round_table.row([
                format!("L{k}"),
                cmp.round.to_string(),
                format!("{:.1}", cmp.predicted_tuples),
                cmp.simulated_max_tuples.to_string(),
                format!("{:.2}", cmp.ratio),
                if ok { "ok".to_string() } else { "FAIL".to_string() },
            ]);
            round_rows.push(RoundRow {
                query: format!("L{k}"),
                round: cmp.round,
                predicted_tuples: cmp.predicted_tuples,
                simulated_max_tuples: cmp.simulated_max_tuples,
                ratio: cmp.ratio,
                ok,
            });
        }
        // Sanity: the share-allocation layer agrees the plan is feasible.
        let _ = ShareAllocation::optimal(&q, p).expect("allocation solvable");
    }
    round_table.print(&format!(
        "E10b — refined multi-round analysis: predicted vs simulated per-round loads \
         (matching databases, n = {n}, p = 8)"
    ));

    #[derive(Serialize)]
    struct Artefact {
        sweep: Vec<SweepRow>,
        rounds: Vec<RoundRow>,
    }
    maybe_write_json("exp_output_sensitive", &Artefact { sweep: sweep_rows, rounds: round_rows });

    if !failures.is_empty() {
        eprintln!("\nBOUND VIOLATIONS ({}):", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    println!("\nAll sweep points sit inside the proven bracket; multi-round predictions agree.");
}
