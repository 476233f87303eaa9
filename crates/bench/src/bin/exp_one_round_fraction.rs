//! Experiment **E2** (Theorem 3.3 / Proposition 3.11): when a query is
//! forced to run in one round *below* its space exponent, only a
//! `Θ(1/p^{τ*(1−ε)−1})` fraction of the answers can be reported. The
//! partial HyperCube achieves exactly that fraction; this experiment
//! sweeps `p` for `L_3` and `C_3` at ε = 0 and compares the measured
//! fraction with the prediction. The shape to reproduce: the fraction
//! decays polynomially in `p` (1/p for both queries, since τ* = 2 resp.
//! the exponent τ*(1−ε)−1 = 1/2 for C3).
//!
//! CLI flags: `--scale <f64>` shrinks/grows the input; `--json <path>`
//! (or `MPC_BENCH_JSON=<dir>`) writes the rows as JSON.
//!
//! Output shape: one markdown table; rows = (query, `p`), columns = τ*,
//! the predicted `1/p^{τ*(1−ε)−1}` fraction and the measured one.
//!
//! ```text
//! cargo run --release -p mpc-bench --bin exp_one_round_fraction
//! ```

use serde::Serialize;

use mpc_bench::{maybe_write_json, scaled, TextTable};
use mpc_core::hypercube::PartialHyperCubeProgram;
use mpc_cq::families;
use mpc_data::matching_database;
use mpc_lp::cover::tau_star;
use mpc_lp::Rational;
use mpc_sim::{Cluster, MpcConfig};
use mpc_storage::join::evaluate;

#[derive(Serialize)]
struct Row {
    query: String,
    p: usize,
    tau_star: String,
    predicted_fraction: f64,
    measured_fraction: f64,
    total_answers: usize,
    reported_answers: usize,
}

fn main() {
    let n = scaled(8000, 500);
    let eps = Rational::ZERO;
    let mut table = TextTable::new([
        "query",
        "p",
        "τ*",
        "predicted fraction 1/p^(τ*(1-ε)-1)",
        "measured fraction",
        "answers reported / total",
    ]);
    let mut rows = Vec::new();

    for q in [families::chain(3), families::cycle(3)] {
        let db = matching_database(&q, n, 21);
        let truth = evaluate(&q, &db).expect("sequential evaluation succeeds");
        let tau = tau_star(&q).expect("LP solvable");
        for p in [4usize, 16, 64, 256] {
            let program = PartialHyperCubeProgram::new(&q, p, eps, 9).expect("partial HC plans");
            let cluster = Cluster::new(MpcConfig::new(p, eps.to_f64())).expect("valid config");
            let result = cluster.run(&program, &db).expect("partial HC run succeeds");
            let reported = result.output.len();
            let total = truth.len().max(1);
            let exponent = tau.to_f64() * (1.0 - eps.to_f64()) - 1.0;
            let predicted = 1.0 / (p as f64).powf(exponent);
            let row = Row {
                query: q.name().to_string(),
                p,
                tau_star: tau.to_string(),
                predicted_fraction: predicted,
                measured_fraction: reported as f64 / total as f64,
                total_answers: truth.len(),
                reported_answers: reported,
            };
            table.row([
                row.query.clone(),
                p.to_string(),
                row.tau_star.clone(),
                format!("{:.4}", row.predicted_fraction),
                format!("{:.4}", row.measured_fraction),
                format!("{} / {}", row.reported_answers, row.total_answers),
            ]);
            rows.push(row);
        }
    }
    table.print(&format!(
        "E2 — fraction of answers reportable in one round below the space exponent (n = {n}, ε = 0)"
    ));
    println!(
        "\nExpected shape (Thm 3.3): the measured fraction tracks 1/p^(τ*−1) — about 1/p for L3 \
         and 1/√p for C3 — so more parallelism strictly reduces what one round can produce. \
         (C3 has only ~1 expected answer over matchings, so its measured column is noisy.)"
    );
    maybe_write_json("exp_one_round_fraction", &rows);
}
