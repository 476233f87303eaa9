//! Quickstart: analyse the triangle query `C3`, shuffle it with the
//! HyperCube algorithm on a simulated MPC cluster, and compare the
//! communication cost against the naive baselines.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mpc_query::core::baseline::BroadcastProgram;
use mpc_query::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // 1. The query and its structural analysis.
    // ------------------------------------------------------------------
    let q = families::triangle(); // C3(x1,x2,x3) = S1(x1,x2), S2(x2,x3), S3(x3,x1)
    let analysis = QueryAnalysis::analyze(&q)?;
    println!("query          : {}", analysis.query_text);
    println!("τ* (covering)  : {}", analysis.tau_star);
    println!("space exponent : {}  (ε* = 1 − 1/τ*)", analysis.space_exponent);
    println!(
        "share exponents: {:?}",
        analysis.share_exponents.iter().map(Rational::to_string).collect::<Vec<_>>()
    );

    // ------------------------------------------------------------------
    // 2. A random matching database (the paper's skew-free inputs).
    // ------------------------------------------------------------------
    let n = 20_000;
    let p = 64;
    let db = matching_database(&q, n, 42);
    println!("\ninput          : 3 binary matchings with n = {n} tuples each");

    // ------------------------------------------------------------------
    // 3. HyperCube at the space exponent: one round, load O(n / p^{1/τ*}).
    // ------------------------------------------------------------------
    let cfg = MpcConfig::new(p, analysis.space_exponent.to_f64());
    let cluster = Cluster::new(cfg.clone())?;
    let program = HyperCubeProgram::new(&q, p, 0x5EED)?;
    let hc = cluster.run(&program, &db)?;
    let truth = mpc_query::storage::join::evaluate(&q, &db)?;
    assert!(hc.output.same_tuples(&truth));
    println!("\nHyperCube on p = {p} servers (ε = {}):", analysis.space_exponent);
    println!("  shares             : {:?}", program.allocation().shares);
    println!("  answers found      : {} (ground truth {})", hc.output.len(), truth.len());
    println!("  rounds             : {}", hc.num_rounds());
    println!("  max bytes/server   : {}", hc.max_load_bytes());
    println!("  per-round budget   : {}", hc.rounds[0].budget_bytes);
    println!(
        "  replication rate   : {:.2} (≈ p^ε = {:.2})",
        hc.rounds[0].replication_rate,
        cfg.allowed_replication()
    );
    println!("  within budget      : {}", hc.within_budget());

    // ------------------------------------------------------------------
    // 4. The broadcast baseline: correct, but p-fold replication.
    // ------------------------------------------------------------------
    let broadcast = cluster.run(&BroadcastProgram::new(q.clone()), &db)?;
    println!("\nBroadcast baseline:");
    println!("  max bytes/server   : {}", broadcast.max_load_bytes());
    println!("  replication rate   : {:.2}", broadcast.rounds[0].replication_rate);
    println!("  within budget      : {}", broadcast.within_budget());
    println!(
        "\nHyperCube moves {:.1}x less data to the busiest server than broadcast.",
        broadcast.max_load_bytes() as f64 / hc.max_load_bytes() as f64
    );
    Ok(())
}
