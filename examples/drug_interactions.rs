//! The paper's motivating example (Section 1, after Ullman): find all
//! pairwise drug interactions by applying a user-defined function to every
//! pair of drugs. As a query this is the cartesian product
//! `q(x, y) = Drugs1(x), Drugs2(y)`, and the replication/space tradeoff is
//! exactly the one the introduction describes: `g` groups per side cost a
//! replication of `g` with reducers of size `2n/g`. With `p` known, the
//! optimal choice is the `√p × √p` grid — which is precisely what the
//! HyperCube share allocation computes from the fractional vertex cover
//! `(1/2, 1/2)`.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example drug_interactions
//! ```

use mpc_query::core::baseline::BroadcastProgram;
use mpc_query::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two "drug catalogues" of n entries each. A tuple is just the drug id;
    // the UDF (interaction check) runs wherever a pair is co-located.
    let n: u64 = 2_000;
    let q = Query::new("Interactions", vec![("Drugs1", vec!["x"]), ("Drugs2", vec!["y"])])?;

    let mut db = Database::new(n);
    db.insert_relation(Relation::from_tuples(
        "Drugs1",
        1,
        (1..=n).map(|i| [i]).collect::<Vec<_>>(),
    )?);
    db.insert_relation(Relation::from_tuples(
        "Drugs2",
        1,
        (1..=n).map(|i| [i]).collect::<Vec<_>>(),
    )?);

    let analysis = QueryAnalysis::analyze(&q)?;
    println!("query            : {}", analysis.query_text);
    println!("τ*               : {} (each side needs weight 1/τ*)", analysis.tau_star);
    println!("space exponent   : {} → replication √p", analysis.space_exponent);

    println!(
        "\n{:>6} {:>12} {:>16} {:>16} {:>12}",
        "p", "shares", "HC max bytes", "broadcast bytes", "pairs found"
    );
    for p in [4usize, 16, 64, 256] {
        let cluster = Cluster::new(MpcConfig::new(p, analysis.space_exponent.to_f64()))?;
        let program = HyperCubeProgram::new(&q, p, 0x5EED)?;
        let hc = cluster.run(&program, &db)?;
        let broadcast = cluster.run(&BroadcastProgram::new(q.clone()), &db)?;
        println!(
            "{:>6} {:>12} {:>16} {:>16} {:>12}",
            p,
            format!("{:?}", program.allocation().shares),
            hc.max_load_bytes(),
            broadcast.max_load_bytes(),
            hc.output.len(),
        );
        assert_eq!(hc.output.len() as u64, n * n);
    }

    println!(
        "\nThe HyperCube grid replicates each side only √p times, so the busiest \
         server receives Θ(n/√p) values instead of the full 2n."
    );
    Ok(())
}
