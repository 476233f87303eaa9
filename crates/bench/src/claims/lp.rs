//! **Table 1** and **Figure 1 / Example 2.2**: the LP side of the paper.
//!
//! Table 1 lists, for the running families `C_k`, `T_k`, `L_k` and
//! `B_{k,m}`, the expected answer size over matching databases (measured
//! on random matchings), an optimal fractional vertex cover, the
//! HyperCube share exponents, `τ*` and the space exponent; Figure 1 solves
//! the vertex-cover LP and its dual edge-packing LP for the worked
//! examples. Both sweep larger family instances (≥ 3× the original sizes)
//! with LP-only rows and report which solver path answered each row
//! (`closed-form` / `simplex`). Their check: on every row the dense
//! oracle, the sparse revised simplex and the closed form (when the family
//! is recognised) agree exactly.

use mpc_core::analysis::QueryAnalysis;
use mpc_cq::{families, Query};
use mpc_data::matching_database;
use mpc_lp::{QueryLps, Rational};
use mpc_storage::join::evaluate;

use crate::{Outcome, Scale};

/// Cross-check every LP solver path on `q`: the dense tableau oracle, the
/// sparse revised simplex, and (when the family is recognised) the
/// closed form must agree **exactly** — rational equality of `τ*` and of
/// the edge-cover optimum, plus feasibility of every returned solution.
/// Returns a description of the first disagreement.
fn verify_lp_solver_agreement(q: &Query) -> Result<(), String> {
    let dense = QueryLps::solve_dense(q).map_err(|e| format!("dense oracle failed: {e}"))?;
    let sparse = QueryLps::solve_sparse(q).map_err(|e| format!("sparse solver failed: {e}"))?;
    if dense.covering_number() != sparse.covering_number() {
        return Err(format!(
            "τ* disagreement on {}: dense {} vs sparse {}",
            q.name(),
            dense.covering_number(),
            sparse.covering_number()
        ));
    }
    if dense.edge_cover().total() != sparse.edge_cover().total() {
        return Err(format!(
            "edge-cover disagreement on {}: dense {} vs sparse {}",
            q.name(),
            dense.edge_cover().total(),
            sparse.edge_cover().total()
        ));
    }
    for (label, lps) in [("dense", &dense), ("sparse", &sparse)] {
        if !lps.vertex_cover().is_valid_for(q)
            || !lps.edge_packing().is_valid_for(q)
            || !lps.edge_cover().is_valid_for(q)
            || lps.vertex_cover().total() != lps.edge_packing().total()
        {
            return Err(format!("{label} solution of {} fails validation", q.name()));
        }
    }
    if let Some((family, closed)) = mpc_lp::families::closed_form(q) {
        if closed.covering_number() != dense.covering_number()
            || closed.edge_cover().total() != dense.edge_cover().total()
        {
            return Err(format!(
                "closed form {family} disagrees on {}: τ* {} vs {}",
                q.name(),
                closed.covering_number(),
                dense.covering_number()
            ));
        }
    }
    Ok(())
}

/// Compress long weight vectors for text tables (uniform vectors collapse
/// to `(w ×n)`, very long ones are truncated); JSON artefacts keep the
/// full vectors.
fn fmt_weights(weights: &[String]) -> String {
    if weights.len() > 8 && weights.iter().all(|w| w == &weights[0]) {
        return format!("({} ×{})", weights[0], weights.len());
    }
    if weights.len() > 16 {
        return format!("({}, … {} total)", weights[..6].join(", "), weights.len());
    }
    format!("({})", weights.join(", "))
}

fn strings(weights: &[Rational]) -> Vec<String> {
    weights.iter().map(Rational::to_string).collect()
}

row! {
    struct Table1Row {
        query: String = "query",
        expected_answer_size: String = "E[|q|] (Lemma 3.4)",
        measured_answer_size: Option<f64> = "measured |q| (avg)"
            => |r| r.measured_answer_size.map_or_else(|| "–".to_string(), |m| format!("{m:.1}")),
        vertex_cover: Vec<String> = "min vertex cover" => |r| fmt_weights(&r.vertex_cover),
        share_exponents: Vec<String> = "share exponents" => |r| fmt_weights(&r.share_exponents),
        tau_star: String = "τ*",
        space_exponent: String = "space exponent",
        solver_path: String = "solver path",
    }
}

/// T1: Table 1, with the answer sizes of the first ten rows measured over
/// three random matching databases of `n` tuples per relation.
pub(super) fn table1(scale: Scale) -> Outcome {
    let n = scale.pick(4000, 200);
    let k = scale.pick(18, 8);
    let seeds = [11u64, 22, 33];
    let measured_queries = vec![
        families::cycle(3),
        families::cycle(4),
        families::cycle(6),
        families::star(3),
        families::star(5),
        families::chain(3),
        families::chain(4),
        families::chain(5),
        families::binomial(3, 2).expect("valid parameters"),
        families::binomial(4, 2).expect("valid parameters"),
    ];
    let sweep_queries = [
        families::cycle(k),
        families::chain(k),
        families::star(k),
        families::binomial(k.min(12), 2).expect("valid parameters"),
        families::spoke((k / 2).max(3)),
    ];
    let (mut rows, mut failures) = (Vec::new(), Vec::new());
    for (q, measure) in
        measured_queries.iter().map(|q| (q, true)).chain(sweep_queries.iter().map(|q| (q, false)))
    {
        failures.extend(verify_lp_solver_agreement(q).err());
        let a = QueryAnalysis::analyze(q).expect("analysis succeeds for the running examples");
        let measured = measure.then(|| {
            let total: usize = seeds
                .iter()
                .map(|&seed| evaluate(q, &matching_database(q, n, seed)).expect("evaluates").len())
                .sum();
            total as f64 / seeds.len() as f64
        });
        rows.push(Table1Row {
            query: q.name().to_string(),
            expected_answer_size: match a.expected_answer_exponent {
                0 => "1".to_string(),
                1 => "n".to_string(),
                e => format!("n^{e}"),
            },
            measured_answer_size: measured,
            vertex_cover: strings(&a.vertex_cover),
            share_exponents: strings(&a.share_exponents),
            tau_star: a.tau_star.to_string(),
            space_exponent: a.space_exponent.to_string(),
            solver_path: a.lp_solver_path,
        });
    }
    Outcome::new(
        &format!("Table 1 (paper §2.3/§3.3) — n = {n}, {} seeds, sweep to k = {k}", seeds.len()),
        &rows,
        "Paper reference values: Ck → (1/2,…), τ* = k/2, ε = 1−2/k, E = 1; \
         Tk → τ* = 1, ε = 0, E = n; Lk → τ* = ⌈k/2⌉, ε = 1−1/⌈k/2⌉, E = n; \
         B(k,m) → τ* = k/m, ε = 1−m/k. Sweep rows are LP-only (no join \
         measurement); every row's three solver paths were verified to agree \
         exactly.",
        failures,
    )
}

row! {
    struct Figure1Row {
        #[serde(skip)]
        text: String = "query",
        query: String,
        vertex_cover: Vec<String> = "optimal vertex cover v" => |r| fmt_weights(&r.vertex_cover),
        cover_value: String = "Σv",
        edge_packing: Vec<String> = "optimal edge packing u" => |r| fmt_weights(&r.edge_packing),
        packing_value: String = "Σu",
        duality_holds: bool = "duality Σv = Σu",
        packing_tight: bool = "packing tight",
        solver_path: String = "solver path",
    }
}

/// F1: Figure 1 / Example 2.2, the cover and packing LPs solved exactly.
pub(super) fn figure1_lps(scale: Scale) -> Outcome {
    let k = scale.pick(15, 6);
    let queries = [
        families::chain(3),
        families::cycle(3),
        families::cycle(5),
        families::star(3),
        families::binomial(4, 2).expect("valid parameters"),
        families::spoke(3),
        families::witness_query(),
        families::cycle(k),
        families::chain(3 * k / 5),
        families::star(3 * k / 5),
        families::binomial((4 * k / 5).min(12), 2).expect("valid parameters"),
        families::spoke(3 * k / 5),
    ];
    let (mut rows, mut failures) = (Vec::new(), Vec::new());
    for q in &queries {
        failures.extend(verify_lp_solver_agreement(q).err());
        let (lps, path) =
            QueryLps::solve_traced(q).expect("the cover/packing LPs are always feasible");
        rows.push(Figure1Row {
            text: if q.num_vars() > 8 { q.name().to_string() } else { q.to_string() },
            query: q.name().to_string(),
            vertex_cover: strings(lps.vertex_cover().weights()),
            cover_value: lps.vertex_cover().total().to_string(),
            edge_packing: strings(lps.edge_packing().weights()),
            packing_value: lps.edge_packing().total().to_string(),
            duality_holds: lps.vertex_cover().total() == lps.edge_packing().total(),
            packing_tight: lps.edge_packing().is_tight_for(q),
            solver_path: path.to_string(),
        });
    }
    Outcome::new(
        &format!(
            "Figure 1 / Example 2.2 — vertex-cover and edge-packing LPs, solved exactly \
             (sweep to k = {k})"
        ),
        &rows,
        "Paper reference (Example 2.2): L3 has optimal cover (0,1,1,0) with value 2 and \
         optimal packing (1,0,1), which is tight; C3 has the all-1/2 cover with τ* = 3/2. \
         All three solver paths (dense, sparse, closed form) were verified to agree exactly \
         on every row.",
        failures,
    )
}
