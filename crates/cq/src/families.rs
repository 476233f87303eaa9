//! The paper's running query families (Table 1 and Section 4.1).
//!
//! | Family | Definition | τ*(q) | space exponent ε* |
//! |--------|------------|-------|-------------------|
//! | `cycle(k)` = `C_k` | `⋀_{j=1}^{k} S_j(x_j, x_{(j mod k)+1})` | `k/2` | `1 − 2/k` |
//! | `star(k)` = `T_k` | `⋀_{j=1}^{k} S_j(z, x_j)` | `1` | `0` |
//! | `chain(k)` = `L_k` | `⋀_{j=1}^{k} S_j(x_{j−1}, x_j)` | `⌈k/2⌉` | `1 − 1/⌈k/2⌉` |
//! | `binomial(k,m)` = `B_{k,m}` | <code>⋀_{I ⊆ \[k\], \|I\|=m} S_I(x̄_I)</code> | `k/m` | `1 − m/k` |
//! | `spoke(k)` = `SP_k` | `⋀_{i=1}^{k} R_i(z,x_i), S_i(x_i,y_i)` | `k` | `1 − 1/k` |
//!
//! plus [`witness_query`], the query of Proposition 3.12 used for the
//! JOIN-WITNESS lower bound.

use std::collections::BTreeSet;

use crate::error::CqError;
use crate::query::{AtomId, Query, VarId};
use crate::Result;

/// The chain (path) query `L_k(x0,…,xk) = S1(x0,x1), …, Sk(x_{k−1},x_k)`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn chain(k: usize) -> Query {
    assert!(k >= 1, "chain length must be at least 1");
    let atoms = (1..=k)
        .map(|j| (format!("S{j}"), vec![format!("x{}", j - 1), format!("x{j}")]))
        .collect::<Vec<_>>();
    Query::new(format!("L{k}"), atoms).expect("chain construction is valid")
}

/// The cycle query `C_k(x1,…,xk) = S1(x1,x2), S2(x2,x3), …, Sk(xk,x1)`.
///
/// # Panics
///
/// Panics if `k < 2` (a cycle needs at least two edges).
pub fn cycle(k: usize) -> Query {
    assert!(k >= 2, "cycle length must be at least 2");
    let atoms = (1..=k)
        .map(|j| {
            let next = (j % k) + 1;
            (format!("S{j}"), vec![format!("x{j}"), format!("x{next}")])
        })
        .collect::<Vec<_>>();
    Query::new(format!("C{k}"), atoms).expect("cycle construction is valid")
}

/// The star query `T_k(z,x1,…,xk) = S1(z,x1), …, Sk(z,xk)`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn star(k: usize) -> Query {
    assert!(k >= 1, "star must have at least one ray");
    let atoms = (1..=k)
        .map(|j| (format!("S{j}"), vec!["z".to_string(), format!("x{j}")]))
        .collect::<Vec<_>>();
    Query::new(format!("T{k}"), atoms).expect("star construction is valid")
}

/// The query `B_{k,m}` with one `m`-ary relation `S_I(x̄_I)` for every
/// subset `I ⊆ [k]` of size `m` (Table 1).
///
/// # Errors
///
/// Returns [`CqError::InvalidFamilyParameter`] unless `1 ≤ m ≤ k` and the
/// number of atoms `C(k,m)` is at most 10 000.
pub fn binomial(k: usize, m: usize) -> Result<Query> {
    if m == 0 || m > k {
        return Err(CqError::InvalidFamilyParameter(format!(
            "binomial(k={k}, m={m}) requires 1 <= m <= k"
        )));
    }
    let subsets = subsets_of_size(k, m);
    if subsets.len() > 10_000 {
        return Err(CqError::InvalidFamilyParameter(format!(
            "binomial(k={k}, m={m}) would create {} atoms",
            subsets.len()
        )));
    }
    let atoms = subsets
        .into_iter()
        .map(|subset| {
            let name =
                format!("S_{}", subset.iter().map(|i| i.to_string()).collect::<Vec<_>>().join("_"));
            let vars = subset.iter().map(|i| format!("x{i}")).collect::<Vec<_>>();
            (name, vars)
        })
        .collect::<Vec<_>>();
    Query::new(format!("B{k}_{m}"), atoms)
}

/// The clique query `K_k(x1,…,xk)` with one binary atom `S_i_j(x_i,x_j)`
/// per edge `i < j` — [`binomial`]`(k, 2)` under its graph-theoretic name.
/// Cliques have `τ* = ρ* = k/2`, so the one-round HyperCube and AGM load
/// targets coincide on skew-free data and the worst-case optimal strategy
/// wins exactly when the input is skewed.
///
/// # Errors
///
/// Returns [`CqError::InvalidFamilyParameter`] when `k < 2` (a clique
/// needs at least one edge).
pub fn clique(k: usize) -> Result<Query> {
    if k < 2 {
        return Err(CqError::InvalidFamilyParameter(format!("clique(k={k}) requires k >= 2")));
    }
    let edges = binomial(k, 2)?;
    let atoms = edges
        .atoms()
        .iter()
        .map(|atom| {
            let vars = atom.vars.iter().map(|v| edges.var_names()[v.0].clone()).collect();
            (atom.name.clone(), vars)
        })
        .collect::<Vec<(String, Vec<String>)>>();
    Query::new(format!("K{k}"), atoms)
}

/// The "spoke" query `SP_k(z, x1, y1, …, xk, yk) = ⋀_i R_i(z,x_i), S_i(x_i,y_i)`
/// from Example 4.2: one round needs replication `p^{1−1/k}`, but a 2-round
/// plan needs none.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn spoke(k: usize) -> Query {
    assert!(k >= 1, "spoke must have at least one arm");
    let mut atoms = Vec::with_capacity(2 * k);
    for i in 1..=k {
        atoms.push((format!("R{i}"), vec!["z".to_string(), format!("x{i}")]));
        atoms.push((format!("S{i}"), vec![format!("x{i}"), format!("y{i}")]));
    }
    Query::new(format!("SP{k}"), atoms).expect("spoke construction is valid")
}

/// The JOIN-WITNESS query of Proposition 3.12:
/// `q(w,x,y,z) = R(w), S1(w,x), S2(x,y), S3(y,z), T(z)`.
pub fn witness_query() -> Query {
    Query::new(
        "W",
        vec![
            ("R", vec!["w"]),
            ("S1", vec!["w", "x"]),
            ("S2", vec!["x", "y"]),
            ("S3", vec!["y", "z"]),
            ("T", vec!["z"]),
        ],
    )
    .expect("witness query construction is valid")
}

/// The triangle query `C_3` (space exponent 1/3), the canonical HyperCube
/// example (Example 3.1).
pub fn triangle() -> Query {
    cycle(3)
}

/// The outcome of [`recognize`]: the query is one of the paper's running
/// families, *up to variable and atom renaming*, together with the role
/// data a closed-form LP solution needs (path orders, centres, arms).
///
/// Recognition is purely structural over the hypergraph of *distinct*
/// variable sets, which is exactly the structure the cover/packing LPs
/// depend on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecognizedFamily {
    /// A path `L_k`: `var_order` walks the path (`k+1` variables),
    /// `atom_order[j]` is the atom joining `var_order[j]` and
    /// `var_order[j+1]`.
    Chain {
        /// Path length (number of atoms).
        k: usize,
        /// The variables in path order.
        var_order: Vec<VarId>,
        /// The atoms in path order.
        atom_order: Vec<AtomId>,
    },
    /// A cycle `C_k` (`k ≥ 2`; `C_2` is the doubled edge). All optimal LP
    /// solutions used downstream are uniform, so no role data is needed.
    Cycle {
        /// Cycle length (number of atoms = number of variables).
        k: usize,
    },
    /// A star `T_k`: `center` occurs in every atom, every other variable in
    /// exactly one.
    Star {
        /// Number of rays.
        k: usize,
        /// The centre variable.
        center: VarId,
    },
    /// The complete `m`-uniform hypergraph `B_{k,m}`: every `m`-subset of
    /// the `k` variables occurs as exactly one atom. Uniform LP solutions,
    /// so no role data is needed.
    Binomial {
        /// Number of variables.
        k: usize,
        /// Atom arity (subset size).
        m: usize,
    },
    /// The spoke query `SP_k`: a centre `z` with `k` arms
    /// `R_i(z, x_i), S_i(x_i, y_i)`. For each arm `i`, `arms[i]` is
    /// `(R_i, S_i, x_i, y_i)`.
    Spoke {
        /// Number of arms.
        k: usize,
        /// The hub variable `z`.
        center: VarId,
        /// Per-arm `(R_i, S_i, x_i, y_i)`.
        arms: Vec<(AtomId, AtomId, VarId, VarId)>,
    },
}

impl RecognizedFamily {
    /// A display name in the paper's notation, e.g. `C5`, `L3`, `B4_2`.
    pub fn display_name(&self) -> String {
        match self {
            RecognizedFamily::Chain { k, .. } => format!("L{k}"),
            RecognizedFamily::Cycle { k } => format!("C{k}"),
            RecognizedFamily::Star { k, .. } => format!("T{k}"),
            RecognizedFamily::Binomial { k, m } => format!("B{k}_{m}"),
            RecognizedFamily::Spoke { k, .. } => format!("SP{k}"),
        }
    }
}

/// Classify `q` as one of the running families up to renaming, returning
/// the role data closed-form LP solutions need, or `None` when the query
/// matches no family.
///
/// The checks are exact (no heuristics): a `Some` answer certifies the
/// family structure. Precedence on overlaps is chain/star before spoke
/// (`SP_1 ≅ L_2`, `SP_2 ≅ L_4`) and cycle before binomial (`C_3 = B_{3,2}`);
/// either classification would yield an optimal closed form.
pub fn recognize(q: &Query) -> Option<RecognizedFamily> {
    let edges: Vec<BTreeSet<VarId>> = q.atoms().iter().map(|a| a.distinct_vars()).collect();
    let mut degree = vec![0usize; q.num_vars()];
    for e in &edges {
        for v in e {
            degree[v.0] += 1;
        }
    }
    try_star(q, &edges, &degree)
        .or_else(|| try_chain(q, &edges, &degree))
        .or_else(|| try_cycle(q, &edges, &degree))
        .or_else(|| try_spoke(q, &edges, &degree))
        .or_else(|| try_binomial(q, &edges, &degree))
}

fn all_binary(edges: &[BTreeSet<VarId>]) -> bool {
    edges.iter().all(|e| e.len() == 2)
}

fn try_star(q: &Query, edges: &[BTreeSet<VarId>], degree: &[usize]) -> Option<RecognizedFamily> {
    let l = edges.len();
    if !all_binary(edges) || q.num_vars() != l + 1 {
        return None;
    }
    let center = VarId(degree.iter().position(|&d| d == l)?);
    let leaves_ok = degree.iter().enumerate().all(|(v, &d)| VarId(v) == center || d == 1);
    let center_everywhere = edges.iter().all(|e| e.contains(&center));
    if leaves_ok && center_everywhere {
        Some(RecognizedFamily::Star { k: l, center })
    } else {
        None
    }
}

fn try_chain(q: &Query, edges: &[BTreeSet<VarId>], degree: &[usize]) -> Option<RecognizedFamily> {
    let l = edges.len();
    if !all_binary(edges) || q.num_vars() != l + 1 {
        return None;
    }
    let endpoints: Vec<VarId> =
        degree.iter().enumerate().filter(|(_, &d)| d == 1).map(|(v, _)| VarId(v)).collect();
    if endpoints.len() != 2 || degree.iter().any(|&d| d == 0 || d > 2) {
        return None;
    }
    // Walk the path from the smaller endpoint.
    let start = *endpoints.iter().min().expect("two endpoints");
    let mut var_order = vec![start];
    let mut atom_order = Vec::with_capacity(l);
    let mut used = vec![false; l];
    let mut current = start;
    for _ in 0..l {
        let (a, _) = edges.iter().enumerate().find(|(a, e)| !used[*a] && e.contains(&current))?;
        used[a] = true;
        let next = *edges[a].iter().find(|v| **v != current)?;
        atom_order.push(AtomId(a));
        var_order.push(next);
        current = next;
    }
    // A walk that consumed every atom and every variable is a path.
    if var_order.len() == q.num_vars() {
        Some(RecognizedFamily::Chain { k: l, var_order, atom_order })
    } else {
        None
    }
}

fn try_cycle(q: &Query, edges: &[BTreeSet<VarId>], degree: &[usize]) -> Option<RecognizedFamily> {
    let l = edges.len();
    if l < 2 || !all_binary(edges) || q.num_vars() != l {
        return None;
    }
    if degree.iter().all(|&d| d == 2) && q.is_connected() {
        Some(RecognizedFamily::Cycle { k: l })
    } else {
        None
    }
}

fn try_spoke(q: &Query, edges: &[BTreeSet<VarId>], degree: &[usize]) -> Option<RecognizedFamily> {
    let l = edges.len();
    if !all_binary(edges) || !l.is_multiple_of(2) || l == 0 {
        return None;
    }
    let k = l / 2;
    if q.num_vars() != 2 * k + 1 {
        return None;
    }
    let center = VarId(degree.iter().position(|&d| d == k)?);
    // k middles of degree 2, k tips of degree 1 (k ≥ 3 keeps the centre
    // distinct from the middles; smaller spokes are chains, caught earlier).
    if degree[center.0] != k {
        return None;
    }
    let mut arms = Vec::with_capacity(k);
    let mut seen_middle: BTreeSet<VarId> = BTreeSet::new();
    for (a, e) in edges.iter().enumerate() {
        if !e.contains(&center) {
            continue;
        }
        let x = *e.iter().find(|v| **v != center)?;
        if degree[x.0] != 2 || !seen_middle.insert(x) {
            return None;
        }
        // The unique other atom of x must pair it with a degree-1 tip.
        let (s, se) = edges.iter().enumerate().find(|(s, se)| *s != a && se.contains(&x))?;
        let y = *se.iter().find(|v| **v != x)?;
        if y == center || degree[y.0] != 1 {
            return None;
        }
        arms.push((AtomId(a), AtomId(s), x, y));
    }
    if arms.len() == k {
        Some(RecognizedFamily::Spoke { k, center, arms })
    } else {
        None
    }
}

/// `C(k, m)` without overflow; `None` when the value exceeds `cap`.
fn binomial_coefficient(k: usize, m: usize, cap: u128) -> Option<u128> {
    if m > k {
        return Some(0);
    }
    let m = m.min(k - m);
    let mut c: u128 = 1;
    for i in 0..m {
        c = c.checked_mul((k - i) as u128)? / (i as u128 + 1);
        if c > cap {
            return None;
        }
    }
    Some(c)
}

fn try_binomial(
    q: &Query,
    edges: &[BTreeSet<VarId>],
    degree: &[usize],
) -> Option<RecognizedFamily> {
    let k = q.num_vars();
    let m = edges.first()?.len();
    if m == 0 || edges.iter().any(|e| e.len() != m) {
        return None;
    }
    let expected = binomial_coefficient(k, m, 1_000_000)?;
    if edges.len() as u128 != expected {
        return None;
    }
    // Distinct m-subsets in the right quantity are *all* m-subsets.
    let distinct: BTreeSet<&BTreeSet<VarId>> = edges.iter().collect();
    if distinct.len() != edges.len() {
        return None;
    }
    let per_var = binomial_coefficient(k - 1, m - 1, 1_000_000)?;
    if degree.iter().any(|&d| d as u128 != per_var) {
        return None;
    }
    Some(RecognizedFamily::Binomial { k, m })
}

/// All subsets of `{1,…,k}` of the given size, in lexicographic order.
fn subsets_of_size(k: usize, m: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(m);
    fn rec(start: usize, k: usize, m: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if current.len() == m {
            out.push(current.clone());
            return;
        }
        for i in start..=k {
            if k - i + 1 < m - current.len() {
                break;
            }
            current.push(i);
            rec(i + 1, k, m, current, out);
            current.pop();
        }
    }
    rec(1, k, m, &mut current, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_shape() {
        let q = chain(4);
        assert_eq!(q.num_atoms(), 4);
        assert_eq!(q.num_vars(), 5);
        assert!(q.is_connected());
        assert_eq!(
            q.to_string(),
            "L4(x0,x1,x2,x3,x4) :- S1(x0,x1), S2(x1,x2), S3(x2,x3), S4(x3,x4)"
        );
    }

    #[test]
    fn cycle_shape() {
        let q = cycle(5);
        assert_eq!(q.num_atoms(), 5);
        assert_eq!(q.num_vars(), 5);
        assert!(q.is_connected());
        // The last atom wraps around to x1.
        let (_, last) = q.atom_by_name("S5").unwrap();
        assert_eq!(q.var_name(last.vars[1]).unwrap(), "x1");
    }

    #[test]
    fn star_shape() {
        let q = star(3);
        assert_eq!(q.num_atoms(), 3);
        assert_eq!(q.num_vars(), 4);
        assert!(q.shared_variable().is_some());
    }

    #[test]
    fn binomial_shape() {
        let q = binomial(4, 2).unwrap();
        assert_eq!(q.num_atoms(), 6); // C(4,2)
        assert_eq!(q.num_vars(), 4);
        assert!(q.is_connected());
        let q = binomial(3, 3).unwrap();
        assert_eq!(q.num_atoms(), 1);
        assert_eq!(q.num_vars(), 3);
    }

    #[test]
    fn binomial_rejects_bad_parameters() {
        assert!(binomial(3, 0).is_err());
        assert!(binomial(3, 4).is_err());
    }

    #[test]
    fn clique_is_binomial_k_2_renamed() {
        let k4 = clique(4).unwrap();
        assert_eq!(k4.name(), "K4");
        assert_eq!(k4.num_atoms(), 6);
        assert_eq!(k4.num_vars(), 4);
        let b42 = binomial(4, 2).unwrap();
        for (a, b) in k4.atoms().iter().zip(b42.atoms()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.vars, b.vars);
        }
        // K3 is the triangle, which the recognizer reports as the cycle C3.
        let k3 = clique(3).unwrap();
        assert_eq!(k3.num_atoms(), 3);
        assert!(matches!(recognize(&k3), Some(RecognizedFamily::Cycle { k: 3 })));
        assert!(clique(1).is_err());
    }

    #[test]
    fn spoke_shape() {
        let q = spoke(3);
        assert_eq!(q.num_atoms(), 6);
        assert_eq!(q.num_vars(), 7);
        assert!(q.is_connected());
        assert!(q.shared_variable().is_none());
        assert!(q.is_tree_like());
    }

    #[test]
    fn witness_query_shape() {
        let q = witness_query();
        assert_eq!(q.num_atoms(), 5);
        assert_eq!(q.num_vars(), 4);
        assert!(q.is_connected());
        assert_eq!(q.total_arity(), 8);
    }

    #[test]
    fn convenience_aliases() {
        assert_eq!(triangle().num_atoms(), 3);
    }

    #[test]
    fn subsets_enumeration() {
        assert_eq!(subsets_of_size(4, 2).len(), 6);
        assert_eq!(subsets_of_size(5, 1).len(), 5);
        assert_eq!(subsets_of_size(5, 5).len(), 1);
        assert_eq!(subsets_of_size(5, 5)[0], vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn recognize_families_up_to_renaming() {
        // The constructors themselves.
        assert!(matches!(recognize(&cycle(3)), Some(RecognizedFamily::Cycle { k: 3 })));
        assert!(matches!(recognize(&cycle(7)), Some(RecognizedFamily::Cycle { k: 7 })));
        assert!(matches!(recognize(&chain(5)), Some(RecognizedFamily::Chain { k: 5, .. })));
        assert!(matches!(recognize(&star(4)), Some(RecognizedFamily::Star { k: 4, .. })));
        assert!(matches!(
            recognize(&binomial(5, 3).unwrap()),
            Some(RecognizedFamily::Binomial { k: 5, m: 3 })
        ));
        assert!(matches!(recognize(&spoke(3)), Some(RecognizedFamily::Spoke { k: 3, .. })));
        // Renamed/permuted copies are still recognized.
        let shuffled_cycle = Query::new(
            "Z",
            vec![("A", vec!["b", "c"]), ("B", vec!["a", "b"]), ("C", vec!["c", "a"])],
        )
        .unwrap();
        assert!(matches!(recognize(&shuffled_cycle), Some(RecognizedFamily::Cycle { k: 3 })));
        let shuffled_chain =
            Query::new("Z", vec![("A", vec!["m", "n"]), ("B", vec!["p", "m"])]).unwrap();
        // A 2-chain is also a 2-star around the middle variable; either
        // classification carries a valid closed form.
        let got = recognize(&shuffled_chain).unwrap();
        assert!(matches!(
            got,
            RecognizedFamily::Star { k: 2, .. } | RecognizedFamily::Chain { k: 2, .. }
        ));
    }

    #[test]
    fn recognize_roles_are_consistent() {
        let q = spoke(4);
        let Some(RecognizedFamily::Spoke { k, center, arms }) = recognize(&q) else {
            panic!("SP4 must be recognized");
        };
        assert_eq!(k, 4);
        assert_eq!(q.var_name(center).unwrap(), "z");
        for (r, s, x, y) in arms {
            let rv = q.vars_of_atom(r).unwrap();
            assert!(rv.contains(&center) && rv.contains(&x));
            let sv = q.vars_of_atom(s).unwrap();
            assert!(sv.contains(&x) && sv.contains(&y));
        }
        let q = chain(6);
        let Some(RecognizedFamily::Chain { k, var_order, atom_order }) = recognize(&q) else {
            panic!("L6 must be recognized");
        };
        assert_eq!(k, 6);
        assert_eq!(var_order.len(), 7);
        for (j, a) in atom_order.iter().enumerate() {
            let vars = q.vars_of_atom(*a).unwrap();
            assert!(vars.contains(&var_order[j]) && vars.contains(&var_order[j + 1]));
        }
    }

    #[test]
    fn recognize_rejects_non_family_queries() {
        assert_eq!(recognize(&witness_query()), None);
        // A triangle with a pendant edge.
        let q = Query::new(
            "q",
            vec![
                ("S1", vec!["a", "b"]),
                ("S2", vec!["b", "c"]),
                ("S3", vec!["c", "a"]),
                ("S4", vec!["c", "d"]),
            ],
        )
        .unwrap();
        assert_eq!(recognize(&q), None);
        // Two disjoint paths: connected-family checks must all fail.
        let q = Query::new("q", vec![("R", vec!["x", "y"]), ("S", vec!["u", "v"])]).unwrap();
        assert_eq!(recognize(&q), None);
    }

    #[test]
    fn recognize_degenerate_shapes() {
        // A single unary atom is B(1,1); k unary atoms are B(k,1).
        let q = Query::new("q", vec![("S", vec!["x"])]).unwrap();
        assert!(matches!(recognize(&q), Some(RecognizedFamily::Binomial { k: 1, m: 1 })));
        let q = Query::new("q", vec![("S", vec!["x"]), ("T", vec!["y"])]).unwrap();
        assert!(matches!(recognize(&q), Some(RecognizedFamily::Binomial { k: 2, m: 1 })));
        // The doubled edge is C2.
        assert!(matches!(recognize(&cycle(2)), Some(RecognizedFamily::Cycle { k: 2 })));
        // A repeated-variable atom S(x,x) has the unary edge {x}: B(1,1).
        let q = Query::new("q", vec![("S", vec!["x", "x"])]).unwrap();
        assert!(matches!(recognize(&q), Some(RecognizedFamily::Binomial { k: 1, m: 1 })));
        assert_eq!(recognize(&q).unwrap().display_name(), "B1_1");
    }

    #[test]
    #[should_panic(expected = "chain length")]
    fn chain_zero_panics() {
        chain(0);
    }

    #[test]
    #[should_panic(expected = "cycle length")]
    fn cycle_one_panics() {
        cycle(1);
    }
}
