//! Canonical hypergraph signatures: an isomorphism test for queries.
//!
//! Two queries have equal [`QuerySignature`]s only if their hypergraphs
//! (one node per variable, one hyperedge per atom's *distinct* variable
//! set) are isomorphic — the structure the LPs of the paper (vertex cover,
//! edge packing, edge cover) depend on. [`CanonicalForm`] also carries the
//! variable and atom maps into canonical coordinates, so the isomorphism
//! itself is the composition of two queries' maps.
//!
//! The canonical labeling is computed by **colour refinement**
//! (1-dimensional Weisfeiler–Leman) followed, when refinement does not
//! discretise the partition, by a bounded individualise-and-refine
//! backtracking search for the lexicographically smallest edge encoding.
//! When the search budget is exhausted (possible only for highly symmetric
//! hypergraphs such as `B_{k,m}`), the labeling falls back to refinement
//! order with variable-id tie-breaks: still deterministic — identical
//! queries keep equal signatures — merely no longer isomorphism-invariant,
//! so *renamed* copies of such queries may differ.
//!
//! Soundness does not depend on which branch produced the labeling: the
//! signature embeds the full canonically-labelled incidence structure, so
//! equal signatures always certify an isomorphism via the composition of
//! the two canonical maps.
//!
//! # Cost, and who calls this
//!
//! The search is **factorial in the size of a class of interchangeable
//! variables**: every member of the target cell is individualised in turn,
//! recursively. Two arity-5 atoms sharing one variable (`V(x0,…,x4),
//! W(x4,…,x8)`: two classes of four private variables) take 3–4 ms to
//! canonicalise, where solving that query's three LPs takes 11–15 µs. That is
//! why this is **not** a cache key of the LP layer any more: `mpc-lp` used
//! to memoise solved LPs under the signature, and on the workspace's own
//! traffic the key cost more than the solves it saved. Do not put it on a
//! per-query path without measuring. Its one remaining caller outside this
//! crate is a unit test of `benchmark/` (`renamed_copies_are_isomorphic`).

use std::collections::BTreeMap;

use crate::query::Query;

/// Search budget for the individualise-and-refine backtracking (number of
/// refinement nodes explored before falling back to the deterministic
/// non-invariant labeling).
const SEARCH_BUDGET: usize = 2_000;

/// The canonical signature of a query hypergraph: the number of variables
/// plus the canonically-labelled hyperedges, sorted. Equal signatures imply
/// isomorphic hypergraphs (the converse holds whenever the canonicalisation
/// search completed within budget).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QuerySignature {
    num_vars: usize,
    /// Sorted list of hyperedges, each a sorted list of canonical labels.
    edges: Vec<Vec<u32>>,
}

impl QuerySignature {
    /// Number of variables of the signed hypergraph.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of hyperedges (atoms) of the signed hypergraph.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

/// A query's canonical form: the signature plus the maps from the query's
/// own variable and atom numbering to the canonical one.
#[derive(Debug, Clone)]
pub struct CanonicalForm {
    /// The canonical signature.
    pub signature: QuerySignature,
    /// `var_to_canonical[v]` is the canonical label of `VarId(v)`.
    pub var_to_canonical: Vec<usize>,
    /// `atom_to_canonical[a]` is the position of atom `a`'s edge in the
    /// signature's sorted edge list. Atoms with identical variable sets map
    /// to distinct positions (ties broken by atom id).
    pub atom_to_canonical: Vec<usize>,
}

/// The distinct-variable sets of the atoms, as sorted `usize` vectors.
fn edge_sets(q: &Query) -> Vec<Vec<usize>> {
    q.atoms()
        .iter()
        .map(|a| {
            let mut vs: Vec<usize> = a.distinct_vars().into_iter().map(|v| v.0).collect();
            vs.sort_unstable();
            vs
        })
        .collect()
}

/// One round of colour refinement: the new colour of a variable is the pair
/// (old colour, sorted multiset over incident edges of (edge size, sorted
/// multiset of member colours)). Returns the refined colours, densely
/// renumbered in order of first appearance of the sorted keys.
fn refine_step(colors: &[usize], edges: &[Vec<usize>], incident: &[Vec<usize>]) -> Vec<usize> {
    type Key = (usize, Vec<(usize, Vec<usize>)>);
    let keys: Vec<Key> = (0..colors.len())
        .map(|v| {
            let mut around: Vec<(usize, Vec<usize>)> = incident[v]
                .iter()
                .map(|&e| {
                    let mut member_colors: Vec<usize> =
                        edges[e].iter().map(|&w| colors[w]).collect();
                    member_colors.sort_unstable();
                    (edges[e].len(), member_colors)
                })
                .collect();
            around.sort();
            (colors[v], around)
        })
        .collect();
    let mut order: BTreeMap<&Key, usize> = BTreeMap::new();
    for key in &keys {
        let next = order.len();
        order.entry(key).or_insert(next);
    }
    // Renumber by sorted key order so colours are independent of var order.
    let mut sorted: Vec<&Key> = order.keys().copied().collect();
    sorted.sort();
    let rank: BTreeMap<&Key, usize> = sorted.into_iter().enumerate().map(|(i, k)| (k, i)).collect();
    keys.iter().map(|k| rank[k]).collect()
}

/// Refine colours to a fixed point.
fn refine(mut colors: Vec<usize>, edges: &[Vec<usize>], incident: &[Vec<usize>]) -> Vec<usize> {
    loop {
        let next = refine_step(&colors, edges, incident);
        let classes_before = count_classes(&colors);
        let classes_after = count_classes(&next);
        colors = next;
        if classes_after == classes_before {
            return colors;
        }
    }
}

fn count_classes(colors: &[usize]) -> usize {
    let mut seen: Vec<usize> = colors.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

/// Encode the edges under a labeling (label per variable): each edge's
/// labels sorted, edges sorted lexicographically.
fn encode(edges: &[Vec<usize>], labels: &[usize]) -> Vec<Vec<u32>> {
    let mut enc: Vec<Vec<u32>> = edges
        .iter()
        .map(|e| {
            let mut le: Vec<u32> = e.iter().map(|&v| labels[v] as u32).collect();
            le.sort_unstable();
            le
        })
        .collect();
    enc.sort();
    enc
}

/// Labels from a *discrete* colouring (every colour class a singleton):
/// the label of a variable is its colour rank.
fn labels_of_discrete(colors: &[usize]) -> Vec<usize> {
    colors.to_vec()
}

/// Deterministic fallback labeling: refinement colours with variable-id
/// tie-breaks. Not isomorphism-invariant, but stable for identical inputs.
fn fallback_labels(colors: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..colors.len()).collect();
    order.sort_by_key(|&v| (colors[v], v));
    let mut labels = vec![0usize; colors.len()];
    for (rank, &v) in order.iter().enumerate() {
        labels[v] = rank;
    }
    labels
}

/// Individualise-and-refine search for the labeling with the
/// lexicographically smallest edge encoding. Returns `None` when the
/// budget is exhausted.
struct Search<'a> {
    edges: &'a [Vec<usize>],
    incident: &'a [Vec<usize>],
    budget: usize,
    best: Option<(Vec<Vec<u32>>, Vec<usize>)>,
}

impl Search<'_> {
    fn run(&mut self, colors: Vec<usize>) -> bool {
        if self.budget == 0 {
            return false;
        }
        self.budget -= 1;
        let n = colors.len();
        if count_classes(&colors) == n {
            let labels = labels_of_discrete(&colors);
            let enc = encode(self.edges, &labels);
            match &self.best {
                Some((best_enc, _)) if *best_enc <= enc => {}
                _ => self.best = Some((enc, labels)),
            }
            return true;
        }
        // Target cell: the smallest non-singleton colour class, lowest
        // colour on ties — an isomorphism-invariant choice.
        let mut class_sizes: BTreeMap<usize, usize> = BTreeMap::new();
        for &c in &colors {
            *class_sizes.entry(c).or_insert(0) += 1;
        }
        let (&target, _) = class_sizes
            .iter()
            .filter(|(_, &size)| size > 1)
            .min_by_key(|(&c, &size)| (size, c))
            .expect("non-discrete colouring has a non-singleton class");
        let members: Vec<usize> = (0..n).filter(|&v| colors[v] == target).collect();
        for v in members {
            // Individualise v: give it a fresh colour below every other, then
            // re-refine. Colour values only matter relatively, so shift all
            // other colours up by one.
            let mut next: Vec<usize> = colors.iter().map(|&c| c + 1).collect();
            next[v] = 0;
            let refined = refine(next, self.edges, self.incident);
            if !self.run(refined) {
                return false;
            }
        }
        true
    }
}

impl Query {
    /// The canonical form of the query's hypergraph: signature plus the
    /// variable/atom maps into canonical coordinates. See the module docs
    /// for the guarantees.
    pub fn canonical_form(&self) -> CanonicalForm {
        let edges = edge_sets(self);
        let n = self.num_vars();
        let mut incident: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (e, vs) in edges.iter().enumerate() {
            for &v in vs {
                incident[v].push(e);
            }
        }

        let base = refine(vec![0; n], &edges, &incident);
        let labels = if count_classes(&base) == n {
            labels_of_discrete(&base)
        } else {
            let mut search =
                Search { edges: &edges, incident: &incident, budget: SEARCH_BUDGET, best: None };
            if search.run(base.clone()) {
                search.best.expect("complete search visited at least one leaf").1
            } else {
                fallback_labels(&base)
            }
        };

        // Canonical edge list with a stable atom map: sort atom encodings,
        // ties broken by original atom id so duplicated edges get distinct,
        // deterministic positions.
        let mut keyed: Vec<(Vec<u32>, usize)> = edges
            .iter()
            .enumerate()
            .map(|(a, e)| {
                let mut le: Vec<u32> = e.iter().map(|&v| labels[v] as u32).collect();
                le.sort_unstable();
                (le, a)
            })
            .collect();
        keyed.sort();
        let mut atom_to_canonical = vec![0usize; edges.len()];
        let mut canonical_edges = Vec::with_capacity(edges.len());
        for (pos, (enc, a)) in keyed.into_iter().enumerate() {
            atom_to_canonical[a] = pos;
            canonical_edges.push(enc);
        }

        CanonicalForm {
            signature: QuerySignature { num_vars: n, edges: canonical_edges },
            var_to_canonical: labels,
            atom_to_canonical,
        }
    }

    /// Shortcut for `self.canonical_form().signature`.
    pub fn canonical_signature(&self) -> QuerySignature {
        self.canonical_form().signature
    }
}

/// Convenience for tests: does `v` occur in canonical edge `e`?
#[cfg(test)]
fn canonical_edge_contains(sig: &QuerySignature, e: usize, label: u32) -> bool {
    sig.edges[e].contains(&label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;
    use crate::query::Query;

    /// A renamed copy of a query: variables and atoms permuted/renamed.
    fn renamed(q: &Query, var_prefix: &str, reverse_atoms: bool) -> Query {
        let mut atoms: Vec<(String, Vec<String>)> = q
            .atoms()
            .iter()
            .enumerate()
            .map(|(i, a)| {
                (format!("R{i}"), a.vars.iter().map(|v| format!("{var_prefix}{}", v.0)).collect())
            })
            .collect();
        if reverse_atoms {
            atoms.reverse();
        }
        Query::new(format!("{}~", q.name()), atoms).unwrap()
    }

    #[test]
    fn identical_queries_share_signatures() {
        for q in [families::cycle(5), families::chain(4), families::star(3), families::spoke(3)] {
            assert_eq!(q.canonical_signature(), q.canonical_signature());
        }
    }

    #[test]
    fn renamed_queries_share_signatures() {
        for q in [
            families::cycle(4),
            families::cycle(5),
            families::chain(6),
            families::star(4),
            families::spoke(3),
            families::witness_query(),
        ] {
            let r = renamed(&q, "y", true);
            assert_eq!(q.canonical_signature(), r.canonical_signature(), "{}", q.name());
        }
    }

    #[test]
    fn different_shapes_get_different_signatures() {
        let sigs = [
            families::cycle(4).canonical_signature(),
            families::cycle(5).canonical_signature(),
            families::chain(4).canonical_signature(),
            families::chain(5).canonical_signature(),
            families::star(4).canonical_signature(),
            families::spoke(3).canonical_signature(),
            families::witness_query().canonical_signature(),
        ];
        for (i, a) in sigs.iter().enumerate() {
            for (j, b) in sigs.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "signatures {i} and {j} collide");
                }
            }
        }
    }

    #[test]
    fn maps_transport_weights_consistently() {
        // The signature's edges, pulled back through the maps, must be the
        // query's own edges.
        for q in [families::chain(5), families::cycle(6), families::witness_query()] {
            let cf = q.canonical_form();
            for (a, atom) in q.atoms().iter().enumerate() {
                let e = cf.atom_to_canonical[a];
                for v in atom.distinct_vars() {
                    let label = cf.var_to_canonical[v.0] as u32;
                    assert!(
                        canonical_edge_contains(&cf.signature, e, label),
                        "atom {a} of {} maps inconsistently",
                        q.name()
                    );
                }
            }
            // Both maps are bijections onto 0..n.
            for (map, n) in
                [(&cf.var_to_canonical, q.num_vars()), (&cf.atom_to_canonical, q.num_atoms())]
            {
                let mut seen = map.clone();
                seen.sort_unstable();
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "{}", q.name());
            }
        }
    }

    #[test]
    fn symmetric_binomial_still_deterministic() {
        // B(4,2) exhausts no budget for k=4 but is highly symmetric; the
        // signature must at least be self-consistent and stable.
        let q = families::binomial(4, 2).unwrap();
        let s1 = q.canonical_signature();
        let s2 = q.canonical_signature();
        assert_eq!(s1, s2);
        assert_eq!(s1.num_vars(), 4);
        assert_eq!(s1.num_edges(), 6);
    }

    #[test]
    fn repeated_position_atoms_use_distinct_var_sets() {
        // S(x,x) contributes the unary edge {x}.
        let q = Query::new("q", vec![("S", vec!["x", "x"]), ("T", vec!["x", "y"])]).unwrap();
        let sig = q.canonical_signature();
        assert_eq!(sig.num_edges(), 2);
        assert!(sig.edges.iter().any(|e| e.len() == 1));
    }
}
