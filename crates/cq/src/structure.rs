//! Structural classification of queries: tree-likeness, acyclicity and
//! subquery enumeration.
//!
//! A connected query is *tree-like* (Section 2.3) when `χ(q) = 0`; for
//! binary vocabularies this coincides with the query graph being a tree.
//! Over non-binary vocabularies every tree-like query is acyclic but not
//! conversely (the paper's example: `S1(x0,x1,x2), S2(x1,x2,x3)` is acyclic
//! yet not tree-like). Acyclicity is decided with the classical GYO ear
//! removal.

use std::collections::BTreeSet;

use crate::query::{AtomId, Query};

impl Query {
    /// True if the query is connected and `χ(q) = 0` (tree-like,
    /// Section 2.3). Every connected subquery of a tree-like query is again
    /// tree-like.
    pub fn is_tree_like(&self) -> bool {
        self.is_connected() && self.characteristic() == 0
    }

    /// True if the query hypergraph is α-acyclic (GYO reduction succeeds).
    pub fn is_acyclic(&self) -> bool {
        // Work on multisets of variable sets; repeatedly apply the two GYO
        // rules until no more progress: (1) delete a variable that occurs in
        // at most one hyperedge, (2) delete a hyperedge contained in another.
        let mut edges: Vec<BTreeSet<usize>> = self
            .atoms()
            .iter()
            .map(|a| a.distinct_vars().into_iter().map(|v| v.0).collect())
            .collect();
        loop {
            let mut changed = false;

            // Rule 1: remove isolated variables (occurring in ≤ 1 edge).
            let mut var_count = std::collections::BTreeMap::new();
            for e in &edges {
                for &v in e {
                    *var_count.entry(v).or_insert(0usize) += 1;
                }
            }
            for e in edges.iter_mut() {
                let before = e.len();
                e.retain(|v| var_count[v] > 1);
                if e.len() != before {
                    changed = true;
                }
            }

            // Remove empty edges.
            let before = edges.len();
            edges.retain(|e| !e.is_empty());
            if edges.len() != before {
                changed = true;
            }

            // Rule 2: remove an edge contained in another edge.
            let mut removed = None;
            'outer: for i in 0..edges.len() {
                for j in 0..edges.len() {
                    if i != j && edges[i].is_subset(&edges[j]) {
                        removed = Some(i);
                        break 'outer;
                    }
                }
            }
            if let Some(i) = removed {
                edges.remove(i);
                changed = true;
            }

            if edges.is_empty() {
                return true;
            }
            if !changed {
                return false;
            }
        }
    }

    /// Enumerate every non-empty **connected** subset of atoms, as sorted
    /// atom-id vectors. The enumeration grows connected sets one adjacent
    /// atom at a time, so only connected candidates are materialised.
    ///
    /// Queries in this crate are small (`ℓ ≤ ~20`), so the output size
    /// (at most `2^ℓ`) is acceptable; larger queries should use
    /// [`Query::connected_subqueries_up_to`] with a size cap.
    pub fn connected_subqueries(&self) -> Vec<Vec<AtomId>> {
        self.connected_subqueries_up_to(self.num_atoms())
    }

    /// Enumerate every non-empty connected subset of atoms of size at most
    /// `max_size`.
    pub fn connected_subqueries_up_to(&self, max_size: usize) -> Vec<Vec<AtomId>> {
        // Atom adjacency: atoms sharing a variable.
        let l = self.num_atoms();
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); l];
        for i in 0..l {
            let vi = self.atoms()[i].distinct_vars();
            for j in (i + 1)..l {
                let vj = self.atoms()[j].distinct_vars();
                if vi.intersection(&vj).next().is_some() {
                    adj[i].insert(j);
                    adj[j].insert(i);
                }
            }
        }

        let mut results: BTreeSet<Vec<usize>> = BTreeSet::new();
        let mut frontier: BTreeSet<Vec<usize>> = (0..l).map(|i| vec![i]).collect();
        results.extend(frontier.iter().cloned());

        for _ in 1..max_size {
            let mut next: BTreeSet<Vec<usize>> = BTreeSet::new();
            for set in &frontier {
                let members: BTreeSet<usize> = set.iter().copied().collect();
                for &m in set {
                    for &n in &adj[m] {
                        if !members.contains(&n) {
                            let mut grown: Vec<usize> = set.clone();
                            grown.push(n);
                            grown.sort_unstable();
                            grown.dedup();
                            next.insert(grown);
                        }
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            results.extend(next.iter().cloned());
            frontier = next;
        }

        results.into_iter().map(|s| s.into_iter().map(AtomId).collect()).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::families;
    use crate::query::Query;

    #[test]
    fn chains_and_stars_are_tree_like() {
        for k in 1..=6 {
            assert!(families::chain(k).is_tree_like(), "L{k}");
            assert!(families::star(k).is_tree_like(), "T{k}");
        }
    }

    #[test]
    fn cycles_are_not_tree_like() {
        for k in 3..=6 {
            assert!(!families::cycle(k).is_tree_like(), "C{k}");
        }
    }

    #[test]
    fn paper_acyclic_but_not_tree_like_example() {
        // q = S1(x0,x1,x2), S2(x1,x2,x3): acyclic, connected, χ = −1.
        let q =
            Query::new("q", vec![("S1", vec!["x0", "x1", "x2"]), ("S2", vec!["x1", "x2", "x3"])])
                .unwrap();
        assert!(q.is_acyclic());
        assert!(q.is_connected());
        assert_eq!(q.characteristic(), -1);
        assert!(!q.is_tree_like());
    }

    #[test]
    fn cycles_are_cyclic_chains_are_acyclic() {
        for k in 3..=6 {
            assert!(!families::cycle(k).is_acyclic(), "C{k} should be cyclic");
            assert!(families::chain(k).is_acyclic(), "L{k} should be acyclic");
            assert!(families::star(k).is_acyclic(), "T{k} should be acyclic");
        }
    }

    #[test]
    fn single_atom_is_acyclic_and_tree_like_when_binary() {
        let q = Query::new("q", vec![("R", vec!["x", "y"])]).unwrap();
        assert!(q.is_acyclic());
        assert!(q.is_tree_like());
        let t = Query::new("q", vec![("R", vec!["x", "y", "z"])]).unwrap();
        assert!(t.is_acyclic());
        // Ternary single atom: χ = 3 + 1 − 3 − 1 = 0, still tree-like by the
        // definition (connected and χ = 0).
        assert!(t.is_tree_like());
    }

    #[test]
    fn connected_subqueries_of_chain() {
        // Connected subsets of Lk atoms are contiguous segments:
        // k·(k+1)/2 of them.
        for k in 1..=6usize {
            let q = families::chain(k);
            let subs = q.connected_subqueries();
            assert_eq!(subs.len(), k * (k + 1) / 2, "L{k}");
        }
    }

    #[test]
    fn connected_subqueries_of_cycle() {
        // Connected subsets of Ck atoms: k·(k−1) proper arcs + 1 full cycle.
        for k in 3..=6usize {
            let q = families::cycle(k);
            let subs = q.connected_subqueries();
            assert_eq!(subs.len(), k * (k - 1) + 1, "C{k}");
        }
    }

    #[test]
    fn connected_subqueries_respect_size_cap() {
        let q = families::chain(5);
        let subs = q.connected_subqueries_up_to(2);
        assert!(subs.iter().all(|s| s.len() <= 2));
        // 5 singletons + 4 adjacent pairs.
        assert_eq!(subs.len(), 9);
    }

    #[test]
    fn every_enumerated_subset_is_connected() {
        let q = families::binomial(4, 2).unwrap();
        for atoms in q.connected_subqueries() {
            assert!(q.atoms_connected(&atoms));
        }
    }
}
