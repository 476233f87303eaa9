//! Hypergraph view of a query: connectivity and connected components.
//!
//! The hypergraph of a query (Section 2.3) has one node per variable and
//! one hyperedge per atom. Two atoms are *adjacent* when they share a
//! variable; the *connected components* of the query are the maximal
//! connected sub-queries.

use std::collections::BTreeSet;

use crate::query::{AtomId, Query, VarId};

/// A simple union-find (disjoint-set) structure used for connectivity and
/// contraction computations over variables or atoms.
#[derive(Debug, Clone)]
pub(crate) struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u32>,
}

impl UnionFind {
    /// Create `n` singleton sets `{0}, {1}, …, {n-1}`.
    pub fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), rank: vec![0; n] }
    }

    /// Find the canonical representative of `x` (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets containing `x` and `y`; returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, x: usize, y: usize) -> bool {
        let (rx, ry) = (self.find(x), self.find(y));
        if rx == ry {
            return false;
        }
        match self.rank[rx].cmp(&self.rank[ry]) {
            std::cmp::Ordering::Less => self.parent[rx] = ry,
            std::cmp::Ordering::Greater => self.parent[ry] = rx,
            std::cmp::Ordering::Equal => {
                self.parent[ry] = rx;
                self.rank[rx] += 1;
            }
        }
        true
    }

    /// Number of distinct sets among elements `0..n`.
    pub(crate) fn num_sets(&mut self) -> usize {
        let n = self.parent.len();
        let mut roots = BTreeSet::new();
        for i in 0..n {
            roots.insert(self.find(i));
        }
        roots.len()
    }
}

impl Query {
    /// Union-find over variables where variables occurring in the same atom
    /// are merged. Exposed for reuse by contraction and component
    /// computations.
    fn variable_components(&self) -> UnionFind {
        let mut uf = UnionFind::new(self.num_vars());
        for atom in self.atoms() {
            let vars: Vec<VarId> = atom.vars.clone();
            for w in vars.windows(2) {
                uf.union(w[0].0, w[1].0);
            }
        }
        uf
    }

    /// Number of connected components `c` of the query hypergraph.
    pub fn num_connected_components(&self) -> usize {
        if self.num_vars() == 0 {
            return 0;
        }
        let mut uf = self.variable_components();
        uf.num_sets()
    }

    /// True if the query hypergraph is connected.
    pub fn is_connected(&self) -> bool {
        self.num_connected_components() <= 1
    }

    /// True if the given atom set is connected *as a subhypergraph*
    /// (considering only the variables occurring in those atoms).
    pub fn atoms_connected(&self, atoms: &[AtomId]) -> bool {
        if atoms.is_empty() {
            return true;
        }
        match self.induced_subquery(atoms) {
            Ok(sub) => sub.is_connected(),
            Err(_) => false,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::query::Query;

    /// The connected components, each given as the set of atoms it contains,
    /// ordered by the smallest atom id they contain.
    pub(crate) fn connected_components(q: &Query) -> Vec<Vec<AtomId>> {
        let mut uf = q.variable_components();
        // Group atoms by the component of (any of) their variables. Every
        // atom has at least one variable (validated at construction).
        let mut groups: std::collections::BTreeMap<usize, Vec<AtomId>> =
            std::collections::BTreeMap::new();
        for a in q.atom_ids() {
            let first_var = q.atoms()[a.0].vars[0];
            let root = uf.find(first_var.0);
            groups.entry(root).or_default().push(a);
        }
        let mut comps: Vec<Vec<AtomId>> = groups.into_values().collect();
        comps.sort_by_key(|atoms| atoms[0]);
        comps
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_sets(), 5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert_eq!(uf.num_sets(), 3);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(4));
    }

    #[test]
    fn triangle_is_connected() {
        let q = Query::new(
            "C3",
            vec![("S1", vec!["x", "y"]), ("S2", vec!["y", "z"]), ("S3", vec!["z", "x"])],
        )
        .unwrap();
        assert!(q.is_connected());
        assert_eq!(q.num_connected_components(), 1);
        assert_eq!(connected_components(&q).len(), 1);
        assert_eq!(connected_components(&q)[0].len(), 3);
    }

    #[test]
    fn cartesian_product_is_disconnected() {
        // q(x,y) = R(x), S(y) — the paper's example of a disconnected query.
        let q = Query::new("q", vec![("R", vec!["x"]), ("S", vec!["y"])]).unwrap();
        assert!(!q.is_connected());
        assert_eq!(q.num_connected_components(), 2);
        let comps = connected_components(&q);
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().all(|atoms| atoms.len() == 1));
    }

    #[test]
    fn mixed_components() {
        let q = Query::new(
            "q",
            vec![("R", vec!["x", "y"]), ("S", vec!["y", "z"]), ("T", vec!["u", "v"])],
        )
        .unwrap();
        assert_eq!(q.num_connected_components(), 2);
        let comps = connected_components(&q);
        assert_eq!(comps[0].len(), 2);
        assert_eq!(comps[1].len(), 1);
    }

    #[test]
    fn atom_subset_connectivity() {
        let q = Query::new(
            "L3",
            vec![("S1", vec!["x0", "x1"]), ("S2", vec!["x1", "x2"]), ("S3", vec!["x2", "x3"])],
        )
        .unwrap();
        let s1 = q.atom_by_name("S1").unwrap().0;
        let s2 = q.atom_by_name("S2").unwrap().0;
        let s3 = q.atom_by_name("S3").unwrap().0;
        assert!(q.atoms_connected(&[s1, s2]));
        assert!(!q.atoms_connected(&[s1, s3]));
        assert!(q.atoms_connected(&[s1, s2, s3]));
        assert!(q.atoms_connected(&[]));
    }
}
