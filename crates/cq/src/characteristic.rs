//! The query *characteristic* `χ(q)` and hyperedge contraction `q / M`
//! (Section 2.3, Lemma 2.1 of the paper).
//!
//! For a query with `k` variables, `ℓ` atoms, total arity `a = Σⱼ aⱼ` and
//! `c` connected components,
//!
//! ```text
//! χ(q) = k + ℓ − a − c .
//! ```
//!
//! The characteristic controls the expected answer size over random
//! matching databases: `E[|q(I)|] = n^{1 + χ(q)}` for connected `q`
//! (Lemma 3.4). Lemma 2.1 establishes that `χ` is additive over connected
//! components, interacts with contraction as `χ(q/M) = χ(q) − χ(M)`, and is
//! always `≤ 0`.
//!
//! *Contraction* `q / M` collapses each hyperedge of `M` to a single node
//! (merging its variables) and removes the atoms of `M`; for example
//! `L5 / {S2, S4} = S1(x0,x1), S3(x1,x3), S5(x3,x5)`.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::CqError;
use crate::hypergraph::UnionFind;
use crate::query::{Atom, AtomId, Query, VarId};
use crate::Result;

impl Query {
    /// The characteristic `χ(q) = k + ℓ − a − c`.
    ///
    /// Always `≤ 0` (Lemma 2.1(c)); equal to `0` exactly for disjoint unions
    /// of tree-like queries.
    pub fn characteristic(&self) -> i64 {
        let k = self.num_vars() as i64;
        let l = self.num_atoms() as i64;
        let a = self.total_arity() as i64;
        let c = self.num_connected_components() as i64;
        k + l - a - c
    }

    /// The characteristic `χ(M)` of the sub-hypergraph induced by an atom
    /// set `M ⊆ atoms(q)` (counting only variables occurring in `M`).
    ///
    /// Returns `0` for the empty set.
    pub fn characteristic_of_atoms(&self, m: &[AtomId]) -> Result<i64> {
        if m.is_empty() {
            return Ok(0);
        }
        let sub = self.induced_subquery(m)?;
        Ok(sub.characteristic())
    }

    /// Contract the hyperedges in `M`: merge the variables of every atom in
    /// `M` into a single variable (per connected component of `M`) and drop
    /// the atoms of `M`, yielding the query `q / M`.
    ///
    /// Variables of a merged class are represented by the class member with
    /// the smallest [`VarId`], keeping its original name (the paper:
    /// "we replace them with one of the nodes in the set").
    ///
    /// # Errors
    ///
    /// Returns [`CqError::EmptyQuery`] if `M` contains every atom of the
    /// query (the contraction would have no atoms left) and
    /// [`CqError::UnknownAtom`] for out-of-range ids.
    pub fn contract(&self, m: &[AtomId]) -> Result<Query> {
        for a in m {
            if a.0 >= self.num_atoms() {
                return Err(CqError::UnknownAtom(a.0));
            }
        }
        let m_set: BTreeSet<AtomId> = m.iter().copied().collect();
        if m_set.len() == self.num_atoms() {
            return Err(CqError::EmptyQuery);
        }

        // Merge variables occurring in the same contracted atom.
        let mut uf = UnionFind::new(self.num_vars());
        for a in &m_set {
            let vars = &self.atoms()[a.0].vars;
            for w in vars.windows(2) {
                uf.union(w[0].0, w[1].0);
            }
        }

        // Representative of each class = smallest VarId in the class.
        let mut class_min: BTreeMap<usize, usize> = BTreeMap::new();
        for v in 0..self.num_vars() {
            let root = uf.find(v);
            let entry = class_min.entry(root).or_insert(v);
            if v < *entry {
                *entry = v;
            }
        }

        // Rebuild the remaining atoms over the representatives.
        let mut new_var_names: Vec<String> = Vec::new();
        let mut remap: BTreeMap<usize, VarId> = BTreeMap::new();
        let mut new_atoms: Vec<Atom> = Vec::new();
        for (i, atom) in self.atoms().iter().enumerate() {
            if m_set.contains(&AtomId(i)) {
                continue;
            }
            let vars = atom
                .vars
                .iter()
                .map(|v| {
                    let rep = class_min[&uf.find(v.0)];
                    *remap.entry(rep).or_insert_with(|| {
                        let id = VarId(new_var_names.len());
                        new_var_names.push(self.var_names()[rep].clone());
                        id
                    })
                })
                .collect();
            new_atoms.push(Atom { name: atom.name.clone(), vars });
        }

        Query::from_parts(format!("{}/M", self.name()), new_var_names, new_atoms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    #[test]
    fn characteristic_of_running_examples() {
        // Tree-like queries have χ = 0.
        assert_eq!(families::chain(5).characteristic(), 0);
        assert_eq!(families::star(4).characteristic(), 0);
        // Cycles have χ = −1 for k ≥ 3? No: Ck has k vars, k atoms, arity 2k,
        // 1 component: χ = k + k − 2k − 1 = −1.
        assert_eq!(families::cycle(3).characteristic(), -1);
        assert_eq!(families::cycle(6).characteristic(), -1);
    }

    #[test]
    fn characteristic_additive_over_components() {
        // Lemma 2.1(a): χ is additive over connected components.
        let q = Query::new(
            "q",
            vec![
                ("R", vec!["x", "y"]),
                ("S", vec!["y", "z"]),
                ("A", vec!["u", "v"]),
                ("B", vec!["v", "w"]),
                ("C", vec!["w", "u"]),
            ],
        )
        .unwrap();
        let total = q.characteristic();
        let components = crate::hypergraph::tests::connected_components(&q).into_iter();
        let sum: i64 =
            components.map(|atoms| q.induced_subquery(&atoms).unwrap().characteristic()).sum();
        assert_eq!(total, sum);
        assert_eq!(total, -1);
    }

    #[test]
    fn characteristic_nonpositive_for_many_shapes() {
        // Lemma 2.1(c).
        for q in [
            families::chain(1),
            families::chain(7),
            families::cycle(4),
            families::star(5),
            families::binomial(4, 2).unwrap(),
            families::spoke(3),
        ] {
            assert!(q.characteristic() <= 0, "χ({}) = {} > 0", q.name(), q.characteristic());
        }
    }

    #[test]
    fn paper_contraction_example_l5() {
        // L5 / {S2, S4} = S1(x0,x1), S3(x1,x3), S5(x3,x5)  (Section 2.3).
        let l5 = families::chain(5);
        let s2 = l5.atom_by_name("S2").unwrap().0;
        let s4 = l5.atom_by_name("S4").unwrap().0;
        let c = l5.contract(&[s2, s4]).unwrap();
        assert_eq!(c.num_atoms(), 3);
        assert_eq!(c.num_vars(), 4);
        // The contracted query is a chain of length 3 (tree-like, connected).
        assert!(c.is_connected());
        assert_eq!(c.characteristic(), 0);
        assert_eq!(c.diameter(), Some(3));
    }

    #[test]
    fn contraction_characteristic_identity() {
        // Lemma 2.1(b): χ(q/M) = χ(q) − χ(M) whenever every contracted
        // component touches a remaining atom (true for connected q and
        // proper M).
        let q = families::cycle(6);
        let m: Vec<AtomId> = vec![q.atom_by_name("S1").unwrap().0, q.atom_by_name("S4").unwrap().0];
        let chi_q = q.characteristic();
        let chi_m = q.characteristic_of_atoms(&m).unwrap();
        let contracted = q.contract(&m).unwrap();
        assert_eq!(contracted.characteristic(), chi_q - chi_m);
    }

    #[test]
    fn contract_all_atoms_is_error() {
        let q = families::chain(2);
        let all: Vec<AtomId> = q.atom_ids().collect();
        assert!(q.contract(&all).is_err());
    }

    #[test]
    fn contract_nothing_is_identity_shape() {
        let q = families::cycle(4);
        let c = q.contract(&[]).unwrap();
        assert_eq!(c.num_atoms(), q.num_atoms());
        assert_eq!(c.num_vars(), q.num_vars());
        assert_eq!(c.characteristic(), q.characteristic());
    }

    #[test]
    fn contract_cycle_stays_cycle() {
        // Contracting every other atom of C6 yields C3 (Lemma 4.9 uses this).
        let q = families::cycle(6);
        let m: Vec<AtomId> =
            ["S2", "S4", "S6"].iter().map(|n| q.atom_by_name(n).unwrap().0).collect();
        let c = q.contract(&m).unwrap();
        assert_eq!(c.num_atoms(), 3);
        assert_eq!(c.num_vars(), 3);
        assert_eq!(c.characteristic(), -1);
        assert!(c.is_connected());
    }

    #[test]
    fn characteristic_of_empty_atom_set_is_zero() {
        let q = families::chain(3);
        assert_eq!(q.characteristic_of_atoms(&[]).unwrap(), 0);
    }

    #[test]
    fn contraction_unknown_atom_errors() {
        let q = families::chain(3);
        assert!(q.contract(&[AtomId(99)]).is_err());
    }
}
