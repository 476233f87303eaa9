//! The [`Query`] type: full conjunctive queries without self-joins.
//!
//! A query `q(x1,…,xk) = S1(x̄1), …, Sℓ(x̄ℓ)` is stored as a list of variable
//! names plus a list of atoms whose positions reference variables by index
//! ([`VarId`]). The *hypergraph of the query* (Section 2.3 of the paper) has
//! one node per variable and one hyperedge per atom; most structural
//! operations in this crate are phrased over that hypergraph.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::CqError;
use crate::Result;

/// Identifier of a variable within a [`Query`] (index into
/// [`Query::var_names`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VarId(pub usize);

/// Identifier of an atom within a [`Query`] (index into [`Query::atoms`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AtomId(pub usize);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for AtomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// One atom `Sj(x̄j)` of a conjunctive query.
///
/// The variable list is positional: `vars.len()` is the arity `aⱼ` of the
/// relation symbol. The same variable may occur in several positions (this
/// happens after contraction, see [`Query::contract`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Atom {
    /// Relation symbol, unique within the query (no self-joins).
    pub name: String,
    /// Positional variable list; length = arity.
    pub vars: Vec<VarId>,
}

impl Atom {
    /// The arity `aⱼ` of the relation symbol (number of positions).
    pub fn arity(&self) -> usize {
        self.vars.len()
    }

    /// The set of *distinct* variables appearing in this atom,
    /// `vars(Sⱼ)` in the paper.
    pub fn distinct_vars(&self) -> BTreeSet<VarId> {
        self.vars.iter().copied().collect()
    }
}

/// A full conjunctive query without self-joins (Section 2.3).
///
/// *Full* means every variable of the body also appears in the head, so the
/// head is simply the set of all variables and is not stored separately.
/// *Without self-joins* means every relation symbol appears in exactly one
/// atom.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Query {
    name: String,
    var_names: Vec<String>,
    atoms: Vec<Atom>,
}

impl Query {
    /// Build a query from `(relation name, variable names)` pairs.
    ///
    /// Variables are identified by name; the set of head variables is the
    /// union of all body variables (the query is full by construction).
    ///
    /// # Errors
    ///
    /// Returns [`CqError::EmptyQuery`] if `atoms` is empty,
    /// [`CqError::SelfJoin`] if a relation symbol repeats and
    /// [`CqError::NullaryAtom`] if an atom has no variables.
    pub fn new<S, V, I, A>(name: S, atoms: A) -> Result<Self>
    where
        S: Into<String>,
        V: Into<String>,
        I: IntoIterator<Item = V>,
        A: IntoIterator<Item = (S, I)>,
    {
        let mut var_names: Vec<String> = Vec::new();
        let mut var_index: BTreeMap<String, VarId> = BTreeMap::new();
        let mut built_atoms: Vec<Atom> = Vec::new();
        let mut seen_relations: BTreeSet<String> = BTreeSet::new();

        for (rel, vars) in atoms {
            let rel: String = rel.into();
            if !seen_relations.insert(rel.clone()) {
                return Err(CqError::SelfJoin(rel));
            }
            let mut positions = Vec::new();
            for v in vars {
                let v: String = v.into();
                let id = *var_index.entry(v.clone()).or_insert_with(|| {
                    let id = VarId(var_names.len());
                    var_names.push(v);
                    id
                });
                positions.push(id);
            }
            if positions.is_empty() {
                return Err(CqError::NullaryAtom(rel));
            }
            built_atoms.push(Atom { name: rel, vars: positions });
        }

        if built_atoms.is_empty() {
            return Err(CqError::EmptyQuery);
        }

        Ok(Query { name: name.into(), var_names, atoms: built_atoms })
    }

    /// Construct from pre-built parts. Used internally by transformations
    /// that already maintain the invariants; still re-validates symbols.
    pub(crate) fn from_parts(
        name: String,
        var_names: Vec<String>,
        atoms: Vec<Atom>,
    ) -> Result<Self> {
        if atoms.is_empty() {
            return Err(CqError::EmptyQuery);
        }
        let mut seen = BTreeSet::new();
        for a in &atoms {
            if !seen.insert(a.name.clone()) {
                return Err(CqError::SelfJoin(a.name.clone()));
            }
            if a.vars.is_empty() {
                return Err(CqError::NullaryAtom(a.name.clone()));
            }
            for v in &a.vars {
                if v.0 >= var_names.len() {
                    return Err(CqError::UnknownVariable(v.0));
                }
            }
        }
        Ok(Query { name, var_names, atoms })
    }

    /// The query name (the head symbol), e.g. `"C3"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of variables `k`.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Number of atoms `ℓ`.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Total arity `a = Σⱼ aⱼ`.
    pub fn total_arity(&self) -> usize {
        self.atoms.iter().map(Atom::arity).sum()
    }

    /// All variable identifiers, `VarId(0) .. VarId(k-1)`.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.var_names.len()).map(VarId)
    }

    /// All atom identifiers, `AtomId(0) .. AtomId(ℓ-1)`.
    pub fn atom_ids(&self) -> impl Iterator<Item = AtomId> + '_ {
        (0..self.atoms.len()).map(AtomId)
    }

    /// Variable names, indexed by [`VarId`].
    pub fn var_names(&self) -> &[String] {
        &self.var_names
    }

    /// The name of a variable.
    ///
    /// # Errors
    ///
    /// Returns [`CqError::UnknownVariable`] if the id is out of range.
    pub fn var_name(&self, v: VarId) -> Result<&str> {
        self.var_names.get(v.0).map(String::as_str).ok_or(CqError::UnknownVariable(v.0))
    }

    /// Look up a variable by name.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.var_names.iter().position(|n| n == name).map(VarId)
    }

    /// All atoms in declaration order.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// A single atom.
    ///
    /// # Errors
    ///
    /// Returns [`CqError::UnknownAtom`] if the id is out of range.
    pub fn atom(&self, a: AtomId) -> Result<&Atom> {
        self.atoms.get(a.0).ok_or(CqError::UnknownAtom(a.0))
    }

    /// Look up an atom by relation symbol.
    pub fn atom_by_name(&self, name: &str) -> Option<(AtomId, &Atom)> {
        self.atoms.iter().enumerate().find(|(_, a)| a.name == name).map(|(i, a)| (AtomId(i), a))
    }

    /// `atoms(x)`: the atoms in which variable `x` occurs.
    pub fn atoms_of_var(&self, v: VarId) -> Vec<AtomId> {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.vars.contains(&v))
            .map(|(i, _)| AtomId(i))
            .collect()
    }

    /// `vars(Sj)`: the distinct variables of an atom.
    ///
    /// # Errors
    ///
    /// Returns [`CqError::UnknownAtom`] if the id is out of range.
    pub fn vars_of_atom(&self, a: AtomId) -> Result<BTreeSet<VarId>> {
        Ok(self.atom(a)?.distinct_vars())
    }

    /// Variables adjacent to `v` in the hypergraph (co-occurring in some
    /// atom), excluding `v` itself.
    pub fn neighbours(&self, v: VarId) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        for a in &self.atoms {
            if a.vars.contains(&v) {
                for &w in &a.vars {
                    if w != v {
                        out.insert(w);
                    }
                }
            }
        }
        out
    }

    /// The sub*query* induced by a subset of atoms: atoms outside the set
    /// are dropped and only the variables occurring in the kept atoms
    /// remain. Variable and relation names are preserved.
    ///
    /// # Errors
    ///
    /// Returns [`CqError::EmptyQuery`] if `keep` is empty and
    /// [`CqError::UnknownAtom`] if any id is out of range.
    pub fn induced_subquery(&self, keep: &[AtomId]) -> Result<Query> {
        if keep.is_empty() {
            return Err(CqError::EmptyQuery);
        }
        let keep_set: BTreeSet<AtomId> = keep.iter().copied().collect();
        for a in &keep_set {
            if a.0 >= self.atoms.len() {
                return Err(CqError::UnknownAtom(a.0));
            }
        }
        let mut new_var_names = Vec::new();
        let mut remap: BTreeMap<VarId, VarId> = BTreeMap::new();
        let mut new_atoms = Vec::new();
        for (i, atom) in self.atoms.iter().enumerate() {
            if !keep_set.contains(&AtomId(i)) {
                continue;
            }
            let vars = atom
                .vars
                .iter()
                .map(|v| {
                    *remap.entry(*v).or_insert_with(|| {
                        let id = VarId(new_var_names.len());
                        new_var_names.push(self.var_names[v.0].clone());
                        id
                    })
                })
                .collect();
            new_atoms.push(Atom { name: atom.name.clone(), vars });
        }
        Query::from_parts(format!("{}[{}]", self.name, keep_set.len()), new_var_names, new_atoms)
    }

    /// The complement of an atom set: `atoms(q) − M`.
    pub fn complement_atoms(&self, m: &[AtomId]) -> Vec<AtomId> {
        let set: BTreeSet<AtomId> = m.iter().copied().collect();
        self.atom_ids().filter(|a| !set.contains(a)).collect()
    }

    /// Rename the query (returns a copy with the new head symbol).
    pub fn with_name<S: Into<String>>(&self, name: S) -> Query {
        let mut q = self.clone();
        q.name = name.into();
        q
    }

    /// True if some variable occurs in **every** atom.
    ///
    /// Corollary 3.10 of the paper: this holds iff `τ*(q) = 1`, i.e. iff the
    /// query has space exponent 0 (computable in one round without
    /// replication on matching databases).
    pub fn has_variable_in_all_atoms(&self) -> bool {
        self.var_ids().any(|v| self.atoms.iter().all(|a| a.vars.contains(&v)))
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, v) in self.var_names.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ") :- ")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", a.name)?;
            for (j, v) in a.vars.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", self.var_names[v.0])?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Query {
        Query::new(
            "C3",
            vec![("S1", vec!["x1", "x2"]), ("S2", vec!["x2", "x3"]), ("S3", vec!["x3", "x1"])],
        )
        .unwrap()
    }

    #[test]
    fn basic_counts() {
        let q = triangle();
        assert_eq!(q.num_vars(), 3);
        assert_eq!(q.num_atoms(), 3);
        assert_eq!(q.total_arity(), 6);
        assert_eq!(q.name(), "C3");
    }

    #[test]
    fn rejects_self_join() {
        let err = Query::new("q", vec![("S", vec!["x", "y"]), ("S", vec!["y", "z"])]).unwrap_err();
        assert_eq!(err, CqError::SelfJoin("S".to_string()));
    }

    #[test]
    fn rejects_empty_query() {
        let atoms: Vec<(&str, Vec<&str>)> = vec![];
        let err = Query::new("q", atoms).unwrap_err();
        assert_eq!(err, CqError::EmptyQuery);
    }

    #[test]
    fn rejects_nullary_atom() {
        let err = Query::new("q", vec![("S", Vec::<&str>::new())]).unwrap_err();
        assert_eq!(err, CqError::NullaryAtom("S".to_string()));
    }

    #[test]
    fn var_lookup_round_trips() {
        let q = triangle();
        for v in q.var_ids() {
            let name = q.var_name(v).unwrap();
            assert_eq!(q.var_id(name), Some(v));
        }
        assert_eq!(q.var_id("nope"), None);
        assert!(q.var_name(VarId(99)).is_err());
    }

    #[test]
    fn atoms_of_var_and_vars_of_atom() {
        let q = triangle();
        let x2 = q.var_id("x2").unwrap();
        let atoms = q.atoms_of_var(x2);
        assert_eq!(atoms.len(), 2);
        let s1 = q.atom_by_name("S1").unwrap().0;
        let vars = q.vars_of_atom(s1).unwrap();
        assert_eq!(vars.len(), 2);
        assert!(vars.contains(&q.var_id("x1").unwrap()));
    }

    #[test]
    fn neighbours_of_triangle_variable() {
        let q = triangle();
        let x1 = q.var_id("x1").unwrap();
        let nb = q.neighbours(x1);
        assert_eq!(nb.len(), 2);
    }

    #[test]
    fn induced_subquery_keeps_names() {
        let q = triangle();
        let s1 = q.atom_by_name("S1").unwrap().0;
        let s2 = q.atom_by_name("S2").unwrap().0;
        let sub = q.induced_subquery(&[s1, s2]).unwrap();
        assert_eq!(sub.num_atoms(), 2);
        assert_eq!(sub.num_vars(), 3);
        assert!(sub.atom_by_name("S1").is_some());
        assert!(sub.atom_by_name("S3").is_none());
    }

    #[test]
    fn induced_subquery_rejects_empty() {
        let q = triangle();
        assert!(q.induced_subquery(&[]).is_err());
    }

    #[test]
    fn complement_atoms_partitions() {
        let q = triangle();
        let s1 = q.atom_by_name("S1").unwrap().0;
        let rest = q.complement_atoms(&[s1]);
        assert_eq!(rest.len(), 2);
        assert!(!rest.contains(&s1));
    }

    #[test]
    fn display_round_trips_shape() {
        let q = triangle();
        let s = q.to_string();
        assert!(s.starts_with("C3("));
        assert!(s.contains("S1(x1,x2)"));
        assert!(s.contains(":-"));
    }

    #[test]
    fn variable_in_all_atoms_detection() {
        let q = triangle();
        assert!(!q.has_variable_in_all_atoms());
        let star =
            Query::new("T2", vec![("S1", vec!["z", "x1"]), ("S2", vec!["z", "x2"])]).unwrap();
        assert!(star.has_variable_in_all_atoms());
    }

    #[test]
    fn repeated_variable_positions_allowed() {
        let q = Query::new("q", vec![("S", vec!["x", "x"])]).unwrap();
        assert_eq!(q.num_vars(), 1);
        assert_eq!(q.total_arity(), 2);
        assert_eq!(q.atoms()[0].distinct_vars().len(), 1);
    }
}
