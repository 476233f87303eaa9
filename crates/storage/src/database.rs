//! Database instances: a binding of relation symbols to instances.

use std::collections::BTreeMap;

use serde::Serialize;

use mpc_cq::Query;

use crate::error::StorageError;
use crate::relation::Relation;
use crate::Result;

/// Anything that can lend relation instances by symbol — the read-only
/// view [`crate::join::evaluate`] takes of its input. [`Database`]
/// implements it, and so does the simulator's per-server state, which is
/// how a server's local join reads the relations it received in place.
pub trait RelationSource {
    /// The instance bound to `name`, if any.
    fn get_relation(&self, name: &str) -> Option<&Relation>;
}

/// The instance `source` binds to `name`.
pub(crate) fn require<'a, S: RelationSource + ?Sized>(
    source: &'a S,
    name: &str,
) -> Result<&'a Relation> {
    source.get_relation(name).ok_or_else(|| StorageError::MissingRelation(name.to_string()))
}

/// Check that `source` binds every atom of `q` to a relation of the
/// correct arity.
pub(crate) fn validate<S: RelationSource + ?Sized>(source: &S, q: &Query) -> Result<()> {
    for atom in q.atoms() {
        let rel = require(source, &atom.name)?;
        if rel.arity() != atom.arity() {
            return Err(StorageError::ArityMismatch {
                relation: atom.name.clone(),
                expected: atom.arity(),
                actual: rel.arity(),
            });
        }
    }
    Ok(())
}

/// A database instance over a domain `[n] = {1, …, n}`.
///
/// Relations are keyed by their symbol; a query can be evaluated on the
/// database as long as every atom's relation symbol is bound with the right
/// arity ([`Database::validate_for`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Database {
    domain_size: u64,
    relations: BTreeMap<String, Relation>,
}

impl Database {
    /// Create an empty database over the domain `[n]`.
    pub fn new(domain_size: u64) -> Self {
        Database { domain_size, relations: BTreeMap::new() }
    }

    /// The domain size `n`.
    pub fn domain_size(&self) -> u64 {
        self.domain_size
    }

    /// Insert (or replace) a relation instance.
    pub fn insert_relation(&mut self, relation: Relation) {
        self.relations.insert(relation.name().to_string(), relation);
    }

    /// Retrieve a relation by symbol.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::MissingRelation`] if the symbol is unbound.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        require(self, name)
    }

    /// All relations, keyed by symbol.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// The largest relation cardinality `n` (the paper's `n`); zero for an
    /// empty database.
    pub fn max_relation_size(&self) -> usize {
        self.relations.values().map(Relation::len).max().unwrap_or(0)
    }

    /// Total size in bytes (8 bytes per value), the simulator's `N`.
    pub fn total_bytes(&self) -> u64 {
        self.relations.values().map(Relation::size_in_bytes).sum()
    }

    /// Check that every atom of `q` is bound to a relation of the correct
    /// arity.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::MissingRelation`] or
    /// [`StorageError::ArityMismatch`] accordingly.
    pub fn validate_for(&self, q: &Query) -> Result<()> {
        validate(self, q)
    }
}

impl RelationSource for Database {
    fn get_relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;

    fn sample_db() -> Database {
        let mut db = Database::new(4);
        db.insert_relation(
            Relation::from_tuples("S1", 2, vec![[1u64, 2], [2, 3], [3, 4], [4, 1]]).unwrap(),
        );
        db.insert_relation(
            Relation::from_tuples("S2", 2, vec![[1u64, 2], [2, 3], [3, 4], [4, 1]]).unwrap(),
        );
        db
    }

    #[test]
    fn insert_and_lookup() {
        let db = sample_db();
        assert_eq!(db.relations.len(), 2);
        assert_eq!(db.relation("S1").unwrap().len(), 4);
        assert!(db.relation("S9").is_err());
        assert_eq!(db.domain_size(), 4);
    }

    #[test]
    fn size_accounting() {
        let db = sample_db();
        assert_eq!(db.total_bytes(), 8 * 2 * 8);
        assert_eq!(db.max_relation_size(), 4);
    }

    #[test]
    fn validate_for_query() {
        let db = sample_db();
        let l2 = families::chain(2);
        assert!(db.validate_for(&l2).is_ok());
        let l3 = families::chain(3);
        assert!(matches!(db.validate_for(&l3), Err(StorageError::MissingRelation(_))));

        let mut bad = sample_db();
        bad.insert_relation(Relation::from_tuples("S2", 3, vec![[1u64, 2, 3]]).unwrap());
        assert!(matches!(bad.validate_for(&l2), Err(StorageError::ArityMismatch { .. })));
    }
}
