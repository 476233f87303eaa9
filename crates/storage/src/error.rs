//! Error type for the storage layer.

use std::fmt;

/// Errors raised while constructing database instances or evaluating
/// queries on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A query atom references a relation that the database does not
    /// contain.
    MissingRelation(String),
    /// The arity of a relation instance does not match the atom that uses
    /// it.
    ArityMismatch {
        /// Relation symbol.
        relation: String,
        /// Arity expected by the query atom.
        expected: usize,
        /// Arity of the stored instance.
        actual: usize,
    },
    /// A tuple has the wrong arity for the relation it is inserted into.
    TupleArity {
        /// Relation symbol.
        relation: String,
        /// Arity of the relation.
        expected: usize,
        /// Arity of the offending tuple.
        actual: usize,
    },
    /// A relation would grow past the `u32::MAX` rows its row ids can
    /// address.
    TooManyRows {
        /// Relation symbol.
        relation: String,
    },
    /// A query-level error (propagated from `mpc-cq`).
    Query(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::MissingRelation(r) => write!(f, "relation `{r}` not found in database"),
            StorageError::ArityMismatch { relation, expected, actual } => write!(
                f,
                "relation `{relation}` has arity {actual} but the query expects arity {expected}"
            ),
            StorageError::TupleArity { relation, expected, actual } => write!(
                f,
                "tuple of arity {actual} inserted into relation `{relation}` of arity {expected}"
            ),
            StorageError::TooManyRows { relation } => {
                write!(f, "relation `{relation}` cannot hold more than {} rows", u32::MAX)
            }
            StorageError::Query(msg) => write!(f, "query error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<mpc_cq::CqError> for StorageError {
    fn from(e: mpc_cq::CqError) -> Self {
        StorageError::Query(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(StorageError::MissingRelation("R".into()).to_string().contains('R'));
        let e = StorageError::ArityMismatch { relation: "S".into(), expected: 2, actual: 3 };
        assert!(e.to_string().contains("arity 3"));
    }
}
