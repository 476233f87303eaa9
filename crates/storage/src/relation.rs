//! Tuples and relation instances.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::StorageError;
use crate::hash::hash_row;
use crate::Result;

/// A database value. The paper's matching databases draw values from the
/// domain `[n] = {1, …, n}`; we use `u64` throughout.
pub type Value = u64;

/// An owned fixed-arity tuple of values — the row type of
/// `mpc_sim::Routed` and of [`Relation::insert`]. Rows *stored* in a
/// [`Relation`] are lent as `&[Value]` instead.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Tuple(pub Vec<Value>);

impl Tuple {
    /// Create a tuple from a value slice.
    pub fn new<V: Into<Vec<Value>>>(values: V) -> Self {
        Tuple(values.into())
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// The value at a position.
    pub fn get(&self, i: usize) -> Option<Value> {
        self.0.get(i).copied()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl AsRef<[Value]> for Tuple {
    fn as_ref(&self) -> &[Value] {
        &self.0
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple(values)
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    fn from(values: [Value; N]) -> Self {
        Tuple(values.to_vec())
    }
}

/// A named relation instance: a set of rows of fixed arity.
///
/// Rows live in one row-major `Vec<Value>` and are lent out as `&[Value]`;
/// nothing is allocated per row. Duplicates are eliminated through an
/// open-addressing table of `u32` row ids (linear probing, the crate's
/// fixed multiply-rotate hash), so iteration order is the insertion order
/// of the first occurrence — which keeps downstream algorithms
/// deterministic. A relation holds at most `u32::MAX - 1` rows.
///
/// Rows enter in one of two ways. [`Relation::insert_row`] and its bulk
/// forms deduplicate at once. [`Relation::append_rows`] only checks the
/// arity and copies the rows behind the settled ones, into an *unsettled
/// tail*; [`Relation::settle`] deduplicates the whole tail in one pass
/// over a table sized for it up front. Every reader — [`Relation::len`],
/// [`Relation::iter`], [`Relation::contains`] — sees the settled rows
/// only, so a receiver appends what arrives during a round and settles
/// once before it reads. An eager insertion settles the tail first.
///
/// Equality compares name, arity and the rows *in order*; use
/// [`Relation::same_tuples`] to compare as sets.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    arity: usize,
    /// Settled row count, tracked explicitly so arity-0 relations still
    /// count.
    rows: usize,
    /// Rows appended since the last settle — counted, not derived from
    /// `values`, for the same reason.
    tail: usize,
    /// `(rows + tail) × arity` values, row-major: the settled rows, then
    /// the tail.
    values: Vec<Value>,
    /// Row ids (or [`VACANT`]); the length is zero or a power of two, kept
    /// at most half full.
    slots: Vec<u32>,
}

/// The empty-slot marker — which is why row ids stop at `u32::MAX - 1`.
const VACANT: u32 = u32::MAX;

/// Slots allocated by the first insertion.
const MIN_SLOTS: usize = 16;

/// The row id of the next row of a relation holding `rows` rows.
fn next_row_id(name: &str, rows: usize) -> Result<u32> {
    u32::try_from(rows)
        .ok()
        .filter(|&id| id != VACANT)
        .ok_or_else(|| StorageError::TooManyRows { relation: name.to_string() })
}

impl Relation {
    /// Create an empty relation with the given name and arity.
    pub fn empty<S: Into<String>>(name: S, arity: usize) -> Self {
        Relation {
            name: name.into(),
            arity,
            rows: 0,
            tail: 0,
            values: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Create a relation from an iterator of rows.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::TupleArity`] if a row's arity differs from
    /// `arity`.
    pub fn from_tuples<S, I, T>(name: S, arity: usize, tuples: I) -> Result<Self>
    where
        S: Into<String>,
        I: IntoIterator<Item = T>,
        T: AsRef<[Value]>,
    {
        let mut rel = Relation::empty(name, arity);
        for t in tuples {
            rel.insert_row(t.as_ref())?;
        }
        Ok(rel)
    }

    /// The relation symbol.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The arity (number of columns).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (distinct) settled rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the relation has no settled rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// True when no appended row waits for [`Relation::settle`].
    pub fn is_settled(&self) -> bool {
        self.tail == 0
    }

    /// Insert an owned tuple; see [`Relation::insert_row`].
    ///
    /// # Errors
    ///
    /// As for [`Relation::insert_row`].
    pub fn insert(&mut self, t: Tuple) -> Result<bool> {
        self.insert_row(t.values())
    }

    /// Insert a row; duplicates are ignored. Returns `true` if the row was
    /// new.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::TupleArity`] if the arity does not match and
    /// [`StorageError::TooManyRows`] past `u32::MAX - 1` rows.
    pub fn insert_row(&mut self, row: &[Value]) -> Result<bool> {
        if row.len() != self.arity {
            return Err(self.arity_error(row.len()));
        }
        self.settle()?;
        self.values.extend_from_slice(row);
        let fresh = self.commit_row();
        self.values.truncate(self.rows * self.arity);
        fresh
    }

    /// Insert `rows` rows given as one row-major slice — the layout of a
    /// transport block and of [`Relation`] itself — deduplicating as
    /// [`Relation::insert_row`] does. Returns how many rows were new.
    ///
    /// # Errors
    ///
    /// As for [`Relation::append_rows`] — nothing is inserted then — and
    /// [`StorageError::TooManyRows`] past `u32::MAX - 1` rows, with the
    /// rows before the failing one inserted.
    pub fn insert_rows(&mut self, rows: usize, values: &[Value]) -> Result<usize> {
        self.settle()?;
        let before = self.rows;
        self.append_rows(rows, values)?;
        self.settle()?;
        Ok(self.rows - before)
    }

    /// Insert every row of `other` (its unsettled tail included),
    /// deduplicating. Returns how many rows were new. An empty `other` is
    /// a no-op whatever its arity.
    ///
    /// # Errors
    ///
    /// As for [`Relation::insert_rows`].
    pub fn extend_from(&mut self, other: &Relation) -> Result<usize> {
        match other.rows + other.tail {
            0 => Ok(0),
            rows => self.insert_rows(rows, &other.values),
        }
    }

    /// Append `rows` rows given as one row-major slice to the unsettled
    /// tail, without deduplicating: one arity check and one copy. The row
    /// count is explicit because zero-arity rows occupy no values.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::TupleArity`] (reporting the row width the
    /// slice implies, `values.len() / rows`) unless `values` holds exactly
    /// `rows × arity` values; nothing is appended then.
    pub fn append_rows(&mut self, rows: usize, values: &[Value]) -> Result<()> {
        if rows.checked_mul(self.arity) != Some(values.len()) {
            return Err(self.arity_error(values.len().checked_div(rows).unwrap_or(values.len())));
        }
        self.values.extend_from_slice(values);
        // Zero-arity rows are all the same row, so one of them stands for
        // them all — and a block header can announce 2³² of them in no bytes.
        self.tail = if self.arity == 0 { self.tail.max(rows.min(1)) } else { self.tail + rows };
        Ok(())
    }

    /// Append every row of `other`, settled or not, to the unsettled tail.
    /// An empty `other` is a no-op whatever its arity.
    ///
    /// # Errors
    ///
    /// As for [`Relation::append_rows`].
    pub fn append_from(&mut self, other: &Relation) -> Result<()> {
        match other.rows + other.tail {
            0 => Ok(()),
            rows => self.append_rows(rows, &other.values),
        }
    }

    /// Deduplicate the unsettled tail into the settled rows in one pass:
    /// the table is sized for the whole tail first, and each row is kept
    /// (moved down behind the last kept one) only at its first occurrence
    /// — the rows, their order and the count [`Relation::insert_row`]
    /// would have produced.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::TooManyRows`] past `u32::MAX - 1` rows; the
    /// rows before the failing one are kept, the rest of the tail dropped.
    pub fn settle(&mut self) -> Result<()> {
        let tail = std::mem::take(&mut self.tail);
        if tail == 0 {
            return Ok(());
        }
        self.reserve_slots(tail);
        let (arity, end) = (self.arity, self.rows + tail);
        let mut settled = Ok(());
        for r in self.rows..end {
            if r != self.rows {
                self.values.copy_within(r * arity..(r + 1) * arity, self.rows * arity);
            }
            if let Err(e) = self.commit_row() {
                settled = Err(e);
                break;
            }
        }
        self.values.truncate(self.rows * arity);
        settled
    }

    /// Make room for `additional` more rows without regrowing.
    pub fn reserve(&mut self, additional: usize) {
        self.values.reserve(additional.saturating_mul(self.arity));
        self.reserve_slots(additional);
    }

    /// Membership test, for a lent row (`&[Value]`), an array or an owned
    /// [`Tuple`].
    pub fn contains<R: AsRef<[Value]> + ?Sized>(&self, row: &R) -> bool {
        let row = row.as_ref();
        row.len() == self.arity && !self.slots.is_empty() && self.find(row).is_ok()
    }

    /// The row at position `i` of the insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> &[Value] {
        assert!(i < self.rows, "row {i} of a relation with {} rows", self.rows);
        &self.values[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterate over the rows, in deterministic (first-insertion) order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Value]> + Clone + '_ {
        (0..self.rows).map(move |i| &self.values[i * self.arity..(i + 1) * self.arity])
    }

    /// Rename the relation (returns a copy).
    pub fn with_name<S: Into<String>>(&self, name: S) -> Relation {
        let mut r = self.clone();
        r.name = name.into();
        r
    }

    /// Size of the relation in bytes, counting 8 bytes per value. This is
    /// the accounting unit used by the simulator's load bounds.
    pub fn size_in_bytes(&self) -> u64 {
        (self.len() as u64) * (self.arity as u64) * 8
    }

    /// The set of rows as a sorted vector of owned tuples (useful for
    /// equality checks in tests, ignoring insertion order).
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.iter().map(Tuple::new).collect();
        v.sort();
        v
    }

    /// True if two relations contain exactly the same row sets
    /// (names and insertion order are ignored).
    pub fn same_tuples(&self, other: &Relation) -> bool {
        self.arity == other.arity
            && self.rows == other.rows
            && self.iter().all(|row| other.contains(row))
    }

    fn arity_error(&self, actual: usize) -> StorageError {
        StorageError::TupleArity { relation: self.name.clone(), expected: self.arity, actual }
    }

    /// Grow the table, if need be, so `additional` more rows fit without
    /// a rehash.
    fn reserve_slots(&mut self, additional: usize) {
        let wanted = self.rows.saturating_add(additional).min(VACANT as usize);
        if wanted * 2 > self.slots.len() {
            self.rehash((wanted * 2).next_power_of_two().max(MIN_SLOTS));
        }
    }

    /// Where `row` is: `Ok(slot)` holding its id, or `Err(slot)` of the
    /// vacancy a probe for it ends at. Needs a non-empty table.
    fn find(&self, row: &[Value]) -> std::result::Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut slot = (hash_row(row) >> shift) as usize;
        loop {
            match self.slots[slot] {
                VACANT => return Err(slot),
                id => {
                    let at = id as usize * self.arity;
                    if &self.values[at..at + self.arity] == row {
                        return Ok(slot);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Decide the fate of the candidate row sitting just past the last
    /// settled one in `values`: index it if new. `values` is left as it
    /// is either way; the caller overwrites or truncates a duplicate.
    fn commit_row(&mut self) -> Result<bool> {
        let id = next_row_id(&self.name, self.rows)?;
        if (self.rows + 1) * 2 > self.slots.len() {
            self.rehash((self.slots.len() * 2).max(MIN_SLOTS));
        }
        let at = self.rows * self.arity;
        match self.find(&self.values[at..at + self.arity]) {
            Err(vacancy) => {
                self.slots[vacancy] = id;
                self.rows += 1;
                Ok(true)
            }
            Ok(_) => Ok(false),
        }
    }

    /// Rebuild the table with `slots` slots (a power of two).
    fn rehash(&mut self, slots: usize) {
        debug_assert!(slots.is_power_of_two() && slots >= self.rows * 2);
        self.slots.clear();
        self.slots.resize(slots, VACANT);
        for id in 0..self.rows {
            let row = &self.values[id * self.arity..(id + 1) * self.arity];
            let vacancy = self.find(row).expect_err("stored rows are distinct");
            self.slots[vacancy] = id as u32;
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.arity == other.arity
            && self.rows == other.rows
            && self.tail == other.tail
            && self.values == other.values
    }
}

impl Eq for Relation {}

/// Serialises as `{name, arity, tuples: [[v, …], …]}`; the deduplication
/// table is rebuilt on construction, so round-tripping goes through
/// [`Relation::from_tuples`].
impl Serialize for Relation {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("name".to_string(), self.name.to_json_value()),
            ("arity".to_string(), self.arity.to_json_value()),
            (
                "tuples".to_string(),
                serde::Value::Array(self.iter().map(|row| row.to_json_value()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_basics() {
        let t = Tuple::from([1, 2, 3]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(1), Some(2));
        assert_eq!(t.get(5), None);
        assert_eq!(t.to_string(), "(1,2,3)");
    }

    #[test]
    fn relation_dedups() {
        let mut r = Relation::empty("R", 2);
        assert!(r.insert(Tuple::from([1, 2])).unwrap());
        assert!(!r.insert(Tuple::from([1, 2])).unwrap());
        assert!(r.insert(Tuple::from([2, 1])).unwrap());
        assert_eq!(r.len(), 2);
        assert!(r.contains(&Tuple::from([1, 2])));
        assert!(!r.contains(&Tuple::from([9, 9])));
    }

    #[test]
    fn relation_rejects_wrong_arity() {
        let mut r = Relation::empty("R", 2);
        let err = r.insert(Tuple::from([1, 2, 3])).unwrap_err();
        assert!(matches!(err, StorageError::TupleArity { .. }));
    }

    #[test]
    fn row_ids_stop_short_of_the_vacancy_marker() {
        assert_eq!(next_row_id("R", 0), Ok(0));
        assert_eq!(next_row_id("R", VACANT as usize - 1), Ok(VACANT - 1));
        let full = StorageError::TooManyRows { relation: "R".into() };
        assert_eq!(next_row_id("R", VACANT as usize), Err(full.clone()));
        assert_eq!(next_row_id("R", usize::MAX), Err(full));
    }

    #[test]
    fn from_tuples_builder() {
        let r = Relation::from_tuples("R", 2, vec![[1u64, 2], [3, 4], [1, 2]]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.name(), "R");
        assert!(Relation::from_tuples("R", 1, vec![[1u64, 2]]).is_err());
    }

    #[test]
    fn size_accounting() {
        let r = Relation::from_tuples("R", 2, vec![[1u64, 2], [3, 4]]).unwrap();
        assert_eq!(r.size_in_bytes(), 2 * 2 * 8);
    }

    #[test]
    fn same_tuples_ignores_order_and_name() {
        let a = Relation::from_tuples("A", 2, vec![[1u64, 2], [3, 4]]).unwrap();
        let b = Relation::from_tuples("B", 2, vec![[3u64, 4], [1, 2]]).unwrap();
        assert!(a.same_tuples(&b));
        let c = Relation::from_tuples("C", 2, vec![[3u64, 4]]).unwrap();
        assert!(!a.same_tuples(&c));
    }

    #[test]
    fn sorted_tuples_is_sorted() {
        let r = Relation::from_tuples("R", 1, vec![[3u64], [1], [2]]).unwrap();
        assert_eq!(r.sorted_tuples(), vec![Tuple::from([1]), Tuple::from([2]), Tuple::from([3])]);
    }
}
