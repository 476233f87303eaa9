//! Per-server state: everything a simulated worker knows.

use mpc_storage::{Relation, RelationSource, StorageError, Tuple, Value};

use crate::block::TupleBlock;

/// The accumulated knowledge of one worker server.
///
/// A server knows (a) every tuple it has received in any round, grouped by
/// the tag (relation name) it was sent under, and (b) every relation it has
/// derived locally via [`ServerState::add_local`]. The distinction matters
/// only for accounting: received data is charged against the round's load
/// budget, locally derived data is free (local computation is unbounded in
/// the MPC model).
///
/// A round's deliveries are collected in a [`RoundStage`] and reach the
/// state in one [`ServerState::merge_stage`] when the round closes, on
/// every executor: merging only appends (a tag new to the server moves in
/// whole). Set semantics are restored right after, by the driver, in one
/// [`ServerState::settle`] before the state is lent to the program;
/// reading a relation with rows still unsettled is a bug, caught by a
/// debug assertion.
///
/// The state lends its relations to the local join engine in place
/// ([`RelationSource`]): `mpc_storage::join::evaluate(&query, &state)`.
#[derive(Debug, Clone)]
pub struct ServerState {
    id: usize,
    domain_size: u64,
    /// Sorted by name (a relation carries its own), so a tag resolves in
    /// one binary search and iteration is in tag order.
    relations: Vec<Relation>,
    bytes_received: Vec<u64>,
    tuples_received: Vec<u64>,
}

impl RelationSource for ServerState {
    fn get_relation(&self, name: &str) -> Option<&Relation> {
        self.relation(name)
    }
}

/// Where `tag` is, or belongs, in a name-sorted relation list.
fn position(relations: &[Relation], tag: &str) -> Result<usize, usize> {
    relations.binary_search_by(|rel| rel.name().cmp(tag))
}

/// The relation stored under `tag` in a name-sorted list, created empty
/// with `arity` columns on first use.
fn relation_under<'a>(
    relations: &'a mut Vec<Relation>,
    tag: &str,
    arity: usize,
) -> &'a mut Relation {
    let at = position(relations, tag).unwrap_or_else(|at| {
        relations.insert(at, Relation::empty(tag, arity));
        at
    });
    &mut relations[at]
}

impl ServerState {
    /// Create the empty state of server `id` for a database over `[n]`.
    pub fn new(id: usize, domain_size: u64) -> Self {
        ServerState {
            id,
            domain_size,
            relations: Vec::new(),
            bytes_received: Vec::new(),
            tuples_received: Vec::new(),
        }
    }

    /// This server's index in `0..p`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The domain size of the input database.
    pub fn domain_size(&self) -> u64 {
        self.domain_size
    }

    /// Record the delivery of one owned tuple under `tag` during `round`
    /// (1-based), settled at once and charged against that round; a
    /// duplicate still costs its bytes.
    ///
    /// # Panics
    ///
    /// Panics if `tag` already holds tuples of another arity.
    pub fn receive(&mut self, round: usize, tag: &str, tuple: Tuple) {
        self.receive_many(round, tag, tuple.arity(), [tuple]);
    }

    /// [`ServerState::receive`] for a batch of owned `arity`-wide tuples
    /// under one `tag`.
    ///
    /// # Panics
    ///
    /// Panics if a tuple's arity differs from the tag's.
    pub fn receive_many<I>(&mut self, round: usize, tag: &str, arity: usize, tuples: I)
    where
        I: IntoIterator<Item = Tuple>,
    {
        let rel = relation_under(&mut self.relations, tag, arity);
        let mut count = 0u64;
        for t in tuples {
            rel.append_rows(1, t.values()).expect("tuples under the same tag have the same arity");
            count += 1;
        }
        rel.settle().expect("a relation holds fewer than 2³² rows");
        self.credit_received(round, count * (arity as u64) * 8, count);
    }

    /// Deduplicate every relation's appended rows — once per round, before
    /// the state is read.
    ///
    /// # Errors
    ///
    /// [`StorageError::TooManyRows`] when a relation outgrows its row ids.
    pub fn settle(&mut self) -> Result<(), StorageError> {
        self.relations.iter_mut().try_for_each(Relation::settle)
    }

    /// Charge `bytes`/`tuples` of received volume against `round` without
    /// touching any relation — what a merged stage or a restored
    /// checkpoint is charged with.
    pub(crate) fn credit_received(&mut self, round: usize, bytes: u64, tuples: u64) {
        while self.bytes_received.len() < round {
            self.bytes_received.push(0);
            self.tuples_received.push(0);
        }
        self.bytes_received[round - 1] += bytes;
        self.tuples_received[round - 1] += tuples;
    }

    /// Add a locally derived relation (no communication cost). Rows are
    /// merged into any existing relation with the same name; when the tag
    /// is new the whole relation is moved in without re-hashing.
    ///
    /// # Panics
    ///
    /// Panics if the tag already holds rows of another arity — use
    /// [`ServerState::merge_local`] for relations that came from outside
    /// the program.
    pub fn add_local(&mut self, rel: Relation) {
        self.merge_local(rel).expect("matching arity under the same tag");
    }

    /// [`ServerState::add_local`] for relations rebuilt from bytes off a
    /// socket (staged blocks, checkpoints).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::TupleArity`] if the tag already holds rows
    /// of another arity.
    pub fn merge_local(&mut self, rel: Relation) -> Result<(), StorageError> {
        match position(&self.relations, rel.name()) {
            Ok(at) => self.relations[at].extend_from(&rel).map(|_| ()),
            Err(at) => {
                self.relations.insert(at, rel);
                Ok(())
            }
        }
    }

    /// Append a stage's rows — everything a worker received in `round`,
    /// or one sender's round on the reference loop — and charge their
    /// volume to `round`; duplicate rows still cost their bytes. A tag new
    /// to the server moves in whole.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::TupleArity`] if a staged tag already holds
    /// rows of another arity here.
    pub fn merge_stage(&mut self, round: usize, stage: RoundStage) -> Result<(), StorageError> {
        for rel in stage.rels {
            match position(&self.relations, rel.name()) {
                Ok(at) => self.relations[at].append_from(&rel)?,
                Err(at) => self.relations.insert(at, rel),
            }
        }
        self.credit_received(round, stage.bytes, stage.tuples);
        Ok(())
    }

    /// The relation known under `tag`, if any.
    ///
    /// # Panics
    ///
    /// In debug builds, if the relation has rows not yet settled
    /// ([`ServerState::settle`]).
    pub fn relation(&self, tag: &str) -> Option<&Relation> {
        let rel = position(&self.relations, tag).ok().map(|at| &self.relations[at]);
        debug_assert!(rel.is_none_or(Relation::is_settled), "{tag} is read before it settled");
        rel
    }

    /// All known tags.
    pub fn tags(&self) -> impl Iterator<Item = &str> {
        self.relations.iter().map(Relation::name)
    }

    /// Every relation this server knows, in tag order — the snapshot a
    /// round checkpoint serialises.
    ///
    /// # Panics
    ///
    /// In debug builds, if a relation has rows not yet settled.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        debug_assert!(self.relations.iter().all(Relation::is_settled), "read before settling");
        self.relations.iter()
    }

    /// The per-round received volumes `(bytes, tuples)` up to and
    /// including `rounds` — the accounting half of a checkpoint.
    pub fn received_volumes(&self, rounds: usize) -> (Vec<u64>, Vec<u64>) {
        (
            (1..=rounds).map(|r| self.bytes_received_in_round(r)).collect(),
            (1..=rounds).map(|r| self.tuples_received_in_round(r)).collect(),
        )
    }

    /// Bytes received in a given round (1-based); 0 if nothing was received.
    pub(crate) fn bytes_received_in_round(&self, round: usize) -> u64 {
        self.bytes_received.get(round - 1).copied().unwrap_or(0)
    }

    /// Tuples received in a given round (1-based).
    pub fn tuples_received_in_round(&self, round: usize) -> u64 {
        self.tuples_received.get(round - 1).copied().unwrap_or(0)
    }
}

/// Rows held back from a server until their round closes: every block a
/// worker receives for that round (whether it raced ahead or not), or
/// what one sender routes to one destination on the reference loop. They
/// are appended into per-tag relations *on arrival*, unsettled, so when
/// the round closes whole relations are merged
/// ([`ServerState::merge_stage`]) instead of rows replayed — the one
/// ingest path of every backend.
#[derive(Debug, Default)]
pub struct RoundStage {
    /// Sorted by name, like [`ServerState`]'s.
    rels: Vec<Relation>,
    bytes: u64,
    tuples: u64,
}

impl RoundStage {
    /// Append one block's rows under its tag and account its volume.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::TupleArity`] if an earlier block under the
    /// same tag had another arity.
    pub fn absorb(&mut self, block: &TupleBlock) -> Result<(), StorageError> {
        relation_under(&mut self.rels, &block.tag, block.arity())
            .append_rows(block.len(), block.values())?;
        self.bytes += block.payload_bytes();
        self.tuples += block.len() as u64;
        Ok(())
    }

    /// Append one row under `tag` and account its volume.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::TupleArity`] if an earlier row under the
    /// same tag had another arity.
    pub fn push_row(&mut self, tag: &str, row: &[Value]) -> Result<(), StorageError> {
        relation_under(&mut self.rels, tag, row.len()).append_rows(1, row)?;
        self.bytes += (row.len() as u64) * 8;
        self.tuples += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mpc_storage::join::evaluate;
    use mpc_storage::Database;

    use super::*;

    #[test]
    fn receive_accumulates_and_accounts() {
        let mut s = ServerState::new(3, 100);
        s.receive(1, "R", Tuple::from([1, 2]));
        s.receive(1, "R", Tuple::from([3, 4]));
        s.receive(1, "R", Tuple::from([1, 2])); // duplicate tuple still costs bytes
        s.receive(2, "V", Tuple::from([9]));
        assert_eq!(s.relation("R").unwrap().len(), 2);
        assert_eq!(s.relation("V").unwrap().len(), 1);
        assert_eq!(s.bytes_received_in_round(1), 3 * 16);
        assert_eq!(s.bytes_received_in_round(2), 8);
        assert_eq!(s.tuples_received_in_round(1), 3);
        assert_eq!(s.bytes_received.iter().sum::<u64>(), 3 * 16 + 8);
        assert_eq!(s.bytes_received_in_round(5), 0);
    }

    #[test]
    fn receive_many_matches_tuplewise_receive() {
        let mut a = ServerState::new(0, 100);
        let mut b = ServerState::new(0, 100);
        let batch = vec![Tuple::from([1, 2]), Tuple::from([3, 4]), Tuple::from([1, 2])];
        for t in batch.clone() {
            a.receive(2, "R", t);
        }
        b.receive_many(2, "R", 2, batch);
        assert!(a.relation("R").unwrap().same_tuples(b.relation("R").unwrap()));
        assert_eq!(a.bytes_received_in_round(2), b.bytes_received_in_round(2));
        assert_eq!(a.tuples_received_in_round(2), b.tuples_received_in_round(2));
        assert_eq!(b.bytes_received_in_round(2), 3 * 16, "duplicates still cost");
    }

    #[test]
    fn credit_received_only_moves_counters() {
        let mut s = ServerState::new(0, 10);
        s.credit_received(3, 256, 4);
        assert_eq!(s.bytes_received_in_round(3), 256);
        assert_eq!(s.tuples_received_in_round(3), 4);
        assert_eq!(s.bytes_received_in_round(1), 0);
        assert_eq!(s.tags().count(), 0);
    }

    #[test]
    fn add_local_is_free() {
        let mut s = ServerState::new(0, 10);
        let rel = Relation::from_tuples("View", 2, vec![[1u64, 2], [3, 4]]).unwrap();
        s.add_local(rel);
        assert_eq!(s.relation("View").unwrap().len(), 2);
        assert_eq!(s.bytes_received.iter().sum::<u64>(), 0);
        // Merging with more local tuples under the same tag.
        s.add_local(Relation::from_tuples("View", 2, vec![[5u64, 6]]).unwrap());
        assert_eq!(s.relation("View").unwrap().len(), 3);
    }

    /// A block of `rows` under `tag`, as an assembler would seal it.
    fn block(tag: &str, round: usize, rows: &[&[Value]]) -> TupleBlock {
        TupleBlock::from_parts(
            Arc::from(tag),
            round,
            0,
            0,
            rows[0].len(),
            rows.len(),
            rows.concat(),
        )
    }

    #[test]
    fn lends_relations_to_the_local_join() {
        // The reference: a database over the same domain holding a copy of
        // every relation the server received.
        let q = mpc_cq::families::chain(3);
        let input = mpc_data::matching_database(&q, 50, 3);
        let mut s = ServerState::new(0, input.domain_size());
        let mut db = Database::new(input.domain_size());
        let mut stage = RoundStage::default();
        for rel in input.relations() {
            for row in rel.iter() {
                stage.push_row(rel.name(), row).unwrap();
            }
            db.insert_relation(rel.clone());
        }
        s.merge_stage(1, stage).unwrap();
        s.add_local(Relation::from_tuples("Unrelated", 1, vec![[7u64]]).unwrap());
        s.settle().unwrap();
        let lent = evaluate(&q, &s).unwrap();
        assert_eq!(lent, evaluate(&q, &db).unwrap(), "same rows in the same order");
        assert_eq!(lent.len(), 50);
        // A missing atom is the same error on both.
        let l4 = mpc_cq::families::chain(4);
        assert_eq!(evaluate(&l4, &s).unwrap_err(), evaluate(&l4, &db).unwrap_err());
    }

    /// A stage holding `blocks`, absorbed in order.
    fn staged(blocks: &[TupleBlock]) -> RoundStage {
        let mut stage = RoundStage::default();
        blocks.iter().for_each(|b| stage.absorb(b).unwrap());
        stage
    }

    #[test]
    fn an_absorbed_block_matches_rowwise_pushes() {
        let rows: [&[Value]; 3] = [&[1, 2], &[3, 4], &[1, 2]];
        let mut by_row = RoundStage::default();
        for row in rows {
            by_row.push_row("R", row).unwrap();
        }
        let mut a = ServerState::new(0, 100);
        let mut b = ServerState::new(0, 100);
        a.merge_stage(2, by_row).unwrap();
        b.merge_stage(2, staged(&[block("R", 2, &rows)])).unwrap();
        a.settle().unwrap();
        b.settle().unwrap();
        assert_eq!(a.relation("R"), b.relation("R"));
        assert_eq!(b.relation("R").unwrap().len(), 2);
        assert_eq!(a.received_volumes(2), b.received_volumes(2));
        assert_eq!(b.bytes_received_in_round(2), 3 * 16, "duplicates still cost");
    }

    #[test]
    fn a_block_of_another_arity_is_an_error_not_a_panic() {
        let mut s = ServerState::new(0, 100);
        s.merge_stage(1, staged(&[block("S1", 1, &[&[1, 2]])])).unwrap();
        let err = s.merge_stage(1, staged(&[block("S1", 1, &[&[1, 2, 3]])])).unwrap_err();
        assert!(matches!(err, StorageError::TupleArity { expected: 2, actual: 3, .. }));
        let mut row = RoundStage::default();
        row.push_row("S1", &[9]).unwrap();
        assert!(s.merge_stage(1, row).is_err());
        assert_eq!(s.tuples_received_in_round(1), 1, "rejected deliveries are not charged");

        // Within one stage the clash shows at absorb, against the state at
        // merge.
        let mut stage = RoundStage::default();
        stage.absorb(&block("T", 2, &[&[1, 2]])).unwrap();
        assert!(stage.absorb(&block("T", 2, &[&[1]])).is_err());
        stage.absorb(&block("S1", 2, &[&[1, 2, 3]])).unwrap();
        assert!(s.merge_stage(2, stage).is_err());
    }

    #[test]
    fn stages_merged_per_sender_equal_one_stage() {
        // The reference loop merges one stage per sender, a worker one
        // stage for the whole round.
        let blocks = [block("R", 2, &[&[1, 2], &[3, 4]]), block("R", 2, &[&[3, 4], &[5, 6]])];
        let mut per_sender = ServerState::new(0, 100);
        let mut whole = ServerState::new(0, 100);
        for b in &blocks {
            per_sender.merge_stage(2, staged(std::slice::from_ref(b))).unwrap();
        }
        whole.merge_stage(2, staged(&blocks)).unwrap();
        per_sender.settle().unwrap();
        whole.settle().unwrap();
        assert_eq!(per_sender.relation("R"), whole.relation("R"));
        assert_eq!(per_sender.received_volumes(2), whole.received_volumes(2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before it settled")]
    fn reading_a_relation_before_it_settles_is_caught() {
        let mut s = ServerState::new(0, 10);
        let mut stage = RoundStage::default();
        stage.push_row("R", &[1, 2]).unwrap();
        stage.push_row("R", &[1, 2]).unwrap();
        s.merge_stage(1, stage).unwrap();
        let _ = s.relation("R");
    }

    #[test]
    fn settling_deduplicates_what_was_appended_and_keeps_the_charge() {
        let mut s = ServerState::new(0, 10);
        s.add_local(Relation::from_tuples("R", 2, vec![[5u64, 6]]).unwrap());
        let mut stage = RoundStage::default();
        stage.push_row("R", &[1, 2]).unwrap();
        stage.push_row("R", &[5, 6]).unwrap();
        assert!(stage.push_row("R", &[1]).is_err());
        s.merge_stage(1, stage).unwrap();
        let mut later = RoundStage::default();
        later.push_row("R", &[1, 2]).unwrap();
        s.merge_stage(1, later).unwrap();
        s.settle().unwrap();
        let rows: Vec<&[Value]> = s.relation("R").unwrap().iter().collect();
        assert_eq!(rows, [&[5, 6][..], &[1, 2]], "first occurrences, in arrival order");
        assert_eq!((s.tuples_received_in_round(1), s.bytes_received_in_round(1)), (3, 48));
    }

    #[test]
    fn tags_listing() {
        let mut s = ServerState::new(0, 10);
        s.receive(1, "B", Tuple::from([1]));
        s.receive(1, "A", Tuple::from([1]));
        let tags: Vec<&str> = s.tags().collect();
        assert_eq!(tags, vec!["A", "B"]);
    }
}
