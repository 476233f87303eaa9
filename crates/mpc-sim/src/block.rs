//! Row-major tuple blocks — the unit of transport of the batched data
//! plane.
//!
//! The event-driven backend used to push one inbox packet *per tuple
//! per destination*, so every delivered tuple paid a mutex/condvar round
//! trip. A [`TupleBlock`] amortises that: up to `block_capacity` tuples
//! sharing one `(destination, tag, round)` travel as a single packet whose
//! payload is **one flat row-major buffer** — row `r` is
//! `values[r × arity .. (r + 1) × arity]`, the layout both ends of a hop
//! already have (a program routes rows out of a row-major
//! `mpc_storage::Relation` into a [`crate::program::RouteSink`] that
//! pushes them here, a receiver appends rows to one), so sealing is an
//! `extend_from_slice` per routed copy and ingest one bulk
//! `Relation::append_rows`. The model's unit of communication is the tuple
//! (BKS13 §2.1), so all the theory sees of a block is its size,
//! `rows × arity × 8` bytes — 8 bytes per value of every delivered copy,
//! so volume statistics are bit-identical to the per-tuple plane.
//!
//! Blocks are assembled sender-side by a [`BlockAssembler`], which keeps
//! one open block per `(destination, tag)`, seals it the moment it
//! reaches capacity, and drains the partial remainder on
//! [`BlockAssembler::flush`] — in deterministic `(destination, tag)`
//! order, so the canonical per-sender sequence numbers are reproducible.
//! Value buffers are checked out of a [`crate::pool::BlockPool`] and
//! handed back by the receiver after ingest, so steady-state routing
//! allocates nothing.
//!
//! A block capacity of 1 degenerates to exactly the old per-tuple
//! behaviour (one tuple per packet), which the differential matrix in
//! `tests/async_equivalence.rs` exploits as a cross-check.

use std::sync::Arc;

use mpc_storage::{StorageError, Tuple, Value};

use crate::pool::{BlockBuf, BlockPool};

/// A sealed row-major batch on the wire: up to the assembler's capacity of
/// tuples sharing one tag, round and sender, bound for one destination.
#[derive(Debug, Clone)]
pub struct TupleBlock {
    /// The relation tag all rows were sent under.
    pub tag: Arc<str>,
    /// Round the rows belong to (1-based).
    pub round: usize,
    /// Sending server (`>= p` for input servers).
    pub from: usize,
    /// Sequence number within `(from, round)`, in send order — blocks on
    /// one link inherit the FIFO order of the lane they travel on.
    pub seq: u64,
    arity: usize,
    /// Row count, tracked explicitly so zero-arity tuples still count.
    rows: usize,
    /// `rows × arity` values, row-major — the pooled part of the block.
    values: BlockBuf,
}

impl TupleBlock {
    /// Number of tuples in the block.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the block carries no tuples (never on the wire; the
    /// assembler only seals non-empty blocks).
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns (the tag's relation arity).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Payload size in bytes: `len × arity × 8`, the simulator's
    /// accounting unit — 8 bytes per value of every row.
    pub fn payload_bytes(&self) -> u64 {
        (self.rows as u64) * (self.arity as u64) * 8
    }

    /// All `len × arity` values, row-major — what
    /// [`crate::RoundStage::absorb`] appends in one call and the wire
    /// codec of `mpc-net` copies verbatim.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Iterate the rows as owned [`Tuple`]s — a convenience for callers
    /// outside the data path.
    pub fn rows(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.rows).map(move |r| Tuple::new(&self.values[r * self.arity..(r + 1) * self.arity]))
    }

    /// Tear the block down into its value buffer, for return to the pool
    /// (the name predates the row layout; the repo benchmark calls it).
    pub fn into_columns(self) -> BlockBuf {
        self.values
    }

    /// Rebuild a block of `rows` rows from its parts — the deserialisation
    /// boundary of the wire codec in `mpc-net`, where `values` is a pooled
    /// buffer filled from the socket. Everything else in the simulator
    /// receives blocks only from a [`BlockAssembler`].
    ///
    /// # Panics
    ///
    /// Panics unless `values` holds exactly `rows × arity` values.
    pub fn from_parts(
        tag: Arc<str>,
        round: usize,
        from: usize,
        seq: u64,
        arity: usize,
        rows: usize,
        values: BlockBuf,
    ) -> Self {
        assert_eq!(
            Some(values.len()),
            rows.checked_mul(arity),
            "a block holds rows × arity values"
        );
        TupleBlock { tag, round, from, seq, arity, rows, values }
    }
}

/// Sender-side batcher: one open [`TupleBlock`] per `(destination, tag)`,
/// sealed at capacity and on flush.
///
/// A push is on the per-routed-copy path, so it resolves its block by
/// index: the tag is interned to a small integer once (consecutive pushes
/// almost always repeat the last tag, which is remembered) and open
/// blocks sit in a `[tag][destination]` table. Interning also fixes the
/// tag's arity: a row of another width under a known tag is refused.
///
/// One assembler serves one `(sender, round)`: its sequence counter spans
/// all destinations and tags, so the per-sender send order is globally
/// sequenced exactly like the per-tuple plane's packets were.
///
/// ```
/// use std::sync::Arc;
/// use mpc_sim::block::BlockAssembler;
/// use mpc_sim::pool::BlockPool;
///
/// let pool = Arc::new(BlockPool::new());
/// let mut asm = BlockAssembler::new(Arc::clone(&pool), 2, 0, 1);
/// assert!(asm.push(3, "R", &[1, 2]).is_none()); // buffering
/// let sealed = asm.push(3, "R", &[3, 4]).expect("capacity reached");
/// assert_eq!((sealed.len(), sealed.seq), (2, 0));
/// assert_eq!(sealed.values(), &[1, 2, 3, 4]);
/// pool.give_back(sealed.into_columns());
/// assert!(asm.flush().is_empty());
/// ```
#[derive(Debug)]
pub struct BlockAssembler {
    pool: Arc<BlockPool>,
    capacity: usize,
    from: usize,
    round: usize,
    next_seq: u64,
    /// Interned tags, in first-push order: one `Arc<str>` per distinct tag,
    /// shared by every block sent under it, with the arity its first row
    /// fixed.
    tags: Vec<(Arc<str>, usize)>,
    /// Index into `tags` of the latest push's tag.
    last_tag: usize,
    /// `open[tag][dest]`: the block being filled for that pair, if any
    /// (never an empty one; its `seq` is assigned when it seals). Rows
    /// grow to the highest destination seen.
    open: Vec<Vec<Option<TupleBlock>>>,
}

impl BlockAssembler {
    /// An assembler for `(from, round)` sealing blocks of `capacity`
    /// tuples (clamped to ≥ 1) drawn from `pool`.
    pub fn new(pool: Arc<BlockPool>, capacity: usize, from: usize, round: usize) -> Self {
        BlockAssembler {
            pool,
            capacity: capacity.max(1),
            from,
            round,
            next_seq: 0,
            tags: Vec::new(),
            last_tag: 0,
            open: Vec::new(),
        }
    }

    /// Buffer one tuple for `dest` under `tag`; returns the sealed block
    /// when this push fills the `(dest, tag)` block to capacity.
    ///
    /// # Panics
    ///
    /// Panics if `tag` was pushed before with another arity. The
    /// executors' block sink reports that as an error instead.
    pub fn push(&mut self, dest: usize, tag: &str, values: &[Value]) -> Option<TupleBlock> {
        let t = self.intern(tag, values.len()).expect("rows under one tag share an arity");
        self.append(t, dest, values)
    }

    /// The index of `tag` in the intern table, adding it on first sight
    /// with `arity` columns.
    ///
    /// # Errors
    ///
    /// [`StorageError::TupleArity`] if `tag` is known with another arity —
    /// the error a receiving relation would report.
    pub(crate) fn intern(&mut self, tag: &str, arity: usize) -> Result<usize, StorageError> {
        let known = |(name, _): &(Arc<str>, usize)| &**name == tag;
        if !self.tags.get(self.last_tag).is_some_and(known) {
            self.last_tag = self.tags.iter().position(known).unwrap_or_else(|| {
                self.tags.push((Arc::from(tag), arity));
                self.open.push(Vec::new());
                self.tags.len() - 1
            });
        }
        match self.tags[self.last_tag].1 {
            expected if expected == arity => Ok(self.last_tag),
            expected => {
                Err(StorageError::TupleArity { relation: tag.to_string(), expected, actual: arity })
            }
        }
    }

    /// Buffer `values` for `dest` under the interned tag `t`, whose arity
    /// it has; returns the block this fills to capacity.
    pub(crate) fn append(&mut self, t: usize, dest: usize, values: &[Value]) -> Option<TupleBlock> {
        let row = &mut self.open[t];
        if row.len() <= dest {
            row.resize_with(dest + 1, || None);
        }
        let block = row[dest].get_or_insert_with(|| TupleBlock {
            tag: Arc::clone(&self.tags[t].0),
            round: self.round,
            from: self.from,
            seq: 0,
            arity: values.len(),
            rows: 0,
            values: self.pool.checkout(self.capacity * values.len()),
        });
        block.values.extend_from_slice(values);
        block.rows += 1;
        if block.rows >= self.capacity {
            let full = row[dest].take().expect("block just filled");
            Some(self.seal(full))
        } else {
            None
        }
    }

    /// Seal and return every partially filled block, in deterministic
    /// `(destination, tag)` order, paired with its destination.
    pub fn flush(&mut self) -> Vec<(usize, TupleBlock)> {
        let mut by_name: Vec<usize> = (0..self.tags.len()).collect();
        by_name.sort_by(|&a, &b| self.tags[a].0.cmp(&self.tags[b].0));
        let dests = self.open.iter().map(Vec::len).max().unwrap_or(0);
        let mut sealed = Vec::new();
        for dest in 0..dests {
            for &t in &by_name {
                if let Some(block) = self.open[t].get_mut(dest).and_then(Option::take) {
                    sealed.push((dest, self.seal(block)));
                }
            }
        }
        sealed
    }

    fn seal(&mut self, mut block: TupleBlock) -> TupleBlock {
        block.seq = self.next_seq;
        self.next_seq += 1;
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Arc<BlockPool> {
        Arc::new(BlockPool::new())
    }

    #[test]
    fn row_layout_round_trips_rows() {
        let pool = pool();
        let mut asm = BlockAssembler::new(Arc::clone(&pool), 2, 0, 1);
        assert!(asm.push(0, "R", &[1, 2, 3]).is_none());
        let block = asm.push(0, "R", &[4, 5, 6]).expect("sealed at capacity");
        assert_eq!((block.len(), block.arity()), (2, 3));
        assert_eq!(block.values(), &[1, 2, 3, 4, 5, 6], "row-major, in push order");
        let rows: Vec<Tuple> = block.rows().collect();
        assert_eq!(rows, vec![Tuple::from([1, 2, 3]), Tuple::from([4, 5, 6])]);
        assert_eq!(block.payload_bytes(), 2 * 3 * 8);
        pool.give_back(block.into_columns());
    }

    #[test]
    fn zero_arity_rows_still_count() {
        let pool = pool();
        let mut asm = BlockAssembler::new(Arc::clone(&pool), 3, 0, 1);
        let sealed: Vec<TupleBlock> = (0..3).filter_map(|_| asm.push(0, "Unit", &[])).collect();
        assert_eq!(sealed.len(), 1, "the third empty row fills the block");
        assert_eq!((sealed[0].len(), sealed[0].arity(), sealed[0].payload_bytes()), (3, 0, 0));
        assert_eq!(sealed[0].rows().collect::<Vec<_>>(), vec![Tuple(Vec::new()); 3]);
        sealed.into_iter().for_each(|b| pool.give_back(b.into_columns()));
        assert!(pool.stats().balanced());
    }

    #[test]
    fn assembler_seals_at_capacity_and_flushes_the_rest() {
        let pool = pool();
        let mut asm = BlockAssembler::new(Arc::clone(&pool), 3, 7, 2);
        let mut sealed = Vec::new();
        for i in 0..7u64 {
            if let Some(b) = asm.push(0, "R", &[i, i]) {
                sealed.push(b);
            }
        }
        assert_eq!(sealed.len(), 2, "two full blocks of 3");
        let rest = asm.flush();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].1.len(), 1, "the 7th tuple");
        // Sequence numbers are consecutive in seal order.
        let seqs: Vec<u64> =
            sealed.iter().chain(rest.iter().map(|(_, b)| b)).map(|b| b.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        for b in sealed.into_iter().chain(rest.into_iter().map(|(_, b)| b)) {
            assert_eq!((b.from, b.round), (7, 2));
            pool.give_back(b.into_columns());
        }
        assert!(pool.stats().balanced());
    }

    #[test]
    fn capacity_one_degenerates_to_per_tuple_packets() {
        let pool = pool();
        let mut asm = BlockAssembler::new(Arc::clone(&pool), 1, 0, 1);
        for i in 0..5u64 {
            let b = asm.push(i as usize % 2, "R", &[i]).expect("every push seals");
            assert_eq!(b.len(), 1);
            pool.give_back(b.into_columns());
        }
        assert!(asm.flush().is_empty());
        assert!(pool.stats().balanced());
    }

    #[test]
    fn destinations_and_tags_get_separate_buffers() {
        let pool = pool();
        let mut asm = BlockAssembler::new(Arc::clone(&pool), 10, 0, 1);
        assert!(asm.push(0, "R", &[1, 1]).is_none());
        assert!(asm.push(1, "R", &[2, 2]).is_none());
        assert!(asm.push(0, "S", &[3]).is_none());
        let flushed = asm.flush();
        // Deterministic (dest, tag) order: (0,R), (0,S), (1,R).
        let labels: Vec<(usize, String, u64)> =
            flushed.iter().map(|(d, b)| (*d, b.tag.to_string(), b.seq)).collect();
        assert_eq!(labels, vec![(0, "R".into(), 0), (0, "S".into(), 1), (1, "R".into(), 2)]);
        for (_, b) in flushed {
            pool.give_back(b.into_columns());
        }
        assert!(pool.stats().balanced());
    }

    #[test]
    fn flush_order_is_by_destination_then_tag_name_whatever_the_push_order() {
        let pool = pool();
        let mut asm = BlockAssembler::new(Arc::clone(&pool), 2, 0, 1);
        // Tags first seen in reverse name order, destinations descending,
        // and the tag changing on every push (the remembered-tag miss).
        let pushes = [(2, "T"), (2, "S"), (0, "T"), (1, "R"), (0, "S"), (2, "R"), (2, "T")];
        let mut sealed = Vec::new();
        for (i, (dest, tag)) in pushes.into_iter().enumerate() {
            sealed.extend(asm.push(dest, tag, &[i as u64]).map(|b| (dest, b)));
        }
        // Only (2, "T") reached capacity 2; it carries both its rows.
        assert_eq!(sealed.len(), 1);
        assert_eq!((sealed[0].0, &*sealed[0].1.tag, sealed[0].1.seq), (2, "T", 0));
        assert_eq!(sealed[0].1.values(), &[0, 6]);
        let flushed = asm.flush();
        let labels: Vec<(usize, &str, u64)> =
            flushed.iter().map(|(d, b)| (*d, &*b.tag, b.seq)).collect();
        assert_eq!(labels, vec![(0, "S", 1), (0, "T", 2), (1, "R", 3), (2, "R", 4), (2, "S", 5)]);
        assert!(asm.flush().is_empty(), "a flush leaves nothing open");
        for (_, b) in sealed.into_iter().chain(flushed) {
            pool.give_back(b.into_columns());
        }
        assert!(pool.stats().balanced());
    }

    #[test]
    fn a_known_tag_refuses_rows_of_another_arity() {
        let mut asm = BlockAssembler::new(pool(), 4, 0, 1);
        let t = asm.intern("T", 2).unwrap();
        assert!(asm.append(t, 0, &[1, 2]).is_none());
        let err = asm.intern("T", 3).unwrap_err();
        assert_eq!(err, StorageError::TupleArity { relation: "T".into(), expected: 2, actual: 3 });
        assert_eq!(asm.intern("U", 3), Ok(1), "another tag has its own arity");
        assert_eq!(asm.intern("T", 2), Ok(t));
    }

    #[test]
    fn from_parts_round_trip() {
        let block = TupleBlock::from_parts(Arc::from("R"), 4, 7, 11, 2, 3, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!((block.round, block.from, block.seq), (4, 7, 11));
        assert_eq!((block.len(), block.arity()), (3, 2));
        assert_eq!(block.rows().nth(2), Some(Tuple::from([5, 6])));
        assert_eq!(block.into_columns(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "rows × arity")]
    fn from_parts_refuses_a_buffer_of_the_wrong_size() {
        TupleBlock::from_parts(Arc::from("R"), 1, 0, 0, 2, 3, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn seal_threshold_changes_block_sizes_not_contents() {
        let pool = pool();
        let mut rows_by_capacity = Vec::new();
        for capacity in [4, 2] {
            let mut asm = BlockAssembler::new(Arc::clone(&pool), capacity, 0, 1);
            let mut blocks: Vec<TupleBlock> =
                (0..7u64).filter_map(|i| asm.push(0, "R", &[i])).collect();
            blocks.extend(asm.flush().into_iter().map(|(_, b)| b));
            assert_eq!(blocks.len(), 7usize.div_ceil(capacity), "capacity {capacity}");
            rows_by_capacity.push(blocks.iter().flat_map(TupleBlock::rows).collect::<Vec<_>>());
            blocks.into_iter().for_each(|b| pool.give_back(b.into_columns()));
        }
        // Same tuples in the same per-link order, only framed differently.
        assert_eq!(rows_by_capacity[0].len(), 7);
        assert_eq!(rows_by_capacity[0], rows_by_capacity[1]);
        assert!(pool.stats().balanced());
    }

    #[test]
    fn assembler_recycles_pool_buffers() {
        let pool = pool();
        let mut asm = BlockAssembler::new(Arc::clone(&pool), 2, 0, 1);
        for i in 0..10u64 {
            if let Some(b) = asm.push(0, "R", &[i]) {
                pool.give_back(b.into_columns());
            }
        }
        let stats = pool.stats();
        assert!(stats.reused >= 3, "sealed buffers come back into rotation: {stats:?}");
    }
}
