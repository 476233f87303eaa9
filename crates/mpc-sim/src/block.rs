//! Columnar tuple blocks — the unit of transport of the batched data
//! plane.
//!
//! The event-driven backend used to push one inbox packet *per tuple
//! per destination*, so every delivered tuple paid a mutex/condvar round
//! trip. A [`TupleBlock`] amortises that: up to `block_capacity` tuples
//! sharing one `(destination, tag, round)` travel as a single packet whose
//! payload is **arity-major column slices** — `cols[c][r]` is column `c`
//! of row `r`. Column layout keeps the values of one attribute contiguous,
//! which is what the vectorised hash build/probe of the local join wants,
//! and makes the payload size a closed formula
//! (`rows × arity × 8` bytes — the same accounting unit as
//! [`crate::message::Routed::bytes_per_delivery`], so volume statistics
//! are bit-identical to the per-tuple plane).
//!
//! Blocks are assembled sender-side by a [`BlockAssembler`], which keeps
//! one open buffer per `(destination, tag)`, seals a block the moment it
//! reaches capacity, and drains the partial remainder on
//! [`BlockAssembler::flush`] — in deterministic `(destination, tag)`
//! order, so the canonical per-sender sequence numbers are reproducible.
//! Column storage is checked out of a [`crate::pool::BlockPool`] and
//! handed back by the receiver after decoding, so steady-state routing
//! allocates nothing.
//!
//! A block capacity of 1 degenerates to exactly the old per-tuple
//! behaviour (one tuple per packet), which the differential matrix in
//! `tests/async_equivalence.rs` exploits as a cross-check.

use std::sync::Arc;

use mpc_storage::{Tuple, Value};

use crate::pool::BlockPool;

/// Reusable column storage: `arity` value vectors growing in lockstep.
///
/// This is the pooled part of a [`TupleBlock`] — everything that owns heap
/// allocations — so returning it to the [`BlockPool`] recycles the block's
/// entire footprint.
#[derive(Debug, Clone, Default)]
pub struct ColumnBuf {
    cols: Vec<Vec<Value>>,
    /// Row count, tracked explicitly so zero-arity tuples still count.
    rows: usize,
}

impl ColumnBuf {
    /// An empty buffer with `arity` columns, each with room for
    /// `capacity` values.
    pub fn with_arity(arity: usize, capacity: usize) -> Self {
        ColumnBuf { cols: (0..arity).map(|_| Vec::with_capacity(capacity)).collect(), rows: 0 }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append one row. `values` must have exactly [`ColumnBuf::arity`]
    /// entries.
    pub fn push(&mut self, values: &[Value]) {
        debug_assert_eq!(values.len(), self.cols.len(), "row arity must match the buffer");
        for (col, &v) in self.cols.iter_mut().zip(values) {
            col.push(v);
        }
        self.rows += 1;
    }

    /// The contiguous values of column `c`.
    pub fn column(&self, c: usize) -> &[Value] {
        &self.cols[c]
    }

    /// Every column, each holding [`ColumnBuf::len`] values — the shape
    /// `mpc_storage::Relation::append_columns` ingests.
    pub fn columns(&self) -> &[Vec<Value>] {
        &self.cols
    }

    /// Drop all rows, keeping the column capacities (pool recycling).
    pub fn clear(&mut self) {
        for col in &mut self.cols {
            col.clear();
        }
        self.rows = 0;
    }

    /// Refill the buffer column by column: `fill` is called once per
    /// column, in order, and must append exactly `rows` values to the
    /// vector it is handed. This is the deserialisation boundary of the
    /// wire codec in `mpc-net` — a pooled buffer is refilled straight from
    /// the socket without an intermediate row-major copy.
    ///
    /// # Errors
    ///
    /// Propagates the first error `fill` returns; the buffer is left
    /// cleared in that case.
    pub fn refill<E, F>(&mut self, rows: usize, mut fill: F) -> Result<(), E>
    where
        F: FnMut(&mut Vec<Value>) -> Result<(), E>,
    {
        self.clear();
        for col in &mut self.cols {
            fill(col)?;
            debug_assert_eq!(col.len(), rows, "fill must append exactly `rows` values");
        }
        self.rows = rows;
        Ok(())
    }
}

/// A sealed columnar batch on the wire: up to the assembler's capacity of
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
    cols: ColumnBuf,
}

impl TupleBlock {
    /// Number of tuples in the block.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the block carries no tuples (never on the wire; the
    /// assembler only seals non-empty blocks).
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Number of columns (the tag's relation arity).
    pub fn arity(&self) -> usize {
        self.cols.arity()
    }

    /// Payload size in bytes: `len × arity × 8`, the simulator's
    /// accounting unit — identical to the sum over the rows of
    /// [`crate::message::Routed::bytes_per_delivery`].
    pub fn payload_bytes(&self) -> u64 {
        (self.len() as u64) * (self.arity() as u64) * 8
    }

    /// The contiguous values of column `c`.
    pub fn column(&self, c: usize) -> &[Value] {
        self.cols.column(c)
    }

    /// Every column, each holding [`TupleBlock::len`] values.
    pub fn columns(&self) -> &[Vec<Value>] {
        self.cols.columns()
    }

    /// Iterate the rows as owned [`Tuple`]s — a convenience for callers
    /// outside the data path; servers ingest blocks by column
    /// ([`crate::ServerState::receive_block`]).
    pub fn rows(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.len()).map(move |r| Tuple((0..self.arity()).map(|c| self.column(c)[r]).collect()))
    }

    /// Tear the block down into its column storage, for return to the
    /// pool.
    pub fn into_columns(self) -> ColumnBuf {
        self.cols
    }

    /// Rebuild a block from its parts — the deserialisation boundary of
    /// the wire codec in `mpc-net`, where `cols` was refilled from a
    /// pooled buffer via [`ColumnBuf::refill`]. Everything else in the
    /// simulator receives blocks only from a [`BlockAssembler`].
    pub fn from_parts(tag: Arc<str>, round: usize, from: usize, seq: u64, cols: ColumnBuf) -> Self {
        TupleBlock { tag, round, from, seq, cols }
    }
}

/// Sender-side batcher: one open [`ColumnBuf`] per `(destination, tag)`,
/// sealed into [`TupleBlock`]s at capacity and on flush.
///
/// A push is on the per-routed-copy path, so it resolves its buffer by
/// index: the tag is interned to a small integer once (consecutive pushes
/// almost always repeat the last tag, which is remembered) and open
/// buffers sit in a `[tag][destination]` table.
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
    /// shared by every block sent under it.
    tags: Vec<Arc<str>>,
    /// Index into `tags` of the latest push's tag.
    last_tag: usize,
    /// `open[tag][dest]`: the buffer being filled for that pair, if any
    /// (never an empty one). Rows grow to the highest destination seen.
    open: Vec<Vec<Option<ColumnBuf>>>,
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
    /// when this push fills the `(dest, tag)` buffer to capacity.
    pub fn push(&mut self, dest: usize, tag: &str, values: &[Value]) -> Option<TupleBlock> {
        let t = self.intern(tag);
        let row = &mut self.open[t];
        if row.len() <= dest {
            row.resize_with(dest + 1, || None);
        }
        let buf = row[dest].get_or_insert_with(|| self.pool.checkout(values.len(), self.capacity));
        buf.push(values);
        if buf.len() >= self.capacity {
            let cols = row[dest].take().expect("buffer just filled");
            Some(self.seal(Arc::clone(&self.tags[t]), cols))
        } else {
            None
        }
    }

    /// The index of `tag` in the intern table, adding it on first sight.
    fn intern(&mut self, tag: &str) -> usize {
        if self.tags.get(self.last_tag).is_some_and(|last| &**last == tag) {
            return self.last_tag;
        }
        self.last_tag = self.tags.iter().position(|known| &**known == tag).unwrap_or_else(|| {
            self.tags.push(Arc::from(tag));
            self.open.push(Vec::new());
            self.tags.len() - 1
        });
        self.last_tag
    }

    /// Seal and return every partially filled buffer, in deterministic
    /// `(destination, tag)` order, paired with its destination.
    pub fn flush(&mut self) -> Vec<(usize, TupleBlock)> {
        let mut by_name: Vec<usize> = (0..self.tags.len()).collect();
        by_name.sort_by(|&a, &b| self.tags[a].cmp(&self.tags[b]));
        let dests = self.open.iter().map(Vec::len).max().unwrap_or(0);
        let mut sealed = Vec::new();
        for dest in 0..dests {
            for &t in &by_name {
                if let Some(cols) = self.open[t].get_mut(dest).and_then(Option::take) {
                    sealed.push((dest, self.seal(Arc::clone(&self.tags[t]), cols)));
                }
            }
        }
        sealed
    }

    fn seal(&mut self, tag: Arc<str>, cols: ColumnBuf) -> TupleBlock {
        let seq = self.next_seq;
        self.next_seq += 1;
        TupleBlock { tag, round: self.round, from: self.from, seq, cols }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Arc<BlockPool> {
        Arc::new(BlockPool::new())
    }

    #[test]
    fn column_layout_round_trips_rows() {
        let mut buf = ColumnBuf::with_arity(3, 4);
        buf.push(&[1, 2, 3]);
        buf.push(&[4, 5, 6]);
        assert_eq!(buf.column(0), &[1, 4]);
        assert_eq!(buf.column(1), &[2, 5]);
        assert_eq!(buf.column(2), &[3, 6]);
        let block = TupleBlock { tag: Arc::from("R"), round: 1, from: 0, seq: 0, cols: buf };
        let rows: Vec<Tuple> = block.rows().collect();
        assert_eq!(rows, vec![Tuple::from([1, 2, 3]), Tuple::from([4, 5, 6])]);
        assert_eq!(block.payload_bytes(), 2 * 3 * 8);
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
        assert_eq!(sealed[0].1.column(0), &[0, 6]);
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
    fn refill_and_from_parts_round_trip() {
        let mut buf = ColumnBuf::with_arity(2, 4);
        buf.push(&[9, 9]);
        buf.refill::<(), _>(3, |col| {
            col.extend_from_slice(&[1, 2, 3]);
            Ok(())
        })
        .unwrap();
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.column(0), &[1, 2, 3]);
        let block = TupleBlock::from_parts(Arc::from("R"), 4, 7, 11, buf);
        assert_eq!((block.round, block.from, block.seq, block.len()), (4, 7, 11, 3));
        let mut err = ColumnBuf::with_arity(1, 1);
        assert_eq!(err.refill(1, |_| Err("short read")), Err("short read"));
        assert!(err.is_empty(), "failed refill leaves the buffer cleared");
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
