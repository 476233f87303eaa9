//! A buffer pool for tuple blocks.
//!
//! The batched data plane of [`crate::cluster_async`] moves
//! [`crate::block::TupleBlock`]s between workers. Allocating a fresh value
//! buffer for every block would put the allocator straight back on the
//! hot path the batching removed, so blocks draw their storage from a
//! [`BlockPool`]: checked out when a sender opens a block, handed back
//! when the receiver has ingested it, and recycled for the next send.
//!
//! **One free list.** A block's storage is one flat `Vec<Value>`, so any
//! returned buffer serves any block whatever its arity; a recycled buffer
//! that is too small for its new block grows once and stays grown. The
//! list is bounded ([`BlockPool::MAX_FREE`]); overflow buffers are dropped
//! rather than hoarded.
//!
//! **Accounting.** The pool counts every checkout and every return
//! ([`PoolStats`]); a clean run returns every block it checked out, which
//! `tests/pool_invariants.rs` locks as a property. The counters are
//! atomics and the free list sits behind one mutex per pool — the pool is
//! shared by all worker tasks of a run, and contention stays low because
//! checkouts happen once per *block*, not once per tuple.
//!
//! ```
//! use mpc_sim::pool::BlockPool;
//!
//! let pool = BlockPool::new();
//! let buf = pool.checkout(128);
//! assert!(buf.is_empty() && buf.capacity() >= 128);
//! pool.give_back(buf);
//! let again = pool.checkout(64); // recycled, not reallocated
//! pool.give_back(again);
//! assert_eq!(pool.stats().reused, 1);
//! assert!(pool.stats().balanced());
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mpc_storage::Value;

/// Checkout/return accounting of a [`BlockPool`], captured by
/// [`BlockPool::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Buffers handed out by [`BlockPool::checkout`].
    pub checked_out: u64,
    /// Buffers handed back by [`BlockPool::give_back`].
    pub returned: u64,
    /// Checkouts that had to allocate fresh storage (pool misses).
    pub allocated: u64,
    /// Checkouts served from a free list (pool hits).
    pub reused: u64,
}

impl PoolStats {
    /// Buffers currently checked out and not yet returned.
    pub fn outstanding(&self) -> u64 {
        self.checked_out - self.returned
    }

    /// Whether every checkout has been matched by a return — true after
    /// any clean (non-aborted) run of the batched data plane.
    pub fn balanced(&self) -> bool {
        self.checked_out == self.returned
    }
}

/// A block's storage as the pool lends it: one flat value buffer, which a
/// [`crate::block::TupleBlock`] fills row-major.
pub type BlockBuf = Vec<Value>;

/// A thread-safe, bounded free list of [`BlockBuf`]s.
#[derive(Debug, Default)]
pub struct BlockPool {
    free: Mutex<Vec<BlockBuf>>,
    checked_out: AtomicU64,
    returned: AtomicU64,
    allocated: AtomicU64,
    reused: AtomicU64,
}

impl BlockPool {
    /// Free buffers retained; returns beyond this bound drop the buffer
    /// instead of growing the pool without limit.
    pub const MAX_FREE: usize = 1024;

    /// An empty pool.
    pub fn new() -> Self {
        BlockPool::default()
    }

    /// Check out an empty buffer with room for `capacity` values: recycled
    /// when the free list has one, freshly allocated otherwise.
    pub fn checkout(&self, capacity: usize) -> BlockBuf {
        self.checked_out.fetch_add(1, Ordering::Relaxed);
        let recycled = self.free.lock().expect("pool mutex poisoned").pop();
        let counter = if recycled.is_some() { &self.reused } else { &self.allocated };
        counter.fetch_add(1, Ordering::Relaxed);
        let mut buf = recycled.unwrap_or_default();
        buf.reserve(capacity);
        buf
    }

    /// Return a buffer. It is cleared (values dropped, capacity kept) and
    /// becomes available to the next [`BlockPool::checkout`].
    pub fn give_back(&self, mut buf: BlockBuf) {
        self.returned.fetch_add(1, Ordering::Relaxed);
        buf.clear();
        let mut free = self.free.lock().expect("pool mutex poisoned");
        if free.len() < Self::MAX_FREE {
            free.push(buf);
        }
        // else: drop the buffer; the return is still counted, so the
        // checkout/return balance is preserved.
    }

    /// Snapshot of the checkout/return counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            checked_out: self.checked_out.load(Ordering::Relaxed),
            returned: self.returned.load(Ordering::Relaxed),
            allocated: self.allocated.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
        }
    }

    /// Free buffers currently parked in the pool.
    pub fn free_buffers(&self) -> usize {
        self.free.lock().expect("pool mutex poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_allocates_then_reuses() {
        let pool = BlockPool::new();
        let a = pool.checkout(24);
        assert_eq!(pool.stats().allocated, 1);
        pool.give_back(a);
        let b = pool.checkout(24);
        assert_eq!(pool.stats().reused, 1);
        assert_eq!(pool.stats().allocated, 1);
        pool.give_back(b);
        assert!(pool.stats().balanced());
    }

    #[test]
    fn one_free_list_serves_every_block_shape() {
        let pool = BlockPool::new();
        pool.give_back(pool.checkout(2 * 4));
        // A larger block takes the parked buffer and grows it — once.
        let wide = pool.checkout(3 * 4);
        assert!(wide.capacity() >= 12);
        assert_eq!((pool.stats().reused, pool.stats().allocated), (1, 1));
        pool.give_back(wide);
        assert_eq!(pool.free_buffers(), 1);
        assert!(pool.checkout(0).capacity() >= 12, "and stays grown");
    }

    #[test]
    fn free_lists_are_bounded() {
        let pool = BlockPool::new();
        let bufs: Vec<_> = (0..BlockPool::MAX_FREE + 10).map(|_| pool.checkout(2)).collect();
        for b in bufs {
            pool.give_back(b);
        }
        assert_eq!(pool.free_buffers(), BlockPool::MAX_FREE);
        // Overflow returns were still counted.
        assert!(pool.stats().balanced());
    }

    #[test]
    fn returned_buffers_come_back_empty_with_capacity() {
        let pool = BlockPool::new();
        let mut buf = pool.checkout(4);
        buf.extend_from_slice(&[1, 2, 3, 4]);
        pool.give_back(buf);
        let buf = pool.checkout(4);
        assert!(buf.is_empty());
        pool.give_back(buf);
    }
}
