//! Inert remains of the deleted memoising LP tier, kept for `benchmark/`
//! alone: its workloads call `LpCache::global().clear()` / `.stats()` and
//! may not change in the PR that deleted the tier. Nothing is stored and
//! nothing else calls this; the benchmark-archetype PR of ROADMAP item 1
//! removes it together with the never-constructed `SolverPath` variant.

/// Counters of the deleted cache: always zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
}

/// Zero-sized stand-in for the deleted memo table.
pub struct LpCache;

impl LpCache {
    /// The stand-in itself.
    pub fn global() -> &'static LpCache {
        &LpCache
    }
    /// Zero hits, zero misses.
    pub fn stats(&self) -> CacheStats {
        CacheStats { hits: 0, misses: 0 }
    }
    /// Does nothing.
    pub fn clear(&self) {}
}
