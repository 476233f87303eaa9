//! Property tests of the block pool behind the block data plane
//! (`mpc_sim::pool`): a seeded loop over real async runs asserting the
//! checkout/return balance, plus a direct concurrent storm on a shared
//! pool asserting no buffer is ever aliased to two holders and that the
//! one free list recycles across block shapes under parallel churn.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use mpc_query::core::hypercube::HyperCubeProgram;
use mpc_query::cq::families;
use mpc_query::prelude::*;
use mpc_query::sim::BlockPool;

/// Every clean async run returns every block it checked out — across
/// random queries, block capacities and queue capacities — and a pool
/// that never allocates mid-run steady state shows real reuse.
#[test]
fn seeded_runs_balance_the_pool() {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    for case in 0..16 {
        let q = match rng.gen_range(0..3usize) {
            0 => families::chain(rng.gen_range(2..4)),
            1 => families::star(rng.gen_range(2..4)),
            _ => families::triangle(),
        };
        let n = rng.gen_range(100..400u64);
        let p = [4usize, 8, 9][rng.gen_range(0..3usize)];
        let db = matching_database(&q, n, rng.gen());
        let program = HyperCubeProgram::new(&q, p, rng.gen()).unwrap();
        let cluster = Cluster::new(MpcConfig::new(p, 1.0)).unwrap();
        let async_cfg = AsyncConfig::new()
            .with_block_capacity(1 << rng.gen_range(0..9usize))
            .with_queue_capacity(1 << rng.gen_range(0..6usize));
        let run = cluster.run_async(&program, &db, &async_cfg).unwrap();
        let pool = &run.pool;
        assert!(pool.balanced(), "case {case}: pool unbalanced: {pool:?}");
        assert_eq!(pool.outstanding(), 0, "case {case}");
        assert_eq!(
            pool.allocated + pool.reused,
            pool.checked_out,
            "case {case}: every checkout is a hit or a miss"
        );
    }
}

/// A rayon storm over one shared pool: each task stamps its checked-out
/// buffers with a unique value and verifies the stamp before returning
/// them. If the pool ever handed one buffer to two concurrent holders,
/// a stamp would be clobbered.
#[test]
fn concurrent_checkout_never_aliases_buffers() {
    let pool = BlockPool::new();
    let tasks: Vec<u64> = (1..=64).collect();
    let clean: Vec<bool> = tasks
        .par_iter()
        .map(|&stamp| {
            for iter in 0..32 {
                // Mixed arities share the one free list.
                let arity = ((stamp + iter) % 3 + 1) as usize;
                let mut buf = pool.checkout(16 * arity);
                if !buf.is_empty() {
                    return false; // stale rows from another holder
                }
                let row = vec![stamp; arity];
                for _ in 0..16 {
                    buf.extend_from_slice(&row);
                }
                let stamped = buf.len() == 16 * arity && buf.iter().all(|&v| v == stamp);
                pool.give_back(buf);
                if !stamped {
                    return false;
                }
            }
            true
        })
        .collect();
    assert!(clean.into_iter().all(|ok| ok), "a buffer was aliased or returned dirty");

    let stats = pool.stats();
    assert!(stats.balanced(), "storm left the pool unbalanced: {stats:?}");
    assert_eq!(stats.checked_out, 64 * 32);
    // At most one buffer per task is out at a time, so the free list
    // must have served all but a handful of the 2048 checkouts.
    assert!(stats.allocated <= 64, "more buffers than concurrent holders: {stats:?}");
    assert!(stats.reused >= 64 * 31, "no reuse across block shapes under churn: {stats:?}");
    // Bounded retention, even after the storm.
    assert!(pool.free_buffers() <= BlockPool::MAX_FREE);
    assert_eq!(pool.free_buffers() as u64, stats.allocated, "every buffer is parked again");
}
