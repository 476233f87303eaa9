//! Direct coverage for the `queue.rs` backpressure edge paths **under
//! block framing** — the timeout/force-send and receiver-drop fail-fast
//! behaviour that the differential matrix only exercises indirectly.
//!
//! The packets on the lanes here are real sealed [`TupleBlock`]s (not
//! toy integers, as in the module's unit tests), so the tests also pin
//! that a packet handed back by a failed send still carries its full
//! framing (tag, sequence number, rows) and that its value buffer can
//! be recycled through the [`BlockPool`] afterwards — the invariant the
//! async send loop and the `mpc-net` transports both rely on.

use std::sync::Arc;
use std::time::Duration;

use mpc_sim::queue::{Inbox, SendAttempt};
use mpc_sim::{BlockAssembler, BlockPool, TupleBlock};

/// Seal `count` two-column blocks of `rows` tuples each, all bound for
/// destination 0 under tag `R`.
fn sealed_blocks(pool: &Arc<BlockPool>, rows: usize, count: usize) -> Vec<TupleBlock> {
    let mut asm = BlockAssembler::new(Arc::clone(pool), rows, 3, 1);
    let mut out = Vec::new();
    for i in 0..(rows * count) as u64 {
        if let Some(b) = asm.push(0, "R", &[i, i + 1]) {
            out.push(b);
        }
    }
    assert!(asm.flush().is_empty(), "all blocks sealed at capacity");
    assert_eq!(out.len(), count);
    out
}

#[test]
fn send_timeout_full_hands_the_block_back_intact() {
    let pool = Arc::new(BlockPool::new());
    let mut blocks = sealed_blocks(&pool, 4, 3);
    let (senders, rx) = Inbox::channel(1, 2);
    // Fill the lane to capacity.
    senders[0].send(blocks.remove(0)).unwrap();
    senders[0].send(blocks.remove(0)).unwrap();
    // The third block bounces with Full — framing intact.
    let third = blocks.remove(0);
    let (tag, seq, rows) = (third.tag.clone(), third.seq, third.len());
    match senders[0].send_timeout(third, Duration::from_millis(5)) {
        SendAttempt::Full(b) => {
            assert_eq!((b.tag.clone(), b.seq, b.len()), (tag, seq, rows));
            assert_eq!(b.round, 1);
            assert_eq!(b.from, 3);
            // The bounced block's storage recycles cleanly.
            pool.give_back(b.into_columns());
        }
        other => panic!("expected Full, got {other:?}"),
    }
    // Draining the lane makes room again.
    let mut buf = Vec::new();
    assert_eq!(rx.recv_many(&mut buf), 2);
    for b in buf {
        pool.give_back(b.into_columns());
    }
    assert!(pool.stats().balanced());
}

#[test]
fn force_send_bypasses_a_full_lane_for_control_packets() {
    let pool = Arc::new(BlockPool::new());
    let blocks = sealed_blocks(&pool, 2, 3);
    let (senders, rx) = Inbox::channel(1, 1);
    let mut iter = blocks.into_iter();
    senders[0].send(iter.next().unwrap()).unwrap();
    // Data sends respect the bound…
    assert!(matches!(
        senders[0].send_timeout(iter.next().unwrap(), Duration::from_millis(1)),
        SendAttempt::Full(_)
    ));
    // …but a control-style force_send goes through regardless (this is
    // how Abort packets dodge deadlock behind data traffic).
    senders[0].force_send(iter.next().unwrap()).unwrap();
    let mut buf = Vec::new();
    rx.try_recv_many(&mut buf);
    assert_eq!(buf.len(), 2, "force_send overshot the one-packet bound");
    // FIFO survives the bypass: seq order is preserved on the lane.
    assert!(buf[0].seq < buf[1].seq);
}

#[test]
fn receiver_drop_fails_every_send_path_fast() {
    let pool = Arc::new(BlockPool::new());
    let mut blocks = sealed_blocks(&pool, 4, 3);
    let (senders, rx) = Inbox::channel(2, 4);
    drop(rx);
    // All three send paths fail immediately — no hang — and hand the
    // block back so its storage is not leaked.
    let b = blocks.remove(0);
    let b = senders[0].send(b).expect_err("send fails after receiver drop");
    pool.give_back(b.into_columns());
    match senders[1].send_timeout(blocks.remove(0), Duration::from_secs(60)) {
        SendAttempt::Closed(b) => pool.give_back(b.into_columns()),
        other => panic!("expected Closed, got {other:?}"),
    }
    let b = senders[0].force_send(blocks.remove(0)).expect_err("force_send fails too");
    pool.give_back(b.into_columns());
    assert!(pool.stats().balanced(), "every bounced block recycled");
}

#[test]
fn blocked_sender_wakes_when_receiver_dies_mid_wait() {
    let pool = Arc::new(BlockPool::new());
    let mut blocks = sealed_blocks(&pool, 2, 2);
    let (senders, rx) = Inbox::channel(1, 1);
    senders[0].send(blocks.remove(0)).unwrap();
    let tx = senders[0].clone();
    let pending = blocks.remove(0);
    let handle = std::thread::spawn(move || tx.send(pending));
    // Give the sender time to park on the full lane, then kill the
    // receiver: the blocked send must return instead of hanging.
    std::thread::sleep(Duration::from_millis(20));
    drop(rx);
    let bounced = handle.join().unwrap().expect_err("blocked send observes the closure");
    assert_eq!(bounced.len(), 2);
}
