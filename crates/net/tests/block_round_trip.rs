//! The block data plane end to end on one thread, as a seeded property:
//! rows pushed through `BlockAssembler` → `encode_frame` → `decode_body`
//! → `RoundStage::absorb` leave every destination, once its stage is
//! merged and settled, in exactly the state `RoundStage::push_row`, row by
//! row in send order (the reference loop's ingest), leaves it in — for
//! every arity (zero included), block capacities from per-tuple to
//! whole-round, several tags and destinations, and rows with duplicates.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mpc_net::frame::{decode_body, encode_frame};
use mpc_net::Frame;
use mpc_sim::{BlockAssembler, BlockPool, RoundStage, ServerState, TupleBlock};
use mpc_storage::Value;

const DESTINATIONS: usize = 3;
const ROUND: usize = 2;

/// Ship `block` as a frame and stage what comes off the wire at `dest`.
fn deliver(pool: &BlockPool, by_block: &mut [RoundStage], dest: usize, block: TupleBlock) {
    let sent = (block.tag.clone(), block.round, block.from, block.seq, block.len(), block.arity());
    let frame = Frame::Block(block);
    let mut wire = Vec::new();
    encode_frame(&frame, &mut wire);
    let Frame::Block(block) = frame else { unreachable!() };
    let Frame::Block(got) = decode_body(&wire[4..], pool).expect("a well-formed frame") else {
        panic!("decoded something else")
    };
    assert_eq!((got.tag.clone(), got.round, got.from, got.seq, got.len(), got.arity()), sent);
    assert_eq!(got.values(), block.values());
    pool.give_back(block.into_columns());
    by_block[dest].absorb(&got).expect("one arity per tag");
    pool.give_back(got.into_columns());
}

#[test]
fn blocks_over_the_wire_equal_rowwise_delivery() {
    let mut rng = StdRng::seed_from_u64(0xB10C_F00D);
    for arity_r in 0..=4usize {
        for capacity in [1usize, 7, 256] {
            let arity_s = rng.gen_range(0..=4usize);
            let pool = Arc::new(BlockPool::new());
            let mut asm = BlockAssembler::new(Arc::clone(&pool), capacity, 5, ROUND);
            let fresh = || (0..DESTINATIONS).map(|_| RoundStage::default()).collect();
            let (mut by_row, mut by_block): (Vec<RoundStage>, Vec<RoundStage>) = (fresh(), fresh());
            let mut seqs = Vec::new();
            // A domain of 3 makes most rows duplicates of an earlier one.
            for _ in 0..rng.gen_range(200..600usize) {
                let (tag, arity) = if rng.gen_bool(0.5) { ("R", arity_r) } else { ("S", arity_s) };
                let dest = rng.gen_range(0..DESTINATIONS);
                let row: Vec<Value> = (0..arity).map(|_| rng.gen_range(0..3)).collect();
                by_row[dest].push_row(tag, &row).unwrap();
                if let Some(block) = asm.push(dest, tag, &row) {
                    assert_eq!(block.len(), capacity, "sealed exactly at capacity");
                    seqs.push(block.seq);
                    deliver(&pool, &mut by_block, dest, block);
                }
            }
            for (dest, block) in asm.flush() {
                assert!(!block.is_empty() && block.len() < capacity, "a partial remainder");
                seqs.push(block.seq);
                deliver(&pool, &mut by_block, dest, block);
            }

            let case = format!("arities {arity_r}/{arity_s}, capacity {capacity}");
            assert!(seqs.iter().copied().eq(0..seqs.len() as u64), "{case}: seq not ascending");
            for (id, (by_row, by_block)) in by_row.into_iter().zip(by_block).enumerate() {
                let merged = |stage| {
                    let mut state = ServerState::new(id, 100);
                    state.merge_stage(ROUND, stage).unwrap();
                    state.settle().unwrap();
                    state
                };
                let (rowwise, blockwise) = (merged(by_row), merged(by_block));
                for tag in ["R", "S"] {
                    // Equality is ordered: same rows, same first-arrival order.
                    assert_eq!(rowwise.relation(tag), blockwise.relation(tag), "{case}: {tag}");
                }
                assert_eq!(
                    rowwise.received_volumes(ROUND),
                    blockwise.received_volumes(ROUND),
                    "{case}"
                );
            }
            assert!(pool.stats().balanced(), "{case}: {:?}", pool.stats());
        }
    }
}
