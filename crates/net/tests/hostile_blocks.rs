//! Block shapes come off a socket: a peer that sends two blocks of
//! different arity under one tag, or a block for a round the job does not
//! have, must fail the worker with an error — never panic it — and a
//! frame whose header announces more than its body holds must fail the
//! decoder before anything is allocated for it (an allocation failure is
//! an abort, which nothing can contain).

use std::collections::VecDeque;
use std::sync::Arc;

use mpc_core::hypercube::HyperCubeProgram;
use mpc_core::multiround::executor::PlanProgram;
use mpc_core::multiround::planner::MultiRoundPlan;
use mpc_cq::families;
use mpc_data::matching_database;
use mpc_lp::Rational;
use mpc_net::frame::{decode_body, encode_frame};
use mpc_net::{Frame, NetError};
use mpc_sim::worker::drive;
use mpc_sim::{
    BlockPool, Input, Link, MpcProgram, Packet, RoundStage, SendOutcome, ServerState, SimError,
    Transport, TupleBlock, WorkerCore,
};
use mpc_storage::Relation;
use mpc_storage::Value;

/// The fabric as worker 0 of 2 sees it when peer 1 is hostile: outbound
/// packets vanish, inbound ones follow a script.
struct Scripted {
    inbound: VecDeque<Packet>,
}

impl Link for Scripted {
    fn send(&mut self, _dest: usize, _pkt: Packet) -> SendOutcome {
        SendOutcome::Sent
    }

    fn try_recv(&mut self, _buf: &mut Vec<Packet>) {}
}

impl Transport for Scripted {
    type Error = NetError;

    fn recv(&mut self, buf: &mut Vec<Packet>) -> mpc_net::Result<()> {
        match self.inbound.pop_front() {
            Some(pkt) => {
                buf.push(pkt);
                Ok(())
            }
            None => Err(NetError::Protocol("script exhausted".to_string())),
        }
    }

    fn abort(&mut self) {}
}

/// A data frame of one `row` under `tag`, encoded and decoded again as a
/// socket reader would deliver it.
fn off_the_wire(pool: &BlockPool, tag: &str, round: usize, row: &[Value]) -> Packet {
    let block = TupleBlock::from_parts(Arc::from(tag), round, 1, 0, row.len(), 1, row.to_vec());
    let frame = Frame::Block(block);
    let mut bytes = Vec::new();
    encode_frame(&frame, &mut bytes);
    match decode_body(&bytes[4..], pool).expect("a well-formed frame") {
        Frame::Block(block) => Packet::Block(block),
        other => panic!("decoded {other:?}"),
    }
}

fn run_worker_0<P: MpcProgram>(
    program: &P,
    q: &mpc_cq::Query,
    script: impl FnOnce(&BlockPool) -> Vec<Packet>,
) -> NetError {
    let db = matching_database(q, 20, 1);
    let pool = Arc::new(BlockPool::new());
    let mut transport = Scripted { inbound: script(&pool).into() };
    let mut core = WorkerCore::new(program, 0, 2, Input::Sharded(&db), Arc::clone(&pool), 64)
        .expect("a program with rounds");
    drive(&mut core, &mut transport).expect_err("the worker must refuse the script")
}

#[test]
fn a_second_arity_under_one_tag_is_a_protocol_error() {
    let q = families::chain(2);
    let program = HyperCubeProgram::new(&q, 2, 7).unwrap();
    let err = run_worker_0(&program, &q, |pool| {
        vec![off_the_wire(pool, "S1", 1, &[1, 2]), off_the_wire(pool, "S1", 1, &[1, 2, 3])]
    });
    assert!(
        matches!(&err, NetError::Sim(SimError::Storage(msg)) if msg.contains("arity 3")),
        "{err}"
    );
}

#[test]
fn a_second_arity_in_a_future_round_stage_is_a_protocol_error() {
    let q = families::chain(4);
    let plan = MultiRoundPlan::build(&q, Rational::ZERO).unwrap();
    let program = PlanProgram::new(&plan, 2, 7).unwrap();
    assert!(program.num_rounds() >= 2);
    // Both blocks race ahead of round 1 into the round-2 stage.
    let err = run_worker_0(&program, &q, |pool| {
        vec![off_the_wire(pool, "V", 2, &[1, 2]), off_the_wire(pool, "V", 2, &[1])]
    });
    assert!(
        matches!(&err, NetError::Sim(SimError::Storage(msg)) if msg.contains("arity 1")),
        "{err}"
    );
}

#[test]
fn a_block_for_a_round_the_job_does_not_have_is_a_protocol_error() {
    let q = families::chain(2);
    let program = HyperCubeProgram::new(&q, 2, 7).unwrap();
    let err = run_worker_0(&program, &q, |pool| vec![off_the_wire(pool, "S1", 9, &[1, 2])]);
    assert!(
        matches!(&err, NetError::Sim(SimError::Protocol(msg)) if msg.contains("round-9")),
        "{err}"
    );
}

/// The body (no length prefix) of `frame`.
fn body_of(frame: &Frame) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_frame(frame, &mut bytes);
    bytes.split_off(4)
}

/// `body` with the little-endian `u32` at `at` replaced.
fn with_u32(body: &[u8], at: usize, v: u32) -> Vec<u8> {
    let mut forged = body.to_vec();
    forged[at..at + 4].copy_from_slice(&v.to_le_bytes());
    forged
}

fn refused(pool: &BlockPool, body: &[u8], what: &str) {
    match decode_body(body, pool) {
        Err(NetError::Protocol(_)) => {}
        other => panic!("{what}: expected a protocol error, got {other:?}"),
    }
    assert!(pool.stats().balanced(), "{what}: the pool leaked a buffer");
}

/// Every count a frame announces sizes an allocation in the decoder; each
/// is forged to `u32::MAX`, and each frame is cut short mid-payload. At
/// the parent commit the block case aborts the process (`arity = u32::MAX`
/// asked the pool for 4 G column vectors: "memory allocation of
/// 103079215080 bytes failed", SIGABRT).
#[test]
fn counts_larger_than_the_body_are_protocol_errors_not_allocations() {
    let pool = BlockPool::new();
    let rel = Relation::from_tuples("R", 2, vec![[1u64, 2], [3, 4]]).unwrap();

    // kind, tag "R" (4 + 1), round, from, seq (8): arity at 22, rows at 26.
    let block = TupleBlock::from_parts(Arc::from("R"), 1, 0, 0, 2, 2, vec![1, 2, 3, 4]);
    let block = body_of(&Frame::Block(block));
    refused(&pool, &with_u32(&block, 22, u32::MAX), "block arity");
    refused(&pool, &with_u32(&block, 26, u32::MAX), "block rows");
    let overflowing = with_u32(&with_u32(&block, 22, u32::MAX), 26, u32::MAX);
    refused(&pool, &overflowing, "block rows × arity × 8 overflows");
    refused(&pool, &with_u32(&block, 26, 3), "one row more than the payload");
    refused(&pool, &block[..block.len() - 5], "block cut mid-value");

    // kind, name "R" (4 + 1): arity at 6, rows at 10; then two u64 lists.
    let lists = (vec![16, 16], vec![2, 2]);
    let summary = body_of(&Frame::Summary {
        output: rel.clone(),
        per_round_bytes: lists.0.clone(),
        per_round_tuples: lists.1.clone(),
    });
    refused(&pool, &with_u32(&summary, 6, u32::MAX), "relation arity");
    refused(&pool, &with_u32(&summary, 10, u32::MAX), "relation rows");
    let overflowing = with_u32(&with_u32(&summary, 6, u32::MAX), 10, u32::MAX);
    refused(&pool, &overflowing, "relation rows × arity overflows");
    let first_list = 14 + 2 * 2 * 8;
    refused(&pool, &with_u32(&summary, first_list, u32::MAX), "u64 list length");
    refused(&pool, &summary[..first_list + 4 + 8 + 3], "u64 list cut mid-value");
    refused(&pool, &summary[..14 + 8 + 3], "relation cut mid-row");

    // kind: count at 1.
    let peers = body_of(&Frame::Peers { peers: vec![(0, "127.0.0.1:4000".to_string())] });
    refused(&pool, &with_u32(&peers, 1, u32::MAX), "peer count");
    refused(&pool, &peers[..peers.len() - 3], "peer table cut mid-address");

    // kind, round: relation count at 5.
    let checkpoint = body_of(&Frame::Checkpoint {
        round: 1,
        relations: vec![rel.clone(), rel.with_name("S")],
        per_round_bytes: lists.0,
        per_round_tuples: lists.1,
    });
    refused(&pool, &with_u32(&checkpoint, 5, u32::MAX), "checkpoint relation count");
    refused(&pool, &checkpoint[..9 + 14 + 8 + 3], "checkpoint cut mid-relation");
    assert_eq!(pool.stats().checked_out, 0, "no refused frame reached the pool");
}

/// Zero-arity rows take no payload bytes, so a 30-byte frame may announce
/// 2³² of them: they are all the same row, and ingest must say so without
/// a 2³²-step loop or a table sized for them.
#[test]
fn a_block_of_four_billion_empty_rows_is_ingested_as_one() {
    let pool = BlockPool::new();
    let block = TupleBlock::from_parts(Arc::from("Unit"), 1, 0, 0, 0, 1, Vec::new());
    // kind, tag "Unit" (4 + 4), round, from, seq (8), arity: rows at 29.
    let forged = with_u32(&body_of(&Frame::Block(block)), 29, u32::MAX);
    let Frame::Block(block) = decode_body(&forged, &pool).expect("well-formed") else {
        panic!("not a block")
    };
    assert_eq!((block.len(), block.arity(), block.payload_bytes()), (u32::MAX as usize, 0, 0));
    let mut stage = RoundStage::default();
    stage.absorb(&block).unwrap();
    let mut state = ServerState::new(0, 10);
    state.merge_stage(block.round, stage).unwrap();
    state.settle().unwrap();
    assert_eq!(state.relation("Unit").unwrap().len(), 1);
    assert_eq!(state.tuples_received_in_round(1), u64::from(u32::MAX));
    pool.give_back(block.into_columns());
    assert!(pool.stats().balanced());
}
