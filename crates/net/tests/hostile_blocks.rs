//! Block shapes come off a socket: a peer that sends two blocks of
//! different arity under one tag, or a block for a round the job does not
//! have, must fail the worker with an error — never panic it.

use std::collections::VecDeque;
use std::sync::Arc;

use mpc_core::hypercube::HyperCubeProgram;
use mpc_core::multiround::executor::PlanProgram;
use mpc_core::multiround::planner::MultiRoundPlan;
use mpc_cq::families;
use mpc_data::matching_database;
use mpc_lp::Rational;
use mpc_net::frame::{decode_body, encode_frame};
use mpc_net::{Frame, Link, NetError, Packet, SendOutcome, Transport};
use mpc_sim::worker::drive;
use mpc_sim::{BlockPool, ColumnBuf, Input, MpcProgram, SimError, TupleBlock, WorkerCore};
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
    let mut cols = ColumnBuf::with_arity(row.len(), 1);
    cols.push(row);
    let frame = Frame::Block(TupleBlock::from_parts(Arc::from(tag), round, 1, 0, cols));
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
