//! A staged, single-threaded replica of the execution loops, written from
//! public calls only, with one span per stage.
//!
//! `Cluster::run`, `Cluster::run_async` and `mpc_net::run_distributed` each
//! interleave route → (seal → (encode → decode)) → ingest → compute → union
//! across threads, where no outside caller can time a stage. This replica
//! runs the same calls on the same inputs one stage at a time. Transit —
//! queues, sockets, barriers — is the part it cannot contain.

use std::sync::Arc;

use mpc_net::frame::{decode_body, encode_frame};
use mpc_net::Frame;
use mpc_sim::{
    union_outputs, AsyncConfig, BlockAssembler, BlockPool, MpcProgram, Routed, ServerState,
    TupleBlock,
};
use mpc_storage::{Database, Relation};

use super::{step, Step};
use crate::metrics::Metrics;
use crate::span::Tracer;

/// The shape data takes between routing and ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// `Cluster::run`: routed rows are received one by one.
    Rows,
    /// `Cluster::run_async` and the service: rows are sealed into columnar
    /// blocks and received per block.
    Blocks,
    /// `run_distributed`: sealed blocks are also encoded into frames and
    /// decoded again.
    Wire,
}

/// Counts taken at the stage boundaries of replica executions, summed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StageCounts {
    pub routed_msgs: u64,
    pub routed_copies: u64,
    pub blocks_sealed: u64,
    pub block_rows: u64,
    pub block_capacity: u64,
    pub frames: u64,
    pub frame_bytes: u64,
    /// Output tuples summed over servers, before the union removes
    /// duplicates.
    pub server_outputs: u64,
}

impl StageCounts {
    /// Report the counts of `queries` executions as the per-layer metrics
    /// they are, per query.
    pub fn report(&self, queries: f64, m: &mut Metrics) {
        m.set("sim.routed_msgs", self.routed_msgs as f64 / queries);
        m.set("sim.routed_copies", self.routed_copies as f64 / queries);
        m.set("sim.blocks_sealed", self.blocks_sealed as f64 / queries);
        if self.blocks_sealed > 0 {
            let capacity = (self.blocks_sealed * self.block_capacity) as f64;
            m.set("sim.block_fill", self.block_rows as f64 / capacity);
        }
        m.set("net.frames", self.frames as f64 / queries);
        m.set("net.frame_bytes", self.frame_bytes as f64 / queries);
    }
}

/// Execute `program` over `db` on `p` simulated servers, stage by stage.
pub fn execute(
    t: &mut Tracer,
    program: &dyn MpcProgram,
    db: &Database,
    p: usize,
    plane: Plane,
    counts: &mut StageCounts,
) -> Step<Relation> {
    let block_capacity = AsyncConfig::new().block_capacity;
    counts.block_capacity = block_capacity as u64;
    let pool = Arc::new(BlockPool::new());
    let mut servers: Vec<ServerState> =
        (0..p).map(|id| ServerState::new(id, db.domain_size())).collect();

    for round in 1..=program.num_rounds() {
        // One batch per sender: the input servers `p, p+1, …` in round 1,
        // the workers afterwards.
        let routed: Vec<(usize, Vec<Routed>)> = step(t.scope("sim.route", |_| {
            if round == 1 {
                db.relations()
                    .enumerate()
                    .map(|(ri, rel)| Ok((p + ri, program.route_input(rel, p)?)))
                    .collect::<mpc_sim::Result<_>>()
            } else {
                servers
                    .iter()
                    .map(|s| Ok((s.id(), program.route_tuples(round, s.id(), s)?)))
                    .collect()
            }
        }))?;
        for msg in routed.iter().flat_map(|(_, msgs)| msgs) {
            counts.routed_msgs += 1;
            counts.routed_copies += msg.destinations.len() as u64;
        }

        if plane == Plane::Rows {
            t.scope("sim.ingest", |_| {
                for msg in routed.iter().flat_map(|(_, msgs)| msgs) {
                    for &dest in &msg.destinations {
                        servers[dest].receive(round, &msg.tag, msg.tuple.clone());
                    }
                }
            });
        } else {
            let mut blocks = t.scope("sim.seal", |_| seal(&routed, &pool, block_capacity, round));
            let sealed = blocks.len() as u64;
            counts.blocks_sealed += sealed;
            counts.block_rows += blocks.iter().map(|(_, b)| b.len() as u64).sum::<u64>();
            if plane == Plane::Wire {
                let streams = t.scope("net.encode", |_| encode(blocks, &pool, p));
                counts.frames += sealed;
                counts.frame_bytes += streams.iter().map(|s| s.len() as u64).sum::<u64>();
                blocks = t.scope("net.decode", |_| decode(&streams, &pool))?;
            }
            t.scope("sim.ingest_block", |_| {
                for (dest, block) in blocks {
                    servers[dest].receive_many(round, &block.tag, block.arity(), block.rows());
                    pool.give_back(block.into_columns());
                }
            });
        }

        let derived: Vec<Vec<Relation>> = step(t.scope("storage.local_join", |_| {
            servers
                .iter()
                .map(|s| program.compute(round, s.id(), s))
                .collect::<mpc_sim::Result<_>>()
        }))?;
        t.scope("sim.add_local", |_| {
            for (server, rels) in servers.iter_mut().zip(derived) {
                for rel in rels {
                    server.add_local(rel);
                }
            }
        });
        // The loops under test free their routed rows too.
        t.scope("sim.free", |_| drop(routed));
    }

    let outputs: Vec<Relation> = step(t.scope("storage.local_join", |_| {
        servers.iter().map(|s| program.output(s.id(), s)).collect::<mpc_sim::Result<_>>()
    }))?;
    counts.server_outputs += outputs.iter().map(|o| o.len() as u64).sum::<u64>();
    let output = t.scope("sim.union", |_| union_outputs(program, outputs));
    t.scope("sim.free", |_| drop(servers));
    step(output).map(|(output, _)| output)
}

/// Pack every routed copy into per-`(destination, tag)` blocks, one
/// assembler per sender, as the event-driven senders do.
fn seal(
    routed: &[(usize, Vec<Routed>)],
    pool: &Arc<BlockPool>,
    capacity: usize,
    round: usize,
) -> Vec<(usize, TupleBlock)> {
    let mut blocks = Vec::new();
    for (sender, msgs) in routed {
        let mut asm = BlockAssembler::new(Arc::clone(pool), capacity, *sender, round);
        for msg in msgs {
            for &dest in &msg.destinations {
                if let Some(block) = asm.push(dest, &msg.tag, msg.tuple.values()) {
                    blocks.push((dest, block));
                }
            }
        }
        blocks.extend(asm.flush());
    }
    blocks
}

/// Encode every block as a data frame onto its destination's byte stream,
/// handing the column storage back to the pool as a sender does.
fn encode(blocks: Vec<(usize, TupleBlock)>, pool: &BlockPool, p: usize) -> Vec<Vec<u8>> {
    let mut streams = vec![Vec::new(); p];
    let mut buf = Vec::new();
    for (dest, block) in blocks {
        let frame = Frame::Block(block);
        encode_frame(&frame, &mut buf);
        streams[dest].extend_from_slice(&buf);
        if let Frame::Block(block) = frame {
            pool.give_back(block.into_columns());
        }
    }
    streams
}

/// Decode each destination's byte stream back into blocks drawn from the
/// pool.
fn decode(streams: &[Vec<u8>], pool: &BlockPool) -> Step<Vec<(usize, TupleBlock)>> {
    let mut blocks = Vec::new();
    for (dest, stream) in streams.iter().enumerate() {
        let mut at = 0;
        while at < stream.len() {
            let len = u32::from_le_bytes(stream[at..at + 4].try_into().expect("4-byte prefix"));
            let body = &stream[at + 4..at + 4 + len as usize];
            match step(decode_body(body, pool))? {
                Frame::Block(block) => blocks.push((dest, block)),
                other => return Err(format!("decoded a non-data frame: {other:?}")),
            }
            at += 4 + len as usize;
        }
    }
    Ok(blocks)
}
