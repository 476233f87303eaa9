//! The length-prefixed binary wire format.
//!
//! Every frame is `u32 LE body length` followed by the body; the body is
//! one kind byte plus kind-specific fields. Integers are little-endian,
//! strings are `u32 length + UTF-8 bytes`. The only data frame is
//! [`Frame::Block`], whose payload is the row-major
//! [`TupleBlock`] buffer **verbatim**: `rows × arity` 8-byte values, row
//! after row — the same bytes the in-process plane keeps in its pooled
//! buffers, and the same row codec the relations of `Summary` and
//! `Checkpoint` frames go through, so a batch of rows is encoded one way.
//!
//! Bytes off a socket are not trusted: every count a body announces is
//! checked against the bytes the body still holds *before* anything is
//! allocated for it, so a hostile length prefix is a
//! [`NetError::Protocol`], never an allocation.
//!
//! Control frames implement the master/worker protocol (the master's
//! state machine is `control.rs`'s): `Hello` → `Job` → `Peers` →
//! `MeshReady` → per-round `Ready`/`Proceed` → `Summary` → `Shutdown`,
//! with `Abort` usable by either side at any point. `DataHello`
//! identifies the connecting worker on a freshly opened data socket.
//! `poll_frame` is the one timed read of a control socket: the master's
//! driver and every wait of a worker use it.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use mpc_sim::{BlockPool, TupleBlock};
use mpc_storage::{Relation, Value};

use crate::{NetError, Result};

/// Upper bound on a frame body, as a sanity check against corrupted
/// length prefixes (64 MiB is far above any block this workspace seals).
const MAX_BODY: u32 = 64 << 20;

const KIND_HELLO: u8 = 1;
const KIND_JOB: u8 = 2;
const KIND_PEERS: u8 = 3;
const KIND_MESH_READY: u8 = 4;
const KIND_READY: u8 = 5;
const KIND_PROCEED: u8 = 6;
const KIND_BLOCK: u8 = 7;
const KIND_FIN: u8 = 8;
const KIND_SUMMARY: u8 = 9;
const KIND_SHUTDOWN: u8 = 10;
const KIND_ABORT: u8 = 11;
const KIND_DATA_HELLO: u8 = 12;
const KIND_CHECKPOINT: u8 = 13;
const KIND_REPLAY_REQUEST: u8 = 14;

/// One frame on a control or data socket.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Worker → master, first frame on the control socket: who am I and
    /// where do my peers reach my data listener.
    Hello {
        /// The worker's server id in `0..p`.
        worker_id: u32,
        /// TCP port of the worker's data listener (on localhost).
        data_port: u16,
    },
    /// Master → worker: the job description ([`crate::JobSpec`] wire
    /// form).
    Job {
        /// `JobSpec::to_wire()` text.
        spec: String,
    },
    /// Master → worker: the data-plane address of every worker.
    Peers {
        /// `(worker id, "host:port")` pairs, one per worker.
        peers: Vec<(u32, String)>,
    },
    /// Worker → master: all outbound data connections are up.
    MeshReady,
    /// Worker → master: finished `round`, ready for the next one. Round 0
    /// is the mesh barrier before the first data round.
    Ready {
        /// The completed round.
        round: u32,
    },
    /// Master → worker: every worker is ready; enter `round + 1`.
    Proceed {
        /// The round every worker has completed.
        round: u32,
    },
    /// A sealed tuple block (the only data frame).
    Block(TupleBlock),
    /// All round-`round` blocks from this sender have been sent.
    Fin {
        /// The finished round (1-based).
        round: u32,
    },
    /// Worker → master at end of job: this server's output relation and
    /// per-round received volumes.
    Summary {
        /// The server's local (pre-union) output relation.
        output: Relation,
        /// Bytes received per round (index `round - 1`).
        per_round_bytes: Vec<u64>,
        /// Tuples received per round.
        per_round_tuples: Vec<u64>,
    },
    /// Master → worker: the job is complete, exit cleanly.
    Shutdown,
    /// Either direction: the job is dead; tear everything down.
    Abort {
        /// Human-readable cause.
        reason: String,
    },
    /// Worker → worker, first frame on a freshly opened data socket:
    /// which server is on the other end.
    DataHello {
        /// Sending server id.
        from: u32,
    },
    /// A round checkpoint: the server's full post-compute relation state
    /// and per-round received volumes at the end of `round`.
    ///
    /// Worker → master: sent on the control stream right before
    /// `Ready(round)` (the per-round barrier is the checkpoint cut).
    /// Master → worker: the same payload restores a re-spawned worker,
    /// which resumes execution at `round + 1`.
    Checkpoint {
        /// The completed round this snapshot describes (0 = fresh start).
        round: u32,
        /// Every relation the server knows, in tag order.
        relations: Vec<Relation>,
        /// Bytes received per round (index `round - 1`).
        per_round_bytes: Vec<u64>,
        /// Tuples received per round.
        per_round_tuples: Vec<u64>,
    },
    /// Re-spawned worker → surviving peer, right after `DataHello` on the
    /// rejoin data socket: retransmit your logged outbound frames for
    /// every round after `from_round` (the rejoiner's checkpoint).
    ReplayRequest {
        /// The rejoining worker's restored checkpoint round.
        from_round: u32,
    },
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A cursor over a received frame body.
struct Body<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Body<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(NetError::Protocol("frame body truncated".to_string()));
        };
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| NetError::Protocol("frame string is not UTF-8".to_string()))
    }

    /// `count` elements announced by a length prefix, refused unless that
    /// many — at least `min_bytes` encoded bytes each — can still follow:
    /// what every allocation sized by the wire is checked by first.
    fn announced(&self, count: usize, min_bytes: usize) -> Result<usize> {
        match count.checked_mul(min_bytes) {
            Some(need) if need <= self.bytes.len() - self.at => Ok(count),
            _ => Err(NetError::Protocol(
                "frame announces more elements than its body holds".to_string(),
            )),
        }
    }

    /// A `u32` element count, checked by [`Body::announced`].
    fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let count = self.u32()? as usize;
        self.announced(count, min_bytes)
    }

    /// Decode a batch of `rows` rows of `arity` values — the payload of a
    /// block and of a relation alike — into a buffer obtained from `lend`,
    /// which is asked for room only once the body is known to hold every
    /// value the header announced.
    fn rows(
        &mut self,
        arity: usize,
        rows: usize,
        lend: impl FnOnce(usize) -> Vec<Value>,
    ) -> Result<Vec<Value>> {
        let count = self.announced(rows.saturating_mul(arity), 8)?;
        let raw = self.take(count * 8)?;
        let mut values = lend(count);
        values.extend(
            raw.chunks_exact(8).map(|v| u64::from_le_bytes(v.try_into().expect("8 bytes"))),
        );
        Ok(values)
    }
}

/// Row-major values, 8 bytes each — how the rows of a block and of a
/// relation are both written.
fn put_values<'v>(buf: &mut Vec<u8>, values: impl IntoIterator<Item = &'v Value>) {
    for &v in values {
        put_u64(buf, v);
    }
}

fn put_relation(buf: &mut Vec<u8>, rel: &Relation) {
    put_str(buf, rel.name());
    put_u32(buf, rel.arity() as u32);
    put_u32(buf, rel.len() as u32);
    put_values(buf, rel.iter().flatten());
}

fn put_u64s(buf: &mut Vec<u8>, vs: &[u64]) {
    put_u32(buf, vs.len() as u32);
    put_values(buf, vs);
}

fn take_relation(b: &mut Body<'_>) -> Result<Relation> {
    let name = b.str()?;
    let arity = b.u32()? as usize;
    let rows = b.u32()? as usize;
    let mut rel = Relation::empty(&name, arity);
    rel.insert_rows(rows, &b.rows(arity, rows, Vec::with_capacity)?)?;
    Ok(rel)
}

/// A list of `u64`s is `count` rows of one value.
fn take_u64s(b: &mut Body<'_>) -> Result<Vec<u64>> {
    let count = b.u32()? as usize;
    b.rows(1, count, Vec::with_capacity)
}

/// Serialise `frame` into `buf` (cleared first): length prefix + body.
pub fn encode_frame(frame: &Frame, buf: &mut Vec<u8>) {
    buf.clear();
    put_u32(buf, 0); // length placeholder
    match frame {
        Frame::Hello { worker_id, data_port } => {
            buf.push(KIND_HELLO);
            put_u32(buf, *worker_id);
            put_u16(buf, *data_port);
        }
        Frame::Job { spec } => {
            buf.push(KIND_JOB);
            put_str(buf, spec);
        }
        Frame::Peers { peers } => {
            buf.push(KIND_PEERS);
            put_u32(buf, peers.len() as u32);
            for (id, addr) in peers {
                put_u32(buf, *id);
                put_str(buf, addr);
            }
        }
        Frame::MeshReady => buf.push(KIND_MESH_READY),
        Frame::Ready { round } => {
            buf.push(KIND_READY);
            put_u32(buf, *round);
        }
        Frame::Proceed { round } => {
            buf.push(KIND_PROCEED);
            put_u32(buf, *round);
        }
        Frame::Block(block) => {
            buf.push(KIND_BLOCK);
            put_str(buf, &block.tag);
            put_u32(buf, block.round as u32);
            put_u32(buf, block.from as u32);
            put_u64(buf, block.seq);
            put_u32(buf, block.arity() as u32);
            put_u32(buf, block.len() as u32);
            put_values(buf, block.values());
        }
        Frame::Fin { round } => {
            buf.push(KIND_FIN);
            put_u32(buf, *round);
        }
        Frame::Summary { output, per_round_bytes, per_round_tuples } => {
            buf.push(KIND_SUMMARY);
            put_relation(buf, output);
            put_u64s(buf, per_round_bytes);
            put_u64s(buf, per_round_tuples);
        }
        Frame::Shutdown => buf.push(KIND_SHUTDOWN),
        Frame::Abort { reason } => {
            buf.push(KIND_ABORT);
            put_str(buf, reason);
        }
        Frame::DataHello { from } => {
            buf.push(KIND_DATA_HELLO);
            put_u32(buf, *from);
        }
        Frame::Checkpoint { round, relations, per_round_bytes, per_round_tuples } => {
            buf.push(KIND_CHECKPOINT);
            put_u32(buf, *round);
            put_u32(buf, relations.len() as u32);
            for rel in relations {
                put_relation(buf, rel);
            }
            put_u64s(buf, per_round_bytes);
            put_u64s(buf, per_round_tuples);
        }
        Frame::ReplayRequest { from_round } => {
            buf.push(KIND_REPLAY_REQUEST);
            put_u32(buf, *from_round);
        }
    }
    let body_len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&body_len.to_le_bytes());
}

/// Write one frame to `w` (buffered by the caller; no flush here).
///
/// # Errors
///
/// Propagates write errors.
pub(crate) fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<()> {
    let mut buf = Vec::new();
    encode_frame(frame, &mut buf);
    w.write_all(&buf)?;
    Ok(())
}

/// Read one frame from `r`. Block payloads fill a buffer checked out of
/// `pool`, so steady-state decoding reuses storage.
///
/// # Errors
///
/// Fails on socket errors, truncated or oversized frames, and malformed
/// bodies.
pub(crate) fn read_frame<R: Read>(r: &mut R, pool: &BlockPool) -> Result<Frame> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4);
    if len == 0 || len > MAX_BODY {
        return Err(NetError::Protocol(format!("implausible frame length {len}")));
    }
    let mut raw = vec![0u8; len as usize];
    r.read_exact(&mut raw)?;
    decode_body(&raw, pool)
}

/// What one timed poll of a control socket produced.
pub(crate) enum Polled {
    /// Nothing arrived within the wait.
    Pending,
    /// A complete frame.
    Got(Frame),
    /// The socket closed or failed: the process on the other end is gone.
    Dead(String),
}

/// Wait up to `wait` for a frame on a control socket. The timeout covers
/// only the wait for a frame's first byte and is cleared before the frame
/// is read, so a slow frame is never cut off mid-read (which would
/// corrupt the stream). A closed or failing socket is [`Polled::Dead`],
/// not an error; only a malformed frame is one.
pub(crate) fn poll_frame(
    control: &mut BufReader<TcpStream>,
    wait: Duration,
    pool: &BlockPool,
) -> Result<Polled> {
    control.get_ref().set_read_timeout(Some(wait))?;
    let waited = control.fill_buf().map(|buffered| buffered.is_empty());
    control.get_ref().set_read_timeout(None)?;
    match waited {
        Ok(true) => return Ok(Polled::Dead("control connection closed".to_string())),
        Ok(false) => {}
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            return Ok(Polled::Pending);
        }
        Err(e) => return Ok(Polled::Dead(format!("control socket failed: {e}"))),
    }
    match read_frame(control, pool) {
        Ok(frame) => Ok(Polled::Got(frame)),
        Err(NetError::Io(e)) => Ok(Polled::Dead(format!("control stream cut mid-frame: {e}"))),
        Err(e) => Err(e),
    }
}

/// Decode one frame body (everything after the length prefix).
///
/// # Errors
///
/// Fails on malformed bodies.
pub fn decode_body(raw: &[u8], pool: &BlockPool) -> Result<Frame> {
    let mut b = Body { bytes: raw, at: 0 };
    let kind = b.take(1)?[0];
    let frame = match kind {
        KIND_HELLO => Frame::Hello { worker_id: b.u32()?, data_port: b.u16()? },
        KIND_JOB => Frame::Job { spec: b.str()? },
        KIND_PEERS => {
            // A peer is at least an id and a string length.
            let count = b.count(4 + 4)?;
            let mut peers = Vec::with_capacity(count);
            for _ in 0..count {
                let id = b.u32()?;
                let addr = b.str()?;
                peers.push((id, addr));
            }
            Frame::Peers { peers }
        }
        KIND_MESH_READY => Frame::MeshReady,
        KIND_READY => Frame::Ready { round: b.u32()? },
        KIND_PROCEED => Frame::Proceed { round: b.u32()? },
        KIND_BLOCK => {
            let tag: Arc<str> = Arc::from(b.str()?.as_str());
            let round = b.u32()? as usize;
            let from = b.u32()? as usize;
            let seq = b.u64()?;
            let arity = b.u32()? as usize;
            let rows = b.u32()? as usize;
            let values = b.rows(arity, rows, |count| pool.checkout(count))?;
            Frame::Block(TupleBlock::from_parts(tag, round, from, seq, arity, rows, values))
        }
        KIND_FIN => Frame::Fin { round: b.u32()? },
        KIND_SUMMARY => {
            let output = take_relation(&mut b)?;
            let per_round_bytes = take_u64s(&mut b)?;
            let per_round_tuples = take_u64s(&mut b)?;
            Frame::Summary { output, per_round_bytes, per_round_tuples }
        }
        KIND_SHUTDOWN => Frame::Shutdown,
        KIND_ABORT => Frame::Abort { reason: b.str()? },
        KIND_DATA_HELLO => Frame::DataHello { from: b.u32()? },
        KIND_CHECKPOINT => {
            let round = b.u32()?;
            // A relation is at least a name length, an arity and a row count.
            let count = b.count(4 + 4 + 4)?;
            let mut relations = Vec::with_capacity(count);
            for _ in 0..count {
                relations.push(take_relation(&mut b)?);
            }
            let per_round_bytes = take_u64s(&mut b)?;
            let per_round_tuples = take_u64s(&mut b)?;
            Frame::Checkpoint { round, relations, per_round_bytes, per_round_tuples }
        }
        KIND_REPLAY_REQUEST => Frame::ReplayRequest { from_round: b.u32()? },
        other => return Err(NetError::Protocol(format!("unknown frame kind {other}"))),
    };
    if b.at != raw.len() {
        return Err(NetError::Protocol(format!(
            "frame kind {kind} left {} trailing bytes",
            raw.len() - b.at
        )));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_sim::BlockAssembler;

    fn round_trip(frame: &Frame, pool: &BlockPool) -> Frame {
        let mut wire = Vec::new();
        write_frame(&mut wire, frame).unwrap();
        let mut cursor = &wire[..];
        let got = read_frame(&mut cursor, pool).unwrap();
        assert!(cursor.is_empty(), "frame consumed exactly");
        got
    }

    #[test]
    fn control_frames_round_trip() {
        let pool = BlockPool::new();
        let frames = vec![
            Frame::Hello { worker_id: 3, data_port: 40123 },
            Frame::Job { spec: "program=hypercube\nquery=C3(a,b,c) :- R(a,b)".to_string() },
            Frame::Peers {
                peers: vec![(0, "127.0.0.1:4000".to_string()), (1, "127.0.0.1:4001".to_string())],
            },
            Frame::MeshReady,
            Frame::Ready { round: 2 },
            Frame::Proceed { round: 2 },
            Frame::Fin { round: 1 },
            Frame::Shutdown,
            Frame::Abort { reason: "worker 2 died".to_string() },
            Frame::DataHello { from: 5 },
            Frame::ReplayRequest { from_round: 3 },
        ];
        for f in frames {
            let got = round_trip(&f, &pool);
            assert_eq!(format!("{f:?}"), format!("{got:?}"));
        }
    }

    #[test]
    fn block_frames_preserve_columns_and_recycle_storage() {
        let pool = Arc::new(BlockPool::new());
        let mut asm = BlockAssembler::new(Arc::clone(&pool), 4, 7, 2);
        let mut sealed = None;
        for i in 0..4u64 {
            if let Some(b) = asm.push(1, "Edge", &[i, i * 10, i * 100]) {
                sealed = Some(b);
            }
        }
        let block = sealed.expect("sealed at capacity");
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Block(block.clone())).unwrap();
        let got = match read_frame(&mut &wire[..], &pool).unwrap() {
            Frame::Block(b) => b,
            other => panic!("expected a block, got {other:?}"),
        };
        assert_eq!((&*got.tag, got.round, got.from, got.seq), ("Edge", 2, 7, 0));
        assert_eq!(got.len(), 4);
        assert_eq!(got.arity(), 3);
        assert_eq!(got.values(), block.values(), "every row intact, in order");
        assert_eq!(got.payload_bytes(), block.payload_bytes());
        pool.give_back(block.into_columns());
        pool.give_back(got.into_columns());
        assert!(pool.stats().balanced());
    }

    #[test]
    fn a_block_frame_is_its_header_plus_eight_bytes_per_value() {
        let header = |tag: &str| 4 + 1 + (4 + tag.len()) + 4 + 4 + 8 + 4 + 4;
        let mut wire = Vec::new();
        for (tag, arity, rows) in [("R", 2, 3), ("Edge", 3, 256), ("Unit", 0, 5), ("V1_0", 1, 1)] {
            let values = (0..(rows * arity) as u64).collect();
            let block = TupleBlock::from_parts(Arc::from(tag), 1, 0, 0, arity, rows, values);
            encode_frame(&Frame::Block(block), &mut wire);
            assert_eq!(wire.len(), header(tag) + rows * arity * 8, "{tag}");
        }
    }

    #[test]
    fn a_relation_and_a_block_of_the_same_rows_share_their_payload_bytes() {
        let rows = [[7u64, 1], [2, 9], [u64::MAX, 0]];
        let rel = Relation::from_tuples("R", 2, rows).unwrap();
        let block = TupleBlock::from_parts(Arc::from("R"), 1, 0, 0, 2, 3, rows.concat());
        let (mut as_block, mut as_relation) = (Vec::new(), Vec::new());
        encode_frame(&Frame::Block(block), &mut as_block);
        let summary =
            Frame::Summary { output: rel, per_round_bytes: vec![], per_round_tuples: vec![] };
        encode_frame(&summary, &mut as_relation);
        let payload = 3 * 2 * 8;
        // The summary ends in two empty `u64` lists (4 bytes each).
        let of_relation = &as_relation[as_relation.len() - 8 - payload..as_relation.len() - 8];
        assert_eq!(&as_block[as_block.len() - payload..], of_relation);
        assert_eq!(&of_relation[..16], [7u64.to_le_bytes(), 1u64.to_le_bytes()].concat());
    }

    #[test]
    fn summary_frames_round_trip() {
        let pool = BlockPool::new();
        let output = Relation::from_tuples("q", 2, vec![[1u64, 2], [3, 4]]).unwrap();
        let f = Frame::Summary {
            output: output.clone(),
            per_round_bytes: vec![128, 0, 64],
            per_round_tuples: vec![8, 0, 4],
        };
        match round_trip(&f, &pool) {
            Frame::Summary { output: got, per_round_bytes, per_round_tuples } => {
                assert!(got.same_tuples(&output));
                assert_eq!(per_round_bytes, vec![128, 0, 64]);
                assert_eq!(per_round_tuples, vec![8, 0, 4]);
            }
            other => panic!("expected a summary, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_frames_round_trip() {
        let pool = BlockPool::new();
        let r1 = Relation::from_tuples("R", 2, vec![[1u64, 2], [3, 4]]).unwrap();
        let r2 = Relation::from_tuples("S", 3, vec![[5u64, 6, 7]]).unwrap();
        let f = Frame::Checkpoint {
            round: 2,
            relations: vec![r1.clone(), r2.clone()],
            per_round_bytes: vec![96, 24],
            per_round_tuples: vec![6, 1],
        };
        match round_trip(&f, &pool) {
            Frame::Checkpoint { round, relations, per_round_bytes, per_round_tuples } => {
                assert_eq!(round, 2);
                assert_eq!(relations.len(), 2);
                assert!(relations[0].same_tuples(&r1));
                assert_eq!(relations[0].name(), "R");
                assert!(relations[1].same_tuples(&r2));
                assert_eq!(relations[1].name(), "S");
                assert_eq!(per_round_bytes, vec![96, 24]);
                assert_eq!(per_round_tuples, vec![6, 1]);
            }
            other => panic!("expected a checkpoint, got {other:?}"),
        }
        // A fresh-start checkpoint is legal: round 0, nothing learned yet.
        match round_trip(
            &Frame::Checkpoint {
                round: 0,
                relations: vec![],
                per_round_bytes: vec![],
                per_round_tuples: vec![],
            },
            &pool,
        ) {
            Frame::Checkpoint { round: 0, relations, .. } => assert!(relations.is_empty()),
            other => panic!("expected the empty checkpoint, got {other:?}"),
        }
    }

    #[test]
    fn malformed_frames_are_rejected_not_trusted() {
        let pool = BlockPool::new();
        // Implausible length prefix.
        let wire = (MAX_BODY + 1).to_le_bytes();
        assert!(read_frame(&mut &wire[..], &pool).is_err());
        // Unknown kind.
        assert!(decode_body(&[99], &pool).is_err());
        // Truncated body.
        assert!(decode_body(&[KIND_READY, 1], &pool).is_err());
        // Trailing garbage.
        assert!(decode_body(&[KIND_MESH_READY, 0, 0], &pool).is_err());
    }
}
