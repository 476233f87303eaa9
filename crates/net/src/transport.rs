//! The socket fabric: [`TcpTransport`], the [`Transport`] a worker's
//! [`mpc_sim::WorkerCore`] is driven over when its peers are reached by
//! TCP. (The in-process fabric is the event-driven backend's own lanes —
//! `run_distributed(.., TransportKind::InProcess)` *is*
//! [`mpc_sim::Cluster::run_async`].)
//!
//! Packets travel as length-prefixed frames ([`crate::frame`]) over one
//! full-duplex TCP stream per peer pair, with a reader thread per inbound
//! connection decoding frames into the worker's inbox. The
//! [`Transport::round_done`] hook is where this fabric adds what the
//! protocol itself does not need: the round checkpoint and the
//! cluster-wide barrier, both on the worker's control connection to the
//! master (`Checkpoint`, `Ready`/`Proceed`), bracketed by the
//! fault-injection trip points.
//!
//! **Backpressure note.** TCP inboxes are fed by reader threads via
//! `force_send`, so their lanes are unbounded — the kernel's socket
//! buffers provide the real backpressure, and bounding the inbox as well
//! could deadlock the single reader thread behind a stalled worker. A
//! send therefore never reports `Full`.
//!
//! **Recovery note.** When its job asks for recovery (the `recovery`
//! flag of [`TcpTransport::new`]) the TCP transport additionally (a)
//! checkpoints every round, (b) retains every outbound data frame of the
//! last two rounds in a per-round replay log, (c) keeps its data listener
//! open on an acceptor thread so a re-spawned peer can rejoin mid-job
//! (`DataHello` + `ReplayRequest`), replaying the logged frames onto the
//! fresh socket, and (d) dedups inbound blocks by the `(from, round)`
//! sequence watermark and inbound FINs by `(link, round)`, so a
//! recovering peer's re-sent traffic is delivered exactly once. A dead peer then stalls this worker (waiting for the
//! master to re-spawn it) instead of aborting the job.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpc_sim::queue::{InboxReceiver, LinkSender};
use mpc_sim::{BlockPool, Link, Packet, SendOutcome, ServerState, SimError, Transport};
use mpc_storage::Relation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fault::{self, FaultKind, FaultPhase};
use crate::frame::{poll_frame, read_frame, write_frame, Frame, Polled};
use crate::recovery::REPLAY_ROUNDS;
use crate::{NetError, Result};

/// What travels through a TCP worker's inbox: a decoded packet, or `None`
/// — the rejoin acceptor's wake-up ("a re-spawned peer is waiting, service
/// it"), which `recv`/`try_recv` swallow.
type Inbound = Option<Packet>;

/// The poll interval of the recovery-mode barrier wait and the rejoin
/// acceptor: short enough to service a rejoining peer promptly.
const REJOIN_POLL: Duration = Duration::from_millis(10);

/// Hard cap on the exponential dial backoff pause.
const DIAL_PAUSE_CAP: Duration = Duration::from_millis(250);

/// Connect to `addr`, retrying with capped exponential backoff plus
/// seeded jitter until `deadline` has elapsed — so a slow-starting peer
/// (or a master still binding its listener) does not kill the job, and
/// simultaneous retriers do not stampede in lockstep.
///
/// # Errors
///
/// Returns the last connect error once the deadline passes.
pub(crate) fn dial_with_backoff(addr: &str, deadline: Duration, seed: u64) -> Result<TcpStream> {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1A1_B0FF);
    let mut pause = Duration::from_millis(2);
    let mut attempts = 0u32;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                attempts += 1;
                if start.elapsed() >= deadline {
                    return Err(NetError::Protocol(format!(
                        "dial {addr} failed after {attempts} attempts over {deadline:?}: {e}"
                    )));
                }
                let jitter_us = rng.gen_range(0..=pause.as_micros() as u64 / 2 + 1);
                std::thread::sleep(pause + Duration::from_micros(jitter_us));
                pause = (pause * 2).min(DIAL_PAUSE_CAP);
            }
        }
    }
}

/// Inbound dedup state shared by every pump thread of one transport:
/// per-`(from, round)` sequence watermarks for blocks (the assembler's
/// seq is monotone per sender and round, so `seq <= watermark` means
/// "already delivered") and the set of `(link, round)` FINs already
/// counted. Only consulted in recovery mode.
#[derive(Debug, Default)]
struct Dedup {
    block_watermark: HashMap<(usize, usize), u64>,
    fins_seen: HashSet<(usize, usize)>,
}

/// One re-spawned peer waiting to be wired back into the mesh.
struct Rejoin {
    from: usize,
    from_round: usize,
    stream: TcpStream,
}

/// The acceptor-to-worker rejoin mailbox.
struct RejoinShared {
    queue: Mutex<Vec<Rejoin>>,
    pending: AtomicBool,
}

/// The endpoints a freshly meshed worker hands to [`TcpTransport::new`].
pub(crate) struct TcpEndpoints {
    /// This worker's server id.
    pub(crate) id: usize,
    /// Cluster size.
    pub(crate) p: usize,
    /// `outbound[dest]` — a connected data stream to each peer (`None`
    /// at `dest == id`, and everywhere for a worker past its last round).
    pub(crate) outbound: Vec<Option<TcpStream>>,
    /// Accepted data streams, each paired with the sending server's id
    /// (from its `DataHello`).
    pub(crate) inbound: Vec<(usize, TcpStream)>,
    /// The control stream to the master (`Ready`/`Proceed` barriers).
    pub(crate) control: TcpStream,
    /// The worker's data listener, kept open for rejoining peers when
    /// recovery is enabled.
    pub(crate) listener: TcpListener,
}

/// The socket transport: one outbound TCP stream per peer, reader threads
/// feeding the inbox, and a control stream to the master for barriers.
pub(crate) struct TcpTransport {
    id: usize,
    /// `writers[dest]` is the framed stream into `dest` (`None` at
    /// `dest == id`; self-sends never reach the transport).
    writers: Vec<Option<BufWriter<TcpStream>>>,
    rx: InboxReceiver<Inbound>,
    /// Reusable burst buffer between the inbox and `recv`'s caller.
    raw: Vec<Inbound>,
    /// Reader-thread handles, joined by [`TcpTransport::shutdown`].
    readers: Vec<std::thread::JoinHandle<()>>,
    control: BufReader<TcpStream>,
    aborted: Arc<AtomicBool>,
    scratch: Vec<u8>,
    pool: Arc<BlockPool>,
    recovery: bool,
    /// `down[dest]`: the peer's socket died but the master may re-spawn
    /// it — sends are logged (for replay) instead of failing.
    down: Vec<bool>,
    /// Replay log: per round, the encoded outbound data frames in send
    /// order, each tagged with its destination. Bounded to the last
    /// [`REPLAY_ROUNDS`] rounds (pruned at each barrier).
    log: BTreeMap<usize, Vec<(usize, Vec<u8>)>>,
    /// Inbound lanes, retained in recovery mode so pumps for rejoining
    /// peers can be spawned and the acceptor can wake a blocked `recv`.
    senders: Vec<LinkSender<Inbound>>,
    dedup: Arc<Mutex<Dedup>>,
    rejoins: Option<Arc<RejoinShared>>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    acceptor_stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport").field("id", &self.id).finish_non_exhaustive()
    }
}

/// Pump one inbound data connection: decode frames, push packets into the
/// owning worker's inbox. Exits on EOF, socket error or receiver drop.
///
/// In recovery mode a socket error is a *silent* exit (the master will
/// notice the dead process and re-spawn it; aborting here would kill the
/// job recovery exists to save), and duplicate blocks/FINs — a recovered
/// peer re-sending the in-flight round — are dropped via the shared
/// dedup state. Frame decode errors (a corrupt stream) stay fatal.
struct PumpShared {
    pool: Arc<BlockPool>,
    aborted: Arc<AtomicBool>,
    dedup: Arc<Mutex<Dedup>>,
    recovery: bool,
}

fn pump_reader(stream: TcpStream, from: usize, lane: LinkSender<Inbound>, sh: Arc<PumpShared>) {
    let mut r = BufReader::new(stream);
    loop {
        match read_frame(&mut r, &sh.pool) {
            Ok(Frame::Block(b)) => {
                if sh.recovery {
                    let mut d = sh.dedup.lock().expect("dedup lock");
                    let key = (b.from, b.round);
                    if d.block_watermark.get(&key).is_some_and(|&w| b.seq <= w) {
                        sh.pool.give_back(b.into_columns());
                        continue;
                    }
                    d.block_watermark.insert(key, b.seq);
                }
                if lane.force_send(Some(Packet::Block(b))).is_err() {
                    return;
                }
            }
            Ok(Frame::Fin { round }) => {
                let round = round as usize;
                if sh.recovery
                    && !sh.dedup.lock().expect("dedup lock").fins_seen.insert((from, round))
                {
                    continue;
                }
                if lane.force_send(Some(Packet::Fin { round })).is_err() {
                    return;
                }
            }
            Err(NetError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                // Clean close after the peer finished sending.
                return;
            }
            Err(NetError::Io(_)) if sh.recovery => {
                // The peer process died mid-stream. Recovery is on: leave
                // the abort to the master's liveness poll and wait for
                // the replacement to rejoin.
                return;
            }
            _ => {
                // An abort, a frame a data socket does not carry (only
                // blocks, FINs and aborts), or a dead or corrupt peer:
                // fail the local worker fast.
                sh.aborted.store(true, Ordering::SeqCst);
                let _ = lane.force_send(Some(Packet::Abort));
                return;
            }
        }
    }
}

/// Poll `listener` for re-spawned peers dialing back in. Each rejoin
/// socket starts with `DataHello{from}` + `ReplayRequest{from_round}`;
/// the pair is queued for the worker thread (which owns the writers and
/// the replay log) and a `None` is forced into the worker's own inbox
/// lane to wake a blocked `recv`. A hello naming no peer — out of range,
/// or this worker's own `id` — is dropped.
fn accept_rejoins(
    listener: TcpListener,
    p: usize,
    id: usize,
    stop: Arc<AtomicBool>,
    shared: Arc<RejoinShared>,
    wake: LinkSender<Inbound>,
) {
    let pool = BlockPool::new();
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !stop.load(Ordering::SeqCst) {
        let (mut stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(REJOIN_POLL);
                continue;
            }
            Err(_) => return,
        };
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        stream.set_nodelay(true).ok();
        let from = match read_frame(&mut stream, &pool) {
            Ok(Frame::DataHello { from }) => from as usize,
            _ => continue,
        };
        let from_round = match read_frame(&mut stream, &pool) {
            Ok(Frame::ReplayRequest { from_round }) => from_round as usize,
            _ => continue,
        };
        if from >= p || from == id {
            continue;
        }
        shared.queue.lock().expect("rejoin queue lock").push(Rejoin { from, from_round, stream });
        shared.pending.store(true, Ordering::SeqCst);
        if wake.force_send(None).is_err() {
            return;
        }
    }
}

impl TcpTransport {
    /// Assemble worker `ep.id`'s transport from its meshed endpoints.
    /// With `recovery` the data listener keeps accepting rejoining peers,
    /// every round is checkpointed and outbound frames are retained for
    /// replay; otherwise the transport is the original fail-fast fabric.
    ///
    /// # Errors
    ///
    /// Fails on malformed endpoint tables.
    pub(crate) fn new(ep: TcpEndpoints, pool: Arc<BlockPool>, recovery: bool) -> Result<Self> {
        let TcpEndpoints { id, p, outbound, inbound, control, listener } = ep;
        // Unbounded lanes: only `force_send` ever fills them.
        let (senders, rx) = mpc_sim::queue::Inbox::channel(p, usize::MAX);
        let aborted = Arc::new(AtomicBool::new(false));
        let dedup = Arc::new(Mutex::new(Dedup::default()));
        let pump_shared = Arc::new(PumpShared {
            pool: Arc::clone(&pool),
            aborted: Arc::clone(&aborted),
            dedup: Arc::clone(&dedup),
            recovery,
        });
        let mut readers = Vec::with_capacity(inbound.len());
        for (from, stream) in inbound {
            if from >= p {
                return Err(NetError::Protocol(format!("data hello from bad peer {from}")));
            }
            let lane = senders[from].clone();
            let sh = Arc::clone(&pump_shared);
            readers.push(std::thread::spawn(move || pump_reader(stream, from, lane, sh)));
        }
        let writers: Vec<Option<BufWriter<TcpStream>>> = outbound
            .into_iter()
            .map(|s| {
                s.map(|s| {
                    s.set_nodelay(true).ok();
                    BufWriter::new(s)
                })
            })
            .collect();
        let acceptor_stop = Arc::new(AtomicBool::new(false));
        let (rejoins, acceptor) = if recovery {
            let shared = Arc::new(RejoinShared {
                queue: Mutex::new(Vec::new()),
                pending: AtomicBool::new(false),
            });
            let stop = Arc::clone(&acceptor_stop);
            let mailbox = Arc::clone(&shared);
            let wake = senders[id].clone();
            let h =
                std::thread::spawn(move || accept_rejoins(listener, p, id, stop, mailbox, wake));
            (Some(shared), Some(h))
        } else {
            (None, None)
        };
        Ok(TcpTransport {
            id,
            writers,
            rx,
            raw: Vec::new(),
            readers,
            control: BufReader::new(control),
            aborted,
            scratch: Vec::new(),
            pool,
            recovery,
            down: vec![false; p],
            log: BTreeMap::new(),
            senders: if recovery { senders } else { Vec::new() },
            dedup,
            rejoins,
            acceptor,
            acceptor_stop,
        })
    }

    fn write_to(&mut self, dest: usize, frame: &Frame) -> Result<()> {
        let Some(w) = self.writers.get_mut(dest).and_then(|w| w.as_mut()) else {
            return Err(NetError::Protocol(format!("no data stream to peer {dest}")));
        };
        crate::frame::encode_frame(frame, &mut self.scratch);
        w.write_all(&self.scratch)?;
        Ok(())
    }

    /// Flush every outbound data stream (called at FIN boundaries). In
    /// recovery mode a flush error marks the peer down instead of failing
    /// the round — its frames live in the replay log.
    fn flush_all(&mut self) -> Result<()> {
        for dest in 0..self.writers.len() {
            let Some(w) = self.writers[dest].as_mut() else { continue };
            if let Err(e) = w.flush() {
                if self.recovery {
                    self.writers[dest] = None;
                    self.down[dest] = true;
                } else {
                    return Err(e.into());
                }
            }
        }
        Ok(())
    }

    /// The cluster size this transport was meshed for.
    pub(crate) fn parties(&self) -> usize {
        self.writers.len()
    }

    /// Send a frame to the master over the control stream (used by the
    /// spawned worker for its end-of-job `Summary` and its round
    /// checkpoints).
    ///
    /// # Errors
    ///
    /// Fails when the master is gone.
    pub(crate) fn send_control(&mut self, frame: &Frame) -> Result<()> {
        crate::frame::encode_frame(frame, &mut self.scratch);
        self.control.get_mut().write_all(&self.scratch)?;
        self.control.get_mut().flush()?;
        Ok(())
    }

    /// Read one frame from the master's control stream (used by the
    /// spawned worker to await its `Shutdown`).
    ///
    /// # Errors
    ///
    /// Fails when the master is gone or sends garbage.
    pub(crate) fn read_control(&mut self) -> Result<Frame> {
        let pool = BlockPool::new();
        read_frame(&mut self.control, &pool)
    }

    /// Wire every queued re-spawned peer back into the mesh: install its
    /// fresh socket as the outbound writer, replay the logged frames of
    /// every round past its restored checkpoint, and spawn a pump for its
    /// inbound traffic. Best-effort: a peer that died *again* is simply marked
    /// down and left to the master's next recovery round.
    fn service_rejoins(&mut self) {
        let Some(shared) = &self.rejoins else { return };
        if !shared.pending.swap(false, Ordering::SeqCst) {
            return;
        }
        let pending: Vec<Rejoin> =
            shared.queue.lock().expect("rejoin queue lock").drain(..).collect();
        for rj in pending {
            let Ok(write_half) = rj.stream.try_clone() else {
                self.down[rj.from] = true;
                continue;
            };
            let mut w = BufWriter::new(write_half);
            let replayed = self
                .log
                .range(rj.from_round + 1..)
                .flat_map(|(_, frames)| frames)
                .filter(|(dest, _)| *dest == rj.from)
                .try_for_each(|(_, bytes)| w.write_all(bytes));
            if replayed.and_then(|()| w.flush()).is_err() {
                self.down[rj.from] = true;
                continue;
            }
            self.writers[rj.from] = Some(w);
            self.down[rj.from] = false;
            let lane = self.senders[rj.from].clone();
            let sh = Arc::new(PumpShared {
                pool: Arc::clone(&self.pool),
                aborted: Arc::clone(&self.aborted),
                dedup: Arc::clone(&self.dedup),
                recovery: true,
            });
            let from = rj.from;
            self.readers.push(std::thread::spawn(move || pump_reader(rj.stream, from, lane, sh)));
        }
    }

    /// Close outbound data streams and join the reader threads — the
    /// clean end-of-job teardown.
    ///
    /// Each peer pair shares one full-duplex socket (the writer is a
    /// `try_clone` of the reader), so merely dropping the writer clone
    /// would never send a FIN; the peer's reader would block forever. An
    /// explicit write-half shutdown delivers the EOF.
    ///
    /// The control stream closes first: after a failure mid-round the
    /// master may still wait on this worker at a barrier, and until it
    /// sees the worker gone and aborts the peers parked there, they never
    /// send the EOFs this worker's readers wait for.
    pub(crate) fn shutdown(mut self) {
        let _ = self.control.get_ref().shutdown(std::net::Shutdown::Both);
        self.acceptor_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for w in &mut self.writers {
            if let Some(writer) = w {
                let _ = writer.flush();
                let _ = writer.get_ref().shutdown(std::net::Shutdown::Write);
            }
            *w = None;
        }
        // Pumps for rejoin sockets hold clones of our lanes; drop ours so
        // EOF (not a hang) ends them, then reap every reader.
        self.senders.clear();
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Link for TcpTransport {
    fn send(&mut self, dest: usize, pkt: Packet) -> SendOutcome {
        if self.aborted.load(Ordering::SeqCst) {
            return SendOutcome::Closed;
        }
        self.service_rejoins();
        let (frame, round) = match pkt {
            Packet::Block(b) => {
                let r = b.round;
                (Frame::Block(b), Some(r))
            }
            Packet::Fin { round } => (Frame::Fin { round: round as u32 }, Some(round)),
            Packet::Abort => (Frame::Abort { reason: format!("worker {} aborted", self.id) }, None),
        };
        // Deterministic link faults (drop is fatal by design; corrupt is
        // detected by the receiver's decoder and fails the job).
        let mut corrupt = false;
        if let Some(r) = round {
            match fault::link_fault(self.id as u32, r as u32, dest as u32) {
                Some(FaultKind::DropLink { .. }) => {
                    self.writers[dest] = None;
                    return SendOutcome::Closed;
                }
                Some(FaultKind::CorruptLink { .. }) => corrupt = true,
                _ => {}
            }
        }
        crate::frame::encode_frame(&frame, &mut self.scratch);
        if self.recovery {
            if let Some(r) = round {
                self.log.entry(r).or_default().push((dest, self.scratch.clone()));
            }
        }
        if self.down[dest] && round.is_some() {
            // The peer is being re-spawned: the frame is in the replay
            // log and will be retransmitted when it rejoins.
            return SendOutcome::Sent;
        }
        if corrupt {
            // Flip the kind byte (right after the length prefix): the
            // receiver rejects the frame as an unknown kind.
            self.scratch[4] ^= 0xFF;
        }
        let flush_needed = matches!(frame, Frame::Fin { .. } | Frame::Abort { .. });
        let Some(w) = self.writers.get_mut(dest).and_then(|w| w.as_mut()) else {
            return if self.recovery && round.is_some() {
                self.down[dest] = true;
                SendOutcome::Sent
            } else {
                SendOutcome::Closed
            };
        };
        let wrote = w.write_all(&self.scratch);
        match wrote {
            Ok(()) => {
                // FINs mark the end of a burst: push everything out so the
                // peer's round can complete without waiting on our buffer.
                if flush_needed && self.flush_all().is_err() {
                    return SendOutcome::Closed;
                }
                SendOutcome::Sent
            }
            Err(_) if self.recovery && round.is_some() => {
                self.writers[dest] = None;
                self.down[dest] = true;
                if flush_needed && self.flush_all().is_err() {
                    return SendOutcome::Closed;
                }
                SendOutcome::Sent
            }
            Err(_) => SendOutcome::Closed,
        }
    }

    fn try_recv(&mut self, buf: &mut Vec<Packet>) {
        self.service_rejoins();
        self.rx.try_recv_many(&mut self.raw);
        buf.extend(self.raw.drain(..).flatten());
    }
}

impl Transport for TcpTransport {
    type Error = NetError;

    fn recv(&mut self, buf: &mut Vec<Packet>) -> Result<()> {
        let base = buf.len();
        while buf.len() == base {
            self.service_rejoins();
            self.rx.recv_many(&mut self.raw);
            buf.extend(self.raw.drain(..).flatten());
        }
        Ok(())
    }

    /// The coordination barrier: nobody enters `round + 1` until every
    /// worker finished `round`. The barrier is the checkpoint cut — the
    /// post-compute state is snapshotted right before declaring the round
    /// done, so a restored worker resumes exactly at the next round's
    /// start.
    fn round_done(&mut self, round: usize, state: &ServerState, last: bool) -> Result<()> {
        fault::trip(self.id as u32, FaultPhase::Barrier(round as u32));
        self.checkpoint(round, state)?;
        self.barrier(round)?;
        if !last {
            fault::trip(self.id as u32, FaultPhase::RoundStart(round as u32 + 1));
        }
        Ok(())
    }

    fn abort(&mut self) {
        self.aborted.store(true, Ordering::SeqCst);
        for dest in 0..self.writers.len() {
            if self.writers[dest].is_some() {
                let _ = self.write_to(
                    dest,
                    &Frame::Abort { reason: format!("worker {} aborted", self.id) },
                );
            }
        }
        let _ = self.flush_all();
    }
}

impl TcpTransport {
    /// Signal the master this worker finished `round` and block until
    /// every worker has.
    fn barrier(&mut self, round: usize) -> Result<()> {
        if self.aborted.load(Ordering::SeqCst) {
            return Err(SimError::Aborted("job aborted".to_string()).into());
        }
        // Data must be flushed before declaring the round done.
        self.flush_all()?;
        write_frame(self.control.get_mut(), &Frame::Ready { round: round as u32 })?;
        self.control.get_mut().flush()?;
        let pool = BlockPool::new();
        let reply = if self.recovery {
            // Poll instead of blocking: a peer's replacement may rejoin
            // while we are parked here, and it needs its replay to make
            // progress before the barrier can ever release.
            loop {
                self.service_rejoins();
                match poll_frame(&mut self.control, REJOIN_POLL, &pool)? {
                    Polled::Pending => {}
                    Polled::Got(frame) => break frame,
                    Polled::Dead(why) => return Err(NetError::Protocol(format!("master {why}"))),
                }
            }
        } else {
            read_frame(&mut self.control, &pool)?
        };
        match reply {
            Frame::Proceed { round: r } if r as usize == round => {
                if self.recovery {
                    // Prune the replay log: a rejoiner restores from a
                    // checkpoint at most one round back.
                    let keep_from = (round + 1).saturating_sub(REPLAY_ROUNDS);
                    self.log = self.log.split_off(&keep_from);
                }
                Ok(())
            }
            Frame::Proceed { round: r } => Err(NetError::Protocol(format!(
                "barrier skew: waiting on round {round}, master proceeded {r}"
            ))),
            Frame::Abort { reason } => {
                // Released by the master because another worker failed.
                self.aborted.store(true, Ordering::SeqCst);
                Err(SimError::Aborted(format!("master aborted: {reason}")).into())
            }
            other => {
                Err(NetError::Protocol(format!("unexpected control frame at barrier: {other:?}")))
            }
        }
    }

    /// Snapshot `state` as the round-`round` checkpoint when recovery is
    /// on.
    fn checkpoint(&mut self, round: usize, state: &ServerState) -> Result<()> {
        if !self.recovery {
            return Ok(());
        }
        let (per_round_bytes, per_round_tuples) = state.received_volumes(round);
        let relations: Vec<Relation> = state.relations().cloned().collect();
        self.send_control(&Frame::Checkpoint {
            round: round as u32,
            relations,
            per_round_bytes,
            per_round_tuples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dial_with_backoff_reaches_a_late_listener() {
        // Reserve a port, close it, and only re-bind after a delay: the
        // first dial attempts must fail, the backoff must retry through.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let binder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            TcpListener::bind(addr).unwrap().accept().map(|_| ()).unwrap();
        });
        let stream = dial_with_backoff(&addr.to_string(), Duration::from_secs(10), 7)
            .expect("backoff outlives the late bind");
        drop(stream);
        binder.join().unwrap();
    }

    #[test]
    fn dial_with_backoff_gives_up_after_the_deadline() {
        // A port with (very likely) nothing behind it.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let start = Instant::now();
        let err = dial_with_backoff(&addr, Duration::from_millis(80), 1)
            .expect_err("nothing is listening");
        assert!(start.elapsed() >= Duration::from_millis(80));
        assert!(err.to_string().contains("attempts"), "error names the retry count: {err}");
    }

    /// Rejoin hellos that name no peer — the acceptor's own id, or one past
    /// the cluster — are dropped; only the real peer is queued and wakes
    /// the worker.
    #[test]
    fn rejoins_under_the_acceptors_own_id_or_out_of_range_are_refused() {
        let (p, id) = (3, 1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (senders, rx) = mpc_sim::queue::Inbox::channel(p, usize::MAX);
        let shared = Arc::new(RejoinShared {
            queue: Mutex::new(Vec::new()),
            pending: AtomicBool::new(false),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (stop, shared, wake) =
                (Arc::clone(&stop), Arc::clone(&shared), senders[id].clone());
            std::thread::spawn(move || accept_rejoins(listener, p, id, stop, shared, wake))
        };
        let rejoin = |from: usize| {
            let mut s = TcpStream::connect(addr).unwrap();
            write_frame(&mut s, &Frame::DataHello { from: from as u32 }).unwrap();
            write_frame(&mut s, &Frame::ReplayRequest { from_round: 0 }).unwrap();
            s
        };
        let _dialed = [rejoin(id), rejoin(p), rejoin(0)];
        assert!(rx.recv().is_none(), "the one wake-up is the acceptor's");
        let queued: Vec<usize> = shared.queue.lock().unwrap().iter().map(|r| r.from).collect();
        assert_eq!(queued, vec![0], "only the real peer is queued");
        stop.store(true, Ordering::SeqCst);
        acceptor.join().unwrap();
    }
}
