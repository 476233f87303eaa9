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
//! cluster-wide barrier, bracketed by the fault-injection trip points.
//!
//! **The control connection.** All a worker says to or hears from its
//! master goes through [`Control`]: the worker's machine
//! (`control.rs::Worker`) and the one wait that feeds it, for the
//! handshake, the mesh ([`TcpTransport::join`]), every barrier and the
//! shutdown. Between its looks at the master the wait turns to what else
//! may speak — the data listener while the mesh forms, rejoining peers at
//! a barrier — so the master's `Abort` ends every wait.
//!
//! **Backpressure note.** TCP inboxes are fed by reader threads via
//! `force_send`, so their lanes are unbounded — the kernel's socket
//! buffers provide the real backpressure, and bounding the inbox as well
//! could deadlock the single reader thread behind a stalled worker. A
//! send therefore never reports `Full`.
//!
//! **Recovery note.** When the job recovers (the mesh's `recovery`, read
//! off the job wire by the machine, which then adds a checkpoint to every
//! barrier) the transport keeps a [`Ledger`] — the replay log and what was
//! delivered — that the pumps, `send`, the rejoin service and the barrier
//! consult, and an acceptor thread on its data listener, so a re-spawned
//! peer can rejoin mid-job (`DataHello` + `ReplayRequest`) and be
//! replayed the logged frames. A peer whose link died is one without a
//! writer: its frames are logged, not sent, until its replacement rejoins,
//! and this worker stalls on it (while the master re-spawns it) instead
//! of aborting the job.

use std::io::{BufReader, BufWriter, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mpc_sim::queue::{InboxReceiver, LinkSender};
use mpc_sim::{BlockPool, Link, Packet, SendOutcome, ServerState, SimError, Transport};

use crate::control::{Go, Input, Mesh, Worker};
use crate::fault::{self, FaultKind, FaultPhase};
use crate::frame::{encode_frame, poll_frame, read_frame, write_frame, Frame, Polled};
use crate::master::{accept_pause, pause, ACCEPT_PAUSE_CAP};
use crate::recovery::Ledger;
use crate::{NetError, Result};

/// What travels through a TCP worker's inbox: a decoded packet, or `None`
/// — the rejoin acceptor's wake-up ("a re-spawned peer is waiting, service
/// it"), which `recv`/`try_recv` swallow.
type Inbound = Option<Packet>;

/// How long a worker keeps retrying its dial to the master.
const DIAL_DEADLINE: Duration = Duration::from_secs(10);

/// The poll interval of the rejoin acceptor.
const REJOIN_POLL: Duration = Duration::from_millis(10);

/// Connect to `addr`, retrying — paced as the master's accepts are —
/// until `deadline` has elapsed, so a master still binding its listener
/// delays the handshake instead of killing it.
///
/// # Errors
///
/// Returns the last connect error once the deadline passes.
pub(crate) fn dial_with_backoff(addr: &str, deadline: Duration) -> Result<TcpStream> {
    let (start, mut attempts) = (Instant::now(), 0);
    loop {
        attempts += 1;
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if start.elapsed() >= deadline => {
                return Err(NetError::Protocol(format!(
                    "dial {addr} failed after {attempts} attempts over {deadline:?}: {e}"
                )));
            }
            Err(_) => accept_pause(attempts),
        }
    }
}

/// A worker's control connection to the master, and the machine that
/// reads it.
pub(crate) struct Control {
    conn: BufReader<TcpStream>,
    machine: Worker,
    pool: BlockPool,
}

impl Control {
    /// The one wait of a worker. Feed `input` to the machine and send the
    /// master what it decides; then, turn by turn, feed it what `other` —
    /// the source besides the master — reports and what the master sends,
    /// until the machine lets the worker go on. While a frame from the
    /// master is due, a turn blocks on the control connection until one
    /// arrives, for at most [`ACCEPT_PAUSE_CAP`]; while the mesh forms,
    /// idle turns are paced as the master's accepts are ([`pause`]) and
    /// each pause is a look at the master.
    ///
    /// # Errors
    ///
    /// The machine's — the master's `Abort` among them — and `other`'s, and
    /// failed reads and writes.
    pub(crate) fn wait(
        &mut self,
        input: Option<Input>,
        mut other: impl FnMut() -> Result<Option<Input>>,
    ) -> Result<Go> {
        let mut go = input.map_or(Ok(Go::Wait), |input| self.feed(input))?;
        let mut idle = 0u32;
        while let Go::Wait = go {
            if let Some(input) = other()? {
                go = self.feed(input)?;
                continue;
            }
            let wait =
                if self.machine.awaits_master() { Some(ACCEPT_PAUSE_CAP) } else { pause(idle) };
            idle = idle.saturating_add(1);
            let Some(wait) = wait else {
                std::thread::yield_now();
                continue;
            };
            go = match poll_frame(&mut self.conn, wait, &self.pool)? {
                Polled::Pending => Go::Wait,
                Polled::Got(frame) => self.feed(Input::Frame(frame))?,
                Polled::Dead(why) => self.feed(Input::Closed(why))?,
            };
        }
        Ok(go)
    }

    fn feed(&mut self, input: Input) -> Result<Go> {
        let (frames, go) = self.machine.on(input)?;
        for frame in &frames {
            write_frame(self.conn.get_mut(), frame)?;
        }
        Ok(go)
    }
}

/// What the pump threads of one transport share.
struct Pumps {
    pool: Arc<BlockPool>,
    /// A peer aborted, or the worker did.
    aborted: AtomicBool,
    /// The recovery bookkeeping, when the job recovers.
    ledger: Option<Mutex<Ledger>>,
}

impl Pumps {
    fn ledger(&self) -> Option<MutexGuard<'_, Ledger>> {
        self.ledger.as_ref().map(|ledger| ledger.lock().expect("ledger lock"))
    }

    /// Start a thread that pumps the data connection from peer `from`.
    fn spawn(
        self: &Arc<Self>,
        stream: TcpStream,
        from: usize,
        lane: LinkSender<Inbound>,
    ) -> JoinHandle<()> {
        let pumps = Arc::clone(self);
        std::thread::spawn(move || pumps.pump(stream, from, &lane))
    }

    /// Decode the frames off `stream` and push the packets the ledger has
    /// not seen into the worker's inbox, until EOF, a socket error or the
    /// receiver's drop. With recovery a socket error is a *silent* exit:
    /// the master notices the dead process and re-spawns it, and aborting
    /// here would kill the job recovery exists to save. An abort, a frame a
    /// data socket does not carry (only blocks, FINs and aborts) or a
    /// corrupt one fails the local worker fast.
    fn pump(&self, stream: TcpStream, from: usize, lane: &LinkSender<Inbound>) {
        let mut r = BufReader::new(stream);
        loop {
            let pkt = match read_frame(&mut r, &self.pool) {
                Ok(Frame::Block(b)) => Packet::Block(b),
                Ok(Frame::Fin { round }) => Packet::Fin { round: round as usize },
                Err(NetError::Io(e))
                    if e.kind() == ErrorKind::UnexpectedEof || self.ledger.is_some() =>
                {
                    return;
                }
                _ => {
                    self.aborted.store(true, Ordering::SeqCst);
                    let _ = lane.force_send(Some(Packet::Abort));
                    return;
                }
            };
            if self.ledger().is_some_and(|mut ledger| !ledger.admit(from, &pkt)) {
                if let Packet::Block(b) = pkt {
                    self.pool.give_back(b.into_columns());
                }
                continue;
            }
            if lane.force_send(Some(pkt)).is_err() {
                return;
            }
        }
    }
}

/// One re-spawned peer dialing back in.
struct Rejoin {
    from: usize,
    from_round: usize,
    stream: TcpStream,
}

/// Poll `listener` for re-spawned peers dialing back in. Each rejoin
/// socket starts with `DataHello{from}` + `ReplayRequest{from_round}`; the
/// rejoin goes to the worker thread (which owns the writers) over
/// `rejoins`, and a `None` forced into the worker's own inbox lane wakes a
/// blocked `recv`. A hello naming no peer — out of range, or this worker's
/// own `id` — is dropped.
fn accept_rejoins(
    listener: TcpListener,
    p: usize,
    id: usize,
    stop: &AtomicBool,
    rejoins: &mpsc::Sender<Rejoin>,
    wake: &LinkSender<Inbound>,
) {
    let pool = BlockPool::new();
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !stop.load(Ordering::SeqCst) {
        let (mut stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(REJOIN_POLL);
                continue;
            }
            Err(_) => return,
        };
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        stream.set_nodelay(true).ok();
        let Ok(Frame::DataHello { from }) = read_frame(&mut stream, &pool) else { continue };
        let Ok(Frame::ReplayRequest { from_round }) = read_frame(&mut stream, &pool) else {
            continue;
        };
        let (from, from_round) = (from as usize, from_round as usize);
        if from >= p || from == id {
            continue;
        }
        if rejoins.send(Rejoin { from, from_round, stream }).is_err()
            || wake.force_send(None).is_err()
        {
            return;
        }
    }
}

/// A recoverable worker's rejoin service: the acceptor thread on its data
/// listener, the rejoins it hands over, and the pumps of rejoined links.
struct Rejoins {
    incoming: mpsc::Receiver<Rejoin>,
    /// The worker's inbox lanes, for the pumps of rejoined links.
    lanes: Vec<LinkSender<Inbound>>,
    pumps: Arc<Pumps>,
    readers: Vec<JoinHandle<()>>,
    acceptor: JoinHandle<()>,
    stop: Arc<AtomicBool>,
}

impl Rejoins {
    /// Wire every waiting rejoin back into the mesh: replay it the logged
    /// frames of every round past its checkpoint, make its connection the
    /// writer to it, and pump what it sends. Best-effort: a peer that died
    /// *again* keeps no writer — it is down — and is left to the master's
    /// next recovery round.
    fn serve(this: &mut Option<Rejoins>, writers: &mut [Option<BufWriter<TcpStream>>]) {
        let Some(this) = this else { return };
        for Rejoin { from, from_round, stream } in this.incoming.try_iter() {
            // Copied out of the ledger before it is written: the pumps need
            // the ledger meanwhile, and a peer replaying to this worker at
            // the same time waits on them to read.
            let ledger = this.pumps.ledger().expect("a recovering worker keeps a ledger");
            let replay: Vec<u8> = ledger.replay(from, from_round).flatten().copied().collect();
            drop(ledger);
            let replayed = stream.try_clone().and_then(|half| {
                let mut w = BufWriter::new(half);
                w.write_all(&replay)?;
                w.flush()?;
                Ok(w)
            });
            writers[from] = replayed.ok();
            if writers[from].is_some() {
                this.readers.push(this.pumps.spawn(stream, from, this.lanes[from].clone()));
            }
        }
    }
}

/// The socket transport: a stream per peer — written here, read by a pump
/// thread feeding the inbox — and the control connection to the master.
pub(crate) struct TcpTransport {
    id: usize,
    control: Control,
    /// `writers[dest]` is the framed stream into `dest`: `None` at `dest ==
    /// id` (self-sends never reach the transport), and — with recovery —
    /// while `dest`'s link is down, until its replacement rejoins.
    writers: Vec<Option<BufWriter<TcpStream>>>,
    rx: InboxReceiver<Inbound>,
    /// Reusable burst buffer between the inbox and `recv`'s caller.
    raw: Vec<Inbound>,
    /// Pump-thread handles, joined by [`TcpTransport::shutdown`].
    readers: Vec<JoinHandle<()>>,
    scratch: Vec<u8>,
    pumps: Arc<Pumps>,
    /// The rejoin service, when the job recovers.
    rejoins: Option<Rejoins>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport").field("id", &self.id).finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// Join the job as worker `id` through the master at `master`: say
    /// `Hello`, form the data
    /// mesh the machine decides — a fresh one, or a replacement's rejoin —
    /// and pass barrier 0. The mesh's dials and accepts are the wait's
    /// other source, so the master is watched throughout. A refused dial
    /// reached a dead peer (a live one's listener is open from before its
    /// `Hello`), which the master sees too: the link stays down, and the
    /// master either aborts or re-spawns the peer, whose replacement dials
    /// in. Returns the transport and the mesh, which carries the job and
    /// the restore point.
    ///
    /// # Errors
    ///
    /// The master's abort, protocol violations and socket errors.
    pub(crate) fn join(id: usize, master: &str) -> Result<(TcpTransport, Mesh)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let conn = BufReader::new(dial_with_backoff(master, DIAL_DEADLINE)?);
        conn.get_ref().set_nodelay(true).ok();
        let mut control = Control { conn, machine: Worker::new(id), pool: BlockPool::new() };
        let hello = Input::Hello(listener.local_addr()?.port());
        let Go::Mesh(mesh) = control.wait(Some(hello), || Ok(None))? else {
            unreachable!("the handshake ends with the peer table")
        };
        let pool = BlockPool::new();
        let mut links: Vec<Option<TcpStream>> = (0..mesh.p).map(|_| None).collect();
        let (mut dials, mut accepts, mut meshed) = (mesh.dial.iter(), mesh.accept, false);
        control.wait(None, || {
            for (peer, addr) in dials.by_ref() {
                let mut stream = match TcpStream::connect(addr) {
                    Ok(stream) => stream,
                    Err(e) if e.kind() == ErrorKind::ConnectionRefused => continue,
                    Err(e) => return Err(e.into()),
                };
                stream.set_nodelay(true).ok();
                mesh.hello.iter().try_for_each(|frame| write_frame(&mut stream, frame))?;
                links[*peer] = Some(stream);
            }
            while accepts > 0 {
                let mut stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e.into()),
                };
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true).ok();
                let from = match read_frame(&mut stream, &pool)? {
                    Frame::DataHello { from } if (id + 1..mesh.p).contains(&(from as usize)) => {
                        from
                    }
                    other => {
                        return Err(NetError::Protocol(format!("unexpected data hello {other:?}")))
                    }
                };
                links[from as usize] = Some(stream);
                accepts -= 1;
            }
            let formed = accepts == 0 && !meshed;
            meshed |= formed;
            Ok(formed.then_some(Input::Meshed))
        })?;
        let transport = TcpTransport::new(id, links, control, listener, pool, mesh.recovery)?;
        Ok((transport, mesh))
    }

    /// Assemble worker `id`'s transport from its meshed `links`: a writer
    /// and a pump per link, and with `recovery` a ledger and the rejoin
    /// service on `listener`.
    fn new(
        id: usize,
        links: Vec<Option<TcpStream>>,
        control: Control,
        listener: TcpListener,
        pool: BlockPool,
        recovery: bool,
    ) -> Result<Self> {
        let p = links.len();
        // Unbounded lanes: only `force_send` ever fills them.
        let (lanes, rx) = mpc_sim::queue::Inbox::channel(p, usize::MAX);
        let ledger = recovery.then(|| Mutex::new(Ledger::default()));
        let pumps =
            Arc::new(Pumps { pool: Arc::new(pool), aborted: AtomicBool::new(false), ledger });
        let (mut writers, mut readers) = (Vec::with_capacity(p), Vec::new());
        for (from, link) in links.into_iter().enumerate() {
            let writer = link.map(|stream| -> Result<_> {
                let writer = BufWriter::new(stream.try_clone()?);
                readers.push(pumps.spawn(stream, from, lanes[from].clone()));
                Ok(writer)
            });
            writers.push(writer.transpose()?);
        }
        let rejoins = recovery.then(|| {
            let (stop, (handover, incoming)) = (Arc::new(AtomicBool::new(false)), mpsc::channel());
            let (halt, wake) = (Arc::clone(&stop), lanes[id].clone());
            let acceptor = std::thread::spawn(move || {
                accept_rejoins(listener, p, id, &halt, &handover, &wake);
            });
            let pumps = Arc::clone(&pumps);
            Rejoins { incoming, lanes, pumps, readers: Vec::new(), acceptor, stop }
        });
        let (raw, scratch) = (Vec::new(), Vec::new());
        Ok(TcpTransport { id, control, writers, rx, raw, readers, scratch, pumps, rejoins })
    }

    /// Flush every outbound data stream (called at FIN boundaries). With
    /// recovery a flush error takes the link down instead of failing the
    /// round — its frames live in the ledger.
    fn flush_all(&mut self) -> Result<()> {
        for writer in &mut self.writers {
            if let Some(Err(e)) = writer.as_mut().map(BufWriter::flush) {
                if self.pumps.ledger.is_none() {
                    return Err(e.into());
                }
                *writer = None;
            }
        }
        Ok(())
    }

    /// The cluster size this transport was meshed for.
    pub(crate) fn parties(&self) -> usize {
        self.writers.len()
    }

    /// Feed `input` to the control machine and wait — servicing rejoining
    /// peers meanwhile — until the master releases the worker.
    fn wait(&mut self, input: Input) -> Result<()> {
        let (rejoins, writers) = (&mut self.rejoins, &mut self.writers);
        let serve = || {
            Rejoins::serve(rejoins, writers);
            Ok(None)
        };
        self.control.wait(Some(input), serve).map(drop)
    }

    /// Report the worker's `summary` and wait for `Shutdown` (spawned
    /// mode): the data sockets stay open until the master confirms that
    /// every worker drained.
    ///
    /// # Errors
    ///
    /// The master's abort, or its death.
    pub(crate) fn report(&mut self, summary: Frame) -> Result<()> {
        self.wait(Input::Summary(summary))
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
        let _ = self.control.conn.get_ref().shutdown(std::net::Shutdown::Both);
        // Rejoined links' pumps hold clones of our lanes; drop ours with
        // the acceptor so EOF (not a hang) ends them, then reap every reader.
        if let Some(Rejoins { stop, acceptor, readers, .. }) = self.rejoins.take() {
            stop.store(true, Ordering::SeqCst);
            let _ = acceptor.join();
            self.readers.extend(readers);
        }
        for mut writer in self.writers.iter_mut().filter_map(Option::take) {
            let _ = writer.flush();
            let _ = writer.get_ref().shutdown(std::net::Shutdown::Write);
        }
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Link for TcpTransport {
    fn send(&mut self, dest: usize, pkt: Packet) -> SendOutcome {
        if self.pumps.aborted.load(Ordering::SeqCst) {
            return SendOutcome::Closed;
        }
        Rejoins::serve(&mut self.rejoins, &mut self.writers);
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
        encode_frame(&frame, &mut self.scratch);
        // With recovery every data frame is logged, and one to a peer whose
        // link is down is only logged: it is replayed when the peer rejoins.
        let logged = match (round, self.pumps.ledger()) {
            (Some(r), Some(mut ledger)) => {
                ledger.log(dest, r, &self.scratch);
                true
            }
            _ => false,
        };
        if corrupt {
            // Flip the kind byte (right after the length prefix): the
            // receiver rejects the frame as an unknown kind.
            self.scratch[4] ^= 0xFF;
        }
        let Some(w) = self.writers.get_mut(dest).and_then(Option::as_mut) else {
            return if logged { SendOutcome::Sent } else { SendOutcome::Closed };
        };
        if w.write_all(&self.scratch).is_err() {
            if !logged {
                return SendOutcome::Closed;
            }
            self.writers[dest] = None;
        }
        // FINs mark the end of a burst: push everything out so the peer's
        // round can complete without waiting on our buffer.
        let flush = matches!(frame, Frame::Fin { .. } | Frame::Abort { .. });
        if flush && self.flush_all().is_err() {
            return SendOutcome::Closed;
        }
        SendOutcome::Sent
    }

    fn try_recv(&mut self, buf: &mut Vec<Packet>) {
        Rejoins::serve(&mut self.rejoins, &mut self.writers);
        self.rx.try_recv_many(&mut self.raw);
        buf.extend(self.raw.drain(..).flatten());
    }
}

impl Transport for TcpTransport {
    type Error = NetError;

    fn recv(&mut self, buf: &mut Vec<Packet>) -> Result<()> {
        let base = buf.len();
        while buf.len() == base {
            Rejoins::serve(&mut self.rejoins, &mut self.writers);
            self.rx.recv_many(&mut self.raw);
            buf.extend(self.raw.drain(..).flatten());
        }
        Ok(())
    }

    /// The coordination barrier: nobody enters `round + 1` until every
    /// worker finished `round`. The barrier is the checkpoint cut — the
    /// post-compute state is snapshotted right before declaring the round
    /// done, so a restored worker resumes exactly at the next round's
    /// start — and then the replay log keeps only what a replacement can
    /// still ask for.
    fn round_done(&mut self, round: usize, state: &ServerState, last: bool) -> Result<()> {
        fault::trip(self.id as u32, FaultPhase::Barrier(round as u32));
        if self.pumps.aborted.load(Ordering::SeqCst) {
            return Err(SimError::Aborted("job aborted".to_string()).into());
        }
        // Data must be flushed before declaring the round done.
        self.flush_all()?;
        let checkpoint = self.pumps.ledger.is_some().then(|| {
            let (per_round_bytes, per_round_tuples) = state.received_volumes(round);
            let relations = state.relations().cloned().collect();
            Frame::Checkpoint { round: round as u32, relations, per_round_bytes, per_round_tuples }
        });
        self.wait(Input::RoundDone(round, checkpoint))?;
        if let Some(mut ledger) = self.pumps.ledger() {
            ledger.prune(round);
        }
        if !last {
            fault::trip(self.id as u32, FaultPhase::RoundStart(round as u32 + 1));
        }
        Ok(())
    }

    fn abort(&mut self) {
        self.pumps.aborted.store(true, Ordering::SeqCst);
        let abort = Frame::Abort { reason: format!("worker {} aborted", self.id) };
        encode_frame(&abort, &mut self.scratch);
        for w in self.writers.iter_mut().flatten() {
            let _ = w.write_all(&self.scratch);
        }
        let _ = self.flush_all();
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
        let stream = dial_with_backoff(&addr.to_string(), Duration::from_secs(10))
            .expect("backoff outlives the late bind");
        drop(stream);
        binder.join().unwrap();
    }

    #[test]
    fn dial_with_backoff_gives_up_after_the_deadline() {
        let addr = closed_port();
        let start = Instant::now();
        let err =
            dial_with_backoff(&addr, Duration::from_millis(80)).expect_err("nothing is listening");
        assert!(start.elapsed() >= Duration::from_millis(80));
        assert!(err.to_string().contains("attempts"), "error names the retry count: {err}");
    }

    /// A port with (very likely) nothing behind it.
    fn closed_port() -> String {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    }

    /// Worker `id` of 2 joins through a fake master on a real listener,
    /// which answers its `Hello` with the frames `script` makes of the
    /// worker's data address, then drains the connection. Returns how the
    /// join failed and how long it took.
    fn join_against(
        id: usize,
        script: impl FnOnce(String) -> Vec<Frame> + Send + 'static,
    ) -> (NetError, Duration) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let master = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let pool = BlockPool::new();
            let Ok(Frame::Hello { data_port, .. }) = read_frame(&mut conn, &pool) else {
                panic!("the worker says Hello first");
            };
            for frame in script(format!("127.0.0.1:{data_port}")) {
                write_frame(&mut conn, &frame).unwrap();
            }
            while read_frame(&mut conn, &pool).is_ok() {}
        });
        let started = Instant::now();
        let err = TcpTransport::join(id, &addr).expect_err("the master aborts");
        let took = started.elapsed();
        master.join().unwrap();
        (err, took)
    }

    /// A worker forming a fresh mesh waits for its higher peer to dial in,
    /// and watches the master meanwhile: the master's `Abort` ends the wait.
    #[test]
    fn a_worker_forming_the_mesh_returns_the_masters_abort() {
        let (err, took) = join_against(0, |me| {
            let peers = vec![(0, me), (1, closed_port())];
            let abort = Frame::Abort { reason: "worker 1 died".to_string() };
            vec![Frame::Peers { peers }, abort]
        });
        assert!(err.to_string().contains("master aborted: worker 1 died"), "{err}");
        assert!(took < Duration::from_secs(1), "{took:?}");
    }

    /// A replacement handed a dead peer's address does not dial it for the
    /// dial deadline: the link stays down, and the master's `Abort` ends
    /// the join with the master's reason.
    #[test]
    fn a_replacement_given_a_dead_peer_returns_the_masters_abort() {
        let (err, took) = join_against(1, |me| {
            let (relations, per_round_bytes, per_round_tuples) = (vec![], vec![1], vec![1]);
            let checkpoint =
                Frame::Checkpoint { round: 1, relations, per_round_bytes, per_round_tuples };
            let peers = vec![(0, closed_port()), (1, me)];
            let abort = Frame::Abort { reason: "worker 0 died".to_string() };
            vec![checkpoint, Frame::Peers { peers }, abort]
        });
        assert!(err.to_string().contains("master aborted: worker 0 died"), "{err}");
        assert!(took < Duration::from_secs(1), "{took:?}");
    }

    /// Rejoin hellos that name no peer — the acceptor's own id, or one past
    /// the cluster — are dropped; only the real peer is handed over and
    /// wakes the worker.
    #[test]
    fn rejoins_under_the_acceptors_own_id_or_out_of_range_are_refused() {
        let (p, id) = (3, 1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (lanes, rx) = mpc_sim::queue::Inbox::channel(p, usize::MAX);
        let (handover, incoming) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (stop, wake) = (Arc::clone(&stop), lanes[id].clone());
            std::thread::spawn(move || accept_rejoins(listener, p, id, &stop, &handover, &wake))
        };
        let rejoin = |from: usize| {
            let mut s = TcpStream::connect(addr).unwrap();
            write_frame(&mut s, &Frame::DataHello { from: from as u32 }).unwrap();
            write_frame(&mut s, &Frame::ReplayRequest { from_round: 0 }).unwrap();
            s
        };
        let _dialed = [rejoin(id), rejoin(p), rejoin(0)];
        assert!(rx.recv().is_none(), "the one wake-up is the acceptor's");
        let queued: Vec<usize> = incoming.try_iter().map(|r: Rejoin| r.from).collect();
        assert_eq!(queued, vec![0], "only the real peer is handed over");
        stop.store(true, Ordering::SeqCst);
        acceptor.join().unwrap();
    }
}
