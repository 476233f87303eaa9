//! The master control plane and the spawned-process execution mode.
//!
//! The coordination pattern follows the distributed-FDB design: a master
//! owns one control connection per worker and drives the job through a
//! fixed state machine —
//!
//! ```text
//! worker            master
//!   Hello{id, data_port}  ───▶
//!   ◀───  Job{spec}              (spawned mode only)
//!   ◀───  Checkpoint{...}        (recovery re-spawn only)
//!   ◀───  Peers{addr table}
//!   ... mesh-connect to peers (DataHello [+ ReplayRequest]) ...
//!   MeshReady  ───▶
//!   ◀───  Proceed(0)             (all meshed: the job starts)
//!   Checkpoint(r)  ───▶          (recovery runs, at the cadence)
//!   Ready(r)  ───▶               (each round)
//!   ◀───  Proceed(r)
//!   Summary{output, volumes}  ───▶   (spawned mode only)
//!   ◀───  Shutdown
//! ```
//!
//! with `Abort` valid in either direction at any time. The master polls
//! every control socket with a short read timeout while it waits, so a
//! worker process dying (its socket closing) surfaces fast instead of
//! deadlocking the barrier.
//!
//! What happens next depends on the [`RecoveryPolicy`]: by default the
//! master broadcasts `Abort` and fails the job (fail-fast). With
//! `max_respawns > 0` it instead re-spawns the dead worker from the same
//! [`JobSpec`], restores it from the latest [`Frame::Checkpoint`] it
//! holds for that worker, lets it rejoin the data mesh (surviving peers
//! replay the in-flight rounds from their bounded logs), drives its solo
//! catch-up barriers, and resumes the cluster-wide barrier protocol —
//! the recovered run produces a byte-identical [`RunResult`]. When the
//! respawn budget is exhausted the master falls back to the abort.
//!
//! [`run_spawned`] / [`run_spawned_with`] are the top of the stack: they
//! spawn one `mpc_workerd` OS process per server over localhost, serve
//! the control plane, and fold the workers' summaries into the same
//! [`RunResult`] as [`mpc_sim::Cluster::run`]. [`worker_main`] is the
//! matching worker-side entry point, rebuilding the job from its
//! [`JobSpec`] wire form.

use std::cell::{Cell, RefCell};
use std::io::BufRead;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use mpc_sim::{fold_summaries, BlockPool, RunResult, Transport as _, WorkerSummary};

use crate::fault::FaultPhase;
use crate::frame::{read_frame, write_frame, Frame};
use crate::recovery::{MasterConfig, RecoveryPolicy, RecoverySettings};
use crate::runner::{run_tcp_worker, tcp_worker_setup};
use crate::spec::JobSpec;
use crate::{NetError, Result};

/// How long the master waits for all workers to dial in before declaring
/// the job dead (covers a worker binary that fails to start). Also the
/// budget for a recovery replacement to dial back in.
const ACCEPT_DEADLINE: Duration = Duration::from_secs(30);

/// How the master waits while no worker is dialing in: it yields for the
/// first `ACCEPT_YIELDS` empty polls after each connection, then sleeps,
/// doubling from `ACCEPT_PAUSE_MIN` up to `ACCEPT_PAUSE_CAP`. Workers on
/// threads of this process dial in within microseconds, so a fixed sleep
/// would idle the CPU for its whole length on every job — the one stretch
/// of a threaded run whose length the machine's timer latency decides —
/// while worker processes that take their time to start must be awaited
/// without spinning.
const ACCEPT_YIELDS: u32 = 64;
const ACCEPT_PAUSE_MIN: Duration = Duration::from_micros(50);
const ACCEPT_PAUSE_CAP: Duration = Duration::from_millis(5);

/// Give way after the `idle_polls`-th consecutive empty poll of the
/// accept socket.
fn accept_pause(idle_polls: u32) {
    match idle_polls.checked_sub(ACCEPT_YIELDS) {
        None => std::thread::yield_now(),
        // Seven doublings already pass the cap.
        Some(doublings) => {
            std::thread::sleep((ACCEPT_PAUSE_MIN * (1 << doublings.min(7))).min(ACCEPT_PAUSE_CAP));
        }
    }
}

/// The poll interval while waiting on worker control frames: short enough
/// that a dead worker fails the job promptly, long enough not to spin.
const POLL: Duration = Duration::from_millis(25);

/// Lane capacity for a spawned worker's inbox. TCP inboxes are fed by
/// reader threads via `force_send` (the kernel socket buffers are the
/// real bound), so this is shape, not backpressure.
const SPAWNED_QUEUE_CAPACITY: usize = 64;

/// One worker's control connection: reads buffered, plus a duplicated
/// handle used only to flip read timeouts (so the timeout guard does not
/// alias the buffered reader).
struct WorkerCtl {
    reader: BufReader<TcpStream>,
    timeouts: TcpStream,
}

impl WorkerCtl {
    fn from_stream(stream: TcpStream) -> Result<WorkerCtl> {
        stream.set_nodelay(true).ok();
        let timeouts = stream.try_clone()?;
        Ok(WorkerCtl { reader: BufReader::new(stream), timeouts })
    }
}

/// Clears the read timeout on the guarded socket when dropped, so every
/// early return out of a poll leaves the connection blocking again.
struct TimeoutGuard<'a>(&'a TcpStream);

impl Drop for TimeoutGuard<'_> {
    fn drop(&mut self) {
        self.0.set_read_timeout(None).ok();
    }
}

/// What one poll of a worker's control socket produced.
enum Polled {
    /// Nothing arrived within the poll interval.
    Pending,
    /// A complete frame.
    Got(Frame),
    /// The socket is dead (closed or failed) — the worker process is
    /// gone. Recoverable when a [`RecoveryPolicy`] allows it.
    Dead(String),
}

/// Everything the master needs to re-spawn a dead worker mid-job: the
/// retained accept listener, the policy and shared respawn budget, the
/// job wire form to re-send, and a callback that actually starts the
/// replacement process (always without fault injection).
struct Recoverer<'a> {
    listener: &'a TcpListener,
    policy: &'a RecoveryPolicy,
    used: &'a Cell<usize>,
    job_wire: &'a str,
    respawn: &'a mut dyn FnMut(usize) -> Result<()>,
}

/// The master's side of the handshake: `p` control connections, indexed
/// by worker id, plus the per-worker recovery state (current data
/// addresses and latest checkpoints).
pub struct ControlPlane {
    workers: Vec<WorkerCtl>,
    /// Current data-plane address of each worker (replacements update
    /// their slot, so later recoveries hand out a live peer table).
    addrs: Vec<String>,
    /// Latest `Frame::Checkpoint` seen from each worker, with its round.
    checkpoints: Vec<Option<(usize, Frame)>>,
    pool: BlockPool,
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane").field("workers", &self.workers.len()).finish()
    }
}

impl ControlPlane {
    /// Accept `p` worker hellos on `listener`, optionally hand each the
    /// job spec, broadcast the peer address table, collect every
    /// `MeshReady` and release the cluster with `Proceed(0)`.
    ///
    /// `watch` is polled while waiting for connections; returning
    /// `Some(reason)` fails the handshake immediately (the spawned mode
    /// uses it to notice a worker process dying before it ever dials in —
    /// and, with recovery enabled, to re-spawn it on the spot).
    ///
    /// # Errors
    ///
    /// Fails (after aborting every connected worker) when a worker never
    /// dials in before the deadline, dies mid-handshake or violates the
    /// protocol.
    pub fn accept(
        listener: &TcpListener,
        p: usize,
        job: Option<&str>,
        watch: Option<&mut dyn FnMut() -> Option<String>>,
    ) -> Result<ControlPlane> {
        let mut plane = ControlPlane {
            workers: Vec::new(),
            addrs: Vec::new(),
            checkpoints: (0..p).map(|_| None).collect(),
            pool: BlockPool::new(),
        };
        match plane.accept_inner(listener, p, job, watch) {
            Ok(()) => Ok(plane),
            Err(e) => Err(plane.fail(format!("handshake failed: {e}"), e)),
        }
    }

    fn accept_inner(
        &mut self,
        listener: &TcpListener,
        p: usize,
        job: Option<&str>,
        mut watch: Option<&mut dyn FnMut() -> Option<String>>,
    ) -> Result<()> {
        listener.set_nonblocking(true)?;
        let deadline = Instant::now() + ACCEPT_DEADLINE;
        let mut slots: Vec<Option<WorkerCtl>> = (0..p).map(|_| None).collect();
        let mut addrs: Vec<Option<String>> = vec![None; p];
        let mut connected = 0usize;
        let mut idle_polls = 0u32;
        while connected < p {
            let (stream, peer) = match listener.accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if let Some(reason) = watch.as_mut().and_then(|w| w()) {
                        return Err(NetError::Protocol(reason));
                    }
                    if Instant::now() > deadline {
                        return Err(NetError::Protocol(format!(
                            "only {connected}/{p} workers dialed in before the deadline"
                        )));
                    }
                    accept_pause(idle_polls);
                    idle_polls = idle_polls.saturating_add(1);
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            idle_polls = 0;
            stream.set_nonblocking(false)?;
            let mut ctl = WorkerCtl::from_stream(stream)?;
            let (worker_id, data_port) = match read_frame(&mut ctl.reader, &self.pool)? {
                Frame::Hello { worker_id, data_port } => (worker_id as usize, data_port),
                other => {
                    return Err(NetError::Protocol(format!("expected Hello, got {other:?}")));
                }
            };
            if worker_id >= p || slots[worker_id].is_some() {
                return Err(NetError::Protocol(format!("bad or duplicate worker id {worker_id}")));
            }
            if let Some(spec) = job {
                write_frame(ctl.reader.get_mut(), &Frame::Job { spec: spec.to_string() })?;
            }
            addrs[worker_id] = Some(format!("{}:{data_port}", peer.ip()));
            slots[worker_id] = Some(ctl);
            connected += 1;
        }
        listener.set_nonblocking(false)?;
        self.workers = slots.into_iter().map(|s| s.expect("all slots filled")).collect();
        self.addrs =
            addrs.into_iter().map(|a| a.expect("all addrs filled")).collect::<Vec<String>>();
        let peers: Vec<(u32, String)> =
            self.addrs.iter().enumerate().map(|(id, a)| (id as u32, a.clone())).collect();
        self.broadcast(&Frame::Peers { peers })?;
        for id in 0..p {
            self.await_from(id, |f| matches!(f, Frame::MeshReady), "MeshReady")?;
        }
        self.broadcast(&Frame::Proceed { round: 0 })?;
        Ok(())
    }

    /// Serve the per-round barrier for `rounds` rounds: collect a
    /// `Ready(r)` from every worker, then release them with `Proceed(r)`.
    ///
    /// # Errors
    ///
    /// Fails (after broadcasting `Abort`) on worker death, a worker-sent
    /// abort or barrier skew.
    pub fn serve_barriers(&mut self, rounds: usize) -> Result<()> {
        self.serve_barriers_with(rounds, None)
    }

    /// [`ControlPlane::serve_barriers`], with optional crash recovery: a
    /// dead worker is re-spawned through `rec` and spliced back into the
    /// barrier instead of failing the job.
    fn serve_barriers_with(
        &mut self,
        rounds: usize,
        mut rec: Option<&mut Recoverer<'_>>,
    ) -> Result<()> {
        for round in 1..=rounds {
            if let Err(e) = self.barrier_round(round, rec.as_deref_mut()) {
                return Err(self.fail(format!("barrier for round {round} failed: {e}"), e));
            }
        }
        Ok(())
    }

    /// One round's barrier: await `Ready(round)` from everyone (storing
    /// checkpoints as they stream in, recovering dead workers when
    /// allowed), then release with `Proceed(round)`.
    fn barrier_round(&mut self, round: usize, mut rec: Option<&mut Recoverer<'_>>) -> Result<()> {
        let p = self.workers.len();
        let mut ready = vec![false; p];
        // Workers whose restore point already covers this round must not
        // receive this round's Proceed: their next barrier is round + 1.
        let mut past = vec![false; p];
        let mut missing = p;
        while missing > 0 {
            for id in 0..p {
                if ready[id] {
                    continue;
                }
                match self.poll_frame(id)? {
                    Polled::Pending => {}
                    Polled::Got(f @ Frame::Checkpoint { .. }) => self.note_checkpoint(id, f),
                    Polled::Got(Frame::Ready { round: r }) if r as usize == round => {
                        ready[id] = true;
                        missing -= 1;
                    }
                    Polled::Got(Frame::Abort { reason }) => {
                        return Err(NetError::Protocol(format!("worker {id} aborted: {reason}")));
                    }
                    Polled::Got(other) => {
                        return Err(NetError::Protocol(format!(
                            "worker {id}: expected Ready({round}), got {other:?}"
                        )));
                    }
                    Polled::Dead(reason) => match rec.as_deref_mut() {
                        Some(r) => {
                            let c = self.recover(id, round, &reason, r)?;
                            if c >= round {
                                // The checkpoint already covers the round
                                // being awaited; the replacement resumes
                                // at round + 1.
                                ready[id] = true;
                                past[id] = true;
                                missing -= 1;
                            }
                        }
                        None => return Err(NetError::Protocol(reason)),
                    },
                }
            }
        }
        for (id, &recovered_past_this_round) in past.iter().enumerate() {
            if recovered_past_this_round {
                continue;
            }
            let sent = write_frame(
                self.workers[id].reader.get_mut(),
                &Frame::Proceed { round: round as u32 },
            );
            if let Err(e) = sent {
                match rec.as_deref_mut() {
                    // The worker died between its Ready and our Proceed:
                    // the replacement catches up through this round.
                    Some(r) => {
                        self.recover(id, round + 1, &format!("{e}"), r)?;
                    }
                    None => return Err(e),
                }
            }
        }
        Ok(())
    }

    /// Collect the end-of-job `Summary` from every worker (spawned mode),
    /// in worker-id order.
    ///
    /// # Errors
    ///
    /// Fails (after broadcasting `Abort`) on worker death or a non-summary
    /// frame.
    pub fn collect_summaries(&mut self) -> Result<Vec<WorkerSummary>> {
        self.collect_summaries_with(0, None)
    }

    /// [`ControlPlane::collect_summaries`], with optional crash recovery.
    /// `rounds` is the job's total round count, needed to catch a
    /// replacement up when its checkpoint predates the final round.
    fn collect_summaries_with(
        &mut self,
        rounds: usize,
        mut rec: Option<&mut Recoverer<'_>>,
    ) -> Result<Vec<WorkerSummary>> {
        let p = self.workers.len();
        let mut out: Vec<Option<WorkerSummary>> = (0..p).map(|_| None).collect();
        let mut missing = p;
        while missing > 0 {
            for (id, slot) in out.iter_mut().enumerate() {
                if slot.is_some() {
                    continue;
                }
                let step = (|| -> Result<Option<WorkerSummary>> {
                    match self.poll_frame(id)? {
                        Polled::Pending => Ok(None),
                        Polled::Got(f @ Frame::Checkpoint { .. }) => {
                            self.note_checkpoint(id, f);
                            Ok(None)
                        }
                        Polled::Got(Frame::Summary {
                            output,
                            per_round_bytes,
                            per_round_tuples,
                        }) => Ok(Some(WorkerSummary {
                            output,
                            per_round_bytes,
                            per_round_tuples,
                            traffic: Vec::new(),
                        })),
                        Polled::Got(Frame::Abort { reason }) => {
                            Err(NetError::Protocol(format!("worker {id} aborted: {reason}")))
                        }
                        Polled::Got(other) => Err(NetError::Protocol(format!(
                            "worker {id}: expected Summary, got {other:?}"
                        ))),
                        Polled::Dead(reason) => match rec.as_deref_mut() {
                            Some(r) => {
                                self.recover(id, rounds + 1, &reason, r)?;
                                Ok(None)
                            }
                            None => Err(NetError::Protocol(reason)),
                        },
                    }
                })();
                match step {
                    Ok(None) => {}
                    Ok(summary @ Some(_)) => {
                        *slot = summary;
                        missing -= 1;
                    }
                    Err(e) => return Err(self.fail(format!("{e}"), e)),
                }
            }
        }
        Ok(out.into_iter().map(|s| s.expect("all summaries collected")).collect())
    }

    /// Re-spawn dead worker `dead` and splice the replacement back into
    /// the live cluster: hand it the job and its latest checkpoint, let
    /// it rejoin the data mesh (peers replay from their logs), then drive
    /// its solo catch-up barriers for every round before `awaiting` — the
    /// round whose barrier the caller is currently serving. Returns the
    /// checkpoint round the replacement restored from.
    fn recover(
        &mut self,
        dead: usize,
        awaiting: usize,
        why: &str,
        rec: &mut Recoverer<'_>,
    ) -> Result<usize> {
        if rec.used.get() >= rec.policy.max_respawns {
            return Err(NetError::Protocol(format!(
                "worker {dead} died ({why}) and the recovery budget is exhausted \
                 ({} respawns used)",
                rec.used.get()
            )));
        }
        std::thread::sleep(rec.policy.pause_before(rec.used.get()));
        rec.used.set(rec.used.get() + 1);
        eprintln!(
            "mpc-net master: worker {dead} died ({why}); re-spawning (respawn {}/{})",
            rec.used.get(),
            rec.policy.max_respawns
        );
        (rec.respawn)(dead)?;
        // Accept the replacement's dial-in on the retained listener.
        rec.listener.set_nonblocking(true)?;
        let deadline = Instant::now() + ACCEPT_DEADLINE;
        let (stream, peer) = loop {
            match rec.listener.accept() {
                Ok(conn) => break conn,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err(NetError::Protocol(format!(
                            "replacement for worker {dead} never dialed in"
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e.into()),
            }
        };
        rec.listener.set_nonblocking(false)?;
        stream.set_nonblocking(false)?;
        let mut ctl = WorkerCtl::from_stream(stream)?;
        let (worker_id, data_port) = match read_frame(&mut ctl.reader, &self.pool)? {
            Frame::Hello { worker_id, data_port } => (worker_id as usize, data_port),
            other => {
                return Err(NetError::Protocol(format!(
                    "replacement for worker {dead}: expected Hello, got {other:?}"
                )));
            }
        };
        if worker_id != dead {
            return Err(NetError::Protocol(format!(
                "replacement dialed in as worker {worker_id}, expected {dead}"
            )));
        }
        write_frame(ctl.reader.get_mut(), &Frame::Job { spec: rec.job_wire.to_string() })?;
        // A replacement always gets a checkpoint — the empty round-0 one
        // when the worker died before its first snapshot. Receiving it is
        // what tells the worker to rejoin the mesh (dial every survivor
        // and request replay) instead of running the fresh handshake.
        let c = match &self.checkpoints[dead] {
            Some((round, frame)) => {
                write_frame(ctl.reader.get_mut(), frame)?;
                *round
            }
            None => {
                let scratch = Frame::Checkpoint {
                    round: 0,
                    relations: Vec::new(),
                    per_round_bytes: Vec::new(),
                    per_round_tuples: Vec::new(),
                };
                write_frame(ctl.reader.get_mut(), &scratch)?;
                0
            }
        };
        self.addrs[dead] = format!("{}:{data_port}", peer.ip());
        let peers: Vec<(u32, String)> =
            self.addrs.iter().enumerate().map(|(id, a)| (id as u32, a.clone())).collect();
        write_frame(ctl.reader.get_mut(), &Frame::Peers { peers })?;
        self.workers[dead] = ctl;
        // The replacement now rejoins the mesh: it dials every survivor's
        // rejoin acceptor and asks for replay. The survivors' transports
        // service those rejoins from their own send/recv/barrier paths.
        self.await_from(dead, |f| matches!(f, Frame::MeshReady), "MeshReady")?;
        write_frame(self.workers[dead].reader.get_mut(), &Frame::Proceed { round: 0 })?;
        // Solo catch-up: the replacement re-executes rounds c+1.. and the
        // master answers its barriers alone — the survivors already got
        // those Proceeds. The barrier for `awaiting` stays with the
        // caller.
        for k in (c + 1)..awaiting {
            self.await_from(
                dead,
                |f| matches!(f, Frame::Ready { round } if *round as usize == k),
                &format!("Ready({k})"),
            )?;
            write_frame(self.workers[dead].reader.get_mut(), &Frame::Proceed { round: k as u32 })?;
        }
        Ok(c)
    }

    /// Wait for one worker to send a frame matching `expect`, storing any
    /// checkpoints that stream past. Death here is not recoverable (it
    /// would mean a replacement died mid-recovery).
    fn await_from(&mut self, id: usize, expect: impl Fn(&Frame) -> bool, what: &str) -> Result<()> {
        loop {
            match self.poll_frame(id)? {
                Polled::Pending => {}
                Polled::Got(f) if expect(&f) => return Ok(()),
                Polled::Got(f @ Frame::Checkpoint { .. }) => self.note_checkpoint(id, f),
                Polled::Got(Frame::Abort { reason }) => {
                    return Err(NetError::Protocol(format!("worker {id} aborted: {reason}")));
                }
                Polled::Got(other) => {
                    return Err(NetError::Protocol(format!(
                        "worker {id}: expected {what}, got {other:?}"
                    )));
                }
                Polled::Dead(reason) => return Err(NetError::Protocol(reason)),
            }
        }
    }

    fn note_checkpoint(&mut self, id: usize, frame: Frame) {
        if let Frame::Checkpoint { round, .. } = &frame {
            self.checkpoints[id] = Some((*round as usize, frame));
        }
    }

    /// Release every worker for a clean exit (spawned mode).
    pub fn shutdown_all(&mut self) {
        let _ = self.broadcast(&Frame::Shutdown);
    }

    /// Best-effort fail-fast broadcast. Returns the ids of workers the
    /// abort could not be delivered to (already-dead sockets), so callers
    /// can name them in the surfaced error instead of dropping the
    /// failures silently.
    pub fn abort_all(&mut self, reason: &str) -> Vec<usize> {
        let mut unreachable = Vec::new();
        for (id, w) in self.workers.iter_mut().enumerate() {
            let sent =
                write_frame(w.reader.get_mut(), &Frame::Abort { reason: reason.to_string() });
            if sent.is_err() {
                unreachable.push(id);
            }
        }
        unreachable
    }

    /// Abort the cluster and annotate `e` with any workers the abort
    /// never reached.
    fn fail(&mut self, reason: String, e: NetError) -> NetError {
        let unreachable = self.abort_all(&reason);
        if unreachable.is_empty() {
            e
        } else {
            NetError::Protocol(format!("{e} (abort undeliverable to workers {unreachable:?})"))
        }
    }

    fn broadcast(&mut self, frame: &Frame) -> Result<()> {
        for w in &mut self.workers {
            write_frame(w.reader.get_mut(), frame)?;
        }
        Ok(())
    }

    /// Try to read one frame from worker `id` within the poll interval.
    /// A closed or failing socket is reported as [`Polled::Dead`] rather
    /// than an error, so callers can choose between fail-fast and
    /// recovery; only a malformed frame (protocol corruption) is an
    /// error.
    fn poll_frame(&mut self, id: usize) -> Result<Polled> {
        let w = &mut self.workers[id];
        w.timeouts.set_read_timeout(Some(POLL))?;
        // The guard clears the timeout on every exit path below; the
        // blocking read_frame must never run under a poll timeout (a
        // timed-out partial read would corrupt the frame stream).
        let guard = TimeoutGuard(&w.timeouts);
        match w.reader.fill_buf() {
            Ok([]) => {
                return Ok(Polled::Dead(format!("worker {id} died (control connection closed)")));
            }
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Ok(Polled::Pending);
            }
            Err(e) => {
                return Ok(Polled::Dead(format!("worker {id} control socket failed: {e}")));
            }
        }
        drop(guard);
        match read_frame(&mut w.reader, &self.pool) {
            Ok(f) => Ok(Polled::Got(f)),
            Err(NetError::Io(e)) => Ok(Polled::Dead(format!("worker {id} died mid-frame: {e}"))),
            Err(e) => Err(e),
        }
    }
}

/// Outcome of a spawned-process run under a [`MasterConfig`].
#[derive(Debug)]
pub struct SpawnedReport {
    /// The assembled result — byte-identical to a fault-free run even
    /// when recovery re-spawned workers along the way.
    pub result: RunResult,
    /// How many worker re-spawns the run consumed (0 on a clean run).
    pub respawns: usize,
}

/// Run `job` on a cluster of `job.p` spawned worker processes
/// (`worker_bin --master ADDR --worker ID`) coordinated over localhost,
/// and return the same [`RunResult`] as [`mpc_sim::Cluster::run`] on the
/// equivalent single-process cluster. Fail-fast: the first dead worker
/// aborts the job. See [`run_spawned_with`] for crash recovery.
///
/// Children are killed (and always reaped) when anything fails.
///
/// # Errors
///
/// Fails on spawn errors, worker death, protocol violations and — under
/// the cluster's overload policy — budget violations.
pub fn run_spawned(job: &JobSpec, worker_bin: &Path) -> Result<RunResult> {
    run_spawned_with(job, worker_bin, &MasterConfig::default()).map(|r| r.result)
}

/// [`run_spawned`] with a [`MasterConfig`]: a [`RecoveryPolicy`] that
/// re-spawns dead workers from their round checkpoints, and an optional
/// [`FaultPlan`](crate::FaultPlan) injected into the initial worker
/// processes (replacements always run clean).
///
/// # Errors
///
/// As [`run_spawned`]; with recovery enabled, worker deaths only fail
/// the job once the respawn budget is exhausted.
pub fn run_spawned_with(
    job: &JobSpec,
    worker_bin: &Path,
    cfg: &MasterConfig,
) -> Result<SpawnedReport> {
    let built = job.build()?;
    let total_rounds = built.program.num_rounds();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let policy = &cfg.recovery;
    let wire = format!("{}{}", job.to_wire(), RecoverySettings::from_policy(policy).wire_lines());
    let children: RefCell<Vec<Child>> = RefCell::new(Vec::with_capacity(job.p));
    let used = Cell::new(0usize);

    let spawn_worker = |id: usize, with_faults: bool| -> Result<Child> {
        let mut cmd = Command::new(worker_bin);
        cmd.arg("--master").arg(addr.to_string()).arg("--worker").arg(id.to_string());
        if with_faults {
            if let Some(plan) = &cfg.faults {
                for fault in plan.for_worker(id as u32) {
                    cmd.arg("--fault").arg(fault);
                }
            }
        }
        Ok(cmd.stdin(std::process::Stdio::null()).spawn()?)
    };

    let outcome = (|| -> Result<Vec<WorkerSummary>> {
        for id in 0..job.p {
            let child = spawn_worker(id, true)?;
            children.borrow_mut().push(child);
        }
        let mut plane = {
            // A worker process exiting before it dials in would otherwise
            // only surface at the accept deadline. With recovery enabled
            // the handshake heals in place: the replacement simply dials
            // in instead of the original.
            let mut watch = || -> Option<String> {
                let mut kids = children.borrow_mut();
                for (id, c) in kids.iter_mut().enumerate() {
                    let Ok(Some(status)) = c.try_wait() else { continue };
                    if policy.enabled() && used.get() < policy.max_respawns {
                        std::thread::sleep(policy.pause_before(used.get()));
                        used.set(used.get() + 1);
                        eprintln!(
                            "mpc-net master: worker {id} exited during handshake ({status}); \
                             re-spawning (respawn {}/{})",
                            used.get(),
                            policy.max_respawns
                        );
                        match spawn_worker(id, false) {
                            Ok(child) => {
                                kids[id] = child;
                                return None;
                            }
                            Err(e) => {
                                return Some(format!(
                                    "worker {id} died in handshake and respawn failed: {e}"
                                ));
                            }
                        }
                    }
                    return Some(format!("worker {id} exited during handshake ({status})"));
                }
                None
            };
            ControlPlane::accept(&listener, job.p, Some(&wire), Some(&mut watch))?
        };
        if policy.enabled() {
            let mut respawn = |id: usize| -> Result<()> {
                let child = spawn_worker(id, false)?;
                let mut kids = children.borrow_mut();
                let _ = kids[id].kill();
                let _ = kids[id].wait();
                kids[id] = child;
                Ok(())
            };
            let mut rec = Recoverer {
                listener: &listener,
                policy,
                used: &used,
                job_wire: &wire,
                respawn: &mut respawn,
            };
            plane.serve_barriers_with(total_rounds, Some(&mut rec))?;
            let summaries = plane.collect_summaries_with(total_rounds, Some(&mut rec))?;
            plane.shutdown_all();
            Ok(summaries)
        } else {
            plane.serve_barriers(total_rounds)?;
            let summaries = plane.collect_summaries()?;
            plane.shutdown_all();
            Ok(summaries)
        }
    })();

    if outcome.is_err() {
        for c in children.borrow_mut().iter_mut() {
            let _ = c.kill();
        }
    }
    for c in children.borrow_mut().iter_mut() {
        let _ = c.wait();
    }
    let summaries = outcome?;
    let (config, program) = (built.cluster.config(), built.program.as_ref());
    let result = fold_summaries(config, program, built.db.total_bytes(), summaries)?;
    Ok(SpawnedReport { result, respawns: used.get() })
}

/// The worker-process entry point behind `mpc_workerd`: dial the master,
/// receive the job (and, for a recovery replacement, the checkpoint to
/// restore from), rebuild program and database from the spec, run the
/// worker loop over TCP, report the summary and wait for shutdown.
///
/// # Errors
///
/// Fails on protocol violations, job build errors and program errors; a
/// failure aborts the rest of the cluster before returning.
pub fn worker_main(master_addr: &str, worker_id: usize) -> Result<()> {
    crate::fault::trip(worker_id as u32, FaultPhase::Handshake);
    let setup = tcp_worker_setup(worker_id, None, master_addr, SPAWNED_QUEUE_CAPACITY)?;
    let mut transport = setup.transport;
    let job = setup.job;
    let resume = setup.restore;
    let run = (|| -> Result<WorkerSummary> {
        let wire =
            job.ok_or_else(|| NetError::Protocol("spawned worker received no job".to_string()))?;
        let spec = JobSpec::from_wire(&wire)?;
        if spec.p != transport.parties() {
            return Err(NetError::Protocol(format!(
                "job says p = {}, peer table says {}",
                spec.p,
                transport.parties()
            )));
        }
        let built = spec.build()?;
        let (program, capacity) = (built.program.as_ref(), spec.block_capacity);
        run_tcp_worker(&mut transport, program, &built.db, worker_id, capacity, resume)
    })();
    match run {
        Ok(summary) => {
            crate::fault::trip(worker_id as u32, FaultPhase::Summary);
            transport.send_control(&Frame::Summary {
                output: summary.output,
                per_round_bytes: summary.per_round_bytes,
                per_round_tuples: summary.per_round_tuples,
            })?;
            // Keep data sockets open until the master confirms every
            // worker drained; only then tear down.
            match transport.read_control()? {
                Frame::Shutdown => {}
                Frame::Abort { reason } => {
                    transport.abort();
                    return Err(NetError::Protocol(format!("master aborted: {reason}")));
                }
                other => {
                    return Err(NetError::Protocol(format!("expected Shutdown, got {other:?}")));
                }
            }
            transport.shutdown();
            Ok(())
        }
        Err(e) => {
            transport.abort();
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker that dials in long after the master stopped yielding (the
    /// pauses have reached their cap by then) is still accepted.
    #[test]
    fn a_late_worker_is_accepted_after_the_master_backs_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = std::thread::spawn(move || -> Result<Frame> {
            std::thread::sleep(Duration::from_millis(40));
            let mut control = TcpStream::connect(addr)?;
            let pool = BlockPool::new();
            write_frame(&mut control, &Frame::Hello { worker_id: 0, data_port: 9 })?;
            let peers = read_frame(&mut control, &pool)?;
            write_frame(&mut control, &Frame::MeshReady)?;
            assert!(matches!(read_frame(&mut control, &pool)?, Frame::Proceed { round: 0 }));
            Ok(peers)
        });
        let started = Instant::now();
        ControlPlane::accept(&listener, 1, None, None).expect("handshake");
        assert!(started.elapsed() >= Duration::from_millis(40));
        match worker.join().unwrap().expect("worker side") {
            Frame::Peers { peers } => assert_eq!(peers, vec![(0, "127.0.0.1:9".to_string())]),
            other => panic!("expected Peers, got {other:?}"),
        }
    }

    #[test]
    fn accept_pauses_double_up_to_the_cap() {
        let timed = |idle_polls| {
            let start = Instant::now();
            accept_pause(idle_polls);
            start.elapsed()
        };
        assert!(timed(ACCEPT_YIELDS) >= ACCEPT_PAUSE_MIN);
        assert!(timed(ACCEPT_YIELDS + 3) >= ACCEPT_PAUSE_MIN * 8);
        for idle_polls in [ACCEPT_YIELDS + 7, ACCEPT_YIELDS + 40, u32::MAX] {
            let pause = timed(idle_polls);
            assert!(pause >= ACCEPT_PAUSE_CAP, "{idle_polls}: {pause:?}");
            assert!(pause < Duration::from_secs(2), "{idle_polls}: {pause:?}");
        }
    }
}
